"""Closed-form layer for the two-block planted matrix and vote probabilities.

The majority-vote adjacency built from noisy reads is, in expectation and up
to permutation, a two-block matrix B with within-class value alpha and
cross-class value beta. This module provides B's exact rank-2 spectrum, the
exact alpha/beta double sums for the k=2 channel, worst-case bounds on both
at m = k1*n*ln(n) read counts, and the Fano-style minimum read counts.

Binomial tails (bdtrc) and log-binomials (betaln) come from scipy.special,
imported inside the functions that use them so that `import haplosim` does
not load it. All entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PlantedParams",
    "PlantedSpectrum",
    "VoteProb",
    "spectrum",
    "majority_vote_prob",
    "alpha_exact",
    "beta_exact",
    "alpha_beta_bounds",
    "bound_assumptions_hold",
    "fano_min_reads",
    "binary_entropy",
]

# Outer binomial mass beyond the truncation index is kept below this.
TRUNCATION_TAIL = 1e-15


@dataclass(frozen=True)
class PlantedParams:
    """Two-block matrix parameters: block sizes and edge probabilities."""

    n1: int
    n2: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("block sizes must be >= 1")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def n(self) -> int:
        return self.n1 + self.n2


@dataclass(frozen=True)
class PlantedSpectrum:
    """Top-two eigenpairs of the planted matrix, plus the block-ratio roots."""

    lambda1: float
    lambda2: float
    mu1: float
    mu2: float
    v1: np.ndarray
    v2: np.ndarray


def spectrum(params: PlantedParams) -> PlantedSpectrum:
    """Closed-form rank-2 eigendecomposition of the planted matrix.

    Requires alpha > beta > 0. The two nonzero eigenvalues are
    lambda_i = n1*beta*mu_i + n2*alpha where mu_1 > 0 > mu_2 are the roots
    of the block-ratio quadratic; the eigenvectors are constant on each
    block, with opposite block signs in v2. Satisfies
    B = lambda1*v1*v1' + lambda2*v2*v2' to 1e-10 relative.
    """
    n1, n2 = params.n1, params.n2
    alpha, beta = params.alpha, params.beta
    if not alpha > beta > 0.0:
        raise ValueError(f"spectrum requires alpha > beta > 0, got alpha={alpha}, beta={beta}")
    disc = math.sqrt((n1 - n2) ** 2 * alpha**2 + 4.0 * n1 * n2 * beta**2)
    mu1 = ((n1 - n2) * alpha + disc) / (2.0 * n1 * beta)
    mu2 = ((n1 - n2) * alpha - disc) / (2.0 * n1 * beta)
    lambda1 = n1 * beta * mu1 + n2 * alpha
    lambda2 = n1 * beta * mu2 + n2 * alpha

    def block_vector(mu: float) -> np.ndarray:
        norm = math.sqrt(n1 * mu**2 + n2)
        vec = np.empty(n1 + n2, dtype=float)
        vec[:n1] = mu / norm
        vec[n1:] = 1.0 / norm
        vec.setflags(write=False)
        return vec

    return PlantedSpectrum(lambda1, lambda2, mu1, mu2, block_vector(mu1), block_vector(mu2))


class VoteProb(NamedTuple):
    """Exact vote probability plus the mass dropped by truncating the read-count sum."""

    value: float
    truncation_bound: float


def _log_comb(n: int, k):
    """log C(n, k) for 0 <= k <= n; k may be an array."""
    from scipy.special import betaln

    return -math.log1p(n) - betaln(n - k + 1, k + 1)


def majority_vote_prob(n: int, m: int, p: float, same_class: bool) -> VoteProb:
    """Probability that majority voting links a fixed column pair.

    Conditions on the number of k=2 reads covering the pair
    (Binomial(m, 2/(n(n-1)))) and, within each count, on a strict majority
    of agreeing observations. A covering read agrees with probability
    (1-p)^2 + p^2 when the pair is in the same class and 2p(1-p) otherwise.
    The read-count sum stops at the first count i whose binomial tail
    P(count > i) is below TRUNCATION_TAIL; that tail is the exact mass left
    out and is returned as the truncation bound.
    """
    from scipy.special import bdtrc

    if n < 3:
        raise ValueError("n must be >= 3")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"p must be in [0, 0.5], got {p}")
    q = 2.0 / (n * (n - 1))
    s = (1.0 - p) ** 2 + p**2 if same_class else 2.0 * p * (1.0 - p)
    log_q, log_1q = math.log(q), math.log1p(-q)
    total = 0.0
    for i in range(1, m + 1):
        pmf = math.exp(_log_comb(m, i) + i * log_q + (m - i) * log_1q)
        total += pmf * float(bdtrc(i // 2, i, s))  # strict majority of i votes
        tail = float(bdtrc(i, m, q))
        if tail < TRUNCATION_TAIL:
            break
    return VoteProb(min(1.0, max(0.0, total)), tail)


def alpha_exact(n: int, m: int, p: float) -> float:
    """Exact within-class link probability for the k=2 channel."""
    return majority_vote_prob(n, m, p, same_class=True).value


def beta_exact(n: int, m: int, p: float) -> float:
    """Exact cross-class link probability for the k=2 channel."""
    return majority_vote_prob(n, m, p, same_class=False).value


def alpha_beta_bounds(
    n: int, m: int, p: float, k1: float, k2: float, k3: float
) -> tuple[float, float]:
    """Worst-case bracket at m = k1*n*ln(n): lower bound on alpha, upper on beta.

    Valid for constants k2 < 1 < k3 once n is large enough; see
    bound_assumptions_hold for the explicit threshold check. m must match
    k1*n*ln(n) within 1%.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if not (0 < k2 < 1 < k3):
        raise ValueError(f"need 0 < k2 < 1 < k3, got k2={k2}, k3={k3}")
    if k1 <= 0:
        raise ValueError("k1 must be positive")
    target = k1 * n * math.log(n)
    if abs(m - target) > 0.01 * target:
        raise ValueError(f"m={m} is not within 1% of k1*n*ln(n)={target:.2f}")
    log_n = math.log(n)
    alpha_lower = 2.0 * k1 * k2 * ((1.0 - p) ** 2 + p**2) * log_n / (n - 1)
    beta_upper = 2.0 * k1 * (2.0 * p * (1.0 - p)) * log_n / ((n - 1) * (1.0 - 1.0 / k3))
    return alpha_lower, beta_upper


def _ratio_floors(n: int, m: float) -> tuple[float, float]:
    """Closed-form floors on beta_i / beta_{i+1} for even and odd i: the
    Lemma-1 term-ratio step gives [n(n-1)-2] / [4(m-2)] and [n(n-1)-2] / [2(m-1)]."""
    pairs = n * (n - 1) - 2.0
    return pairs / (4.0 * (m - 2.0)), pairs / (2.0 * (m - 1.0))


def bound_assumptions_hold(n: int, k1: float, k2: float, k3: float) -> bool:
    """Whether n is large enough for the alpha/beta bounds at these constants.

    Two conditions: n^(-4*k1/(n-1)) >= k2, and both term-ratio floors at
    m = k1*n*ln(n) are >= k3. With k1=2, k2=1/2, k3=2 the smallest valid
    n is 69. At m <= 2 the floors are not positive (at m = 2 the even one
    divides by zero), so the check fails there.
    """
    if n < 2:
        return False
    m_real = k1 * n * math.log(n)
    if m_real <= 2.0:
        return False
    first = n ** (-4.0 * k1 / (n - 1)) >= k2
    return first and min(_ratio_floors(n, m_real)) >= k3


def binary_entropy(p: float) -> float:
    """Binary entropy in bits, with 0*log(0) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def fano_min_reads(n: int, pe: float, p: float | None = None) -> float:
    """Minimum read count for target error probability pe.

    Error-free channel: (1-pe)*n / (1+pe). With flip probability p the
    denominator becomes 2*(1-H(p)); at p=0.5 the observations carry no
    information and the requirement is unbounded (returns inf).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= pe < 1.0:
        raise ValueError(f"pe must be in [0, 1), got {pe}")
    if p is None:
        return (1.0 - pe) * n / (1.0 + pe)
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"p must be in [0, 0.5], got {p}")
    if p == 0.5:
        return math.inf
    return (1.0 - pe) * n / (2.0 * (1.0 - binary_entropy(p)))
