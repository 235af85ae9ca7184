"""Paired-end sequencing channel: per-row erasures plus i.i.d. sign flips.

Each read keeps exactly k surviving positions (uniform over the C(n, k)
column subsets, independent across rows) and every surviving observation is
flipped independently with probability p. Also provides closed-form
probabilities for the two failure events of error-free decoding: an
uncovered column, and a split of reads/columns into two groups with no
bridging observation. Both formulas are specific to k=2 and are evaluated
in log space; scipy.special is imported only where it is used.

RNG: Philox (counter-based, 64-bit seeded). Pinned so that a (seed, trial)
pair reproduces bit-identical draws regardless of execution order; do not
swap generators silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Haplotype, MembershipVector, ReadMatrix
from .planted import _log_comb

__all__ = [
    "ChannelConfig",
    "make_rng",
    "transmit",
    "prob_uncovered_column",
    "prob_disconnected_split",
]


@dataclass(frozen=True)
class ChannelConfig:
    """Channel parameters: n sites, m reads, k observations per read, flip prob p."""

    n: int
    m: int
    k: int = 2
    p: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 2 <= self.k <= self.n:
            raise ValueError(f"k must be in [2, n], got k={self.k}, n={self.n}")
        if not 0.0 <= self.p <= 0.5:
            raise ValueError(f"p must be in [0, 0.5], got {self.p}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def make_rng(seed: int) -> np.random.Generator:
    """The pinned channel generator for a 64-bit seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _draw_columns(cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """(m, k) int32 array of sorted surviving columns, one uniform k-subset
    per row.

    k=2 avoids the per-row choice() loop: the second column is drawn
    uniformly from the n-1 remaining slots, which is exactly uniform over
    unordered pairs. The draws are int64; they are narrowed once ordered.
    """
    if cfg.k == 2:
        first = rng.integers(0, cfg.n, size=cfg.m)
        second = rng.integers(0, cfg.n - 1, size=cfg.m)
        second += second >= first
        cols = np.empty((cfg.m, 2), dtype=np.int32)
        np.minimum(first, second, out=cols[:, 0])
        np.maximum(first, second, out=cols[:, 1])
        return cols
    if cfg.k == cfg.n:
        return np.tile(np.arange(cfg.n, dtype=np.int32), (cfg.m, 1))
    keys = rng.random((cfg.m, cfg.n))
    return np.sort(np.argpartition(keys, cfg.k, axis=1)[:, : cfg.k], axis=1).astype(np.int32)


def transmit(
    h: Haplotype, c: MembershipVector, cfg: ChannelConfig
) -> tuple[ReadMatrix, np.ndarray]:
    """Push the rank-1 source through the channel.

    Returns the observed matrix and a boolean mask over its stored entries,
    in storage order (m*k of them), set where the sign was flipped.
    Deterministic given cfg.seed. Flip decisions use one uniform per stored
    entry, so memory stays O(m*k) even for large n.
    """
    if len(h) != cfg.n or len(c) != cfg.m:
        raise ValueError(
            f"shape mismatch: h has {len(h)} sites, c has {len(c)} reads, "
            f"config expects n={cfg.n}, m={cfg.m}"
        )
    rng = make_rng(cfg.seed)
    cols = _draw_columns(cfg, rng)
    values = h.to_array()[cols]
    values *= c.to_array()[:, None]
    if cfg.p > 0.0:
        flipped = rng.random((cfg.m, cfg.k)) < cfg.p
        np.negative(values, out=values, where=flipped)
    else:
        flipped = np.zeros((cfg.m, cfg.k), dtype=bool)
    indptr = np.arange(0, cfg.m * cfg.k + 1, cfg.k)
    return ReadMatrix(cfg.n, indptr, cols.ravel(), values.ravel()), flipped.ravel()


def prob_uncovered_column(n: int, m: int) -> float:
    """Probability that some column receives no observation (k=2 reads).

    Evaluates sum_{i=1}^{n-2} C(n,i) * [C(n-i,2)/C(n,2)]^m with
    scipy.special.logsumexp and clamps it to [0, 1]. The pair ratio's log is
    log1p(-i(2n-i-1) / (n(n-1))), so m multiplies no cancellation. For n > 3
    the sum lacks inclusion-exclusion alternation, so treat it as a
    union-style upper estimate there; at n=3 it is exact.
    """
    from scipy.special import logsumexp

    if n < 3:
        raise ValueError("n must be >= 3")
    if m < 1:
        raise ValueError("m must be >= 1")
    i = np.arange(1, n - 1, dtype=np.float64)
    terms = _log_comb(n, i) + m * np.log1p(-i * (2 * n - i - 1) / (n * (n - 1)))
    return math.exp(min(0.0, float(logsumexp(terms))))


def prob_disconnected_split(n: int, m: int, u: int, v: int) -> float:
    """Probability that u reads sample only a fixed-size-v column subset
    while the remaining m-u reads sample only its complement (k=2 reads).

    Evaluates C(n,v) C(m,u) C(v,2)^u C(n-v,2)^(m-u) / C(n,2)^m in log
    space; clamped to [0, 1], since the C(n,v) C(m,u) choice factor can
    carry it past 1. The two powers are taken of their pair ratios,
    v(v-1)/(n(n-1)) and 1 - v(2n-v-1)/(n(n-1)) through log1p, so u and m-u
    multiply no difference of log-binomials.
    """
    if not 1 <= u <= m - 1:
        raise ValueError(f"u must be in [1, m-1], got u={u}, m={m}")
    if not 2 <= v <= n - 2:
        raise ValueError(f"v must be in [2, n-2], got v={v}, n={n}")
    ordered_pairs = n * (n - 1)
    log_value = (
        _log_comb(n, v)
        + _log_comb(m, u)
        + u * math.log(v * (v - 1) / ordered_pairs)
        + (m - u) * math.log1p(-v * (2 * n - v - 1) / ordered_pairs)
    )
    return math.exp(min(0.0, log_value))
