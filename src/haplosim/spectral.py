"""Noisy-case decoder: majority-vote adjacency plus sign split of the
second eigenvector.

For every pair of columns co-observed by at least one read, agreeing and
disagreeing reads are tallied; the pair is linked iff agreements win
strictly. The haplotype is then read off the signs of the eigenvector for
the second largest eigenvalue of the 0/1 adjacency.

Eigenpairs come from the implicitly restarted Lanczos method of ARPACK
(Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998) through
scipy.sparse.linalg.eigsh(k=2, which="LA") on A + shift*I, positive
definite, started from a vector drawn from SpectralConfig.seed and
converged well past the residual contract. A repeated lambda1, which one
Lanczos start vector sees only once, lives on separate connected
components of a nonnegative matrix and is split off them. Matrices of size
2 (which ARPACK cannot take with k=2), matrices with negative entries and
ARPACK breakdowns go to a dense solver; the zero matrix needs no solve.
Cost is O(restarts * ncv * nnz(A)).

Post-processing, each step accepted only if the residual and orthogonality
contracts still hold afterwards:
  * if the top two eigenvalues tie within 10*tolerance*max(1, |lambda1|),
    the returned basis of their eigenspace is rotated so v1 aligns with
    the all-ones direction, matching the block structure the planted
    analysis predicts;
  * vector entries that are pure iteration dust are snapped to exact zero,
    so columns invisible to an eigenvector land deterministically in the
    >= 0 branch of the sign split;
  * each vector is oriented so strictly negative entries are not the
    minority (ties: first nonzero entry made negative), a deterministic
    convention that is immaterial when both blocks are present in v2 and
    picks the informative orientation when one block sits at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .model import (
    NO_LINKED_PAIRS, NON_CONVERGED, Haplotype, MembershipVector, ReadMatrix, RecoveryResult,
)

__all__ = [
    "VoteMatrix",
    "SpectralConfig",
    "NonConvergedError",
    "build_adjacency",
    "top_two_eigenpairs",
    "partition",
    "decode",
    "infer_memberships",
]


class NonConvergedError(RuntimeError):
    """The eigen solve missed the residual contract.

    `residual` is the largest residual of the returned pairs, inf when
    ARPACK returned none; `iterations` is the restart budget it ran under.
    """

    def __init__(self, residual: float, iterations: int) -> None:
        super().__init__(
            f"eigen solve did not converge within {iterations} restarts "
            f"(residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


class VoteMatrix:
    """Symmetric 0/1 zero-diagonal adjacency from per-pair majority votes.

    `pairs` is the (P, 2) array of every co-observed column pair (u, v),
    u < v, sorted by u and then v, and `tallies` the (P, 2) array of their
    (agree, disagree) vote counts. `edges` holds the rows of `pairs` that
    are linked (a_uv = 1), exactly those with agree > disagree, so ties and
    never-co-observed pairs stay 0.
    """

    def __init__(self, size: int, pairs: np.ndarray, tallies: np.ndarray) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size, self.pairs, self.tallies = size, pairs, tallies
        self.edges = pairs[tallies[:, 0] > tallies[:, 1]]

    def to_sparse(self) -> sp.csr_matrix:
        us, vs = self.edges.T
        rows = np.concatenate([us, vs])
        cols = np.concatenate([vs, us])
        return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(self.size, self.size))


@dataclass(frozen=True)
class SpectralConfig:
    """Eigen solver knobs: residual tolerance, ARPACK restart budget,
    start-vector seed.

    max_iterations=None resolves to 10 * n restarts.
    """

    tolerance: float = 1e-8
    max_iterations: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


def _row_pairs(matrix: ReadMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Entry indices (first, second) of every within-row pair, row by row
    in itertools.combinations order."""
    lengths = np.diff(matrix.indptr)
    rows = matrix.entry_rows()
    later = lengths[rows] - 1 - (np.arange(rows.size) - matrix.indptr[rows])
    first = np.repeat(np.arange(rows.size), later)
    run_start = np.repeat(np.cumsum(later) - later, later)
    second = first + 1 + np.arange(first.size) - run_start
    return first, second


def build_adjacency(matrix: ReadMatrix) -> VoteMatrix:
    """Tally agreements per co-observed column pair and keep majority winners:
    every read casts one vote on each pair of columns it observes."""
    n = matrix.num_cols
    first, second = _row_pairs(matrix)
    us = matrix.indices[first].astype(np.int64)
    vs = matrix.indices[second].astype(np.int64)
    agree = matrix.values[first] == matrix.values[second]
    keys, pair_of = np.unique(us * n + vs, return_inverse=True)
    tallies = [
        np.bincount(pair_of, weights=agree == side, minlength=keys.size) for side in (True, False)
    ]
    return VoteMatrix(n, np.stack(np.divmod(keys, n), axis=1), np.stack(tallies, axis=1))


def _as_csr(matrix) -> sp.csr_matrix:
    if isinstance(matrix, VoteMatrix):
        return matrix.to_sparse()
    if sp.issparse(matrix):
        return matrix.tocsr()
    dense = np.asarray(matrix, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError("expected a square matrix")
    return sp.csr_matrix(dense)


def _residual_ok(a: sp.csr_matrix, lam: float, vec: np.ndarray, tol: float) -> bool:
    return float(np.linalg.norm(a @ vec - lam * vec)) <= tol * max(1.0, abs(lam))


def _near_tie(lam1: float, lam2: float, tol: float) -> bool:
    return abs(lam1 - lam2) <= 10.0 * tol * max(1.0, abs(lam1))


def top_two_eigenpairs(
    matrix, config: SpectralConfig | None = None
) -> tuple[tuple[float, np.ndarray], tuple[float, np.ndarray]]:
    """Two largest eigenvalues (algebraic) and unit eigenvectors of a
    symmetric matrix.

    Accepts a VoteMatrix, a dense symmetric array, or a scipy sparse
    matrix, which is applied as given. Guarantees ||A v_i - lambda_i v_i||
    <= tolerance * max(1, |lambda_i|), unit norms, and |v1 . v2| <=
    tolerance. The zero matrix yields (0, 0) with an arbitrary orthonormal
    pair. Raises NonConvergedError when ARPACK spends its restart budget
    or the returned pair misses the residual contract.
    """
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

    cfg = config or SpectralConfig()
    a = _as_csr(matrix)
    n = a.shape[0]
    if n < 2:
        raise ValueError("need a matrix of size >= 2")
    tol = cfg.tolerance
    restarts = cfg.max_iterations if cfg.max_iterations is not None else 10 * n
    if a.nnz == 0:
        values, vectors = np.zeros(2), np.eye(n, 2)
    elif n == 2 or a.data.min() < 0:
        # ARPACK refuses k=2 at n=2; negative entries void the
        # Perron-Frobenius argument of _split_tied_top
        values, vectors = _dense_top_two(a)
    else:
        # ARPACK can skip a wanted eigenvalue that is exactly 0 (K_n minus
        # an edge loses its lambda2 = 0), so solve a + shift*I, positive
        # definite since max|a_ij| * (max row nnz) bounds the spectral radius
        shift = 2.0 * float(a.data.max()) * int(np.diff(a.indptr).max())
        shifted = LinearOperator(a.shape, matvec=lambda x: a @ x + shift * x, dtype=float)
        v0 = np.random.default_rng(cfg.seed).standard_normal(n)
        try:
            # ncv < n (where k < ncv allows) so one Lanczos pass cannot span
            # the whole space and the restart budget binds; converge well
            # past the contract so eigenvector dust sits far below the
            # zero-snap threshold
            values, vectors = eigsh(
                shifted, k=2, which="LA", v0=v0, ncv=min(n, max(5, n - 1), 20),
                maxiter=restarts, tol=max(tol * 1e-4, 5e-14),
            )
        except ArpackNoConvergence:
            # ARPACK reports no residual for the Ritz pairs it did not converge
            raise NonConvergedError(residual=math.inf, iterations=restarts) from None
        except ArpackError:
            # a breakdown with no shift to apply (ARPACK info 3), seen on small
            # graphs with few distinct eigenvalues
            values, vectors = _dense_top_two(a)
        else:
            values, vectors = _split_tied_top(a, values - shift, vectors, tol)
    values, vectors = values[::-1], vectors[:, ::-1]  # ascending -> top two first
    norms = np.linalg.norm(a @ vectors - vectors * values, axis=0)
    if np.any(norms > tol * np.maximum(1.0, np.abs(values))):
        raise NonConvergedError(residual=float(np.max(norms)), iterations=restarts)

    lam1, lam2 = float(values[0]), float(values[1])
    v1, v2 = vectors[:, 0].copy(), vectors[:, 1].copy()
    if _near_tie(lam1, lam2, tol):
        v1, v2 = _align_degenerate_pair(a, (lam1, lam2), (v1, v2), tol)
    v1 = _snap_tiny_entries(a, lam1, v1, tol)
    v2 = _snap_tiny_entries(a, lam2, v2, tol)
    if abs(float(v1 @ v2)) > tol:  # pragma: no cover - snap gate keeps this false
        raise NonConvergedError(residual=float(np.max(norms)), iterations=restarts)
    return (lam1, _orient(v1)), (lam2, _orient(v2))


def _dense_top_two(a: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    values, vectors = np.linalg.eigh(a.toarray())
    return values[-2:], vectors[:, -2:]


def _split_tied_top(
    a: sp.csr_matrix, values: np.ndarray, vectors: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Recover a second copy of lambda1 that single-vector Lanczos missed.

    The Krylov space of one start vector holds one direction of a repeated
    eigenvalue. For a nonnegative matrix lambda1 repeats only across
    connected components (Perron-Frobenius), and the returned v1 then mixes
    their Perron vectors; its parts on its two heaviest components replace
    the pair (ascending order) if both are eigenvectors for lambda1 within
    the residual contract.
    """
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(a, directed=False)
    if count == 1:
        return values, vectors
    top = vectors[:, 1]
    heavy = np.argsort(np.bincount(labels, weights=top * top))[-2:]
    parts = np.stack([np.where(labels == c, top, 0.0) for c in heavy], axis=1)
    norms = np.linalg.norm(parts, axis=0)
    if norms.min() == 0.0:
        return values, vectors
    parts /= norms
    lams = np.einsum("ij,ij->j", parts, a @ parts)
    if all(
        _near_tie(values[1], lam, tol) and _residual_ok(a, lam, parts[:, i], tol)
        for i, lam in enumerate(lams)
    ):
        order = np.argsort(lams)
        return lams[order], parts[:, order]
    return values, vectors


def _align_degenerate_pair(
    a: sp.csr_matrix,
    values: tuple[float, float],
    vectors: tuple[np.ndarray, np.ndarray],
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate a (near-)tied eigenpair basis so v1 tracks the all-ones direction.

    Within a tied eigenspace any orthonormal basis is valid; this picks the
    one whose second vector is orthogonal to the constant vector, the
    configuration the two-block analysis predicts. Reverted unless both
    rotated vectors still meet the residual contract.
    """
    lam1, lam2 = values
    v1, v2 = vectors
    n = v1.shape[0]
    coeff = np.array([v1 @ np.ones(n), v2 @ np.ones(n)])
    norm = float(np.linalg.norm(coeff))
    if norm <= 1e-8 * math.sqrt(n):
        return v1, v2
    u = coeff / norm
    cand1 = u[0] * v1 + u[1] * v2
    cand2 = -u[1] * v1 + u[0] * v2
    if _residual_ok(a, lam1, cand1, tol) and _residual_ok(a, lam2, cand2, tol):
        return cand1, cand2
    return v1, v2


def _snap_tiny_entries(
    a: sp.csr_matrix, lam: float, vec: np.ndarray, tol: float
) -> np.ndarray:
    """Zero out entries that are iteration dust, if the contract survives.

    An exact eigenvector of a block-structured adjacency has exact zeros on
    the blocks it does not see; the iteration leaves arbitrary-signed dust
    there, which would scatter those columns across the sign split.
    """
    threshold = 0.5 * tol / math.sqrt(vec.shape[0]) * max(1.0, float(np.max(np.abs(vec))))
    small = np.abs(vec) < threshold
    if not small.any() or small.all():
        return vec
    candidate = vec.copy()
    candidate[small] = 0.0
    candidate /= np.linalg.norm(candidate)
    if _residual_ok(a, lam, candidate, tol):
        return candidate
    return vec


def _orient(vec: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: strict negatives not in the minority."""
    neg = int((vec < 0).sum())
    pos = int((vec > 0).sum())
    if neg < pos:
        return -vec
    if neg == pos:
        nonzero = np.nonzero(vec)[0]
        if nonzero.size and vec[nonzero[0]] > 0:
            return -vec
    return vec


def partition(v2: Sequence[float] | np.ndarray) -> Haplotype:
    """Sign split of the second eigenvector: negative entries become +1."""
    return Haplotype(np.where(np.asarray(v2, dtype=float) < 0, 1, -1))


def decode(matrix: ReadMatrix, config: SpectralConfig | None = None) -> RecoveryResult:
    """build_adjacency -> top_two_eigenpairs -> partition.

    The membership estimate is not part of this decoder (use
    infer_memberships). meta carries the adjacency fill, and on success both
    eigenvalues and a low_confidence flag for near-degenerate spectra. A
    solve that misses its contract fails as NON_CONVERGED, with its residual,
    restart budget and message in meta; no linked pair fails as NO_LINKED_PAIRS.
    """
    cfg = config or SpectralConfig()
    votes = build_adjacency(matrix)
    meta = {"linked_pairs": len(votes.edges)}
    try:
        (lam1, _v1), (lam2, v2) = top_two_eigenpairs(votes, cfg)
    except NonConvergedError as exc:
        meta.update(residual=exc.residual, restarts=exc.iterations, error=str(exc))
        return RecoveryResult(None, None, reason=NON_CONVERGED, meta=meta)
    if meta["linked_pairs"] == 0:  # after the solve, which rejects a size below 2
        return RecoveryResult(None, None, reason=NO_LINKED_PAIRS, meta=meta)
    meta.update(lambda1=lam1, lambda2=lam2, low_confidence=_near_tie(lam1, lam2, cfg.tolerance))
    return RecoveryResult(partition(v2), None, meta=meta)


def infer_memberships(matrix: ReadMatrix, haplotype: Haplotype) -> MembershipVector:
    """Per-read sign vote against a haplotype estimate; zero sums go to +1."""
    if len(haplotype) != matrix.num_cols:
        raise ValueError(
            f"haplotype length {len(haplotype)} != matrix columns {matrix.num_cols}"
        )
    reads = sp.csr_matrix(
        (matrix.values, matrix.indices, matrix.indptr), shape=(matrix.num_rows, matrix.num_cols)
    )
    agreement = reads @ haplotype.to_array().astype(np.int64)
    return MembershipVector(np.where(agreement >= 0, 1, -1))
