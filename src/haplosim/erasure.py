"""Seed-propagation decoder for error-free read matrices.

Starting from an arbitrary observed entry of the first read, memberships
and SNP values propagate across reads that share observed columns. The
original formulation repeatedly deletes resolved rows; the propagation here
is one breadth-first search (scipy.sparse.csgraph) over the read/column
incidence graph, whose nodes are the reads 0..m-1 followed by the columns
m..m+n-1; its column-to-read half is the CSC transpose of the read
matrix, a linear-time counting sort in scipy. The graph is a pattern: its
weights are all 1.0, csgraph's own float64, and its int32 index arrays are
written in place, so the search copies nothing; it is freed once the
search returns. Each node takes the sign of its BFS-tree parent times the
entry joining them, and that entry is read off the entry arrays: entry
(r, j) is column j's tree edge when read r is its parent, and read r's
when column j is. Since every read lists its columns, and the transpose
every column its reads, in ascending order, the tree, and so every first
implied value, is the one a queue-driven walk would build. Cost is
O(m*k + n) plus a logarithmic number of vector passes to push signs down
the tree.

Failure classification: an uncovered column is reported before a
disconnected split when both hold. On noisy input the walk keeps going by
default and each column is settled by the majority of propagated votes
(ties to +1) -- a practical extension with no recovery guarantee; pass
strict=True to report any entry that conflicts with the propagated values
of its component (as an Inconsistent failure) instead.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .model import (
    DISCONNECTED,
    INCONSISTENT,
    UNCOVERED_COLUMN,
    Haplotype,
    MembershipVector,
    ReadMatrix,
    RecoveryResult,
    _index_dtype,
)

__all__ = ["decode"]


def _incidence_graph(matrix: ReadMatrix) -> sp.csr_matrix:
    """Symmetric (m+n)-node read/column pattern graph with ascending
    neighbour lists. Every weight is 1.0, in csgraph's own float64, so the
    search reads the arrays as built."""
    m, n, nnz = matrix.num_rows, matrix.num_cols, matrix.indices.size
    index = _index_dtype(max(m + n, 2 * nnz + 1))
    by_col = sp.csr_matrix((matrix.values, matrix.indices, matrix.indptr), shape=(m, n)).tocsc()
    indptr = np.empty(m + n + 1, dtype=index)
    indptr[: m + 1] = matrix.indptr
    np.add(by_col.indptr[1:], nnz, out=indptr[m + 1 :], dtype=index)
    indices = np.empty(2 * nnz, dtype=index)
    np.add(matrix.indices, m, out=indices[:nnz], dtype=index)
    indices[nnz:] = by_col.indices
    return sp.csr_matrix((np.ones(2 * nnz), indices, indptr), shape=(m + n, m + n))


def decode(matrix: ReadMatrix, strict: bool = False) -> RecoveryResult:
    """Recover (h, c) from an observation matrix by seed propagation.

    The first read's membership is fixed to +1, so estimates are recovered
    up to a global sign flip. On success every stored entry of an error-free
    input satisfies r_ij = c_i * h_j.

    strict=False (default): conflicting entries are tolerated and each
    column takes the sign of the sum of propagated votes, ties to +1.
    strict=True: a conflicting entry in the first read's component is an
    Inconsistent failure.
    """
    from scipy.sparse.csgraph import breadth_first_order

    m, n = matrix.num_rows, matrix.num_cols
    if m == 0:
        raise ValueError("cannot decode an empty read matrix")
    lengths = np.diff(matrix.indptr)
    if not lengths.all():
        raise ValueError(f"row {int(np.argmin(lengths))} has no observations")
    uncovered = np.flatnonzero(np.bincount(matrix.indices, minlength=n) == 0)
    if uncovered.size:
        return RecoveryResult(None, None, reason=UNCOVERED_COLUMN, column=int(uncovered[0]))

    order, parent = breadth_first_order(
        _incidence_graph(matrix), 0, directed=True, return_predecessors=True
    )
    # each reached node but the root takes the sign of the entry joining it
    # to its parent: entry (r, j) is column j's tree edge when r is its
    # parent, and read r's tree edge when column j is
    rows, cols, values = matrix.entry_rows(), matrix.indices, matrix.values
    sign = np.zeros(m + n, dtype=np.int8)  # stays 0 where the search does not reach
    sign[0] = 1
    edge = np.flatnonzero(parent[m:][cols] == rows)
    sign[m:][cols[edge]] = values[edge]
    read_parent = parent[rows]
    read_parent -= m
    edge = np.flatnonzero(read_parent == cols)
    sign[rows[edge]] = values[edge]
    del edge, read_parent  # freed here, the vote tally below stays under the search's peak
    child = order[1:]
    up = np.arange(m + n, dtype=parent.dtype)
    up[child] = parent[child]
    # pointer jumping: sign[v] becomes the product of entry signs from v up
    # to up[v], until up[v] is the root for every reached node
    jumped = up[up]
    while np.any(jumped != up):
        sign *= sign[up]
        up, jumped = jumped, jumped[jumped]
    c, h = sign[:m], sign[m:]

    implied = c[rows]  # each entry's vote for its column
    implied *= values
    del rows
    if strict and np.any(implied != h[cols]):
        return RecoveryResult(None, None, reason=INCONSISTENT)
    if order.size < m + n:
        return RecoveryResult(None, None, reason=DISCONNECTED)

    if not strict:
        votes = np.bincount(cols, weights=implied, minlength=n)
        h = np.where(votes >= 0, np.int8(1), np.int8(-1))
    mismatches = int(np.count_nonzero(implied != h[cols]))
    return RecoveryResult(Haplotype(h), MembershipVector(c), meta={"mismatches": mismatches})
