"""Seed-propagation decoder for error-free read matrices.

Starting from an arbitrary observed entry of the first read, memberships
and SNP values propagate across reads that share observed columns. The
original formulation repeatedly deletes resolved rows; the propagation here
is one breadth-first search (scipy.sparse.csgraph) over the read/column
incidence graph, whose nodes are the reads 0..m-1 followed by the columns
m..m+n-1; its column-to-read half is the CSC transpose of the read
matrix, a linear-time counting sort in scipy. Each node takes the sign of
its BFS-tree parent times the entry joining them; since every read lists
its columns, and the transpose every column its reads, in ascending order,
the tree, and so every first implied value, is the one a queue-driven walk
would build. Cost is O(m*k + n) plus a logarithmic number of vector
passes to push signs down the tree.

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
)

__all__ = ["decode"]


def _incidence_graph(matrix: ReadMatrix) -> sp.csr_matrix:
    """Symmetric (m+n)-node read/column graph with ascending neighbour lists,
    each edge weighted by its entry's allele."""
    m, n = matrix.num_rows, matrix.num_cols
    by_col = sp.csr_matrix((matrix.values, matrix.indices, matrix.indptr), shape=(m, n)).tocsc()
    return sp.csr_matrix(
        (
            np.concatenate([matrix.values, by_col.data]),
            np.concatenate([matrix.indices + m, by_col.indices]),
            np.concatenate([matrix.indptr, matrix.indptr[-1] + by_col.indptr[1:]]),
        ),
        shape=(m + n, m + n),
    )


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

    graph = _incidence_graph(matrix)
    order, parent = breadth_first_order(graph, 0, directed=True, return_predecessors=True)
    child = order[1:]
    up = np.arange(m + n)
    up[child] = parent[child]
    sign = np.zeros(m + n, dtype=np.int8)  # stays 0 where the search does not reach
    sign[0] = 1
    sign[child] = np.asarray(graph[up[child], child]).ravel()  # entry joining child to parent
    # pointer jumping: sign[v] becomes the product of entry signs from v up
    # to up[v], until up[v] is the root for every reached node
    while np.any(up[up] != up):
        sign = sign * sign[up]
        up = up[up]
    c, h = sign[:m], sign[m:]

    entry_rows = matrix.entry_rows()
    implied = c[entry_rows] * matrix.values  # each entry's vote for its column
    if strict and np.any(implied != h[matrix.indices]):
        return RecoveryResult(None, None, reason=INCONSISTENT)
    if order.size < m + n:
        return RecoveryResult(None, None, reason=DISCONNECTED)

    if not strict:
        votes = np.bincount(matrix.indices, weights=implied, minlength=n)
        h = np.where(votes >= 0, 1, -1)
    mismatches = int(np.count_nonzero(c[entry_rows] * h[matrix.indices] != matrix.values))
    return RecoveryResult(Haplotype(h), MembershipVector(c), meta={"mismatches": mismatches})
