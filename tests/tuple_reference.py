"""Tuple-side oracles for the array code in haplosim.

`read_matrix` builds a ReadMatrix from per-row (column, allele) tuples
through its one constructor; `rows`, `entries` and `dense` read it back,
and `signs`, `tally_dict` and `edge_set` read the sign vectors and the
VoteMatrix arrays back as tuples.
On them sit the row-by-row Python versions of the array code: `encode` and
`project` for the masked rank-1 source, `sample_mask` for the channel's
positions, a queue-driven walk and a union-find for the erasure decoder,
dict tallies for the vote adjacency, a per-row sum for membership
inference, and the line-by-line fragment and truth file codecs, whose
reader takes only what the writer writes: unsigned decimals without
leading zeros, single spaces, LF line ends. `incidence_graph` is
the stable-argsort construction of the erasure decoder's read/column
graph, with the alleles as weights, the oracle for the CSC transpose that
replaced it; `lookup_erasure_decode` is the decoder that searched that
weighted graph and looked each tree edge's sign up in it.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import combinations
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from haplosim.channel import ChannelConfig, _draw_columns
from haplosim.fragio import (
    MAGIC,
    AlleleError,
    ColumnOrderError,
    DimensionError,
    DuplicateColumnError,
    FragmentFormatError,
    HeaderError,
)
from haplosim.model import (
    DISCONNECTED,
    INCONSISTENT,
    UNCOVERED_COLUMN,
    Haplotype,
    MembershipVector,
    ReadMatrix,
    RecoveryResult,
)
from haplosim.spectral import VoteMatrix


def read_matrix(num_cols: int, per_row: Iterable[Iterable[tuple[int, int]]] = ()) -> ReadMatrix:
    """ReadMatrix from per-row (column, allele) tuples."""
    per_row = [tuple(row) for row in per_row]
    flat = np.array([entry for row in per_row for entry in row], dtype=np.int64).reshape(-1, 2)
    indptr = np.cumsum([0] + [len(row) for row in per_row])
    return ReadMatrix(num_cols, indptr, flat[:, 0], flat[:, 1])


def rows(matrix: ReadMatrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per-row tuples of (column, allele) pairs."""
    cols, vals, bounds = matrix.indices.tolist(), matrix.values.tolist(), matrix.indptr.tolist()
    return tuple(tuple(zip(cols[lo:hi], vals[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:]))


def entries(matrix: ReadMatrix) -> Iterator[tuple[int, int, int]]:
    """(row, column, allele) for every stored observation, in storage order."""
    return ((i, j, a) for i, row in enumerate(rows(matrix)) for j, a in row)


def dense(matrix: ReadMatrix) -> np.ndarray:
    """Dense int8 copy with 0 at erased positions."""
    out = np.zeros((matrix.num_rows, matrix.num_cols), dtype=np.int8)
    for i, j, a in entries(matrix):
        out[i, j] = a
    return out


def encode(h: Haplotype, c: MembershipVector) -> np.ndarray:
    """Rank-1 source matrix: entry (i, j) is c_i * h_j."""
    return np.outer(c.to_array(), h.to_array()).astype(np.int8)


def project(source: np.ndarray, mask: Iterable[tuple[int, int]]) -> ReadMatrix:
    """Keep only the masked positions of a dense +/-1 matrix.

    Raises ValueError for out-of-bounds mask positions.
    """
    source = np.asarray(source)
    m, n = source.shape
    per_row: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for i, j in mask:
        if not (0 <= i < m and 0 <= j < n):
            raise ValueError(f"mask position ({i}, {j}) outside {m}x{n} matrix")
        per_row[i].append((j, int(source[i, j])))
    return read_matrix(n, (sorted(row) for row in per_row))


def sample_mask(cfg: ChannelConfig, rng: np.random.Generator) -> set[tuple[int, int]]:
    """The surviving positions transmit draws: k distinct uniform columns per row."""
    cols = _draw_columns(cfg, rng)
    return {(i, int(j)) for i in range(cfg.m) for j in cols[i]}


def signs(vector: Haplotype | MembershipVector) -> tuple[int, ...]:
    """The +/-1 entries of a haplotype or membership vector as a tuple."""
    return tuple(vector.to_array().tolist())


def tally_dict(votes: VoteMatrix) -> dict[tuple[int, int], tuple[float, float]]:
    """(u, v) -> (agree, disagree) for every co-observed pair, u < v."""
    return dict(zip(map(tuple, votes.pairs.tolist()), map(tuple, votes.tallies.tolist())))


def edge_set(votes: VoteMatrix) -> frozenset[tuple[int, int]]:
    """The linked pairs (u, v), u < v."""
    return frozenset(map(tuple, votes.edges.tolist()))


def vote_entry(votes: VoteMatrix, u: int, v: int) -> int:
    """Adjacency entry a_uv, read off the linked pairs."""
    return int((min(u, v), max(u, v)) in edge_set(votes))


class _DisjointSet:
    """Union-find with path compression over a fixed element range."""

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def overlap_components(matrix: ReadMatrix) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    m, n = matrix.num_rows, matrix.num_cols
    ds = _DisjointSet(m + n)
    for i, j, _ in entries(matrix):
        ds.union(i, m + j)
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for i in range(m):
        groups.setdefault(ds.find(i), ([], []))[0].append(i)
    for j in range(n):
        groups.setdefault(ds.find(m + j), ([], []))[1].append(j)
    components = [(tuple(rows), tuple(cols)) for rows, cols in groups.values()]
    components.sort(key=lambda rc: (rc[0][0] if rc[0] else m + rc[1][0]))
    return components


def incidence_graph(matrix: ReadMatrix) -> sp.csr_matrix:
    m, n = matrix.num_rows, matrix.num_cols
    by_col = np.argsort(matrix.indices, kind="stable")  # rows stay ascending per column
    col_ptr = np.cumsum(np.bincount(matrix.indices, minlength=n))
    return sp.csr_matrix(
        (
            np.concatenate([matrix.values, matrix.values[by_col]]),
            np.concatenate([matrix.indices + m, matrix.entry_rows()[by_col]]),
            np.concatenate([matrix.indptr, matrix.indptr[-1] + col_ptr]),
        ),
        shape=(m + n, m + n),
    )


def erasure_decode(matrix: ReadMatrix, strict: bool = False) -> RecoveryResult:
    m, n = matrix.num_rows, matrix.num_cols
    if m == 0:
        raise ValueError("cannot decode an empty read matrix")
    matrix_rows = rows(matrix)
    for i, row in enumerate(matrix_rows):
        if not row:
            raise ValueError(f"row {i} has no observations")

    cols_to_rows: list[list[int]] = [[] for _ in range(n)]
    for i, j, _ in entries(matrix):
        cols_to_rows[j].append(i)
    for j in range(n):
        if not cols_to_rows[j]:
            return RecoveryResult(None, None, reason=UNCOVERED_COLUMN, column=j)

    row_value = {i: dict(row) for i, row in enumerate(matrix_rows)}
    c = [0] * m  # 0 = not yet reached
    h = [0] * n
    votes = [0] * n
    c[0] = 1
    rows_seen = 1
    cols_seen = 0
    queue: deque[tuple[bool, int]] = deque([(True, 0)])
    while queue:
        is_row, idx = queue.popleft()
        if is_row:
            for j, r in matrix_rows[idx]:
                implied = c[idx] * r
                votes[j] += implied
                if h[j] == 0:
                    h[j] = implied
                    cols_seen += 1
                    queue.append((False, j))
                elif h[j] != implied and strict:
                    return RecoveryResult(None, None, reason=INCONSISTENT)
        else:
            for i in cols_to_rows[idx]:
                implied = row_value[i][idx] * h[idx]
                if c[i] == 0:
                    c[i] = implied
                    rows_seen += 1
                    queue.append((True, i))
                elif c[i] != implied and strict:
                    return RecoveryResult(None, None, reason=INCONSISTENT)

    if rows_seen < m or cols_seen < n:
        return RecoveryResult(None, None, reason=DISCONNECTED)

    if not strict:
        h = [1 if v >= 0 else -1 for v in votes]
    estimate = Haplotype(tuple(h))
    membership = MembershipVector(tuple(c))
    mismatches = sum(1 for i, j, r in entries(matrix) if c[i] * h[j] != r)
    return RecoveryResult(estimate, membership, meta={"mismatches": mismatches})


def lookup_erasure_decode(matrix: ReadMatrix, strict: bool = False) -> RecoveryResult:
    """The array erasure decoder as it stood before its tree signs came from
    the entries: a search over `incidence_graph`, whose weights are the
    alleles, then a sparse lookup of each tree edge's weight."""
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

    graph = incidence_graph(matrix)
    order, parent = breadth_first_order(graph, 0, directed=True, return_predecessors=True)
    child = order[1:]
    up = np.arange(m + n)
    up[child] = parent[child]
    sign = np.zeros(m + n, dtype=np.int8)
    sign[0] = 1
    sign[child] = np.asarray(graph[up[child], child]).ravel()
    while np.any(up[up] != up):
        sign = sign * sign[up]
        up = up[up]
    c, h = sign[:m], sign[m:]

    entry_rows = matrix.entry_rows()
    implied = c[entry_rows] * matrix.values
    if strict and np.any(implied != h[matrix.indices]):
        return RecoveryResult(None, None, reason=INCONSISTENT)
    if order.size < m + n:
        return RecoveryResult(None, None, reason=DISCONNECTED)

    if not strict:
        votes = np.bincount(matrix.indices, weights=implied, minlength=n)
        h = np.where(votes >= 0, 1, -1)
    mismatches = int(np.count_nonzero(c[entry_rows] * h[matrix.indices] != matrix.values))
    return RecoveryResult(Haplotype(h), MembershipVector(c), meta={"mismatches": mismatches})


def adjacency_tallies(matrix: ReadMatrix) -> dict[tuple[int, int], tuple[float, float]]:
    tallies: dict[tuple[int, int], list[float]] = {}
    for row in rows(matrix):
        for (u, a), (v, b) in combinations(row, 2):
            counts = tallies.setdefault((u, v), [0.0, 0.0])
            counts[0 if a == b else 1] += 1.0
    return {pair: (agree, disagree) for pair, (agree, disagree) in tallies.items()}


def infer_memberships(matrix: ReadMatrix, haplotype: Haplotype) -> MembershipVector:
    if len(haplotype) != matrix.num_cols:
        raise ValueError(
            f"haplotype length {len(haplotype)} != matrix columns {matrix.num_cols}"
        )
    h = signs(haplotype)
    members = []
    for row in rows(matrix):
        agreement = sum(value * h[j] for j, value in row)
        members.append(1 if agreement >= 0 else -1)
    return MembershipVector(tuple(members))


def save_fragments(matrix: ReadMatrix, path: str | Path) -> None:
    lines = [MAGIC, f"{matrix.num_rows} {matrix.num_cols}"]
    for i, row in enumerate(rows(matrix)):
        parts = [f"{i}:"]
        parts.extend(f"{j}:{1 if a == 1 else 0}" for j, a in row)
        lines.append(" ".join(parts))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def format_signs(values) -> str:
    return " ".join("+1" if v == 1 else "-1" for v in values)


def save_truth(h: Haplotype, c: MembershipVector, path: str | Path) -> None:
    Path(path).write_text(
        format_signs(signs(h)) + "\n" + format_signs(signs(c)) + "\n", encoding="ascii", newline="\n"
    )


def _decimal(token: str) -> int:
    """int(token) for an unsigned decimal without leading zeros; ValueError otherwise."""
    if not re.fullmatch(r"0|[1-9][0-9]*", token):
        raise ValueError(token)
    return int(token)


def load_fragments(path: str | Path) -> ReadMatrix:
    text = Path(path).read_bytes().decode("ascii")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != MAGIC:
        raise HeaderError(f"expected header {MAGIC!r}", 1)
    if len(lines) < 2:
        raise DimensionError("missing dimension line", 2)
    dims = lines[1].split(" ")
    try:
        m, n = (_decimal(d) for d in dims)  # a count other than two raises ValueError too
    except ValueError:
        raise DimensionError(f"expected '<m> <n>', got {lines[1]!r}", 2) from None
    if n < 1:
        raise DimensionError(f"bad dimensions m={m}, n={n}", 2)
    if len(lines) - 2 != m:
        raise DimensionError(f"header declares {m} rows but file has {len(lines) - 2}", 2)

    parsed: list[tuple[tuple[int, int], ...]] = []
    for offset, line in enumerate(lines[2:]):
        lineno = offset + 3
        tokens = line.split(" ")
        if not tokens or not tokens[0].endswith(":"):
            raise FragmentFormatError(f"expected '<row>:' prefix, got {line!r}", lineno)
        try:
            row_index = _decimal(tokens[0][:-1])
        except ValueError:
            raise FragmentFormatError(f"bad row index {tokens[0]!r}", lineno) from None
        if row_index != offset:
            raise FragmentFormatError(
                f"row indices must ascend from 0; expected {offset}, got {row_index}", lineno
            )
        pairs: list[tuple[int, str]] = []
        prev = -1
        for token in tokens[1:]:
            if token == "":
                raise FragmentFormatError("stray whitespace", lineno)
            col_str, sep, allele_str = token.partition(":")
            if not sep:
                raise FragmentFormatError(f"expected '<col>:<a>', got {token!r}", lineno)
            try:
                col = _decimal(col_str)
            except ValueError:
                raise FragmentFormatError(f"bad column index {col_str!r}", lineno) from None
            if not 0 <= col < n:
                raise ColumnOrderError(f"column {col} out of range [0, {n})", lineno)
            if col == prev:
                raise DuplicateColumnError(f"duplicate column {col}", lineno)
            if col < prev:
                raise ColumnOrderError(
                    f"columns must be strictly increasing; {col} after {prev}", lineno
                )
            pairs.append((col, allele_str))
            prev = col
        entries: list[tuple[int, int]] = []
        for col, allele_str in pairs:
            if allele_str == "1":
                entries.append((col, 1))
            elif allele_str == "0":
                entries.append((col, -1))
            else:
                raise AlleleError(f"allele must be 0 or 1, got {allele_str!r}", lineno)
        parsed.append(tuple(entries))
    return read_matrix(n, parsed)
