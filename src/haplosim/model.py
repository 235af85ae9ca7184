"""Core domain types for haplotype assembly.

A haplotype is a +/-1 string over SNP sites, a membership vector assigns
each read to one chromosome of the pair, and a read matrix holds the sparse
+/-1 observations that survive the sequencing channel. Erased positions are
represented structurally (absent from a row), never as a third allele value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Haplotype",
    "MembershipVector",
    "ReadMatrix",
    "RecoveryResult",
    "UNCOVERED_COLUMN",
    "DISCONNECTED",
    "INCONSISTENT",
    "NO_LINKED_PAIRS",
    "NON_CONVERGED",
    "hamming_up_to_flip",
]

_MAX_COLS = 2**31  # column indices are stored as int32


class _SignVector:
    """A read-only int8 array of +/-1 entries, equal and hashed by value.

    Subclasses set `_what` (the entry name in error messages), `_min_len`
    and `_too_short` (the message for fewer than `_min_len` entries).
    """

    def __init__(self, values) -> None:
        raw = np.asarray(values)  # object dtype for ints beyond int64
        if raw.size < self._min_len:
            raise ValueError(self._too_short)
        bad = (raw != 1) & (raw != -1)
        if bad.any():
            raise ValueError(
                f"{self._what} entries must be +1 or -1, got {int(raw[np.argmax(bad)])!r}"
            )
        self._array = raw.astype(np.int8)
        self._array.setflags(write=False)

    def __len__(self) -> int:
        return self._array.size

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash(self._array.tobytes())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self._array.tolist())!r})"

    def flipped(self):
        return type(self)(-self._array)

    def to_array(self) -> np.ndarray:
        return self._array


class Haplotype(_SignVector):
    """A length-n sequence of +/-1 alleles; the other chromosome carries its negation."""

    _what, _min_len, _too_short = "haplotype", 2, "haplotype needs at least 2 SNP sites"


class MembershipVector(_SignVector):
    """Per-read chromosome labels: +1 if the read was sampled from h, -1 from -h."""

    _what, _min_len, _too_short = "membership", 1, "membership vector needs at least 1 read"


def _index_dtype(bound: int) -> type:
    """int32 for indices and offsets that all lie below `bound` if int32 holds
    them, else int64."""
    return np.int32 if bound <= _MAX_COLS else np.int64


def _integers(array) -> np.ndarray:
    """`array` as an ndarray of integers: integer arrays keep their dtype,
    anything else (lists, object or float arrays) goes through int64."""
    array = np.asarray(array)
    return array if array.dtype.kind in "iu" else np.asarray(array, dtype=np.int64)


def _first_bad_entry(num_cols: int, indptr, indices, values) -> int | None:
    """Storage position of the first entry with a column outside [0, num_cols),
    a column not above its row predecessor's, or an allele other than +/-1."""
    bad = values != 1
    bad &= values != -1
    bad |= indices < 0
    bad |= indices >= num_cols
    row_start = np.zeros(indices.size + 1, dtype=bool)  # entry e begins a row
    row_start[indptr] = True  # empty rows repeat an offset, trailing ones hit the end
    bad[1:] |= (indices[1:] <= indices[:-1]) & ~row_start[1:-1]
    return int(np.argmax(bad)) if bad.any() else None


class ReadMatrix:
    """Sparse m x n observation matrix in CSR form.

    Row i stores entries indptr[i]:indptr[i+1] of `indices` (0-based
    columns, strictly increasing within the row, int32) and `values`
    (alleles +1/-1, int8); `indptr` is int32, or int64 once m or the entry
    count reaches 2^31. A position absent from its row is erased. Integer
    arrays are checked in their own dtype, anything else as int64; each
    array is then copied once to its dtype and made read-only. A num_cols
    whose column indices would not fit int32 is rejected before any array
    is built.
    """

    def __init__(self, num_cols: int, indptr, indices, values) -> None:
        if not 1 <= num_cols <= _MAX_COLS:
            raise ValueError(f"num_cols must be in [1, {_MAX_COLS}], got {num_cols}")
        indptr, indices, values = _integers(indptr), _integers(indices), _integers(values)
        if indptr[:1].tolist() != [0] or np.any(indptr[1:] < indptr[:-1]) or not (
            indptr.ndim == indices.ndim == 1 and indptr[-1] == indices.size == values.size
        ):
            raise ValueError("inconsistent CSR arrays")
        e = _first_bad_entry(num_cols, indptr, indices, values)
        if e is not None:
            row = int(np.searchsorted(indptr, e, side="right")) - 1
            raise ValueError(
                f"row {row}: entry ({int(indices[e])}, {int(values[e])}) needs a column in "
                f"[0, {num_cols}) above the previous one and an allele of +1 or -1"
            )
        self.num_cols = int(num_cols)
        self.indptr = np.array(indptr, dtype=_index_dtype(max(indptr.size, indices.size + 1)))
        self.indices = np.array(indices, dtype=np.int32)
        self.values = np.array(values, dtype=np.int8)
        for array in (self.indptr, self.indices, self.values):
            array.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReadMatrix):
            return NotImplemented
        return (
            self.num_cols == other.num_cols
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        arrays = (self.indptr, self.indices, self.values)
        return f"ReadMatrix({self.num_cols}, " + ", ".join(str(a.tolist()) for a in arrays) + ")"

    @property
    def num_rows(self) -> int:
        return self.indptr.size - 1

    def entry_rows(self) -> np.ndarray:
        """Row index of every stored entry, in storage order, in indptr's dtype."""
        return np.repeat(np.arange(self.num_rows, dtype=self.indptr.dtype), np.diff(self.indptr))


# Failure reasons carried by RecoveryResult, each the name the CLI prints.
UNCOVERED_COLUMN = "UncoveredColumn"
DISCONNECTED = "DisconnectedComponent"
INCONSISTENT = "Inconsistent"
NO_LINKED_PAIRS = "NoLinkedPairs"
NON_CONVERGED = "NonConverged"


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a decoding attempt, from either decoder.

    On success `haplotype` is always present; `membership` is present for
    erasure decoding and absent for spectral partitioning unless inferred
    separately. On failure both estimates are None and `reason` is set.
    """

    haplotype: Haplotype | None
    membership: MembershipVector | None = None
    reason: str | None = None
    column: int | None = None  # offending column for uncovered-column failures
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.reason is None

    def describe(self) -> str:
        if self.ok:
            return "Success"
        return self.reason if self.column is None else f"{self.reason}({self.column})"


def hamming_up_to_flip(truth: Haplotype, estimate: Haplotype) -> tuple[int, int]:
    """Hamming distance modulo the global sign ambiguity.

    Returns (error_count, best_flip) where error_count = min over
    flip in {+1, -1} of the Hamming distance between truth and
    flip * estimate, and best_flip attains it. Ties break toward +1.
    """
    if len(truth) != len(estimate):
        raise ValueError(f"length mismatch: {len(truth)} vs {len(estimate)}")
    d_plus = int(np.count_nonzero(truth.to_array() != estimate.to_array()))
    d_minus = len(truth) - d_plus
    if d_plus <= d_minus:
        return d_plus, 1
    return d_minus, -1
