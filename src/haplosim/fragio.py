"""Text formats: `haplofrag v1` fragment matrices and truth files.

haplofrag v1, bit-exact on round trips, LF endings, no trailing whitespace:

    #haplofrag v1
    <m> <n>
    <row_index>: <col>:<a> <col>:<a> ...

Row indices are 0-based and ascending; columns are 0-based and strictly
increasing within a row; the allele character is 1 for +1 and 0 for -1.
Rows without observations still appear, with an empty entry list.

Truth files are two lines of space-separated +1/-1 tokens: the haplotype,
then the membership vector.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .model import Haplotype, MembershipVector, ReadMatrix

__all__ = [
    "FragmentFormatError",
    "HeaderError",
    "DimensionError",
    "ColumnOrderError",
    "DuplicateColumnError",
    "AlleleError",
    "save_fragments",
    "load_fragments",
    "save_truth",
    "load_truth",
    "format_signs",
]

MAGIC = "#haplofrag v1"


class FragmentFormatError(ValueError):
    """Malformed fragment file; `line` is the offending 1-based line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class HeaderError(FragmentFormatError):
    pass


class DimensionError(FragmentFormatError):
    pass


class ColumnOrderError(FragmentFormatError):
    pass


class DuplicateColumnError(FragmentFormatError):
    pass


class AlleleError(FragmentFormatError):
    pass


def save_fragments(matrix: ReadMatrix, path: str | Path) -> None:
    tokens = [
        f" {j}:{b}" for j, b in zip(matrix.indices.tolist(), (matrix.values > 0).view(np.int8).tolist())
    ]
    bounds = matrix.indptr.tolist()
    lines = [MAGIC, f"{matrix.num_rows} {matrix.num_cols}"]
    lines.extend(
        f"{i}:" + "".join(tokens[lo:hi]) for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def load_fragments(path: str | Path) -> ReadMatrix:
    text = Path(path).read_text(encoding="ascii")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != MAGIC:
        raise HeaderError(f"expected header {MAGIC!r}", 1)
    if len(lines) < 2:
        raise DimensionError("missing dimension line", 2)
    dims = lines[1].split(" ")
    if len(dims) != 2:
        raise DimensionError(f"expected '<m> <n>', got {lines[1]!r}", 2)
    try:
        m, n = int(dims[0]), int(dims[1])
    except ValueError:
        raise DimensionError(f"non-integer dimensions {lines[1]!r}", 2) from None
    if m < 0 or n < 1:
        raise DimensionError(f"bad dimensions m={m}, n={n}", 2)
    if len(lines) - 2 != m:
        raise DimensionError(f"header declares {m} rows but file has {len(lines) - 2}", 2)
    indptr, cols, alleles = [0], [], []
    for offset, line in enumerate(lines[2:]):
        lineno = offset + 3
        tokens = line.split(" ")
        if not tokens or not tokens[0].endswith(":"):
            raise FragmentFormatError(f"expected '<row>:' prefix, got {line!r}", lineno)
        try:
            row_index = int(tokens[0][:-1])
        except ValueError:
            raise FragmentFormatError(f"bad row index {tokens[0]!r}", lineno) from None
        if row_index != offset:
            raise FragmentFormatError(
                f"row indices must ascend from 0; expected {offset}, got {row_index}", lineno
            )
        # validate the column structure of the whole line before alleles,
        # so `2:5 2:1` reports the duplicate rather than the bad allele
        pairs: list[tuple[int, str]] = []
        prev = -1
        for token in tokens[1:]:
            if token == "":
                raise FragmentFormatError("stray whitespace", lineno)
            col_str, sep, allele_str = token.partition(":")
            if not sep:
                raise FragmentFormatError(f"expected '<col>:<a>', got {token!r}", lineno)
            try:
                col = int(col_str)
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
        for col, allele_str in pairs:
            if allele_str not in ("0", "1"):
                raise AlleleError(f"allele must be 0 or 1, got {allele_str!r}", lineno)
            cols.append(col)
            alleles.append(1 if allele_str == "1" else -1)
        indptr.append(len(cols))
    return ReadMatrix(n, indptr, cols, alleles)


def format_signs(values) -> str:
    """Space-separated +1/-1 tokens, the truth-file and CLI rendering."""
    return " ".join("+1" if v == 1 else "-1" for v in values)


def save_truth(h: Haplotype, c: MembershipVector, path: str | Path) -> None:
    Path(path).write_text(
        format_signs(h.alleles) + "\n" + format_signs(c.members) + "\n", encoding="ascii", newline="\n"
    )


def load_truth(path: str | Path) -> tuple[Haplotype, MembershipVector]:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if len(lines) < 2:
        raise ValueError(f"truth file {path} needs two lines (haplotype, membership)")
    h = Haplotype([int(tok) for tok in lines[0].split()])
    c = MembershipVector([int(tok) for tok in lines[1].split()])
    return h, c
