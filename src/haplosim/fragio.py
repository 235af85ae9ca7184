"""Text formats: `haplofrag v1` fragment matrices and truth files.

haplofrag v1, bit-exact on round trips, LF endings, no trailing whitespace:

    #haplofrag v1
    <m> <n>
    <row_index>: <col>:<a> <col>:<a> ...

Row indices are 0-based and ascending; columns are 0-based and strictly
increasing within a row; the allele character is 1 for +1 and 0 for -1.
Rows without observations still appear, with an empty entry list. Every
number is ASCII digits with no sign and no leading zero (except `0`),
tokens are separated by single spaces, and the final LF may be missing;
the reader accepts nothing else, so whatever it loads saves back to the
same bytes.

Truth files are two lines of single-space-separated `+1`/`-1` tokens: the
haplotype, then the membership vector.

Reader and writer are array passes over the file's bytes. On a malformed
file the reader finds the first failing line and runs the line-by-line
checks on that line alone, to name the error and its line number.
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

_LF, _SPACE, _PLUS, _MINUS, _ZERO, _ONE, _COLON = b"\n +-01:"


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


def _digit_counts(x: np.ndarray) -> np.ndarray:
    return np.searchsorted(10 ** np.arange(1, 19), x, side="right") + 1


def _put_digits(buf: np.ndarray, end: np.ndarray, x: np.ndarray) -> None:
    """Write each x in decimal into buf, its last digit at end - 1."""
    while end.size:
        buf[end - 1] = _ZERO + x % 10
        x = x // 10
        more = x > 0
        end, x = end[more] - 1, x[more]


def save_fragments(matrix: ReadMatrix, path: str | Path) -> None:
    head = f"{MAGIC}\n{matrix.num_rows} {matrix.num_cols}\n".encode("ascii")
    rows = np.arange(matrix.num_rows)
    row_width = _digit_counts(rows) + 1  # "<i>:"
    entry_width = _digit_counts(matrix.indices) + 3  # " <j>:<a>"
    entries_before = np.concatenate([[0], np.cumsum(entry_width)])
    # entry e of row i follows the header, the prefixes of rows 0..i, i LFs and entries 0..e-1
    prefix_end = len(head) + np.cumsum(row_width) + rows
    row_start = prefix_end - row_width + entries_before[matrix.indptr[:-1]]
    entry_colon = prefix_end[matrix.entry_rows()] + entries_before[1:] - 2
    row_colon = row_start + row_width - 1
    size = len(head) + int(row_width.sum()) + matrix.num_rows + int(entries_before[-1])
    buf = np.full(size, _SPACE, np.uint8)  # the space before each entry is the fill
    buf[: len(head)] = np.frombuffer(head, np.uint8)
    _put_digits(buf, row_colon, rows)
    _put_digits(buf, entry_colon, matrix.indices)
    buf[row_colon] = buf[entry_colon] = _COLON
    buf[entry_colon + 1] = _ZERO + (matrix.values > 0)
    buf[np.append(row_start[1:], size) - 1] = _LF
    Path(path).write_bytes(buf)


def _decimal(token: str) -> int | None:
    """The value of an unsigned decimal without leading zeros, else None."""
    if not token.isdigit() or (token[0] == "0" and token != "0"):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        return None


def _decimals(data: np.ndarray, end: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The values of the digit runs data[end - length:end], 1 to 18 digits each."""
    value = np.zeros(end.size, np.int64)
    for k in range(int(length.max(initial=0))):
        digit = data.take(end - 1 - k, mode="clip") - _ZERO
        value += np.where(length > k, digit, 0) * np.int64(10**k)
    return value


def _line_error(line: str, row: int, n: int) -> FragmentFormatError:
    """The error of the first check that row line `row` (0-based) fails; it fails one."""
    lineno = row + 3
    tokens = line.split(" ")
    if not tokens[0].endswith(":"):
        return FragmentFormatError(f"expected '<row>:' prefix, got {line!r}", lineno)
    row_index = _decimal(tokens[0][:-1])
    if row_index is None:
        return FragmentFormatError(f"bad row index {tokens[0]!r}", lineno)
    if row_index != row:
        return FragmentFormatError(
            f"row indices must ascend from 0; expected {row}, got {row_index}", lineno
        )
    # the column structure of the whole line comes before alleles,
    # so `2:5 2:1` reports the duplicate rather than the bad allele
    prev = -1
    for token in tokens[1:]:
        if token == "":
            return FragmentFormatError("stray whitespace", lineno)
        col_str, sep, _ = token.partition(":")
        if not sep:
            return FragmentFormatError(f"expected '<col>:<a>', got {token!r}", lineno)
        col = _decimal(col_str)
        if col is None:
            return FragmentFormatError(f"bad column index {col_str!r}", lineno)
        if col >= n:
            return ColumnOrderError(f"column {col} out of range [0, {n})", lineno)
        if col == prev:
            return DuplicateColumnError(f"duplicate column {col}", lineno)
        if col < prev:
            return ColumnOrderError(f"columns must be strictly increasing; {col} after {prev}", lineno)
        prev = col
    for token in tokens[1:]:
        allele = token.partition(":")[2]
        if allele not in ("0", "1"):
            return AlleleError(f"allele must be 0 or 1, got {allele!r}", lineno)


def load_fragments(path: str | Path) -> ReadMatrix:
    raw = Path(path).read_bytes()
    if not raw.isascii():
        raw.decode("ascii")  # raises UnicodeDecodeError, a ValueError naming the byte
    head = raw.split(b"\n", 2)
    if head[0] != MAGIC.encode():
        raise HeaderError(f"expected header {MAGIC!r}", 1)
    if head[1:] in ([], [b""]):
        raise DimensionError("missing dimension line", 2)
    dims_line = head[1].decode("ascii")
    dims = [_decimal(token) for token in dims_line.split(" ")]
    if len(dims) != 2 or None in dims:
        raise DimensionError(f"expected '<m> <n>', got {dims_line!r}", 2)
    m, n = dims
    if n < 1:
        raise DimensionError(f"bad dimensions m={m}, n={n}", 2)
    body = head[2] if len(head) == 3 else b""
    if body and not body.endswith(b"\n"):
        body += b"\n"
    count = body.count(b"\n")
    if count != m:
        raise DimensionError(f"header declares {m} rows but file has {count}", 2)

    # Each row line is `R:` then ` C:A` per entry, then LF. Check it at its
    # separators, every byte that is not a digit: what precedes each one (the
    # final LF precedes the first, so line 0 looks like any other) and the
    # digit run just before it.
    data = np.frombuffer(body, np.uint8)
    index = np.int32 if data.size < 2**31 else np.int64
    sep = np.flatnonzero((data - _ZERO) > 9).astype(index)
    kind = data[sep]
    gap = np.diff(sep, prepend=index(-1)) - 1
    first = data[sep - gap]  # first digit of the run, or the separator after an empty run
    prev, prev2 = np.roll(kind, 1), np.roll(kind, 2)
    number = (gap >= 1) & (gap <= 18) & ((gap == 1) | (first != _ZERO))
    row = (kind == _COLON) & (prev == _LF) & number
    col = (kind == _COLON) & (prev == _SPACE) & number
    allele = (gap == 1) & ((first == _ZERO) | (first == _ONE))
    end = ((kind == _SPACE) | (kind == _LF)) & (prev == _COLON)
    end &= np.where(prev2 == _LF, gap == 0, allele)  # after `R:` no allele, after ` C:` one
    bad = ~(row | col | end)
    del number, allele, end, prev, prev2, first
    line = np.cumsum(kind == _LF, dtype=index)  # the 0-based line of every separator but an LF
    row_at, col_at = np.flatnonzero(row), np.flatnonzero(col)
    del row, col
    bad[row_at] |= _decimals(data, sep[row_at], gap[row_at]) != line[row_at]
    cols, col_line = _decimals(data, sep[col_at], gap[col_at]), line[col_at]
    bad[col_at] |= cols >= n
    bad[col_at[1:]] |= (cols[1:] <= cols[:-1]) & (col_line[1:] == col_line[:-1])
    if bad.any():
        at = int(np.argmax(bad))
        row_index = int(line[at]) - int(kind[at] == _LF)
        line_end = sep[kind == _LF]
        start = int(line_end[row_index - 1]) + 1 if row_index else 0
        raise _line_error(body[start : line_end[row_index]].decode("ascii"), row_index, n)
    indptr = np.zeros(m + 1, np.int64)
    np.cumsum(np.bincount(col_line, minlength=m), out=indptr[1:])
    alleles = (data[sep[col_at] + 1] - _ZERO).astype(np.int8) * 2 - 1
    # every column is below n, and ReadMatrix rejects an n beyond int32 first
    return ReadMatrix(n, indptr, cols.astype(np.int32), alleles)


def _sign_cells(values) -> np.ndarray:
    """Three bytes per value, `+1 ` for a value of 1 and `-1 ` otherwise."""
    values = np.asarray(values)
    cells = np.empty((values.size, 3), np.uint8)
    cells[:, 0] = np.where(values == 1, _PLUS, _MINUS)
    cells[:, 1:] = _ONE, _SPACE
    return cells


def format_signs(values) -> str:
    """Space-separated +1/-1 tokens, the truth-file and CLI rendering."""
    return _sign_cells(values).tobytes()[:-1].decode("ascii")


def save_truth(h: Haplotype, c: MembershipVector, path: str | Path) -> None:
    cells = np.concatenate([_sign_cells(h.to_array()), _sign_cells(c.to_array())])
    cells[[len(h) - 1, -1], 2] = _LF
    Path(path).write_bytes(cells)


def _signs(line: bytes, path, lineno: int) -> np.ndarray:
    """The values of one truth-file line of single-space-separated +1/-1 tokens."""
    signs = line[::3]
    if (
        line[1::3] != b"1" * len(signs)
        or line[2::3] != b" " * (len(signs) - 1)
        or signs.translate(None, b"+-")
    ):
        token = next(t for t in line.decode("ascii").split(" ") if t not in ("+1", "-1"))
        raise ValueError(f"truth file {path} line {lineno}: expected +1 or -1, got {token!r}")
    return 44 - np.frombuffer(signs, np.int8)  # b"+" is 43, b"-" is 45


def load_truth(path: str | Path) -> tuple[Haplotype, MembershipVector]:
    raw = Path(path).read_bytes()
    if not raw.isascii():
        raw.decode("ascii")  # raises UnicodeDecodeError, a ValueError naming the byte
    lines = raw.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    if len(lines) != 2:
        raise ValueError(f"truth file {path} needs two lines (haplotype, membership)")
    return Haplotype(_signs(lines[0], path, 1)), MembershipVector(_signs(lines[1], path, 2))
