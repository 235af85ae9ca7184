"""Array implementations against the tuple reference in tuple_reference.py.

Inputs are random ragged matrices (row widths vary, rows may be empty),
either planted from (h, c) with a random fraction of flipped entries or
with free signs, so they cover p > 0, uncovered columns, disconnected
splits and conflicts.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tuple_reference as ref
from conftest import new_path, random_instance
from haplosim import erasure, fragio, spectral
from haplosim.model import Haplotype

sign = st.sampled_from([1, -1])


@st.composite
def read_matrices(draw, max_n=8, max_m=10):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    h = draw(st.lists(sign, min_size=n, max_size=n))
    flip_tenths = draw(st.integers(0, 10))  # 10 means free signs
    min_width = draw(st.integers(0, 1))
    rows = []
    for _ in range(m):
        c = draw(sign)
        cols = sorted(draw(st.sets(st.integers(0, n - 1), min_size=min(min_width, n))))
        row = []
        for j in cols:
            if flip_tenths == 10:
                value = draw(sign)
            else:
                value = c * h[j] * (-1 if draw(st.integers(0, 9)) < flip_tenths else 1)
            row.append((j, value))
        rows.append(tuple(row))
    return ref.read_matrix(n, tuple(rows))


def outcome(fn, *args, **kwargs):
    """fn's result, or the type, message and line of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


DIFF = settings(max_examples=300, deadline=None)


@DIFF
@given(read_matrices(), st.booleans())
# uncovered column 4 and a disconnected split: the column is reported
@example(ref.read_matrix(5, (((0, 1), (1, 1)), ((2, 1), (3, -1)))), False)
# conflict in the first read's component of a split matrix: Inconsistent
@example(ref.read_matrix(4, (((0, 1), (1, 1)), ((0, 1), (1, -1)), ((2, 1), (3, 1)))), True)
# conflict only where the walk from read 0 never goes: Disconnected
@example(ref.read_matrix(4, (((0, 1), (1, 1)), ((2, 1), (3, 1)), ((2, 1), (3, -1)))), True)
def test_erasure_decode_matches_walk(matrix, strict):
    assert outcome(erasure.decode, matrix, strict=strict) == outcome(
        ref.erasure_decode, matrix, strict=strict
    )


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("p", [0.0, 0.1])
def test_erasure_decode_matches_walk_at_cli_size(p, strict):
    # the generated matrices above stop at n = 12, one or two pointer-jumping
    # rounds; a channel draw at n = 2000 has a tree deep enough for several
    observed = random_instance(2000, 30404, 2, p, seed=7)[2]
    assert erasure.decode(observed, strict=strict) == ref.erasure_decode(observed, strict=strict)


@DIFF
@given(read_matrices(max_n=12, max_m=24), st.booleans())
@example(ref.read_matrix(5, (((0, 1), (1, 1)), ((2, 1), (3, -1)))), False)
@example(ref.read_matrix(4, (((0, 1), (1, 1)), ((0, 1), (1, -1)), ((2, 1), (3, 1)))), True)
@example(ref.read_matrix(4, (((0, 1), (1, 1)), ((2, 1), (3, 1)), ((2, 1), (3, -1)))), True)
# a path read 0 - column 0 - read 1 - ... deep enough for several pointer jumps
@example(ref.read_matrix(9, tuple(((j, 1), (j + 1, -1)) for j in range(8))), False)
def test_erasure_decode_matches_lookup_version(matrix, strict):
    # tree signs taken from the entries give the result, failure and
    # mismatch count of the allele-weighted graph and its sparse lookup
    assert outcome(erasure.decode, matrix, strict=strict) == outcome(
        ref.lookup_erasure_decode, matrix, strict=strict
    )


@DIFF
@given(read_matrices())
# uncovered columns 1 and 3, an empty row, and two reads in column 0
@example(ref.read_matrix(4, (((0, 1), (2, -1)), (), ((0, -1),))))
def test_incidence_graph_matches_argsort_transpose(matrix):
    # the decoder's graph is a pattern: the oracle's structure, every weight 1.0
    graph, expected = erasure._incidence_graph(matrix), ref.incidence_graph(matrix)
    assert graph.shape == expected.shape
    for part in ("indptr", "indices"):
        assert getattr(graph, part).tolist() == getattr(expected, part).tolist()
    assert graph.data.dtype == np.float64
    assert graph.data.tolist() == [1.0] * expected.nnz


@DIFF
@given(read_matrices())
def test_build_adjacency_matches_dict_tallies(matrix):
    votes = spectral.build_adjacency(matrix)
    expected = ref.adjacency_tallies(matrix)
    assert ref.tally_dict(votes) == expected
    assert len(votes.pairs) == len(votes.tallies) == len(expected)
    linked = {pair for pair, (agree, disagree) in expected.items() if agree > disagree}
    assert ref.edge_set(votes) == linked
    assert len(votes.edges) == len(linked)


@DIFF
@given(read_matrices(), st.data())
def test_infer_memberships_matches_row_sums(matrix, data):
    n = matrix.num_cols
    if n < 2:
        return
    h = Haplotype(tuple(data.draw(st.lists(sign, min_size=n, max_size=n))))
    assert outcome(spectral.infer_memberships, matrix, h) == outcome(
        ref.infer_memberships, matrix, h
    )


@pytest.fixture(scope="module")
def frag_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


EDIT_CHARS = "0123456789: \n+-_\tx"


@DIFF
@given(
    read_matrices(),
    st.lists(
        st.tuples(st.floats(0, 1), st.integers(0, 2), st.sampled_from(EDIT_CHARS)), max_size=3
    ),
)
def test_load_fragments_matches_line_parser(frag_dir, matrix, edits):
    expected, saved = new_path(frag_dir, "ref.frag"), new_path(frag_dir, "saved.frag")
    ref.save_fragments(matrix, expected)
    written = expected.read_bytes()
    fragio.save_fragments(matrix, saved)
    assert saved.read_bytes() == written
    text = written.decode("ascii")
    for where, kind, char in edits:  # replace, insert or delete one character
        at = int(where * len(text))
        text = text[:at] + (char if kind < 2 else "") + text[at + (kind != 1):]
    path = new_path(frag_dir, "edited.frag")
    path.write_text(text, encoding="ascii", newline="\n")
    assert outcome(fragio.load_fragments, path) == outcome(ref.load_fragments, path)


@pytest.mark.parametrize(
    "rows",
    [
        "1: 0:1",  # row index out of order
        "0: 0:1\n0: 1:0",
        "0: 12:1",  # column out of range
        "0: 2:1 1:1",  # descending columns
        "0: 1:1 1:0",  # duplicate column
        "0: 1:2",  # bad allele
        "0: 99999999999999999999999:1",
        "00: 01:1 2:0",  # leading zeros
        "+0: +1:1",  # signed integers
        "0: 1_0:1",
        "0:\t1:1",
        "0: 1:1\r",
        "0: 1:1 ",
        "0:  1:1",
        "0 1:1",
        "0:",
    ],
)
def test_load_fragments_matches_line_parser_on_edge_cases(frag_dir, rows):
    path = new_path(frag_dir, "edge.frag")
    count = rows.count("\n") + 1
    path.write_text(f"{fragio.MAGIC}\n{count} 12\n{rows}\n", encoding="ascii", newline="\n")
    assert outcome(fragio.load_fragments, path) == outcome(ref.load_fragments, path)


def test_codec_matches_tuple_reference_at_cli_size(tmp_path):
    # one channel draw at the cli benchmark's size: n = 2000, m = ceil(2 n ln n)
    h, c, observed = random_instance(2000, 30404, 2, 0.1, seed=7)
    frag, expected = tmp_path / "saved.frag", tmp_path / "ref.frag"
    fragio.save_fragments(observed, frag)
    ref.save_fragments(observed, expected)
    assert frag.read_bytes() == expected.read_bytes()
    assert fragio.load_fragments(frag) == ref.load_fragments(frag) == observed
    truth, expected = tmp_path / "saved.truth", tmp_path / "ref.truth"
    fragio.save_truth(h, c, truth)
    ref.save_truth(h, c, expected)
    assert truth.read_bytes() == expected.read_bytes()
    assert fragio.load_truth(truth) == (h, c)
    assert fragio.format_signs(h.to_array()) == ref.format_signs(ref.signs(h))
    assert fragio.format_signs(c.to_array()) == ref.format_signs(ref.signs(c))
