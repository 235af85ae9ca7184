import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuple_reference as ref
from haplosim.model import Haplotype, MembershipVector, ReadMatrix, hamming_up_to_flip

sign = st.sampled_from([1, -1])


def signs(rng, size):
    return tuple(int(x) for x in rng.integers(0, 2, size) * 2 - 1)


class TestTypes:
    def test_haplotype_needs_two_sites(self):
        with pytest.raises(ValueError):
            Haplotype((1,))

    @pytest.mark.parametrize("bad", [(1, 0), (1, 2), (1, -1, 3)])
    def test_haplotype_rejects_non_signs(self, bad):
        with pytest.raises(ValueError):
            Haplotype(bad)

    def test_membership_needs_one_read(self):
        with pytest.raises(ValueError):
            MembershipVector(())

    @pytest.mark.parametrize(
        "cls, values, message",
        [
            (Haplotype, (1, 0, -1), "haplotype entries must be +1 or -1, got 0"),
            (Haplotype, (1, -1, 2), "haplotype entries must be +1 or -1, got 2"),
            (Haplotype, (1,), "haplotype needs at least 2 SNP sites"),
            (MembershipVector, (-1, 0), "membership entries must be +1 or -1, got 0"),
            (MembershipVector, (2, 1), "membership entries must be +1 or -1, got 2"),
            (MembershipVector, (), "membership vector needs at least 1 read"),
        ],
    )
    def test_sign_vector_error_messages(self, cls, values, message):
        for given_values in (values, np.array(values, dtype=np.int64)):
            with pytest.raises(ValueError) as info:
                cls(given_values)
            assert str(info.value) == message

    @pytest.mark.parametrize("cls", [Haplotype, MembershipVector])
    def test_sign_vector_from_tuple_or_array(self, cls):
        values = (1, -1, -1, 1)
        from_tuple = cls(values)
        from_array = cls(np.array(values, dtype=np.int64))
        assert from_tuple == from_array
        assert hash(from_tuple) == hash(from_array)
        assert from_tuple != cls((1, -1, -1, -1))
        assert repr(from_array) == f"{cls.__name__}({values!r})"
        stored = from_array.to_array()
        assert stored.dtype == np.int8
        with pytest.raises(ValueError):
            stored[0] = -1
        assert from_array.flipped().flipped() == from_array
        assert from_array.flipped() == cls(tuple(-v for v in values))

    def test_sign_vector_copies_its_input(self):
        source = np.array([1, -1, 1], dtype=np.int8)
        h = Haplotype(source)
        source[0] = -1
        assert h.to_array().tolist() == [1, -1, 1]

    def test_haplotype_never_equals_membership(self):
        assert Haplotype((1, -1)) != MembershipVector((1, -1))

    def test_read_matrix_rejects_unsorted_columns(self):
        with pytest.raises(ValueError):
            ref.read_matrix(4, (((2, 1), (1, 1)),))

    def test_read_matrix_rejects_duplicate_columns(self):
        with pytest.raises(ValueError):
            ref.read_matrix(4, (((2, 1), (2, -1)),))

    def test_read_matrix_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ref.read_matrix(4, (((4, 1),),))

    def test_read_matrix_rejects_erasure_value(self):
        with pytest.raises(ValueError):
            ref.read_matrix(4, (((1, 0),),))

    def test_read_matrix_rejects_columns_beyond_int32(self):
        # the largest num_cols whose column indices fit int32 is kept exactly
        top = 2**31
        assert ReadMatrix(top, [0, 1], [top - 1], [1]).indices.tolist() == [top - 1]
        with pytest.raises(ValueError, match="num_cols must be in"):
            ReadMatrix(top + 1, [0, 1], [5], [1])
        with pytest.raises(ValueError, match="num_cols must be in"):
            ReadMatrix(8589934592, [0, 2], [4294967301, 4294967302], [1, -1])

    def test_read_matrix_repr_shows_the_arrays(self):
        matrix = ref.read_matrix(3, (((0, 1), (2, -1)), ()))
        assert repr(matrix) == "ReadMatrix(3, [0, 2, 2], [0, 2], [1, -1])"


INTEGER_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint32, object)


def entry_problem(num_cols, indptr, indices, values):
    """The message for the first bad entry, found row by row, or None."""
    for i in range(len(indptr) - 1):
        for e in range(indptr[i], indptr[i + 1]):
            j, a = indices[e], values[e]
            if not (0 <= j < num_cols and (e == indptr[i] or j > indices[e - 1]) and a in (1, -1)):
                return (
                    f"row {i}: entry ({j}, {a}) needs a column in [0, {num_cols}) "
                    "above the previous one and an allele of +1 or -1"
                )
    return None


def as_dtype(values, dtype):
    """values in dtype, or None if dtype cannot hold them."""
    if dtype is not object and values and not (
        np.iinfo(dtype).min <= min(values) and max(values) <= np.iinfo(dtype).max
    ):
        return None
    return np.array(values, dtype=dtype)


@st.composite
def csr_inputs(draw):
    """CSR triples over 5 columns with empty rows anywhere; many are invalid."""
    widths = draw(st.lists(st.integers(0, 3), max_size=6))
    indptr = np.cumsum([0, *widths]).tolist()
    indices = draw(st.lists(st.integers(-2, 6), min_size=indptr[-1], max_size=indptr[-1]))
    alleles = st.sampled_from([1, -1, 1, -1, 0, 2])
    values = draw(st.lists(alleles, min_size=indptr[-1], max_size=indptr[-1]))
    return indptr, indices, values


class TestReadMatrixInputs:
    # rows 0, 2, 4 and 5 are empty: at the start, in the middle and at the end
    INDPTR, INDICES, VALUES = [0, 0, 2, 2, 3, 3, 3], [1, 4, 0], [1, -1, -1]

    @pytest.mark.parametrize("dtype", INTEGER_DTYPES, ids=str)
    def test_stores_one_read_only_copy_in_the_fixed_dtypes(self, dtype):
        arrays = [np.array(a, dtype=dtype) for a in (self.INDPTR, self.INDICES)]
        arrays.append(np.array(self.VALUES, dtype=np.int8 if dtype is np.uint32 else dtype))
        matrix = ReadMatrix(5, *arrays)
        for array in arrays:
            array[-1] = 0  # the matrix holds copies
        assert matrix == ReadMatrix(5, self.INDPTR, self.INDICES, self.VALUES)
        assert (matrix.indptr.dtype, matrix.indices.dtype, matrix.values.dtype) == (
            np.int32, np.int32, np.int8,
        )
        assert not any(a.flags.writeable for a in (matrix.indptr, matrix.indices, matrix.values))
        assert matrix.entry_rows().tolist() == [1, 1, 3]

    def test_a_row_may_restart_below_the_last_column_across_empty_rows(self):
        matrix = ReadMatrix(5, [0, 0, 1, 1, 2, 2], [4, 0], [1, 1])
        assert ref.rows(matrix) == ((), ((4, 1),), (), ((0, 1),), ())

    @pytest.mark.parametrize(
        "indptr, indices, values, message",
        [
            ([0, 0, 2, 2], [3, 1], [1, 1], "row 1: entry (1, 1) needs a column in [0, 5) above"),
            ([0, 1, 2, 2, 2], [0, 5], [1, 1], "row 1: entry (5, 1) needs a column in [0, 5) above"),
            ([0, 0, 0, 1], [2], [0], "row 2: entry (2, 0) needs a column in [0, 5) above"),
            ([0, 2, 2], [2, 2], [1, -1], "row 0: entry (2, -1) needs a column in [0, 5) above"),
            ([1, 2], [0], [1], "inconsistent CSR arrays"),
            ([0, 2, 1], [0, 1], [1, 1], "inconsistent CSR arrays"),
            ([0, 2], [0, 1, 2], [1, 1, 1], "inconsistent CSR arrays"),
        ],
    )
    @pytest.mark.parametrize("dtype", INTEGER_DTYPES, ids=str)
    def test_messages_do_not_depend_on_the_dtype(self, dtype, indptr, indices, values, message):
        arrays = [np.array(a, dtype=dtype) for a in (indptr, indices)]
        arrays.append(np.array(values, dtype=np.int8 if dtype is np.uint32 else dtype))
        with pytest.raises(ValueError, match=re.escape(message)):
            ReadMatrix(5, *arrays)

    @settings(max_examples=300, deadline=None)
    @given(csr_inputs())
    def test_checks_match_a_row_by_row_walk_in_every_dtype(self, csr):
        indptr, indices, values = csr
        expected = entry_problem(5, indptr, indices, values)
        for dtype in INTEGER_DTYPES:
            arrays = [as_dtype(a, dtype) for a in csr]
            if any(a is None for a in arrays):
                continue
            if expected is None:
                matrix = ReadMatrix(5, *arrays)
                assert (matrix.indptr.tolist(), matrix.indices.tolist(), matrix.values.tolist()) == csr
            else:
                with pytest.raises(ValueError) as info:
                    ReadMatrix(5, *arrays)
                assert str(info.value) == expected


class TestEncode:
    def test_flipped_membership_row(self):
        h = Haplotype((1, 1, -1, 1, -1, -1))
        c = MembershipVector((1, 1, 1, 1, -1, -1, -1, -1))
        source = ref.encode(h, c)
        assert source[4].tolist() == [-1, -1, 1, -1, 1, 1]

    def test_all_ones(self):
        source = ref.encode(Haplotype((1, 1, 1)), MembershipVector((1, 1)))
        assert np.all(source == 1)

    def test_sign_symmetry(self):
        # flipping one argument negates the product; flipping both cancels
        rng = np.random.default_rng(7)
        for _ in range(25):
            h = Haplotype(signs(rng, int(rng.integers(2, 9))))
            c = MembershipVector(signs(rng, int(rng.integers(1, 9))))
            source = ref.encode(h, c)
            assert np.array_equal(source, -ref.encode(h.flipped(), c))
            assert np.array_equal(source, -ref.encode(h, c.flipped()))
            assert np.array_equal(source, ref.encode(h.flipped(), c.flipped()))

    def test_rank_is_one(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            h = Haplotype(signs(rng, int(rng.integers(2, 10))))
            c = MembershipVector(signs(rng, int(rng.integers(1, 10))))
            assert np.linalg.matrix_rank(ref.encode(h, c).astype(float)) == 1


class TestProject:
    def test_worked_example_row(self, example_8x6):
        _, _, observed = example_8x6
        assert ref.rows(observed)[1] == ((1, 1), (4, -1))
        assert observed.num_rows == 8 and observed.num_cols == 6
        assert all(len(row) == 2 for row in ref.rows(observed))

    def test_empty_mask(self):
        source = ref.encode(Haplotype((1, -1)), MembershipVector((1, 1, -1)))
        observed = ref.project(source, set())
        assert ref.rows(observed) == ((), (), ())

    def test_full_mask_round_trip(self):
        rng = np.random.default_rng(3)
        h = Haplotype(signs(rng, 5))
        c = MembershipVector(signs(rng, 4))
        source = ref.encode(h, c)
        full = {(i, j) for i in range(4) for j in range(5)}
        assert np.array_equal(ref.dense(ref.project(source, full)), source)

    def test_out_of_bounds_rejected(self):
        source = ref.encode(Haplotype((1, -1)), MembershipVector((1,)))
        with pytest.raises(ValueError):
            ref.project(source, {(0, 2)})

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_projection_preserves_masked_entries(self, data):
        n = data.draw(st.integers(2, 8))
        m = data.draw(st.integers(1, 8))
        h = Haplotype(tuple(data.draw(st.lists(sign, min_size=n, max_size=n))))
        c = MembershipVector(tuple(data.draw(st.lists(sign, min_size=m, max_size=m))))
        positions = [(i, j) for i in range(m) for j in range(n)]
        mask = data.draw(st.sets(st.sampled_from(positions)))
        source = ref.encode(h, c)
        dense = ref.dense(ref.project(source, mask))
        for i, j in positions:
            expected = source[i, j] if (i, j) in mask else 0
            assert dense[i, j] == expected


class TestHammingUpToFlip:
    def test_negated_estimate(self):
        h = Haplotype((1, -1, 1))
        assert hamming_up_to_flip(h, h.flipped()) == (0, -1)

    def test_identical_estimate(self):
        h = Haplotype((1, -1, 1))
        assert hamming_up_to_flip(h, h) == (0, 1)

    def test_balanced_tie_prefers_plus(self):
        # distance 2 either way; enumerated by hand
        truth = Haplotype((1, 1, 1, 1))
        estimate = Haplotype((1, 1, -1, -1))
        assert hamming_up_to_flip(truth, estimate) == (2, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_up_to_flip(Haplotype((1, 1)), Haplotype((1, 1, 1)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(sign, min_size=2, max_size=12), st.data())
    def test_flip_invariance(self, alleles, data):
        other = data.draw(
            st.lists(sign, min_size=len(alleles), max_size=len(alleles))
        )
        truth = Haplotype(tuple(alleles))
        estimate = Haplotype(tuple(other))
        count, _ = hamming_up_to_flip(truth, estimate)
        count_neg, _ = hamming_up_to_flip(truth, estimate.flipped())
        assert count == count_neg
        assert count <= len(alleles) // 2 + len(alleles) % 2
