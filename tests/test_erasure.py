import math

import numpy as np
import pytest

import tuple_reference as ref
from conftest import check_decode_matches_components, random_instance
from haplosim.erasure import decode
from haplosim.model import (
    DISCONNECTED,
    INCONSISTENT,
    UNCOVERED_COLUMN,
    ReadMatrix,
    hamming_up_to_flip,
)


class TestWorkedExample:
    def test_recovers_exactly_up_to_flip(self, example_8x6):
        h, c, observed = example_8x6
        result = decode(observed)
        assert result.ok
        assert ref.signs(result.membership)[0] == 1  # first read pinned to +1
        errors, flip = hamming_up_to_flip(h, result.haplotype)
        assert errors == 0
        assert result.membership.to_array().tolist() == (flip * c.to_array()).tolist()
        assert result.meta["mismatches"] == 0

    def test_estimate_explains_every_observation(self, example_8x6):
        _, _, observed = example_8x6
        result = decode(observed)
        source = ref.encode(result.haplotype, result.membership)
        for i, j, value in ref.entries(observed):
            assert source[i, j] == value

    def test_single_component_covering_all_columns(self, example_8x6):
        _, _, observed = example_8x6
        components = ref.overlap_components(observed)
        assert len(components) == 1
        assert components[0][0] == tuple(range(8))
        assert components[0][1] == tuple(range(6))


class TestSmallCases:
    def test_single_fully_observed_read(self):
        observed = ref.read_matrix(2, (((0, 1), (1, -1)),))
        result = decode(observed)
        assert result.ok
        assert ref.signs(result.haplotype) == (1, -1)
        assert ref.signs(result.membership) == (1,)

    def test_disjoint_blocks_fail(self):
        observed = ref.read_matrix(4, (((0, 1), (1, 1)), ((2, 1), (3, -1))))
        result = decode(observed)
        assert result.reason == DISCONNECTED
        assert result.haplotype is None
        assert len(ref.overlap_components(observed)) == 2

    def test_uncovered_column_reported_first(self):
        # column 3 never observed; hand-traced propagation halts there
        observed = ref.read_matrix(4, (((0, 1), (1, 1)), ((1, 1), (2, -1))))
        result = decode(observed)
        assert result.reason == UNCOVERED_COLUMN
        assert result.column == 3
        assert result.describe() == "UncoveredColumn(3)"

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            decode(ref.read_matrix(3, ()))

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            decode(ref.read_matrix(3, (((0, 1),), ())))


class TestNoisyBehaviour:
    def test_strict_mode_reports_conflict(self):
        # two reads cover {0,1} and agree on 0 but clash on 1
        observed = ref.read_matrix(2, (((0, 1), (1, 1)), ((0, 1), (1, -1))))
        result = decode(observed, strict=True)
        assert result.reason == INCONSISTENT

    def test_majority_mode_votes_through_conflicts(self):
        rows = (
            ((0, 1), (1, 1)),
            ((0, 1), (1, 1)),
            ((0, 1), (1, -1)),
        )
        result = decode(ref.read_matrix(2, rows))
        assert result.ok
        assert ref.signs(result.haplotype) == (1, 1)
        assert result.meta["mismatches"] == 1

    def test_majority_tie_resolves_to_plus(self):
        rows = (
            ((0, 1), (1, 1)),
            ((0, 1), (1, -1)),
        )
        result = decode(ref.read_matrix(2, rows))
        assert result.ok
        assert ref.signs(result.haplotype) == (1, 1)


class TestProperties:
    def test_soundness_on_error_free_inputs(self):
        hits = 0
        for t in range(300):
            n = 5 + (t % 12)
            m = 2 + (t * 7) % (3 * n)
            h, c, observed = random_instance(n, m, 2, 0.0, seed=7000 + t)
            result = decode(observed)
            if not result.ok:
                continue
            hits += 1
            errors, flip = hamming_up_to_flip(h, result.haplotype)
            assert errors == 0
            assert result.membership.to_array().tolist() == (flip * c.to_array()).tolist()
        assert hits > 100  # most instances at these sizes decode

    def test_global_flip_covariance(self):
        for t in range(60):
            _, _, observed = random_instance(8, 30, 2, 0.0, seed=100 + t)
            result = decode(observed)
            flipped = decode(
                ReadMatrix(observed.num_cols, observed.indptr, observed.indices, -observed.values)
            )
            assert result.ok == flipped.ok
            if not result.ok:
                continue
            assert flipped.haplotype == result.haplotype.flipped()
            # the reconstructed source changes sign with the input; the
            # product form is what stays invariant under (h, c) -> (-h, -c)
            assert np.array_equal(
                ref.encode(flipped.haplotype, flipped.membership),
                -ref.encode(result.haplotype, result.membership),
            )

    def test_status_equals_component_predicate(self):
        check_decode_matches_components(250)

    def test_failure_rate_drops_with_length(self):
        # m = n ln n, p = 0: failures should thin out as n grows
        rates = {}
        for n in (50, 200):
            m = math.ceil(n * math.log(n))
            failures = 0
            for t in range(1000):
                _, _, observed = random_instance(n, m, 2, 0.0, seed=n * 10_000 + t)
                if not decode(observed).ok:
                    failures += 1
            rates[n] = failures / 1000
        assert rates[200] < rates[50], rates
