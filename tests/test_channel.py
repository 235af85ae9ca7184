import math
import time
from fractions import Fraction
from itertools import combinations, product

import mpmath
import numpy as np
import pytest

import tuple_reference as ref
from haplosim.channel import (
    ChannelConfig,
    make_rng,
    prob_disconnected_split,
    prob_uncovered_column,
    transmit,
)
from haplosim.model import Haplotype, MembershipVector


def exact_uncovered_probability(n: int, m: int) -> Fraction:
    """Enumerate every assignment of m reads to column pairs (k=2).

    Exact probability that at least one column stays uncovered; tractable
    only for tiny n, m, which is the point: it is the independent check for
    the closed-form sum.
    """
    pairs = list(combinations(range(n), 2))
    bad = 0
    for choice in product(range(len(pairs)), repeat=m):
        covered = set()
        for index in choice:
            covered.update(pairs[index])
        if len(covered) < n:
            bad += 1
    return Fraction(bad, len(pairs) ** m)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=6, m=8, k=7),
            dict(n=6, m=8, k=1),
            dict(n=6, m=0),
            dict(n=1, m=3),
            dict(n=6, m=8, p=0.6),
            dict(n=6, m=8, p=-0.1),
            dict(n=6, m=8, seed=-1),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ChannelConfig(**kwargs)


class TestSampleMask:
    def test_k_equals_n_observes_everything(self):
        cfg = ChannelConfig(n=5, m=7, k=5, seed=3)
        mask = ref.sample_mask(cfg, make_rng(cfg.seed))
        assert mask == {(i, j) for i in range(7) for j in range(5)}

    def test_three_column_pairs_are_uniform(self):
        # C(3,2)=3 possible pairs; each should appear with frequency 1/3
        cfg = ChannelConfig(n=3, m=30_000, k=2, seed=11)
        mask = ref.sample_mask(cfg, make_rng(cfg.seed))
        per_row = {}
        for i, j in mask:
            per_row.setdefault(i, set()).add(j)
        counts = {frozenset(p): 0 for p in combinations(range(3), 2)}
        for row_cols in per_row.values():
            counts[frozenset(row_cols)] += 1
        sigma = math.sqrt(cfg.m * (1 / 3) * (2 / 3))
        for pair, count in counts.items():
            assert abs(count - cfg.m / 3) < 3 * sigma, (pair, count)

    def test_expected_insert_size(self):
        # gap between the two observed positions of a row, exclusive
        cfg = ChannelConfig(n=40, m=20_000, k=2, seed=5)
        mask = sorted(ref.sample_mask(cfg, make_rng(cfg.seed)))
        gaps = []
        for i in range(cfg.m):
            (_, j1), (_, j2) = mask[2 * i], mask[2 * i + 1]
            gaps.append(abs(j2 - j1) - 1)
        expected = (cfg.n - 2) / 3
        assert abs(np.mean(gaps) - expected) < 3 * np.std(gaps) / math.sqrt(len(gaps))

    def test_pair_coverage_is_binomial(self):
        # count of reads covering a fixed pair over repeated draws
        n, m, trials = 8, 25, 200
        hits = 0
        for t in range(trials):
            cfg = ChannelConfig(n=n, m=m, k=2, seed=1000 + t)
            mask = ref.sample_mask(cfg, make_rng(cfg.seed))
            per_row = {}
            for i, j in mask:
                per_row.setdefault(i, set()).add(j)
            hits += sum(1 for cols in per_row.values() if cols == {2, 5})
        q = 2 / (n * (n - 1))
        total = trials * m
        sigma = math.sqrt(total * q * (1 - q))
        assert abs(hits - total * q) < 4 * sigma


class TestTransmit:
    def test_error_free_matches_source(self):
        rng = np.random.default_rng(2)
        h = Haplotype(tuple(rng.integers(0, 2, 12) * 2 - 1))
        c = MembershipVector(tuple(rng.integers(0, 2, 30) * 2 - 1))
        observed, flipped = transmit(h, c, ChannelConfig(n=12, m=30, p=0.0, seed=9))
        assert np.count_nonzero(flipped) == 0
        hs, cs = ref.signs(h), ref.signs(c)
        for i, j, value in ref.entries(observed):
            assert value == cs[i] * hs[j]

    def test_transmit_uses_sample_mask_draw(self):
        cfg = ChannelConfig(n=9, m=40, k=3, p=0.0, seed=77)
        rng = np.random.default_rng(4)
        h = Haplotype(tuple(rng.integers(0, 2, 9) * 2 - 1))
        c = MembershipVector(tuple(rng.integers(0, 2, 40) * 2 - 1))
        mask = ref.sample_mask(cfg, make_rng(cfg.seed))
        assert ref.project(ref.encode(h, c), mask) == transmit(h, c, cfg)[0]

    def test_half_noise_flips_half(self):
        n, m = 10, 2000
        rng = np.random.default_rng(6)
        h = Haplotype(tuple(rng.integers(0, 2, n) * 2 - 1))
        c = MembershipVector(tuple(rng.integers(0, 2, m) * 2 - 1))
        _, flipped = transmit(h, c, ChannelConfig(n=n, m=m, p=0.5, seed=21))
        total = m * 2
        assert flipped.shape == (total,)
        sigma = math.sqrt(total * 0.25)
        assert abs(np.count_nonzero(flipped) - total / 2) < 3 * sigma

    def test_flip_count_binomial(self):
        n, m, p = 10, 1000, 0.1  # m*k = 2000 stored entries
        rng = np.random.default_rng(8)
        h = Haplotype(tuple(rng.integers(0, 2, n) * 2 - 1))
        c = MembershipVector(tuple(rng.integers(0, 2, m) * 2 - 1))
        _, flipped = transmit(h, c, ChannelConfig(n=n, m=m, p=p, seed=31))
        assert abs(np.count_nonzero(flipped) - 200) < 3 * math.sqrt(2000 * p * (1 - p))

    def test_noise_positions_are_flipped_observations(self):
        rng = np.random.default_rng(12)
        h = Haplotype(tuple(rng.integers(0, 2, 7) * 2 - 1))
        c = MembershipVector(tuple(rng.integers(0, 2, 50) * 2 - 1))
        observed, flipped = transmit(h, c, ChannelConfig(n=7, m=50, p=0.3, seed=3))
        hs, cs = ref.signs(h), ref.signs(c)
        for (i, j, value), flip in zip(ref.entries(observed), flipped):
            expected = cs[i] * hs[j]
            assert value == (-expected if flip else expected)

    def test_noise_membership_matches_flips(self):
        h = Haplotype((1, -1, 1, 1, -1))
        c = MembershipVector((1,) * 40)
        observed, flipped = transmit(h, c, ChannelConfig(n=5, m=40, p=0.3, seed=8))
        assert np.count_nonzero(flipped) > 0
        for (i, j, value), flip in zip(ref.entries(observed), flipped):
            assert flip == (value != ref.signs(h)[j])

    def test_determinism(self):
        cfg = ChannelConfig(n=15, m=60, p=0.2, seed=12345)
        rng = np.random.default_rng(14)
        h = Haplotype(tuple(rng.integers(0, 2, 15) * 2 - 1))
        c = MembershipVector(tuple(rng.integers(0, 2, 60) * 2 - 1))
        first = transmit(h, c, cfg)
        second = transmit(h, c, cfg)
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])

    def test_column_coverage_poisson_mean(self):
        # at m = Theta(n ln n) the per-column observation count has mean 2m/n
        n = 50
        m = math.ceil(n * math.log(n))
        rng = np.random.default_rng(16)
        h = Haplotype(tuple(rng.integers(0, 2, n) * 2 - 1))
        c = MembershipVector(tuple(rng.integers(0, 2, m) * 2 - 1))
        observed, _ = transmit(h, c, ChannelConfig(n=n, m=m, seed=8))
        counts = np.zeros(n)
        for _, j, _ in ref.entries(observed):
            counts[j] += 1
        assert abs(counts.mean() - 2 * m / n) < 3 * counts.std() / math.sqrt(n)


class TestUncoveredColumnProbability:
    def test_three_sites_exact(self):
        assert prob_uncovered_column(3, 1) == pytest.approx(1.0, abs=1e-12)
        assert prob_uncovered_column(3, 2) == pytest.approx(1 / 3, abs=1e-12)
        assert prob_uncovered_column(3, 3) == pytest.approx(1 / 9, abs=1e-12)

    def test_matches_enumeration_at_n3(self):
        for m in range(1, 7):
            exact = exact_uncovered_probability(3, m)
            assert prob_uncovered_column(3, m) == pytest.approx(float(exact), abs=1e-12)

    def test_upper_bounds_enumeration_beyond_n3(self):
        # without inclusion-exclusion alternation the sum over-counts
        for n, m in [(4, 2), (4, 3), (4, 4), (5, 3), (5, 4)]:
            exact = exact_uncovered_probability(n, m)
            formula = prob_uncovered_column(n, m)
            assert formula >= float(exact) - 1e-12, (n, m)

    def test_monte_carlo_one_sided(self):
        n, m, trials = 10, 100, 4000
        uncovered = 0
        for t in range(trials):
            cfg = ChannelConfig(n=n, m=m, seed=50_000 + t)
            mask = ref.sample_mask(cfg, make_rng(cfg.seed))
            if len({j for _, j in mask}) < n:
                uncovered += 1
        formula = prob_uncovered_column(n, m)
        sigma = math.sqrt(max(formula, 1e-12) * (1 - formula) / trials)
        assert uncovered / trials <= formula + 3 * sigma + 1e-9

    def test_monotone_in_reads(self):
        for n in (5, 9, 14):
            values = [prob_uncovered_column(n, m) for m in range(1, 40)]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n, rel, seconds", [(10**5, 1e-10, 2.0), (10**6, 1e-9, 5.0)])
    def test_matches_high_precision_sum_at_genome_scale(self, n, rel, seconds):
        # at m = n ln n the terms fall by about a factor n per step, so the
        # first 40 carry the sum to far below double precision
        m = round(n * math.log(n))
        with mpmath.workdps(50):
            pairs = mpmath.binomial(n, 2)
            terms = [mpmath.binomial(n, i) * (mpmath.binomial(n - i, 2) / pairs) ** m for i in range(1, 41)]
            expected = mpmath.fsum(terms)
            assert terms[-1] < 1e-40 * expected
        start = time.perf_counter()
        value = prob_uncovered_column(n, m)
        assert time.perf_counter() - start < seconds
        assert value == pytest.approx(float(expected), rel=rel, abs=0)

    def test_union_sum_past_one_clamps(self):
        # the union-style sum is about e^950 here; exp of it would overflow
        assert prob_uncovered_column(2000, 400) == 1.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            prob_uncovered_column(2, 5)
        with pytest.raises(ValueError):
            prob_uncovered_column(5, 0)


class TestDisconnectedSplitProbability:
    def test_extreme_points_coincide(self):
        n, m = 10, 25
        left = prob_disconnected_split(n, m, 1, 2)
        right = prob_disconnected_split(n, m, m - 1, n - 2)
        assert left == pytest.approx(right, rel=1e-12)

    def test_exact_rational_value(self):
        # C(6,2) * 3 * 1 * C(4,2)^2 / C(6,2)^3 for (u,v)=(1,2) at n=6, m=3
        # reduces to 2^10 / 5^7 at the spec's (n=6, m=8) instance
        expected = Fraction(
            math.comb(6, 2) * math.comb(8, 1) * math.comb(4, 2) ** 7,
            math.comb(6, 2) ** 8,
        )
        assert expected == Fraction(1024, 78125)
        value = prob_disconnected_split(6, 8, 1, 2)
        assert value == pytest.approx(float(expected), rel=1e-12)
        assert value == pytest.approx(0.0131072, rel=1e-12)

    def test_corner_dominates_grid(self):
        n = 100
        m = math.ceil(n * math.log(n))
        corner = prob_disconnected_split(n, m, 1, 2)
        rng = np.random.default_rng(44)
        for _ in range(300):
            u = int(rng.integers(1, m))
            v = int(rng.integers(2, n - 1))
            assert prob_disconnected_split(n, m, u, v) <= corner + 1e-18

    def test_monotone_in_reads(self):
        values = [prob_disconnected_split(8, m, 1, 2) for m in range(2, 40)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "n, m, u, v", [(10**4, 92103, 1, 2), (10**5, 1151293, 1, 2), (10**5, 1151293, 3, 5)]
    )
    def test_matches_high_precision_value_at_genome_scale(self, n, m, u, v):
        # m near n ln n multiplies any rounding in the two powers' logs
        with mpmath.workdps(50):
            b = mpmath.binomial
            expected = b(n, v) * b(m, u) * b(v, 2) ** u * b(n - v, 2) ** (m - u) / b(n, 2) ** m
        assert prob_disconnected_split(n, m, u, v) == pytest.approx(float(expected), rel=1e-8, abs=0)

    def test_choice_factor_past_one_clamps(self):
        # the log value is about 1379 here; exp of it would overflow
        assert prob_disconnected_split(2000, 4, 2, 1000) == 1.0

    @pytest.mark.parametrize("u,v", [(0, 3), (8, 3), (1, 1), (1, 7)])
    def test_out_of_range_rejected(self, u, v):
        with pytest.raises(ValueError):
            prob_disconnected_split(8, 8, u, v)
