import math
import time
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest

from conftest import beta_term_ratio, build_matrix
from haplosim.planted import (
    TRUNCATION_TAIL,
    PlantedParams,
    _ratio_floors,
    alpha_beta_bounds,
    alpha_exact,
    beta_exact,
    binary_entropy,
    bound_assumptions_hold,
    fano_min_reads,
    majority_vote_prob,
    spectrum,
)


def random_params(rng, max_block=6):
    n1 = int(rng.integers(1, max_block + 1))
    n2 = int(rng.integers(1, max_block + 1))
    beta = float(rng.uniform(0.05, 0.45))
    alpha = beta + float(rng.uniform(0.05, 0.5))
    return PlantedParams(n1, n2, min(alpha, 1.0), beta)


def enumerated_vote_probability(n: int, m: int, p: Fraction, same_class: bool) -> Fraction:
    """Exhaustive sample-space walk for the pairwise majority vote.

    Every read independently covers the target pair with probability
    1/C(n,2); a covering read sees equal values with probability
    (1-p)^2+p^2 (same class) or 2p(1-p) (different class). Enumerates all
    cover/agreement patterns with exact rational weights.
    """
    q = Fraction(1, math.comb(n, 2))
    s = (1 - p) ** 2 + p**2 if same_class else 2 * p * (1 - p)
    total = Fraction(0)
    for cover in product((0, 1), repeat=m):
        weight = Fraction(1)
        for bit in cover:
            weight *= q if bit else 1 - q
        voters = sum(cover)
        if voters == 0:
            continue
        for agrees in product((0, 1), repeat=voters):
            aw = Fraction(1)
            for bit in agrees:
                aw *= s if bit else 1 - s
            if sum(agrees) > voters // 2:
                total += weight * aw
    return total


class TestSpectrum:
    def test_equal_blocks_collapse(self):
        spec = spectrum(PlantedParams(5, 5, 0.7, 0.4))
        assert spec.mu1 == pytest.approx(1.0, abs=1e-12)
        assert spec.mu2 == pytest.approx(-1.0, abs=1e-12)
        assert spec.lambda1 == pytest.approx(5 * (0.7 + 0.4), abs=1e-12)
        assert spec.lambda2 == pytest.approx(5 * (0.7 - 0.4), abs=1e-12)

    def test_four_by_four_example(self):
        spec = spectrum(PlantedParams(2, 2, 0.6, 0.2))
        b = build_matrix(PlantedParams(2, 2, 0.6, 0.2))
        dense = np.sort(np.linalg.eigvalsh(b))[::-1]
        assert spec.lambda1 == pytest.approx(1.6, abs=1e-12)
        assert spec.lambda2 == pytest.approx(0.8, abs=1e-12)
        assert dense[0] == pytest.approx(spec.lambda1, rel=1e-12)
        assert dense[1] == pytest.approx(spec.lambda2, rel=1e-12)

    def test_matches_dense_solver_on_random_params(self):
        rng = np.random.default_rng(60)
        for _ in range(40):
            params = random_params(rng)
            spec = spectrum(params)
            b = build_matrix(params)
            values, vectors = np.linalg.eigh(b)
            assert spec.lambda1 == pytest.approx(values[-1], rel=1e-9, abs=1e-9)
            assert spec.lambda2 == pytest.approx(values[-2], rel=1e-9, abs=1e-9)
            assert abs(float(vectors[:, -2] @ spec.v2)) == pytest.approx(1.0, abs=1e-8)

    def test_rank_two_reconstruction(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            params = random_params(rng)
            spec = spectrum(params)
            b = build_matrix(params)
            recon = spec.lambda1 * np.outer(spec.v1, spec.v1)
            recon += spec.lambda2 * np.outer(spec.v2, spec.v2)
            assert np.linalg.norm(b - recon) / np.linalg.norm(b) <= 1e-10

    def test_second_vector_splits_blocks(self):
        rng = np.random.default_rng(62)
        for _ in range(40):
            params = random_params(rng)
            spec = spectrum(params)
            assert spec.mu1 > 0 > spec.mu2
            assert spec.lambda1 > spec.lambda2 > 0
            first = np.sign(spec.v2[: params.n1])
            second = np.sign(spec.v2[params.n1 :])
            assert len(set(first)) == 1 and len(set(second)) == 1
            assert first[0] != second[0]
            assert np.linalg.norm(spec.v1) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(spec.v2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0.4, 0.4), (0.3, 0.5), (0.5, 0.0)])
    def test_rejects_degenerate_probabilities(self, alpha, beta):
        with pytest.raises(ValueError):
            spectrum(PlantedParams(3, 3, alpha, beta))


class TestExactVoteProbabilities:
    def test_zero_noise_collapses_to_coverage(self):
        n, m = 100, 921
        q = 2 / (n * (n - 1))
        assert alpha_exact(n, m, 0.0) == pytest.approx(1 - (1 - q) ** m, abs=1e-11)
        assert beta_exact(n, m, 0.0) == 0.0

    def test_maximum_noise_equalizes(self):
        assert alpha_exact(30, 200, 0.5) == pytest.approx(beta_exact(30, 200, 0.5), rel=1e-12)

    def test_matches_exhaustive_enumeration(self):
        p = Fraction(1, 5)
        alpha_oracle = enumerated_vote_probability(4, 3, p, True)
        beta_oracle = enumerated_vote_probability(4, 3, p, False)
        assert alpha_exact(4, 3, 0.2) == pytest.approx(float(alpha_oracle), abs=1e-12)
        assert beta_exact(4, 3, 0.2) == pytest.approx(float(beta_oracle), abs=1e-12)

    def test_alpha_dominates_beta_below_half(self):
        for p in (0.0, 0.1, 0.3, 0.49):
            a = alpha_exact(50, 400, p)
            b = beta_exact(50, 400, p)
            assert 0.0 <= b <= a <= 1.0

    def test_scaling_bracket_regression(self):
        # alpha * (n-1)/ln n at m = 2 n ln n, p = 0.1 pinned from first run:
        # 2.9494, 3.0834, 3.1669 for n = 100, 200, 400
        for n, expected in ((100, 2.9494), (200, 3.0834), (400, 3.1669)):
            m = round(2 * n * math.log(n))
            scaled = alpha_exact(n, m, 0.1) * (n - 1) / math.log(n)
            assert scaled == pytest.approx(expected, abs=5e-4)
            assert 2.5 <= scaled <= 3.5

    def test_matches_high_precision_sum_at_large_m(self):
        # at n = 10^5 the pair is covered about 4.6e-4 times on average, so
        # 40 read counts carry the sum to far below double precision
        n, p = 10**5, 0.1
        m = round(2 * n * math.log(n))
        with mpmath.workdps(50):
            q = mpmath.mpf(2) / (n * (n - 1))
            s = (1 - mpmath.mpf(p)) ** 2 + mpmath.mpf(p) ** 2

            def term(j):
                majority = mpmath.fsum(
                    mpmath.binomial(j, l) * s**l * (1 - s) ** (j - l) for l in range(j // 2 + 1, j + 1)
                )
                return mpmath.binomial(m, j) * q**j * (1 - q) ** (m - j) * majority

            terms = [term(j) for j in range(1, 41)]
            expected = mpmath.fsum(terms)
            assert terms[-1] < 1e-40 * expected
        start = time.perf_counter()
        value = alpha_exact(n, m, p)
        assert time.perf_counter() - start < 2.0
        assert value == pytest.approx(float(expected), rel=1e-11, abs=0)

    def test_truncation_bound_reported(self):
        detail = majority_vote_prob(100, 921, 0.1, same_class=True)
        assert 0.0 <= detail.truncation_bound <= 1e-12

    def test_truncation_bound_is_the_dropped_tail(self):
        # about 8e-18 of the read-count mass lies past the cut here
        detail = majority_vote_prob(1000, 13816, 0.1, same_class=True)
        assert 0.0 < detail.truncation_bound <= TRUNCATION_TAIL


class TestBounds:
    def test_bracket_holds_at_reference_point(self):
        n, p = 100, 0.1
        m = round(2 * n * math.log(n))
        lower, upper = alpha_beta_bounds(n, m, p, 2.0, 0.5, 2.0)
        assert alpha_exact(n, m, p) >= lower
        assert beta_exact(n, m, p) <= upper

    def test_read_count_must_match_rule(self):
        with pytest.raises(ValueError):
            alpha_beta_bounds(100, 500, 0.1, 2.0, 0.5, 2.0)

    def test_constant_ordering_enforced(self):
        m = round(2 * 100 * math.log(100))
        with pytest.raises(ValueError):
            alpha_beta_bounds(100, m, 0.1, 2.0, 1.5, 2.0)
        with pytest.raises(ValueError):
            alpha_beta_bounds(100, m, 0.1, 2.0, 0.5, 0.9)

    def test_assumption_threshold_is_69(self):
        valid = [n for n in range(50, 90) if bound_assumptions_hold(n, 2.0, 0.5, 2.0)]
        assert min(valid) == 69
        assert all(n >= 69 for n in valid)
        assert valid == list(range(69, 90))

    def test_assumptions_fail_at_two_reads(self):
        k1 = 0.6068261510845582  # k1 * 3 * ln(3) is exactly 2.0
        assert 3 * k1 * math.log(3) == 2.0
        assert not bound_assumptions_hold(3, k1, 0.5, 2.0)

    def test_term_ratio_beats_closed_form_floor(self):
        n = 100
        m = round(2 * n * math.log(n))
        for p in (0.05, 0.1, 0.2, 0.5):
            for i in range(1, 7):
                ratio, bound = beta_term_ratio(n, m, p, i)
                assert ratio >= bound, (p, i)

    def test_floors_exceed_two_at_n100(self):
        n = 100
        m = round(2 * n * math.log(n))
        even_bound, odd_bound = _ratio_floors(n, m)
        assert even_bound >= 2.0
        assert odd_bound >= 2.0

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            alpha_beta_bounds(1, 0, 0.1, 2.0, 0.5, 2.0)


class TestEntropyAndFano:
    def test_entropy_landmarks(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_entropy_against_high_precision(self):
        with mpmath.workdps(50):
            for p in (0.11, 0.1, 0.25, 0.41):
                mp = mpmath.mpf(p)
                expected = float(-(mp * mpmath.log(mp, 2) + (1 - mp) * mpmath.log(1 - mp, 2)))
                assert binary_entropy(p) == pytest.approx(expected, abs=1e-12)

    def test_error_free_read_floor(self):
        assert fano_min_reads(1000, 0.0) == 1000.0
        assert fano_min_reads(64, 0.0) == 64.0

    def test_noisy_read_floor(self):
        n = 100
        value = fano_min_reads(n, 0.0, 0.1)
        assert value == pytest.approx(n / (2 * (1 - binary_entropy(0.1))), rel=1e-12)
        assert value == pytest.approx(0.9416 * n, abs=0.01 * n)

    def test_tolerant_decoding_needs_nothing(self):
        assert fano_min_reads(50, 0.999) == pytest.approx(0.0, abs=0.05)

    def test_uninformative_noise_unbounded(self):
        assert fano_min_reads(10, 0.0, 0.5) == math.inf

    def test_validation(self):
        for n in (0, -5):
            with pytest.raises(ValueError, match="n must be >= 1"):
                fano_min_reads(n, 0.0)
        with pytest.raises(ValueError):
            fano_min_reads(10, 1.0)
        with pytest.raises(ValueError):
            fano_min_reads(10, 0.0, 0.7)
        with pytest.raises(ValueError):
            binary_entropy(1.2)
