import math

import numpy as np
import pytest

import tuple_reference as ref
from conftest import build_matrix, check_adjacency_equivariance, random_instance
from haplosim.model import NO_LINKED_PAIRS, NON_CONVERGED, Haplotype, hamming_up_to_flip
from haplosim.planted import PlantedParams, spectrum
from haplosim.spectral import (
    NonConvergedError,
    SpectralConfig,
    VoteMatrix,
    build_adjacency,
    decode,
    infer_memberships,
    partition,
    top_two_eigenpairs,
)


def random_symmetric_01(rng, n, fill=0.4):
    upper = rng.random((n, n)) < fill
    a = np.triu(upper, 1)
    return (a + a.T).astype(float)


class TestBuildAdjacency:
    def test_majority_wins(self):
        rows = (
            ((0, 1), (1, 1)),
            ((0, -1), (1, -1)),
            ((0, 1), (1, -1)),
        )
        votes = build_adjacency(ref.read_matrix(2, rows))
        assert ref.tally_dict(votes)[(0, 1)] == (2, 1)
        assert ref.vote_entry(votes, 0, 1) == 1

    def test_tie_gives_zero(self):
        rows = (((0, 1), (1, 1)), ((0, 1), (1, -1)))
        votes = build_adjacency(ref.read_matrix(2, rows))
        assert ref.tally_dict(votes)[(0, 1)] == (1, 1)
        assert ref.vote_entry(votes, 0, 1) == 0
        assert ref.vote_entry(votes, 1, 0) == 0

    def test_worked_example_tallies(self, example_8x6):
        _, _, observed = example_8x6
        votes = build_adjacency(observed)
        # read 3 sees columns 2,3 with opposite signs
        tallies = ref.tally_dict(votes)
        assert tallies[(2, 3)] == (0, 1)
        assert ref.vote_entry(votes, 2, 3) == 0
        # reads 2 and 6 both see columns 0,3 agreeing
        assert tallies[(0, 3)] == (2, 0)
        assert ref.vote_entry(votes, 0, 3) == 1

    def test_diagonal_and_symmetry(self, example_8x6):
        _, _, observed = example_8x6
        dense = build_adjacency(observed).to_sparse().toarray()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)

    def test_multi_snp_reads_vote_on_all_pairs(self):
        rows = (((0, 1), (2, 1), (4, -1)),)
        votes = build_adjacency(ref.read_matrix(5, rows))
        assert set(ref.tally_dict(votes)) == {(0, 2), (0, 4), (2, 4)}
        assert ref.vote_entry(votes, 0, 2) == 1
        assert ref.vote_entry(votes, 0, 4) == 0

    def test_permutation_equivariance(self):
        check_adjacency_equivariance(40)


class TestTopTwoEigenpairs:
    def test_matches_dense_solver_on_random_01(self):
        rng = np.random.default_rng(31)
        checked_vectors = 0
        for t in range(60):
            n = int(rng.integers(3, 9))
            a = random_symmetric_01(rng, n)
            values = np.sort(np.linalg.eigvalsh(a))[::-1]
            (lam1, v1), (lam2, v2) = top_two_eigenpairs(a, SpectralConfig(seed=t))
            assert lam1 == pytest.approx(values[0], abs=1e-6)
            assert lam2 == pytest.approx(values[1], abs=1e-6)
            for lam, vec in ((lam1, v1), (lam2, v2)):
                assert np.linalg.norm(a @ vec - lam * vec) <= 1e-8 * max(1.0, abs(lam))
                assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
            assert abs(v1 @ v2) <= 1e-8
            # eigenvector comparison only well-posed when v2 is unique,
            # i.e. when lambda_2 is separated on both sides
            if n > 2 and values[1] - values[2] > 1e-3 and values[0] - values[1] > 1e-3:
                dense_vecs = np.linalg.eigh(a)[1]
                oracle = dense_vecs[:, -2]
                agreement = abs(float(oracle @ v2))
                assert agreement == pytest.approx(1.0, abs=1e-6)
                checked_vectors += 1
        assert checked_vectors > 10

    def test_matches_dense_solver_on_hard_graphs(self):
        # graphs whose lambda2 single-vector Lanczos used to miss: an exact
        # zero lambda2 (K_n minus an edge, a clique beside isolated columns),
        # lambda1 repeated on two isomorphic components, and dense random
        # graphs up to n = 39
        def clique(n):
            return np.ones((n, n)) - np.eye(n)

        def blocks(*parts):
            size = sum(part.shape[0] for part in parts)
            a, at = np.zeros((size, size)), 0
            for part in parts:
                a[at : at + part.shape[0], at : at + part.shape[0]] = part
                at += part.shape[0]
            return a

        rng = np.random.default_rng(17)
        graphs = []
        for n in (6, 9, 17, 30, 40):
            minus_edge = clique(n)
            minus_edge[0, 1] = minus_edge[1, 0] = 0
            graphs += [minus_edge, blocks(clique(n - 2), np.zeros((2, 2)))]
        for k in (12, 25, 25, 25, 25, 25, 25, 40):
            g = random_symmetric_01(rng, k, fill=0.1)
            perm = rng.permutation(k)
            graphs.append(blocks(g, g[perm][:, perm], np.zeros((1, 1))))
        graphs += [
            random_symmetric_01(rng, int(rng.integers(3, 40)), fill=float(rng.choice([0.05, 0.9])))
            for _ in range(120)
        ]
        for t, a in enumerate(graphs):
            values = np.sort(np.linalg.eigvalsh(a))[::-1]
            (lam1, v1), (lam2, v2) = top_two_eigenpairs(a, SpectralConfig(seed=t))
            assert (lam1, lam2) == pytest.approx(tuple(values[:2]), abs=1e-6)
            for lam, vec in ((lam1, v1), (lam2, v2)):
                assert np.linalg.norm(a @ vec - lam * vec) <= 1e-8 * max(1.0, abs(lam))
            assert abs(v1 @ v2) <= 1e-8

    def test_exact_planted_block_matrix(self):
        b = build_matrix(PlantedParams(2, 2, 0.6, 0.2))
        (lam1, _), (lam2, v2) = top_two_eigenpairs(b, SpectralConfig(seed=1))
        assert lam1 == pytest.approx(1.6, abs=1e-9)
        assert lam2 == pytest.approx(0.8, abs=1e-9)
        assert np.sign(v2[0]) == np.sign(v2[1]) != np.sign(v2[2]) == np.sign(v2[3])

    def test_symmetric_blocks_have_constant_magnitude(self):
        b = build_matrix(PlantedParams(3, 3, 0.7, 0.3))
        (_, _), (_, v2) = top_two_eigenpairs(b, SpectralConfig(seed=2))
        assert np.allclose(np.abs(v2), 1 / math.sqrt(6), atol=1e-8)

    def test_zero_matrix_degenerate_case(self):
        (lam1, v1), (lam2, v2) = top_two_eigenpairs(np.zeros((4, 4)), SpectralConfig(seed=3))
        assert lam1 == 0.0 and lam2 == 0.0
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-9)
        assert abs(v1 @ v2) <= 1e-8

    def test_deflated_operator_limit_is_orthogonal(self):
        # cross-check the implicit deflation formulation: power-iterate
        # z -> (A + sI) z - (lam1 + s) (v1.z) v1 and land orthogonal to v1
        rng = np.random.default_rng(77)
        a = random_symmetric_01(rng, 8)
        (lam1, v1), (lam2, v2) = top_two_eigenpairs(a, SpectralConfig(seed=5))
        shift = float(np.abs(a).sum(axis=1).max()) + 1.0
        z = rng.standard_normal(8)
        for _ in range(5000):
            z = a @ z + shift * z - (lam1 + shift) * (v1 @ z) * v1
            z /= np.linalg.norm(z)
        assert abs(z @ v1) < 1e-6
        assert float(z @ (a @ z)) == pytest.approx(lam2, abs=1e-5)
        assert abs(v2 @ v1) <= 1e-8

    def test_non_convergence_reports_residual(self):
        rng = np.random.default_rng(9)
        a = random_symmetric_01(rng, 12)
        with pytest.raises(NonConvergedError) as info:
            top_two_eigenpairs(a, SpectralConfig(max_iterations=1, seed=0))
        assert info.value.residual > 0

    def test_non_convergence_reports_budget(self):
        a = random_symmetric_01(np.random.default_rng(9), 12)
        with pytest.raises(NonConvergedError) as info:
            top_two_eigenpairs(a, SpectralConfig(max_iterations=1, seed=0))
        assert info.value.iterations == 1
        assert "within 1 restarts" in str(info.value)

    def test_close_form_sign_structure_on_random_params(self):
        rng = np.random.default_rng(50)
        for t in range(20):
            n1 = int(rng.integers(1, 7))
            n2 = int(rng.integers(1, 7))
            if n1 + n2 < 2:
                continue
            beta = float(rng.uniform(0.05, 0.45))
            alpha = beta + float(rng.uniform(0.05, 0.5))
            params = PlantedParams(n1, n2, alpha, beta)
            closed = spectrum(params)
            (_, _), (_, v2) = top_two_eigenpairs(build_matrix(params), SpectralConfig(seed=t))
            # compare sign pattern up to a global flip
            expected = np.sign(closed.v2)
            got = np.sign(v2)
            assert np.array_equal(got, expected) or np.array_equal(got, -expected)


class TestPartition:
    def test_negative_entries_become_plus(self):
        estimate = partition(np.array([-0.3, -0.3, 0.4, 0.4]))
        assert ref.signs(estimate) == (1, 1, -1, -1)

    def test_zero_entry_lands_in_minus_class(self):
        estimate = partition(np.array([-0.5, 0.0, 0.5]))
        assert ref.signs(estimate) == (1, -1, -1)

    def test_negating_input_flips_output(self):
        vec = np.array([-0.6, 0.2, 0.77, -0.1])
        flipped = partition(-vec)
        assert flipped == partition(vec).flipped()


class TestDecode:
    def test_two_block_votes_recover_exactly(self):
        # reads agree within {0,1} and within {2,3}; the adjacency is two
        # disjoint edges, a fully degenerate two-block spectrum
        h = Haplotype((1, 1, -1, -1))
        rows = (
            ((0, 1), (1, 1)),
            ((0, -1), (1, -1)),
            ((2, 1), (3, 1)),
            ((2, -1), (3, -1)),
        )
        result = decode(ref.read_matrix(4, rows), SpectralConfig(seed=4))
        errors, _ = hamming_up_to_flip(h, result.haplotype)
        assert errors == 0
        assert result.meta["low_confidence"]

    def test_error_free_large_instance_is_exact(self):
        total_err = 0.0
        trials = 15
        n = 100
        m = math.ceil(2 * n * math.log(n))
        for t in range(trials):
            h, _, observed = random_instance(n, m, 2, 0.0, seed=300 + t)
            result = decode(observed, SpectralConfig(seed=t))
            errors, _ = hamming_up_to_flip(h, result.haplotype)
            total_err += errors / n
        assert total_err / trials <= 0.005

    def test_linear_read_budget_stays_noisy(self):
        # m = n reads at p=0.1 leave a constant error floor
        errs = []
        n = 100
        for t in range(15):
            h, _, observed = random_instance(n, n, 2, 0.1, seed=900 + t)
            result = decode(observed, SpectralConfig(seed=t))
            errs.append(hamming_up_to_flip(h, result.haplotype)[0] / n if result.ok else 0.5)
        assert np.mean(errs) > 0.1

    def test_low_confidence_gap_is_relative_to_lambda1(self):
        # one read over all of columns 0..30 and one over 31..60: the
        # adjacency is K31 + K30 with lambda1 = 30, lambda2 = 29, a gap
        # above 10 * tol = 0.5 but within 10 * tol * lambda1 = 15
        rows = (
            tuple((j, 1) for j in range(31)),
            tuple((j, 1) for j in range(31, 61)),
        )
        result = decode(ref.read_matrix(61, rows), SpectralConfig(tolerance=0.05, seed=1))
        assert result.meta["lambda1"] == pytest.approx(30.0, abs=1.5)
        assert result.meta["lambda2"] == pytest.approx(29.0, abs=1.5)
        assert result.meta["low_confidence"]

    def test_non_convergence_is_a_failed_result(self):
        # top_two_eigenpairs raises; decode returns the same facts in meta
        _, _, observed = random_instance(25, 120, 2, 0.2, seed=0)
        result = decode(observed, SpectralConfig(max_iterations=1, seed=0))
        assert (result.reason, result.haplotype, result.describe()) == (NON_CONVERGED, None, "NonConverged")
        assert result.meta["residual"] > 0 and result.meta["restarts"] == 1
        assert result.meta["error"] == str(NonConvergedError(result.meta["residual"], 1))

    def test_no_linked_pair_is_a_failed_result(self):
        # one read over two sites that disagree links no pair
        result = decode(ref.read_matrix(3, (((0, 1), (2, -1)),)), SpectralConfig(seed=0))
        assert (result.reason, result.haplotype, result.meta) == (NO_LINKED_PAIRS, None, {"linked_pairs": 0})

    def test_membership_absent(self, example_8x6):
        _, _, observed = example_8x6
        result = decode(observed, SpectralConfig(seed=0))
        assert result.membership is None
        assert {"lambda1", "lambda2", "low_confidence"} <= set(result.meta)

    def test_error_fraction_shrinks_with_n(self, fig3_summaries):
        # p=0.1, m = 2 n ln n: mean SNP error fraction non-increasing in n
        nlogn = {s.n: s.mean_err_frac for s in fig3_summaries if s.m_rule == "nlogn"}
        assert nlogn[350] <= nlogn[100]
        assert nlogn[700] <= nlogn[350]


class TestInferMemberships:
    def test_error_free_reads_recover_their_sources(self):
        h, c, observed = random_instance(12, 40, 2, 0.0, seed=61)
        assert infer_memberships(observed, h) == c

    def test_single_flip_in_two_entry_read_ties_to_plus(self):
        h = Haplotype((1, 1))
        observed = ref.read_matrix(2, (((0, 1), (1, -1)),))
        assert ref.signs(infer_memberships(observed, h)) == (1,)

    def test_matches_per_read_map_oracle(self):
        # with the true haplotype, the sign vote IS the per-read MAP rule
        # (p < 0.5); enumerate both labels and compare likelihoods directly
        p = 0.05
        for t in range(25):
            h, c, observed = random_instance(10, 30, 2, p, seed=400 + t)
            inferred = ref.signs(infer_memberships(observed, h))
            truth, hs = ref.signs(c), ref.signs(h)
            correct = sum(1 for i in range(30) if inferred[i] == truth[i])
            oracle_correct = 0
            for i, row in enumerate(ref.rows(observed)):
                best, best_like = 1, -1.0
                for label in (1, -1):
                    like = 1.0
                    for j, value in row:
                        like *= (1 - p) if value == label * hs[j] else p
                    if like > best_like:
                        best, best_like = label, like
                if best == truth[i]:
                    oracle_correct += 1
            assert correct >= oracle_correct

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            infer_memberships(ref.read_matrix(3, (((0, 1),),)), Haplotype((1, 1)))


class TestVoteMatrix:
    def test_edges_follow_tallies(self):
        pairs = np.array([[0, 1], [0, 2], [1, 2]])
        votes = VoteMatrix(3, pairs, np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 1.0]]))
        assert votes.edges.tolist() == [[0, 1]]
