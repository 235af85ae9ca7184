"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s`. Monte Carlo criteria use
fixed seeds, so every verdict here is reproducible bit for bit.
"""

import math
import time

import mpmath
import numpy as np
import pytest

import tuple_reference as ref
from conftest import (
    beta_term_ratio,
    build_matrix,
    check_adjacency_equivariance,
    check_decode_matches_components,
    check_fragio_roundtrip,
    read_summaries,
)
from haplosim.channel import ChannelConfig, make_rng, prob_uncovered_column
from haplosim.erasure import decode as ed_decode
from haplosim.experiments import Cell, ExperimentConfig
from haplosim.experiments import run as run_sweep
from haplosim.model import hamming_up_to_flip
from haplosim.planted import (
    PlantedParams,
    alpha_beta_bounds,
    alpha_exact,
    beta_exact,
    binary_entropy,
    fano_min_reads,
    spectrum,
)


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {name}: {verdict} {detail}".rstrip(), flush=True)
    assert passed, f"criterion {number} ({name}) failed {detail}"


def test_criterion_1_worked_example(example_8x6):
    h, c, observed = example_8x6
    result = ed_decode(observed)
    errors, flip = hamming_up_to_flip(h, result.haplotype)
    membership_ok = result.membership.to_array().tolist() == (flip * c.to_array()).tolist()
    best = math.inf
    for _ in range(7):
        start = time.perf_counter()
        ed_decode(observed)
        best = min(best, time.perf_counter() - start)
    report(
        1,
        "worked example decodes exactly",
        result.ok and errors == 0 and membership_ok and best < 1e-3,
        f"(errors={errors}, best runtime {best * 1e6:.0f} us)",
    )


def test_criterion_2_error_free_sufficiency_trend(ed_trend_counts):
    start = time.perf_counter()
    exact_100, fail_100 = ed_trend_counts[100]
    exact_400, fail_400 = ed_trend_counts[400]
    rate_100 = exact_100 / 500
    ok = rate_100 >= 0.98 and fail_400 <= fail_100
    report(
        2,
        "erasure decoding at m = 2 n ln n",
        ok,
        f"(exact rate n=100: {rate_100:.3f}, failures n=100: {fail_100}, n=400: {fail_400})",
    )
    assert time.perf_counter() - start < 60.0


def test_criterion_3_uncovered_column_formula():
    start = time.perf_counter()
    exact_ok = (
        prob_uncovered_column(3, 1) == pytest.approx(1.0, abs=1e-12)
        and prob_uncovered_column(3, 2) == pytest.approx(1 / 3, abs=1e-12)
        and prob_uncovered_column(3, 3) == pytest.approx(1 / 9, abs=1e-12)
    )
    n, m, trials = 10, 60, 10_000
    uncovered = 0
    for t in range(trials):
        cfg = ChannelConfig(n=n, m=m, seed=777_000 + t)
        mask = ref.sample_mask(cfg, make_rng(cfg.seed))
        if len({j for _, j in mask}) < n:
            uncovered += 1
    formula = prob_uncovered_column(n, m)
    sigma = math.sqrt(max(formula, 1e-12) * (1 - formula) / trials)
    mc_ok = uncovered / trials <= formula + 3 * sigma + 1e-9
    elapsed = time.perf_counter() - start
    report(
        3,
        "uncovered-column probability",
        exact_ok and mc_ok and elapsed < 10.0,
        f"(MC {uncovered}/{trials} vs formula {formula:.3e}, {elapsed:.1f}s)",
    )


def test_criterion_4_planted_spectrum_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_lambda = worst_vec = worst_recon = 0.0
    for _ in range(100):
        n1 = int(rng.integers(1, 11))
        n2 = int(rng.integers(1, min(11, 13 - n1)))
        beta = float(rng.uniform(0.05, 0.45))
        alpha = min(1.0, beta + float(rng.uniform(0.05, 0.5)))
        params = PlantedParams(n1, n2, alpha, beta)
        spec = spectrum(params)
        b = build_matrix(params)
        values, vectors = np.linalg.eigh(b)
        worst_lambda = max(
            worst_lambda,
            abs(spec.lambda1 - values[-1]) / abs(values[-1]),
            abs(spec.lambda2 - values[-2]) / abs(values[-2]),
        )
        dense_v2 = vectors[:, -2]
        worst_vec = max(
            worst_vec,
            min(
                float(np.linalg.norm(spec.v2 - dense_v2)),
                float(np.linalg.norm(spec.v2 + dense_v2)),
            ),
        )
        recon = spec.lambda1 * np.outer(spec.v1, spec.v1)
        recon += spec.lambda2 * np.outer(spec.v2, spec.v2)
        worst_recon = max(
            worst_recon, float(np.linalg.norm(b - recon) / np.linalg.norm(b))
        )
    elapsed = time.perf_counter() - start
    ok = worst_lambda <= 1e-9 and worst_vec <= 1e-8 and worst_recon <= 1e-10
    report(
        4,
        "closed-form planted spectrum vs dense solver",
        ok and elapsed < 5.0,
        f"(lambda {worst_lambda:.1e}, v2 {worst_vec:.1e}, recon {worst_recon:.1e}, {elapsed:.1f}s)",
    )


def test_criterion_5_vote_probability_bounds():
    start = time.perf_counter()
    k1, k2, k3 = 2.0, 0.5, 2.0
    failures = []
    for n in (69, 100, 350):
        m = round(k1 * n * math.log(n))
        for p in (0.05, 0.1, 0.2):
            lower, upper = alpha_beta_bounds(n, m, p, k1, k2, k3)
            if alpha_exact(n, m, p) < lower:
                failures.append(f"alpha n={n} p={p}")
            if beta_exact(n, m, p) > upper:
                failures.append(f"beta n={n} p={p}")
            for i in range(1, 7):
                ratio, bound = beta_term_ratio(n, m, p, i)
                if ratio < bound:
                    failures.append(f"ratio n={n} p={p} i={i}")
    elapsed = time.perf_counter() - start
    report(
        5,
        "alpha/beta bounds at the worked constants",
        not failures and elapsed < 30.0,
        f"({len(failures)} violations, {elapsed:.1f}s)" + (f" {failures[:4]}" if failures else ""),
    )


def test_criterion_6_benchmark_analogue():
    # Desk-scale stand-in for the published coverage grid. The external
    # benchmark's fragments span several SNPs, so the spectral cells use
    # 5-SNP reads; the erasure-decoding cell keeps the theoretical 2-SNP
    # channel, whose published band it matches.
    start = time.perf_counter()
    cells = (
        Cell(100, "coverage", 10.0, 0.0, k=5, decoder="sp"),
        Cell(100, "coverage", 10.0, 0.1, k=5, decoder="sp"),
        Cell(100, "coverage", 10.0, 0.1, k=2, decoder="ed"),
    )
    sp_clean, sp_noisy, ed_noisy = run_sweep(
        ExperimentConfig(cells, trials=100, base_seed=77), measure_time=False
    )
    recovery_clean = 1.0 - sp_clean.mean_err_frac
    recovery_noisy = 1.0 - sp_noisy.mean_err_frac
    recovery_ed = 1.0 - ed_noisy.mean_err_frac
    elapsed = time.perf_counter() - start
    ok = (
        recovery_clean >= 0.99
        and abs(recovery_noisy - 0.995) <= 0.05
        and 0.50 <= recovery_ed <= 0.75
        and elapsed < 300.0
    )
    report(
        6,
        "coverage-grid analogue recovery bands",
        ok,
        f"(SP p=0: {recovery_clean:.4f}, SP p=0.1: {recovery_noisy:.4f}, "
        f"ED p=0.1: {recovery_ed:.4f}, {elapsed:.0f}s)",
    )


def test_criterion_7_read_scale_and_noise_sweeps(tmp_path, fig3_run, fig4_cli_runs):
    summaries, fig3_seconds = fig3_run
    payloads, fig4_seconds = fig4_cli_runs
    by_cell = {(s.n, s.m_rule): s.mean_err_frac for s in summaries}
    scale_ok = all(by_cell[(n, "nlogn")] < by_cell[(n, "linear")] for n in (100, 350, 700))

    fig4_csv = tmp_path / "fig4.csv"
    fig4_csv.write_bytes(payloads[0])
    fig4 = read_summaries(fig4_csv)
    sp_errs = [s.mean_err_frac for s in fig4 if s.decoder == "sp"]
    noise_ok = all(a <= b + 1e-12 for a, b in zip(sp_errs, sp_errs[1:]))
    elapsed = fig3_seconds + fig4_seconds
    report(
        7,
        "read-scale separation and noise monotonicity",
        scale_ok and noise_ok and elapsed < 600.0,
        f"(nlogn vs linear: {[(by_cell[(n, 'nlogn')], by_cell[(n, 'linear')]) for n in (100, 350, 700)]}, "
        f"p-sweep errors: {sp_errs}, {elapsed:.0f}s)",
    )


def test_criterion_8_fano_calculators():
    exact_ok = all(fano_min_reads(n, 0.0) == float(n) for n in (2, 10, 100, 1000, 12345))
    with mpmath.workdps(60):
        tenth = mpmath.mpf(1) / 10
        reference = float(
            -(tenth * mpmath.log(tenth, 2) + (1 - tenth) * mpmath.log(1 - tenth, 2))
        )
    entropy_ok = abs(binary_entropy(0.1) - reference) <= 1e-12
    n = 500
    noisy_ok = fano_min_reads(n, 0.0, 0.1) == pytest.approx(
        n / (2.0 * (1.0 - reference)), rel=1e-12
    )
    report(
        8,
        "minimum-read calculators",
        exact_ok and entropy_ok and noisy_ok,
        f"(H(0.1) off by {abs(binary_entropy(0.1) - reference):.1e})",
    )


def test_criterion_9_property_suites(tmp_path, fig4_cli_runs):
    start = time.perf_counter()
    check_fragio_roundtrip(1000, tmp_path)
    check_decode_matches_components(1000)
    check_adjacency_equivariance(100)
    payloads, _ = fig4_cli_runs
    bytes_ok = payloads[0] == payloads[1]
    elapsed = time.perf_counter() - start
    report(
        9,
        "property suites and reproducible sweeps",
        bytes_ok,
        f"(thread-count CSVs identical: {bytes_ok}, {elapsed:.0f}s)",
    )
