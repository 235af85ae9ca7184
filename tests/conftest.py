import csv
import itertools
import math
import subprocess
import sys
import time
from dataclasses import fields

import mpmath
import numpy as np
import pytest

import tuple_reference as ref
from haplosim.channel import ChannelConfig, transmit
from haplosim.erasure import decode as ed_decode
from haplosim.experiments import Cell, CellSummary, ExperimentConfig, run
from haplosim.fragio import load_fragments, save_fragments
from haplosim.model import Haplotype, MembershipVector
from haplosim.planted import PlantedParams, _ratio_floors
from haplosim.spectral import build_adjacency

# Observed positions of the 8x6 instance with known ground truth
# (columns 0-based): one connected component covering all six sites.
EXAMPLE_MASK = frozenset(
    {
        (0, 2), (0, 4),
        (1, 1), (1, 4),
        (2, 0), (2, 3),
        (3, 2), (3, 3),
        (4, 0), (4, 2),
        (5, 1), (5, 4),
        (6, 0), (6, 3),
        (7, 4), (7, 5),
    }
)


@pytest.fixture(scope="session")
def example_8x6():
    """(h, c, R): the 6-site, 8-read worked instance."""
    h = Haplotype((1, 1, -1, 1, -1, -1))
    c = MembershipVector((1, 1, 1, 1, -1, -1, -1, -1))
    return h, c, ref.project(ref.encode(h, c), EXAMPLE_MASK)


def random_instance(n, m, k, p, seed):
    """Deterministic random (h, c, R) draw for property loops."""
    rng = np.random.Generator(np.random.Philox(seed))
    h = Haplotype(rng.integers(0, 2, size=n) * 2 - 1)
    c = MembershipVector(rng.integers(0, 2, size=m) * 2 - 1)
    observed, _ = transmit(h, c, ChannelConfig(n=n, m=m, k=k, p=p, seed=seed + 0x9E3779B9))
    return h, c, observed


def build_matrix(params: PlantedParams) -> np.ndarray:
    """Dense planted matrix: alpha on the two diagonal blocks, beta off them."""
    n1 = params.n1
    b = np.full((params.n, params.n), params.beta, dtype=float)
    b[:n1, :n1] = params.alpha
    b[n1:, n1:] = params.alpha
    return b


def beta_term_ratio(n: int, m: int, p: float, i: int) -> tuple[float, float]:
    """Oracle for the Lemma-1 term-ratio step: (beta_i / beta_{i+1}, floor).

    beta_i = C(m,i) q^i (1-q)^(m-i) P(Binomial(i, 2p(1-p)) > i/2) with
    q = 2/(n(n-1)), summed in 50-digit mpmath (p > 0, so no term vanishes).
    The floor is planted's even-i or odd-i closed form.
    """
    with mpmath.workdps(50):
        q = mpmath.mpf(2) / (n * (n - 1))
        s = 2 * mpmath.mpf(p) * (1 - mpmath.mpf(p))

        def term(j):
            majority = mpmath.fsum(
                mpmath.binomial(j, l) * s**l * (1 - s) ** (j - l) for l in range(j // 2 + 1, j + 1)
            )
            return mpmath.binomial(m, j) * q**j * (1 - q) ** (m - j) * majority

        ratio = float(term(i) / term(i + 1))
    even_floor, odd_floor = _ratio_floors(n, m)
    return ratio, even_floor if i % 2 == 0 else odd_floor


def read_summaries(path) -> list[CellSummary]:
    """Parse an emit_csv file back into CellSummary rows, typed by field."""
    # annotations are strings (the module uses from __future__ import annotations)
    types = {f.name: {"int": int, "float": float, "str": str}[f.type] for f in fields(CellSummary)}
    with open(path, newline="", encoding="ascii") as fh:
        return [CellSummary(**{k: types[k](v) for k, v in row.items()}) for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# Shared property-suite helpers (module tests run small counts, the
# acceptance gate runs the full ones).
# ---------------------------------------------------------------------------


_CASE_NUMBERS = itertools.count()


def new_path(directory, name):
    """A path no earlier call returned: on ext4, rewriting an existing file
    costs tens of milliseconds per write, creating a new one almost nothing."""
    return directory / f"{next(_CASE_NUMBERS)}-{name}"


def check_fragio_roundtrip(count, tmp_path, seed=20240801):
    rng = np.random.Generator(np.random.Philox(seed))
    for t in range(count):
        n = int(rng.integers(2, 14))
        m = int(rng.integers(1, 12))
        rows = []
        for _ in range(m):
            width = int(rng.integers(0, n + 1))
            cols = sorted(rng.choice(n, size=width, replace=False).tolist())
            rows.append(tuple((int(j), int(rng.integers(0, 2)) * 2 - 1) for j in cols))
        matrix = ref.read_matrix(n, tuple(rows))
        path = new_path(tmp_path, "roundtrip.frag")
        save_fragments(matrix, path)
        again = load_fragments(path)
        assert again == matrix, f"round-trip mismatch at case {t}"
        save_fragments(again, path.with_suffix(".second"))
        assert path.read_bytes() == path.with_suffix(".second").read_bytes()


def check_decode_matches_components(count, seed=987):
    rng = np.random.Generator(np.random.Philox(seed))
    for t in range(count):
        n = int(rng.integers(3, 16))
        m = int(rng.integers(1, 4 * n))
        _, _, observed = random_instance(n, m, 2, 0.0, seed=int(rng.integers(0, 2**31)))
        components = ref.overlap_components(observed)
        expect_ok = len(components) == 1 and len(components[0][1]) == n
        result = ed_decode(observed)
        assert result.ok == expect_ok, (
            f"case {t}: decode says {result.describe()}, "
            f"components say {'ok' if expect_ok else 'split'}"
        )


def check_adjacency_equivariance(count, seed=555):
    rng = np.random.Generator(np.random.Philox(seed))
    for t in range(count):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(3, 40))
        _, _, observed = random_instance(n, m, 2, 0.2, seed=int(rng.integers(0, 2**31)))
        perm = rng.permutation(n)
        relabeled = ref.read_matrix(
            n,
            tuple(
                tuple(sorted((int(perm[j]), a) for j, a in row)) for row in ref.rows(observed)
            ),
        )
        base = build_adjacency(observed)
        moved = build_adjacency(relabeled)
        for u in range(n):
            for v in range(u + 1, n):
                assert ref.vote_entry(moved, int(perm[u]), int(perm[v])) == ref.vote_entry(
                    base, u, v
                ), f"case {t}: pair ({u}, {v}) not equivariant"


# ---------------------------------------------------------------------------
# Heavy Monte Carlo runs shared between acceptance and module tests.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def fig3_run():
    """p=0.1 sweep over n x {linear, nlogn} for SP, 50 trials per cell.

    Returns (summaries, wall_seconds).
    """
    cells = tuple(
        Cell(n=n, m_rule=rule, kappa_or_c=2.0, p=0.1, decoder="sp")
        for n in (100, 350, 700)
        for rule in ("linear", "nlogn")
    )
    start = time.perf_counter()
    summaries = run(ExperimentConfig(cells, trials=50, base_seed=11), measure_time=False)
    return summaries, time.perf_counter() - start


@pytest.fixture(scope="session")
def fig3_summaries(fig3_run):
    return fig3_run[0]


@pytest.fixture(scope="session")
def fig4_cli_runs(tmp_path_factory):
    """fig4 preset through the CLI at two thread counts.

    Returns ([csv_bytes, csv_bytes], wall_seconds).
    """
    outdir = tmp_path_factory.mktemp("fig4")
    payloads = []
    start = time.perf_counter()
    for threads in (1, 3):
        out = outdir / f"fig4_t{threads}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "haplosim.cli", "experiment",
                "--preset", "fig4", "--out", str(out),
                "--threads", str(threads), "--no-timing",
            ],
            capture_output=True,
            text=True,
            timeout=900,
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    return payloads, time.perf_counter() - start


@pytest.fixture(scope="session")
def ed_trend_counts():
    """Error-free ED at m = 2 n ln n: (exact, failures) out of 500 trials per n."""
    out = {}
    for index, n in enumerate((100, 400)):
        m = math.ceil(2 * n * math.log(n))
        exact = failures = 0
        for t in range(500):
            h, _, observed = random_instance(n, m, 2, 0.0, seed=index * 100_000 + t)
            result = ed_decode(observed)
            if not result.ok:
                failures += 1
            elif result.haplotype in (h, h.flipped()):
                exact += 1
        out[n] = (exact, failures)
    return out
