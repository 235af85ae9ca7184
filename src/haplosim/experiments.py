"""Monte Carlo sweeps over (n, m-rule, p, k) grids for both decoders.

Each grid cell runs `trials` independent draws. Trial randomness is keyed
by SeedSequence(base_seed, spawn_key=(cell_index, trial_index)), so results
are bit-identical regardless of worker count or scheduling; per-trial wall
times are the only nondeterministic output and can be disabled for
byte-reproducible CSVs.

A failed trial (erasure-decoding failure or eigen non-convergence) counts
as chance-level: SNP error fraction 0.5 and no exact recovery.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
import time
from dataclasses import dataclass, fields

import numpy as np

from . import erasure, spectral
from .channel import ChannelConfig, transmit
from .model import Haplotype, MembershipVector, hamming_up_to_flip
from .spectral import NonConvergedError, SpectralConfig

__all__ = [
    "Cell",
    "ExperimentConfig",
    "CellSummary",
    "run",
    "emit_csv",
    "wilson_interval",
    "preset",
    "parse_config_text",
    "WorkerLostError",
]

M_RULES = ("linear", "nlogn", "coverage")
DECODERS = ("ed", "sp", "both")


@dataclass(frozen=True)
class Cell:
    """One grid point: problem size, read-count rule, noise level, decoder."""

    n: int
    m_rule: str
    kappa_or_c: float
    p: float
    k: int = 2
    decoder: str = "both"

    def validate(self) -> list[str]:
        problems = []
        if self.m_rule not in M_RULES:
            problems.append(f"m_rule must be one of {M_RULES}, got {self.m_rule!r}")
        if self.decoder not in DECODERS:
            problems.append(f"decoder must be one of {DECODERS}, got {self.decoder!r}")
        if self.kappa_or_c <= 0:
            problems.append(f"kappa_or_c must be positive, got {self.kappa_or_c}")
        try:
            ChannelConfig(n=self.n, m=max(1, self.reads()), k=self.k, p=self.p)
        except ValueError as exc:
            problems.append(str(exc))
        return problems

    def reads(self) -> int:
        """Read count implied by the rule (coverage c means c*n/k reads)."""
        if self.m_rule == "linear":
            raw = self.kappa_or_c * self.n
        elif self.m_rule == "nlogn":
            raw = self.kappa_or_c * self.n * math.log(self.n)
        elif self.m_rule == "coverage":
            raw = self.kappa_or_c * self.n / self.k
        else:
            raise ValueError(f"unknown m_rule {self.m_rule!r}")
        if not math.isfinite(raw):
            raise ValueError(f"kappa_or_c={self.kappa_or_c} gives a read count that is not finite")
        return max(1, math.ceil(raw))

    def decoders(self) -> tuple[str, ...]:
        return ("ed", "sp") if self.decoder == "both" else (self.decoder,)


@dataclass(frozen=True)
class ExperimentConfig:
    cells: tuple[Cell, ...]
    trials: int = 100
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if not self.cells:
            raise ValueError("experiment grid is empty")
        problems = []
        for index, cell in enumerate(self.cells):
            for msg in cell.validate():
                problems.append(f"cell {index} ({cell.n}, {cell.m_rule}, p={cell.p}): {msg}")
        if problems:
            raise ValueError("invalid experiment config:\n" + "\n".join(problems))


@dataclass(frozen=True)
class CellSummary:
    """Aggregated trial statistics for one (cell, decoder) pair."""

    n: int
    m_rule: str
    kappa_or_c: float
    p: float
    k: int
    decoder: str
    trials: int
    exact_rate: float
    exact_ci_lo: float
    exact_ci_hi: float
    mean_err_frac: float
    failure_rate: float
    mean_ms: float


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval; always brackets the point estimate."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    # the score interval contains phat mathematically; guard the roundoff
    return min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


def _run_trial(
    cell: Cell, cell_index: int, trial_index: int, base_seed: int, measure_time: bool
) -> dict[str, tuple[bool, float, bool, float]]:
    """One draw: returns per-decoder (exact, err_frac, failed, millis)."""
    root = np.random.SeedSequence(entropy=base_seed, spawn_key=(cell_index, trial_index))
    truth_ss, channel_ss, solver_ss = root.spawn(3)
    truth_rng = np.random.Generator(np.random.Philox(truth_ss))
    m = cell.reads()
    h = Haplotype(truth_rng.integers(0, 2, size=cell.n) * 2 - 1)
    c = MembershipVector(truth_rng.integers(0, 2, size=m) * 2 - 1)
    channel_seed = int(channel_ss.generate_state(1, dtype=np.uint64)[0])
    solver_seed = int(solver_ss.generate_state(1, dtype=np.uint64)[0])
    observed, _ = transmit(h, c, ChannelConfig(n=cell.n, m=m, k=cell.k, p=cell.p, seed=channel_seed))

    out: dict[str, tuple[bool, float, bool, float]] = {}
    for name in cell.decoders():
        start = time.perf_counter() if measure_time else 0.0
        failed = False
        estimate = None
        if name == "ed":
            result = erasure.decode(observed)
            if result.ok:
                estimate = result.haplotype
            else:
                failed = True
        else:
            try:
                result = spectral.decode(observed, SpectralConfig(seed=solver_seed))
                estimate = result.haplotype
            except NonConvergedError:
                failed = True
        millis = (time.perf_counter() - start) * 1e3 if measure_time else 0.0
        if estimate is None:
            out[name] = (False, 0.5, failed, millis)
        else:
            errors, _flip = hamming_up_to_flip(h, estimate)
            out[name] = (errors == 0, errors / cell.n, failed, millis)
    return out


def _worker_count(threads: int, tasks: int) -> int:
    """Worker processes for a sweep of `tasks` trials: never more than the
    trials or the CPUs, whatever `threads` asks for."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return min(threads, tasks, os.cpu_count() or 1)


class WorkerLostError(RuntimeError):
    """A sweep worker process exited mid-sweep, so the sweep was abandoned."""


# (workers, ProcessPoolExecutor): one pool kept for every run() in the process,
# so repeated small sweeps pay worker start-up once
_pool = None
_pool_lock = threading.Lock()


def _shutdown_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[1].shutdown(wait=True)
        _pool = None


atexit.register(_shutdown_pool)


def _process_pool(workers: int):
    """The shared pool with `workers` processes; call with _pool_lock held."""
    global _pool
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    if _pool is None or _pool[0] != workers:
        _shutdown_pool()
        # the workers already share the CPUs, so each gets one BLAS thread;
        # OpenBLAS reads the variable once, when a worker imports numpy
        saved = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
        _pool = (workers, pool)
        try:
            # spawn starts workers on demand: start all of them while the variable is set
            for future in [pool.submit(os.getpid) for _ in range(workers)]:
                future.result()
        finally:
            if saved is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = saved
    return _pool[1]


def _run_on_pool(workers: int, trial_args: list[tuple]) -> list:
    """[_run_trial(*args) for args in trial_args] on the shared worker pool."""
    from concurrent.futures.process import BrokenProcessPool

    chunksize = max(1, len(trial_args) // (4 * workers))
    with _pool_lock:
        try:
            pool = _process_pool(workers)
            return list(pool.map(_run_trial, *zip(*trial_args), chunksize=chunksize))
        except BrokenProcessPool as exc:
            _shutdown_pool()  # the next run() starts a fresh pool
            raise WorkerLostError(
                "a sweep worker process exited unexpectedly (killed, out of "
                "memory, or failed to start); the sweep was abandoned"
            ) from exc


def run(
    config: ExperimentConfig, threads: int = 1, measure_time: bool = True
) -> list[CellSummary]:
    """Execute the sweep; summaries are deterministic given base_seed.

    threads > 1 runs the trials on that many worker processes, at most one
    per trial and per CPU. With measure_time=False the wall-time column is
    fixed at 0.0, which makes the emitted CSV byte-identical across reruns
    and worker counts.
    """
    trial_args = [
        (cell, cell_index, t, config.base_seed, measure_time)
        for cell_index, cell in enumerate(config.cells)
        for t in range(config.trials)
    ]
    workers = _worker_count(threads, len(trial_args))
    if workers > 1:
        outcomes = _run_on_pool(workers, trial_args)
    else:
        outcomes = [_run_trial(*args) for args in trial_args]
    summaries: list[CellSummary] = []
    for cell_index, cell in enumerate(config.cells):
        trials = outcomes[cell_index * config.trials : (cell_index + 1) * config.trials]
        for name in cell.decoders():
            rows = [trial[name] for trial in trials]  # trial order fixed by index
            exact = sum(1 for r in rows if r[0])
            ci_lo, ci_hi = wilson_interval(exact, config.trials)
            summaries.append(
                CellSummary(
                    n=cell.n,
                    m_rule=cell.m_rule,
                    kappa_or_c=cell.kappa_or_c,
                    p=cell.p,
                    k=cell.k,
                    decoder=name,
                    trials=config.trials,
                    exact_rate=exact / config.trials,
                    exact_ci_lo=ci_lo,
                    exact_ci_hi=ci_hi,
                    mean_err_frac=float(np.mean([r[1] for r in rows])),
                    failure_rate=sum(1 for r in rows if r[2]) / config.trials,
                    mean_ms=float(np.mean([r[3] for r in rows])) if measure_time else 0.0,
                )
            )
    return summaries


def _format_number(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))  # shortest round-trip decimal


def emit_csv(summaries: list[CellSummary], path) -> None:
    """One header line of CellSummary field names, then one row per summary."""
    columns = fields(CellSummary)
    # annotations are strings here (from __future__ import annotations)
    formats = [_format_number if f.type == "float" else str for f in columns]
    lines = [",".join(f.name for f in columns)]
    for s in summaries:
        lines.append(",".join(fmt(getattr(s, f.name)) for fmt, f in zip(formats, columns)))
    from pathlib import Path

    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def preset(name: str, trials: int | None = None, base_seed: int = 0) -> ExperimentConfig:
    """Canned sweeps: 'fig3' (m-scale comparison at p=0.1), 'fig4'
    (noise sweep at m = 2 n ln n), 'table1' (coverage/noise grid at n=100)."""
    if name == "fig3":
        cells = tuple(
            Cell(n=n, m_rule=rule, kappa_or_c=2.0, p=0.1)
            for n in (100, 350, 700)
            for rule in ("linear", "nlogn")
        )
        default_trials = 50
    elif name == "fig4":
        cells = tuple(
            Cell(n=100, m_rule="nlogn", kappa_or_c=2.0, p=p) for p in (0.0, 0.05, 0.1, 0.2)
        )
        default_trials = 50
    elif name == "table1":
        # the published benchmark's fragments span several SNPs, so this
        # analogue uses 5-SNP reads rather than the theoretical k=2
        cells = tuple(
            Cell(n=100, m_rule="coverage", kappa_or_c=c, p=p, k=5)
            for p in (0.0, 0.1, 0.2)
            for c in (3.0, 5.0, 8.0, 10.0)
        )
        default_trials = 100
    else:
        raise ValueError(f"unknown preset {name!r}; expected fig3, fig4, or table1")
    if trials is None:
        trials = default_trials
    return ExperimentConfig(cells, trials=trials, base_seed=base_seed)


_CELL_FIELDS = {
    "n": int,
    "m_rule": str,
    "kappa_or_c": float,
    "p": float,
    "k": int,
    "decoder": str,
}
_GLOBAL_FIELDS = {"trials": int, "base_seed": int}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key-value sweep format.

    Global `trials` and `base_seed` assignments come first; each `[cell]`
    line opens a block of `key = value` pairs (n, m_rule, kappa_or_c, p,
    and optionally k, decoder). All problems are reported together.
    """
    settings = {"trials": 100, "base_seed": 0}
    cells: list[dict] = []
    current: dict | None = None
    problems: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[cell]":
            current = {}
            cells.append(current)
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        scope, target, types = (
            ("global", settings, _GLOBAL_FIELDS) if current is None else ("cell", current, _CELL_FIELDS)
        )
        if key not in types:
            problems.append(f"line {lineno}: unknown {scope} key {key!r}")
            continue
        try:
            target[key] = types[key](value)
        except ValueError:
            problems.append(f"line {lineno}: bad value for {key!r}: {value!r}")
    parsed: list[Cell] = []
    for index, fields in enumerate(cells):
        missing = {"n", "m_rule", "kappa_or_c", "p"} - fields.keys()
        if missing:
            problems.append(f"cell {index}: missing keys {sorted(missing)}")
            continue
        parsed.append(Cell(**fields))
    if problems:
        raise ValueError("invalid experiment config:\n" + "\n".join(problems))
    return ExperimentConfig(tuple(parsed), **settings)
