"""haplosim benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload {fig3,ed-large,cli} --seed N --seconds S --trace {0,1}

Every workload is a closed loop with one client: the next trial starts when
the previous one has finished. A trial is one drawn instance with every
decoder the workload runs on it (for `cli`, one simulate + decode ed +
decode sp round trip). All inputs derive from --seed.

--trace 0 measures the end-to-end metrics with tracing off: about 70% of
--seconds runs rounds of trials on one thread (a fig3 round is one trial
of each of its six cells; other rounds are one trial), the rest runs
batches of two trials per cell on two threads through
`experiments.run(threads=2)` (two client threads for `cli`). Throughput is
the median round's (or batch's) rate, so one near-degenerate instance does
not swing it; `trial_ms_tail` reports those.
--trace 1 runs each round of a fixed plan untraced and then traced, on the
same inputs, and reports per-layer self times and counts from the spans
(see tracing.py); the counts repeat exactly at a fixed seed and --seconds.
Spans go to .perfbench_out/trace-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. `attempted` counts decodes; `failed`
counts decodes that raised, exited with a usage error, or failed a
correctness check. Decoder verdicts (ED uncovered/disconnected,
non-convergence) are outcomes, reported in `failure_rate` and
`success_rate`, not in `failed`. Lines before it give every metric by
name with its unit, the environment, and the CSV digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("fig3", "ed-large", "cli")
SINGLE_THREAD_SHARE = 0.7
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # trials that must lie beyond the reported tail percentile

# cli trial: one instance at n = 2000, m = ceil(2 n ln n), p = 0.1
CLI_N, CLI_M, CLI_P = 2000, 30404, 0.1


def seed_key(seed: int, *parts: int) -> int:
    """Distinct non-negative base seed for each (run seed, phase, index...)."""
    key = seed
    for part in parts:
        key = key * 1_000_003 + part
    return key


class Tally:
    """Decode outcomes: counts of exact, decoder-failed and broken decodes."""

    def __init__(self) -> None:
        self.decodes = 0
        self.exact = 0
        self.decoder_failed = 0
        self.broken = 0
        self.err_sum = 0.0

    def add(self, exact: bool, err_frac: float, decoder_failed: bool) -> None:
        self.decodes += 1
        self.exact += exact
        self.decoder_failed += decoder_failed
        self.err_sum += err_frac

    def add_broken(self, decodes: int) -> None:
        """Decodes that raised or failed a check count as failed at chance level."""
        self.decodes += decodes
        self.broken += decodes
        self.err_sum += 0.5 * decodes

    def merge(self, other: "Tally") -> None:
        for name in ("decodes", "exact", "decoder_failed", "broken", "err_sum"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def outcomes(self) -> tuple:
        """What the program decided; equal for equal inputs, traced or not."""
        return (self.decodes, self.exact, self.decoder_failed, round(self.err_sum, 9))


def tally_summaries(summaries, error_free: bool) -> Tally:
    """Outcomes from experiments.run summaries, with sanity checks."""
    tally = Tally()
    for s in summaries:
        exact = round(s.exact_rate * s.trials)
        failed = round(s.failure_rate * s.trials)
        ok = 0.0 <= s.mean_err_frac <= 0.5 and exact + failed <= s.trials
        if error_free and s.decoder == "ed":
            ok = ok and exact == s.trials - failed  # every ED success is exact at p = 0
        if not ok:
            print(f"check failed: {s}", file=sys.stderr)
            tally.add_broken(s.trials)
            continue
        tally.decodes += s.trials
        tally.exact += exact
        tally.decoder_failed += failed
        tally.err_sum += s.mean_err_frac * s.trials
    return tally


class SweepWorkload:
    """fig3 and ed-large: experiments.run over one trial per call."""

    def __init__(self, name: str, seed: int) -> None:
        from haplosim import experiments

        self.experiments = experiments
        self.name = name
        self.seed = seed
        if name == "fig3":
            self.cells = experiments.preset("fig3").cells
            self.round_s = 1.2  # rough seconds per round, sizes the traced plan
        else:
            self.cells = (
                experiments.Cell(n=10000, m_rule="nlogn", kappa_or_c=2.0, p=0.0, decoder="ed"),
            )
            self.round_s = 2.4
        self.error_free = all(cell.p == 0.0 for cell in self.cells)
        self.decodes_per_round = sum(len(cell.decoders()) for cell in self.cells)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def round(self, r: int, tracer=None) -> list[tuple[float, Tally]]:
        """One trial per cell, each its own experiments.run call."""
        trials = []
        for i, cell in enumerate(self.cells):
            config = self.experiments.ExperimentConfig(
                (cell,), trials=1, base_seed=seed_key(self.seed, 0, r, i)
            )
            with span(tracer, "trial"):
                start = time.perf_counter()
                with span(tracer, "experiments.run"):
                    summaries = self.experiments.run(config, threads=1, measure_time=False)
                ms = (time.perf_counter() - start) * 1e3
            trials.append((ms, tally_summaries(summaries, self.error_free)))
        return trials

    def batch2(self, b: int) -> tuple[int, Tally]:
        """Two trials per cell on two threads, as a sweep runs them."""
        config = self.experiments.ExperimentConfig(
            self.cells, trials=2, base_seed=seed_key(self.seed, 1, b)
        )
        summaries = self.experiments.run(config, threads=2, measure_time=False)
        return 2 * len(self.cells), tally_summaries(summaries, self.error_free)

    def stats_csv(self, workdir: Path) -> bytes:
        """The --no-timing CSV of the fixed reference sweep (base_seed 0, one trial per cell)."""
        config = self.experiments.ExperimentConfig(self.cells, trials=1, base_seed=0)
        path = workdir / f"stats-{self.name}.csv"
        self.experiments.emit_csv(self.experiments.run(config, measure_time=False), path)
        return path.read_bytes()


class _PerThreadStream(io.TextIOBase):
    """Stand-in for sys.stdout/sys.stderr: each thread writes to its own buffer."""

    def __init__(self, fallback) -> None:
        self.fallback = fallback
        self.local = threading.local()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        buf = getattr(self.local, "buf", None)
        return (buf if buf is not None else self.fallback).write(text)


def parse_stdout(text: str) -> dict[str, str] | None:
    """The CLI's key=value stdout, or None if any line is not key=value."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep or not key or key in fields:
            return None
        fields[key] = value
    return fields


class CliWorkload:
    """In-process haplosim.cli.main: simulate, decode --algo ed, decode --algo sp."""

    round_s = 1.2
    decodes_per_round = 2
    error_free = False

    def __init__(self, seed: int) -> None:
        from haplosim import cli

        self.cli = cli
        self.seed = seed

    def __enter__(self):
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        self.saved = sys.stdout, sys.stderr
        self.out, self.err = _PerThreadStream(sys.stdout), _PerThreadStream(sys.stderr)
        sys.stdout, sys.stderr = self.out, self.err
        return self

    def __exit__(self, *exc):
        sys.stdout, sys.stderr = self.saved
        shutil.rmtree(self.tmp, ignore_errors=True)
        return False

    def call(self, argv: list[str], tracer) -> tuple[int, str]:
        out = io.StringIO()
        self.out.local.buf, self.err.local.buf = out, io.StringIO()
        try:
            with span(tracer, "cli.main"):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            self.out.local.buf = self.err.local.buf = None
        if tracer is not None and code in (2, 3, 4):
            tracer.counts["cli.exit_fail"] += 1
        return code, out.getvalue()

    def trial(self, key: int, tracer=None) -> tuple[float, Tally]:
        frags, truth = self.tmp / f"frags-{key}.txt", self.tmp / f"truth-{key}.txt"
        io_args = ["--in", str(frags), "--truth", str(truth)]
        with span(tracer, "trial"):
            start = time.perf_counter()
            sim = self.call(
                ["simulate", "--n", str(CLI_N), "--m", str(CLI_M), "--p", str(CLI_P),
                 "--seed", str(key), "--out", str(frags), "--truth", str(truth)],
                tracer,
            )
            decodes = []
            if sim[0] == 0:
                decodes.append(self.call(["decode", "--algo", "ed", *io_args], tracer))
                decodes.append(self.call(["decode", "--algo", "sp", "--memberships", *io_args], tracer))
            ms = (time.perf_counter() - start) * 1e3
        tally = Tally()
        if sim[0] != 0:
            print(f"check failed: simulate exited {sim[0]}", file=sys.stderr)
            tally.add_broken(2)
        else:
            true_h = [int(tok) for tok in truth.read_text(encoding="ascii").splitlines()[0].split()]
            for code, stdout in decodes:
                self._check_decode(code, stdout, true_h, tally)
        for path in (frags, truth):
            path.unlink(missing_ok=True)
        return ms, tally

    @staticmethod
    def _check_decode(code: int, stdout: str, true_h: list[int], tally: Tally) -> None:
        """Stdout must parse; its `errors` must equal the Hamming distance up to flip."""
        fields = parse_stdout(stdout)
        if fields is None:
            problem = "stdout is not key=value"
        elif code in (3, 4):
            if fields.get("status") == "failure":
                tally.add(False, 0.5, True)
                return
            problem = f"exit {code} without status=failure"
        elif code in (0, 1):
            try:
                h = [int(tok) for tok in fields["h"].split()]
                errors = int(fields["errors"])
            except (KeyError, ValueError):
                h, errors = [], -1
            if len(h) != len(true_h):
                problem = "missing or malformed h/errors"
            else:
                differ = sum(a != b for a, b in zip(h, true_h))
                expected = min(differ, len(h) - differ)
                if errors != expected or code != (0 if errors == 0 else 1):
                    problem = f"errors={errors}, exit {code}; recomputed {expected}"
                elif len(fields.get("c", "").split()) != CLI_M:
                    problem = "memberships missing"
                else:
                    tally.add(errors == 0, errors / len(h), False)
                    return
        else:
            problem = f"exit {code}"
        print(f"check failed: decode {problem}", file=sys.stderr)
        tally.add_broken(1)

    def round(self, r: int, tracer=None) -> list[tuple[float, Tally]]:
        return [self.trial(seed_key(self.seed, 0, r), tracer)]

    def batch2(self, b: int) -> tuple[int, Tally]:
        keys = [seed_key(self.seed, 1, b, t) for t in range(2)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(self.trial, keys))
        tally = Tally()
        for _ms, t in results:
            tally.merge(t)
        return len(keys), tally

    def stats_csv(self, workdir: Path) -> None:
        return None


def span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def make_workload(name: str, seed: int):
    return CliWorkload(seed) if name == "cli" else SweepWorkload(name, seed)


def run_rounds(workload, rounds, tracer=None, stop_after: float | None = None):
    """Run rounds until the plan or the time is used up.

    Returns ([(trials, seconds)] per round, every trial's ms, tally).
    """
    done: list[tuple[int, float]] = []
    trial_ms: list[float] = []
    tally = Tally()
    start = time.perf_counter()
    for r in rounds:
        round_start = time.perf_counter()
        trials = 0
        try:
            for ms, t in workload.round(r, tracer):
                trial_ms.append(ms)
                tally.merge(t)
                trials += 1
        except Exception:
            traceback.print_exc()
            tally.add_broken(workload.decodes_per_round)
        done.append((trials, time.perf_counter() - round_start))
        if tracer is not None:
            for problem in tracer.take_problems():
                print(f"check failed: {problem}", file=sys.stderr)
                tally.broken += 1
        if stop_after is not None and time.perf_counter() - start >= stop_after:
            break
    return done, trial_ms, tally


def run_batches(workload, seconds: float):
    """Two-thread batches until `seconds` have passed: ([(trials, seconds)] per batch, tally)."""
    done: list[tuple[int, float]] = []
    tally = Tally()
    start = time.perf_counter()
    for b in itertools.count():
        batch_start = time.perf_counter()
        trials = 0
        try:
            trials, t = workload.batch2(b)
            tally.merge(t)
        except Exception:
            traceback.print_exc()
            tally.add_broken(2 * workload.decodes_per_round)
        done.append((trials, time.perf_counter() - batch_start))
        if time.perf_counter() - start >= seconds:
            return done, tally


def median_rate(done: list[tuple[int, float]]) -> float:
    """Trials per second of the median round or batch."""
    return statistics.median(trials / seconds for trials, seconds in done)


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, samples).

    A run with too few trials to place that percentile above the median
    reports the median (percentile 50) rather than a one-sample maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND
    if index + 1 <= n / 2:
        return statistics.median(ordered), 50.0, n
    return ordered[index], 100.0 * (index + 1) / n, n


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import haplosim and build the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )  # no timeout: Popen.wait with one polls, which rounds the time to 50 ms
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "threads": "1,2" if args.trace == 0 else "1",
        "seconds": args.seconds,
        "trace": args.trace,
    }


def quality(tally: Tally) -> dict[str, tuple[float, str]]:
    decodes = max(1, tally.decodes)
    failure = (tally.decoder_failed + tally.broken) / decodes
    err = tally.err_sum / decodes
    return {
        "exact_rate": (tally.exact / decodes, "ratio"),
        "err_frac_mean": (err, "ratio"),
        "failure_rate": (failure, "ratio"),
        "snp_accuracy": (1.0 - err, "ratio"),
        "success_rate": (1.0 - failure, "ratio"),
    }


def end_to_end(args, workload, info: dict) -> tuple[dict, Tally]:
    setup = setup_seconds(args.workload, args.seed)
    with workload:
        rounds, trial_ms, tally = run_rounds(
            workload, itertools.count(), stop_after=SINGLE_THREAD_SHARE * args.seconds
        )
        batches, two_tally = run_batches(workload, (1 - SINGLE_THREAD_SHARE) * args.seconds)
        OUT.mkdir(exist_ok=True)
        csv = workload.stats_csv(OUT)
    tally.merge(two_tally)
    tail_ms, tail_pct, samples = tail(trial_ms)
    info["trial_ms_tail_percentile"] = tail_pct
    info["trial_ms_samples"] = samples
    if csv is not None:
        digest = hashlib.sha256(csv).hexdigest()
        reference = json.loads(REFERENCE.read_text())["stats_sha256"].get(args.workload)
        info["stats_sha256"] = digest
        info["stats_match"] = digest == reference
    q = quality(tally)
    metrics = {
        "trials_per_s": (median_rate(rounds), "trials/s"),
        "trials_per_s_2t": (median_rate(batches), "trials/s"),
        "trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "trial_ms_tail": (tail_ms, "ms"),
        "snp_accuracy": q["snp_accuracy"],
        "success_rate": q["success_rate"],
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name in ("exact_rate", "err_frac_mean", "failure_rate"):
        value, unit = q[name]
        info[name] = f"{value!r} {unit}"  # printed, not gated: each is 0 on some workload
    return metrics, tally


def per_layer(args, workload, info: dict) -> tuple[dict, Tally]:
    """Each round of a fixed plan runs untraced and then traced, on the same inputs."""
    import tracing

    rounds = range(max(2, int(args.seconds / 2 / workload.round_s)))
    tracer = tracing.Tracer(expect_error_free=workload.error_free)
    tally = Tally()
    plain_s = traced_s = 0.0
    traced_trials = 0
    with workload:
        run_rounds(workload, [len(rounds)])  # warm-up: first-call costs land in neither pass
        for r in rounds:
            done, _ms, plain = run_rounds(workload, [r])
            plain_s += done[0][1]
            with tracing.hooks(tracer):
                done, trial_ms, traced = run_rounds(workload, [r], tracer)
            traced_s += done[0][1]
            traced_trials += len(trial_ms)
            if traced.outcomes() != plain.outcomes():
                print(f"check failed: traced round {r} outcomes differ from untraced", file=sys.stderr)
                traced.broken += 1
            tally.merge(plain)
            tally.merge(traced)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(trace_path)
    info["trace_file"] = str(trace_path.relative_to(ROOT))
    info["traced_trials"] = traced_trials
    metrics = tracer.layer_metrics()
    # equal trial counts, so the rate ratio is the time ratio
    metrics["bench.trace_overhead_pct"] = (100.0 * (1.0 - plain_s / traced_s), "%")
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "haplosim" / "__init__.py").is_file():
        print(f"haplosim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import haplosim  # noqa: F401  (import cost is part of set-up)

    workload = make_workload(args.workload, args.seed)
    if args.setup_only:
        with workload:
            return 0

    info = environment(args)
    info["workload"] = args.workload
    measure = per_layer if args.trace else end_to_end
    metrics, tally = measure(args, workload, info)
    for key, value in info.items():
        print(f"{key}={value}")
    for name, (value, unit) in metrics.items():
        print(f"{name}={value!r} {unit}")
    print(f"decodes={tally.decodes} failed={tally.broken}")
    result = {
        "correct": tally.broken == 0 and tally.decodes > 0,
        "attempted": tally.decodes,
        "failed": tally.broken,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
