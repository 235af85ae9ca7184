"""Command-line front-end.

Subcommands: simulate (channel draws to a fragment file), decode (either
decoder on a fragment file), analyze (closed-form quantities), experiment
(Monte Carlo sweeps to CSV).

Standard out carries machine-parseable `key=value` lines only; prose goes
to standard error. Exit codes: 0 success (exact when --truth is given),
1 decoded but not exact, 2 bad input (usage, parse or value error, a file
that cannot be read or written, or out of memory), 3 decoding failure,
4 eigen non-convergence, 5 a sweep worker process was lost (a rerun may
succeed).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import channel, erasure, experiments, fragio, planted, spectral
from .model import Haplotype, MembershipVector, hamming_up_to_flip
from .spectral import NonConvergedError, SpectralConfig

EXIT_OK = 0
EXIT_INEXACT = 1
EXIT_USAGE = 2
EXIT_DECODE_FAILURE = 3
EXIT_NON_CONVERGED = 4
EXIT_WORKER_LOST = 5

# the error a command raises decides its exit code and one stderr line,
# `<command>: <message>`; the first row whose classes match wins
_EXIT_CODES = (
    (NonConvergedError, EXIT_NON_CONVERGED, "FAILURE NonConverged: {}"),
    (experiments.WorkerLostError, EXIT_WORKER_LOST, "{}"),
    (MemoryError, EXIT_USAGE, "out of memory; the input is too large for this machine"),
    ((OSError, ValueError, OverflowError), EXIT_USAGE, "{}"),  # ValueError: FragmentFormatError too
)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(key: str, value) -> None:
    print(f"{key}={value}")


def _load(read, path):
    """read(path), naming the file in any error that reading or parsing it raises."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load {path}: {exc}") from exc


def _cmd_simulate(args, parser) -> int:
    if (args.m is None) == (args.coverage is None):
        parser.error("exactly one of --m or --coverage is required")
    if args.truth and os.path.realpath(args.truth) == os.path.realpath(args.out):
        raise ValueError(f"--out and --truth name the same file {args.out}")
    m = args.m
    if m is None:
        if not math.isfinite(args.coverage):
            raise ValueError(f"--coverage must be finite, got {args.coverage}")
        # ChannelConfig rejects a k below 2; k=0 must not divide first
        m = max(1, math.ceil(args.coverage * args.n / args.k)) if args.k > 0 else 1
    cfg = channel.ChannelConfig(n=args.n, m=m, k=args.k, p=args.p, seed=args.seed)
    root = np.random.SeedSequence(entropy=args.seed, spawn_key=(0,))
    truth_ss, channel_ss = root.spawn(2)
    rng = np.random.Generator(np.random.Philox(truth_ss))
    h = Haplotype(rng.integers(0, 2, size=cfg.n) * 2 - 1)
    c = MembershipVector(rng.integers(0, 2, size=cfg.m) * 2 - 1)
    cfg = channel.ChannelConfig(
        n=cfg.n, m=cfg.m, k=cfg.k, p=cfg.p,
        seed=int(channel_ss.generate_state(1, dtype=np.uint64)[0]),
    )
    observed, flipped = channel.transmit(h, c, cfg)
    fragio.save_fragments(observed, args.out)
    if args.truth:
        try:
            fragio.save_truth(h, c, args.truth)
        except Exception:
            os.remove(args.out)  # an error exit leaves no files
            raise
    _emit("n", cfg.n)
    _emit("m", cfg.m)
    _emit("k", cfg.k)
    _emit("p", cfg.p)
    _emit("flips", np.count_nonzero(flipped))
    _emit("out", args.out)
    if args.truth:
        _emit("truth", args.truth)
    return EXIT_OK


def _cmd_decode(args, parser) -> int:
    observed = _load(fragio.load_fragments, args.input)
    true_h = None
    if args.truth:
        true_h, _true_c = _load(fragio.load_truth, args.truth)
        if len(true_h) != observed.num_cols:
            raise ValueError(f"truth file {args.truth} has {len(true_h)} sites, not {observed.num_cols}")

    if args.algo == "ed":
        result = erasure.decode(observed, strict=args.strict)
    else:
        cfg = SpectralConfig(tolerance=args.tol, max_iterations=args.max_iter, seed=args.seed)
        result = spectral.decode(observed, cfg)
    reason = None if result.ok else result.describe()
    if args.algo == "sp" and result.meta["linked_pairs"] == 0:
        reason = "NoLinkedPairs"  # no read links two sites, so the split is arbitrary
    if reason is not None:
        _say(f"FAILURE {reason}")
        _emit("status", "failure")
        _emit("reason", reason)
        return EXIT_DECODE_FAILURE
    estimate, membership = result.haplotype, result.membership
    if args.algo == "sp" and args.memberships:
        membership = spectral.infer_memberships(observed, estimate)

    _emit("status", "success")
    _emit("h", fragio.format_signs(estimate.to_array()))
    if membership is not None:
        _emit("c", fragio.format_signs(membership.to_array()))
    if true_h is not None:
        errors, flip = hamming_up_to_flip(true_h, estimate)
        _emit("errors", errors)
        _emit("flip", f"{flip:+d}")
        return EXIT_OK if errors == 0 else EXIT_INEXACT
    return EXIT_OK


def _require(parser, args, names: list[str]) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        parser.error(f"--what {args.what} requires {' '.join(missing)}")


def _cmd_analyze(args, parser) -> int:
    if args.what == "e1":
        _require(parser, args, ["n", "m"])
        _emit("e1", repr(channel.prob_uncovered_column(args.n, args.m)))
    elif args.what == "e2":
        _require(parser, args, ["n", "m", "u", "v"])
        _emit("e2", repr(channel.prob_disconnected_split(args.n, args.m, args.u, args.v)))
    elif args.what == "fano":
        _require(parser, args, ["n", "pe"])
        value = planted.fano_min_reads(args.n, args.pe, args.p)
        _emit("fano_min_reads", repr(value))
        if value == math.inf:
            _say("unbounded: p=0.5 observations carry no information")
    elif args.what == "lemma1":
        _require(parser, args, ["n", "p", "k1", "k2", "k3"])
        # an infinite --k1 makes m infinite: round raises OverflowError
        m = args.m if args.m is not None else round(args.k1 * args.n * math.log(args.n))
        alpha_lo, beta_hi = planted.alpha_beta_bounds(args.n, m, args.p, args.k1, args.k2, args.k3)
        alpha = planted.alpha_exact(args.n, m, args.p)
        beta = planted.beta_exact(args.n, m, args.p)
        alpha_ok = alpha >= alpha_lo
        beta_ok = beta <= beta_hi
        _emit("m", m)
        _emit("alpha_exact", repr(alpha))
        _emit("alpha_lower", repr(alpha_lo))
        _emit("beta_exact", repr(beta))
        _emit("beta_upper", repr(beta_hi))
        _emit("alpha_check", "PASS" if alpha_ok else "FAIL")
        _emit("beta_check", "PASS" if beta_ok else "FAIL")
        _emit(
            "assumptions",
            "PASS" if planted.bound_assumptions_hold(args.n, args.k1, args.k2, args.k3) else "FAIL",
        )
        _say(("PASS" if alpha_ok else "FAIL") + " " + ("PASS" if beta_ok else "FAIL"))
    elif args.what == "spectrum":
        _require(parser, args, ["n1", "n2", "alpha", "beta"])
        spec = planted.spectrum(planted.PlantedParams(args.n1, args.n2, args.alpha, args.beta))
        _emit("lambda1", repr(spec.lambda1))
        _emit("lambda2", repr(spec.lambda2))
        _emit("mu1", repr(spec.mu1))
        _emit("mu2", repr(spec.mu2))
        _emit("v1_block1", repr(float(spec.v1[0])))
        _emit("v1_block2", repr(float(spec.v1[-1])))
        _emit("v2_block1", repr(float(spec.v2[0])))
        _emit("v2_block2", repr(float(spec.v2[-1])))
    return EXIT_OK


def _cmd_experiment(args, parser) -> int:
    if (args.config is None) == (args.preset is None):
        parser.error("exactly one of --config or --preset is required")
    if args.preset is not None:
        config = experiments.preset(args.preset, trials=args.trials, base_seed=args.seed or 0)
    else:
        text = _load(lambda path: Path(path).read_text(encoding="ascii"), args.config)
        config = experiments.parse_config_text(text)
        trials = args.trials if args.trials is not None else config.trials
        seed = args.seed if args.seed is not None else config.base_seed
        config = experiments.ExperimentConfig(config.cells, trials, seed)
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")

    # the CSV is written after the sweep, which can run for minutes
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise ValueError(f"cannot write CSV to {args.out}: no directory {out_dir}")
    if os.path.isdir(args.out):
        raise ValueError(f"cannot write CSV to {args.out}: it is a directory")
    summaries = experiments.run(config, threads=args.threads, measure_time=not args.no_timing)
    experiments.emit_csv(summaries, args.out)
    for s in summaries:
        _say(
            f"cell n={s.n} {s.m_rule}={s.kappa_or_c:g} p={s.p:g} {s.decoder}: "
            f"exact={s.exact_rate:.3f} err={s.mean_err_frac:.4f} fail={s.failure_rate:.3f}"
        )
    _emit("cells", len(summaries))
    _emit("out", args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so calls in several threads can share it."""
    parser = argparse.ArgumentParser(prog="haplosim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a random instance and write a fragment file")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--m", type=int)
    sim.add_argument("--coverage", type=float, help="expected observations per column; m = ceil(c*n/k)")
    sim.add_argument("--p", type=float, default=0.0)
    sim.add_argument("--k", type=int, default=2)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--truth", help="also write ground-truth h and c here")

    dec = sub.add_parser("decode", help="decode a fragment file")
    dec.add_argument("--algo", choices=("ed", "sp"), required=True)
    dec.add_argument("--in", dest="input", required=True)
    dec.add_argument("--truth")
    dec.add_argument("--strict", action="store_true", help="ed: abort on conflicting entries")
    dec.add_argument("--memberships", action="store_true", help="sp: also infer read memberships")
    dec.add_argument("--tol", type=float, default=1e-8)
    dec.add_argument("--max-iter", type=int, default=None)
    dec.add_argument("--seed", type=int, default=0)

    ana = sub.add_parser("analyze", help="closed-form probabilities, bounds, and spectra")
    ana.add_argument("--what", choices=("e1", "e2", "fano", "lemma1", "spectrum"), required=True)
    ana.add_argument("--n", type=int)
    ana.add_argument("--m", type=int)
    ana.add_argument("--u", type=int)
    ana.add_argument("--v", type=int)
    ana.add_argument("--pe", type=float)
    ana.add_argument("--p", type=float)
    ana.add_argument("--k1", type=float)
    ana.add_argument("--k2", type=float)
    ana.add_argument("--k3", type=float)
    ana.add_argument("--n1", type=int)
    ana.add_argument("--n2", type=int)
    ana.add_argument("--alpha", type=float)
    ana.add_argument("--beta", type=float)

    exp = sub.add_parser("experiment", help="run a sweep and write a CSV")
    exp.add_argument("--config", help="sweep description file")
    exp.add_argument("--preset", choices=("fig3", "fig4", "table1"))
    exp.add_argument("--out", required=True)
    exp.add_argument("--trials", type=int, default=None)
    exp.add_argument("--seed", type=int, default=None, help="override the base seed")
    exp.add_argument(
        "--threads", type=int, default=1,
        help="worker processes, capped at the CPU count; results do not depend on it (default 1)",
    )
    exp.add_argument(
        "--no-timing", action="store_true",
        help="write 0.0 in the timing column for byte-reproducible output",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    # scipy's BLAS calls here work on n x 20 Lanczos blocks, where a second
    # OpenBLAS thread mostly spin-waits, and decodes running at once in one
    # process would queue on one shared pool. OpenBLAS reads the variable
    # once, when scipy's linear algebra first loads; in a CLI process that
    # happens after this line
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {
        "simulate": _cmd_simulate, "decode": _cmd_decode,
        "analyze": _cmd_analyze, "experiment": _cmd_experiment,
    }[args.command]
    try:
        return command(args, parser)
    except Exception as exc:
        for kinds, code, message in _EXIT_CODES:
            if isinstance(exc, kinds):
                _say(f"{args.command}: {message.format(exc)}")
                if code == EXIT_NON_CONVERGED:
                    _emit("status", "failure")
                    _emit("reason", "NonConverged")
                return code
        raise  # not an input error: a bug, shown with its traceback


if __name__ == "__main__":
    sys.exit(main())
