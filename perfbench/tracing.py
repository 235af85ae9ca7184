"""Spans and counts around calls into haplosim's public functions.

`hooks(tracer)` swaps each traced function for a recording wrapper at the
place its caller looks it up (a module attribute), and puts the originals
back on exit. Nothing under src/ is modified. Spans are kept in memory and
written out by `Tracer.write` when the run ends.

The tracer is single-threaded: the traced run drives one trial at a time.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from collections import Counter

import numpy as np
import scipy.sparse as sp

from haplosim import channel, cli, erasure, experiments, fragio, spectral

# span name -> per-layer metric holding that span's self time
LAYER_MS = {
    "channel.transmit": "channel.transmit_ms",
    "model.truth": "model.truth_ms",
    "model.hamming": "model.hamming_ms",
    "erasure.decode": "erasure.decode_ms",
    "spectral.adjacency": "spectral.adjacency_ms",
    "spectral.to_sparse": "spectral.to_sparse_ms",
    "spectral.eigen": "spectral.eigen_ms",
    "spectral.partition": "spectral.partition_ms",
    "spectral.decode": "spectral.decode_self_ms",
    "spectral.memberships": "spectral.memberships_ms",
    "experiments.run": "experiments.trial_self_ms",
    "fragio.save": "fragio.save_ms",
    "fragio.load": "fragio.load_ms",
    "fragio.truth_io": "fragio.truth_io_ms",
    "cli.main": "cli.self_ms",
}

COUNTS = (
    "channel.entries",
    "erasure.failures",
    "erasure.mismatches",
    "spectral.eigen_matvecs",
    "spectral.eigen_nonconverged",
    "spectral.tallied_pairs",
    "spectral.linked_pairs",
    "fragio.bytes",
    "cli.exit_fail",
)

TRIAL = "trial"  # root span of every trial


class CountingCSR(sp.csr_matrix):
    """CSR matrix that counts operator column applications (matvec columns)."""

    columns = 0

    def _matmul_vector(self, other):
        self.columns += 1
        return super()._matmul_vector(other)

    def _matmul_multivector(self, other):
        self.columns += other.shape[-1]
        return super()._matmul_multivector(other)


class Tracer:
    """In-memory spans (trial, id, parent, name, start, end) plus counters."""

    def __init__(self, expect_error_free: bool) -> None:
        self.expect_error_free = expect_error_free  # ED successes must have no mismatches
        self.spans: list[list] = []
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        self.residual_max = 0.0
        self.problems: list[str] = []
        self._open: list[int] = []
        self._trial = -1
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        if name == TRIAL:
            self._trial += 1
        record = [
            self._trial,
            len(self.spans),
            self._open[-1] if self._open else None,
            name,
            time.perf_counter(),
            None,
        ]
        self.spans.append(record)
        self._open.append(record[1])
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def take_problems(self) -> list[str]:
        taken, self.problems = self.problems, []
        return taken

    # -- checks and counts run after the span closes, outside its time --

    def _after_transmit(self, result, h, c, cfg):
        self.counts["channel.entries"] += cfg.m * cfg.k

    def _after_erasure(self, result, *args, **kwargs):
        if not result.ok:
            self.counts["erasure.failures"] += 1
            return
        mismatches = result.meta["mismatches"]
        self.counts["erasure.mismatches"] += mismatches
        if self.expect_error_free and mismatches != 0:
            self.problems.append(f"ED success on error-free input has {mismatches} mismatches")

    def _after_adjacency(self, votes, *args, **kwargs):
        self.counts["spectral.tallied_pairs"] += len(votes.tallies)
        self.counts["spectral.linked_pairs"] += len(votes.edges)

    def _after_bytes(self, path_index):
        def count(result, *args, **kwargs):
            self.counts["fragio.bytes"] += os.path.getsize(args[path_index])

        return count

    def _eigen(self, solve):
        def traced(matrix, config=None):
            with self.span("spectral.eigen"):
                if isinstance(matrix, spectral.VoteMatrix):
                    with self.span("spectral.to_sparse"):
                        matrix = matrix.to_sparse()
                counted = CountingCSR(matrix)
                try:
                    pairs = solve(counted, config)
                except spectral.NonConvergedError:
                    self.counts["spectral.eigen_nonconverged"] += 1
                    raise
                finally:
                    self.counts["spectral.eigen_matvecs"] += counted.columns
            tol = (config or spectral.SpectralConfig()).tolerance
            self._check_eigenpairs(sp.csr_matrix(matrix), pairs, tol)
            return pairs

        return traced

    def _check_eigenpairs(self, a, pairs, tol):
        """The documented contract, recomputed: residual, unit norm, orthogonality."""
        for lam, vec in pairs:
            residual = float(np.linalg.norm(a @ vec - lam * vec))
            self.residual_max = max(self.residual_max, residual)
            if residual > tol * max(1.0, abs(lam)):
                self.problems.append(f"eigen residual {residual:.3e} above contract at lambda={lam}")
            if abs(float(np.linalg.norm(vec)) - 1.0) > tol:
                self.problems.append("eigenvector is not unit norm")
        (_, v1), (_, v2) = pairs
        if abs(float(v1 @ v2)) > tol:
            self.problems.append(f"eigenvectors not orthogonal: |v1.v2|={abs(float(v1 @ v2)):.3e}")

    # -- output --

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for trial, ident, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "trial": trial,
                            "id": ident,
                            "parent": parent,
                            "name": name,
                            "start": start - self._origin,
                            "end": end - self._origin,
                        }
                    )
                    + "\n"
                )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-trial median self time and share of trial time per layer, plus counts."""
        children = [0.0] * len(self.spans)
        for trial, ident, parent, name, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        trials: dict[int, Counter] = {}
        trial_s = 0.0
        for trial, ident, parent, name, start, end in self.spans:
            per_trial = trials.setdefault(trial, Counter())
            if name == TRIAL:
                trial_s += end - start
            elif name in LAYER_MS:
                per_trial[name] += end - start - children[ident]
        out: dict[str, tuple[float, str]] = {}
        for name, metric in LAYER_MS.items():
            values = [t[name] for t in trials.values()]
            out[metric] = (statistics.median(values) * 1e3 if values else 0.0, "ms")
            share = sum(values) / trial_s if trial_s else 0.0
            out[metric[: -len("_ms")] + "_share"] = (share, "ratio")
        for name in COUNTS:
            out[name] = (self.counts[name], "B" if name == "fragio.bytes" else "count")
        entries = self.counts["channel.entries"]
        transmit_s = sum(t["channel.transmit"] for t in trials.values())
        out["channel.ns_per_entry"] = (transmit_s * 1e9 / entries if entries else 0.0, "ns")
        out["spectral.eigen_residual_max"] = (self.residual_max, "1")
        return out


@contextlib.contextmanager
def hooks(tracer: Tracer):
    """Route haplosim's public calls through the tracer for the duration."""
    t = tracer
    patches = [
        (experiments, "transmit", t.wrap("channel.transmit", experiments.transmit, t._after_transmit)),
        (channel, "transmit", t.wrap("channel.transmit", channel.transmit, t._after_transmit)),
        (experiments, "Haplotype", t.wrap("model.truth", experiments.Haplotype)),
        (experiments, "MembershipVector", t.wrap("model.truth", experiments.MembershipVector)),
        (cli, "Haplotype", t.wrap("model.truth", cli.Haplotype)),
        (cli, "MembershipVector", t.wrap("model.truth", cli.MembershipVector)),
        (experiments, "hamming_up_to_flip", t.wrap("model.hamming", experiments.hamming_up_to_flip)),
        (cli, "hamming_up_to_flip", t.wrap("model.hamming", cli.hamming_up_to_flip)),
        (erasure, "decode", t.wrap("erasure.decode", erasure.decode, t._after_erasure)),
        (spectral, "decode", t.wrap("spectral.decode", spectral.decode)),
        (spectral, "build_adjacency", t.wrap("spectral.adjacency", spectral.build_adjacency, t._after_adjacency)),
        (spectral, "top_two_eigenpairs", t._eigen(spectral.top_two_eigenpairs)),
        (spectral, "partition", t.wrap("spectral.partition", spectral.partition)),
        (spectral, "infer_memberships", t.wrap("spectral.memberships", spectral.infer_memberships)),
        (fragio, "save_fragments", t.wrap("fragio.save", fragio.save_fragments, t._after_bytes(1))),
        (fragio, "load_fragments", t.wrap("fragio.load", fragio.load_fragments, t._after_bytes(0))),
        (fragio, "save_truth", t.wrap("fragio.truth_io", fragio.save_truth, t._after_bytes(2))),
        (fragio, "load_truth", t.wrap("fragio.truth_io", fragio.load_truth, t._after_bytes(0))),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
