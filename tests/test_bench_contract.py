"""The benchmark tracer against the library it patches.

perfbench/tracing.py swaps 18 module attributes of haplosim for recording
wrappers and reads the VoteMatrix arrays for its pair counts. These tests
run one fig3 sweep round, one CLI simulate/decode round and one
non-converging CLI decode under its hooks, so a refactor that drops a
patched attribute, or changes what the counts read, fails here and not
only in the benchmark.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from haplosim import cli, experiments, spectral
from haplosim.fragio import load_fragments

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def adjacency_inputs(monkeypatch):
    """Every read matrix build_adjacency is called with, in call order."""
    seen = []
    build = spectral.build_adjacency

    def recording(matrix):
        seen.append(matrix)
        return build(matrix)

    monkeypatch.setattr(spectral, "build_adjacency", recording)
    return seen


def check_pair_counts(tracer, matrices):
    assert matrices, "no spectral decode ran under the hooks"
    assert tracer.counts["spectral.tallied_pairs"] == sum(
        len(spectral.build_adjacency(m).pairs) for m in matrices
    )
    assert tracer.counts["spectral.linked_pairs"] == sum(
        spectral.decode(m).meta["linked_pairs"] for m in matrices
    )


def test_fig3_round_under_hooks(tracing, adjacency_inputs):
    config = experiments.ExperimentConfig(experiments.preset("fig3").cells, trials=1, base_seed=11)
    tracer = tracing.Tracer(expect_error_free=False)
    with tracing.hooks(tracer):
        experiments.run(config, threads=1, measure_time=False)
    assert tracer.take_problems() == []
    assert len(adjacency_inputs) == len(config.cells)  # one SP decode per cell
    check_pair_counts(tracer, list(adjacency_inputs))


def test_cli_round_under_hooks(tracing, adjacency_inputs, capsys, tmp_path):
    frag, truth = tmp_path / "reads.frag", tmp_path / "reads.truth"
    io_args = ["--in", str(frag), "--truth", str(truth)]
    tracer = tracing.Tracer(expect_error_free=False)
    with tracing.hooks(tracer):
        assert cli.main(
            ["simulate", "--n", "200", "--m", "2119", "--p", "0.1", "--seed", "11",
             "--out", str(frag), "--truth", str(truth)]
        ) == 0
        assert cli.main(["decode", "--algo", "ed", *io_args]) in (0, 1)
        assert cli.main(["decode", "--algo", "sp", "--memberships", *io_args]) in (0, 1)
    capsys.readouterr()
    assert tracer.take_problems() == []
    assert tracer.counts["fragio.bytes"] > 0
    assert adjacency_inputs == [load_fragments(frag)]
    check_pair_counts(tracer, list(adjacency_inputs))


def test_non_converging_cli_decode_under_hooks(tracing, capsys, tmp_path):
    # the CLI reads non-convergence off the decode result, while the tracer
    # counts it from the error top_two_eigenpairs raises inside the decode
    frag = tmp_path / "hard.frag"
    tracer = tracing.Tracer(expect_error_free=False)
    with tracing.hooks(tracer):
        assert cli.main(
            ["simulate", "--n", "25", "--m", "120", "--p", "0.2", "--seed", "8", "--out", str(frag)]
        ) == 0
        assert cli.main(["decode", "--algo", "sp", "--in", str(frag), "--max-iter", "1"]) == 4
    capsys.readouterr()
    assert tracer.counts["spectral.eigen_nonconverged"] == 1
    assert tracer.take_problems() == []
