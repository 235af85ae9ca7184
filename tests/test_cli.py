import contextlib
import io
import math
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tuple_reference as ref
from haplosim import channel, cli, erasure, experiments, spectral
from haplosim.cli import build_parser, main
from haplosim.fragio import MAGIC, load_fragments, save_fragments, save_truth


def run_cli(capsys, *argv):
    """Invoke the entry point in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as stop:  # argparse usage errors
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


class TestSimulate:
    def test_writes_valid_fragment_file(self, capsys, tmp_path):
        out = tmp_path / "r.frag"
        code, stdout, _ = run_cli(
            capsys, "simulate", "--n", "6", "--m", "8", "--p", "0",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        matrix = load_fragments(out)
        assert matrix.num_rows == 8 and matrix.num_cols == 6
        assert all(len(row) == 2 for row in ref.rows(matrix))
        assert parse_kv(stdout)["m"] == "8"

    def test_same_flags_same_bytes(self, capsys, tmp_path):
        first, second = tmp_path / "a.frag", tmp_path / "b.frag"
        for path in (first, second):
            code, _, _ = run_cli(
                capsys, "simulate", "--n", "20", "--m", "40", "--p", "0.2",
                "--seed", "99", "--out", str(path),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_truth_file_scores_exactly(self, capsys, tmp_path):
        out, truth = tmp_path / "r.frag", tmp_path / "t.txt"
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "40", "--m", "400", "--p", "0",
            "--seed", "3", "--out", str(out), "--truth", str(truth),
        )
        assert code == 0
        code, stdout, _ = run_cli(
            capsys, "decode", "--algo", "ed", "--in", str(out), "--truth", str(truth)
        )
        assert code == 0
        assert parse_kv(stdout)["errors"] == "0"

    def test_k_larger_than_n_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--n", "6", "--m", "8", "--k", "7",
            "--out", str(tmp_path / "x.frag"),
        )
        assert code == 2

    def test_m_and_coverage_exclusive(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "6", "--m", "8", "--coverage", "5",
            "--out", str(tmp_path / "x.frag"),
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--out", "--truth"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, flag):
        paths = {"--out": str(tmp_path / "r.frag"), "--truth": str(tmp_path / "t.txt")}
        paths[flag] = str(tmp_path / "missing" / "x")
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--n", "10", "--m", "20", "--p", "0.1", "--seed", "1",
            "--out", paths["--out"], "--truth", paths["--truth"],
        )
        assert code == 2
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and "missing" in stderr

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--m", "5", "--seed", "-1"], "seed must be >= 0"),
            (["--coverage", "inf"], "--coverage must be finite"),
            (["--coverage", "nan"], "--coverage must be finite"),
            (["--coverage", "2", "--k", "0"], "k must be in [2, n]"),
        ],
        ids=["negative-seed", "infinite-coverage", "nan-coverage", "zero-k-coverage"],
    )
    def test_bad_seed_or_read_count_is_usage_error(self, capsys, tmp_path, flags, message):
        out = tmp_path / "x.frag"
        code, stdout, stderr = run_cli(capsys, "simulate", "--n", "10", *flags, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and message in stderr
        assert not out.exists()

    def test_unwritable_truth_leaves_no_fragment_file(self, capsys, tmp_path):
        out = tmp_path / "keep.frag"
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--n", "10", "--m", "20", "--seed", "1",
            "--out", str(out), "--truth", str(tmp_path / "missing" / "t"),
        )
        assert code == 2
        assert stdout == ""
        assert len(stderr.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("truth", ["same.x", "sub/../same.x", "link.x"])
    def test_out_and_truth_naming_one_file_is_refused(self, capsys, tmp_path, monkeypatch, truth):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.x").symlink_to(tmp_path / "same.x")
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--n", "10", "--m", "20", "--seed", "1",
            "--out", "same.x", "--truth", truth,
        )
        assert code == 2
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and "same file" in stderr
        assert not (tmp_path / "same.x").exists()

    def test_coverage_sets_read_count(self, capsys, tmp_path):
        out = tmp_path / "c.frag"
        code, stdout, _ = run_cli(
            capsys, "simulate", "--n", "10", "--coverage", "6", "--out", str(out)
        )
        assert code == 0
        assert parse_kv(stdout)["m"] == "30"


class TestDecode:
    def test_worked_example_exact(self, capsys, tmp_path, example_8x6):
        h, c, observed = example_8x6
        frag, truth = tmp_path / "ex.frag", tmp_path / "ex.truth"
        save_fragments(observed, frag)
        save_truth(h, c, truth)
        code, stdout, _ = run_cli(
            capsys, "decode", "--algo", "ed", "--in", str(frag), "--truth", str(truth)
        )
        assert code == 0
        pairs = parse_kv(stdout)
        assert pairs["errors"] == "0"
        assert pairs["h"].split() == ["+1", "+1", "-1", "+1", "-1", "-1"] or pairs[
            "h"
        ].split() == ["-1", "-1", "+1", "-1", "+1", "+1"]

    def test_disconnected_instance_exits_3(self, capsys, tmp_path):
        frag = tmp_path / "split.frag"
        save_fragments(
            ref.read_matrix(4, (((0, 1), (1, 1)), ((2, 1), (3, -1)))), frag
        )
        code, stdout, stderr = run_cli(capsys, "decode", "--algo", "ed", "--in", str(frag))
        assert code == 3
        assert "FAILURE DisconnectedComponent" in stderr
        assert parse_kv(stdout)["reason"] == "DisconnectedComponent"

    @pytest.mark.parametrize(
        "text",
        ["#haplofrag v1\n0 3\n", "#haplofrag v1\n3 3\n0: 0:1\n1: 1:0\n2: 2:1\n"],
        ids=["no_reads", "one_entry_per_read"],
    )
    def test_spectral_without_linked_pairs_exits_3(self, capsys, tmp_path, text):
        frag = tmp_path / "unlinked.frag"
        frag.write_text(text)
        code, stdout, stderr = run_cli(capsys, "decode", "--algo", "sp", "--in", str(frag))
        assert code == 3
        assert "FAILURE NoLinkedPairs" in stderr
        assert parse_kv(stdout) == {"status": "failure", "reason": "NoLinkedPairs"}

    def test_spectral_emits_sign_line(self, capsys, tmp_path):
        frag = tmp_path / "noisy.frag"
        run_cli(
            capsys, "simulate", "--n", "30", "--m", "300", "--p", "0.1",
            "--seed", "5", "--out", str(frag),
        )
        code, stdout, _ = run_cli(capsys, "decode", "--algo", "sp", "--in", str(frag))
        assert code == 0
        values = parse_kv(stdout)["h"].split()
        assert len(values) == 30
        assert set(values) <= {"+1", "-1"}

    def test_spectral_membership_inference(self, capsys, tmp_path):
        frag = tmp_path / "mem.frag"
        run_cli(
            capsys, "simulate", "--n", "30", "--m", "300", "--p", "0.05",
            "--seed", "6", "--out", str(frag),
        )
        code, stdout, _ = run_cli(
            capsys, "decode", "--algo", "sp", "--in", str(frag), "--memberships"
        )
        assert code == 0
        assert len(parse_kv(stdout)["c"].split()) == 300

    def test_spectral_non_convergence_exits_4(self, capsys, tmp_path):
        frag = tmp_path / "hard.frag"
        run_cli(
            capsys, "simulate", "--n", "25", "--m", "120", "--p", "0.2",
            "--seed", "8", "--out", str(frag),
        )
        code, _, stderr = run_cli(
            capsys, "decode", "--algo", "sp", "--in", str(frag), "--max-iter", "1"
        )
        assert code == 4
        assert "NonConverged" in stderr

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.frag"
        bad.write_text("#haplofrag v9\n1 2\n0: 0:1\n")
        code, _, stderr = run_cli(capsys, "decode", "--algo", "ed", "--in", str(bad))
        assert code == 2
        assert "line 1" in stderr

    def test_inexact_decode_exits_1(self, capsys, tmp_path):
        frag, truth = tmp_path / "n.frag", tmp_path / "n.truth"
        run_cli(
            capsys, "simulate", "--n", "40", "--m", "100", "--p", "0.25",
            "--seed", "2", "--out", str(frag), "--truth", str(truth),
        )
        code, stdout, _ = run_cli(
            capsys, "decode", "--algo", "sp", "--in", str(frag), "--truth", str(truth)
        )
        pairs = parse_kv(stdout)
        assert (code == 0) == (pairs["errors"] == "0")
        if code != 0:
            assert code == 1


class TestDecodeRejectsInputs:
    """Inputs a decoder cannot take: one stderr line, exit 2, nothing on stdout."""

    @staticmethod
    def rejected(capsys, tmp_path, text, *flags):
        frag = tmp_path / "in.frag"
        frag.write_text(text)
        code, stdout, stderr = run_cli(capsys, "decode", "--in", str(frag), *flags)
        assert code == 2
        assert stdout == ""
        assert len(stderr.splitlines()) == 1
        return stderr

    def test_truth_of_wrong_length(self, capsys, tmp_path, example_8x6):
        h, c, _ = example_8x6
        truth = tmp_path / "short.truth"
        save_truth(h, c, truth)
        stderr = self.rejected(
            capsys, tmp_path, "#haplofrag v1\n1 4\n0: 0:1 3:0\n",
            "--algo", "ed", "--truth", str(truth),
        )
        assert "6 sites, not 4" in stderr

    def test_ed_on_an_empty_row(self, capsys, tmp_path):
        self.rejected(capsys, tmp_path, "#haplofrag v1\n2 2\n0: 0:1 1:1\n1:\n", "--algo", "ed")

    def test_ed_on_no_reads(self, capsys, tmp_path):
        self.rejected(capsys, tmp_path, "#haplofrag v1\n0 3\n", "--algo", "ed")

    def test_sp_on_one_site(self, capsys, tmp_path):
        self.rejected(capsys, tmp_path, "#haplofrag v1\n2 1\n0: 0:1\n1: 0:0\n", "--algo", "sp")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_sp_with_a_non_finite_tolerance(self, capsys, tmp_path, tol):
        stderr = self.rejected(
            capsys, tmp_path, "#haplofrag v1\n2 2\n0: 0:1 1:1\n1: 0:0 1:0\n", "--algo", "sp", f"--tol={tol}"
        )
        assert "tolerance must be positive and finite" in stderr

    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize(
        "text",
        ["#haplofrag v1\n2 2\n0: 0:1 1:1\n1: 0:0 1:0\n", "#haplofrag v1\n2 3\n0: 0:1 1:1\n1: 1:1 2:1\n"],
        ids=["dense", "arpack"],
    )
    def test_sp_with_a_non_positive_iteration_budget(self, capsys, tmp_path, text, budget):
        # two columns take the dense solve, which never reads the budget
        stderr = self.rejected(capsys, tmp_path, text, "--algo", "sp", f"--max-iter={budget}")
        assert f"max_iterations must be >= 1, got {budget}" in stderr

    @pytest.mark.parametrize("algo", ["ed", "sp"])
    def test_columns_beyond_int32(self, capsys, tmp_path, algo):
        # int32 column indices would wrap 4294967301 and 4294967302 to 5 and 6
        text = "#haplofrag v1\n1 8589934592\n0: 4294967301:1 4294967302:0\n"
        stderr = self.rejected(capsys, tmp_path, text, "--algo", algo)
        assert "num_cols must be in [1, 2147483648]" in stderr

    @pytest.mark.parametrize("algo, decoder", [("ed", erasure), ("sp", spectral)], ids=["ed", "sp"])
    def test_out_of_memory(self, capsys, tmp_path, monkeypatch, algo, decoder):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(decoder, "decode", exhausted)
        stderr = self.rejected(capsys, tmp_path, "#haplofrag v1\n1 2\n0: 0:1 1:1\n", "--algo", algo)
        assert "out of memory" in stderr


@st.composite
def decode_inputs(draw):
    """(fragment bytes, truth bytes or None, flags): a small matrix whose header may
    misstate m or n (n stays below a few thousand, so no decode allocates much)
    and whose rows take up to three character edits, non-ASCII ones included."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(0, 10))
    cols = st.sets(st.integers(0, n - 1), min_size=draw(st.integers(0, 1)))
    rows = "".join(
        " ".join([f"{i}:"] + [f"{j}:{draw(st.sampled_from('01'))}" for j in sorted(draw(cols))])
        + "\n"
        for i in range(m)
    )
    edit = st.tuples(st.floats(0, 1), st.integers(0, 2), st.sampled_from("01: \n-x\xe9"))
    for where, kind, char in draw(st.lists(edit, max_size=3)):
        at = int(where * len(rows))
        rows = rows[:at] + (char if kind < 2 else "") + rows[at + (kind != 1):]
    header_m = draw(st.sampled_from([m, m, m, m + 1, -1]))
    header_n = draw(st.sampled_from([n, n, n, n - 1, -2, 3000]))
    frag = f"{MAGIC}\n{header_m} {header_n}\n{rows}".encode("utf-8")
    truth = None
    if draw(st.booleans()):
        sign = st.sampled_from(["+1", "-1"])
        lengths = [draw(st.sampled_from([size, size, size + 1, 0])) for size in (n, m)]
        lines = [" ".join(draw(st.lists(sign, min_size=k, max_size=k))) for k in lengths]
        truth = "\n".join(lines).encode("ascii")
    algo = draw(st.sampled_from([["--algo", "ed"], ["--algo", "ed", "--strict"], ["--algo", "sp"]]))
    return frag, truth, algo + draw(st.sampled_from([[], ["--memberships"]]))


ED, SP = ["--algo", "ed"], ["--algo", "sp"]
BEYOND_INT32 = b"#haplofrag v1\n1 8589934592\n0: 4294967301:1 4294967302:0\n"


@settings(max_examples=200, deadline=None)
@given(decode_inputs())
@example((BEYOND_INT32, None, ED))
@example((BEYOND_INT32, None, SP))
@example((b"#haplofrag v1\n0 3\n", None, SP))  # m = 0
@example((b"#haplofrag v1\n3 3\n0: 0:1\n1: 1:0\n2: 2:1\n", None, SP))  # one entry per read
@example(("#haplofrag v1\n1 2\n0: 0:1 1:\u00e9\n".encode("utf-8"), None, ED))  # non-ASCII
@example((b"#haplofrag v1\n1 2\n0: 0:1 1:1\n", "+1 \u00e9\n+1\n".encode("utf-8"), ED))
@example((b"#haplofrag v1\n-1 3\n", None, SP))  # negative dimensions
@example((b"#haplofrag v1\n1 -3\n0:\n", None, ED))
@example((b"#haplofrag v1\n5 3\n0: 0:1 1:1\n", None, ED))  # header m != number of rows
def test_decode_fuzz_exits_with_a_code_and_key_value_stdout(tmp_path_factory, case):
    frag_bytes, truth_bytes, flags = case
    case_dir = tmp_path_factory.mktemp("fuzz")  # new files for every example
    (case_dir / "in.frag").write_bytes(frag_bytes)
    argv = ["decode", "--in", str(case_dir / "in.frag"), *flags]
    if truth_bytes is not None:
        (case_dir / "in.truth").write_bytes(truth_bytes)
        argv += ["--truth", str(case_dir / "in.truth")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in range(5)
    for line in out.getvalue().splitlines():
        key, sep, _ = line.partition("=")
        assert sep and key.isidentifier(), line


@st.composite
def analyze_argv(draw):
    """`analyze` argv: one --what and any subset of the numeric flags. Integers stay
    at or below 10^4, which keeps the e1 sum and the spectrum vectors short, and
    finite floats below 100, which keeps the lemma1 read-count sum short."""
    argv = ["analyze", "--what", draw(st.sampled_from(["e1", "e2", "fano", "lemma1", "spectrum"]))]
    ints = st.integers(3, 300) | st.integers(-3, 10**4)
    floats = st.sampled_from([0.1, 0.5, 2.0, math.nan, math.inf, -math.inf]) | st.floats(-1, 100)
    for name in ("n", "m", "u", "v", "n1", "n2", "pe", "p", "k1", "k2", "k3", "alpha", "beta"):
        value = draw(st.none() | (ints if name in ("n", "m", "u", "v", "n1", "n2") else floats))
        if value is not None:
            argv.append(f"--{name}={value}")
    return argv


@settings(max_examples=200, deadline=None)
@given(analyze_argv())
@example(["analyze", "--what", "e1", "--n=2000", "--m=400"])  # union sum past 1
@example(["analyze", "--what", "e2", "--n=2000", "--m=4", "--u=2", "--v=1000"])
@example(["analyze", "--what", "lemma1", "--n=1", "--p=0.1", "--k1=2", "--k2=0.5", "--k3=2"])
@example(["analyze", "--what", "lemma1", "--n=100", "--p=0.1", "--k1=inf", "--k2=0.5", "--k3=2"])
@example(["analyze", "--what", "lemma1", "--n=3", "--p=0.1", "--k1=0.6068261510845582", "--k2=0.5", "--k3=2"])
def test_analyze_fuzz_exits_with_a_code_and_key_value_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse usage errors
            code = stop.code
    assert code in (0, 2)
    for line in out.getvalue().splitlines():
        key, sep, _ = line.partition("=")
        assert sep and key.isidentifier(), line


@st.composite
def experiment_cases(draw):
    """(config bytes or None for a directory, extra flags): a sweep config whose
    lines may hold unknown keys, bad values or no `=`, whose cells may miss
    keys, and whose bytes may hold a non-ASCII one. n stays at or below 12 and
    trials at or below 2 (the default of 100 is set to 2 first), so every
    sweep that starts is short."""
    good = {
        "n": ["2", "3", "12"], "m_rule": ["linear", "nlogn", "coverage"],
        "kappa_or_c": ["0.5", "2", "4"], "p": ["0", "0.1", "0.5"], "k": ["2", "3"],
        "decoder": ["ed", "sp", "both"], "trials": ["1", "2"], "base_seed": ["0", "7"],
    }
    bad = {
        "n": ["1", "0", "-4", "12.0", "x"], "m_rule": ["square"],
        "kappa_or_c": ["0", "-1", "inf", "nan", "1e308", "x"], "p": ["0.6", "-0.1", "nan"],
        "k": ["1", "13"], "decoder": ["xx"], "trials": ["0", "-1", "x"], "base_seed": ["-1", "1.5"],
    }
    rare = st.sampled_from([False] * 11 + [True])

    def assign(key):
        return f"{key} = {draw(st.sampled_from((bad if draw(rare) else good)[key]))}"

    lines = ["trials = 2"] + [assign(key) for key in ("trials", "base_seed") if draw(st.booleans())]
    for _ in range(draw(st.sampled_from([1, 2, 3, 0]))):
        lines.append("[cell]")
        for key in ("n", "m_rule", "kappa_or_c", "p", "k", "decoder"):
            if not draw(rare):  # sometimes a required key is missing
                lines.append(assign(key))
    if draw(rare):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["bogus = 1", "no equals sign", "[cell]"])))
    text = ("\n".join(lines) + "\n").encode("ascii")
    if draw(rare):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + b"\xe9" + text[at:]
    flags = draw(st.sampled_from([[], [], ["--trials", "1"], ["--trials", "0"], ["--seed", "-1"], ["--seed", "3"]]))
    return (None if draw(rare) and draw(rare) else text), flags


CELL = "[cell]\nn = 12\nm_rule = nlogn\nkappa_or_c = 2\np = 0.1\n"


@settings(max_examples=150, deadline=None)
@given(experiment_cases())
@example((b"trials = 2\n" + CELL.encode(), []))  # a sweep that runs
@example((b"trials = 2\n", []))  # empty grid
@example((b"trials = 2\n" + CELL.replace("kappa_or_c = 2", "kappa_or_c = inf").encode(), []))
@example((b"trials = 1\n[cell]\nn = 1\xe9\n", []))  # non-ASCII
@example((b"trials = 1\n[cell]\nn = 12\nm_rule = nlogn\n", []))  # missing keys
@example((b"trials = 1\nbogus = 1\n" + CELL.encode() + b"bogus = 2\n", []))  # unknown keys
@example((None, []))  # the config path is a directory
def test_experiment_config_fuzz_exits_with_a_code_and_key_value_stdout(tmp_path_factory, case):
    config_bytes, flags = case
    case_dir = tmp_path_factory.mktemp("fuzz")  # new files for every example
    config = case_dir
    if config_bytes is not None:
        config = case_dir / "sweep.cfg"
        config.write_bytes(config_bytes)
    argv = ["experiment", "--config", str(config), "--out", str(case_dir / "out.csv"),
            "--threads", "1", "--no-timing", *flags]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert (case_dir / "out.csv").exists() == (code == 0)
    if code == 2:
        assert err.getvalue().startswith("experiment: ")
    if config_bytes is None or b"\xe9" in config_bytes:
        assert err.getvalue().startswith(f"experiment: cannot load {config}: ")
    for line in out.getvalue().splitlines():
        key, sep, _ = line.partition("=")
        assert sep and key.isidentifier(), line


def test_exit_codes_agree_across_readme_docstring_and_constants():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    in_readme = {int(code) for code in re.findall(r"^\| (\d+) \|", readme, re.MULTILINE)}
    in_docstring = {int(code) for code in re.findall(r"(?:^|,)\s+(\d+) ", cli.__doc__.split("Exit codes:")[1])}
    constants = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert build_parser().description == cli.__doc__  # the --help text
    assert in_readme == in_docstring == constants == set(range(6))
    assert {code for _, code, _ in cli._EXIT_CODES} <= constants


class TestAnalyze:
    def test_fano_error_free(self, capsys):
        code, stdout, _ = run_cli(capsys, "analyze", "--what", "fano", "--n", "1000", "--pe", "0")
        assert code == 0
        assert float(parse_kv(stdout)["fano_min_reads"]) == 1000.0

    def test_uncovered_probability_small_case(self, capsys):
        code, stdout, _ = run_cli(capsys, "analyze", "--what", "e1", "--n", "3", "--m", "2")
        assert code == 0
        assert float(parse_kv(stdout)["e1"]) == pytest.approx(1 / 3, abs=1e-12)

    def test_split_probability(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "analyze", "--what", "e2", "--n", "6", "--m", "8", "--u", "1", "--v", "2"
        )
        assert code == 0
        assert float(parse_kv(stdout)["e2"]) == pytest.approx(0.0131072, rel=1e-12)

    def test_bound_checks_pass(self, capsys):
        code, stdout, stderr = run_cli(
            capsys, "analyze", "--what", "lemma1", "--n", "100", "--p", "0.1",
            "--k1", "2", "--k2", "0.5", "--k3", "2",
        )
        assert code == 0
        pairs = parse_kv(stdout)
        assert pairs["alpha_check"] == "PASS"
        assert pairs["beta_check"] == "PASS"
        assert pairs["assumptions"] == "PASS"
        assert "PASS PASS" in stderr

    def test_spectrum_values(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "analyze", "--what", "spectrum", "--n1", "2", "--n2", "2",
            "--alpha", "0.6", "--beta", "0.2",
        )
        assert code == 0
        pairs = parse_kv(stdout)
        assert float(pairs["lambda1"]) == pytest.approx(1.6, abs=1e-12)
        assert float(pairs["lambda2"]) == pytest.approx(0.8, abs=1e-12)

    def test_missing_flags_are_usage_errors(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--what", "e1", "--n", "3")
        assert code == 2

    def test_precondition_violation_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--what", "e1", "--n", "2", "--m", "5")
        assert code == 2

    def test_value_error_returns_2_with_one_stderr_line(self, capsys):
        assert main(["analyze", "--what", "e1", "--n", "2", "--m", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["analyze: n must be >= 3"]

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_fano_needs_a_positive_site_count(self, capsys, n):
        code, stdout, stderr = run_cli(capsys, "analyze", "--what", "fano", "--n", n, "--pe", "0")
        assert code == 2
        assert stdout == ""
        assert stderr.splitlines() == [f"analyze: n must be >= 1, got {n}"]

    def test_overflowing_probability_reads_one(self, capsys):
        code, stdout, _ = run_cli(capsys, "analyze", "--what", "e1", "--n", "2000", "--m", "400")
        assert code == 0
        assert parse_kv(stdout)["e1"] == "1.0"


class TestExperiment:
    def test_config_file_sweep(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "trials = 4\nbase_seed = 6\n"
            "[cell]\nn = 20\nm_rule = nlogn\nkappa_or_c = 2\np = 0\ndecoder = ed\n"
        )
        out = tmp_path / "sweep.csv"
        code, stdout, stderr = run_cli(
            capsys, "experiment", "--config", str(config), "--out", str(out),
            "--threads", "1", "--no-timing",
        )
        assert code == 0
        assert parse_kv(stdout)["cells"] == "1"
        assert "cell n=20" in stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 2

    def test_empty_grid_is_validation_error(self, capsys, tmp_path):
        config = tmp_path / "empty.cfg"
        config.write_text("trials = 5\n")
        code, _, stderr = run_cli(
            capsys, "experiment", "--config", str(config), "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "empty" in stderr

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "missing" / "x.csv"
        stderr = self.refused(
            capsys, monkeypatch, "--preset", "fig4", "--trials", "1", "--out", str(out)
        )
        assert len(stderr.splitlines()) == 1 and "x.csv" in stderr

    @staticmethod
    def refused(capsys, monkeypatch, *argv):
        """stderr of an `experiment` call that must exit 2 before any trial runs."""

        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the arguments were checked")

        monkeypatch.setattr(experiments, "run", sweep)
        code, stdout, stderr = run_cli(capsys, "experiment", *argv)
        assert code == 2
        assert stdout == ""
        return stderr

    def test_out_naming_a_directory_is_refused(self, capsys, tmp_path, monkeypatch):
        stderr = self.refused(
            capsys, monkeypatch, "--preset", "fig4", "--trials", "1", "--out", str(tmp_path)
        )
        assert len(stderr.splitlines()) == 1 and "is a directory" in stderr

    def test_negative_seed_is_usage_error(self, capsys, tmp_path, monkeypatch):
        stderr = self.refused(
            capsys, monkeypatch, "--preset", "fig4", "--trials", "1", "--seed", "-1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert len(stderr.splitlines()) == 1 and "base_seed must be >= 0" in stderr

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[cell]\nn = 20\nm_rule = nlogn\nkappa_or_c = inf\np = 0\n", "not finite"),
            ("[cell]\nn = 20\nm_rule = linear\nkappa_or_c = 1e308\np = 0\n", "not finite"),
            ("base_seed = -1\n[cell]\nn = 20\nm_rule = nlogn\nkappa_or_c = 2\np = 0\n",
             "base_seed must be >= 0"),
        ],
        ids=["infinite-kappa", "overflowing-kappa", "negative-base-seed"],
    )
    def test_config_with_bad_seed_or_read_count(self, capsys, tmp_path, monkeypatch, text, message):
        config = tmp_path / "bad.cfg"
        config.write_text(text)
        stderr = self.refused(
            capsys, monkeypatch, "--config", str(config), "--out", str(tmp_path / "x.csv")
        )
        assert message in stderr.splitlines()[-1]

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_usage_error(self, capsys, tmp_path, threads):
        out = tmp_path / "x.csv"
        code, _, stderr = run_cli(
            capsys, "experiment", "--preset", "fig4", "--trials", "1",
            "--threads", threads, "--out", str(out),
        )
        assert code == 2
        assert len(stderr.splitlines()) == 1 and "--threads" in stderr
        assert not out.exists()

    def test_zero_trials_preset_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, stderr = run_cli(
            capsys, "experiment", "--preset", "fig4", "--trials", "0", "--out", str(out)
        )
        assert code == 2
        assert "trials" in stderr
        assert not out.exists()

    def test_non_ascii_config_names_the_file(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_bytes(b"trials = 1\n[cell]\nn = 1\xe9\n")
        code, stdout, stderr = run_cli(
            capsys, "experiment", "--config", str(config), "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and str(config) in stderr and "0xe9" in stderr

    def test_config_and_preset_exclusive(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "experiment", "--config", "a", "--preset", "fig3",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


def test_threads_sharing_the_parser_each_print_their_own_stdout():
    # threads calling main() at once, as two benchmark clients do, share one
    # parser; each call must still print its own answer. More threads than
    # cores and a short switch interval make interleaved parses likely
    class PerThreadStdout(io.TextIOBase):
        local = threading.local()

        def writable(self):
            return True

        def write(self, text):
            return self.local.buf.write(text)

    stream = PerThreadStdout()

    def call(n_m):
        stream.local.buf = out = io.StringIO()
        code = main(["analyze", "--what", "e1", "--n", str(n_m[0]), "--m", str(n_m[1])])
        return code, out.getvalue()

    calls = [(n, m) for n in range(3, 13) for m in range(1, 201)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with contextlib.redirect_stdout(stream), ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(call, calls, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert build_parser() is build_parser()
    assert results == [(0, f"e1={channel.prob_uncovered_column(n, m)!r}\n") for n, m in calls]


def test_console_script_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "haplosim.cli", "analyze", "--what", "fano", "--n", "10", "--pe", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "fano_min_reads=10.0" in proc.stdout


def test_import_leaves_scipy_special_and_stats_unloaded():
    # a fresh `import haplosim` is the sweep benchmarks' set-up time and a fresh
    # `import haplosim.cli` the cli benchmark's; scipy.special is imported inside
    # the closed forms that use it, scipy.stats not at all, and the process-pool
    # modules only when a sweep first starts its workers
    lazy = ("scipy.special", "scipy.stats", "multiprocessing", "concurrent.futures.process")
    for module in ("haplosim", "haplosim.cli"):
        probe = f"import sys, {module}; print([m for m in {lazy!r} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_main_starts_scipy_blas_on_one_thread(preset, expected):
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when scipy's linear algebra
    # loads, so main's one-thread default holds only if a fresh
    # `import haplosim.cli` has not loaded it; a value already set is kept
    probe = (
        "import os, sys, haplosim.cli as cli; "
        "early = [m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules]; "
        "code = cli.main(['analyze', '--what', 'e1', '--n', '3', '--m', '2']); "
        "print(early, code, os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"[] 0 {expected}"
