import math
import os
import re
import signal
from multiprocessing.connection import wait

import numpy as np
import pytest

import tuple_reference as ref
from conftest import check_fragio_roundtrip, read_summaries
from haplosim import cli, experiments
from haplosim.experiments import (
    Cell,
    CellSummary,
    ExperimentConfig,
    emit_csv,
    parse_config_text,
    preset,
    run,
    wilson_interval,
)
from haplosim.fragio import (
    AlleleError,
    ColumnOrderError,
    DimensionError,
    DuplicateColumnError,
    FragmentFormatError,
    HeaderError,
    load_fragments,
    load_truth,
    save_fragments,
)


class TestCell:
    def test_read_count_rules(self):
        assert Cell(100, "linear", 2.0, 0.0).reads() == 200
        assert Cell(100, "nlogn", 2.0, 0.0).reads() == math.ceil(200 * math.log(100))
        assert Cell(100, "coverage", 10.0, 0.0).reads() == 500
        assert Cell(100, "coverage", 10.0, 0.0, k=5).reads() == 200

    def test_validation_reports_every_problem(self):
        bad = (
            Cell(100, "cubic", 2.0, 0.0),
            Cell(100, "nlogn", 2.0, 0.9),
            Cell(100, "nlogn", 2.0, 0.1, decoder="magic"),
        )
        with pytest.raises(ValueError) as info:
            ExperimentConfig(bad)
        message = str(info.value)
        assert "cell 0" in message and "cell 1" in message and "cell 2" in message

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(())

    @pytest.mark.parametrize("rule", ["linear", "nlogn", "coverage"])
    @pytest.mark.parametrize("kappa", [math.inf, 1e308])
    def test_read_count_that_is_not_finite_is_a_value_error(self, rule, kappa):
        cell = Cell(100, rule, kappa, 0.0)
        with pytest.raises(ValueError, match="not finite"):
            cell.reads()
        assert any("not finite" in problem for problem in cell.validate())

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ValueError, match="base_seed must be >= 0"):
            ExperimentConfig((Cell(20, "nlogn", 2.0, 0.0),), trials=1, base_seed=-1)


class TestWilson:
    @pytest.mark.parametrize("successes,trials", [(0, 10), (10, 10), (7, 10), (1, 500)])
    def test_interval_brackets_estimate(self, successes, trials):
        lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= successes / trials <= hi <= 1.0


class TestRun:
    def test_error_free_cell_is_exact(self):
        config = ExperimentConfig(
            (Cell(30, "nlogn", 2.0, 0.0),), trials=10, base_seed=5
        )
        ed, sp = run(config, measure_time=False)
        assert ed.decoder == "ed" and sp.decoder == "sp"
        assert ed.exact_rate == 1.0
        assert ed.mean_err_frac == 0.0
        assert ed.failure_rate == 0.0
        assert sp.mean_err_frac <= 0.02
        assert ed.exact_ci_lo <= ed.exact_rate <= ed.exact_ci_hi

    def test_thread_count_does_not_change_results(self):
        config = ExperimentConfig(
            (Cell(25, "nlogn", 2.0, 0.1), Cell(25, "linear", 3.0, 0.0, decoder="ed")),
            trials=8,
            base_seed=9,
        )
        serial = run(config, threads=1, measure_time=False)
        for workers in (2, 4):
            assert run(config, threads=workers, measure_time=False) == serial

    def test_reruns_are_identical(self):
        config = ExperimentConfig((Cell(20, "linear", 4.0, 0.2),), trials=6, base_seed=3)
        assert run(config, measure_time=False) == run(config, measure_time=False)

    def test_timing_column_disabled_is_zero(self):
        config = ExperimentConfig((Cell(20, "linear", 4.0, 0.0, decoder="ed"),), trials=3)
        (summary,) = run(config, measure_time=False)
        assert summary.mean_ms == 0.0
        (timed,) = run(config, measure_time=True)
        assert timed.mean_ms > 0.0


def test_threads_below_one_rejected():
    config = ExperimentConfig((Cell(20, "linear", 4.0, 0.0, decoder="ed"),), trials=2)
    for threads in (0, -2):
        with pytest.raises(ValueError, match="threads"):
            run(config, threads=threads)


def test_worker_count_is_capped():
    cpus = os.cpu_count() or 1
    assert experiments._worker_count(10**6, 10**6) == cpus
    assert experiments._worker_count(10**6, 3) == min(3, cpus)
    assert experiments._worker_count(1, 10**6) == 1


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: run() keeps every trial in process")
class TestWorkerPool:
    CONFIG = ExperimentConfig(
        (Cell(25, "nlogn", 2.0, 0.1), Cell(20, "linear", 4.0, 0.0, decoder="ed")),
        trials=4,
        base_seed=21,
    )

    def test_second_run_reuses_the_pool(self):
        first = run(self.CONFIG, threads=2, measure_time=False)
        pool = experiments._pool
        assert pool is not None and pool[0] == 2
        assert run(self.CONFIG, threads=2, measure_time=False) == first
        assert experiments._pool is pool

    def test_killed_worker_fails_one_run_only(self):
        expected = run(self.CONFIG, threads=1, measure_time=False)
        run(self.CONFIG, threads=2, measure_time=False)
        worker = next(iter(experiments._pool[1]._processes.values()))
        os.kill(worker.pid, signal.SIGKILL)
        assert wait([worker.sentinel], timeout=60)
        with pytest.raises(RuntimeError, match="worker process exited unexpectedly"):
            run(self.CONFIG, threads=2, measure_time=False)
        assert experiments._pool is None
        assert run(self.CONFIG, threads=2, measure_time=False) == expected

    def test_killed_worker_exits_5_from_the_cli(self, capsys, tmp_path):
        run(self.CONFIG, threads=2, measure_time=False)
        worker = next(iter(experiments._pool[1]._processes.values()))
        os.kill(worker.pid, signal.SIGKILL)
        assert wait([worker.sentinel], timeout=60)
        config, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
        config.write_text("trials = 4\n[cell]\nn = 20\nm_rule = linear\nkappa_or_c = 4\np = 0\n")
        argv = ["experiment", "--config", str(config), "--out", str(out), "--threads", "2"]
        assert cli.main(argv) == cli.EXIT_WORKER_LOST
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "experiment: a sweep worker process exited unexpectedly (killed, out of "
            "memory, or failed to start); the sweep was abandoned"
        ]
        assert not out.exists()

    def test_workers_report_wall_times(self):
        summaries = run(self.CONFIG, threads=2, measure_time=True)
        assert all(s.mean_ms > 0.0 for s in summaries)


class TestCsv:
    def test_header_only_for_empty_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text().splitlines() == [
            "n,m_rule,kappa_or_c,p,k,decoder,trials,exact_rate,exact_ci_lo,exact_ci_hi,"
            "mean_err_frac,failure_rate,mean_ms"
        ]

    def test_both_decoders_two_rows(self, tmp_path):
        config = ExperimentConfig((Cell(12, "linear", 2.0, 0.0),), trials=2, base_seed=1)
        path = tmp_path / "two.csv"
        emit_csv(run(config, measure_time=False), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[5] == "ed"
        assert lines[2].split(",")[5] == "sp"

    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(17)
        summaries = []
        for i in range(50):
            summaries.append(
                CellSummary(
                    n=int(rng.integers(2, 1000)),
                    m_rule=("linear", "nlogn", "coverage")[i % 3],
                    kappa_or_c=float(rng.uniform(0.1, 20)),
                    p=float(rng.uniform(0, 0.5)),
                    k=int(rng.integers(2, 6)),
                    decoder=("ed", "sp")[i % 2],
                    trials=int(rng.integers(1, 500)),
                    exact_rate=float(rng.random()),
                    exact_ci_lo=float(rng.random()),
                    exact_ci_hi=float(rng.random()),
                    mean_err_frac=float(rng.random()),
                    failure_rate=float(rng.random()),
                    mean_ms=float(rng.uniform(0, 1e4)),
                )
            )
        path = tmp_path / "roundtrip.csv"
        emit_csv(summaries, path)
        assert read_summaries(path) == summaries

    def test_unwritable_path_raises_with_context(self, tmp_path):
        target = tmp_path / "missing_dir" / "out.csv"
        with pytest.raises(OSError) as info:
            emit_csv([], target)
        assert "out.csv" in str(info.value)


class TestFragmentFiles:
    def test_worked_example_round_trip(self, tmp_path, example_8x6):
        _, _, observed = example_8x6
        path = tmp_path / "example.frag"
        save_fragments(observed, path)
        text = path.read_text()
        assert text.startswith("#haplofrag v1\n8 6\n")
        assert "\r" not in text
        assert load_fragments(path) == observed

    def test_exact_bytes_of_small_matrix(self, tmp_path):
        matrix = ref.read_matrix(3, (((0, 1), (2, -1)), ()))
        path = tmp_path / "tiny.frag"
        save_fragments(matrix, path)
        assert path.read_bytes() == b"#haplofrag v1\n2 3\n0: 0:1 2:0\n1:\n"

    def test_save_over_a_longer_file_leaves_only_the_new_bytes(self, tmp_path):
        path = tmp_path / "reused.frag"
        path.write_text("#haplofrag v1\n3 9\n0: 0:1 8:0\n1: 4:1\n2:\n" + "#" * 500)
        save_fragments(ref.read_matrix(3, (((0, 1), (2, -1)), ())), path)
        assert path.read_bytes() == b"#haplofrag v1\n2 3\n0: 0:1 2:0\n1:\n"

    def test_many_random_round_trips(self, tmp_path):
        check_fragio_roundtrip(150, tmp_path)

    @pytest.mark.parametrize(
        "content,error",
        [
            ("#haplofrag v2\n0 3\n", HeaderError),
            ("#haplofrag v1\n2 3\n0: 0:1\n", DimensionError),
            ("#haplofrag v1\n1 3\n0: 2:1 1:1\n", ColumnOrderError),
            ("#haplofrag v1\n1 3\n0: 2:5 2:1\n", DuplicateColumnError),
            ("#haplofrag v1\n1 3\n0: 1:7\n", AlleleError),
            ("#haplofrag v1\n1 3\n0: 5:1\n", ColumnOrderError),
        ],
    )
    def test_malformed_inputs(self, tmp_path, content, error):
        path = tmp_path / "bad.frag"
        path.write_text(content)
        with pytest.raises(error) as info:
            load_fragments(path)
        assert info.value.line >= 1

    @pytest.mark.parametrize(
        "content,error,message",
        [
            # numbers only as unsigned decimals without leading zeros
            ("1 3\n00: 01:1 2:0\n", FragmentFormatError, "line 3: bad row index '00:'"),
            ("1 3\n+0: +1:1\n", FragmentFormatError, "line 3: bad row index '+0:'"),
            ("1 12\n0: 1_0:1\n", FragmentFormatError, "line 3: bad column index '1_0'"),
            ("1 3\n0: 01:1\n", FragmentFormatError, "line 3: bad column index '01'"),
            ("+1 3\n0: 1:1\n", DimensionError, "line 2: expected '<m> <n>', got '+1 3'"),
            ("1 03\n0: 1:1\n", DimensionError, "line 2: expected '<m> <n>', got '1 03'"),
            # LF line ends only
            ("1 3\r\n0: 1:1\r\n", DimensionError, "line 2: expected '<m> <n>', got '1 3\\r'"),
            ("1 3\n0: 1:1\r\n", AlleleError, "line 3: allele must be 0 or 1, got '1\\r'"),
        ],
    )
    def test_forms_the_writer_never_writes_are_rejected(self, tmp_path, content, error, message):
        path = tmp_path / "strict.frag"
        path.write_bytes(b"#haplofrag v1\n" + content.encode("ascii"))
        with pytest.raises(error) as info:
            load_fragments(path)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_non_ascii_is_a_value_error(self, tmp_path):
        path = tmp_path / "latin.frag"
        path.write_bytes("#haplofrag v1\n1 2\n0: 0:1 1:\u00e9\n".encode("utf-8"))
        with pytest.raises(UnicodeDecodeError):
            load_fragments(path)

    def test_duplicate_column_reports_line(self, tmp_path):
        # column structure is checked before allele values, so the repeated
        # column 2 wins over the bad allele in '2:5'
        path = tmp_path / "dup.frag"
        path.write_text("#haplofrag v1\n2 6\n0: 1:1 4:0\n1: 2:5 2:1\n")
        with pytest.raises(DuplicateColumnError) as info:
            load_fragments(path)
        assert info.value.line == 4


class TestTruthFiles:
    @pytest.mark.parametrize(
        "text,token",
        [
            ("1 -1\n+1\n", "'1'"),  # tokens carry their sign
            ("+1 01\n+1\n", "'01'"),
            ("+1 -1\n+01\n", "'+01'"),
            ("+1 -1\n+1.0\n", "'+1.0'"),
            ("+1  -1\n+1\n", "''"),  # single spaces only
            ("+1\t-1\n+1\n", "'+1\\t-1'"),
            ("+1 -1\r\n+1\r\n", "'-1\\r'"),  # LF line ends only
        ],
    )
    def test_tokens_other_than_plus_or_minus_one_are_rejected(self, tmp_path, text, token):
        path = tmp_path / "bad.truth"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(ValueError, match="line [12]: expected \\+1 or -1, got " + re.escape(token)):
            load_truth(path)

    @pytest.mark.parametrize("text", ["+1 -1\n", "+1 -1\n+1\n-1\n", ""])
    def test_exactly_two_lines(self, tmp_path, text):
        path = tmp_path / "lines.truth"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(ValueError, match="needs two lines"):
            load_truth(path)


class TestConfigText:
    def test_parses_cells_and_globals(self):
        text = """
        # sweep description
        trials = 7
        base_seed = 42
        [cell]
        n = 50
        m_rule = nlogn
        kappa_or_c = 2
        p = 0.1
        [cell]
        n = 30
        m_rule = coverage
        kappa_or_c = 5
        p = 0
        k = 3
        decoder = ed
        """
        config = parse_config_text(text)
        assert config.trials == 7
        assert config.base_seed == 42
        assert config.cells[0] == Cell(50, "nlogn", 2.0, 0.1)
        assert config.cells[1] == Cell(30, "coverage", 5.0, 0.0, k=3, decoder="ed")

    def test_all_problems_reported(self):
        text = """
        trials = abc
        [cell]
        n = 50
        [cell]
        n = 20
        m_rule = nlogn
        kappa_or_c = banana
        p = 0.1
        """
        with pytest.raises(ValueError) as info:
            parse_config_text(text)
        message = str(info.value)
        assert "cell 0" in message and "banana" in message
        assert "line 2: bad value for 'trials': 'abc'" in message

    def test_empty_text_is_empty_grid(self):
        with pytest.raises(ValueError):
            parse_config_text("trials = 5\n")


class TestDecoderCrossCheck:
    def test_spectral_matches_erasure_on_clean_trials(self):
        # wherever ED succeeds on an error-free draw, SP should land on the
        # same haplotype up to the global flip; small-n eigen degeneracy is
        # allowed at most 1% of trials, so check at n=100
        import math

        from conftest import random_instance
        from haplosim.erasure import decode as ed_decode
        from haplosim.model import hamming_up_to_flip
        from haplosim.spectral import NonConvergedError, SpectralConfig
        from haplosim.spectral import decode as sp_decode

        n = 100
        m = math.ceil(2 * n * math.log(n))
        trials = 400
        mismatches = successes = 0
        for t in range(trials):
            _, _, observed = random_instance(n, m, 2, 0.0, seed=70_000 + t)
            ed = ed_decode(observed)
            if not ed.ok:
                continue
            successes += 1
            try:
                sp = sp_decode(observed, SpectralConfig(seed=t))
                errors, _ = hamming_up_to_flip(ed.haplotype, sp.haplotype)
                if errors != 0:
                    mismatches += 1
            except NonConvergedError:
                mismatches += 1
        assert successes > 0
        assert mismatches <= 0.01 * successes, (mismatches, successes)


class TestPresets:
    def test_fig3_grid_shape(self):
        config = preset("fig3")
        assert len(config.cells) == 6
        assert {c.n for c in config.cells} == {100, 350, 700}
        assert {c.m_rule for c in config.cells} == {"linear", "nlogn"}
        assert all(c.p == 0.1 for c in config.cells)
        assert config.trials == 50

    def test_fig4_grid_shape(self):
        config = preset("fig4", trials=10)
        assert [c.p for c in config.cells] == [0.0, 0.05, 0.1, 0.2]
        assert all(c.m_rule == "nlogn" and c.kappa_or_c == 2.0 for c in config.cells)
        assert config.trials == 10

    def test_table1_grid_shape(self):
        config = preset("table1")
        assert len(config.cells) == 12
        assert {c.kappa_or_c for c in config.cells} == {3.0, 5.0, 8.0, 10.0}
        assert {c.p for c in config.cells} == {0.0, 0.1, 0.2}
        assert all(c.k == 5 for c in config.cells)  # multi-SNP benchmark analogue
        assert config.trials == 100

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("fig9")
