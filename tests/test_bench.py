import csv
import json
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from ifsmp import BenchConfig, ConfigError, generate_channel, run_benchmark
from ifsmp import cli
from ifsmp.bench import MAX_NT, db_to_linear, write_csv, write_json
from ifsmp.cli import main as cli_main


class TestGenerateChannel:
    def test_deterministic(self):
        a = generate_channel(3, np.random.default_rng(42))
        b = generate_channel(3, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_shape_1x1(self):
        assert generate_channel(1, np.random.default_rng(0)).shape == (1, 1)

    def test_moments(self):
        rng = np.random.default_rng(123)
        samples = np.concatenate([generate_channel(100, rng).ravel() for _ in range(100)])
        assert samples.mean() == pytest.approx(0.0, abs=0.01)
        assert samples.var() == pytest.approx(1.0, abs=0.01)


class TestConfigValidation:
    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            BenchConfig(nt_list=(2,), p_list_db=(2.0,), trials=0).validate()

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            BenchConfig(nt_list=(2,), p_list_db=(2.0,), algorithms=("magic",)).validate()

    def test_oracle_dimension_guard(self):
        with pytest.raises(ConfigError):
            BenchConfig(nt_list=(10,), p_list_db=(2.0,),
                        algorithms=("oracle",)).validate()

    def test_nt_cap(self):
        BenchConfig(nt_list=(2, MAX_NT), p_list_db=(2.0,)).validate()
        with pytest.raises(ConfigError, match=f"from 1 to {MAX_NT}"):
            BenchConfig(nt_list=(2, MAX_NT + 1), p_list_db=(2.0,)).validate()

    def test_invalid_power_rejected(self):
        # P = 10^(dB/10) must pass gram_matrix's power rule: NaN, inf, 0
        # (-4000 dB underflows) and an overflow of the conversion (1e6 dB)
        for p_db in (np.nan, np.inf, -np.inf, -4000.0, 1e6):
            config = BenchConfig(nt_list=(2,), p_list_db=(10.0, p_db), trials=1)
            with pytest.raises(ConfigError):
                config.validate()
            with pytest.raises(ConfigError):
                run_benchmark(config)
        # and a grid needs one power at least
        with pytest.raises(ConfigError, match="p_list_db must not be empty"):
            BenchConfig(nt_list=(2,), p_list_db=()).validate()

    def test_non_integer_counts_rejected(self):
        # each would fail inside run_benchmark with a bare TypeError; a
        # p_list_db entry that is no real scalar is pinned in
        # test_matrixcore.py's table
        base = dict(nt_list=(2,), p_list_db=(10.0,), trials=1)
        bad = [dict(trials=1.5), dict(trials="2"), dict(seed=1.5), dict(seed="2"),
               dict(nt_list=(2, 1.5)), dict(nt_list=("2",)),
               # a container that is no tuple or list, or an unhashable name
               dict(nt_list=2), dict(p_list_db=10.0), dict(algorithms=None),
               dict(algorithms=(["new"],))]
        for change in bad:
            config = BenchConfig(**{**base, **change})
            with pytest.raises(ConfigError):
                config.validate()
            with pytest.raises(ConfigError):
                run_benchmark(config)
        # numpy integers and floats are numbers
        BenchConfig(nt_list=(np.int64(2),), p_list_db=(np.float64(10.0),),
                    trials=np.int64(1), seed=np.uint32(3)).validate()

    def test_negative_seed(self):
        # np.random.SeedSequence would reject it mid-run with a bare ValueError
        config = BenchConfig(nt_list=(2,), p_list_db=(10.0,), trials=1, seed=-1)
        with pytest.raises(ConfigError):
            config.validate()
        with pytest.raises(ConfigError):
            run_benchmark(config)

    def test_db_conversion(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(0.0) == pytest.approx(1.0)


class TestRunBenchmark:
    def test_record_counting(self):
        config = BenchConfig(nt_list=(2, 3), p_list_db=(2.0, 4.0), trials=1,
                             seed=5, algorithms=("new",))
        records, summary = run_benchmark(config)
        assert len(records) == 4
        assert len(summary) == 4

    def test_new_equals_oracle_per_trial(self):
        config = BenchConfig(nt_list=(2,), p_list_db=(2.0,), trials=3, seed=9,
                             algorithms=("new", "oracle"))
        records, _ = run_benchmark(config)
        assert len(records) == 6
        by_alg = {}
        for rec in records:
            by_alg.setdefault(rec.algorithm, []).append(rec.rate_total)
        assert by_alg["new"] == pytest.approx(by_alg["oracle"], rel=1e-9, abs=1e-12)

    def test_reproducible_rates(self):
        config = BenchConfig(nt_list=(2,), p_list_db=(4.0,), trials=4, seed=11,
                             algorithms=("new", "baseline"))
        r1, _ = run_benchmark(config)
        r2, _ = run_benchmark(config)
        assert [r.rate_total for r in r1] == [r.rate_total for r in r2]
        assert [r.seed_used for r in r1] == [r.seed_used for r in r2]


class TestOutput:
    def test_csv_schema(self, tmp_path):
        config = BenchConfig(nt_list=(2,), p_list_db=(2.0,), trials=2, seed=1,
                             algorithms=("new",))
        records, _ = run_benchmark(config)
        path = tmp_path / "out.csv"
        write_csv(records, str(path))
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["algorithm", "nt", "p_db", "trial", "rate_total",
                          "wall_time_s", "seed"]
        assert len(rows) == 2
        assert rows[0][0] == "new"

    def test_json_structure(self, tmp_path):
        config = BenchConfig(nt_list=(2,), p_list_db=(2.0,), trials=1, seed=1,
                             algorithms=("new",))
        records, summary = run_benchmark(config)
        path = tmp_path / "out.json"
        write_json(records, summary, str(path))
        payload = json.loads(path.read_text())
        assert set(payload) == {"records", "summary"}
        assert payload["records"][0]["algorithm"] == "new"
        assert payload["summary"][0]["trials"] == 1

    def test_numpy_int_config_writes_python_ints(self, tmp_path):
        # validate accepts numpy integers for nt_list, trials and seed; the
        # records must hold Python ints, or json cannot write them
        def written(nt, trials, seed):
            config = BenchConfig(nt_list=(nt,), p_list_db=(2.0,), trials=trials, seed=seed,
                                 algorithms=("new",))
            records, summary = run_benchmark(config)
            records = [replace(r, wall_time_s=0.0) for r in records]  # the one unseeded field
            write_json(records, summary, str(tmp_path / "out.json"))
            write_csv(records, str(tmp_path / "out.csv"))
            payload = json.loads((tmp_path / "out.json").read_text())
            assert payload["records"] == [asdict(r) for r in records]
            return (tmp_path / "out.csv").read_bytes()

        assert written(np.int64(2), np.int64(2), np.int64(3)) == written(2, 2, 3)


class TestCli:
    def test_config_error_exit_code(self, capsys):
        assert cli_main(["--trials", "0"]) == 1
        assert cli_main(["--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_bad_algorithm_exit_code(self, capsys):
        assert cli_main(["--algs", "bogus"]) == 1

    def test_invalid_power_exit_code(self, tmp_path, capsys):
        # rejected before any cell runs, so nothing is written
        out = tmp_path / "bench.csv"
        for pdb in ("nan", "inf", "-4000", "1e6", "10,nan"):
            assert cli_main(["--nt", "2", "--pdb", pdb, "--trials", "1",
                             "--out", str(out)]) == 1
            assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_nt_exit_code(self, tmp_path, capsys, monkeypatch):
        # a 20000 x 20000 channel is 3.2 GB: rejected before any channel is
        # drawn, so nothing is allocated and nothing is written
        def unreachable(config):
            raise AssertionError("run_benchmark called")

        monkeypatch.setattr(cli, "run_benchmark", unreachable)
        out = tmp_path / "bench.csv"
        tracemalloc.start()
        try:
            code = cli_main(["--nt", "20000", "--pdb", "10", "--trials", "1", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert peak < 1 << 20
        assert not out.exists()

    def test_unbounded_grid_exit_code(self, tmp_path, capsys):
        # a step that cannot advance, infinite bounds and too many points
        # are rejected before any list is built, so the CLI cannot hang
        out = tmp_path / "bench.csv"
        for pdb in ("1:1e-20:2", "inf:1:inf", "-inf:1:0", "0:1:inf", "0:nan:2",
                    "0:1e-300:1", "-1e308:1e300:1e308"):
            assert cli_main(["--nt", "2", f"--pdb={pdb}", "--trials", "1",
                             "--out", str(out)]) == 1
            assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_exit_code(self, capsys, monkeypatch, tmp_path):
        # the path is opened before run_benchmark, so no trial is solved
        def unreachable(config):
            raise AssertionError("run_benchmark called")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "run_benchmark", unreachable)
            code = cli_main(["--nt", "2,4", "--pdb", "0:10:20", "--trials", "300",
                             "--out", "/nonexistent-dir/x.csv"])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

        # a write that fails after the run exits 2 as well
        def failing_write(*args):
            raise OSError("disk full")

        for writer, name in (("write_csv", "x.csv"), ("write_json", "x.json")):
            monkeypatch.setattr(cli, writer, failing_write)
            code = cli_main(["--nt", "2", "--pdb", "2", "--trials", "1", "--algs", "new",
                             "--out", str(tmp_path / name)])
            assert code == 2
            assert "i/o error: disk full" in capsys.readouterr().err

    def test_small_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = cli_main(["--nt", "2", "--pdb", "2:2:4", "--trials", "2",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2  # header + algs * p-values * trials
        assert "mean rate" in capsys.readouterr().out

    def test_json_suffix_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = cli_main(["--nt", "2", "--pdb", "2", "--trials", "2",
                         "--seed", "3", "--algs", "new", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 2
        assert [row["algorithm"] for row in payload["summary"]] == ["new"]

    def test_pdb_grid_parsing(self):
        from ifsmp.cli import MAX_GRID_POINTS, _parse_grid

        assert _parse_grid("2:2:16") == (2, 4, 6, 8, 10, 12, 14, 16)
        assert _parse_grid("0:0.5:2") == (0.0, 0.5, 1.0, 1.5, 2.0)
        assert _parse_grid("0:0.1:0.3") == (0.0, 0.1, 0.2, 0.3)
        assert len(_parse_grid("0:1:9999")) == MAX_GRID_POINTS
        assert _parse_grid("5:1:2") == ()
        assert _parse_grid("1,5,9") == (1.0, 5.0, 9.0)
        # a grid that is no grid raises the typed error main reports
        for text in ("0:nan:2", "0:0:2", "1:1e-20:2", "0:1e-6:1"):
            with pytest.raises(ConfigError):
                _parse_grid(text)


@pytest.mark.parametrize("workload", ["rankdef", "small"])
def test_perfbench_runner_entry_points(workload):
    """perfbench/run.py calls library functions by name; a rename would only
    show as failed benchmark operations, so run one short traced pass.  The
    runner also fails any channel whose stage-by-stage solve differs from
    solve_smp bit for bit; `small` covers nt = 2, which `rankdef` never draws."""
    runner = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    done = subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
