"""Tests for the command-line front end and the selftest suite."""

import json

import pytest
from conftest import sign_flipped_minres

from rbdmimo.cli import main
from rbdmimo.complexity import BASELINE_CONVENTION, COUNTING_CONVENTION
from rbdmimo.selftest import run_selftest


@pytest.fixture()
def config_file(tmp_path):
    cfg = {
        "n": 16,
        "m": 4,
        "qam_order": 16,
        "detector": "cholesky",
        "k_iterations": 1,
        "snr_db_list": [0.0, 4.0],
        "target_bit_errors": 100,
        "max_bits": 20_000,
        "master_seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_writes_csv_and_echoes_config(self, config_file, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "resolved configuration" in stdout
        assert "sigma2 = M / 10^(snr_db/10)" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + one row per snr
        assert lines[1].startswith("cholesky,1,16,4,16,uncorrelated,")

    def test_override_switches_detector(self, config_file, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main([
            "simulate", "--config", str(config_file),
            "--override", "detector=cr,k_iterations=3",
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("cr,3,")

    def test_override_list_with_scalar(self, config_file, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main([
            "simulate", "--config", str(config_file),
            "--override", "snr_db_list=[1,2.5],detector=cr,k_iterations=2",
            "--out", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[0], r[1], float(r[9])) for r in rows] == [("cr", "2", 1.0), ("cr", "2", 2.5)]

    def test_missing_config_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["simulate", "--config", str(missing)])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 8, "m": 2, "qam_order": 4, "detector": "cr",
                                    "k_iterations": 2, "snr_db_list": [0.0], "mystery": 1}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_unknown_override_exit_2(self, config_file, capsys):
        code = main(["simulate", "--config", str(config_file), "--override", "qam=64"])
        assert code == 2

    def test_inexact_integer_override_exit_2(self, config_file, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main(["simulate", "--config", str(config_file), "--override", "n=16.9", "--out", str(out)])
        assert code == 2
        assert "n must be an integer, got 16.9" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_outside_64_bits_exit_2(self, config_file, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main(["simulate", "--config", str(config_file), "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "master_seed must lie in [0, 2**64), got -1" in capsys.readouterr().err
        assert not out.exists()


class TestComplexity:
    def test_grid_row_count(self, tmp_path):
        out = tmp_path / "cx.csv"
        code = main(["complexity", "--m", "4:4:64", "--k", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("algorithm,M,k,")
        assert len(lines) == 1 + 3 * 16  # header + 16 rows per algorithm

    def test_cr_reduction_at_m60(self, tmp_path):
        out = tmp_path / "cx.csv"
        assert main(["complexity", "--m", "60:1:60", "--k", "3", "--out", str(out)]) == 0
        rows = [ln for ln in out.read_text().splitlines() if ln.startswith("cr,60,")]
        assert len(rows) == 1
        assert float(rows[0].split(",")[-1]) >= 0.80

    def test_prints_the_counting_convention(self, capsys):
        assert main(["complexity", "--m", "4:4:4", "--k", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"counting convention: {COUNTING_CONVENTION}"
        assert lines[2] == f"baseline: {BASELINE_CONVENTION}"
        assert "preprocessing and trace norms excluded" in lines[1]

    def test_zero_iterations_exit_2(self):
        assert main(["complexity", "--m", "8:8:16", "--k", "0"]) == 2

    def test_bad_grid_exit_2(self):
        assert main(["complexity", "--m", "64:4:8", "--k", "2"]) == 2


class TestSelftest:
    def test_clean_build_passes(self, capsys):
        assert main(["selftest", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_output_deterministic(self, capsys):
        main(["selftest", "--seed", "7"])
        first = capsys.readouterr().out
        main(["selftest", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_injected_sign_error_named(self, monkeypatch, capsys):
        # a corrupted step direction must be caught by the monotonicity check
        import rbdmimo.selftest as selftest_mod

        monkeypatch.setattr(selftest_mod, "minres_detect", sign_flipped_minres)
        failures = run_selftest(seed=7)
        lines = capsys.readouterr().out.splitlines()
        assert any(f.startswith("minres residual monotonicity") for f in failures)
        assert any(line.startswith("FAIL minres residual monotonicity") for line in lines)

    def test_batch_order_fault_named(self, monkeypatch, capsys):
        # a chunk's channels and noise drawn in reversed seed order: each frame alone
        # is unaffected, so only the chunk-against-run_trial comparison can catch it
        import rbdmimo.sim as sim_mod

        draw = sim_mod._chunk_normals
        monkeypatch.setattr(sim_mod, "_chunk_normals", lambda groups: draw([(s[::-1], n, v) for s, n, v in groups]))
        failures = run_selftest(seed=7)
        lines = capsys.readouterr().out.splitlines()
        assert [f.split(":")[0] for f in failures] == ["trial determinism"]
        assert "FAIL trial determinism: chunk errors" in "\n".join(lines)

    def test_cli_reports_failure_exit_1(self, capsys, monkeypatch):
        import rbdmimo.cli as cli_mod

        def failing_selftest(seed):
            print("FAIL demo check")
            return ["demo check: boom"]

        monkeypatch.setattr(cli_mod, "run_selftest", lambda seed: failing_selftest(seed))
        assert main(["selftest"]) == 1


class TestUsage:
    def test_no_command_exit_2(self):
        assert main([]) == 2

    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2
