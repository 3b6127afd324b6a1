import json

import numpy as np
import pytest

from infmc.cli import main
from infmc.models import load_dataset


class TestGaussCommand:
    def test_writes_metrics_csv(self, tmp_path, capsys):
        out = tmp_path / "gauss.csv"
        code = main([
            "gauss", "--seed", "42", "--budgets", "200,400", "--replications", "2",
            "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("experiment,method,budget")
        assert len(lines) == 9

    def test_seed_is_mandatory(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gauss", "--output", str(tmp_path / "x.csv")])

    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "schema_version = 1\nexperiment = gauss-centered\nseed = 1\n"
            "budgets = 200\nreplications = 2\nmethod = plain\n"
        )
        out = tmp_path / "from_config.csv"
        code = main(["gauss", "--seed", "1", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        assert out.exists()


class TestConfigPrecedence:
    """A flag beats the config file, which beats the subcommand's default experiment."""

    SMALL_RUN = {
        "gauss": ["--budgets", "200"],
        "dmm": ["--budgets", "40", "--generations", "2", "--data-count", "20"],
    }

    @pytest.mark.parametrize("command, config_line, flags, expected", [
        ("gauss", "experiment = gauss-offcenter", [], "gauss-offcenter"),
        ("dmm", "experiment = dmm-t", [], "dmm-t"),
        ("gauss", "experiment = gauss-offcenter", ["--experiment", "gauss-centered"], "gauss-centered"),
        ("gauss", "method = plain", [], "gauss-centered"),
        ("dmm", "method = plain", [], "dmm-gauss"),
    ])
    def test_flag_then_file_then_subcommand_default(self, tmp_path, command, config_line, flags, expected):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"schema_version = 1\n{config_line}\n")
        out = tmp_path / "out.csv"
        code = main([
            command, "--seed", "1", "--config", str(cfg), *self.SMALL_RUN[command],
            "--replications", "2", "--method", "plain", "--output", str(out), *flags,
        ])
        assert code == 0
        assert {line.split(",")[0] for line in out.read_text().splitlines()[1:]} == {expected}

    def test_other_familys_experiment_is_a_usage_error(self, tmp_path, capsys):
        for command, experiment in (("gauss", "dmm-gauss"), ("dmm", "gauss-centered")):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"schema_version = 1\nexperiment = {experiment}\n")
            out = tmp_path / "never.csv"
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--seed", "1", "--config", str(cfg), "--output", str(out)])
            assert exit_info.value.code == 2
            assert f"cannot run experiment {experiment!r}" in capsys.readouterr().err
            assert not out.exists()


class TestDmmCommand:
    def test_writes_metrics_and_traces(self, tmp_path):
        out = tmp_path / "dmm.csv"
        traces = tmp_path / "dmm_traces.json"
        code = main([
            "dmm", "--seed", "3", "--budgets", "40", "--replications", "2",
            "--generations", "2", "--data-count", "20",
            "--output", str(out), "--traces", str(traces),
        ])
        assert code == 0
        assert out.exists()
        payload = json.loads(traces.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["runs"]) == 2
        run = payload["runs"][0]
        assert run["plain"]["block_evals"] == run["inflated"]["block_evals"]


class TestTheoremsCommand:
    def test_passing_suite_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["theorems", "--seed", "9", "--instances", "25", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])


class TestEmitDataCommand:
    def test_round_trips_through_loader(self, tmp_path):
        out = tmp_path / "data.txt"
        code = main([
            "emit-data", "--seed", "7", "--kind", "student-t", "--means=-1.5,2.5",
            "--count", "60", "--output", str(out),
        ])
        assert code == 0
        ds = load_dataset(out)
        assert ds.kind == "student-t"
        assert ds.seed == 7
        assert ds.true_means == (-1.5, 2.5)
        assert ds.observations.size == 60
        assert np.isfinite(ds.observations).all()


class TestUsageErrors:
    def test_invalid_input_is_a_usage_error(self, tmp_path, tmp_path_factory, capsys):
        three_means = tmp_path_factory.mktemp("config") / "three-means.cfg"
        three_means.write_text(
            "schema_version = 1\nexperiment = dmm-gauss\nbudgets = 40\ngenerations = 2\ndata_count = 20\n"
            f"replications = 2\ntrue_means = -2, 0, 2\noutput = {tmp_path / 'never.csv'}\n"
        )
        cases = [
            (["dmm", "--config", str(three_means)], "true_means must give the two component means"),
            (["gauss", "--group-size", "0"], "group_size must be >= 1"),
            (["dmm", "--mixing", "1.5"], "mixing must lie in [0, 1]"),
            (["theorems", "--instances", "0"], "instances must be >= 1"),
            (["gauss", "--budgets", "150"], "budget 150 must be a positive multiple of group_size 100"),
            (["dmm", "--budgets", "45"], "budget 45 must split into 20 generations"),
            (["emit-data", "--count", "0"], "count must be >= 1"),
            (["emit-data", "--means", "nan,0"], "means must be finite"),
            (["dmm", "--means", "inf,0"], "true_means must give the two component means, finite"),
            (["dmm", "--kernel-bandwidth", "inf"], "kernel_bandwidth must be positive and finite"),
            (["dmm", "--kernel-cv", "nan"], "kernel_cv must be positive and finite"),
        ]
        for argv, message in cases:
            out = tmp_path / "never.csv"
            with pytest.raises(SystemExit) as exit_info:
                main([*argv, "--seed", "1", "--output", str(out)])
            assert exit_info.value.code == 2
            assert message in capsys.readouterr().err
            assert not out.exists()
        for command in ("gauss", "dmm", "theorems", "emit-data"):
            out = tmp_path / "never.csv"
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--seed", "-1", "--output", str(out)])
            assert exit_info.value.code == 2
            assert "seed must be a nonnegative integer, got '-1'" in capsys.readouterr().err
            assert not out.exists()
        for argv in (["gauss"], ["dmm", "--traces", str(tmp_path / "never.json")]):
            with pytest.raises(SystemExit) as exit_info:
                main([*argv, "--seed", "1"])  # the defaults would run for minutes
            assert exit_info.value.code == 2
            assert "an --output path is required" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["gauss", "dmm"])
    def test_output_that_names_no_file_is_refused_before_the_run(self, tmp_path, capsys, command):
        for output in ("", str(tmp_path)):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--seed", "1", "--output", output])  # the defaults would run for minutes
            assert exit_info.value.code == 2
            assert f"--output must name a file, got {output!r}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
