import argparse
import dataclasses
import json

import numpy as np
import pytest

from infmc.cli import _parser, main
from infmc.experiments import ExperimentConfig
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


class TestPlainMethod:
    """The plain method never groups its draws, so only the inflated method's
    grouping constrains ``group_size`` and ``inner_draws``."""

    @pytest.mark.parametrize("argv", [
        ["gauss", "--budgets", "150"],
        ["dmm", "--inner-draws", "3", "--budgets", "40", "--generations", "2", "--data-count", "20"],
    ], ids=["gauss-group-size", "dmm-inner-draws"])
    def test_runs_where_inflated_grouping_would_not_fit(self, tmp_path, argv):
        out = tmp_path / "plain.csv"
        code = main([*argv, "--seed", "1", "--method", "plain", "--replications", "2", "--output", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 2 and {row.split(",")[1] for row in rows} == {"plain"}


def test_gauss_and_dmm_flags_are_the_config_fields():
    """Every ``gauss``/``dmm`` option but ``--config``, ``--traces`` and
    ``--help`` sets one ``ExperimentConfig`` field, and every field has one."""
    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    dests = {
        action.dest
        for command in ("gauss", "dmm")
        for action in commands[command]._actions
        if action.option_strings and action.dest not in ("config", "traces", "help")
    }
    assert dests == {f.name for f in dataclasses.fields(ExperimentConfig)}


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
        # without the refusal this small run would go ahead at --seed 1
        other_seed = tmp_path_factory.mktemp("config") / "other-seed.cfg"
        other_seed.write_text("schema_version = 1\nseed = 42\nbudgets = 200\nreplications = 2\n")
        bad_budget = tmp_path_factory.mktemp("config") / "bad-budget.cfg"
        bad_budget.write_text("schema_version = 1\nbudgets = 200, x\n")
        cases = [
            (["dmm", "--config", str(three_means)], "true_means must give the two component means"),
            (["gauss", "--group-size", "0"], "group_size must be >= 1"),
            (["theorems", "--instances", "0"], "instances must be >= 1"),
            (["gauss", "--budgets", "150"], "budget 150 must be a positive multiple of group_size 100"),
            (["dmm", "--budgets", "45"], "budget 45 must split into 20 generations"),
            (["emit-data", "--count", "0"], "count must be >= 1"),
            (["emit-data", "--means", "nan,0"], "means must be finite"),
            (["dmm", "--means", "inf,0"], "true_means must give the two component means, finite"),
            (
                ["dmm", "--budgets", "10001", "--generations", "1", "--inner-draws", "10001", "--replications", "2"],
                "budget 10001 at inner_draws 10001 makes 100020001 combinations per generation, beyond the cap",
            ),
            (["gauss", "--config", str(other_seed)], "the config file's seed 42 differs from --seed 1"),
            (["gauss", "--config", str(bad_budget)], "invalid budgets value '200, x'"),
            (["gauss", "--budgets", "200,x"], "invalid budgets value '200,x'"),
            (
                ["dmm", "--method", "both", "--inner-draws", "3", "--budgets", "40", "--generations", "2"],
                "budget 40 must split into 2 generations, each a positive multiple of inner_draws 3",
            ),
            (  # the traces would replace the metrics
                ["dmm", "--budgets", "40", "--generations", "2", "--replications", "2", "--data-count", "20",
                 "--traces", f"{tmp_path}/./never.csv"],
                "--output and --traces name the same file",
            ),
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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gauss", "--output", "{path}"], "--output"),
            (["dmm", "--output", "{path}"], "--output"),
            (["emit-data", "--output", "{path}"], "--output"),
            (["theorems", "--output", "{path}"], "--output"),
            (["dmm", "--output", "{file}", "--traces", "{path}"], "--traces"),
            (["gauss", "--config", "{path}", "--output", "{file}"], "--config"),
        ],
        ids=["gauss", "dmm", "emit-data", "theorems", "dmm-traces", "gauss-config"],
    )
    def test_path_that_names_no_file_is_refused_before_any_work(self, tmp_path, capsys, argv, flag):
        paths = ["", str(tmp_path), str(tmp_path / "missing" / "never.csv")]
        expected = "a file in an existing directory"
        if flag == "--config":
            paths, expected = [*paths, str(tmp_path / "never.cfg")], "an existing file"
        for path in paths:
            filled = [arg.format(path=path, file=tmp_path / "never.csv") for arg in argv]
            with pytest.raises(SystemExit) as exit_info:
                main([*filled, "--seed", "1"])  # the defaults would run for minutes
            assert exit_info.value.code == 2
            assert f"{flag} must name {expected}, got {path!r}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
