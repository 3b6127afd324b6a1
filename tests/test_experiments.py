import json

import numpy as np
import pytest

from infmc import factorized
from infmc.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    MetricRow,
    MetricSeries,
    _counting_likelihoods,
    emit,
    run_dmm,
    run_gauss,
    run_theorem_suite,
)
from infmc.factorized import inflate
from infmc.models import DmmSpec, dmm_init_proposal, dmm_model, make_synthetic
from infmc.rng import RandomSource


def tiny_gauss_config(**overrides):
    base = dict(
        experiment="gauss-centered",
        seed=42,
        budgets=(200, 400),
        replications=3,
        group_size=100,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_budgets_must_increase(self):
        with pytest.raises(ValueError):
            tiny_gauss_config(budgets=(400, 200))
        with pytest.raises(ValueError):
            tiny_gauss_config(budgets=(200, 200))
        with pytest.raises(ValueError, match="one or more"):
            tiny_gauss_config(budgets=())

    def test_true_means_name_both_components(self):
        for means in [(1.0,), (-2.0, 0.0, 2.0)]:
            with pytest.raises(ValueError, match="two component means"):
                tiny_gauss_config(true_means=means)
            with pytest.raises(ValueError, match="two component means"):
                ExperimentConfig("dmm-gauss", seed=1, true_means=means)

    def test_replications_floor(self):
        below_floor = [
            ("replications", 1), ("workers", 0), ("group_size", 0), ("generations", 0), ("inner_draws", 0),
            ("data_count", 0), ("kernel_bandwidth", 0.0), ("kernel_cv", 0.0),
            ("mixing", -0.1), ("mixing", 1.5),
        ]
        for field, value in below_floor:
            with pytest.raises(ValueError):
                tiny_gauss_config(**{field: value})

    def test_unset_budgets_and_replications_resolve_per_family(self, tmp_path):
        path = tmp_path / "dmm.cfg"
        path.write_text("schema_version = 1\nexperiment = dmm-gauss\nseed = 1\n")
        for cfg in (ExperimentConfig("dmm-t", seed=1), ExperimentConfig(**ExperimentConfig.read_file(path))):
            assert (cfg.budgets, cfg.replications) == ((2000,), 25)
        gauss = ExperimentConfig("gauss-offcenter", seed=1)
        assert (gauss.budgets, gauss.replications) == ((200, 2000, 20000), 50)
        explicit = ExperimentConfig("dmm-gauss", seed=1, budgets=(40, 80), replications=3)
        assert (explicit.budgets, explicit.replications) == ((40, 80), 3)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            tiny_gauss_config(experiment="gauss-diagonal")

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "\n".join(
                [
                    "# comment line",
                    "schema_version = 1",
                    "experiment = gauss-centered",
                    "seed = 7",
                    "budgets = 100, 200",
                    "replications = 4",
                    "method = plain",
                    "sanity_fq = true",
                    "kernel_bandwidth = 0.5",
                ]
            )
        )
        cfg = ExperimentConfig(**ExperimentConfig.read_file(path))
        assert cfg.seed == 7
        assert cfg.budgets == (100, 200)
        assert cfg.method == "plain"
        assert cfg.sanity_fq is True
        assert cfg.kernel_bandwidth == 0.5

    def test_config_file_requires_schema_version(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = gauss-centered\nseed = 1\n")
        with pytest.raises(ValueError):
            ExperimentConfig(**ExperimentConfig.read_file(path))

    def test_config_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("schema_version = 1\nexperiment = gauss-centered\nseed = 1\nbogus = 3\n")
        with pytest.raises(ValueError):
            ExperimentConfig(**ExperimentConfig.read_file(path))


class TestMetricRow:
    def test_bias_variance_identity_enforced(self):
        with pytest.raises(ValueError):
            MetricRow("gauss-centered", "plain", 100, 5, 0, squared_bias=1.0, variance=1.0,
                      mse=1.0, mean_estimate=0.0, log_evidence_mse=0.0, wall_seconds=0.0)

    def test_mse_at_least_variance(self):
        with pytest.raises(ValueError):
            MetricRow("gauss-centered", "plain", 100, 5, 0, squared_bias=0.0, variance=2.0,
                      mse=1.0, mean_estimate=0.0, log_evidence_mse=0.0, wall_seconds=0.0)


class TestRunGauss:
    def test_row_shape_and_budget_order(self):
        series = run_gauss(tiny_gauss_config())
        # 2 budgets x 2 methods x 2 components
        assert len(series) == 8
        assert [r.budget for r in series.rows] == [200] * 4 + [400] * 4
        assert {r.method for r in series.rows} == {"plain", "inflated"}

    def test_mse_decomposition_against_direct_mean(self):
        # the stored mse must match a directly computed mean squared error
        cfg = tiny_gauss_config(replications=6, budgets=(200,), method="plain")
        series = run_gauss(cfg)
        from infmc.experiments import _gauss_setup, gauss_replication
        from infmc.rng import RandomSource

        toy, center, model, prop = _gauss_setup(cfg)
        root = RandomSource(cfg.seed)
        est = np.array(
            [
                gauss_replication(toy, model, prop, center, 200, 100, root.child(0, r), ("plain",))[
                    "plain"
                ]["expectation"]
                for r in range(6)
            ]
        )
        for comp in range(2):
            direct = float(np.mean(est[:, comp] ** 2))
            row = series.rows[comp]
            assert abs(row.mse - direct) <= 1e-9 * max(1.0, row.mse)

    def test_budget_divisibility_validation(self):
        with pytest.raises(ValueError):
            run_gauss(tiny_gauss_config(budgets=(150,)))
        with pytest.raises(ValueError):
            run_gauss(tiny_gauss_config(budgets=(50, 100), group_size=100))

    def test_sanity_mode_unit_weights(self):
        from infmc.experiments import _gauss_setup, gauss_replication
        from infmc.rng import RandomSource

        cfg = tiny_gauss_config(sanity_fq=True, budgets=(200, 2000), replications=4)
        toy, center, model, prop = _gauss_setup(cfg)
        for r in range(3):
            rep = gauss_replication(
                toy, model, prop, center, 200, 100, RandomSource(5).child(r), sanity=True
            )
            assert rep["plain"]["log_evidence"] == 0.0  # unit weights, exactly
        series = run_gauss(cfg)
        for row in series.rows:
            assert row.log_evidence_mse == 0.0
        small = [r for r in series.rows if r.budget == 200 and r.method == "plain"]
        large = [r for r in series.rows if r.budget == 2000 and r.method == "plain"]
        assert sum(r.mse for r in large) < sum(r.mse for r in small)

    def test_determinism_and_worker_invariance(self):
        a = run_gauss(tiny_gauss_config())
        b = run_gauss(tiny_gauss_config())
        c = run_gauss(tiny_gauss_config(workers=3))
        strip = lambda series: [
            {k: v for k, v in rec.items() if k != "wall_seconds"} for rec in series.to_records()
        ]
        assert strip(a) == strip(b) == strip(c)

    def test_offcenter_proposal_inflates_error(self):
        # proposing five target deviations away leaves both methods far worse
        # than the centered run at the same budget
        centered = run_gauss(tiny_gauss_config(budgets=(2000,), replications=4))
        offcenter = run_gauss(
            tiny_gauss_config(experiment="gauss-offcenter", budgets=(2000,), replications=4)
        )
        for method in ("plain", "inflated"):
            mse_c = sum(r.mse for r in centered.rows if r.method == method)
            mse_o = sum(r.mse for r in offcenter.rows if r.method == method)
            assert mse_o > 10 * mse_c


class TestRunDmm:
    def test_smoke_run_records_parity_and_traces(self):
        cfg = ExperimentConfig(
            experiment="dmm-gauss", seed=11, budgets=(40,), replications=2,
            generations=2, data_count=30,
        )
        series, traces = run_dmm(cfg)
        assert len(series) == 4  # 1 budget x 2 methods x 2 components
        assert len(traces) == 2
        for record in traces:
            assert record["plain"]["block_evals"] == record["inflated"]["block_evals"]
            assert len(record["plain"]["best_log_likelihood"]) == 2
            assert len(record["inflated"]["best_marginal_so_far"]) == 2
        for row in series.rows:
            assert np.isnan(row.log_evidence_mse)

    def test_budget_must_divide_generations(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                experiment="dmm-gauss", seed=11, budgets=(45,), replications=2,
                generations=2, data_count=20,
            )

    def test_single_generation_trace(self):
        cfg = ExperimentConfig(
            experiment="dmm-gauss", seed=17, budgets=(20,), replications=2,
            generations=1, data_count=20,
        )
        series, traces = run_dmm(cfg)
        assert len(series) == 4
        for record in traces:
            assert len(record["plain"]["best_log_likelihood"]) == 1
            assert len(record["inflated"]["estimate_error"]) == 1

    def test_student_t_variant_runs(self):
        cfg = ExperimentConfig(
            experiment="dmm-t", seed=13, budgets=(40,), replications=2,
            generations=2, data_count=20,
        )
        series, traces = run_dmm(cfg)
        assert len(series) == 4
        assert all(np.isfinite(r.mean_estimate) for r in series.rows)

    def test_worker_invariance(self):
        base = dict(
            experiment="dmm-gauss", seed=21, budgets=(40,), replications=3,
            generations=2, data_count=20,
        )
        serial, traces_serial = run_dmm(ExperimentConfig(**base))
        threaded, traces_threaded = run_dmm(ExperimentConfig(**base, workers=3))
        strip = lambda series: [
            {k: repr(v) for k, v in rec.items() if k != "wall_seconds"}  # repr: nan == nan
            for rec in series.to_records()
        ]
        assert strip(serial) == strip(threaded)
        for a, b in zip(traces_serial, traces_threaded):
            assert a["plain"]["best_log_likelihood"] == b["plain"]["best_log_likelihood"]
            assert a["inflated"]["final_estimate"] == b["inflated"]["final_estimate"]


class TestTheoremSuite:
    def test_default_run_passes(self):
        report = run_theorem_suite(seed=5, instances=40, inflation_instances=25)
        assert report.passed
        names = {c.name for c in report.checks}
        assert "union-decomposition-standard" in names
        assert "union-decomposition-self-normalized" in names
        assert "error-convexity-bound" in names
        assert "union-decomposition-600-log-units" in names
        assert "recombination-cache-vs-oracle" in names
        for check in report.checks:
            if check.name.startswith("union-decomposition") and "600" not in check.name:
                assert check.worst < 1e-10
        payload = report.to_dict()
        assert payload["schema_version"] == 1
        assert payload["passed"] is True

    def test_adversarial_span_stays_below_loose_tolerance(self):
        report = run_theorem_suite(seed=6, instances=10, inflation_instances=5)
        adv = next(c for c in report.checks if "600" in c.name)
        assert adv.worst < 1e-8

    def test_eval_count_check_counts_likelihood_calls(self, monkeypatch):
        # a second scoring of every block leaves the weights alone but doubles the cost
        original = factorized._block_terms

        def scored_twice(*args):
            original(*args)
            return original(*args)

        monkeypatch.setattr(factorized, "_block_terms", scored_twice)
        report = run_theorem_suite(seed=7, instances=1, inflation_instances=5)
        checks = {c.name: c for c in report.checks}
        assert checks["recombination-cache-vs-oracle"].passed
        assert not checks["recombination-eval-count"].passed
        assert checks["recombination-eval-count"].worst == 5.0

    def test_a_tuple_valued_block_counts_one_per_value(self):
        # dmm-t's block value is (mean, variance, df): three floats, one value
        spec = DmmSpec(make_synthetic("student-t", (-2.0, 2.0), 4, count=20).observations, "student-t")
        model, counts = _counting_likelihoods(dmm_model(spec))
        inflate(model, dmm_init_proposal(spec), 3, 2, RandomSource(1))
        assert counts == [3 * 2] * 2  # one call per block, on its (6, 3) parameter sets
        model.block_log_likelihoods[0]((np.array([0.5, 0.5]), np.zeros(20, dtype=int)), (0.0, 1.0, 5.0))
        assert counts[-1] == 1

    def test_instance_counts_floor(self):
        for counts in (dict(instances=0), dict(inflation_instances=0)):
            with pytest.raises(ValueError):
                run_theorem_suite(seed=6, **counts)


class TestEmit:
    def _series(self):
        rows = [
            MetricRow("gauss-centered", m, b, 5, c, 0.25, 0.5, 0.75, 0.1, 0.01, 1.5)
            for b in (100, 200)
            for m in ("plain", "inflated")
            for c in (0, 1)
        ]
        return MetricSeries(rows)

    def test_csv_rows_and_header(self, tmp_path):
        path = tmp_path / "out.csv"
        emit(self._series(), path, "csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 9  # 2 budgets x 2 methods x 2 components + header

    def test_json_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "out.json"
        series = self._series()
        emit(series, path, "json")
        payload = json.loads(path.read_text())
        rebuilt = MetricSeries.from_records(payload["rows"])
        assert rebuilt.to_records() == series.to_records()

    def test_empty_series_refused_without_file(self, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            emit(MetricSeries([]), path, "csv")
        assert not path.exists()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit(self._series(), tmp_path / "x", "yaml")
