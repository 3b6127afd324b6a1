import gc
import json
import math
import re
import threading
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from infmc import estimators, experiments, factorized
from infmc.experiments import (
    CSV_COLUMNS,
    METHODS,
    ExperimentConfig,
    MetricRow,
    _counting_likelihoods,
    emit,
    gauss_replication,
    run_dmm,
    run_gauss,
    run_theorem_suite,
)
from infmc.factorized import inflate
from infmc.models import DmmSpec, dmm_init_proposal, dmm_model, make_synthetic
from infmc.pmc import trace_metrics
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

    def test_budgets_must_be_integers(self):
        with pytest.raises(ValueError, match="budget 200.9 must be an integer"):
            tiny_gauss_config(budgets=(200.9, 2000), replications=2)
        with pytest.raises(ValueError, match="budgets 200 must be a sequence of integers"):
            tiny_gauss_config(budgets=200)
        assert tiny_gauss_config(budgets=(np.int64(200), 400)).budgets == (200, 400)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("replications", 2.5),
            ("workers", 1.5),
            ("group_size", 2.5),
            ("generations", 2.5),
            ("inner_draws", 2.0),
            ("data_count", 20.5),
            ("seed", None),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", "3"),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        settings = {"seed": 1, "budgets": (200,), field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} {value!r} must be an integer")):
            ExperimentConfig("gauss-centered", **settings)

    def test_true_means_name_both_components(self):
        for means in [(1.0,), (-2.0, 0.0, 2.0), ("a", "b"), 3.0]:
            with pytest.raises(ValueError, match="two component means"):
                tiny_gauss_config(true_means=means)
            with pytest.raises(ValueError, match="two component means"):
                ExperimentConfig("dmm-gauss", seed=1, true_means=means)

    def test_replications_floor(self):
        below_floor = [
            ("replications", 1), ("workers", 0), ("group_size", 0), ("generations", 0), ("inner_draws", 0),
            ("data_count", 0),
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

    @pytest.mark.parametrize("field, value", [("method", "neither"), ("format", "xml")])
    def test_unknown_method_or_format(self, field, value):
        with pytest.raises(ValueError, match=f"unknown {field} '{value}'"):
            tiny_gauss_config(**{field: value})

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
                    "true_means = -1.5, 2.5",
                ]
            )
        )
        cfg = ExperimentConfig(**ExperimentConfig.read_file(path))
        assert cfg.seed == 7
        assert cfg.budgets == (100, 200)
        assert cfg.method == "plain"
        assert cfg.true_means == (-1.5, 2.5)

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

    def test_config_file_rejects_a_repeated_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("schema_version = 1\nexperiment = gauss-centered\nseed = 1\nseed = 2\n")
        with pytest.raises(ValueError, match="'seed' is given more than once"):
            ExperimentConfig.read_file(path)

    def test_config_file_rejects_a_line_without_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("schema_version = 1\nexperiment gauss-centered\n")
        with pytest.raises(ValueError, match="config line without '=': 'experiment gauss-centered'"):
            ExperimentConfig.read_file(path)


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
        rows = run_gauss(tiny_gauss_config())
        # 2 budgets x 2 methods x 2 components
        assert len(rows) == 8
        assert [r.budget for r in rows] == [200] * 4 + [400] * 4
        assert {r.method for r in rows} == {"plain", "inflated"}

    def test_mse_decomposition_against_direct_mean(self):
        # the stored mse must match a directly computed mean squared error
        cfg = tiny_gauss_config(replications=6, budgets=(200,), method="plain")
        rows = run_gauss(cfg)
        root = RandomSource(cfg.seed)
        est = np.array([gauss_replication(cfg, 200, root.child(0, r))["plain"]["expectation"] for r in range(6)])
        for comp in range(2):
            direct = float(np.mean(est[:, comp] ** 2))
            row = rows[comp]
            assert abs(row.mse - direct) <= 1e-9 * max(1.0, row.mse)

    def test_budget_divisibility_validation(self):
        with pytest.raises(ValueError):
            run_gauss(tiny_gauss_config(budgets=(150,)))
        with pytest.raises(ValueError):
            run_gauss(tiny_gauss_config(budgets=(50, 100), group_size=100))

    def test_each_runner_refuses_the_other_family(self):
        with pytest.raises(ValueError, match="run_gauss cannot run 'dmm-gauss'"):
            run_gauss(ExperimentConfig("dmm-gauss", seed=1))
        with pytest.raises(ValueError, match="run_dmm cannot run 'gauss-centered'"):
            run_dmm(tiny_gauss_config())

    def test_determinism_and_worker_invariance(self):
        a = run_gauss(tiny_gauss_config())
        b = run_gauss(tiny_gauss_config())
        c = run_gauss(tiny_gauss_config(workers=3))
        strip = lambda rows: [{k: v for k, v in asdict(row).items() if k != "wall_seconds"} for row in rows]
        assert strip(a) == strip(b) == strip(c)

    def test_offcenter_proposal_inflates_error(self):
        # proposing five target deviations away leaves both methods far worse
        # than the centered run at the same budget
        centered = run_gauss(tiny_gauss_config(budgets=(2000,), replications=4))
        offcenter = run_gauss(
            tiny_gauss_config(experiment="gauss-offcenter", budgets=(2000,), replications=4)
        )
        for method in ("plain", "inflated"):
            mse_c = sum(r.mse for r in centered if r.method == method)
            mse_o = sum(r.mse for r in offcenter if r.method == method)
            assert mse_o > 10 * mse_c


class TestRunDmm:
    def test_smoke_run_records_parity_and_traces(self):
        cfg = ExperimentConfig(
            experiment="dmm-gauss", seed=11, budgets=(40,), replications=2,
            generations=2, data_count=30,
        )
        rows, traces = run_dmm(cfg)
        assert len(rows) == 4  # 1 budget x 2 methods x 2 components
        assert len(traces) == 2
        for record in traces:
            assert record["plain"]["block_evals"] == record["inflated"]["block_evals"]
            assert len(record["plain"]["best_log_likelihood"]) == 2
            assert len(record["inflated"]["best_marginal_so_far"]) == 2
        for row in rows:
            assert np.isnan(row.log_evidence_mse)

    @pytest.mark.parametrize("method", ["plain", "inflated"])
    def test_a_method_run_alone_reproduces_its_traces_in_both(self, method):
        base = dict(experiment="dmm-gauss", seed=42, budgets=(40,), replications=2, generations=2, data_count=20)
        _, both = run_dmm(ExperimentConfig(**base))
        _, alone = run_dmm(ExperimentConfig(**base, method=method))
        assert [record[method] for record in alone] == [record[method] for record in both]

    def test_each_trace_ends_at_its_final_error(self):
        """Every generation's estimate error is taken after label alignment,
        as the final error is; at this seed some runs switch labels."""
        cfg = ExperimentConfig(
            experiment="dmm-gauss", seed=42, budgets=(200,), replications=2, generations=5, data_count=40,
        )
        _, traces = run_dmm(cfg)
        for record in traces:
            for method in ("plain", "inflated"):
                run = record[method]
                assert run["estimate_error"][-1] == run["final_error"], (record["replication"], method)

    def test_one_methods_generations_are_alive_at_a_time(self, monkeypatch):
        """By the inflated run's start, the plain run's generations and their labels are freed."""
        first_run, alive_at_second_call = [], []
        original = experiments.run_pmc

        def run_pmc(*args, **kwargs):
            if first_run:
                gc.collect()
                alive_at_second_call.append(sum(ref() is not None for ref in first_run))
            generations = original(*args, **kwargs)
            if not first_run:
                first_run.extend(weakref.ref(g) for g in generations)
                first_run.extend(weakref.ref(g.sample_set.global_values[1]) for g in generations)
            return generations

        monkeypatch.setattr(experiments, "run_pmc", run_pmc)
        cfg = ExperimentConfig(experiment="dmm-gauss", seed=11, budgets=(40,), replications=2, generations=2,
                               data_count=30)
        experiments.dmm_replication(cfg, 40, RandomSource(11).child(0, 0))
        assert len(first_run) == 4 and alive_at_second_call == [0]

    @pytest.mark.parametrize("experiment, family", [("dmm-gauss", "gaussian"), ("dmm-t", "student-t")])
    def test_the_recorded_dataset_seed_regenerates_the_data(self, monkeypatch, experiment, family):
        """A replication's data is drawn in process; its recorded seed is all it takes to draw it again."""
        seen = []
        original = experiments.DmmSpec

        def spec(data, component_family):
            seen.append(data)
            return original(data, component_family)

        monkeypatch.setattr(experiments, "DmmSpec", spec)
        cfg = ExperimentConfig(experiment=experiment, seed=11, budgets=(40,), replications=2, generations=2,
                               data_count=30, true_means=(-1.5, 2.5))
        out = experiments.dmm_replication(cfg, 40, RandomSource(11).child(0, 0))
        assert len(seen) == 1
        assert np.array_equal(seen[0], make_synthetic(family, (-1.5, 2.5), out["dataset_seed"], count=30))

    def test_budget_must_divide_generations(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                experiment="dmm-gauss", seed=11, budgets=(45,), replications=2,
                generations=2, data_count=20,
            )

    def test_diagnostic_labels_beyond_the_cap_are_refused_before_running(self):
        # 4 * 10**6 combinations per generation are within the cap; their 100 labels each are not
        with pytest.raises(ValueError, match="400000000 labels at data_count 100 exceed 100000000"):
            ExperimentConfig("dmm-gauss", 1, budgets=(2000,), generations=1, inner_draws=2000)
        ExperimentConfig("dmm-gauss", 1, budgets=(2000,), generations=1, inner_draws=2000, data_count=25)

    def test_the_label_cap_counts_the_replications_in_flight(self):
        # 10**6 combinations x 100 labels reach the cap on one worker; a second replication in flight passes it
        config = dict(budgets=(2000,), generations=1, inner_draws=500)
        ExperimentConfig("dmm-gauss", 1, **config, workers=1)
        with pytest.raises(ValueError, match="200000000 labels at data_count 100 exceed 100000000 over 2 replications on 2 workers"):
            ExperimentConfig("dmm-gauss", 1, **config, workers=2)
        # no more replications run at once than there are
        ExperimentConfig("dmm-gauss", 1, **config, workers=3, replications=2, data_count=50)

    @pytest.mark.parametrize("cap, refused", [(19999, True), (20000, False)])
    def test_the_label_count_reads_the_cap_at_call_time(self, monkeypatch, cap, refused):
        # the default mixture generation: 50 outer draws x 2^2 combinations x 100 observations
        monkeypatch.setattr(factorized, "MAX_UNCAPPED_COMBINATIONS", cap)
        if refused:
            with pytest.raises(ValueError, match="20000 labels"):
                ExperimentConfig("dmm-t", 1)
        else:
            ExperimentConfig("dmm-t", 1)

    def test_single_generation_trace(self):
        cfg = ExperimentConfig(
            experiment="dmm-gauss", seed=17, budgets=(20,), replications=2,
            generations=1, data_count=20,
        )
        rows, traces = run_dmm(cfg)
        assert len(rows) == 4
        for record in traces:
            assert len(record["plain"]["best_log_likelihood"]) == 1
            assert len(record["inflated"]["estimate_error"]) == 1

    def test_student_t_variant_runs(self):
        cfg = ExperimentConfig(
            experiment="dmm-t", seed=13, budgets=(40,), replications=2,
            generations=2, data_count=20,
        )
        rows, traces = run_dmm(cfg)
        assert len(rows) == 4
        assert all(np.isfinite(r.mean_estimate) for r in rows)

    def test_worker_invariance(self):
        base = dict(
            experiment="dmm-gauss", seed=21, budgets=(40,), replications=3,
            generations=2, data_count=20,
        )
        serial, traces_serial = run_dmm(ExperimentConfig(**base))
        threaded, traces_threaded = run_dmm(ExperimentConfig(**base, workers=3))
        strip = lambda rows: [
            {k: repr(v) for k, v in asdict(row).items() if k != "wall_seconds"}  # repr: nan == nan
            for row in rows
        ]
        assert strip(serial) == strip(threaded)
        for a, b in zip(traces_serial, traces_threaded):
            assert a["plain"]["best_log_likelihood"] == b["plain"]["best_log_likelihood"]
            assert a["inflated"]["final_estimate"] == b["inflated"]["final_estimate"]


class TestReplicate:
    """The replication driver's submission window, order and failure path,
    with a stub replication that records its index as it starts."""

    @staticmethod
    def indexing_stub(cfg, fail_at=None, result=lambda r: r):
        # a replication's index, read off its stream's first draw
        root = RandomSource(cfg.seed)
        index = {int(root.child(0, r).generator.integers(2**63)): r for r in range(cfg.replications)}
        started = []

        def stub(cfg, budget, src):
            r = index[int(src.generator.integers(2**63))]
            started.append(r)
            if r == fail_at:
                raise ValueError(f"replication {r} failed")
            return result(r)

        return stub, started

    @pytest.mark.parametrize("workers", [1, 2])
    def test_submits_at_most_two_per_worker_and_yields_in_order(self, workers):
        cfg = tiny_gauss_config(budgets=(200,), replications=50, workers=workers)
        stub, started = self.indexing_stub(cfg)
        (budget, results), = experiments._replicate(cfg, stub)
        assert budget == 200
        results = iter(results)
        first = next(results)
        assert first == 0 and len(started) <= 2 * workers
        assert [first, *results] == list(range(50))

    class Output(dict):
        """A stub replication's result: a dict that a weak reference can track."""

    @classmethod
    def shaped_result(cls, cfg):
        """A stub result shaped like the replication function's that ``cfg``'s runner calls."""
        if cfg.experiment in experiments.GAUSS_EXPERIMENTS:
            return lambda r: cls.Output(
                {method: {"expectation": np.zeros(2), "log_evidence": 0.0, "wall": 0.0} for method in METHODS})
        series = np.arange(cfg.generations, dtype=float)

        def result(r):
            method_result = lambda: {
                "estimate": np.array(cfg.true_means, dtype=float), "error": 0.0,
                "trace": trace_metrics(series, series, np.full(cfg.generations, 2)), "best_marginal": series,
                "block_evals": 2 * cfg.generations, "samples_per_generation": 1, "wall": 0.0,
            }
            return cls.Output(truth=np.array(cfg.true_means), dataset_seed=r, **{m: method_result() for m in METHODS})

        return result

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("runner, target", [(run_gauss, "gauss_replication"), (run_dmm, "dmm_replication")])
    def test_a_failing_replication_cancels_the_queue(self, monkeypatch, runner, target, workers):
        experiment = "gauss-centered" if runner is run_gauss else "dmm-gauss"
        cfg = ExperimentConfig(experiment, 42, budgets=(200,), replications=50, workers=workers)
        stub, started = self.indexing_stub(cfg, fail_at=5, result=self.shaped_result(cfg))
        monkeypatch.setattr(experiments, target, stub)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="replication 5 failed"):
            runner(cfg)
        assert max(started) < 5 + 2 * workers
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("runner, target", [(run_gauss, "gauss_replication"), (run_dmm, "dmm_replication")])
    def test_results_are_released_as_they_are_reduced(self, monkeypatch, runner, target, workers):
        # at most the 2 x workers submitted results and the one being reduced are alive, whatever the replications
        experiment = "gauss-centered" if runner is run_gauss else "dmm-gauss"
        cfg = ExperimentConfig(experiment, 42, budgets=(200,), replications=30, workers=workers)
        shaped, outputs, most_alive = self.shaped_result(cfg), [], []

        def tracked(r):
            most_alive.append(sum(ref() is not None for ref in outputs))
            out = shaped(r)
            outputs.append(weakref.ref(out))
            return out

        stub, started = self.indexing_stub(cfg, result=tracked)
        monkeypatch.setattr(experiments, target, stub)
        runner(cfg)
        assert sorted(started) == list(range(30))
        assert 1 <= max(most_alive) <= 2 * workers + 1
        assert all(ref() is None for ref in outputs)


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
        spec = DmmSpec(make_synthetic("student-t", (-2.0, 2.0), 4, count=20), "student-t")
        model, counts = _counting_likelihoods(dmm_model(spec))
        inflate(model, dmm_init_proposal(spec), 3, 2, RandomSource(1))
        assert counts == [3 * 2] * 2  # one call per block, on its (6, 3) parameter sets
        model.block_log_likelihoods[0]((np.array([0.5, 0.5]), np.zeros(20, dtype=int)), (0.0, 1.0, 5.0))
        assert counts[-1] == 1

    def test_each_partition_is_decomposed_once_per_kind(self, monkeypatch):
        # one union per (partition, kind): 2 kinds x 7 partitions, and 2 x 50 adversarial ones
        calls = []
        original = estimators.combine
        monkeypatch.setattr(estimators, "combine", lambda sets: calls.append(1) or original(sets))
        run_theorem_suite(seed=8, instances=7, inflation_instances=1)
        assert len(calls) == 2 * 7 + 100

    def test_instance_counts_floor(self):
        for counts in (dict(instances=0), dict(inflation_instances=0)):
            with pytest.raises(ValueError):
                run_theorem_suite(seed=6, **counts)


class TestEmit:
    def _rows(self):
        return [
            MetricRow("gauss-centered", m, b, 5, c, 0.25, 0.5, 0.75, 0.1, 0.01, 1.5)
            for b in (100, 200)
            for m in ("plain", "inflated")
            for c in (0, 1)
        ]

    def test_csv_rows_and_header(self, tmp_path):
        path = tmp_path / "out.csv"
        emit(self._rows(), path, "csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 9  # 2 budgets x 2 methods x 2 components + header

    def test_json_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "out.json"
        rows = self._rows()
        # the mixture experiments' rows leave the log-evidence error undefined
        rows.append(MetricRow("dmm-gauss", "plain", 40, 2, 0, 0.25, 0.5, 0.75, 0.1, float("nan"), 1.5))
        emit(rows, path, "json")

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        payload = json.loads(path.read_text(), parse_constant=refuse)
        assert payload["rows"][-1]["log_evidence_mse"] is None
        # JSON's null reads back as NaN; repr: nan == nan
        rebuilt = [MetricRow(**{c: math.nan if r[c] is None else r[c] for c in CSV_COLUMNS}) for r in payload["rows"]]
        assert [{k: repr(v) for k, v in asdict(row).items()} for row in rebuilt] == [
            {k: repr(v) for k, v in asdict(row).items()} for row in rows
        ]

    def test_empty_series_refused_without_file(self, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            emit([], path, "csv")
        assert not path.exists()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit(self._rows(), tmp_path / "x", "yaml")
