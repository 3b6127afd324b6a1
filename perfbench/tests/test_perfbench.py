"""Tests of the benchmark itself, on workloads small enough to run in seconds.

    python -m pytest perfbench/tests
"""
import json
import threading

import numpy as np
import pytest

import harness
import run
import spans
from harness import Workload
from infmc import experiments, factorized, models, pmc
from infmc.distributions import StudentT

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"
TINY = {
    w.name: w
    for w in (
        Workload("tiny-gauss", "gauss-centered", budget=200, workers=1, traced_reps=2),
        Workload("tiny-dmm", "dmm-gauss", budget=200, workers=2, traced_reps=2, generations=5),
    )
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, workload in TINY.items():
        monkeypatch.setitem(harness.WORKLOADS, name, workload)
    monkeypatch.setattr(run, "setup_seconds", lambda workload, seed: 0.25)
    monkeypatch.setattr(run, "HERE", tmp_path)


def _main(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _assert_metric_lines(result, units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_timed_run_prints_every_end_to_end_metric_with_its_unit(tiny, capsys):
    info, result = _main(capsys, "--workload", "tiny-gauss", "--seed", "3", "--seconds", "0.2")
    _assert_metric_lines(result, run.END_TO_END_UNITS)
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert info["environment"]["nproc"] >= 1
    assert info["environment"]["thread_pools"]["OMP_NUM_THREADS"] == "1"


def test_traced_run_prints_every_per_layer_metric_with_its_unit(tiny, capsys):
    info, result = _main(capsys, "--workload", "tiny-dmm", "--seed", "3", "--trace", "1")
    _assert_metric_lines(result, spans.PER_LAYER_UNITS)
    assert info["digest"] == info["traced_digest"]
    assert info["output_digest"] == info["traced_output_digest"]


def test_timed_and_traced_runs_digest_the_same_replications(tiny, capsys):
    timed_info, _ = _main(capsys, "--workload", "tiny-gauss", "--seed", "5", "--seconds", "0")
    traced_info, _ = _main(capsys, "--workload", "tiny-gauss", "--seed", "5", "--trace", "1")
    assert timed_info["digest"] == traced_info["digest"] == traced_info["traced_digest"]


def test_count_invariants_hold_and_repeat_in_a_tiny_traced_run(tiny, capsys):
    counts = {}
    for name in TINY:
        runs = [_main(capsys, "--workload", name, "--seed", "7", "--trace", "1")[1] for _ in range(2)]
        values = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count/rep"} for r in runs]
        assert values[0] == values[1]
        counts[name] = values[0]

    gauss, dmm = counts["tiny-gauss"], counts["tiny-dmm"]
    # both methods evaluate every block of every draw once: 200 draws x 2 blocks x 2 methods
    assert gauss["models.block_evals"] == 800
    assert gauss["factorized.emitted_samples"] == 2 * 100**2
    assert gauss["pmc.resample_draws"] == 0
    # per method 200 x 2 block evaluations, equal across methods
    assert dmm["models.block_evals"] == 800
    # best data log-likelihood: every block of every point, 5 generations of 40 + 80 points
    assert dmm["models.diagnostic_evals"] == 2 * (40 + 80) * 5
    assert dmm["pmc.resample_draws"] == 2 * 40 * 5
    assert dmm["factorized.emitted_samples"] == 0


def test_failed_check_is_counted(tiny, capsys, monkeypatch):
    monkeypatch.setattr(harness, "GAUSS_LOG_EVIDENCE", -900.0)
    _, result = _main(capsys, "--workload", "tiny-gauss", "--seed", "3", "--seconds", "0")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_self_time_subtracts_direct_children_on_a_synthetic_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    ticks = iter([0, 1, 2, 3, 4, 5, 9, 10])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.set_replication(0)
    a = tracer.enter("a")
    b = tracer.enter("b")
    c = tracer.enter("c")
    tracer.exit(c, {"items": 3})
    tracer.exit(b)
    d = tracer.enter("b")
    tracer.exit(d)
    tracer.exit(a)
    table = tracer.table()
    assert table[(0, "a")] == {"calls": 1, "self_s": 10 - 3 - 4}
    assert table[(0, "b")] == {"calls": 2, "self_s": (3 - 1) + 4}
    assert table[(0, "c")] == {"calls": 1, "self_s": 1, "items": 3}
    assert sum(agg["self_s"] for agg in table.values()) == 10


def test_threads_keep_separate_stacks_and_tags():
    tracer = spans.Tracer()

    def work(rep):
        tracer.set_replication(rep)
        for _ in range(200):
            outer = tracer.enter("outer")
            tracer.exit(tracer.enter("inner"))
            tracer.exit(outer)

    threads = [threading.Thread(target=work, args=(rep,)) for rep in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    table = tracer.table()
    assert {key: agg["calls"] for key, agg in table.items()} == {
        (rep, group): 200 for rep in range(4) for group in ("outer", "inner")
    }


def _patched_names():
    return (
        experiments.run_gauss,
        experiments.grouped_inflate,
        pmc.resample,
        models.dmm_model,
        vars(models.GaussianToy)["model"],
        vars(StudentT)["log_density_each"],
        vars(factorized.FactorizedModel)["data_log_likelihood"],
    )


def test_instrument_restores_every_name():
    before = _patched_names()
    with spans.instrument(spans.Tracer(), []):
        during = _patched_names()
    assert not any(x is y for x, y in zip(before, during))
    assert all(x is y for x, y in zip(before, _patched_names()))


def test_digest_ignores_wall_times_only():
    base = {"plain": {"expectation": [0.5, 1.0], "wall": 1.0}, "wall_seconds": 3.0}
    assert harness.digest(base) == harness.digest({**base, "wall_seconds": 9.0, "plain": {**base["plain"], "wall": 2.0}})
    assert harness.digest(base) != harness.digest({**base, "plain": {"expectation": [0.5, 1.0000001], "wall": 1.0}})


def test_kish_ess():
    assert spans.kish_ess(np.zeros(8)) == pytest.approx(8.0)
    assert spans.kish_ess(np.array([0.0, -np.inf])) == pytest.approx(1.0)
