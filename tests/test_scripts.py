"""The scripts under ``scripts/``: run end to end as subprocesses, or their
functions called directly."""
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("experiment", ["gauss-offcenter", "dmm-gauss"])
def test_profile_replication_runs(experiment):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "profile_replication.py"), "--experiment", experiment, "--seed", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("total calls:")
    last = done.stdout.rstrip("\n").splitlines()[-1]
    wall = re.fullmatch(r"wall time without the profiler: (\d+\.\d{4}) s \(median of 5 runs after one warm-up\)", last)
    assert wall and float(wall.group(1)) > 0.0, last


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_reproduces_a_committed_bench_file():
    bench_pairs = _load_script("bench_pairs")
    committed = json.loads((ROOT / "BENCH_14.json").read_text())
    better = bench_pairs.better_directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    summary = bench_pairs.summarize(committed["runs"], better)
    assert set(summary) == set(committed["summary"]) == {"gauss-20k", "dmm-gauss", "dmm-t-2w"}
    for workload, stored in committed["summary"].items():
        assert summary[workload]["pairs"] == stored["pairs"]
        for metric in better:
            mine, theirs = summary[workload][metric], stored[metric]
            assert mine["change_wins"] == theirs["change_wins"], (workload, metric)
            # the file rounds to four decimals
            for key in ("parent_median", "change_median", "parent_iqr"):
                assert mine[key] == pytest.approx(theirs[key], abs=1e-4), (workload, metric, key)
            for key in ("parent_quartiles", "change_quartiles"):
                assert mine[key] == pytest.approx(theirs[key], abs=1e-4), (workload, metric, key)


def _paired_runs(metric, parent, change):
    """Timed runs of one workload: pair ``p`` holds ``parent[p]`` and ``change[p]``."""
    return [
        {"side": side, "workload": "w", "seed": 1 + pair, "trace": 0, "pair": pair, "returncode": 0,
         "result": {"metrics": {metric: {"value": value}}}}
        for pair, values in enumerate(zip(parent, change))
        for side, value in zip(("parent", "change"), values)
    ]


OFFSETS = [-0.004, -0.003, -0.002, -0.001, 0.0, 0.0, 0.001, 0.002, 0.003, 0.004]


@pytest.mark.parametrize(
    "direction, parent, change, worse_frac, verdict",
    [
        # the dmm-gauss setup_s medians a change was refused on: 0.184 -> 0.250 s, +36% against a bound of 25%
        ("lower", [0.184 + d for d in OFFSETS], [0.250 + d for d in OFFSETS], 0.3587, "beyond_bound"),
        ("lower", [0.184 + d for d in OFFSETS], [0.193 + d for d in OFFSETS], 0.0489, "within_bound"),
        # parent IQR / median 0.44: a 5% move cannot be told from the spread
        ("lower", [0.2 + 25 * d for d in OFFSETS], [0.21 + 25 * d for d in OFFSETS], 0.05, "unresolved"),
        # as wide, but every change run beats every parent run
        ("lower", [0.2 + 25 * d for d in OFFSETS], [0.07 + 5 * d for d in OFFSETS], -0.65, "within_bound"),
        ("higher", [1000.0 + d for d in OFFSETS], [700.0 + d for d in OFFSETS], 0.3, "beyond_bound"),
        ("higher", [1000.0 + d for d in OFFSETS], [1100.0 + d for d in OFFSETS], -0.1, "within_bound"),
    ],
)
def test_bench_pairs_verdict_against_the_bound(direction, parent, change, worse_frac, verdict):
    bench_pairs = _load_script("bench_pairs")
    runs = _paired_runs("m", parent, change)
    summary = bench_pairs.summarize(runs, {"m": direction}, {"m": 0.25})["w"]["m"]
    assert summary["worse_frac"] == pytest.approx(worse_frac, abs=1e-4)
    assert summary["verdict"] == verdict
    assert "verdict" not in bench_pairs.summarize(runs, {"m": direction})["w"]["m"]


def test_bench_pairs_reads_each_bound_from_the_benchmark():
    bench_pairs = _load_script("bench_pairs")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = bench_pairs.metric_bounds(benchmark)
    assert set(bounds) == set(bench_pairs.better_directions(benchmark))
    assert bounds["setup_s"] == 0.25 and bounds["peak_rss_mb"] == 0.1


def test_bench_pairs_tree_digest_names_the_code_a_side_runs(tmp_path):
    bench_pairs = _load_script("bench_pairs")
    trees = [tmp_path / name for name in ("a", "b", "c")]
    for tree in trees:
        (tree / "src" / "pkg").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "src" / "pkg" / "mod.py").write_text("x = 1\n")
        (tree / "perfbench" / "run.py").write_text("print('run')\n")
    (trees[2] / "src" / "pkg" / "mod.py").write_text("x = 2\n")
    a, b, c = map(bench_pairs.tree_digest, trees)
    assert a == b != c
