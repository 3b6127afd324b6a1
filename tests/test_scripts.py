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
