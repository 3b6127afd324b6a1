#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write every run,
with a per-workload summary of the end-to-end metrics, to one JSON file.
The summary gives each metric a verdict against its ``BENCHMARK.json`` bound.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload dmm-gauss --workload gauss-20k --pairs 10 --seconds 30 --seed 1 --output BENCH.json

Each run is ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
with the side's directory as the working directory, so each side runs its
own checkout's ``src/`` and ``perfbench/``; runs go one at a time.  Pair
``p`` runs every workload at seed ``S0 + p`` on both sides, the parent first
when ``p`` is even.  A run that exits nonzero or whose last line is not a
result object is kept with its exit code and the tail of its stderr.  The
file is rewritten after every run, so a stopped session keeps what it ran.
It records each side's ``tree_digest``, which names the code a side timed
even when its checkout holds uncommitted edits.  Equal digests are allowed:
a change to the benchmark may time its own tree on both sides.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def better_directions(benchmark: dict) -> dict[str, str]:
    """Each end-to-end metric's ``better`` direction, ``lower`` or ``higher``."""
    return {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}


def metric_bounds(benchmark: dict) -> dict[str, float]:
    """Each end-to-end metric's bound: the largest relative worsening allowed."""
    return {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}


def tree_digest(directory: Path) -> str:
    """sha256 over the ``.py`` files under ``src/`` and ``perfbench/``: each
    file's path relative to ``directory``, its size and its bytes, in path order."""
    files = {
        path.relative_to(directory).as_posix(): path
        for top in ("src", "perfbench")
        for path in (directory / top).rglob("*.py")
    }
    digest = hashlib.sha256()
    for name in sorted(files):
        data = files[name].read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def run_once(directory: Path, workload: str, seed: int, seconds: float) -> dict:
    """One timed benchmark run: its exit code, environment line and result."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=directory, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    entry = {"returncode": done.returncode, "info": None, "result": None}
    try:
        result = json.loads(lines[-1])
        if isinstance(result, dict) and isinstance(result.get("metrics"), dict):
            entry["result"] = result
            entry["info"] = json.loads(lines[-2])
    except (IndexError, json.JSONDecodeError):
        pass
    if done.returncode != 0 or entry["result"] is None:
        entry["stderr_tail"] = done.stderr[-2000:]
    return entry


def _value(run: dict, metric: str) -> float | None:
    result = run.get("result")
    if run.get("returncode", 0) != 0 or not result:
        return None
    value = result["metrics"].get(metric, {}).get("value")
    return None if value is None else float(value)


def _rounded(value: float | None) -> float | None:
    return None if value is None else round(value, 4)


def _spread(values: list[float]) -> tuple[float | None, list[float] | None]:
    """Median and inclusive quartiles, each rounded to four decimals."""
    if not values:
        return None, None
    quartiles = None
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        quartiles = [round(q1, 4), round(q3, 4)]
    return round(statistics.median(values), 4), quartiles


def _worse_frac(parent_median: float | None, change_median: float | None, direction: str) -> float | None:
    """How far the change's median moved from the parent's, relative to the
    parent's, in the worse direction: positive is worse."""
    if parent_median is None or change_median is None or parent_median == 0:
        return None
    moved = change_median - parent_median if direction == "lower" else parent_median - change_median
    return round(moved / abs(parent_median), 4)


def _verdict(entry: dict, direction: str, bound: float) -> str | None:
    """``beyond_bound`` when the median got worse by more than ``bound``;
    ``unresolved`` when the parent's IQR over its median exceeds ``bound``
    and not every change run beats every parent run; else ``within_bound``."""
    if entry["worse_frac"] is None:
        return None
    if entry["worse_frac"] > bound:
        return "beyond_bound"
    parent, change = ([v for v in entry[side] if v is not None] for side in SIDES)
    separated = max(change) < min(parent) if direction == "lower" else min(change) > max(parent)
    spread = entry["parent_iqr"] / abs(entry["parent_median"]) if entry["parent_iqr"] is not None else 0.0
    return "unresolved" if spread > bound and not separated else "within_bound"


def _gain(entry: dict, direction: str, pairs: int) -> bool:
    """Whether a claimed gain holds: the change is better in at least 9 of
    every 10 pairs, ties counting for neither side, and its median is better
    than the parent's by more than the parent's IQR."""
    parent, change, iqr = entry["parent_median"], entry["change_median"], entry["parent_iqr"]
    if parent is None or change is None or iqr is None:
        return False
    gained = parent - change if direction == "lower" else change - parent
    return 10 * entry["change_wins"] >= 9 * pairs and gained > iqr


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """Per workload of the timed (``trace`` 0) runs and per end-to-end
    metric: each side's values in pair order, rounded to four decimals
    (``None`` where a run failed); their medians and quartiles; the parent's
    interquartile range; the pairs in which the change's value is better,
    ties counting for neither side; the median's relative worsening,
    ``worse_frac``; whether a claimed ``gain`` holds; and, for a metric
    with a ``bound``, its ``verdict``."""
    timed = [run for run in runs if run["trace"] == 0]
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in timed):
        own = [run for run in timed if run["workload"] == workload]
        pairs = sorted({run["pair"] for run in own})
        entry = {"pairs": len(pairs), "seed": min(run["seed"] for run in own)}
        for metric, direction in better.items():
            by_run = {(run["pair"], run["side"]): _rounded(_value(run, metric)) for run in own}
            values = {side: [by_run.get((pair, side)) for pair in pairs] for side in SIDES}
            wins = sum(
                1
                for parent, change in zip(values["parent"], values["change"])
                if parent is not None and change is not None
                and (change < parent if direction == "lower" else change > parent)
            )
            (parent_median, parent_q), (change_median, change_q) = (
                _spread([v for v in values[side] if v is not None]) for side in SIDES
            )
            entry[metric] = {
                **values,
                "parent_median": parent_median,
                "change_median": change_median,
                "parent_quartiles": parent_q,
                "change_quartiles": change_q,
                "change_wins": wins,
                "parent_iqr": None if parent_q is None else round(parent_q[1] - parent_q[0], 4),
                "worse_frac": _worse_frac(parent_median, change_median, direction),
            }
            entry[metric]["gain"] = _gain(entry[metric], direction, len(pairs))
            if bounds and metric in bounds:
                entry[metric]["verdict"] = _verdict(entry[metric], direction, bounds[metric])
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, required=True, help="pair p runs at this seed + p")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    for directory in (args.parent, args.change):
        if not (directory / "perfbench" / "run.py").is_file():
            parser.error(f"{directory} holds no perfbench/run.py")
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better, bounds = better_directions(benchmark), metric_bounds(benchmark)
    directories = {"parent": args.parent, "change": args.change}
    digests = {side: tree_digest(directory) for side, directory in directories.items()}
    runs: list[dict] = []
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            for side in order:
                entry = run_once(directories[side], workload, seed, args.seconds)
                runs.append({
                    "side": side, "workload": workload, "seed": seed, "trace": 0,
                    "pair": pair, "first": order[0], **entry,
                })
                print(f"pair {pair} {workload} {side}: exit {entry['returncode']}", file=sys.stderr, flush=True)
                payload = {
                    "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                               f"--seconds {args.seconds:g} --trace 0",
                    "tree_digests": digests,
                    "summary": summarize(runs, better, bounds),
                    "runs": runs,
                }
                args.output.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
