#!/usr/bin/env python3
"""infmc benchmark: one workload at one seed, timed or traced.

    python3 perfbench/run.py --workload gauss-20k --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports ``infmc`` from ``src/`` of the
same checkout and nothing else.  ``--trace 0`` runs the workload's closed
replication loop for ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` runs a fixed set of replications untraced twice (a warm-up,
then the reference) and then traced, and reports the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the machine, the environment and the digests.
"""
import os

# The pools must be pinned before numpy is first imported, here and in the
# set-up probes, which inherit the environment.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import infmc  # noqa: E402

if Path(infmc.__file__).resolve().parent != ROOT / "src" / "infmc":
    raise SystemExit(f"infmc imported from {infmc.__file__}, not from this checkout's src/")

import numpy  # noqa: E402
import scipy  # noqa: E402

from harness import WORKLOADS, peak_rss_mb, run_pass, timed_metrics  # noqa: E402
from spans import PER_LAYER_UNITS, Tracer, instrument, kish_ess, per_layer_metrics  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "rep_s_p50": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
# Set-up is a few hundred milliseconds of imports; the median of several
# fresh processes keeps one slow start from moving the figure.
SETUP_PROBES = 7


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time from starting a fresh interpreter until it has
    imported infmc, numpy and scipy and built the workload's config."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": dataclasses.asdict(WORKLOADS[args.workload]),
        "thread_pools": {var: os.environ[var] for var in PINNED},
    }


def timed(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    setup_s = setup_seconds(workload.name, args.seed)
    run, metrics = timed_metrics(workload, args.seed, args.seconds)
    attempted, failed = len(run.loop.records), run.loop.failed
    metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb(), ok_frac=(attempted - failed) / attempted)
    info = {"replications": attempted, "digest": run.loop.replications_digest()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()},
    }
    return info, result


def traced(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    n = workload.traced_reps
    # The first pass in a process pays for first-touch page faults and lazy
    # imports; without this warm-up the traced pass would look faster.
    warm_up = run_pass(workload, args.seed, n, math.inf, n)
    plain = run_pass(workload, args.seed, n, math.inf, n)
    tracer, ess_inputs = Tracer(), []
    with instrument(tracer, ess_inputs):
        traced_run = run_pass(workload, args.seed, n, math.inf, n, tracer)
    table = tracer.table()
    metrics = per_layer_metrics(
        table,
        replications=n,
        ess_total=sum(kish_ess(lw) for lw in ess_inputs),
        cores_busy=plain.cpu / plain.wall,
        overhead_frac=traced_run.wall / plain.wall - 1.0,
    )
    expected = {r.index: r.digest for r in plain.loop.records}
    mismatched = [r.index for r in traced_run.loop.records if r.digest != expected.get(r.index)]
    failed = (
        warm_up.loop.failed
        + plain.loop.failed
        + sum(1 for r in traced_run.loop.records if r.problems or r.index in mismatched)
    )
    attempted = sum(len(p.loop.records) for p in (warm_up, plain, traced_run))
    same_output = plain.output_digest is not None and plain.output_digest == traced_run.output_digest
    info = {
        "replications": n,
        "digest": plain.loop.replications_digest(),
        "traced_digest": traced_run.loop.replications_digest(),
        "output_digest": plain.output_digest,
        "traced_output_digest": traced_run.output_digest,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = [
        {"replication": rep, "group": group, **agg}
        for (rep, group), agg in sorted(table.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
    ]
    (out_dir / f"spans-{workload.name}-seed{args.seed}.json").write_text(
        json.dumps({"environment": environment(args), **info, "spans": spans}, indent=1) + "\n"
    )
    result = {
        "correct": failed == 0 and same_output,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()},
    }
    return info, result


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        WORKLOADS[args.workload].config(args.seed, replications=2)
        print("ready", flush=True)
        return 0
    info, result = (traced if args.trace else timed)(args)
    print(json.dumps({"environment": environment(args), **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
