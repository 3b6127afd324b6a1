#!/usr/bin/env python3
"""Profile one warm replication with cProfile: the total call count, then
the 15 entries with the largest cumulative time and the 15 with the largest
internal time.  One unprofiled run goes first, so that imports made on first
use (``scipy.special`` in a Student-t run) and other one-time set-up stay out
of the profile.  Then one warm run's traced allocation peak
(``tracemalloc``), then 5 timed warm runs: their minor page faults
(``getrusage``), as a mean per replication, and, on the last line, the
replication's wall time without the profiler, the median of the 5 runs.

    PYTHONPATH=src python scripts/profile_replication.py --experiment dmm-gauss --seed 1

The replication is the first one ``infmc dmm`` (budget 2000) or ``infmc
gauss`` (budget 20000, groups of 100) would run at that seed.
"""
import argparse
import cProfile
import pstats
import resource
import statistics
import time
import tracemalloc

from infmc import experiments
from infmc.rng import RandomSource

parser = argparse.ArgumentParser(description="cProfile one replication")
parser.add_argument("--experiment", choices=experiments.EXPERIMENTS, required=True)
parser.add_argument("--seed", type=int, required=True)
args = parser.parse_args()

cfg = experiments.ExperimentConfig(args.experiment, args.seed)
budget = cfg.budgets[-1]
gauss = args.experiment in experiments.GAUSS_EXPERIMENTS
replication = experiments.gauss_replication if gauss else experiments.dmm_replication


def source():
    """A fresh copy of the run's stream for (budget, replication 0)."""
    return RandomSource(args.seed).child(len(cfg.budgets) - 1, 0)


replication(cfg, budget, source())  # warm-up
profile = cProfile.Profile()
profile.runcall(replication, cfg, budget, source())
stats = pstats.Stats(profile)
print(f"total calls: {stats.total_calls}")
stats.sort_stats("cumulative").print_stats(15)
stats.sort_stats("tottime").print_stats(15)

tracemalloc.start()
replication(cfg, budget, source())
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(f"traced allocation peak: {peak / 2**20:.2f} MiB (one warm run)")

walls = []
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    src = source()
    start = time.perf_counter()
    replication(cfg, budget, src)
    walls.append(time.perf_counter() - start)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(f"minor page faults: {faults / len(walls):.1f} per replication (mean of 5 warm runs)")
print(f"wall time without the profiler: {statistics.median(walls):.4f} s (median of 5 runs after one warm-up)")
