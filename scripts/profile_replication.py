#!/usr/bin/env python3
"""Profile one replication with cProfile: the total call count, then the 15
entries with the largest cumulative time and the 15 with the largest
internal time.

    PYTHONPATH=src python scripts/profile_replication.py --experiment dmm-gauss --seed 1

The replication is the first one ``infmc dmm`` (budget 2000) or ``infmc
gauss`` (budget 20000, groups of 100) would run at that seed.
"""
import argparse
import cProfile
import pstats

from infmc import experiments
from infmc.rng import RandomSource

parser = argparse.ArgumentParser(description="cProfile one replication")
parser.add_argument("--experiment", choices=experiments.EXPERIMENTS, required=True)
parser.add_argument("--seed", type=int, required=True)
args = parser.parse_args()

cfg = experiments.ExperimentConfig(args.experiment, args.seed)
budget = cfg.budgets[-1]
src = RandomSource(args.seed).child(len(cfg.budgets) - 1, 0)  # the run's key for (budget, replication 0)
gauss = args.experiment in experiments.GAUSS_EXPERIMENTS
replication = experiments.gauss_replication if gauss else experiments.dmm_replication

profile = cProfile.Profile()
profile.runcall(replication, cfg, budget, src)
stats = pstats.Stats(profile)
print(f"total calls: {stats.total_calls}")
stats.sort_stats("cumulative").print_stats(15)
stats.sort_stats("tottime").print_stats(15)
