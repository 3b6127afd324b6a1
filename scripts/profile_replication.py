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

from infmc.experiments import ExperimentConfig, dmm_replication, gauss_replication
from infmc.models import GaussianToy
from infmc.rng import RandomSource

# proposal centers as ``infmc gauss`` uses them: the offcenter one sits at (5, 5)
GAUSS_CENTERS = {"gauss-centered": 0.0, "gauss-offcenter": 5.0}

parser = argparse.ArgumentParser(description="cProfile one replication")
parser.add_argument("--experiment", choices=["dmm-gauss", "dmm-t", *GAUSS_CENTERS], required=True)
parser.add_argument("--seed", type=int, required=True)
args = parser.parse_args()

cfg = ExperimentConfig(args.experiment, args.seed)
budget = cfg.budgets[-1]
src = RandomSource(args.seed).child(len(cfg.budgets) - 1, 0)  # the run's key for (budget, replication 0)
if args.experiment in GAUSS_CENTERS:
    toy, center = GaussianToy(), GAUSS_CENTERS[args.experiment]
    replication = lambda: gauss_replication(
        toy, toy.model(), toy.proposal(center), center, budget, cfg.group_size, src
    )
else:
    replication = lambda: dmm_replication(cfg, budget, src)

profile = cProfile.Profile()
profile.runcall(replication)
stats = pstats.Stats(profile)
print(f"total calls: {stats.total_calls}")
stats.sort_stats("cumulative").print_stats(15)
stats.sort_stats("tottime").print_stats(15)
