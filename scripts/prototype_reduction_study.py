#!/usr/bin/env python3
"""Prototype counts of pure vs random-walk covers as overlap shrinks.

The number of covering balls is the size of the reduced training set a
cover classifier keeps around. Random-walk covers shed prototypes
quickly once the class supports separate; pure covers stay large while
the classes overlap.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from ccdig.classifier import train
from ccdig.evaluation import SimulationConfig, sample_replication


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--q", type=float, default=1.0)
    ap.add_argument("--deltas", default="0.1,0.4,0.7,1.0")
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print(f"{'delta':>6} {'P balls':>8} {'RW balls':>9} {'P ratio':>8} {'RW ratio':>9}")
    for delta in [float(v) for v in args.deltas.split(",")]:
        config = SimulationConfig(
            setting="shifted", d=args.d, n=args.n, q=args.q, delta=delta, base_seed=args.seed,
        )
        p_counts, rw_counts, p_ratios, rw_ratios = [], [], [], []
        for rep in range(args.reps):
            train_data, _, _ = sample_replication(config, rep)
            for variant, kw, counts, ratios in (
                ("pure", {"tau": 1.0}, p_counts, p_ratios),
                ("random_walk", {"e": 1.0}, rw_counts, rw_ratios),
            ):
                model = train(train_data, variant, **kw)
                balls = [cover.n_balls for cover in model.covers]
                counts.append(sum(balls))
                ratios.append(np.mean(np.divide(balls, model.class_counts)))
        print(
            f"{delta:>6.2f} {np.mean(p_counts):>8.1f} {np.mean(rw_counts):>9.1f} "
            f"{np.mean(p_ratios):>8.3f} {np.mean(rw_ratios):>9.3f}"
        )


if __name__ == "__main__":
    main()
