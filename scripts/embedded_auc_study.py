#!/usr/bin/env python3
"""Desk-scale embedded-support study.

For each (d, n) cell: pick tau, e and k by pilot runs, then compare the
two cover classifiers against k-NN on freshly simulated data. The
embedded geometry keeps the global class sizes equal while the inner
class dominates the overlap region, which is where the cover
classifiers earn their keep.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from ccdig.evaluation import ClassifierSpec, SimulationConfig, pilot_study, run_simulation

TAU_GRID = [float(np.finfo(np.float64).eps)] + [round(0.1 * i, 1) for i in range(1, 11)]
E_GRID = [round(0.1 * i, 1) for i in range(0, 11)]
K_GRID = list(range(1, 31))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="2,3,5,10")
    ap.add_argument("--sizes", default="50,100")
    ap.add_argument("--reps", type=int, default=50, help="test replications per cell")
    ap.add_argument("--pilot-reps", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print(f"{'d':>3} {'n':>5} {'tau':>6} {'e':>4} {'k':>3} {'P-CCCD':>8} {'RW-CCCD':>8} {'k-NN':>8}")
    for d in [int(v) for v in args.dims.split(",")]:
        for n in [int(v) for v in args.sizes.split(",")]:
            config = SimulationConfig(
                setting="embedded", d=d, n=n, m=n, test_per_class=100,
                max_test_reps=args.reps, se_target=0.0, base_seed=args.seed,
            )
            tau = pilot_study(config, "pcccd", TAU_GRID, reps=args.pilot_reps).selected
            e = pilot_study(config, "rwcccd", E_GRID, reps=args.pilot_reps).selected
            k = pilot_study(config, "knn", K_GRID, reps=args.pilot_reps).selected
            report = run_simulation(
                config,
                [ClassifierSpec("pcccd", tau), ClassifierSpec("rwcccd", e), ClassifierSpec("knn", k)],
            )
            p, rw, knn = (r.mean_auc for r in report.results)
            print(f"{d:>3} {n:>5} {tau:>6.3g} {e:>4.2g} {k:>3.0f} {p:>8.4f} {rw:>8.4f} {knn:>8.4f}")


if __name__ == "__main__":
    main()
