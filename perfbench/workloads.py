"""The two workloads: their inputs, their ccdig command lines, their checks.

Both draw d=3 uniform boxes of the shifted setting (class "x" on the
unit cube, class "y" on the cube shifted by delta on every axis), as
`SimulationConfig.supports()` defines them.

pure-overlap   P-CCCD (tau=0.5), n=m=1600. The distance kernel, the
               greedy dominating set and a query path against about 1400
               balls do the work; the random-walk layer does none.
rw-imbalanced  RW-CCCD (e=1), n=1000, m=100 (q=0.1): the imbalance the
               paper studies. The per-iteration walk and sort loop
               dominates training, and the query path meets about 150
               balls, so CSV parsing and the per-row tie-break carry
               predict.

Each also runs `ccdig simulate` over a small grid, many small fits
beside the one large CLI fit, so a change that buys asymptotic speed
with per-call set-up shows on simulate_s.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

QUERIES = 50_000
TRAIN_DRAW = 0  # seed of the one training draw every run uses
SIM_TEST_PER_CLASS = 300
RW_PREFIX = 8  # selections per class replayed by the independent walk
LIBRARY_FIT_ROWS = 300  # training rows of the small in-process fit


@dataclass(frozen=True)
class Workload:
    name: str
    stream: int  # keeps the two workloads' draws apart for one seed
    variant: str  # "pure" or "random_walk"
    param_flag: str
    param: float
    n: int
    m: int
    delta: float
    sim_n: int
    sim_q: str
    sim_delta: str
    sim_classifiers: tuple[str, ...]
    sim_reps: int
    queries: int = QUERIES

    @property
    def sim_rows(self) -> int:
        configs = len(self.sim_q.split(",")) * len(self.sim_delta.split(","))
        return configs * len(self.sim_classifiers)

    def train_args(self, data: Path, out: Path) -> list[str]:
        return ["train", "--data", str(data), "--variant", self.variant,
                self.param_flag, repr(self.param), "--out", str(out)]

    def predict_args(self, model: Path, data: Path, out: Path) -> list[str]:
        return ["predict", "--model", str(model), "--data", str(data), "--scores", "--out", str(out)]

    def simulate_args(self, seed: int, threads: int, out: Path) -> list[str]:
        return ["simulate", "--setting", "shifted", "--d", "3", "--n", str(self.sim_n),
                "--q", self.sim_q, "--delta", self.sim_delta,
                "--classifiers", ",".join(self.sim_classifiers),
                "--score-mode", "continuous", "--test-per-class", str(SIM_TEST_PER_CLASS),
                "--se-target", "0", "--max-reps", str(self.sim_reps),
                "--seed", str(seed), "--threads", str(threads), "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pure-overlap", 1, "pure", "--tau", 0.5, n=1600, m=1600, delta=0.1,
                 sim_n=200, sim_q="0.2,0.5,1", sim_delta="0.1,0.5",
                 sim_classifiers=("pcccd", "knn"), sim_reps=14),
        Workload("rw-imbalanced", 2, "random_walk", "--e", 1.0, n=1000, m=100, delta=0.1,
                 sim_n=200, sim_q="0.1,0.25,0.5,1", sim_delta="0.1",
                 sim_classifiers=("rwcccd",), sim_reps=8),
    )
}


@dataclass(frozen=True)
class Inputs:
    points: np.ndarray  # training points in file order
    labels: np.ndarray  # their class names, "x" or "y"
    queries: np.ndarray  # first half from the x box, second half from the y box
    query_labels: np.ndarray  # 1 for a query drawn from the y box


def make_inputs(w: Workload, seed: int, train_csv: Path, query_csv: Path) -> Inputs:
    """Draw the workload's inputs and write both CSV files.

    The training points are one fixed draw (TRAIN_DRAW) in a row order
    taken from `seed`; the queries come from `seed`. A fresh training
    draw per seed changes how much work a cover takes (eight draws of the
    rw-imbalanced set took 8.9 to 14.3 s to cover), which would swamp any
    regression bound; the row order changes nothing but tie-breaks.
    """
    from ccdig import SimulationConfig

    x_low, x_high, y_low, y_high = SimulationConfig(
        setting="shifted", d=3, n=w.n, m=w.m, delta=w.delta
    ).supports()

    def box(rng, low, high, count):
        return low + (high - low) * rng.random((count, 3))

    fixed = np.random.default_rng([TRAIN_DRAW, w.stream, 0])
    points = np.vstack([box(fixed, x_low, x_high, w.n), box(fixed, y_low, y_high, w.m)])
    labels = np.array(["x"] * w.n + ["y"] * w.m)
    rng = np.random.default_rng([seed, w.stream, 1])
    order = rng.permutation(len(points))
    points, labels = points[order], labels[order]
    half = w.queries // 2
    queries = np.vstack([box(rng, x_low, x_high, half), box(rng, y_low, y_high, w.queries - half)])
    query_labels = np.repeat(np.array([0, 1]), [half, w.queries - half])
    with open(train_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "x2", "x3", "class"])
        writer.writerows([repr(a), repr(b), repr(c), lab] for (a, b, c), lab in zip(points.tolist(), labels))
    with open(query_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "x2", "x3"])
        writer.writerows([repr(a), repr(b), repr(c)] for a, b, c in queries.tolist())
    return Inputs(points, labels, queries, query_labels)


def check_cover(w: Workload, inputs: Inputs, model_path: Path) -> dict:
    doc = checks.load_json(model_path)
    if w.variant == "pure":
        checks.check_pure_cover(doc, inputs.points, inputs.labels, w.param)
    else:
        checks.check_rw_cover(doc, inputs.points, inputs.labels, RW_PREFIX)
    return doc


def check_library(w: Workload, inputs: Inputs, model_path: Path) -> None:
    """Save/load and AUC on a small in-process fit of the first training rows."""
    from ccdig import LabeledDataset, auc, predict_batch, train
    from ccdig.classifier import discriminant_batch

    rows = slice(0, LIBRARY_FIT_ROWS)
    data = LabeledDataset(
        points=inputs.points[rows],
        labels=(inputs.labels[rows] == "y").astype(np.int64),
        label_names=("x", "y"),
    )
    model = train(data, w.variant, **{w.param_flag.lstrip("-"): w.param})
    checks.check_save_load(model, model_path, inputs.queries[::100])
    test = inputs.queries[:: w.queries // 200]
    truth = inputs.query_labels[:: w.queries // 200]
    for scores in (
        (predict_batch(model, test)[0] == 1).astype(np.float64),
        discriminant_batch(model, test, 1),
    ):
        checks.check_auc(auc(scores, truth), scores, truth)


def check_outputs(w: Workload, inputs: Inputs, files, other_report: Path) -> None:
    """Every independent check of one round's outputs."""
    doc = check_cover(w, inputs, files.model)
    checks.check_predictions(doc, inputs.queries, files.pred)
    checks.check_report(files.report, w.sim_classifiers, w.sim_rows, w.sim_reps)
    checks.check_same_bytes(files.report, other_report, "simulate reports at 1 and 2 threads")
    check_library(w, inputs, files.library_model)
