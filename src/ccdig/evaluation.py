"""AUC, a k-NN baseline, overlap/imbalance metrics, and the Monte Carlo
simulation harness over the four uniform-box settings.

A replication samples fresh training and test data, fits every requested
classifier, and records its AUC (and prototype count where applicable).
Replications accumulate until the standard error of every classifier's
mean AUC drops to the target or the replication cap is reached.

A replication first fits every cover, then scores every classifier in
one pass over blocks of the test points, so each test-to-training
distance is computed once. A block holds the distances to the training
points that some classifier reads: all of them when a k-NN is scored,
otherwise only the covers' centers. k-NN counts its votes from the
block; each cover takes its per-class minima from a gathered copy of
its centers' columns, through the same one-block code as
`classifier.predict_batch`. A block from `core.row_blocks` has rows =
block_rows(classifier.QUERY_BLOCK_BYTES, cols) rows, cols the training
points it reads, so its float64 distances take at most that many bytes;
k-NN adds a partitioned copy and two boolean masks, about 18 bytes per
query-training pair in all (a tied row about 13 more). A cover's
gathered copy of one class's columns is never larger than the block.

The harness supports two ROC score protocols. The default, "label",
ranks test points by the classifier's predicted label, which puts every
classifier on the same footing and is the protocol under which the
reference class-imbalance gaps appear. "continuous" instead ranks by
each classifier's graded score (the cover discriminant, or the
positive-neighbor fraction), which measures ranking quality rather than
decision quality; fine-grained scores close most of the gaps.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import classifier
from .classifier import VARIANT_PURE, VARIANT_RW, _cover_terms, _gap, _labels, _minima, train
from .core import LabeledDataset, as_points, check_hyper, check_integer, row_blocks, sample_uniform_box

SETTINGS = ("embedded", "shifted", "disjoint", "balanced_overlap")
# classifier kind -> the one hyperparameter it takes
CLASSIFIER_KINDS = {"pcccd": "tau", "rwcccd": "e", "knn": "k"}
SCORE_MODES = ("label", "continuous")


def auc(scores, labels) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic with ties.

    Equals U / (n1 * n0), U = #{positive-negative pairs ranked correctly}
    + half the tied pairs. Twice U is counted from the sorted negatives;
    2U and n1 * n0 are integers below 2**53 (with fewer than 9e7 points
    per class), so the result is U / (n1 * n0) correctly rounded, whatever
    the order of the scores.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or y.shape != s.shape:
        raise ValueError("scores and labels must be matching 1-D sequences")
    if np.any(np.isnan(s)):
        raise ValueError("scores must not contain NaN")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be binary 0/1")
    n1 = int((y == 1).sum())
    n0 = len(y) - n1
    if n1 == 0 or n0 == 0:
        raise ValueError("both label values must be present")
    neg = np.sort(s[y == 0])
    pos = s[y == 1]
    # each positive counts the negatives below it twice and those tied once
    twice_u = np.searchsorted(neg, pos, "left").sum() + np.searchsorted(neg, pos, "right").sum()
    return float(twice_u / 2 / (n1 * n0))


def _knn_votes(dist: np.ndarray, labels: np.ndarray, k: int, n_classes: int) -> np.ndarray:
    """(rows, n_classes) counts of each class among the k nearest training
    points of each row of `dist`, a (rows, n) block of distances to the
    training points in training order. Among points at the k-th smallest
    distance the lowest indices are taken, the same set a stable sort of
    the distances would give.

    Only rows where more than k points reach the k-th distance, rare on
    continuous data, run the tie step: a running count over the row.
    """
    if not 1 <= k <= dist.shape[1]:
        raise ValueError(f"k must be in [1, {dist.shape[1]}]")
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    chosen = dist <= kth
    tied = np.count_nonzero(chosen, axis=1) > k
    if tied.any():
        at_kth = dist[tied] == kth[tied]
        # how many of the points tied at the k-th distance still fit
        room = k + np.count_nonzero(at_kth, axis=1) - np.count_nonzero(chosen[tied], axis=1)
        chosen[tied] &= ~at_kth | (np.cumsum(at_kth, axis=1) <= room[:, None])
    votes = np.empty((len(dist), n_classes), dtype=np.int64)
    for c in range(n_classes - 1):
        votes[:, c] = np.count_nonzero(chosen & (labels == c), axis=1)
    votes[:, -1] = k - votes[:, :-1].sum(axis=1)
    return votes


def _knn_batch_votes(train_data: LabeledDataset, points, k: int) -> np.ndarray:
    """`_knn_votes` of every query point, in the row blocks
    `row_blocks` makes of classifier.QUERY_BLOCK_BYTES."""
    pts = as_points(points)
    if pts.shape[1] != train_data.dim:
        raise ValueError("dimension mismatch between query and training data")
    votes = np.empty((len(pts), train_data.n_classes), dtype=np.int64)
    for rows, dist in row_blocks(pts, train_data.points, classifier.QUERY_BLOCK_BYTES):
        votes[rows] = _knn_votes(dist, train_data.labels, k, train_data.n_classes)
    return votes


def knn_predict_batch(train_data: LabeledDataset, points, k: int) -> np.ndarray:
    """Majority label among the k nearest training points, for many query
    points at once. Distance ties go to the lower training index; vote
    ties to the larger training class, then the lower class id."""
    return _labels(-_knn_batch_votes(train_data, points, k), train_data.class_counts)


def knn_scores(train_data: LabeledDataset, points, k: int, positive: int = 1) -> np.ndarray:
    """Fraction of the k nearest training points (as knn_predict_batch
    picks them) from the `positive` class, for many query points at once."""
    if not 0 <= positive < train_data.n_classes:
        raise ValueError("positive must be one of the training class ids")
    return _knn_batch_votes(train_data, points, k)[:, positive] / k


def overlap_alpha(delta: float, d: int) -> float:
    """Support overlap ratio of two unit boxes shifted by delta per axis."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0,1]")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    a = (1.0 - delta) ** d
    return a / (2.0 - a)


def overlap_delta(alpha: float, d: int) -> float:
    """Per-axis shift yielding a given overlap ratio; inverse of overlap_alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0,1]")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return 1.0 - (2.0 * alpha / (1.0 + alpha)) ** (1.0 / d)


def local_imbalance(X, Y, region) -> float | None:
    """Class-size ratio |Y in E| / |X in E| over an axis-aligned box E.

    Returns None when no X point falls in the region.
    """
    low, high = region
    xs = as_points(X)
    ys = as_points(Y)
    lo = np.broadcast_to(np.asarray(low, dtype=np.float64), (xs.shape[1],))
    hi = np.broadcast_to(np.asarray(high, dtype=np.float64), (xs.shape[1],))
    if np.any(lo > hi):
        raise ValueError("region must satisfy low <= high componentwise")
    in_x = int(np.all((xs >= lo) & (xs <= hi), axis=1).sum())
    in_y = int(np.all((ys >= lo) & (ys <= hi), axis=1).sum())
    if in_x == 0:
        return None
    return in_y / in_x


@dataclass(frozen=True)
class SimulationConfig:
    """One cell of the simulation grid.

    The first class (label 0, size n) is uniform on the unit box; the
    second (label 1, size m) sits on a box determined by the setting:
    embedded in the middle, shifted by delta per axis, disjoint along
    the first axis, or shifted to hit a target overlap ratio alpha.
    Exactly one of m and q (= m/n) must be given.
    """

    setting: str
    d: int
    n: int
    m: int | None = None
    q: float | None = None
    delta: float | None = None
    alpha: float | None = None
    test_per_class: int = 100
    max_test_reps: int = 200
    se_target: float = 0.0005
    base_seed: int = 0

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValueError(f"unknown setting {self.setting!r}")
        for name in ("d", "n", "test_per_class", "max_test_reps", "base_seed"):
            check_integer(name, getattr(self, name))
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be at least 1")
        if (self.m is None) == (self.q is None):
            raise ValueError("give exactly one of m and q")
        if self.q is not None and not 0.0 < self.q * self.n < math.inf:  # nan fails too
            raise ValueError("q must be positive, with q*n finite")
        if self.m is not None and self.m % 1 != 0:
            raise ValueError("m must be an integer")
        if self.resolved_m < 1:
            raise ValueError("the second class must have at least one point")
        needs_delta = self.setting in ("shifted", "disjoint")
        if needs_delta and self.delta is None:
            raise ValueError(f"setting {self.setting!r} requires delta")
        if not needs_delta and self.delta is not None:
            raise ValueError(f"setting {self.setting!r} does not take delta")
        if self.setting == "balanced_overlap":
            if self.alpha is None:
                raise ValueError("setting 'balanced_overlap' requires alpha")
            if not 0.0 <= self.alpha <= 1.0:
                raise ValueError("alpha must be in [0,1]")
        elif self.alpha is not None:
            raise ValueError(f"setting {self.setting!r} does not take alpha")
        if self.delta is not None:
            if self.setting == "shifted" and not 0.0 <= self.delta <= 1.0:
                raise ValueError("delta must be in [0,1] for the shifted setting")
            if self.setting == "disjoint" and not 0.0 <= self.delta < math.inf:
                raise ValueError("delta must be non-negative and finite for the disjoint setting")
            if self.setting == "disjoint" and not 1.0 + self.delta < 2.0 + self.delta:
                raise ValueError("delta is too large for the disjoint setting: 1 + delta rounds to 2 + delta")
        if self.test_per_class < 1:
            raise ValueError("test_per_class must be at least 1")
        if self.max_test_reps < 2:
            raise ValueError("max_test_reps must be at least 2")
        if not self.se_target >= 0.0:  # nan fails too
            raise ValueError("se_target must be non-negative")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")

    @property
    def resolved_m(self) -> int:
        if self.m is not None:
            return int(self.m)
        return int(round(self.q * self.n))

    @property
    def delta_or_alpha(self) -> float | None:
        return self.alpha if self.setting == "balanced_overlap" else self.delta

    def supports(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(x_low, x_high, y_low, y_high) bounds for the two class boxes."""
        d = self.d
        x_low = np.zeros(d)
        x_high = np.ones(d)
        if self.setting == "embedded":
            y_low = np.full(d, 0.3)
            y_high = np.full(d, 0.7)
        elif self.setting in ("shifted", "balanced_overlap"):
            delta = self.delta if self.setting == "shifted" else overlap_delta(self.alpha, d)
            y_low = np.full(d, delta)
            y_high = np.full(d, 1.0 + delta)
        else:  # disjoint: separated along the first axis only
            y_low = np.zeros(d)
            y_high = np.ones(d)
            y_low[0] = 1.0 + self.delta
            y_high[0] = 2.0 + self.delta
        return x_low, x_high, y_low, y_high


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier entry for the harness: kind plus its one hyperparameter
    (tau for pcccd, e for rwcccd, k for knn), stored as the checked float."""

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        object.__setattr__(self, "param", check_hyper(CLASSIFIER_KINDS[self.kind], self.param))


@dataclass(frozen=True)
class ClassifierResult:
    name: str
    aucs: tuple[float, ...]
    prototype_counts: tuple[int, ...] | None

    @property
    def reps(self) -> int:
        return len(self.aucs)

    @property
    def mean_auc(self) -> float:
        return float(np.mean(self.aucs))

    @property
    def se_auc(self) -> float:
        return _se(self.aucs)

    @property
    def mean_prototypes(self) -> float | None:
        if self.prototype_counts is None:
            return None
        return float(np.mean(self.prototype_counts))


@dataclass(frozen=True)
class EvalReport:
    config: SimulationConfig
    results: tuple[ClassifierResult, ...]

    @property
    def reps(self) -> int:
        return self.results[0].reps if self.results else 0


def sample_replication(config: SimulationConfig, rep: int):
    """Training set, test points and test labels of replication `rep`.

    Replication r draws from SeedSequence((base_seed, r)), so replications
    of different base seeds never share a stream.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.base_seed, rep)))
    x_low, x_high, y_low, y_high = config.supports()
    d, n, m, t = config.d, config.n, config.resolved_m, config.test_per_class
    train_x = sample_uniform_box(d, x_low, x_high, n, rng)
    train_y = sample_uniform_box(d, y_low, y_high, m, rng)
    test_x = sample_uniform_box(d, x_low, x_high, t, rng)
    test_y = sample_uniform_box(d, y_low, y_high, t, rng)
    train_data = LabeledDataset(
        points=np.vstack([train_x, train_y]),
        labels=np.concatenate([np.zeros(n, dtype=np.int64), np.ones(m, dtype=np.int64)]),
    )
    test_points = np.vstack([test_x, test_y])
    test_labels = np.concatenate([np.zeros(t, dtype=np.int64), np.ones(t, dtype=np.int64)])
    return train_data, test_points, test_labels


def _check_score_mode(score_mode: str) -> str:
    if score_mode not in SCORE_MODES:
        raise ValueError(f"score_mode must be one of {SCORE_MODES}")
    return score_mode


def _run_replication(config: SimulationConfig, classifiers, rep: int, score_mode: str):
    """Sample replication `rep`, fit and score every classifier on it.

    Returns per-classifier AUCs and prototype counts (None for knn). RW
    covers do not depend on e, so they are fitted at most once and each
    rwcccd spec scores them under its own exponent. Every classifier is
    scored from one pass over the test blocks; see the module notes.
    """
    train_data, test_points, test_labels = sample_replication(config, rep)
    base = None  # this replication's RW fit
    models = []  # per spec, its model, or None for knn
    for spec in classifiers:
        if spec.kind == "pcccd":
            models.append(train(train_data, VARIANT_PURE, tau=spec.param))
        elif spec.kind == "rwcccd":
            if base is None:
                base = train(train_data, VARIANT_RW, e=spec.param)
            models.append(replace(base, hyper={"e": spec.param}))
        else:
            models.append(None)
    # each cover model's centers, per class, as training indices
    members = [np.flatnonzero(train_data.labels == c) for c in range(train_data.n_classes)]
    centers = [
        None if model is None else [members[c][cover.center_index] for c, cover in enumerate(model.covers)]
        for model in models
    ]
    # the training points a block holds (see the module notes); a mask, not
    # np.unique, which imports numpy.ma
    used = np.full(train_data.n, any(model is None for model in models))
    for per_class in filter(None, centers):
        used[np.concatenate(per_class)] = True
    column = np.cumsum(used) - 1  # each used training point's column in a block
    # per cover model, its terms and each class's center columns
    plans = [
        None if model is None else (_cover_terms(model), [column[index] for index in per_class])
        for model, per_class in zip(models, centers)
    ]
    reference = train_data.points[used]
    scores = np.empty((len(classifiers), len(test_points)), dtype=np.float64)  # labels convert exactly
    for rows, block in row_blocks(test_points, reference, classifier.QUERY_BLOCK_BYTES):
        for j, (spec, model, plan) in enumerate(zip(classifiers, models, plans)):
            if model is None:
                k = int(spec.param)
                votes = _knn_votes(block, train_data.labels, k, train_data.n_classes)
                out = _labels(-votes, train_data.class_counts) if score_mode == "label" else votes[:, 1] / k
            else:
                terms, columns = plan
                # each class's columns are gathered into a copy, which _minima scales in place
                minima = np.column_stack([_minima(block[:, c], term) for term, c in zip(terms, columns)])
                out = _labels(minima, model.class_counts) if score_mode == "label" else _gap(minima, 1)
            scores[j, rows] = out
    aucs = [auc(s, test_labels) for s in scores]
    protos = [None if m is None else sum(cover.n_balls for cover in m.covers) for m in models]
    return aucs, protos


def _replications(config: SimulationConfig, classifiers, score_mode: str, reps: int, threads: int):
    """The results of replications 0 .. reps-1, yielded in order.

    With more than one worker (threads, capped at reps and the CPU
    count), the replications run on a pool, one per worker at a time, and
    are still yielded strictly in order, so they match the sequential run
    with any thread count. A batch is submitted once the last is consumed
    (`Executor.map` submits all it is given), so a large `reps` costs
    nothing up front, and closing the generator, or a replication
    raising, starts no later batch.
    """
    run = functools.partial(_run_replication, config, classifiers, score_mode=score_mode)
    workers = min(threads, reps, os.cpu_count() or 1)
    if workers <= 1:
        yield from map(run, range(reps))
        return
    # imported here, so that importing ccdig does not load concurrent.futures
    # and the logging and queue modules it pulls in
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start in range(0, reps, workers):
            yield from pool.map(run, range(start, min(start + workers, reps)))


def _se(values) -> float:
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def run_simulation(
    config: SimulationConfig, classifiers, threads: int = 1, score_mode: str = "label"
) -> EvalReport:
    """Replicate train/test sampling until every classifier's mean-AUC
    standard error reaches the target or the replication cap. A target
    of 0 always runs to the cap: replication AUCs that tie exactly give
    an SE of 0, which would otherwise meet it after two replications.

    Deterministic for a given base seed; replication r always draws its
    data from `sample_replication(config, r)`, so the report does not
    depend on the thread count.
    """
    classifiers = tuple(classifiers)
    if not classifiers:
        raise ValueError("need at least one classifier")
    check_integer("threads", threads)
    if threads < 1:
        raise ValueError("threads must be at least 1")
    score_mode = _check_score_mode(score_mode)
    per_clf_aucs: list[list[float]] = [[] for _ in classifiers]
    per_clf_protos: list[list[int]] = [[] for _ in classifiers]
    replications = _replications(config, classifiers, score_mode, config.max_test_reps, threads)
    for aucs, protos in replications:
        for j in range(len(classifiers)):
            per_clf_aucs[j].append(aucs[j])
            per_clf_protos[j].append(protos[j])
        if config.se_target > 0 and len(per_clf_aucs[0]) >= 2 and all(_se(a) <= config.se_target for a in per_clf_aucs):
            replications.close()
            break
    results = tuple(
        ClassifierResult(
            name=spec.kind,
            aucs=tuple(per_clf_aucs[j]),
            prototype_counts=None if per_clf_protos[j][0] is None else tuple(per_clf_protos[j]),
        )
        for j, spec in enumerate(classifiers)
    )
    return EvalReport(config=config, results=results)


@dataclass(frozen=True)
class PilotResult:
    """Histogram of how often each grid value achieved the top AUC."""

    family: str
    grid: tuple[float, ...]
    counts: tuple[int, ...]
    reps: int

    @property
    def selected(self) -> float:
        best = max(self.counts)
        return min(v for v, c in zip(self.grid, self.counts) if c == best)


def pilot_study(
    config: SimulationConfig, family: str, grid, reps: int = 200, score_mode: str = "label"
) -> PilotResult:
    """Per replication, score every grid value on the same train/test pair
    and count which values reach the maximum AUC; the winner is the mode
    (the smallest value on mode ties).
    """
    score_mode = _check_score_mode(score_mode)
    specs = [ClassifierSpec(family, v) for v in grid]  # checks the family and every value
    grid = tuple(spec.param for spec in specs)
    if not grid:
        raise ValueError("the parameter grid must be non-empty")
    if len(set(grid)) != len(grid):
        raise ValueError("grid values must be distinct")
    check_integer("reps", reps)
    if reps < 1:
        raise ValueError("reps must be at least 1")
    counts = np.zeros(len(grid), dtype=np.int64)
    for aucs, _ in _replications(config, specs, score_mode, reps, threads=1):
        counts += np.equal(aucs, max(aucs))
    return PilotResult(family=family, grid=grid, counts=tuple(int(c) for c in counts), reps=reps)


REPORT_FIELDS = (
    "classifier",
    "setting",
    "d",
    "n",
    "m",
    "delta_or_alpha",
    "mean_auc",
    "se",
    "reps",
    "prototypes",
)


def _fmt6(x) -> str:
    return "" if x is None else f"{x:.6g}"


def report_rows(report: EvalReport) -> list[dict]:
    """Flatten a report into CSV-ready row dicts, one per classifier."""
    cfg = report.config
    rows = []
    for res in report.results:
        rows.append(
            {
                "classifier": res.name,
                "setting": cfg.setting,
                "d": cfg.d,
                "n": cfg.n,
                "m": cfg.resolved_m,
                "delta_or_alpha": _fmt6(cfg.delta_or_alpha),
                "mean_auc": _fmt6(res.mean_auc),
                "se": _fmt6(res.se_auc),
                "reps": res.reps,
                "prototypes": _fmt6(res.mean_prototypes),
            }
        )
    return rows


def format_report_table(rows: list[dict]) -> str:
    """Fixed-width text table over report_rows output."""
    widths = {f: len(f) for f in REPORT_FIELDS}
    for row in rows:
        for f in REPORT_FIELDS:
            widths[f] = max(widths[f], len(str(row[f])))
    lines = ["  ".join(f.ljust(widths[f]) for f in REPORT_FIELDS)]
    for row in rows:
        lines.append("  ".join(str(row[f]).ljust(widths[f]) for f in REPORT_FIELDS))
    return "\n".join(lines)
