"""Shared generators and independent oracles for the test suite."""

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ccdig.classifier import LARGE_GAP, SCORE_CLAMP
from ccdig.core import LabeledDataset, as_points, check_hyper, cross_distance_matrix
from ccdig.pccd import ClassCover, CoverBall


def as_point(p) -> np.ndarray:
    """Coerce a single point to a 1-D float64 array of finite coordinates."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"a point must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("a point needs at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


def random_instance(seed, dims=(1, 2, 5), n_range=(5, 60), m_range=(5, 60)):
    """A random two-class instance mixing uniform boxes and Gaussian blobs."""
    rng = np.random.default_rng(seed)
    d = int(rng.choice(dims))
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    m = int(rng.integers(m_range[0], m_range[1] + 1))

    def draw(count):
        center = rng.uniform(-1.0, 1.0, d)
        if rng.random() < 0.5:
            width = rng.uniform(0.2, 2.0)
            return center + rng.uniform(-width, width, (count, d))
        sigma = rng.uniform(0.1, 1.0)
        return center + sigma * rng.standard_normal((count, d))

    return draw(n), draw(m)


def array_cover(class_id, centers, radii, scores=None) -> ClassCover:
    """A pure and proper cover of one-dimensional or (k, d) `centers`
    with the given radii (and scores); ball i is centered at target i."""
    radii = np.asarray(radii, dtype=np.float64)
    return ClassCover(
        class_id=class_id,
        centers=np.asarray(centers, dtype=np.float64).reshape(len(radii), -1),
        center_index=np.arange(len(radii)),
        radii=radii,
        is_pure=True,
        is_proper=True,
        scores=scores,
    )


def distance(a, b) -> float:
    """Euclidean distance between two points of equal dimension."""
    pa = as_point(a)
    pb = as_point(b)
    if pa.shape != pb.shape:
        raise ValueError(f"dimension mismatch: {pa.size} vs {pb.size}")
    diff = pa - pb
    return float(np.sqrt((diff * diff).sum(axis=-1)))


def scaled_dissimilarity(z, ball: CoverBall) -> float:
    """d(z, center) / radius; a zero-radius ball is infinitely far from
    everything except its own center."""
    center = ball.center
    p = as_point(z)
    if p.shape != center.shape:
        raise ValueError(f"dimension mismatch: {p.size} vs {center.size}")
    diff = p - center
    d = float(np.sqrt((diff * diff).sum(axis=-1)))
    if ball.radius > 0:
        return d / ball.radius
    return 0.0 if d == 0.0 else float("inf")


def weighted_dissimilarity(z, ball: CoverBall, e: float) -> float:
    """Scaled dissimilarity raised to the ball's clamped score to the e.

    Not a bit-exact oracle of random-walk predictions: numpy's scalar
    and array `power` may round differently in the last bit, so at
    e=0.5 three of 52 class minima of a small two-class model come out
    one ulp apart from `predict_batch`. Compare with a tolerance."""
    if ball.score is None:
        raise ValueError("ball has no score; weighted dissimilarity needs one")
    e = check_hyper("e", e)
    rho = scaled_dissimilarity(z, ball)
    exponent = max(ball.score, SCORE_CLAMP) ** e
    with np.errstate(over="ignore"):  # huge rho**exponent saturates to inf
        return float(np.float64(rho) ** np.float64(exponent))


@dataclass(frozen=True, eq=False)
class RwProfile:
    """Walk values over the sorted set of candidate radii for one center."""

    candidate_radii: np.ndarray
    walk_values: np.ndarray

    def __post_init__(self):
        cand = np.asarray(self.candidate_radii, dtype=np.float64).copy()
        walk = np.asarray(self.walk_values, dtype=np.float64).copy()
        if cand.ndim != 1 or cand.shape != walk.shape or len(cand) == 0:
            raise ValueError("profile needs matching non-empty radius and walk arrays")
        if np.any(np.diff(cand) <= 0):
            raise ValueError("candidate radii must be strictly increasing")
        if cand[0] != 0.0:
            raise ValueError("candidate radii must include the self-distance 0")
        cand.flags.writeable = False
        walk.flags.writeable = False
        object.__setattr__(self, "candidate_radii", cand)
        object.__setattr__(self, "walk_values", walk)


@dataclass(frozen=True)
class RwBallSelection:
    """Chosen radius for one center plus its walk value and score."""

    radius: float
    walk_value: float
    score: float


def rw_profile(x, H0, H1) -> RwProfile:
    """Walk values for a center x over all candidate radii.

    x must belong to H0, the uncovered target points; H1 holds the
    uncovered non-target points and may be empty (then the reweighting
    factor defaults to 1 and the negative term vanishes).
    """
    X0 = as_points(H0)
    if len(X0) == 0:
        raise ValueError("the uncovered target set must be non-empty")
    p = as_point(x)
    d0 = cross_distance_matrix(p[None, :], X0)[0]
    if len(H1) > 0:
        d1 = cross_distance_matrix(p[None, :], as_points(H1))[0]
    else:
        d1 = np.empty(0, dtype=np.float64)
    if d0.min() != 0.0:
        raise ValueError("x must be a member of the uncovered target set")
    weight = len(d1) / len(d0) if len(d1) > 0 else 1.0
    cand = np.unique(np.concatenate([d0, d1]))
    count_t = np.searchsorted(np.sort(d0), cand, side="right")
    count_n = np.searchsorted(np.sort(d1), cand, side="right")
    walk = weight * count_t - count_n
    return RwProfile(candidate_radii=cand, walk_values=walk)


def rw_radius(profile: RwProfile) -> tuple[float, float]:
    """Radius maximizing the walk (no extra penalty), smallest on ties."""
    i = int(np.argmax(profile.walk_values))
    return float(profile.candidate_radii[i]), float(profile.walk_values[i])


def rw_score(walk_value: float, radius: float, n_uncovered: int, d_max: float) -> float:
    """Selection score: walk_value - radius * n_uncovered / (2 * d_max).

    A singleton target class has d_max = 0; the penalty is then defined
    as 0 to keep the score total. The penalty is evaluated as
    (radius / d_max) * (n_uncovered / 2) so that the frequent radius ==
    d_max case yields an exactly scale-free score.
    """
    if n_uncovered < 1:
        raise ValueError("n_uncovered must be at least 1")
    if d_max < 0:
        raise ValueError("d_max must be non-negative")
    if d_max == 0:
        return float(walk_value)
    return float(walk_value - (radius / d_max) * (n_uncovered / 2.0))


def rw_select(x, H0, H1, n_uncovered: int, d_max: float) -> RwBallSelection:
    """Radius, walk value, and score for one candidate center."""
    radius, walk = rw_radius(rw_profile(x, H0, H1))
    return RwBallSelection(radius=radius, walk_value=walk, score=rw_score(walk, radius, n_uncovered, d_max))


def broadcast_distance_matrix(A, B) -> np.ndarray:
    """Reference distance kernel: sqrt(((a - b) ** 2).sum(-1)) over the
    (chunk, m, d) broadcast of the two point sets, rows chunked to 4 M
    entries; numpy's own sum sets the order of the additions."""
    a = as_points(A)
    b = as_points(B)
    out = np.empty((len(a), len(b)), dtype=np.float64)
    chunk = max(1, 4_000_000 // (b.shape[0] * b.shape[1] + 1))
    for i in range(0, len(a), chunk):
        diff = a[i : i + chunk, None, :] - b[None, :, :]
        out[i : i + chunk] = np.sqrt((diff * diff).sum(axis=-1))
    return out


def distance_pair(targets, nontargets):
    """The (target-target, target-non-target) distance matrices a pure
    cover is built from."""
    X = as_points(targets)
    return cross_distance_matrix(X, X), cross_distance_matrix(X, nontargets)


def exact_min_dominating_size(closed) -> int:
    """Exhaustive minimum dominating set size of a closed catch matrix
    (row i = closed neighborhood of vertex i; small matrices only)."""
    n = len(closed)
    if n == 0:
        return 0
    rows = [frozenset(np.flatnonzero(row).tolist()) | {i} for i, row in enumerate(closed)]
    everything = frozenset(range(n))
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            dominated = frozenset()
            for v in subset:
                dominated |= rows[v]
            if dominated == everything:
                return size
    raise AssertionError("the full vertex set always dominates")


def naive_greedy_dominating_set(closed) -> list[int]:
    """Reference greedy dominating set: recounts every undominated
    vertex's undominated closed neighborhood before each pick and takes
    the first maximum."""
    closed = np.asarray(closed, dtype=bool)
    alive = np.ones(len(closed), dtype=bool)
    selected = []
    while alive.any():
        idx = np.flatnonzero(alive)
        counts = closed[np.ix_(idx, idx)].sum(axis=1)
        v = int(idx[np.argmax(counts)])
        selected.append(v)
        alive &= ~closed[v]
    return selected


def brute_force_walk(x, H0, H1):
    """Direct recomputation of the signed reweighted count per candidate radius.

    Distances come from the scalar distance op; counts and the weighted
    sum are plain Python arithmetic.
    """
    d0 = [distance(x, z) for z in H0]
    d1 = [distance(x, z) for z in H1]
    weight = len(d1) / len(d0) if d1 else 1.0
    candidates = sorted(set(d0) | set(d1))
    walks = []
    for r in candidates:
        ct = sum(1 for v in d0 if v <= r)
        cn = sum(1 for v in d1 if v <= r)
        walks.append(weight * ct - cn)
    return candidates, walks


def naive_rw_trace(targets, nontargets, with_alive=False):
    """Reference random-walk cover built ball by ball from the
    single-center oracles; returns [(center_index, radius, score), ...].

    With `with_alive` it also returns, per selection, the (targets,
    non-targets) index lists still uncovered when that ball was chosen.
    """
    X = np.asarray(targets, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    Y = np.asarray(nontargets, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    n, m = len(X), len(Y)
    d_max = [max(distance(X[i], X[j]) for j in range(n)) for i in range(n)]
    alive_t = list(range(n))
    alive_n = list(range(m))
    trace = []
    alive = []
    while alive_t:
        alive.append((alive_t, alive_n))
        H0 = [X[i] for i in alive_t]
        H1 = [Y[j] for j in alive_n]
        n_uncovered = len(alive_t)
        best = None
        best_i = None
        for i in alive_t:
            sel = rw_select(X[i], H0, H1, n_uncovered, d_max[i])
            if best is None or sel.score > best.score:
                best, best_i = sel, i
        trace.append((best_i, best.radius, best.score))
        alive_t = [i for i in alive_t if distance(X[best_i], X[i]) > best.radius]
        alive_n = [j for j in alive_n if distance(X[best_i], Y[j]) > best.radius]
    return (trace, alive) if with_alive else trace


def rw_cover_flags(targets, nontargets, center_index, radii) -> tuple[bool, bool]:
    """(is_pure, is_proper) of a random-walk cover from its centers'
    distances to every point: no non-target lies in a closed ball, and
    every target lies in a closed ball of positive radius (a zero-radius
    ball covers nothing). The reference for `rw_cover`'s flags."""
    X = as_points(targets)
    Y = np.asarray(nontargets, dtype=np.float64).reshape(-1, X.shape[1])
    n = len(X)
    dist = cross_distance_matrix(X[center_index], np.vstack([X, Y]))
    r = np.asarray(radii)[:, None]
    is_pure = not np.any(dist[:, n:] <= r)
    is_proper = bool(np.any((dist[:, :n] <= r) & (r > 0), axis=0).all())
    return is_pure, is_proper


def argmin_label(minima, class_counts) -> int:
    """Reference tie-break of one row of per-class minima: the argmin,
    ties broken toward the larger class, then the lower id."""
    minima = np.asarray(minima)
    best = minima.min()
    candidates = np.flatnonzero(minima == best)
    return int(min(candidates, key=lambda c: (-class_counts[c], c)))


def stable_sort_knn(train_points, train_labels, points, k):
    """Reference k-NN: the neighbors are the first k of a stable argsort of
    each query's distances (ties to the lower training index); the vote
    goes to the most frequent label, then the larger class, then the
    lower id. Returns (labels, neighbor label matrix)."""
    labels = np.asarray(train_labels)
    counts = np.bincount(labels)
    nearest = np.argsort(broadcast_distance_matrix(points, train_points), axis=1, kind="stable")[:, :k]
    neighbors = labels[nearest]
    votes = [np.bincount(row, minlength=len(counts)) for row in neighbors]
    majority = [min(range(len(counts)), key=lambda c: (-v[c], -counts[c], c)) for v in votes]
    return np.array(majority), neighbors


def brute_force_auc(scores, labels) -> float:
    """All-pairs Mann-Whitney statistic with half weight on ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def trapezoid_roc_auc(scores, labels) -> float:
    """Area under the empirical ROC step curve by trapezoidal integration."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    order = np.argsort(-s, kind="stable")
    s = s[order]
    y = y[order]
    n1 = int((y == 1).sum())
    n0 = len(y) - n1
    tp = np.cumsum(y == 1)
    fp = np.cumsum(y == 0)
    # keep only the last point of each tied-score run
    keep = np.concatenate([s[1:] != s[:-1], [True]])
    tpr = np.concatenate([[0.0], tp[keep] / n1])
    fpr = np.concatenate([[0.0], fp[keep] / n0])
    return float(np.trapezoid(tpr, fpr))


def ln_bound(n: int) -> float:
    return 1.0 + math.log(n)


def discriminant_gap(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """neg - pos with an infinite side replaced by +-LARGE_GAP and two
    infinite sides by 0, case by case: the reference for
    `discriminant_batch`."""
    pos_inf = np.isinf(pos)
    neg_inf = np.isinf(neg)
    out = np.where(neg_inf, LARGE_GAP, np.where(pos_inf, -LARGE_GAP, 0.0))
    both_fin = ~pos_inf & ~neg_inf
    out[both_fin] = neg[both_fin] - pos[both_fin]
    out[pos_inf & neg_inf] = 0.0
    return out


def dataset_to_csv(ds: LabeledDataset) -> str:
    """A dataset written back to CSV, one `repr(float)` per coordinate so
    that floats keep full round-trip precision: the oracle of the parser's
    round-trip tests."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"x{j + 1}" for j in range(ds.dim)] + ["class"])
    for pt, lab in zip(ds.points, ds.labels):
        writer.writerow([repr(float(v)) for v in pt] + [ds.label_names[lab]])
    return out.getvalue()


def feature_matrix(text: str, label_columns: int) -> np.ndarray:
    """The feature matrix of a well-formed CSV by a nested list
    comprehension, one `float()` per cell: the reference for the parsers'
    one-pass conversion."""
    header, *data = csv.reader(io.StringIO(text))
    features = len(header) - label_columns
    return np.array([[float(c) for c in row[:features]] for row in data], dtype=np.float64)


def predict_csv(label_map, labels, minima, scores: bool) -> str:
    """`ccdig predict` output written one `csv.writer` row per query, with
    one f-string per dissimilarity: the reference for the CLI's writer."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["prediction"]
    if scores:
        header += [f"dissim_{name}" for name in label_map]
    writer.writerow(header)
    for lab, row in zip(np.asarray(labels).tolist(), np.asarray(minima).tolist()):
        writer.writerow([label_map[lab], *(f"{v:.6g}" for v in row)] if scores else [label_map[lab]])
    return out.getvalue()


def median_leaves(points: np.ndarray, rows: int) -> list[np.ndarray]:
    """The query leaves of `classifier._leaves`, each split taking the
    spread of one gathered coordinate at a time."""
    perm = np.arange(len(points))
    stack, leaves = [(0, len(points))], []
    while stack:
        start, stop = stack.pop()
        seg = perm[start:stop]
        if stop - start <= rows:
            leaves.append(seg.copy())
            continue
        spread = [np.ptp(points[seg, k]) for k in range(points.shape[1])]
        half = (stop - start) // 2
        seg[:] = seg[np.argpartition(points[seg, int(np.argmax(spread))], half)]
        stack += [(start + half, stop), (start, start + half)]
    return leaves
