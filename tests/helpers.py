"""Shared generators and independent oracles for the test suite."""

import itertools
import math

import numpy as np

from ccdig.core import as_points, cross_distance_matrix, distance
from ccdig.rwccd import rw_select


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


def brute_force_walk(x, H0, H1, weight=None):
    """Direct recomputation of the signed reweighted count per candidate radius.

    Distances come from the scalar distance op; counts and the weighted
    sum are plain Python arithmetic.
    """
    d0 = [distance(x, z) for z in H0]
    d1 = [distance(x, z) for z in H1]
    if weight is None:
        weight = len(d1) / len(d0) if d1 else 1.0
    candidates = sorted(set(d0) | set(d1))
    walks = []
    for r in candidates:
        ct = sum(1 for v in d0 if v <= r)
        cn = sum(1 for v in d1 if v <= r)
        walks.append(weight * ct - cn)
    return candidates, walks


def naive_rw_trace(targets, nontargets, fixed_weight=False, with_alive=False):
    """Reference random-walk cover built ball by ball from the public
    single-center ops; returns [(center_index, radius, score), ...].

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
        if fixed_weight:
            weight = m / n if m > 0 else 1.0
        else:
            weight = len(H1) / len(H0) if H1 else 1.0
        n_uncovered = len(alive_t)
        best = None
        best_i = None
        for i in alive_t:
            sel = rw_select(X[i], H0, H1, n_uncovered, d_max[i], weight=weight)
            if best is None or sel.score > best.score:
                best, best_i = sel, i
        trace.append((best_i, best.radius, best.score))
        alive_t = [i for i in alive_t if distance(X[best_i], X[i]) > best.radius]
        alive_n = [j for j in alive_n if distance(X[best_i], Y[j]) > best.radius]
    return (trace, alive) if with_alive else trace


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
