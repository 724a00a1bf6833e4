"""Checks of ccdig's outputs, each computed apart from the program.

Every check raises CheckError with a one-line reason. Distances are
recomputed here as the square root of the summed squared coordinate
differences, the arithmetic the definitions use, so radii, scores and
dissimilarities can be compared exactly rather than within a tolerance.
Only the save/load and AUC checks call the library, because what they
check is a property of its functions.
"""

from __future__ import annotations

import csv
import json

import numpy as np

SCORE_FLOOR = 1e-3  # random-walk ball scores are clamped here before **e


class CheckError(Exception):
    """An output of the program is wrong."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def distances(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    diff = points - center
    return np.sqrt((diff * diff).sum(axis=-1))


def distance_matrix(A: np.ndarray, B: np.ndarray, chunk: int = 1024) -> np.ndarray:
    out = np.empty((len(A), len(B)))
    for s in range(0, len(A), chunk):
        diff = A[s : s + chunk, None, :] - B[None, :, :]
        out[s : s + chunk] = np.sqrt((diff * diff).sum(axis=-1))
    return out


def _balls(cover: dict):
    balls = cover["balls"]
    index = np.array([b["center_index"] for b in balls], dtype=np.int64)
    centers = np.array([b["center"] for b in balls], dtype=np.float64)
    radii = np.array([b["radius"] for b in balls], dtype=np.float64)
    return index, centers, radii


def _class_sets(doc: dict, points: np.ndarray, labels: np.ndarray, c: int):
    """Targets and non-targets of class c, targets in training-file order."""
    cover = doc["covers"][c]
    name = doc["label_map"][c]
    targets = points[labels == name]
    require(cover["class_id"] == c, f"cover {c} claims class id {cover['class_id']}")
    require(cover["n_train"] == len(targets), f"class {name}: n_train {cover['n_train']} != {len(targets)}")
    return targets, points[labels != name]


def check_pure_cover(doc: dict, points: np.ndarray, labels: np.ndarray, tau: float) -> None:
    """Pure and proper by the definition, and r = (1-tau)*d_far + tau*d_near
    for every ball, with d_near the nearest non-target distance and d_far
    the largest target distance strictly below it."""
    require(doc["variant"] == "pure" and doc["hyper"] == {"tau": tau}, "not a pure model with the given tau")
    for c in range(len(doc["covers"])):
        targets, enemies = _class_sets(doc, points, labels, c)
        index, centers, radii = _balls(doc["covers"][c])
        require(len(index) > 0, f"class {c}: empty cover")
        require(np.array_equal(targets[index], centers), f"class {c}: a ball center is not its training point")
        d_t = distance_matrix(centers, targets)
        d_e = distance_matrix(centers, enemies)
        inside = np.argwhere(d_e < radii[:, None])
        require(len(inside) == 0, f"class {c}: impure, a non-target lies inside ball {inside[:1].tolist()}")
        covered = (d_t < radii[:, None]).any(axis=0)
        covered[index] = True
        require(covered.all(), f"class {c}: improper, target {np.flatnonzero(~covered)[:1].tolist()} uncovered")
        d_near = d_e.min(axis=1)
        d_far = np.where(d_t < d_near[:, None], d_t, -np.inf).max(axis=1)
        expected = (1.0 - tau) * d_far + tau * d_near
        bad = np.flatnonzero(radii != expected)
        require(len(bad) == 0, f"class {c}: ball {bad[:1].tolist()} radius is not (1-tau)*d_far + tau*d_near")
        require(doc["covers"][c]["is_pure"] is True and doc["covers"][c]["is_proper"] is True,
                f"class {c}: a pure cover must be flagged pure and proper")


def rw_select(targets, enemies, alive_t, alive_e, d_max):
    """One random-walk selection over the alive sets, candidate by candidate.

    Returns (center index, radius, score) of the highest score; the
    lowest index wins ties, and the smallest radius wins walk ties.
    """
    n_alive = int(alive_t.sum())
    m_alive = int(alive_e.sum())
    weight = m_alive / n_alive if m_alive else 1.0
    live_t = targets[alive_t]
    live_e = enemies[alive_e]
    best = None
    for i in np.flatnonzero(alive_t):
        d_t = np.sort(distances(live_t, targets[i]))
        d_e = np.sort(distances(live_e, targets[i]))
        radii = np.unique(np.concatenate([d_t, d_e]))
        walk = weight * np.searchsorted(d_t, radii, side="right") - np.searchsorted(d_e, radii, side="right")
        j = int(np.argmax(walk))
        penalty = (radii[j] / d_max[i]) * (n_alive / 2.0) if d_max[i] > 0 else 0.0
        score = float(walk[j] - penalty)
        if best is None or score > best[2]:
            best = (int(i), float(radii[j]), score)
    return best


def check_rw_cover(doc: dict, points: np.ndarray, labels: np.ndarray, prefix: int) -> None:
    """Closed balls cover every target, the first `prefix` selections of
    each class match an independent walk-and-score computation, and every
    later ball is centered on a target its predecessors left uncovered."""
    require(doc["variant"] == "random_walk", "not a random-walk model")
    for c in range(len(doc["covers"])):
        targets, enemies = _class_sets(doc, points, labels, c)
        balls = doc["covers"][c]["balls"]
        index, centers, radii = _balls(doc["covers"][c])
        require(all("score" in b for b in balls), f"class {c}: a random-walk ball lacks its score")
        require(np.array_equal(targets[index], centers), f"class {c}: a ball center is not its training point")
        covered = (distance_matrix(centers, targets) <= radii[:, None]).any(axis=0)
        require(covered.all(), f"class {c}: target {np.flatnonzero(~covered)[:1].tolist()} outside every ball")
        d_max = distance_matrix(targets, targets).max(axis=1)
        alive_t = np.ones(len(targets), dtype=bool)
        alive_e = np.ones(len(enemies), dtype=bool)
        for k, ball in enumerate(balls):
            if k < prefix:
                i, radius, score = rw_select(targets, enemies, alive_t, alive_e, d_max)
                require(
                    (i, radius, score) == (index[k], radii[k], ball["score"]),
                    f"class {c}: selection {k} is {(int(index[k]), radii[k], ball['score'])}, "
                    f"the walk gives {(i, radius, score)}",
                )
            else:
                require(alive_t[index[k]], f"class {c}: ball {k} is centered on a covered target")
            alive_t &= ~(distances(targets, centers[k]) <= radii[k])
            alive_e &= ~(distances(enemies, centers[k]) <= radii[k])
        require(not alive_t.any(), f"class {c}: targets remain after the last ball")


def class_minima(doc: dict, queries: np.ndarray, chunk: int = 1024) -> np.ndarray:
    """Per-class minimum scaled dissimilarity d/r, raised for random-walk
    balls to max(score, 1e-3)**e; a zero radius is 0 at its center and
    infinite elsewhere."""
    out = np.empty((len(queries), len(doc["covers"])))
    for c, cover in enumerate(doc["covers"]):
        _, centers, radii = _balls(cover)
        exponent = None
        if doc["variant"] == "random_walk":
            scores = np.array([b["score"] for b in cover["balls"]], dtype=np.float64)
            exponent = np.maximum(scores, SCORE_FLOOR) ** doc["hyper"]["e"]
        positive = radii > 0
        for s in range(0, len(queries), chunk):
            d = distance_matrix(queries[s : s + chunk], centers)
            rho = np.where(positive, d / np.where(positive, radii, 1.0), np.where(d == 0.0, 0.0, np.inf))
            if exponent is not None:
                with np.errstate(over="ignore"):
                    rho = rho**exponent
            out[s : s + chunk, c] = rho.min(axis=1)
    return out


def expected_labels(minima: np.ndarray, class_counts) -> np.ndarray:
    """Argmin over classes; ties go to the larger class, then the lower id."""
    order = sorted(range(minima.shape[1]), key=lambda c: (-class_counts[c], c))
    tied = minima == minima.min(axis=1, keepdims=True)
    return np.array(order)[np.argmax(tied[:, order], axis=1)]


def check_predictions(doc: dict, queries: np.ndarray, pred_path) -> None:
    """`ccdig predict --scores` output against labels and dissimilarities
    recomputed from the saved model."""
    with open(pred_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    names = doc["label_map"]
    require(rows and rows[0] == ["prediction"] + [f"dissim_{n}" for n in names], "unexpected predict header")
    require(len(rows) - 1 == len(queries), f"{len(rows) - 1} predictions for {len(queries)} queries")
    minima = class_minima(doc, queries)
    labels = expected_labels(minima, [cover["n_train"] for cover in doc["covers"]])
    for i, row in enumerate(rows[1:]):
        want = [names[labels[i]]] + [f"{v:.6g}" for v in minima[i]]
        require(row == want, f"query {i}: predicted {row}, expected {want}")


def check_report(path, classifiers: tuple[str, ...], rows_expected: int, reps: int) -> None:
    """Every report row ran the full replication cap and has an AUC in [0, 1]."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == rows_expected, f"report has {len(rows)} rows, expected {rows_expected}")
    for row in rows:
        require(row["classifier"] in classifiers, f"unexpected classifier {row['classifier']!r}")
        require(int(row["reps"]) == reps, f"{row['classifier']}: {row['reps']} replications, cap is {reps}")
        require(0.0 <= float(row["mean_auc"]) <= 1.0, f"{row['classifier']}: AUC {row['mean_auc']} outside [0,1]")


def check_same_bytes(path_a, path_b, what: str) -> None:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        require(fa.read() == fb.read(), f"{what}: {path_a} and {path_b} differ")


def brute_force_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins / (pos.size * neg.size))


def check_auc(value: float, scores: np.ndarray, labels: np.ndarray) -> None:
    expected = brute_force_auc(scores, labels)
    require(abs(value - expected) <= 1e-12, f"auc {value!r} != pairwise count {expected!r}")


def check_save_load(model, path, points: np.ndarray, corrupt=None) -> None:
    """Save a fitted model, load it back, and require identical covers and
    bit-identical predictions on `points`. `corrupt(path)`, if given,
    edits the file in between."""
    from ccdig import load_model, predict_batch, save_model

    save_model(model, path)
    if corrupt is not None:
        corrupt(path)
    loaded = load_model(path)
    require(loaded.variant == model.variant and loaded.hyper == model.hyper, "variant or hyper changed on reload")
    require(loaded.label_map == model.label_map and loaded.class_counts == model.class_counts,
            "labels or class counts changed on reload")
    for a, b in zip(model.covers, loaded.covers):
        require(a.n_balls == b.n_balls, f"class {a.class_id}: ball count changed on reload")
        for x, y in zip(a.balls, b.balls):
            same = x.center.tobytes() == y.center.tobytes() and x.radius == y.radius and x.score == y.score
            require(same, f"class {a.class_id}: ball {x.center_index} changed on reload")
    labels_a, minima_a = predict_batch(model, points)
    labels_b, minima_b = predict_batch(loaded, points)
    require(np.array_equal(labels_a, labels_b) and minima_a.tobytes() == minima_b.tobytes(),
            "reloaded model predicts differently")
