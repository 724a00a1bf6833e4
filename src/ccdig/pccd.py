"""Pure class covers: capped ball radii, the catch matrix, greedy domination.

A pure cover for a target class is a union of open balls centered at
selected target points. Each radius is capped by the distance to the
nearest non-target point, so no non-target point ever falls strictly
inside a ball. Ball centers are chosen as a greedy approximate minimum
dominating set of the catch digraph, whose arc i -> j means "the ball at
i catches point j".

`pccd_cover` works on plain arrays from end to end:

1. distances: target-to-target `dist_t` (n, n) and target-to-non-target
   `dist_n` (n, m), each computed once; `classifier.train` computes each
   class pair's block once for both classes' covers (`_pure_covers`);
2. radii from both (`pccd_radii`);
3. the closed catch matrix, `dist_t < radii[:, None]` with the diagonal
   set (`build_pccd_digraph`);
4. the greedy dominating set on that matrix, which keeps each vertex's
   count of undominated closed neighbours current by subtracting the
   columns each pick dominates, so every column is summed once
   (`greedy_dominating_set`);
5. the purity and properness flags, checked against the same distances;
6. the `ClassCover` (the cover of both families) of the selected rows:
   `X[sel]`, `sel` and `radii[sel]`.

Memory (n = m, d = 3, measured with tracemalloc): the two distance
matrices hold 16 bytes per n * n cell for the whole cover, `pccd_radii`
briefly adds 9 more and the catch matrix 1, and the peak is 25 bytes
per cell at every n from 200 to 1600 (61 MiB at n = 1600). The distance
kernel's work arrays add at most 1 MiB while m <= 16384 and d <= 128.
A two-class `train` peaks the same: the second cover's `dist_n` is the
transposed copy of the first's, which is freed before its `dist_t` is
computed. With three or more classes, the blocks that later classes
will transpose wait beside the current fit (three classes of 500 points
peak at 13.5 MiB, against 9.4 MiB when each cover computed its own).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import as_points, check_hyper, cross_distance_matrix


class CoverBall(NamedTuple):
    """One ball of a cover, as read from `ClassCover.balls`."""

    center: np.ndarray
    center_index: int
    radius: float
    score: float | None


@dataclass(frozen=True, eq=False)
class ClassCover:
    """The balls selected for one class, as read-only arrays, with
    honesty flags. Ball i is centered at `centers[i]`, target point
    `center_index[i]`, with radius `radii[i]` and, in a random-walk
    cover, score `scores[i]` (None for a pure cover).

    `is_pure`: no non-target training point lies inside any ball
    (strictly inside for open balls, inside-or-on for closed ones).
    `is_proper`: every target training point is covered. Zero-radius
    closed balls cover nothing, not even their own center.
    """

    class_id: int
    centers: np.ndarray  # (k, d)
    center_index: np.ndarray  # (k,)
    radii: np.ndarray  # (k,)
    is_pure: bool
    is_proper: bool
    scores: np.ndarray | None = None  # (k,)

    def __post_init__(self):
        names = ("centers", "center_index", "radii") + (() if self.scores is None else ("scores",))
        for name in names:
            arr = np.array(getattr(self, name), dtype=np.int64 if name == "center_index" else np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "is_pure", bool(self.is_pure))
        object.__setattr__(self, "is_proper", bool(self.is_proper))
        k = self.radii.size
        per_ball = [getattr(self, name).shape for name in names[1:]]
        if k == 0 or self.centers.ndim != 2 or len(self.centers) != k or per_ball != [(k,)] * len(per_ball):
            raise ValueError("a cover needs k >= 1 balls: (k, d) centers and k indices, radii (and scores)")
        if not all(np.isfinite(getattr(self, name)).all() for name in names):
            raise ValueError("ball centers, radii and scores must be finite")
        if np.any(self.radii < 0):
            raise ValueError("radii must be non-negative")

    @property
    def n_balls(self) -> int:
        return len(self.radii)

    @property
    def balls(self) -> tuple[CoverBall, ...]:
        """A per-ball view of the arrays, built anew on each read."""
        scores = [None] * self.n_balls if self.scores is None else self.scores.tolist()
        return tuple(map(CoverBall, self.centers, self.center_index.tolist(), self.radii.tolist(), scores))


def pccd_radii(dist_t, dist_n, tau: float) -> np.ndarray:
    """Ball radius for every target point, from the target-to-target
    (n, n) and target-to-non-target (n, m) distance matrices.

    With d_near = distance to the nearest non-target point and
    d_far = largest target distance strictly below d_near (the point
    itself always qualifies at distance 0), the radius is

        r = (1 - tau) * d_far + tau * d_near

    so r always lands in (0, d_near]. A target point duplicated in the
    non-target class has d_near = 0 and gets radius 0.
    """
    tau = check_hyper("tau", tau)
    n = len(dist_t)
    if dist_t.shape != (n, n) or dist_n.ndim != 2 or len(dist_n) != n or dist_n.shape[1] == 0:
        raise ValueError("need (n, n) target and (n, m >= 1) non-target distance matrices")
    d_near = dist_n.min(axis=1)
    masked = np.where(dist_t < d_near[:, None], dist_t, -np.inf)
    d_far = masked.max(axis=1)
    d_far = np.where(d_near > 0, d_far, 0.0)
    radii = (1.0 - tau) * d_far + tau * d_near
    return np.where(d_near > 0, radii, 0.0)


def build_pccd_digraph(dist_t, radii) -> np.ndarray:
    """Closed catch matrix of the targets: entry (i, j) is True iff j == i
    or target j lies strictly inside ball i (the arc i -> j)."""
    r = np.asarray(radii, dtype=np.float64)
    if r.ndim != 1 or np.shape(dist_t) != (len(r), len(r)):
        raise ValueError("need exactly one radius per target point")
    if np.any(r < 0) or not np.all(np.isfinite(r)):
        raise ValueError("radii must be finite and non-negative")
    closed = dist_t < r[:, None]
    np.fill_diagonal(closed, True)
    return closed


def greedy_dominating_set(closed) -> list[int]:
    """Greedy approximate minimum dominating set, in selection order.

    `closed` is a square boolean matrix with the diagonal set: row i is
    the closed neighborhood of vertex i. Repeatedly picks the
    undominated vertex with the most undominated vertices in its closed
    neighborhood, and marks that neighborhood dominated. Ties go to the
    lowest vertex index.
    """
    closed = np.asarray(closed, dtype=bool)
    if closed.ndim != 2 or closed.shape[0] != closed.shape[1] or not closed.diagonal().all():
        raise ValueError("need a square boolean matrix with the diagonal set")
    counts = closed.sum(axis=1)
    alive = np.ones(len(closed), dtype=bool)
    selected: list[int] = []
    while alive.any():
        v = int(np.argmax(np.where(alive, counts, -1)))
        selected.append(v)
        newly = closed[v] & alive
        alive &= ~newly
        counts -= closed[:, newly].sum(axis=1)
    return selected


def pccd_cover(targets, nontargets, tau: float, class_id: int = 0) -> ClassCover:
    """Greedy approximate minimum-cardinality pure ball cover of the targets.

    The result is always pure and proper; both flags are still verified
    against the training points rather than assumed.
    """
    X = as_points(targets)
    Y = as_points(nontargets)
    if len(X) == 0 or len(Y) == 0:
        raise ValueError("both the target and non-target class must be non-empty")
    return _pure_cover(X, cross_distance_matrix(X, Y), tau, class_id)


def _pure_covers(parts, tau: float) -> list[ClassCover]:
    """The pure cover of each class against the union of the others, from
    the classes' point sets `parts`. Each class pair's block is computed
    once: the (c', c) block is the transpose of (c, c'), bit for bit, and
    is freed once transposed. A class's non-target columns stack in class
    order, which the cover does not depend on: it reads them only through
    `min` and `any`."""
    waiting = [[] for _ in parts]  # blocks (c', c) of earlier classes c', in class order
    covers = []
    for c, X in enumerate(parts):
        blocks = []
        while waiting[c]:
            blocks.append(waiting[c].pop(0).T.copy())
        for later in range(c + 1, len(parts)):
            blocks.append(cross_distance_matrix(X, parts[later]))
            waiting[later].append(blocks[-1])
        dist_n = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
        # hold no block past its use, so a transposed one is freed before
        # the next fit's dist_t exists
        del blocks
        covers.append(_pure_cover(X, dist_n, tau, c))
        del dist_n
    return covers


def _pure_cover(X: np.ndarray, dist_n: np.ndarray, tau: float, class_id: int) -> ClassCover:
    """The pure cover of the targets X, from their distances to the
    non-targets; see the module notes."""
    dist_t = cross_distance_matrix(X, X)
    radii = pccd_radii(dist_t, dist_n, tau)
    sel = np.array(greedy_dominating_set(build_pccd_digraph(dist_t, radii)), dtype=np.int64)
    r_sel = radii[sel]
    is_pure = not np.any(dist_n[sel] < r_sel[:, None])
    covered = np.zeros(len(X), dtype=bool)
    covered[sel] = True  # a dominating-set member covers itself
    covered |= np.any(dist_t[sel] < r_sel[:, None], axis=0)
    return ClassCover(
        class_id=class_id, centers=X[sel], center_index=sel, radii=r_sel, is_pure=is_pure, is_proper=covered.all()
    )
