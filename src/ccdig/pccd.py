"""Pure class covers: capped ball radii, the catch matrix, greedy domination.

A pure cover for a target class is a union of open balls centered at
selected target points. Each radius is capped by the distance to the
nearest non-target point, so no non-target point ever falls strictly
inside a ball. Ball centers are chosen as a greedy approximate minimum
dominating set of the catch digraph, whose arc i -> j means "the ball at
i catches point j".

`pccd_cover` and `classifier.train` (through `_pure_covers`) run one
blocked pass on plain arrays:

1. nearest non-target distances (`_nearest_other`): each class pair
   (c, c') is visited once, in row blocks of c against all of c'; a
   block's row minima go to c's `d_near` and its column minima to c''s;
2. per class, in row blocks of its targets: the block's distances to
   all n targets, the block's radii from them and `d_near` (`_radii`,
   the formula `pccd_radii` documents, as one masked maximum), and the
   block's rows of the closed catch matrix, `dist < radii[:, None]`;
   then the diagonal is set. The mask and the catch rows are broadcasts
   and run under `core.unbuffered` once a class has UNBUFFERED_MIN
   points;
3. the greedy dominating set on that matrix, searched lazily: each
   vertex keeps an upper bound of its count of undominated closed
   neighbours, which only falls, and only the row at the first maximum
   bound is recounted; it is the pick once its count equals its bound.
   Each miss lowers one bound, so there are no more misses than True
   entries in the matrix, and no pick reads a column. The count-1 tail
   is appended in one step (`greedy_dominating_set` gives the argument);
4. the purity and properness flags, without distances: a ball holds a
   non-target iff its center's nearest one lies inside it,
   `d_near[sel] < radii[sel]`, and a target is covered iff a selected
   row of the closed matrix holds it (the diagonal covers the centers);
5. the `ClassCover` (the cover of both families) of the selected rows:
   `X[sel]`, `sel` and `radii[sel]`.

Steps 1 and 2 take their blocks from `core.row_blocks`: FIT_BLOCK_BYTES
of float64 distances, rows by all the columns. A block's entries equal
the full matrix's rows bit for bit, the (c', c) entries equal the
(c, c') ones, and `min` and `any` do not depend on the order they read
them in, so the covers are those of the full matrices. `pccd_radii` and
`build_pccd_digraph` keep the full-matrix forms of steps 2 and 3.

Memory (two classes, n = m, d = 3, tracemalloc over `train`): only the
n x n boolean catch matrix, 1 byte per n * n cell, lives through a fit,
beside per-point vectors and one block's distances, their masked copy
and the kernel's work arrays. The peak is 1.37 bytes per cell at
n = 1600 (3.4 MiB), 1.07 at n = 4000 (16.3 MiB) and 1.02 at n = 10000
(97 MiB). Each class's catch matrix is freed before the next is built,
so with more classes the largest class sets the peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import UNBUFFERED_MIN, as_points, block_rows, check_hyper, row_blocks, unbuffered

# float64 bytes in one block of fit distances, rows by all the columns;
# two-class fits at n = 1600 and 4000 took the same time from 256 KiB to
# 1 MiB (2-core host), and the smallest of those keeps the peak lowest
FIT_BLOCK_BYTES = 2**18


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
        as_points(self.centers)  # the centers are a point set, held to its coordinate bound
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
    n = len(dist_t)
    if dist_t.shape != (n, n) or dist_n.ndim != 2 or len(dist_n) != n or dist_n.shape[1] == 0:
        raise ValueError("need (n, n) target and (n, m >= 1) non-target distance matrices")
    return _radii(dist_t, dist_n.min(axis=1), check_hyper("tau", tau))


def _radii(dist_t, d_near, tau: float) -> np.ndarray:
    """`pccd_radii` of target rows `dist_t` (rows, n), given their
    nearest non-target distances `d_near` (rows,), with tau already
    checked. A radius is one masked maximum with floor 0: each row holds
    its own target at distance 0, so no zero case (d_near = 0) needs a
    mask."""
    d_far = dist_t.max(axis=1, where=dist_t < d_near[:, None], initial=0.0)
    return (1.0 - tau) * d_far + tau * d_near


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

    The picks are found lazily (Minoux's accelerated greedy). `counts`
    holds an upper bound of each vertex's count, its row sum at first
    and 0 once it is dominated; a count only falls. Only the row at the
    first maximum bound, v, is recounted. If the count is lower, it
    becomes v's bound and the search repeats. If it equals the bound, v
    is the pick: every vertex before v has a bound, and so a count,
    below it, and every vertex after v a count at most equal to it. Each
    recount that misses lowers a bound, so there are at most as many
    misses as True entries in `closed`.

    Once the largest bound is 1, every undominated vertex's closed
    neighborhood holds no undominated vertex but itself, so no pick can
    change another's count: the rest are picked one at a time in
    increasing index order, and they are appended in one step.
    """
    closed = np.asarray(closed, dtype=bool)
    if closed.ndim != 2 or closed.shape[0] != closed.shape[1] or not closed.diagonal().all():
        raise ValueError("need a square boolean matrix with the diagonal set")
    counts = closed.sum(axis=1)
    alive = np.ones(len(closed), dtype=bool)
    selected: list[int] = []
    while counts.size:  # np.argmax of no vertices raises
        v = int(np.argmax(counts))
        if counts[v] <= 1:
            break
        newly = closed[v] & alive
        fresh = np.count_nonzero(newly)
        if fresh < counts[v]:
            counts[v] = fresh
            continue
        selected.append(v)
        alive &= ~newly
        counts[newly] = 0  # a live vertex counts itself, so a dead one never wins
    selected.extend(np.flatnonzero(alive).tolist())
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
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    return _pure_cover(X, _nearest_other([X, Y])[0], check_hyper("tau", tau), class_id)


def _pure_covers(parts, tau: float) -> list[ClassCover]:
    """The pure cover of each class against the union of the others, from
    the classes' point sets `parts`."""
    d_near = _nearest_other(parts)
    return [_pure_cover(X, d_near[c], tau, c) for c, X in enumerate(parts)]


def _nearest_other(parts) -> list[np.ndarray]:
    """For each class, every point's distance to the nearest point of
    another class; see step 1 of the module notes."""
    d_near = [np.full(len(X), np.inf) for X in parts]
    for c, X in enumerate(parts):
        for later in range(c + 1, len(parts)):
            for rows, block in row_blocks(X, parts[later], FIT_BLOCK_BYTES):
                np.minimum(d_near[c][rows], block.min(axis=1), out=d_near[c][rows])
                np.minimum(d_near[later], block.min(axis=0), out=d_near[later])
    return d_near


def _pure_cover(X: np.ndarray, d_near: np.ndarray, tau: float, class_id: int) -> ClassCover:
    """The pure cover of the targets X, from their nearest non-target
    distances; see the module notes."""
    n = len(X)
    radii = np.empty(n)
    closed = np.empty((n, n), dtype=bool)
    for rows, dist in row_blocks(X, X, FIT_BLOCK_BYTES):
        with unbuffered(n >= UNBUFFERED_MIN):  # the mask and the catch rows are broadcasts
            radii[rows] = _radii(dist, d_near[rows], tau)
            np.less(dist, radii[rows, None], out=closed[rows])
    np.fill_diagonal(closed, True)
    sel = np.array(greedy_dominating_set(closed), dtype=np.int64)
    r_sel = radii[sel]
    # a ball holds a non-target iff its nearest one lies inside it
    is_pure = not np.any(d_near[sel] < r_sel)
    covered = np.zeros(n, dtype=bool)
    step = block_rows(FIT_BLOCK_BYTES, n)
    for i in range(0, len(sel), step):
        covered |= closed[sel[i : i + step]].any(axis=0)  # the diagonal: a center covers itself
    return ClassCover(
        class_id=class_id, centers=X[sel], center_index=sel, radii=r_sel, is_pure=is_pure, is_proper=covered.all()
    )
