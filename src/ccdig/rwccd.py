"""Random-walk class covers.

Each candidate ball radius gets a signed, size-reweighted count

    R_x(r) = w * |{targets within r}| - |{non-targets within r}|,

over closed balls, with w = |non-targets| / |targets| of the sets still
uncovered. The radius maximizing R_x (smallest on ties) defines the ball
at x, and a length penalty turns the walk value into a selection score

    T_x = R_x(r_x) - r_x * n_uncovered / (2 * d_max(x)).

The cover grows greedily: pick the highest-scoring center, drop every
point its closed ball covers, recompute, repeat until no target remains.
Covers may be impure (non-targets swallowed) and improper (zero-radius
balls cover nothing, not even their own center). The cover is a
`pccd.ClassCover` whose arrays hold the centers, radii and scores in
selection order.

`rw_cover` sorts each row of the (n, n + m) target-to-all distance
matrix once per fit (stable argsort, int32 permutation) and keeps, in
sorted order, a target-column mask and a mask of the entries that are
not the last of their run of equal radii. Between iterations only
liveness changes: each iteration gathers the alive-column indicator of
the alive rows in sorted order, and cumulative sums of it give every
candidate radius its alive-target and alive-non-target counts. Only run
ends are candidates; a run of covered points alone repeats the walk
value of the run before it, so the first maximum is the smallest alive
radius, exactly as if the alive submatrix had been sorted afresh. Once
fewer than half the kept columns are alive, the permutation and the
sorted distances shrink to the alive rows and columns, so iterations get
cheaper as the cover grows. The walk of every iteration is computed in
flat work arrays allocated once per fit and viewed at the iteration's
(alive rows, kept columns) shape. Fresh multi-megabyte temporaries per
iteration are mapped and faulted in anew whenever the allocator hands
such sizes to mmap: on a 2-core host the n=1000, m=100 fit then took
3.5 s and 460k minor faults, against 2.1 s and 13k with the buffers.

Memory (tracemalloc, n=1000, m=100, d=3): the distance matrix, its
sorted copy, the permutation and the two masks hold 22 bytes per
n * (n + m) cell for the whole fit, and the work arrays 19 more. The
peak, 49 bytes per cell (52 MiB for the 1.1 M cells), comes when a
gather or a cumulative sum converts its int32 or boolean input: numpy
makes a transient copy of up to 8 bytes per cell. The distance
kernel's work arrays add at most 1 MiB while n + m <= 16384 and d <= 128.
"""

from __future__ import annotations

import numpy as np

from .core import as_points, cross_distance_matrix
from .pccd import ClassCover


def _sorted_masks(perm: np.ndarray, sorted_d: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Target-column mask and not-the-last-of-a-run-of-equal-radii mask,
    in sorted order."""
    inner = np.zeros(sorted_d.shape, dtype=bool)
    np.equal(sorted_d[:, 1:], sorted_d[:, :-1], out=inner[:, :-1])
    return perm < n, inner


class _WalkBuffers:
    """Flat work arrays for the walk of every iteration of one fit, sized
    for the first (largest) one and viewed as (alive rows, kept columns)."""

    def __init__(self, cells: int):
        self.index = np.empty(cells, dtype=np.int32)  # gathered permutation, then count_t
        self.count_n = np.empty(cells, dtype=np.int32)
        self.live = np.empty(cells, dtype=bool)
        self.is_target = np.empty(cells, dtype=bool)
        self.inner = np.empty(cells, dtype=bool)
        self.walk = np.empty(cells, dtype=np.float64)

    def first_max_walk(self, alive, perm, is_target, inner, rows, weight: float) -> tuple[np.ndarray, np.ndarray]:
        """Per alive row, the sorted position of the walk's first maximum
        over run ends, and that walk value; `perm`, `is_target` and
        `inner` are the kept rows in sorted order, `rows` the alive ones."""
        shape = (len(rows), perm.shape[1])
        cells = shape[0] * shape[1]

        def view(buf):
            return buf[:cells].reshape(shape)

        # mode="clip" skips the copy that mode="raise" makes of `out`;
        # every index is in range
        index = np.take(perm, rows, axis=0, out=view(self.index), mode="clip")
        live = np.take(alive, index, out=view(self.live), mode="clip")
        tgt = np.take(is_target, rows, axis=0, out=view(self.is_target), mode="clip")
        run = np.take(inner, rows, axis=0, out=view(self.inner), mode="clip")
        count_n = np.cumsum(live, axis=1, dtype=np.int32, out=view(self.count_n))
        live &= tgt
        count_t = np.cumsum(live, axis=1, dtype=np.int32, out=view(self.index))
        count_n -= count_t
        walk = np.multiply(weight, count_t, out=view(self.walk))
        walk -= count_n
        # only the last entry of a run of equal radii carries the full count;
        # a run of dead entries repeats the walk value of the run before it,
        # so the first max is still the smallest live radius
        np.copyto(walk, -np.inf, where=run)
        best = np.argmax(walk, axis=1)
        return best, walk[np.arange(len(walk)), best]


def rw_cover(targets, nontargets, class_id: int = 0) -> ClassCover:
    """Greedy random-walk ball cover of the target class.

    Each iteration recomputes every remaining center's best radius over
    the still-uncovered points (from rows sorted once, see the module
    notes), selects the highest score (lowest original index on ties),
    and removes everything the chosen closed ball covers. d_max is taken
    over all original targets, once.
    """
    X = as_points(targets)
    n = len(X)
    if n == 0:
        raise ValueError("the target class must be non-empty")
    if len(nontargets) > 0:
        Y = as_points(nontargets)
        if Y.shape[1] != X.shape[1]:
            raise ValueError("target and non-target dimensions differ")
    else:
        Y = np.empty((0, X.shape[1]), dtype=np.float64)
    m = len(Y)
    allpts = np.vstack([X, Y]) if m else X
    dist = cross_distance_matrix(X, allpts)  # (n, n + m)
    d_max = dist[:, :n].max(axis=1)
    # sort each row once; between iterations only liveness changes
    perm = np.argsort(dist, axis=1, kind="stable").astype(np.int32)
    sorted_d = np.take_along_axis(dist, perm, axis=1)
    target_sorted, inner = _sorted_masks(perm, sorted_d, n)
    buffers = _WalkBuffers(perm.size)
    row_ids = np.arange(n)  # original target index of each kept row
    alive = np.ones(n + m, dtype=bool)  # by original column
    picks: list[tuple[int, float, float]] = []  # (center, radius, score) in selection order
    while True:
        rows = np.flatnonzero(alive[row_ids])
        n_alive = len(rows)
        if n_alive == 0:
            break
        m_alive = int(np.count_nonzero(alive[n:]))
        if 2 * (n_alive + m_alive) < perm.shape[1]:
            # drop dead rows and columns; each row keeps its sorted order
            perm, sorted_d = perm[rows], sorted_d[rows]
            keep = alive[perm]
            perm = perm[keep].reshape(n_alive, -1)
            sorted_d = sorted_d[keep].reshape(n_alive, -1)
            target_sorted, inner = _sorted_masks(perm, sorted_d, n)
            row_ids = row_ids[rows]
            rows = np.arange(n_alive)
        weight = m_alive / n_alive if m_alive > 0 else 1.0
        best, walks = buffers.first_max_walk(alive, perm, target_sorted, inner, rows, weight)
        radii = sorted_d[rows, best]
        idx0 = row_ids[rows]
        dmax0 = d_max[idx0]
        # the penalty is (r / d_max) * (n_alive / 2), so r == d_max gives an
        # exactly scale-free score; it is 0 when d_max is 0 (one target)
        ratio = radii / np.where(dmax0 > 0, dmax0, 1.0)
        penalty = np.where(dmax0 > 0, ratio * (n_alive / 2.0), 0.0)
        scores = walks - penalty
        k = int(np.argmax(scores))  # first max = lowest original index
        center = int(idx0[k])
        r_star = float(radii[k])
        picks.append((center, r_star, float(scores[k])))
        # the closed ball is a prefix of the center's sorted row
        n_covered = np.searchsorted(sorted_d[rows[k]], r_star, side="right")
        alive[perm[rows[k], :n_covered]] = False
    sel, r_sel, s_sel = (np.array(column) for column in zip(*picks))
    is_pure = m == 0 or not np.any(dist[sel][:, n:] <= r_sel[:, None])
    # a zero-radius closed ball covers nothing
    is_proper = np.any((dist[sel, :n] <= r_sel[:, None]) & (r_sel[:, None] > 0), axis=0).all()
    return ClassCover(
        class_id=class_id, centers=X[sel], center_index=sel, radii=r_sel, scores=s_sel,
        is_pure=is_pure, is_proper=is_proper,
    )
