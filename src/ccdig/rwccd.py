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
matrix once per fit (int32 permutation) and keeps, in sorted order, a
mask of the entries that are not the last of their run of equal radii.
The sort need not be stable, because the cover never reads the order of
the points inside a run. It reads only three things from a sorted row:
run ends, through the mask; whole-run prefixes, since a closed ball ends
at `searchsorted(..., side="right")`; and the sorted values, through
`_cutoff`. A walk over a prefix cut inside a run masks the truncated run
as inner, so no partial run's count is read.

Rows stay whole and indexed by original target: between iterations only
liveness changes. Every column carries an int32 code: 1 << shift for an
alive target, 1 for an alive non-target and 0 once covered, with
shift = max(1, m.bit_length()), so m < 2**shift. Each iteration gathers
the permutation of the alive rows, reads the codes through it and takes
one int32 prefix sum per row; a prefix sum s holds the alive-target
count s >> shift and the alive-non-target count s & (2**shift - 1) of
every candidate radius. The counts are exact while the largest sum,
(n << shift) + m, fits in an int32, that is while (n + 1) << shift <=
2**31. A fit beyond that has at least 2**30 cells (38 GiB at the peak
below), and it raises ValueError before its work arrays are allocated.
Only run ends are candidates; a run of covered points alone repeats the
walk value of the run before it, so the first maximum is the smallest
alive radius, exactly as if the alive submatrix had been sorted afresh.
A pick's closed ball is a prefix of its center's sorted row, which holds
every point within the radius, covered or not; so the purity and
properness flags come from the points each pick covers, and the
distance matrix is dropped once its rows are sorted. The walk of every
iteration is computed in flat work arrays allocated once per fit and
viewed at the iteration's (alive rows, n + m) shape. Fresh
multi-megabyte temporaries per iteration are mapped and faulted in anew
whenever the allocator hands such sizes to mmap: on a 2-core host the
n=1000, m=100 fit then took 3.5 s and 460k minor faults, against 2.1 s
and 13k with the buffers.

Most rows need not be walked in full, because the length penalty grows
with the radius. Every walk value fl(w * count_t) - count_n is at most
fl(w * n_alive): rounding is monotone, count_t <= n_alive and count_n
>= 0. The penalty, computed by the same expression, cannot fall as the
radius grows. So a row's score at sorted column J or beyond is at most
fl(w * n_alive) - penalty(sorted_d[x, J]), exactly, with no epsilon.
Each iteration first walks a pool of up to POOL rows in full: the rows
with the best exact scores of the previous iteration that are still
alive. Their best score S is a floor for the winner. Bisection over the
columns finds the first column J at which the bound of every other row
is below S; those rows are walked over the columns [0, J) only. A row
whose best radius lies in the prefix gets its true score there; one
whose best radius lies at J or beyond scores below S. So only the rows
whose prefix score reaches S are walked in full, and every other row
scores below S and can neither win nor tie. The pick, its radius and
its score are the full walk's, including the lowest-index tie rule.

Pruning engages only where it pays. An iteration with fewer than
PRUNE_MIN_CELLS (alive rows x alive columns) cells walks every row in
full. The constant, 2**17, is the measured crossover (2-core host,
medians of 15-40 fits): at 2**16, n=300, m=30 covers gained 20%, but
balanced n=m=200 covers lost up to 5% and an n=200 `simulate` over four
class ratios 3%; at 2**17 the n=200 fits never prune. On the n=1000,
m=100 class cover the walked cells fall from 124.7 M, every row in
full, to 35.0 M.

Memory (tracemalloc, d=3): the sorted distances, the permutation and
the run mask hold 13 bytes per n * (n + m) cell for the whole fit, and
the work arrays 17 more. The distance matrix lives only until its rows
are sorted (20 bytes per cell at most, with the int64 argsort). The
in-place int32 prefix sum makes no converted copy. The peak, 38 bytes
per cell (40.1 MiB at n=1000, m=100 and 46.7 MiB at n=m=800), comes
when the gather of the codes converts its int32 indices: numpy makes a
transient intp copy of 8 bytes per cell. The distance kernel's work
arrays add at most 1 MiB while n + m <= 16384 and d <= 128. Pruning
reuses the work arrays and adds only per-row arrays.
"""

from __future__ import annotations

import numpy as np

from .core import as_points, cross_distance_matrix
from .pccd import ClassCover

# rows walked in full first, to set the floor that prunes the others;
# 16 and 64 were 7% and 1% slower than 32 on the n=1000, m=100 cover
POOL = 32
# iterations with fewer (alive rows x alive columns) cells walk every row
# in full; the module notes give the measured crossover
PRUNE_MIN_CELLS = 2**17


class _WalkBuffers:
    """Flat work arrays for the walk of every iteration of one fit, sized
    for the first (largest) one and viewed as (alive rows, columns);
    `shift` splits a prefix sum of the column codes into the alive-target
    and alive-non-target counts (see the module notes)."""

    def __init__(self, cells: int, n: int, m: int):
        self.shift = max(1, m.bit_length())  # m < 1 << shift
        # the largest prefix sum, (n << shift) + m, must stay below 2**31
        if (n + 1) << self.shift > 2**31:
            raise ValueError(f"a random-walk cover of {n} targets and {m} non-targets overflows its int32 counts")
        self.index = np.empty(cells, dtype=np.int32)  # gathered permutation, then count_t
        self.sums = np.empty(cells, dtype=np.int32)  # prefix sums of the codes, then count_n
        self.inner = np.empty(cells, dtype=bool)
        self.walk = np.empty(cells, dtype=np.float64)

    def first_max_walk(self, code, perm, inner, rows, weight: float) -> tuple[np.ndarray, np.ndarray]:
        """Per row of `rows`, the sorted position of the walk's first
        maximum over run ends, and that walk value; `code` holds the codes
        by original column, `perm` and `inner` are the sorted rows, or a
        prefix of their columns, and `rows` the alive ones to walk."""
        shape = (len(rows), perm.shape[1])
        cells = shape[0] * shape[1]

        def view(buf):
            return buf[:cells].reshape(shape)

        # mode="clip" skips the copy that mode="raise" makes of `out`;
        # every index is in range
        index = np.take(perm, rows, axis=0, out=view(self.index), mode="clip")
        sums = np.take(code, index, out=view(self.sums), mode="clip")
        run = np.take(inner, rows, axis=0, out=view(self.inner), mode="clip")
        np.cumsum(sums, axis=1, out=sums)  # in place: int32 in, int32 out, no copy
        count_t = np.right_shift(sums, self.shift, out=index)
        count_n = np.bitwise_and(sums, (1 << self.shift) - 1, out=sums)
        walk = np.multiply(weight, count_t, out=view(self.walk))
        walk -= count_n
        # only the last entry of a run of equal radii carries the full count;
        # a run of dead entries repeats the walk value of the run before it,
        # so the first max is still the smallest live radius
        np.copyto(walk, -np.inf, where=run)
        best = np.argmax(walk, axis=1)
        return best, walk[np.arange(len(walk)), best]


def _penalty(radii, dmax0, n_alive: int) -> np.ndarray:
    """(r / d_max) * (n_alive / 2) per row: r == d_max gives an exactly
    scale-free score; it is 0 when d_max is 0 (one target)."""
    ratio = radii / np.where(dmax0 > 0, dmax0, 1.0)
    return np.where(dmax0 > 0, ratio * (n_alive / 2.0), 0.0)


def _cutoff(sorted_d, rows, dmax0, n_alive: int, ceiling: float, floor: float) -> int:
    """First sorted column J >= 1 such that no row of `rows` can score
    `floor` or more with a radius at column J or beyond.

    `ceiling` bounds every walk value, so ceiling - penalty(sorted_d[x, j])
    bounds every score at column j or beyond; it does not rise with j,
    and bisection finds J (the column count if no column qualifies).
    Column 0 of an alive row is its own zero distance, whose bound is the
    ceiling itself, so J >= 1 holds anyway; the search starts there.
    """
    lo, hi = 1, sorted_d.shape[1]
    while lo < hi:
        mid = (lo + hi) // 2
        if (ceiling - _penalty(sorted_d[rows, mid], dmax0, n_alive)).max() < floor:
            hi = mid
        else:
            lo = mid + 1
    return lo


def rw_cover(targets, nontargets, class_id: int = 0) -> ClassCover:
    """Greedy random-walk ball cover of the target class.

    Each iteration finds every remaining center's best radius over the
    still-uncovered points (from rows sorted once, see the module notes),
    selects the highest score (lowest original index on ties), and
    removes everything the chosen closed ball covers. d_max is taken over
    all original targets, once. Only rows that could change the pick are
    walked in full (see the module notes on pruning); every pick, radius
    and score is the full walk's.
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
    # sort each row once, in any order within a run of equal distances (see
    # the module notes); between iterations only liveness changes
    perm = np.argsort(dist, axis=1).astype(np.int32)
    sorted_d = np.take_along_axis(dist, perm, axis=1)
    del dist
    n_cols = n + m
    inner = np.zeros(sorted_d.shape, dtype=bool)  # not the last of its run of equal radii
    np.equal(sorted_d[:, 1:], sorted_d[:, :-1], out=inner[:, :-1])
    buffers = _WalkBuffers(perm.size, n, m)
    code = np.ones(n_cols, dtype=np.int32)  # by original column, 0 once covered
    code[:n] = 1 << buffers.shift
    hit = np.zeros(n_cols, dtype=bool)  # covered by a ball of positive radius
    pool = np.zeros(n, dtype=bool)  # by original target: best exact scores of the last iteration
    picks: list[tuple[int, float, float]] = []  # (center, radius, score) in selection order
    while True:
        rows = np.flatnonzero(code[:n])  # original targets = rows of perm and sorted_d
        n_alive = len(rows)
        if n_alive == 0:
            break
        m_alive = int(np.count_nonzero(code[n:]))
        weight = m_alive / n_alive if m_alive > 0 else 1.0
        dmax0 = d_max[rows]

        def walk(at, cols):
            """Radius and score of the first walk maximum of rows[at]
            over the first `cols` sorted columns."""
            best, walks = buffers.first_max_walk(code, perm[:, :cols], inner[:, :cols], rows[at], weight)
            radii = sorted_d[rows[at], best]
            return radii, walks - _penalty(radii, dmax0[at], n_alive)

        # live cells only shrink, so after the first small iteration none prunes
        big = n_alive * (n_alive + m_alive) >= PRUNE_MIN_CELLS
        if big and 0 < np.count_nonzero(pooled := pool[rows]) < n_alive:
            exact, rest = np.flatnonzero(pooled), np.flatnonzero(~pooled)
            radii = np.zeros(n_alive)
            scores = np.full(n_alive, -np.inf)  # -inf: cannot win or tie
            radii[exact], scores[exact] = walk(exact, n_cols)
            floor = scores[exact].max()
            # every walk value is at most fl(weight * n_alive)
            cut = _cutoff(sorted_d, rows[rest], dmax0[rest], n_alive, weight * n_alive, floor)
            verify = rest[walk(rest, cut)[1] >= floor]
            radii[verify], scores[verify] = walk(verify, n_cols)
        else:
            radii, scores = walk(slice(None), n_cols)
        k = int(np.argmax(scores))  # first max = lowest original index
        if big:
            top = np.argsort(scores)[-POOL:]
            pool[:] = False
            pool[rows[top[np.isfinite(scores[top])]]] = True
        center = int(rows[k])
        r_star = float(radii[k])
        picks.append((center, r_star, float(scores[k])))
        # the closed ball is a prefix of the center's sorted row, dead points included
        covered = perm[center, : np.searchsorted(sorted_d[center], r_star, side="right")]
        code[covered] = 0
        hit[covered] |= r_star > 0  # a zero-radius closed ball covers nothing
    sel, r_sel, s_sel = (np.array(column) for column in zip(*picks))
    return ClassCover(
        class_id=class_id, centers=X[sel], center_index=sel, radii=r_sel, scores=s_sel,
        is_pure=code[n:].all(),  # no non-target lies in a closed ball
        is_proper=hit[:n].all(),
    )
