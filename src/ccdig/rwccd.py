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
matrix once per fit and keeps, in sorted order, a mask of the entries
that are not the last of their run of equal radii. The sort need not be
stable, because the cover never reads the order of the points inside a
run. It reads only three things from a sorted row:
run ends, through the mask; whole-run prefixes, since a closed ball ends
at `searchsorted(..., side="right")`; and the sorted values, through
`_cutoff`. A walk over a prefix cut inside a run masks the truncated run
as inner, so no partial run's count is read.

Rows stay whole and sorted: between iterations only liveness changes.
Every point has an int32 code, 1 << shift for a target and 1 for a
non-target, with shift = max(1, m.bit_length()), so m < 2**shift. The
packed count s at sorted position j of a row is the sum of the codes of
the alive points at positions 0..j: it holds the alive-target count
s >> shift and the alive-non-target count s & (2**shift - 1) of the
candidate radius at j. The counts are exact while the largest,
(n << shift) + m, fits in an int32, that is while (n + 1) << shift <=
2**31; a fit beyond that has at least 2**30 cells (30 GiB at the peak
below), and it raises ValueError before its distance matrix is computed.

The packed counts of every alive row are part of the fit's state
(`_PrefixCounts`). One int32 prefix sum computes them once; after each
pick, what the pick removed is subtracted. The newly covered columns sit
in every row at the positions that `rank`, the inverse of the row sort,
gives. Sorted per row, those positions make the loss a step function,
which one `np.repeat` builds and one in-place subtraction applies. At
n=m=800 with 80% of the points alive (2-core host, medians of 21 calls)
a walked cell costs 3.4-3.7 ns (row gathers 0.5, kernel 2.9-3.1) and an
updated cell 0.9-1.1 ns, where the walk that gathered the codes and took
their prefix sum in every iteration cost 10.3 ns. The rows of covered
targets stay until an eighth of the count rows is dead and then go in
one copy: compacting at every pick made the pruned n=1000, m=100 fit 6%
slower. Only run ends are candidates; a run of covered points alone
repeats the walk value of the run before it, so the first maximum is
the smallest alive radius, exactly as if the alive submatrix had been
sorted afresh. A pick's closed ball is a prefix of its center's sorted
row, the columns whose rank lies below the `searchsorted` bound, covered
or not; so the purity and properness flags come from the points each
pick covers, and the distance matrix is dropped once its rows are
sorted.

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
full. The constant, 2**17, was measured again with the kept counts
(2-core host, medians of 8-14 interleaved fits of shifted d=3 sets, in
two measurement runs; fits on the same path differed by up to 15%): at
2**16, n=200 covers prune and lose 5-9% at m=100 and 21-40% at m=200;
at 2**18 and 2**19, n=m=400 covers gain 2-11% but the n=1000, m=100
cover loses 4-5%. Neither a POOL of 16 nor one of 64 beat 32 on that
cover in both runs. Balanced covers above the constant lose to
pruning: a walked cell now costs less, while the pool, the bisection
and the verifying walks do not (n=m=400: 46-59 ms unpruned against
50-69 ms; n=m=800: 348-362 against 361-381 ms). On the n=1000, m=100
class cover the walked cells fall from 124.7 M, every row in full, to
35.0 M, and the fit from 635-710 to 397-446 ms.

Memory (tracemalloc, d=3): the sorted distances (8 bytes per
n * (n + m) cell), `rank` (4), the run mask (1) and the packed counts
(4) live for the whole fit. The distance matrix lives only until its
rows are sorted, beside numpy's intp argsort and the sorted copy (24
bytes per cell). The argsort feeds `rank` and the first counts and is
dropped; no index array is ever converted to intp. The peak, 30.3
bytes per cell (31.8 MiB at n=1000, m=100 and 37.0 MiB at n=m=800),
comes at the first walk, whose copy of the counts (4), run mask (1) and
float64 walk values (8) come on top of the live 17. An update's step,
4 bytes per count cell, is freed before the next walk.
The distance kernel's work arrays add at most 1 MiB while
n + m <= 16384 and d <= 128.
"""

from __future__ import annotations

import numpy as np

from .core import as_points, cross_distance_matrix
from .pccd import ClassCover

# rows walked in full first, to set the floor that prunes the others;
# neither 16 nor 64 beat 32 on the n=1000, m=100 cover (the module notes)
POOL = 32
# iterations with fewer (alive rows x alive columns) cells walk every row
# in full; the module notes give the measured crossover
PRUNE_MIN_CELLS = 2**17


def _packing_shift(n: int, m: int) -> int:
    """The bit that splits a packed count into its target and non-target
    parts, so m < 2**shift; raises ValueError where the largest packed
    count, (n << shift) + m, would not fit in an int32."""
    shift = max(1, m.bit_length())
    if (n + 1) << shift > 2**31:
        raise ValueError(f"a random-walk cover of {n} targets and {m} non-targets overflows its int32 counts")
    return shift


def _first_max_walk(sums, run, shift: int, weight: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the packed prefix counts `sums`, the sorted position of
    the walk's first maximum over run ends (where `run` is False), and
    that walk value; `sums` is overwritten."""
    walk = np.right_shift(sums, shift, out=np.empty(sums.shape))  # count_t, converted exactly
    walk *= weight
    walk -= np.bitwise_and(sums, (1 << shift) - 1, out=sums)  # count_n
    # only the last entry of a run of equal radii carries the full count;
    # a run of dead entries repeats the walk value of the run before it,
    # so the first max is still the smallest live radius
    np.copyto(walk, -np.inf, where=run)
    best = np.argmax(walk, axis=1)
    return best, walk[np.arange(len(walk)), best]


class _PrefixCounts:
    """The packed prefix counts of one fit's sorted rows, kept across picks
    (see the module notes).

    `counts[i, j]` is the packed count of the alive points at sorted
    positions 0..j of the row of target `targets[i]`; `targets` holds
    every alive target in increasing order, and the rows of targets
    covered since the last compaction. `rank[c, x]` is the sorted position
    of column c in the row of target x, the inverse of the row sort.
    """

    def __init__(self, order, n: int, shift: int):
        rows, cols = order.shape
        self.n, self.shift = n, shift
        self.rank = np.empty((cols, rows), dtype=np.int32)
        self.rank[order, np.arange(rows)[:, None]] = np.arange(cols, dtype=np.int32)
        # every point is alive: code 1 << shift for a target, 1 for a non-target
        self.counts = np.multiply(order < n, np.int32((1 << shift) - 1), dtype=np.int32)
        self.counts += 1
        np.cumsum(self.counts, axis=1, out=self.counts)  # in place: int32 in, int32 out
        self.targets = np.arange(rows)

    def walk(self, inner, rows, cols: int, weight: float) -> tuple[np.ndarray, np.ndarray]:
        """`_first_max_walk` of the alive targets `rows` over their first
        `cols` sorted columns; `inner` is the run mask by target."""
        sums = self.counts[np.searchsorted(self.targets, rows), :cols]  # a copy
        return _first_max_walk(sums, inner[rows, :cols], self.shift, weight)

    def remove(self, dead, alive) -> None:
        """Take the newly covered columns `dead` out of the counts; `alive`
        is the liveness of every column after the pick."""
        keep = alive[self.targets]
        kept = np.count_nonzero(keep)
        if kept == 0:
            return  # the cover is complete
        # compacting at every pick costs more than updating a few dead rows
        if 8 * (len(keep) - kept) >= len(keep):
            self.targets = self.targets[keep]
            self.counts = self.counts[keep]
        # per count row, the sorted positions of the dead columns, each with
        # its code in the bits below it, in increasing order
        low = self.shift + 1  # every code is below 2**low
        keys = self.rank[dead][:, self.targets].T.astype(np.int64)
        keys <<= low
        keys |= np.where(dead < self.n, 1 << self.shift, 1)
        keys.sort(axis=1)
        # per row, the count lost at and after each position: a step function
        step = np.zeros((len(keys), len(dead) + 1), dtype=np.int32)
        np.cumsum(keys & ((1 << low) - 1), axis=1, out=step[:, 1:])
        ends = np.empty((len(keys), len(dead) + 2), dtype=np.int64)
        ends[:, 0], ends[:, -1] = 0, self.counts.shape[1]
        np.right_shift(keys, low, out=ends[:, 1:-1])
        self.counts -= np.repeat(step.ravel(), (ends[:, 1:] - ends[:, :-1]).ravel()).reshape(self.counts.shape)


def _penalty(radii, dmax0, n_alive: int) -> np.ndarray:
    """(r / d_max) * (n_alive / 2) per row: r == d_max gives an exactly
    scale-free score; `rw_cover` stores a d_max of 0 (one target, or
    targets that coincide) as inf, so the penalty is 0 there."""
    return radii / dmax0 * (n_alive / 2.0)


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
    shift = _packing_shift(n, m)  # before any large allocation
    dist = cross_distance_matrix(X, allpts)  # (n, n + m)
    d_max = dist[:, :n].max(axis=1)
    d_max[d_max == 0] = np.inf  # a zero penalty (see _penalty)
    # sort each row once, in any order within a run of equal distances (see
    # the module notes); between iterations only liveness changes
    order = np.argsort(dist, axis=1)
    sorted_d = np.sort(dist, axis=1)  # the values of any order of each row's runs
    del dist
    n_cols = n + m
    inner = np.zeros(sorted_d.shape, dtype=bool)  # not the last of its run of equal radii
    np.equal(sorted_d[:, 1:], sorted_d[:, :-1], out=inner[:, :-1])
    counts = _PrefixCounts(order, n, shift)
    del order
    alive = np.ones(n_cols, dtype=bool)  # by original column
    hit = np.zeros(n_cols, dtype=bool)  # covered by a ball of positive radius
    pool = np.zeros(n, dtype=bool)  # by original target: best exact scores of the last iteration
    picks: list[tuple[int, float, float]] = []  # (center, radius, score) in selection order
    while True:
        rows = np.flatnonzero(alive[:n])  # original targets = rows of sorted_d and inner
        n_alive = len(rows)
        if n_alive == 0:
            break
        m_alive = int(np.count_nonzero(alive[n:]))
        weight = m_alive / n_alive if m_alive > 0 else 1.0
        dmax0 = d_max[rows]

        def walk(at, cols):
            """Radius and score of the first walk maximum of rows[at]
            over the first `cols` sorted columns."""
            best, walks = counts.walk(inner, rows[at], cols, weight)
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
        covered = np.flatnonzero(counts.rank[:, center] < np.searchsorted(sorted_d[center], r_star, side="right"))
        dead = covered[alive[covered]]
        alive[covered] = False
        hit[covered] |= r_star > 0  # a zero-radius closed ball covers nothing
        counts.remove(dead, alive)
    sel, r_sel, s_sel = (np.array(column) for column in zip(*picks))
    return ClassCover(
        class_id=class_id, centers=X[sel], center_index=sel, radii=r_sel, scores=s_sel,
        is_pure=alive[n:].all(),  # no non-target lies in a closed ball
        is_proper=hit[:n].all(),
    )
