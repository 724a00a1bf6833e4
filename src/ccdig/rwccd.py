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

Candidates. `rw_cover` sorts the (n, n + m) target-to-all distance
matrix once per fit, row by row; the alive points of a row fall into
runs of equal radii, and a closed ball reads R_x at a run's end. As w >
0, R_x rises only at targets, so it strictly increases over the run ends
between one alive non-target's run and the next. Its first maximum thus
sits at the last run end before some alive non-target's run, or at the
last run end of the row. Each alive target's row keeps m + 1 candidate
columns: column j < m for its j-th nearest non-target, alive or dead,
holding the packed count (below) of the alive points strictly nearer
than it, and column m for every alive point. So every column reads R_x
exactly at an alive run end, the columns run in order of that radius,
and they include the run end of the first maximum: the first maximum
over the columns is the walk's, radius included. A dead non-target's
column only repeats the value of a run end that some column reads
anyway. The one masked candidate is a non-target at distance 0, which
has no run before its own: its column holds 2**shift - 1 non-targets
and no target, a walk value below the last column's w * n_alive -
m_alive (zero, up to the rounding of w), and no update reaches it.

Radius. A pick's radius is the distance of the last alive point before
its column's run. `before[x, j]`, the sorted position just before that
run, is fixed; the walk steps back from it over dead points in the
row's sort order, kept as int32, in windows of 8, 32, 128, ... The
row's own target is alive at distance 0, so every step ends. The
distance is recomputed from the two points (`_lengths`), bit for bit
the kernel's, so no sorted distances are kept. A pick kills the alive
points of the center's sorted row up to that point. The flags are read
from the finished cover: pure iff no non-target is alive, proper iff
every target lies within r of a center whose r > 0, by one kernel
matrix; the kernel is symmetric bit for bit, and every r is its value.

Counts. Every point has an int32 code, 1 << shift for a target and 1
for a non-target, with shift = max(1, m.bit_length()), so m < 2**shift.
A packed count s, a sum of the codes of alive points, holds the target
count s >> shift and the non-target count s & (2**shift - 1). The counts
are exact while the largest, (n << shift) + m, fits in an int32, that is
while (n + 1) << shift <= 2**31; a fit beyond that has at least 2**30
cells, and it raises ValueError before its distance matrix is computed.
The set-up takes one argsort and one in-place sort per row, the run
mask, one int32 cumsum of the codes in sorted order, the counts at the
non-targets' positions, and one scatter of each point's key, the number
of non-targets at or below its distance, into column order. Where every
run is one point, as continuous data almost always gives, a
non-target's count is its prefix sum less its own code; in a row with a
longer run, running extrema carry the sums over each run. A point
counts in column j iff its key is at most j, so a pick's dead points
leave every column from their key on: per row, their keys, each with
its code in the bits below it, are sorted, and one `np.repeat` builds
the step function the counts lose. The rows of the targets a pick
covers leave the table at once. The cover never reads the order of the
points inside a run, so the sort need not be stable.

Memory, in bytes per n * (n + m) cell, with c = 4 (m + 1) / (n + m) for
each int32 table of candidates (0.37 at n=1000, m=100; 2.0 at
n=m=800; 3.6 at n=100, m=1000):

    distances, while the rows are sorted       8
    numpy's intp argsort, until the set-up ends 8
    run mask and non-target mask, in set-up    2
    packed prefix sums, in set-up              4
    keys (int32, by column), for the fit       4
    sort order (int32), for the fit            4
    counts and `before`, for the fit           2c
    a walk: float64 values and count_n         3c
    flags: distances and mask, after the fit   9k / (n + m)

with k <= n the centers of positive radius. The peak (tracemalloc, d=3,
shifted boxes) is 17.8 bytes per cell at n=1000, m=100, 21.1 at n=m=800
and 27.2 at n=100, m=1000; where m is large the walk's 3c sets it. The
distance kernel's work arrays add at most 1 MiB while n + m <= 16384
and d <= 128.
"""

from __future__ import annotations

import numpy as np

from .core import KERNEL_BLOCK, _distances, as_points
from .pccd import ClassCover


def _packing_shift(n: int, m: int) -> int:
    """The bit that splits a packed count into its target and non-target
    parts, so m < 2**shift; raises ValueError where the largest packed
    count, (n << shift) + m, would not fit in an int32."""
    shift = max(1, m.bit_length())
    if (n + 1) << shift > 2**31:
        raise ValueError(f"a random-walk cover of {n} targets and {m} non-targets overflows its int32 counts")
    return shift


def _first_max_walk(sums, shift: int, weight: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the packed candidate counts `sums`, the column of the
    walk's first maximum and that walk value."""
    walk = np.right_shift(sums, shift, out=np.empty(sums.shape))  # count_t, converted exactly
    walk *= weight
    walk -= sums & ((1 << shift) - 1)  # count_n
    best = np.argmax(walk, axis=1)
    return best, walk[np.arange(len(walk)), best]


class _Candidates:
    """The packed counts of one fit at its candidate columns, kept across
    picks (see the module notes).

    Row i of `counts` belongs to target `targets[i]`; `targets` holds the
    alive targets in increasing order. Column j < m of a row stands for
    the row's j-th nearest non-target: `counts[i, j]` is the packed count
    of the alive points strictly nearer than it, and `before[x, j]`, by
    original target x, the sorted position just before its run. Column m
    holds the packed count of every alive point, and `before` the row's
    last position. A non-target at distance 0 has no run before its own;
    its column holds 2**shift - 1 non-targets and no target, a walk value
    below column m's that no update reaches. `key[c, x]` is the number of
    non-targets at or below the distance of column c in the row of target
    x, `order[x]` that row's sort, and `code[c]` the code of column c.
    """

    def __init__(self, order, end, n: int, shift: int):
        rows, cols = order.shape
        m = cols - n
        self.shift = shift
        low = (1 << shift) - 1
        nontarget = order >= n
        # every point is alive: code 1 << shift for a target, 1 for a non-target
        sums = np.multiply(nontarget, np.int32(-low), dtype=np.int32)
        sums += 1 << shift
        np.add.accumulate(sums, axis=1, out=sums)  # in place, in int32
        # where every run of equal radii is one point, the count strictly
        # before a non-target's run is its prefix sum less its own code, 1
        self.counts = np.empty((rows, m + 1), dtype=np.int32)
        step = max(1, KERNEL_BLOCK // cols)  # compress's intp index of a block stays cache-sized
        for i in range(0, rows, step):
            j = min(i + step, rows)
            self.counts[i:j, :m] = np.compress(nontarget[i:j].ravel(), sums[i:j].ravel()).reshape(j - i, m)
        self.counts[:, :m] -= 1
        self.counts[:, m] = (n << shift) + m
        tied = np.flatnonzero(~end.all(axis=1))  # rows with a run of two or more points
        tied_sums, tied_end = sums[tied], end[tied]
        # the count strictly before a run is the prefix sum at the end of
        # the run before it; prefix sums only grow, so a running maximum
        # carries it through the run
        prior = np.zeros(tied_sums.shape, dtype=np.int32)
        np.copyto(prior[:, 1:], tied_sums[:, :-1], where=tied_end[:, :-1])
        np.maximum.accumulate(prior, axis=1, out=prior)
        self.counts[tied, :m] = prior[nontarget[tied]].reshape(len(tied), m)
        # and the prefix sum at the end of a run, carried back through it
        np.copyto(tied_sums, np.iinfo(np.int32).max, where=~tied_end)
        back = tied_sums[:, ::-1]
        np.minimum.accumulate(back, axis=1, out=back)
        sums[tied] = tied_sums
        del tied_sums, tied_end, prior, nontarget
        self.before = np.right_shift(self.counts, shift)
        self.before += self.counts & low
        self.before -= 1
        self.counts[self.counts == 0] = low  # only a non-target at distance 0 counts nothing before its run
        sums &= low  # the non-targets at or below each sorted distance
        self.key = np.empty((cols, rows), dtype=np.int32)
        self.key[order, np.arange(rows)[:, None]] = sums
        del sums
        self.order = order.astype(np.int32)
        self.targets = np.arange(rows)
        self.code = np.full(cols, 1 << shift)
        self.code[n:] = 1

    def last_alive(self, best, alive) -> tuple[np.ndarray, np.ndarray]:
        """Per alive target, the sorted position in its row of the last
        alive point before the run of candidate `best`, and its column."""
        # int32 tables, intp indices: numpy converts an int32 index on each use
        pos = self.before[self.targets, best].astype(np.intp)
        found = self.order[self.targets, pos].astype(np.intp)
        live = alive[found]
        todo = np.flatnonzero(~live)
        width = 8
        while len(todo):
            # the row's own target is alive at distance 0, so every row stops
            # at or after its first sorted position
            back = np.maximum(pos[todo, None] - np.arange(1, width + 1), 0)
            cols = self.order[self.targets[todo, None], back]
            live = alive[cols]
            first = np.argmax(live, axis=1)
            hit = live[np.arange(len(todo)), first]
            pos[todo] = np.where(hit, back[np.arange(len(todo)), first], back[:, -1])
            found[todo] = cols[np.arange(len(todo)), first]
            todo = todo[~hit]
            width = min(4 * width, self.order.shape[1])
        return pos, found

    def remove(self, dead, alive) -> None:
        """Take the newly covered columns `dead` out of the counts and the
        covered targets' rows out of them; `alive` is the liveness of every
        column after the pick."""
        keep = alive[self.targets]
        self.targets = self.targets[keep]
        if not len(self.targets):
            return  # the cover is complete
        self.counts = self.counts[keep]
        # per count row, the keys of the dead columns, each with its code in
        # the bits below it, in increasing order
        low = self.shift + 1  # every code is below 2**low
        keys = np.left_shift(self.key[dead][:, self.targets].T, low, dtype=np.int64)
        keys |= self.code[dead]
        keys.sort(axis=1)
        # per row, the count lost at and after each key: a step function
        step = np.zeros((len(keys), len(dead) + 1), dtype=np.int32)
        np.cumsum(keys & ((1 << low) - 1), axis=1, out=step[:, 1:])
        ends = np.empty((len(keys), len(dead) + 2), dtype=np.int64)
        ends[:, 0], ends[:, -1] = 0, self.counts.shape[1]
        np.right_shift(keys, low, out=ends[:, 1:-1])
        self.counts -= np.repeat(step.ravel(), (ends[:, 1:] - ends[:, :-1]).ravel()).reshape(self.counts.shape)


def _lengths(diff) -> np.ndarray:
    """The length of each row of `diff`: numpy's float64 sum of the
    squares, which `core._distances` reproduces bit for bit, so the
    length of a - b is the kernel's distance between a and b."""
    return np.sqrt((diff * diff).sum(axis=1))


def rw_cover(targets, nontargets, class_id: int = 0) -> ClassCover:
    """Greedy random-walk ball cover of the target class.

    Each iteration finds every remaining center's best radius over the
    still-uncovered points (from counts kept at candidate radii, see the
    module notes), selects the highest score (lowest original index on
    ties), and removes everything the chosen closed ball covers. d_max is
    taken over all original targets, once.
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
    allpts = np.vstack([X, Y])
    shift = _packing_shift(n, m)  # before any large allocation
    dist = _distances(X, allpts)  # (n, n + m)
    d_max = dist[:, :n].max(axis=1)
    d_max[d_max == 0] = np.inf  # one target, or targets that coincide: a zero penalty
    # sort each row once, in any order within a run of equal distances (see
    # the module notes); between iterations only liveness changes
    order = np.argsort(dist, axis=1)
    dist.sort(axis=1)  # the values of any order of each row's runs
    end = np.ones(dist.shape, dtype=bool)  # the last of its run of equal radii
    np.not_equal(dist[:, 1:], dist[:, :-1], out=end[:, :-1])
    del dist
    cands = _Candidates(order, end, n, shift)
    del order, end
    alive = np.ones(n + m, dtype=bool)  # by original column
    picks: list[tuple[int, float, float]] = []  # (center, radius, score) in selection order
    while len(rows := cands.targets):
        n_alive = len(rows)
        m_alive = int(np.count_nonzero(alive[n:]))
        weight = m_alive / n_alive if m_alive > 0 else 1.0
        best, walks = _first_max_walk(cands.counts, shift, weight)
        pos, last = cands.last_alive(best, alive)
        # a difference can reach twice as_points' bound, which is safe
        radii = _lengths(X[rows] - allpts[last])
        scores = walks - radii / d_max[rows] * (n_alive / 2.0)  # r == d_max: exactly scale-free
        k = int(np.argmax(scores))  # first max = lowest original index
        center = int(rows[k])
        picks.append((center, float(radii[k]), float(scores[k])))
        covered = cands.order[center, : pos[k] + 1]  # the ball, up to its last alive point
        dead = covered[alive[covered]].astype(np.intp)
        alive[dead] = False
        cands.remove(dead, alive)
    del cands  # its sort order and keys, before the flags' distances
    sel, r_sel, s_sel = (np.array(column) for column in zip(*picks))
    reach = r_sel > 0  # a zero-radius ball covers nothing, not even its center
    is_proper = reach.any() and (_distances(X, X[sel[reach]]) <= r_sel[reach]).any(axis=1).all()
    return ClassCover(
        class_id=class_id, centers=X[sel], center_index=sel, radii=r_sel, scores=s_sel,
        is_pure=alive[n:].all(),  # no non-target lies in a closed ball
        is_proper=is_proper,
    )
