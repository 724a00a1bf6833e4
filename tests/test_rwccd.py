"""Tests for random-walk covers: walk profiles, radius choice, greedy cover."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccdig import rwccd
from ccdig.core import cross_distance_matrix
from ccdig.rwccd import rw_cover
from helpers import (
    RwProfile,
    brute_force_walk,
    naive_rw_trace,
    random_instance,
    rw_cover_flags,
    rw_profile,
    rw_radius,
    rw_score,
    rw_select,
)


def test_profile_three_targets_one_enemy():
    prof = rw_profile([0.1], [[0.0], [0.1], [0.2]], [[10.0]])
    np.testing.assert_array_equal(prof.candidate_radii, [0.0, 0.1, 9.9])
    w = 1.0 / 3.0
    np.testing.assert_array_equal(prof.walk_values, [w * 1, w * 3 - 0, w * 3 - 1])


def test_profile_singletons():
    prof = rw_profile([0.0], [[0.0]], [[1.0]])
    np.testing.assert_array_equal(prof.candidate_radii, [0.0, 1.0])
    np.testing.assert_array_equal(prof.walk_values, [1.0, 0.0])


def test_profile_empty_targets_error():
    with pytest.raises(ValueError):
        rw_profile([0.0], np.empty((0, 1)), [[1.0]])


def test_profile_requires_membership():
    with pytest.raises(ValueError, match="member"):
        rw_profile([5.0], [[0.0], [1.0]], [[2.0]])


def test_profile_no_enemies_monotone():
    prof = rw_profile([0.0], [[0.0], [1.0], [2.0]], np.empty((0, 1)))
    assert np.all(np.diff(prof.walk_values) >= 0)
    np.testing.assert_array_equal(prof.walk_values, [1.0, 2.0, 3.0])  # weight defaults to 1


def test_profile_far_enemy_monotone_until_hit():
    prof = rw_profile([0.0], [[0.0], [0.5]], [[1e6]])
    assert np.all(np.diff(prof.walk_values[:-1]) >= 0)
    assert prof.walk_values[-1] == prof.walk_values[-2] - 1.0


def test_profile_matches_brute_force_exactly():
    for seed in range(10):
        X, Y = random_instance(seed, dims=(1, 2, 3), n_range=(2, 10), m_range=(1, 10))
        for i in range(len(X)):
            prof = rw_profile(X[i], X, Y)
            cand, walks = brute_force_walk(X[i], X, Y)
            np.testing.assert_array_equal(prof.candidate_radii, cand)
            np.testing.assert_array_equal(prof.walk_values, walks)


def test_profile_reweighting_doubles_exactly():
    for seed in range(8):
        X, Y = random_instance(seed, dims=(2,), n_range=(2, 12), m_range=(2, 12))
        base = rw_profile(X[0], X, Y)
        doubled = rw_profile(X[0], X, np.vstack([Y, Y]))
        np.testing.assert_array_equal(doubled.candidate_radii, base.candidate_radii)
        np.testing.assert_array_equal(doubled.walk_values, 2.0 * base.walk_values)


def test_rw_radius_picks_peak():
    prof = rw_profile([0.1], [[0.0], [0.1], [0.2]], [[10.0]])
    assert rw_radius(prof) == (0.1, 1.0)


def test_rw_radius_degenerate_peak_at_zero():
    prof = RwProfile(candidate_radii=[0.0, 1.0], walk_values=[1.0, 0.0])
    assert rw_radius(prof) == (0.0, 1.0)


def test_rw_radius_constant_profile_breaks_tie_small():
    prof = RwProfile(candidate_radii=[0.0, 0.5, 2.0], walk_values=[1.0, 1.0, 1.0])
    assert rw_radius(prof) == (0.0, 1.0)


def test_rw_score_direct_evaluation():
    assert rw_score(1.0, 0.1, 3, 0.1) == pytest.approx(-0.5, abs=1e-12)


def test_rw_score_zero_radius_keeps_walk():
    assert rw_score(1.25, 0.0, 7, 3.0) == 1.25


def test_rw_score_zero_dmax_keeps_walk():
    assert rw_score(1.25, 0.5, 7, 0.0) == 1.25


def test_rw_score_validation():
    with pytest.raises(ValueError):
        rw_score(1.0, 0.1, 0, 1.0)
    with pytest.raises(ValueError):
        rw_score(1.0, 0.1, 1, -1.0)


@settings(max_examples=50)
@given(
    walk=st.floats(-10, 10, allow_nan=False),
    radius=st.floats(0, 10, allow_nan=False),
    n_u=st.integers(1, 100),
    d_max=st.floats(0, 10, allow_nan=False),
)
def test_rw_score_never_exceeds_walk(walk, radius, n_u, d_max):
    assert rw_score(walk, radius, n_u, d_max) <= walk


def test_rw_cover_single_ball_covers_cluster():
    cover = rw_cover([[0.0], [0.1], [0.2]], [[10.0]])
    assert cover.n_balls == 1
    ball = cover.balls[0]
    assert ball.score is not None and cover.scores.tolist() == [ball.score]
    assert ball.radius >= 0.2  # catches all three targets


def test_rw_cover_zero_radius_ball_flags_improper():
    cover = rw_cover([[0.0], [1.0], [1.1]], [[0.0], [5.0]])
    radii = cover.radii
    assert np.any(radii == 0.0)
    assert not cover.is_proper


def test_rw_cover_no_enemies_single_greedy_ball():
    cover = rw_cover([[0.0], [0.4], [1.0]], np.empty((0, 1)))
    assert cover.is_pure  # vacuously
    assert cover.n_balls == 1
    assert cover.balls[0].radius == 1.0  # grows to cover everything


def test_rw_cover_requires_targets():
    with pytest.raises(ValueError):
        rw_cover(np.empty((0, 1)), [[1.0]])


def test_rw_cover_termination_and_closed_coverage():
    for seed in range(10):
        X, Y = random_instance(seed, n_range=(2, 30), m_range=(2, 30))
        cover = rw_cover(X, Y)
        assert 1 <= cover.n_balls <= len(X)
        dist = cross_distance_matrix(X, cover.centers)
        assert np.all((dist <= cover.radii).any(axis=1))  # every target removed


def test_rw_cover_matches_naive_trace():
    for seed in range(15):
        X, Y = random_instance(seed, dims=(1, 2, 3), n_range=(2, 12), m_range=(1, 10))
        cover = rw_cover(X, Y)
        trace = naive_rw_trace(X, Y)
        assert [b.center_index for b in cover.balls] == [t[0] for t in trace]
        assert [b.radius for b in cover.balls] == [t[1] for t in trace]
        assert [b.score for b in cover.balls] == [t[2] for t in trace]


def test_rw_cover_radius_membership():
    # every emitted radius is an actual distance from its center to a point
    # still uncovered at selection time; the naive trace guarantees the
    # bookkeeping, here we check against the full distance multiset
    for seed in range(8):
        X, Y = random_instance(seed, n_range=(3, 15), m_range=(3, 15))
        cover = rw_cover(X, Y)
        allpts = np.vstack([X, Y])
        for ball in cover.balls:
            dists = cross_distance_matrix(ball.center[None, :], allpts)[0]
            assert np.any(dists == ball.radius)


def test_rw_cover_scale_invariance():
    for seed in range(8):
        X, Y = random_instance(seed, n_range=(3, 20), m_range=(3, 20))
        base = rw_cover(X, Y)
        for c in (1e-3, 1e3):
            scaled = rw_cover(c * X, c * Y)
            assert [b.center_index for b in scaled.balls] == [b.center_index for b in base.balls]
            np.testing.assert_allclose(scaled.radii, c * base.radii, rtol=1e-12)
            np.testing.assert_allclose(
                [b.score for b in scaled.balls], [b.score for b in base.balls], rtol=1e-9, atol=1e-12
            )


def test_rw_select_composes_the_pieces():
    X = [[0.0], [0.1], [0.2]]
    Y = [[10.0]]
    sel = rw_select([0.1], X, Y, n_uncovered=3, d_max=0.1)
    assert sel.radius == 0.1 and sel.walk_value == 1.0
    assert sel.score == pytest.approx(-0.5, abs=1e-12)


@st.composite
def lattice_instance(draw):
    # points of a small integer lattice: many equal distances, duplicate
    # points within and across classes, and zero-radius balls
    d = draw(st.sampled_from([1, 2]))
    point = st.tuples(*[st.integers(0, 3)] * d)
    X = np.array(draw(st.lists(point, min_size=1, max_size=12)), dtype=np.float64).reshape(-1, d)
    Y = np.array(draw(st.lists(point, max_size=10)), dtype=np.float64).reshape(-1, d)
    return X, Y


def _assert_matches_trace(cover, trace):
    assert [(b.center_index, b.radius, b.score) for b in cover.balls] == trace


@settings(max_examples=60, deadline=None)
@given(inst=lattice_instance())
def test_rw_cover_lattice_ties_match_naive_trace(inst):
    X, Y = inst
    _assert_matches_trace(rw_cover(X, Y), naive_rw_trace(X, Y))


@settings(max_examples=30, deadline=None)
@given(inst=lattice_instance())
def test_rw_cover_lattice_without_nontargets_matches_naive_trace(inst):
    X, _ = inst
    Y = np.empty((0, X.shape[1]))
    _assert_matches_trace(rw_cover(X, Y), naive_rw_trace(X, Y))


def _run_shuffled_argsort(seed: int):
    """`np.argsort` along the last axis with the order inside each run of
    equal values shuffled (seeded), unlike any stable sort."""
    rng = np.random.default_rng(seed)

    def argsort(a, axis=-1, kind=None):
        a = np.asarray(a)
        assert axis in (-1, a.ndim - 1)
        return np.lexsort((rng.random(a.shape), a), axis=-1)

    return argsort


def test_shuffled_argsort_sorts_and_reorders_ties():
    a = np.array([[2.0, 1.0, 1.0, 2.0, 1.0, 0.0] * 20] * 3)
    order = _run_shuffled_argsort(0)(a, axis=1)
    np.testing.assert_array_equal(np.take_along_axis(a, order, axis=1), np.sort(a, axis=1))
    assert (order != np.argsort(a, axis=1, kind="stable")).any()


def _assert_same_cover(a, b):
    for name in ("center_index", "radii", "scores"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert (a.is_pure, a.is_proper) == (b.is_pure, b.is_proper)


@st.composite
def long_lattice_instance(draw):
    # up to 150 points of a 4^d lattice: rows long enough that a default-kind
    # sort reorders ties, with duplicates within and across classes
    d = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(0, 3)] * d)
    X = np.array(draw(st.lists(point, min_size=1, max_size=80)), dtype=np.float64).reshape(-1, d)
    Y = np.array(draw(st.lists(point, max_size=70)), dtype=np.float64).reshape(-1, d)
    return X, Y


@settings(max_examples=40, deadline=None)
@given(inst=long_lattice_instance(), seed=st.integers(0, 2**32 - 1))
def test_rw_cover_does_not_depend_on_the_order_inside_runs(inst, seed):
    X, Y = inst
    plain = rw_cover(X, Y)
    with mock.patch.object(np, "argsort", _run_shuffled_argsort(seed)):
        _assert_same_cover(rw_cover(X, Y), plain)


@settings(max_examples=100, deadline=None)
@given(inst=lattice_instance())
# a point shared by both classes and a zero-radius pick; no non-targets
@example(inst=(np.array([[0.0], [1.0], [1.1]]), np.array([[0.0], [5.0]])))
@example(inst=(np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 1.0]]), np.empty((0, 2))))
# a zero-radius pick at target 1 kills its duplicate, target 4, which a
# later radius-1 ball at target 0 holds on its boundary: proper
@example(inst=(np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 2.0], [0.0, 0.0], [1.0, 1.0]]), np.array([[2.0, 1.0]])))
def test_rw_cover_flags_match_the_distance_formulas(inst):
    X, Y = inst
    cover = rw_cover(X, Y)
    assert (cover.is_pure, cover.is_proper) == rw_cover_flags(X, Y, cover.center_index, cover.radii)


def test_rw_cover_flags_cover_both_outcomes():
    # seeded lattices whose covers are impure, improper or both pure and
    # proper, so the flags meet their oracle on every outcome
    seen = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, (12, 2)).astype(float)
        Y = rng.integers(0, 3, (seed % 8, 2)).astype(float)
        cover = rw_cover(X, Y)
        flags = (cover.is_pure, cover.is_proper)
        assert flags == rw_cover_flags(X, Y, cover.center_index, cover.radii)
        seen.add(flags)
    assert {(False, True), (True, False), (True, True)} <= seen


def test_rw_cover_peak_memory_per_cell():
    # the int32 sort order and keys live for the whole fit, and the set-up
    # adds numpy's intp argsort and the int32 prefix sums (the distance
    # matrix is freed before the prefix sums are built); 18.25 bytes per
    # cell here, bounded with 1.75 to spare
    rng = np.random.default_rng(0)
    X, Y = rng.random((400, 3)), 0.1 + rng.random((40, 3))
    tracemalloc.start()
    try:
        rw_cover(X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * len(X) * (len(X) + len(Y))


def test_rw_cover_matches_naive_trace_over_mostly_dead_columns():
    rng = np.random.default_rng(2)
    X, Y = rng.random((60, 2)), rng.random((40, 2))
    trace, alive = naive_rw_trace(X, Y, with_alive=True)
    # the alive points fall below half of those alive at the last such fall
    # at least twice, so late picks step back over long stretches of
    # covered points, and most candidate columns stand for covered ones
    kept, halvings = len(X) + len(Y), 0
    for alive_t, alive_n in alive:
        if 2 * (len(alive_t) + len(alive_n)) < kept:
            kept, halvings = len(alive_t) + len(alive_n), halvings + 1
    assert halvings >= 2
    _assert_matches_trace(rw_cover(X, Y), trace)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 7, 8, 255, 256])
def test_rw_cover_counts_stay_exact_where_the_shift_steps(m):
    # m.bit_length() steps at these m, and with it the bit that separates
    # the target count from the non-target count in a prefix sum
    rng = np.random.default_rng(m)
    X = rng.integers(0, 4, (40, 2)).astype(np.float64)
    Y = rng.integers(0, 4, (m, 2)).astype(np.float64)
    _assert_matches_trace(rw_cover(X, Y), naive_rw_trace(X, Y))


def test_packing_shift_rejects_counts_beyond_int32(monkeypatch):
    # m = 2**12 takes shift 13, so n may reach 2**18 - 1; the check reads
    # only n and m
    assert rwccd._packing_shift(2**18 - 1, 2**12) == 13
    for n, m in ((2**18, 2**12), (2**20, 2**12), (2**30, 0), (1, 2**30)):
        with pytest.raises(ValueError, match="int32"):
            rwccd._packing_shift(n, m)

    # rw_cover checks before its distance matrix, the first large allocation
    def no_distances(*args):
        raise AssertionError("the distance matrix was computed")

    monkeypatch.setattr(rwccd, "_distances", no_distances)
    with pytest.raises(ValueError, match="int32"):
        rw_cover(np.zeros((2**18, 1)), np.zeros((2**12, 1)))


def test_first_max_walk_counts_stay_exact_at_the_largest_allowed_sum():
    # one row of the most targets that m = 2**12 non-targets allow, its own
    # target first and the rest in shuffled order: the last prefix sum and
    # the row-end candidate are (n << 13) + m, just below 2**31
    n, m = 2**18 - 1, 2**12
    assert (n + 1) << 13 == 2**31
    cols = np.random.default_rng(0).permutation(np.arange(1, n + m))
    cols = np.concatenate([[0], cols])
    cands = rwccd._Candidates(cols[None, :], np.ones((1, n + m), dtype=bool), n, 13)
    assert cands.counts[0, -1] == (n << 13) + m
    best, walk = rwccd._first_max_walk(cands.counts, 13, 0.5)
    count_t = np.cumsum(cols < n, dtype=np.int64)
    expected = 0.5 * count_t - (np.arange(1, n + m + 1) - count_t)
    # the first maximum over every sorted position sits at the position
    # just before the winning candidate's run
    assert (cands.before[0, best[0]], walk[0]) == (np.argmax(expected), expected.max())


def _checked_removals(seen: list, X, Y):
    """Patch `_Candidates.remove` so that after every pick the kept counts
    must equal a fresh count, from the distances, of the alive codes
    strictly nearer than each non-target (in the last column, of every
    alive point); `seen` records, per pick, whether it took out a
    non-target."""
    remove = rwccd._Candidates.remove
    n = len(X)
    dist = cross_distance_matrix(X, np.vstack([X, Y]))

    def checked(self, dead, alive):
        remove(self, dead, alive)
        seen.append(bool((dead >= n).any()))
        low = (1 << self.shift) - 1
        for row, x in zip(self.counts, self.targets):
            near = np.sort(dist[x, n:])  # the row's non-targets by distance
            t = np.searchsorted(np.sort(dist[x, :n][alive[:n]]), near)
            u = np.searchsorted(np.sort(dist[x, n:][alive[n:]]), near)
            # a non-target at distance 0 has no run before its own
            expected = np.where(near > 0, (t << self.shift) + u, low)
            total = (np.count_nonzero(alive[:n]) << self.shift) + np.count_nonzero(alive[n:])
            np.testing.assert_array_equal(row, np.append(expected, total))

    return mock.patch.object(rwccd._Candidates, "remove", checked)


@settings(max_examples=40, deadline=None)
@given(inst=long_lattice_instance())
# a point shared by both classes and a zero-radius pick; no non-targets
@example(inst=(np.array([[0.0], [1.0], [1.1]]), np.array([[0.0], [5.0]])))
@example(inst=(np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 1.0]]), np.empty((0, 2))))
def test_kept_counts_equal_a_fresh_prefix_sum_after_every_pick(inst):
    X, Y = inst
    plain = rw_cover(X, Y)
    with _checked_removals([], X, Y):
        _assert_same_cover(rw_cover(X, Y), plain)


def test_kept_counts_meet_picks_with_and_without_nontargets():
    # the shifted-box setting at q = 0.1 and 1: both kinds of pick occur
    seen = []
    for m in (20, 200):
        rng = np.random.default_rng(m)
        X, Y = rng.random((200, 3)), 0.1 + rng.random((m, 3))
        with _checked_removals(seen, X, Y):
            rw_cover(X, Y)
    assert set(seen) == {False, True}


def test_rw_cover_exact_score_tie_picks_the_lowest_index():
    # after the first ball, the three points at 0 each score exactly
    # fl(w * n_alive) at radius 0, so the pick is the lowest index of a tie
    X = np.array([[3.0], [3.0], [0.0], [3.0], [0.0], [0.0]])
    Y = np.array([[1.0]])
    _assert_matches_trace(rw_cover(X, Y), naive_rw_trace(X, Y))


def test_rw_cover_walks_alive_rows_over_candidate_columns(monkeypatch):
    # the shifted-box setting at q = 0.1: every iteration walks each alive
    # target over its m + 1 candidate columns, and nothing else
    rng = np.random.default_rng(0)
    X, Y = rng.random((600, 3)), 0.1 + rng.random((60, 3))
    walked = []
    first_max_walk = rwccd._first_max_walk

    def counting(sums, *args):
        walked.append(sums.shape)
        return first_max_walk(sums, *args)

    monkeypatch.setattr(rwccd, "_first_max_walk", counting)
    cover = rw_cover(X, Y)
    alive, bound = np.ones(len(X), dtype=bool), 0
    for center, radius in zip(cover.centers, cover.radii):
        bound += np.count_nonzero(alive) * (len(Y) + 1)
        alive &= cross_distance_matrix(center[None, :], X)[0] > radius
    assert len(walked) == cover.n_balls
    assert sum(rows * cols for rows, cols in walked) <= bound


def test_lengths_are_the_kernel_distances_bit_for_bit():
    # the radii are recomputed from the two points each; the d of the
    # kernel's own bit-for-bit test, whose sums numpy orders differently
    rng = np.random.default_rng(5)
    for d in (*range(1, 131), 256, 257, 513, 1500):
        scale = 10.0 ** rng.uniform(-3, 3, d)  # uneven terms make the order matter
        A = rng.standard_normal((9, d)) * scale
        B = rng.standard_normal((7, d)) * scale
        B[2] = A[4]  # a point in both sets
        full = cross_distance_matrix(A, B)
        pairs = rng.integers(0, len(B), len(A))
        assert np.array_equal(rwccd._lengths(A - B[pairs]), full[np.arange(len(A)), pairs]), d
        assert np.array_equal(rwccd._lengths(B - A[4]), full[4]), d


@st.composite
def lopsided_lattice_instance(draw):
    # points of a 4^d lattice, so targets and non-targets coincide: many
    # targets against a few non-targets, a few against many, or none
    d = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(0, 3)] * d)
    n_max, m_max = draw(st.sampled_from([(80, 3), (3, 70), (80, 0)]))
    X = np.array(draw(st.lists(point, min_size=1, max_size=n_max)), dtype=np.float64).reshape(-1, d)
    Y = np.array(draw(st.lists(point, max_size=m_max)), dtype=np.float64).reshape(-1, d)
    return X, Y


@settings(max_examples=40, deadline=None)
@given(inst=lopsided_lattice_instance())
# a non-target on a target (a masked candidate), then one on every target
@example(inst=(np.array([[0.0], [1.0], [2.0]]), np.array([[0.0]])))
@example(inst=(np.array([[0.0], [1.0], [1.0]]), np.array([[0.0], [1.0], [1.0], [3.0]])))
def test_rw_cover_lopsided_lattices_match_naive_trace(inst):
    X, Y = inst
    _assert_matches_trace(rw_cover(X, Y), naive_rw_trace(X, Y))


def test_lopsided_lattices_reach_every_kind_of_candidate(monkeypatch):
    # seeded draws of the strategy's three shapes: across them some row's
    # first maximum is a non-target's column, some is the row end, some
    # row holds a non-target at distance 0 and some radius steps back over
    # dead points; every step lands on the last alive point, and every
    # cover meets the oracle
    seen = set()
    last_alive = rwccd._Candidates.last_alive

    def watched_last_alive(self, best, alive):
        seen.update("row end" if j == self.counts.shape[1] - 1 else "non-target" for j in best)
        if (self.before < 0).any():
            seen.add("distance 0")
        pos, found = last_alive(self, best, alive)
        before = self.before[self.targets, best]
        # the point at pos is alive, and every one after it up to before is dead
        assert (found == self.order[self.targets, pos]).all() and alive[found].all()
        for x, p, b in zip(self.targets, pos, before):
            assert not alive[self.order[x, p + 1 : b + 1]].any()
        if (pos < before).any():
            seen.add("step back")
        return pos, found

    monkeypatch.setattr(rwccd._Candidates, "last_alive", watched_last_alive)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n_max, m_max = [(80, 3), (3, 70), (80, 0)][seed % 3]
        d = 1 + seed % 2
        X = rng.integers(0, 4, (rng.integers(1, n_max + 1), d)).astype(np.float64)
        Y = rng.integers(0, 4, (rng.integers(0, m_max + 1), d)).astype(np.float64)
        _assert_matches_trace(rw_cover(X, Y), naive_rw_trace(X, Y))
    assert seen == {"non-target", "row end", "distance 0", "step back"}
