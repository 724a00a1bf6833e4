"""Tests for pure covers: radii, the catch matrix, greedy domination."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccdig import pccd
from ccdig.classifier import train
from ccdig.core import LabeledDataset, cross_distance_matrix
from ccdig.pccd import (
    ClassCover,
    build_pccd_digraph,
    greedy_dominating_set,
    pccd_cover,
    pccd_radii,
)
from helpers import (
    distance_pair,
    exact_min_dominating_size,
    full_matrix_pure_cover,
    ln_bound,
    naive_greedy_dominating_set,
    random_instance,
)


def radius(x_index, targets, nontargets, tau):
    return float(pccd_radii(*distance_pair(targets, nontargets), tau)[x_index])


def test_radius_tau_one_is_nearest_enemy_distance():
    assert radius(0, [0.0, 0.4], [1.0], 1.0) == 1.0


def test_radius_blends_friend_and_enemy_distances():
    assert radius(0, [0.0, 0.4], [1.0], 0.5) == pytest.approx(0.7, rel=1e-15)


def test_radius_singleton_target():
    assert radius(0, [0.0], [1.0], 0.5) == pytest.approx(0.5, rel=1e-15)


def test_radius_duplicate_across_classes_is_zero():
    assert radius(0, [0.0, 1.0], [0.0], 0.7) == 0.0


def test_radius_tau_validation():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="tau"):
            radius(0, [0.0], [1.0], bad)


def test_cover_tau_validation():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="tau"):
            pccd_cover([[0.0], [0.4]], [[1.0]], bad)


def test_radius_requires_nontargets():
    with pytest.raises(ValueError):
        pccd_radii(np.zeros((1, 1)), np.empty((1, 0)), 0.5)


def test_radius_in_unit_interval_of_enemy_distance():
    X, Y = random_instance(99)
    for tau in (1e-4, 0.5, 1.0):
        radii = pccd_radii(*distance_pair(X, Y), tau)
        nearest_enemy = cross_distance_matrix(X, Y).min(axis=1)
        assert np.all(radii > 0)
        assert np.all(radii <= nearest_enemy)


def test_radius_monotone_in_tau():
    for seed in range(8):
        X, Y = random_instance(seed, n_range=(3, 20), m_range=(3, 20))
        taus = np.sort(np.random.default_rng(seed).uniform(1e-6, 1.0, 5))
        stacked = np.array([pccd_radii(*distance_pair(X, Y), t) for t in taus])
        assert np.all(np.diff(stacked, axis=0) >= -1e-12 * stacked[:1])


def test_digraph_example_arcs():
    dist_t, dist_n = distance_pair([0.0, 0.1, 5.0], [1.0])
    radii = pccd_radii(dist_t, dist_n, 1.0)
    np.testing.assert_array_equal(radii, [1.0, 0.9, 4.0])
    closed = build_pccd_digraph(dist_t, radii)
    assert np.array_equal(closed, [[True, True, False], [True, True, False], [False, False, True]])


def test_digraph_single_vertex():
    assert np.array_equal(build_pccd_digraph(np.zeros((1, 1)), [1.0]), [[True]])


def test_digraph_length_mismatch():
    with pytest.raises(ValueError):
        build_pccd_digraph(np.zeros((2, 2)), [1.0])


def test_tau_invariance_of_arcs():
    for seed in range(10):
        X, Y = random_instance(seed, n_range=(3, 30), m_range=(3, 30))
        dist_t, dist_n = distance_pair(X, Y)
        graphs = [build_pccd_digraph(dist_t, pccd_radii(dist_t, dist_n, t)) for t in (1e-4, 0.3, 1.0)]
        assert np.array_equal(graphs[0], graphs[1]) and np.array_equal(graphs[1], graphs[2])


def test_greedy_complete_digraph():
    assert greedy_dominating_set(np.ones((3, 3), dtype=bool)) == [0]


def test_greedy_no_arcs_selects_everything():
    assert greedy_dominating_set(np.eye(4, dtype=bool)) == [0, 1, 2, 3]


def test_greedy_star_matches_exact_oracle():
    closed = np.eye(4, dtype=bool)
    closed[0] = True
    assert greedy_dominating_set(closed) == [0]
    assert exact_min_dominating_size(closed) == 1


def test_greedy_empty_digraph():
    assert greedy_dominating_set(np.zeros((0, 0), dtype=bool)) == []


def test_greedy_tie_break_lowest_index():
    # both vertices catch each other: closed neighborhoods tie at size 2
    assert greedy_dominating_set(np.ones((2, 2), dtype=bool)) == [0]


def test_greedy_appends_the_count_one_tail_in_index_order():
    # vertex 3 catches 0, 2, 5, 7 and 8; each of 1, 4, 6 and 9 then has no
    # undominated vertex but itself in its row, though 4 and 6 catch
    # dominated ones and dominated 8 catches 9
    closed = np.eye(10, dtype=bool)
    closed[3, [0, 2, 5, 7, 8]] = True
    closed[4, 5] = closed[6, 2] = closed[8, 9] = True
    sel = greedy_dominating_set(closed)
    assert sel == [3, 1, 4, 6, 9]
    assert all(type(v) is int for v in sel)
    assert sel == naive_greedy_dominating_set(closed)


def test_greedy_rejects_a_matrix_that_is_not_a_closed_catch_matrix():
    with pytest.raises(ValueError):
        greedy_dominating_set(np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        greedy_dominating_set(np.zeros((2, 2), dtype=bool))


def closed_matrices(max_n):
    """Square boolean matrices with the diagonal set, half the other
    cells caught on average, so neighborhood counts often tie."""
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n).map(
            lambda cells: np.array(cells, dtype=bool).reshape(n, n) | np.eye(n, dtype=bool)
        )
    )


@settings(max_examples=60, deadline=None)
@given(closed_matrices(9))
def test_greedy_always_dominates(closed):
    sel = greedy_dominating_set(closed)
    assert closed[sel].any(axis=0).all()


@settings(max_examples=400, deadline=None)
@given(closed_matrices(12))
@example(np.zeros((0, 0), dtype=bool))
def test_greedy_matches_naive_recount(closed):
    assert greedy_dominating_set(closed) == naive_greedy_dominating_set(closed)


def test_greedy_within_ln_bound_on_random_instances():
    for seed in range(10):
        X, Y = random_instance(1000 + seed, dims=(1, 2), n_range=(1, 12), m_range=(1, 8))
        dist_t, dist_n = distance_pair(X, Y)
        closed = build_pccd_digraph(dist_t, pccd_radii(dist_t, dist_n, 0.5))
        greedy = len(greedy_dominating_set(closed))
        exact = exact_min_dominating_size(closed)
        assert greedy <= ln_bound(len(closed)) * exact


def test_cover_example_tie_break():
    cover = pccd_cover([0.0, 0.1], [1.0], 1.0)
    assert cover.n_balls == 1
    ball = cover.balls[0]
    assert ball.center_index == 0 and ball.radius == 1.0 and ball.score is None and cover.scores is None
    assert cover.is_pure and cover.is_proper


def test_cover_requires_both_classes():
    with pytest.raises(ValueError):
        pccd_cover(np.empty((0, 1)), [[1.0]], 0.5)
    with pytest.raises(ValueError):
        pccd_cover([[1.0]], np.empty((0, 1)), 0.5)


def test_cover_requires_one_dimension():
    # the fit's distance blocks take checked sets, so the cover checks them
    for targets, nontargets in (([[0.0, 0.0]], [[1.0]]), ([[0.0]], [[1.0, 1.0]])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pccd_cover(targets, nontargets, 0.5)


def test_cover_purity_and_properness_random():
    for seed in range(20):
        X, Y = random_instance(seed, n_range=(5, 40), m_range=(5, 40))
        tau = float(np.random.default_rng(seed).uniform(0.05, 1.0))
        cover = pccd_cover(X, Y, tau)
        assert cover.is_pure and cover.is_proper
        for ball in cover.balls:
            enemy = cross_distance_matrix(ball.center[None, :], Y)[0]
            assert np.all(enemy >= ball.radius)
        centers = {b.center_index for b in cover.balls}
        dist = cross_distance_matrix(X, cover.centers)
        radii = cover.radii
        for i in range(len(X)):
            assert i in centers or np.any(dist[i] < radii)


def test_cover_duplicate_point_across_classes():
    cover = pccd_cover([0.0, 1.0], [0.0], 1.0)
    assert cover.is_pure and cover.is_proper
    by_index = {b.center_index: b for b in cover.balls}
    assert by_index[0].radius == 0.0  # duplicated point keeps an empty ball


def interleaved_classes(n_classes):
    """90 points in n_classes interleaved, overlapping classes, with a
    class-0 target twice and a class-0 point that is also in class 1."""
    rng = np.random.default_rng(n_classes)
    labels = rng.permutation(np.arange(90) % n_classes)
    points = rng.random((90, 2)) + 0.3 * labels[:, None]
    zero, one = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
    points[zero[1]] = points[zero[0]]
    points[one[0]] = points[zero[2]]
    return points, labels


def assert_same_cover(got, expected):
    assert got.class_id == expected.class_id
    assert np.array_equal(got.center_index, expected.center_index)
    for name in ("centers", "radii"):
        assert np.array_equal(getattr(got, name).view(np.int64), getattr(expected, name).view(np.int64)), name
    assert (got.is_pure, got.is_proper) == (expected.is_pure, expected.is_proper)


# blocks of one row; of 360 // cols rows (8 of 45 at two classes, 12 of
# 30 at three, 15 or 16 of 22 or 23 at four), so every last block is
# short; and one block per class
@pytest.mark.parametrize("budget", [1, 8 * 45 * 8, 2**30], ids=["one-row", "ragged", "single"])
@pytest.mark.parametrize("n_classes", [2, 3, 4])
def test_blocked_covers_equal_the_full_matrix_oracle(monkeypatch, n_classes, budget):
    monkeypatch.setattr(pccd, "FIT_BLOCK_BYTES", budget)
    points, labels = interleaved_classes(n_classes)
    for tau in (np.finfo(float).eps, 0.4, 1.0):
        model = train(LabeledDataset(points=points, labels=labels), "pure", tau=tau)
        for c, cover in enumerate(model.covers):
            args = (points[labels == c], points[labels != c], tau)
            expected = full_matrix_pure_cover(*args, class_id=c)
            assert_same_cover(cover, expected)
            assert_same_cover(pccd_cover(*args, class_id=c), expected)
            if c < 2:  # the point in both classes keeps an empty ball
                assert 0.0 in cover.radii


def test_scale_invariance_of_structure():
    for seed in range(8):
        X, Y = random_instance(seed, n_range=(4, 25), m_range=(4, 25))
        dist_t, dist_n = distance_pair(X, Y)
        base_r = pccd_radii(dist_t, dist_n, 0.4)
        base_g = build_pccd_digraph(dist_t, base_r)
        base_sel = greedy_dominating_set(base_g)
        for c in (1e-3, 1e3):
            dist_t, dist_n = distance_pair(c * X, c * Y)
            r = pccd_radii(dist_t, dist_n, 0.4)
            np.testing.assert_allclose(r, c * base_r, rtol=1e-12)
            g = build_pccd_digraph(dist_t, r)
            assert np.array_equal(g, base_g)
            assert greedy_dominating_set(g) == base_sel


def _cover(centers=((0.0,), (1.0,)), center_index=(0, 1), radii=(1.0, 2.0), scores=None):
    return ClassCover(0, centers, center_index, radii, True, True, scores)


def test_class_cover_validation():
    assert _cover().n_balls == 2 and _cover(scores=[0.5, -1.0]).n_balls == 2
    with pytest.raises(ValueError, match="non-negative"):
        _cover(radii=(1.0, -1.0))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            _cover(radii=(1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            _cover(centers=((0.0,), (bad,)))
        with pytest.raises(ValueError, match="finite"):
            _cover(scores=(1.0, bad))
    for lengths in (
        {"centers": ((0.0,),)},
        {"center_index": (0,)},
        {"radii": (1.0, 2.0, 3.0)},
        {"scores": (1.0,)},
        {"centers": (0.0, 1.0)},  # one-dimensional: no (k, d) shape
        {"radii": ((1.0, 2.0), (3.0, 4.0))},
        {"center_index": 0, "radii": 1.0, "centers": ((0.0,),)},  # scalars, not (k,) arrays
    ):
        with pytest.raises(ValueError, match="k >= 1 balls"):
            _cover(**lengths)
    with pytest.raises(ValueError, match="k >= 1 balls"):
        _cover(centers=np.empty((0, 1)), center_index=(), radii=())


def test_class_cover_accessors():
    cover = pccd_cover([0.0, 0.1, 3.0], [1.0], 1.0)
    assert cover.centers.shape == (cover.n_balls, 1)
    assert cover.radii.shape == (cover.n_balls,)
    assert cover.center_index.shape == (cover.n_balls,) and cover.scores is None
    assert isinstance(cover, ClassCover)
    for arr in (cover.centers, cover.center_index, cover.radii):
        assert not arr.flags.writeable
    for ball, center, index, radius in zip(cover.balls, cover.centers, cover.center_index, cover.radii):
        assert np.array_equal(ball.center, center) and ball.center_index == index and ball.radius == radius
        assert ball.score is None


def test_class_cover_copies_its_input():
    radii = np.array([1.0, 2.0])
    cover = _cover(radii=radii)
    radii[0] = 5.0
    assert cover.radii.tolist() == [1.0, 2.0]
