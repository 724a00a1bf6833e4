"""Tests for the cover classifier: dissimilarities, training, prediction,
discriminant, persistence."""

import json
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccdig import classifier, core
from ccdig.classifier import (
    LARGE_GAP,
    SCORE_CLAMP,
    CccdModel,
    discriminant_batch,
    model_from_json,
    model_to_json,
    load_model,
    predict_batch,
    save_model,
    train,
)
from ccdig.core import LabeledDataset
from ccdig.pccd import pccd_cover
from helpers import (
    argmin_label,
    array_cover,
    discriminant_gap,
    median_leaves,
    model_json,
    random_instance,
    scaled_dissimilarity,
    weighted_dissimilarity,
)


def ball(center, radius, score=None):
    return array_cover(0, [center], [radius], None if score is None else [score]).balls[0]


def two_ball_model(variant="pure", r_a=2.0, r_b=1.0, score_a=None, score_b=None, e=1.0, counts=(1, 1)):
    cover_a = array_cover(0, [0.0], [r_a], None if score_a is None else [score_a])
    cover_b = array_cover(1, [2.0], [r_b], None if score_b is None else [score_b])
    hyper = {"tau": 0.5} if variant == "pure" else {"e": e}
    return CccdModel(variant=variant, covers=(cover_a, cover_b), hyper=hyper, dim=1,
                     label_map=("a", "b"), class_counts=counts)


def one_row(model, z):
    """Label and per-class minima of z as a one-row batch."""
    labels, minima = predict_batch(model, [z])
    return int(labels[0]), tuple(minima[0].tolist())


def separable_dataset(seed=0, n=20, m=15, d=2, gap=5.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    Y = rng.normal(size=(m, d)) + gap
    return LabeledDataset(
        points=np.vstack([X, Y]),
        labels=np.concatenate([np.zeros(n, np.int64), np.ones(m, np.int64)]),
    )


def test_scaled_dissimilarity_ratio():
    assert scaled_dissimilarity([1.0], ball(0.0, 2.0)) == 0.5


def test_scaled_dissimilarity_at_center():
    assert scaled_dissimilarity([0.0], ball(0.0, 2.0)) == 0.0


def test_scaled_dissimilarity_zero_radius():
    assert scaled_dissimilarity([1.0], ball(0.0, 0.0)) == math.inf
    assert scaled_dissimilarity([0.0], ball(0.0, 0.0)) == 0.0


def test_scaled_dissimilarity_dimension_mismatch():
    with pytest.raises(ValueError):
        scaled_dissimilarity([1.0, 2.0], ball(0.0, 1.0))


def test_weighted_dissimilarity_full_score():
    b = ball(0.0, 2.0, score=4.0)
    assert weighted_dissimilarity([1.0], b, 1.0) == 0.0625  # 0.5**4


def test_weighted_dissimilarity_e_zero_is_raw():
    b = ball(0.0, 2.0, score=4.0)
    assert weighted_dissimilarity([1.3], b, 0.0) == scaled_dissimilarity([1.3], b)


def test_weighted_dissimilarity_clamps_negative_scores():
    b = ball(0.0, 2.0, score=-0.5)
    expected = math.exp(SCORE_CLAMP * math.log(0.5))
    assert weighted_dissimilarity([1.0], b, 1.0) == pytest.approx(expected, rel=1e-12)


def test_weighted_dissimilarity_requires_score():
    with pytest.raises(ValueError, match="score"):
        weighted_dissimilarity([1.0], ball(0.0, 2.0), 1.0)
    with pytest.raises(ValueError, match="e must"):
        weighted_dissimilarity([1.0], ball(0.0, 2.0, score=1.0), 1.5)


def test_train_two_class_toy():
    ds = LabeledDataset(points=[[0.0], [0.4], [1.0]], labels=[0, 0, 1])
    model = train(ds, "pure", tau=1.0)
    assert model.n_classes == 2
    assert model.class_counts == (2, 1)
    assert all(c.is_pure and c.is_proper for c in model.covers)


def test_train_three_class_one_vs_rest():
    ds = LabeledDataset(points=[[0.0], [0.1], [5.0], [5.1], [10.0]], labels=[0, 0, 1, 1, 2])
    model = train(ds, "pure", tau=0.5)
    assert [c.class_id for c in model.covers] == [0, 1, 2]
    assert model.label_map == ("0", "1", "2")


@pytest.mark.parametrize("n_classes", [2, 3, 4])
def test_pure_train_equals_one_cover_per_class(n_classes):
    # train visits each class pair's block once, its row minima for one
    # class and its column minima for the other; every cover must equal
    # pccd_cover's own
    rng = np.random.default_rng(n_classes)
    labels = rng.permutation(np.arange(90) % n_classes)  # interleaved classes
    points = rng.random((90, 2)) + 0.3 * labels[:, None]
    ds = LabeledDataset(points=points, labels=labels)
    model = train(ds, "pure", tau=0.4)
    for c, cover in enumerate(model.covers):
        alone = pccd_cover(points[labels == c], points[labels != c], 0.4, class_id=c)
        for name in ("centers", "center_index", "radii"):
            assert np.array_equal(getattr(cover, name), getattr(alone, name))
        assert (cover.is_pure, cover.is_proper) == (alone.is_pure, alone.is_proper)


def test_pure_train_peak_memory_per_cell():
    # only the (n, n) boolean catch matrix lives through a fit, beside
    # one block of distances; about 2.4 bytes per n * n cell at n = 800
    rng = np.random.default_rng(0)
    n = 800
    ds = LabeledDataset(points=np.vstack([rng.random((n, 3)), 0.1 + rng.random((n, 3))]), labels=np.repeat([0, 1], n))
    tracemalloc.start()
    try:
        train(ds, "pure", tau=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * n * n


def test_train_rejects_single_class():
    ds = LabeledDataset(points=[[0.0], [1.0]], labels=[0, 0])
    with pytest.raises(ValueError, match="two classes"):
        train(ds, "pure", tau=0.5)


def test_train_validates_hyper():
    ds = separable_dataset()
    with pytest.raises(ValueError, match="tau"):
        train(ds, "pure", tau=1.5)
    with pytest.raises(ValueError, match="e must"):
        train(ds, "random_walk", e=-0.1)
    with pytest.raises(ValueError, match="requires tau"):
        train(ds, "pure")
    with pytest.raises(ValueError, match="variant"):
        train(ds, "mystery", tau=0.5)


def test_predict_prefers_bigger_radius_when_equidistant():
    model = two_ball_model()
    label, dissimilarity = one_row(model, [1.0])
    assert dissimilarity == (0.5, 1.0)
    assert label == 0


def test_predict_containment_wins():
    ds = separable_dataset()
    model = train(ds, "pure", tau=1.0)
    _, minima = predict_batch(model, ds.points)
    labels = np.array([one_row(model, p)[0] for p in ds.points])
    np.testing.assert_array_equal(labels, ds.labels)
    inside = minima[np.arange(ds.n), ds.labels]
    other = minima[np.arange(ds.n), 1 - ds.labels]
    assert np.all(inside < 1.0) and np.all(other >= 1.0)


def test_predict_rw_scores_break_co_coverage():
    model = two_ball_model(variant="random_walk", r_a=2.0, r_b=2.0, score_a=4.0, score_b=1.0)
    # z = 1.0 has rho 0.5 to both balls; the higher score wins
    label, dissimilarity = one_row(model, [1.0])
    assert label == 0
    assert dissimilarity[0] == 0.0625
    assert dissimilarity[1] == 0.5


def test_predict_tie_breaks():
    # identical balls for both classes: everything ties
    cover_a = array_cover(0, [0.0], [1.0])
    cover_b = array_cover(1, [0.0], [1.0])
    majority = CccdModel("pure", (cover_a, cover_b), {"tau": 1.0}, 1, ("a", "b"), (2, 5))
    assert one_row(majority, [0.25])[0] == 1  # larger class wins
    even = CccdModel("pure", (cover_a, cover_b), {"tau": 1.0}, 1, ("a", "b"), (3, 3))
    assert one_row(even, [0.25])[0] == 0  # then lower id


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(1, 3), min_size=k, max_size=k),
            st.lists(
                st.lists(st.sampled_from([0.0, 0.5, 2.0, math.inf]), min_size=k, max_size=k),
                min_size=1,
                max_size=12,
            ),
        )
    )
)
def test_vectorised_tie_break_matches_the_scalar_rule(case):
    # few distinct values and few distinct class sizes force ties,
    # including rows where every class is infinitely far
    counts, rows = tuple(case[0]), np.array(case[1])
    expected = [argmin_label(row, counts) for row in rows]
    assert classifier._labels(rows, counts).tolist() == expected


def _blocking_models():
    """Pure and random-walk models with zero-radius balls, two and three
    classes, each with queries that hit ball centers exactly."""
    X, Y = random_instance(11, dims=(2,), n_range=(30, 40), m_range=(20, 30))
    X[5] = Y[3]  # a target on a non-target point gets a zero-radius pure ball
    Z = np.random.default_rng(12).uniform(-1.5, 1.5, (15, 2))
    two = LabeledDataset(points=np.vstack([X, Y]), labels=np.repeat([0, 1], [len(X), len(Y)]))
    three = LabeledDataset(points=np.vstack([X, Y, Z]), labels=np.repeat([0, 1, 2], [len(X), len(Y), len(Z)]))
    rng = np.random.default_rng(13)
    for data in (two, three):
        queries = np.vstack([data.points, rng.uniform(-2.0, 2.0, (25, 2))])
        yield train(data, "pure", tau=0.7), queries
        yield train(data, "random_walk", e=0.5), queries


def _counting_kernel(monkeypatch):
    """Wrap the query path's distance kernel; the list it returns holds
    the number of entries of each call, leaving out the leaf bound's
    calls against the origin."""
    kernel, entries = classifier._distances, []

    def counting(a, b):
        result = kernel(a, b)
        if len(b) > 1 or b.any():
            entries.append(result.size)
        return result

    monkeypatch.setattr(classifier, "_distances", counting)
    return entries


def test_query_blocks_are_bit_identical_to_one_block(monkeypatch):
    seen_zero = set()
    entries = _counting_kernel(monkeypatch)
    pruned = 0
    for model, queries in _blocking_models():
        if any(b.radius == 0 for cover in model.covers for b in cover.balls):
            seen_zero.add(model.variant)
        monkeypatch.setattr(classifier, "QUERY_BLOCK_BYTES", 2**40)
        labels, minima = predict_batch(model, queries)
        gaps = discriminant_batch(model, queries, 1) if model.n_classes == 2 else None
        if model.variant == "pure":  # numpy's array power may differ from the scalar one in the last bit
            for z, row in zip(queries, minima):
                assert row.tolist() == [min(scaled_dissimilarity(z, b) for b in cover.balls) for cover in model.covers]
        balls = sum(cover.n_balls for cover in model.covers)
        widest = max(cover.n_balls for cover in model.covers)
        # these covers have at most 14 balls, so fewer seeds let the leaves prune
        for seeds in (2, 4, classifier.SEEDS):
            monkeypatch.setattr(classifier, "SEEDS", seeds)
            for rows in (1, 2, 7, len(queries) - 1):
                monkeypatch.setattr(classifier, "QUERY_BLOCK_BYTES", 8 * widest * rows)
                entries.clear()
                got_labels, got_minima = predict_batch(model, queries)
                pruned += sum(entries) < len(queries) * balls
                assert np.array_equal(got_labels, labels) and np.array_equal(got_minima, minima)
                if gaps is not None:
                    assert np.array_equal(discriminant_batch(model, queries, 1), gaps)
        assert [one_row(model, z)[0] for z in queries[:10]] == labels[:10].tolist()
    assert seen_zero == {"pure", "random_walk"}
    assert pruned  # some batch computed fewer distances than queries x balls


def _one_block_minima(model, queries):
    """Per-class minima from the one-block code, one batch of at most
    `rows` queries at a time."""
    widest = max(cover.n_balls for cover in model.covers)
    rows = max(1, classifier.QUERY_BLOCK_BYTES // (8 * widest))
    return np.vstack([classifier._class_minima(model, queries[i : i + rows]) for i in range(0, len(queries), rows)])


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([1, 3, 9, 130]),
    hyper=st.sampled_from([("pure", 0.5), ("pure", 1.0), ("random_walk", 0.0), ("random_walk", 0.5), ("random_walk", 1.0)]),
    seed=st.integers(0, 2**32 - 1),
    rows=st.sampled_from([2, 5, 16]),
    seeds=st.sampled_from([2, 3, classifier.SEEDS]),
)
def test_pruned_query_leaves_match_one_block_on_lattices(d, hyper, seed, rows, seeds):
    # lattice points put queries on centers and exactly on ball boundaries;
    # points shared by both classes give zero-radius balls; d=130 takes the
    # kernel's pairwise path
    rng = np.random.default_rng(seed)
    n, m = rng.integers(12, 40, 2)
    X = np.round(rng.uniform(0.0, 2.0, (n, d)) * 2) / 2
    Y = np.round(rng.uniform(0.5, 2.5, (m, d)) * 2) / 2
    Y[:3] = X[:3]
    data = LabeledDataset(points=np.vstack([X, Y]), labels=np.repeat([0, 1], [n, m]))
    variant, value = hyper
    model = train(data, variant, **{classifier.HYPER_KEY[variant]: value})
    queries = np.vstack([data.points, np.round(rng.uniform(-0.5, 3.0, (40, d)) * 2) / 2, rng.uniform(-0.5, 3.0, (20, d))])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifier, "QUERY_BLOCK_BYTES", 2**40)
        labels, minima = predict_batch(model, queries)
        gaps = discriminant_batch(model, queries, 0)
        singles = [one_row(model, z) for z in queries[::7]]
        widest = max(cover.n_balls for cover in model.covers)
        mp.setattr(classifier, "QUERY_BLOCK_BYTES", 8 * widest * rows)
        mp.setattr(classifier, "SEEDS", seeds)
        got_labels, got_minima = predict_batch(model, queries)
        assert np.array_equal(got_labels, labels) and np.array_equal(got_minima, minima)
        assert np.array_equal(discriminant_batch(model, queries, 0), gaps)
        assert [one_row(model, z) for z in queries[::7]] == singles
        assert [dissimilarity for _, dissimilarity in singles] == [tuple(row) for row in minima[::7].tolist()]


@pytest.mark.parametrize("d", [1, 3, 130])
@pytest.mark.parametrize("rows", [1, 2, 5, 16])
def test_query_leaves_match_the_per_coordinate_splitter(d, rows):
    # half-integer lattice points tie on coordinates and on spreads
    rng = np.random.default_rng(d * 100 + rows)
    points = np.round(rng.uniform(0.0, 3.0, (140, d)) * 2) / 2
    got = list(classifier._leaves(points, rows))
    expected = median_leaves(points, rows)
    assert len(got) == len(expected) and all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_query_leaves_compute_under_a_quarter_of_the_pairs(monkeypatch):
    # shifted d=3 boxes as in the simulation grid; each query leaf meets
    # only the balls near its bounding box. The 741 balls give leaves of at
    # most 1383 queries, so 24k queries split into 32 leaves of 750 (at 20k,
    # 16 leaves of 1250 compute about 27% of the pairs)
    rng = np.random.default_rng(21)
    X, Y = rng.uniform(0.0, 1.0, (800, 3)), rng.uniform(0.1, 1.1, (800, 3))
    model = train(LabeledDataset(points=np.vstack([X, Y]), labels=np.repeat([0, 1], 800)), "pure", tau=0.5)
    queries = rng.uniform(0.0, 1.1, (24_000, 3))
    balls = sum(cover.n_balls for cover in model.covers)
    expected = _one_block_minima(model, queries)
    entries = _counting_kernel(monkeypatch)
    labels, minima = predict_batch(model, queries)
    assert sum(entries) < len(queries) * balls / 4
    assert np.array_equal(minima, expected)
    assert np.array_equal(labels, classifier._labels(expected, model.class_counts))


def _counting_as_points(monkeypatch):
    """Wrap `core.as_points` in every ccdig module that binds it; the list
    it returns gets one entry per call."""
    real, calls = core.as_points, []

    def counting(ps):
        calls.append(1)
        return real(ps)

    for name, module in list(sys.modules.items()):
        if name == "ccdig" or name.startswith("ccdig."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_train_and_predict_check_their_point_sets_once(monkeypatch):
    # a point set is checked where it enters the library, not once per
    # distance block: a pure fit checks each cover's centers, and a batch of
    # many query leaves is checked once, however large n or the batch
    monkeypatch.setattr(classifier, "QUERY_BLOCK_BYTES", 2**15)
    calls = _counting_as_points(monkeypatch)
    counts = []
    for n in (200, 1600):
        rng = np.random.default_rng(n)
        data = LabeledDataset(points=rng.uniform(0.0, 1.0, (2 * n, 3)) + np.repeat([0.0, 0.1], n)[:, None],
                              labels=np.repeat([0, 1], n))
        queries = rng.uniform(0.0, 1.1, (4000, 3))
        calls.clear()
        model = train(data, "pure", tau=0.5)
        fit = len(calls)
        widest = max(cover.n_balls for cover in model.covers)
        assert len(queries) > 4 * core.block_rows(classifier.QUERY_BLOCK_BYTES, widest)  # several leaves
        calls.clear()
        predict_batch(model, queries)
        counts.append((fit, len(calls)))
    assert counts == [(2, 1), (2, 1)]


def test_a_lone_kept_ball_gets_the_vector_power(monkeypatch):
    # the leaf {1.0, z} seeds the two balls centred inside its box, and the
    # ball at 1.5 is the only other one in reach; z's value there is
    # (0.0206...)**2, whose last bit numpy's scalar power and its vector
    # loop round differently on hosts with a vectorised pow
    z = 1.4896920648707876
    cover_a = array_cover(0, [1.0, 1.2, 1.5], [0.01, 0.01, 0.5], [2.0, 2.0, 2.0])
    cover_b = array_cover(1, [10.0], [1.0], [1.0])
    model = CccdModel(variant="random_walk", covers=(cover_a, cover_b), hyper={"e": 1.0}, dim=1,
                      label_map=("a", "b"), class_counts=(3, 1))
    queries = np.array([[0.0], [1.0], [z]])
    labels, minima = predict_batch(model, queries)
    monkeypatch.setattr(classifier, "SEEDS", 2)
    monkeypatch.setattr(classifier, "QUERY_BLOCK_BYTES", 8 * 3 * 2)
    got_labels, got_minima = predict_batch(model, queries)
    assert np.array_equal(got_labels, labels) and np.array_equal(got_minima, minima)


def test_empty_query_batch():
    for model in (two_ball_model(), two_ball_model("random_walk", score_a=2.0, score_b=1.0)):
        labels, minima = predict_batch(model, np.empty((0, 1)))
        assert labels.shape == (0,) and minima.shape == (0, 2)
        assert discriminant_batch(model, np.empty((0, 1)), 1).shape == (0,)


def test_predict_dimension_mismatch():
    model = two_ball_model()
    with pytest.raises(ValueError, match="dimension"):
        predict_batch(model, [[0.0, 1.0]])


def test_rw_containment_consistency():
    # a point strictly inside exactly one class's cover gets that class,
    # because positive clamped exponents preserve the rho < 1 boundary
    for seed in range(5):
        X, Y = random_instance(200 + seed, n_range=(8, 20), m_range=(8, 20))
        ds = LabeledDataset(
            points=np.vstack([X, Y]),
            labels=np.concatenate([np.zeros(len(X), np.int64), np.ones(len(Y), np.int64)]),
        )
        model = train(ds, "random_walk", e=1.0)
        queries = np.random.default_rng(seed).normal(size=(40, X.shape[1]))
        raw = np.empty((len(queries), 2))
        for qi, q in enumerate(queries):
            for c, cover in enumerate(model.covers):
                raw[qi, c] = min(scaled_dissimilarity(q, b) for b in cover.balls)
        labels, _ = predict_batch(model, queries)
        only_a = (raw[:, 0] < 1.0) & (raw[:, 1] >= 1.0)
        only_b = (raw[:, 1] < 1.0) & (raw[:, 0] >= 1.0)
        assert np.all(labels[only_a] == 0)
        assert np.all(labels[only_b] == 1)


def test_e_zero_equals_pure_rule_over_same_covers():
    X, Y = random_instance(5, n_range=(8, 20), m_range=(8, 20))
    ds = LabeledDataset(
        points=np.vstack([X, Y]),
        labels=np.concatenate([np.zeros(len(X), np.int64), np.ones(len(Y), np.int64)]),
    )
    model = train(ds, "random_walk", e=0.0)
    queries = np.vstack([X, Y]) + 0.05
    _, minima = predict_batch(model, queries)
    for qi, q in enumerate(queries):
        for c, cover in enumerate(model.covers):
            raw = min(scaled_dissimilarity(q, b) for b in cover.balls)
            assert minima[qi, c] == raw


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(30, 2))
    labels = np.array([0] * 14 + [1] * 10 + [2] * 6)
    ds = LabeledDataset(points=pts, labels=labels)
    perm = [2, 0, 1]  # class c becomes perm[c]
    ds_perm = LabeledDataset(points=pts, labels=np.array([perm[l] for l in labels]))
    model = train(ds, "pure", tau=0.6)
    model_perm = train(ds_perm, "pure", tau=0.6)
    queries = rng.normal(size=(40, 2))
    for q in queries:
        a_label, a_dissimilarity = one_row(model, q)
        b_label, b_dissimilarity = one_row(model_perm, q)
        assert b_label == perm[a_label]
        for c in range(3):
            assert b_dissimilarity[perm[c]] == a_dissimilarity[c]


def test_scale_invariance_of_predictions():
    for seed in range(5):
        X, Y = random_instance(seed, n_range=(6, 25), m_range=(6, 25))
        ds = LabeledDataset(
            points=np.vstack([X, Y]),
            labels=np.concatenate([np.zeros(len(X), np.int64), np.ones(len(Y), np.int64)]),
        )
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(25, X.shape[1]))
        base = train(ds, "pure", tau=0.5)
        base_labels, _ = predict_batch(base, queries)
        for c in (1e-3, 1e3):
            scaled_ds = LabeledDataset(points=c * ds.points, labels=ds.labels)
            scaled = train(scaled_ds, "pure", tau=0.5)
            labels, _ = predict_batch(scaled, c * queries)
            np.testing.assert_array_equal(labels, base_labels)


def test_discriminant_orders_by_membership():
    ds = separable_dataset()
    model = train(ds, "pure", tau=1.0)
    inside_pos = discriminant_batch(model, [ds.points[ds.labels == 1][0]], positive_class=1)[0]
    inside_neg = discriminant_batch(model, [ds.points[ds.labels == 0][0]], positive_class=1)[0]
    assert inside_pos > 0 > inside_neg


def test_discriminant_antisymmetric():
    ds = separable_dataset(seed=2)
    model = train(ds, "pure", tau=0.7)
    rng = np.random.default_rng(0)
    queries = rng.normal(size=(30, 2)) * 3
    a = discriminant_batch(model, queries, positive_class=1)
    b = discriminant_batch(model, queries, positive_class=0)
    np.testing.assert_array_equal(a, -b)


def test_discriminant_sign_agrees_with_predict():
    for seed in range(5):
        X, Y = random_instance(seed, n_range=(5, 20), m_range=(5, 20))
        ds = LabeledDataset(
            points=np.vstack([X, Y]),
            labels=np.concatenate([np.zeros(len(X), np.int64), np.ones(len(Y), np.int64)]),
        )
        model = train(ds, "random_walk", e=1.0)
        queries = np.random.default_rng(seed).normal(size=(30, X.shape[1]))
        labels, _ = predict_batch(model, queries)
        scores = discriminant_batch(model, queries, positive_class=1)
        assert np.all(labels[scores > 0] == 1)
        assert np.all(labels[scores < 0] == 0)


def test_discriminant_sentinels():
    cover_a = array_cover(0, [0.0], [0.0])  # zero radius: inf away
    cover_b = array_cover(1, [2.0], [1.0])
    model = CccdModel("pure", (cover_a, cover_b), {"tau": 1.0}, 1, ("a", "b"), (1, 1))
    assert discriminant_batch(model, [[2.0]], positive_class=1)[0] == LARGE_GAP
    assert discriminant_batch(model, [[2.0]], positive_class=0)[0] == -LARGE_GAP
    # both sides infinitely far: defined as 0
    both_zero = CccdModel(
        "pure",
        (array_cover(0, [0.0], [0.0]), array_cover(1, [2.0], [0.0])),
        {"tau": 1.0},
        1,
        ("a", "b"),
        (1, 1),
    )
    assert discriminant_batch(both_zero, [[-5.0]], positive_class=1)[0] == 0.0
    assert discriminant_batch(both_zero, [[-5.0]], positive_class=0)[0] == 0.0


def test_discriminant_equal_minima_is_zero():
    model = two_ball_model(r_a=1.0, r_b=1.0)
    assert discriminant_batch(model, [[1.0]], positive_class=1)[0] == 0.0


def test_discriminant_gap_matches_the_case_by_case_oracle(monkeypatch):
    # every pair of non-negative minima from zeros, subnormals, the largest
    # double and inf: finite gaps, one infinite side and two
    tiny = np.finfo(np.float64).smallest_subnormal
    values = [0.0, -0.0, tiny, 3 * tiny, 1e-300, 0.5, 1.0, 1e300, np.finfo(np.float64).max, np.inf]
    minima = np.array([[a, b] for a in values for b in values])
    monkeypatch.setattr(classifier, "_class_minima", lambda model, points: minima.copy())
    model = two_ball_model(r_a=1.0, r_b=1.0)
    for positive in (0, 1):
        got = discriminant_batch(model, [[0.0]], positive_class=positive)
        want = discriminant_gap(minima[:, positive], minima[:, 1 - positive])
        assert got.tobytes() == want.tobytes()


def test_discriminant_requires_two_classes():
    ds = LabeledDataset(points=[[0.0], [0.1], [5.0], [5.1], [9.0]], labels=[0, 0, 1, 1, 2])
    model = train(ds, "pure", tau=0.5)
    with pytest.raises(ValueError, match="two-class"):
        discriminant_batch(model, [[0.0]], positive_class=1)


def test_perfect_separation_gives_auc_one():
    from ccdig.evaluation import auc

    ds = separable_dataset(seed=4)
    model = train(ds, "pure", tau=1.0)
    scores = discriminant_batch(model, ds.points, positive_class=1)
    assert auc(scores, ds.labels) == 1.0


def test_json_roundtrip_is_stable():
    ds = separable_dataset(seed=6)
    for variant, kw in (("pure", {"tau": 0.3}), ("random_walk", {"e": 0.7})):
        model = train(ds, variant, **kw)
        text = model_to_json(model)
        again = model_to_json(model_from_json(text))
        assert text == again
        doc = json.loads(text)
        assert doc["format_version"] == 1
        assert set(doc) == {"format_version", "variant", "dim", "hyper", "label_map", "covers"}
        assert {"class_id", "is_pure", "is_proper", "n_train", "balls"} <= set(doc["covers"][0])


_ODD_LABELS = ('say "hi"', "back\\slash", "two\nlines", "naïve ✓", "")


@pytest.mark.parametrize("variant", ["pure", "random_walk"])
@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_model_to_json_is_json_dumps_of_the_document(variant, d, k):
    rng = np.random.default_rng(10 * d + k)
    n = 1 + 12 * (k - 1)  # class 0 holds one point: a one-ball cover
    points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    points[0] = [(-0.0, 5e-324, 1e150)[j % 3] for j in range(d)]
    points[1] = points[0]  # in classes 0 and 1: zero radii in a pure cover
    points[2:5, 0] = -0.0, 5e-324, 1e150
    labels = np.concatenate([[0], np.repeat(np.arange(1, k), 12)])
    names = tuple(_ODD_LABELS[(k + j) % len(_ODD_LABELS)] for j in range(k))
    model = train(LabeledDataset(points=points, labels=labels, label_names=names), variant, tau=0.3, e=0.7)
    assert model.covers[0].n_balls == 1
    if variant == "pure":
        assert model.covers[0].radii[0] == 0.0
    assert model_to_json(model) == model_json(model)


def test_save_load_predict_bit_exact(tmp_path):
    ds = separable_dataset(seed=7)
    rng = np.random.default_rng(1)
    queries = rng.normal(size=(200, 2)) * 4
    for variant, kw in (("pure", {"tau": 0.5}), ("random_walk", {"e": 1.0})):
        model = train(ds, variant, **kw)
        path = tmp_path / f"{variant}.json"
        save_model(model, path)
        reloaded = load_model(path)
        l0, m0 = predict_batch(model, queries)
        l1, m1 = predict_batch(reloaded, queries)
        np.testing.assert_array_equal(l0, l1)
        np.testing.assert_array_equal(m0, m1)


def test_model_from_json_rejects_unknown_version():
    ds = separable_dataset(seed=9)
    doc = json.loads(model_to_json(train(ds, "pure", tau=0.5)))
    doc["format_version"] = 99
    with pytest.raises(ValueError, match="version"):
        model_from_json(json.dumps(doc))


_VALID_DOCS = {
    variant: json.loads(model_to_json(train(separable_dataset(seed=11, n=6, m=5), variant, **kw)))
    for variant, kw in (("pure", {"tau": 0.5}), ("random_walk", {"e": 0.5}))
}
_JUNK = (None, "x", -1, 0, 2, 1.5, -0.5, 10**400, float("nan"), float("inf"), True, [], {}, [1.0], {"e": 0.5})


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(sorted(_VALID_DOCS)),
    pick=st.integers(0, 10**6),
    action=st.one_of(st.just("delete"), st.sampled_from(_JUNK)),
)
@example(variant="random_walk", pick=176391, action=10**400)  # covers[1].n_train
def test_mutated_model_json_raises_only_value_error(variant, pick, action):
    doc = json.loads(json.dumps(_VALID_DOCS[variant]))
    paths = list(_paths(doc))[1:]
    *parents, key = paths[pick % len(paths)]
    node = doc
    for p in parents:
        node = node[p]
    if action == "delete":
        del node[key]
    else:
        node[key] = action
    try:
        model = model_from_json(json.dumps(doc))
    except ValueError:
        return
    # whatever loads must also predict
    labels, minima = predict_batch(model, np.zeros((3, model.dim)))
    assert labels.shape == (3,) and minima.shape == (3, model.n_classes)


def test_replaced_hyper_swaps_exponent():
    ds = separable_dataset(seed=10)
    model = train(ds, "random_walk", e=0.0)
    swapped = replace(model, hyper={"e": 1.0})
    assert swapped.hyper == {"e": 1.0}
    assert swapped.covers is model.covers
    with pytest.raises(ValueError, match="e must"):
        replace(model, hyper={"e": 7.0})


def test_model_holds_exactly_its_checked_hyper():
    scored = array_cover(0, [0.0], [1.0], scores=[2.0])
    rw = CccdModel("random_walk", (scored, scored), {"e": 1}, 1, ("a", "b"), (1, 1))
    assert rw.hyper == {"e": 1.0} and type(rw.hyper["e"]) is float
    for hyper in ({}, {"e": 5.0}, {"e": 1.0, "tau": 0.5}, {"tau": 0.5}, [("e", 1.0)]):
        with pytest.raises(ValueError, match="hyper must hold|e must"):
            CccdModel("random_walk", (scored, scored), hyper, 1, ("a", "b"), (1, 1))
    pure = array_cover(0, [0.0], [1.0])
    with pytest.raises(ValueError, match="tau"):
        CccdModel("pure", (pure, pure), {"e": 0.5}, 1, ("a", "b"), (1, 1))
    # a saved document with a second key no longer loads, nor one out of
    # range; both are faults of the document, found before its covers
    for variant, hyper in (
        ("random_walk", {"e": 0.5, "foo": 3.0}),
        ("random_walk", {"e": 5.0}),
        ("pure", {"tau": 2.0}),
        ("pure", {"tau": 0.5, "e": 1.0}),
    ):
        doc = json.loads(json.dumps(_VALID_DOCS[variant]))
        doc["hyper"] = hyper
        with pytest.raises(ValueError, match="^invalid model: hyper "):
            model_from_json(json.dumps(doc))


def test_model_validation():
    pure = array_cover(0, [0.0], [1.0])
    scored = array_cover(1, [1.0], [1.0], scores=[2.0])
    with pytest.raises(ValueError, match="scores"):
        CccdModel("pure", (pure, scored), {"tau": 0.5}, 1, ("a", "b"), (1, 1))
    with pytest.raises(ValueError, match="scores"):
        CccdModel(
            "random_walk",
            (array_cover(0, [0.0], [1.0]), array_cover(1, [1.0], [1.0])),
            {"e": 0.5},
            1,
            ("a", "b"),
            (1, 1),
        )
    with pytest.raises(ValueError, match="scores"):
        CccdModel("random_walk", (scored, pure), {"e": 0.5}, 1, ("a", "b"), (1, 1))
    with pytest.raises(ValueError, match="dimension"):
        CccdModel("pure", (pure, array_cover(1, [[1.0, 2.0]], [1.0])), {"tau": 0.5}, 1, ("a", "b"), (1, 1))
    assert CccdModel("random_walk", (scored, scored), {"e": 0.5}, 1, ("a", "b"), (1, 1)).n_classes == 2


def test_pure_model_json_with_a_score_is_rejected():
    doc = json.loads(json.dumps(_VALID_DOCS["pure"]))
    doc["covers"][1]["balls"][0]["score"] = 1.0
    with pytest.raises(ValueError, match=r"covers\[1\]\.balls\[0\] must not carry a score"):
        model_from_json(json.dumps(doc))


def test_a_schema_fault_in_a_later_cover_wins_over_an_earlier_coordinate_fault():
    # the covers are built only after the whole document has passed the schema
    doc = json.loads(json.dumps(_VALID_DOCS["pure"]))
    doc["covers"][0]["balls"][0]["center"] = [1e200, 0.0]
    doc["covers"][1]["balls"][0]["radius"] = -1.0
    with pytest.raises(ValueError, match=r"^invalid model: covers\[1\]\.balls\[0\]\.radius must be a finite number >= 0$"):
        model_from_json(json.dumps(doc))
    doc["covers"][1]["balls"][0]["radius"] = 1.0
    with pytest.raises(ValueError, match="^point coordinates must be at most "):
        model_from_json(json.dumps(doc))
