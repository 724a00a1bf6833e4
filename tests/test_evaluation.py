"""Tests for AUC, the k-NN baseline, overlap metrics and the harness."""

import math
import os
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdig import classifier, evaluation
from ccdig.classifier import VARIANT_PURE, VARIANT_RW, discriminant_batch, predict_batch, train
from ccdig.core import LabeledDataset
from ccdig.evaluation import (
    ClassifierSpec,
    SimulationConfig,
    auc,
    format_report_table,
    knn_predict_batch,
    knn_scores,
    local_imbalance,
    overlap_alpha,
    overlap_delta,
    pilot_study,
    report_rows,
    run_simulation,
    sample_replication,
)
from helpers import brute_force_auc, random_instance, stable_sort_knn, trapezoid_roc_auc

EPS = float(np.finfo(np.float64).eps)


def test_auc_perfect_separation():
    assert auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0


def test_auc_three_quarters():
    assert auc([0.9, 0.35, 0.4, 0.1], [1, 1, 0, 0]) == 0.75


def test_auc_all_ties():
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]) == 0.5


def test_auc_validation():
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        auc([0.1, np.nan], [1, 0])
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [1, 2])


def test_auc_matches_brute_force_with_ties():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n1 = int(rng.integers(1, 15))
        n0 = int(rng.integers(1, 15))
        labels = np.concatenate([np.ones(n1, np.int64), np.zeros(n0, np.int64)])
        if rng.random() < 0.5:
            scores = rng.integers(0, 4, n1 + n0).astype(float)  # heavy ties
        else:
            scores = rng.normal(size=n1 + n0)
        assert auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)


def test_auc_matches_trapezoid_roc():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.normal(size=n), 1)
        assert auc(scores, labels) == pytest.approx(trapezoid_roc_auc(scores, labels), abs=1e-12)


score16 = st.floats(allow_nan=False, allow_infinity=False, width=16)


@settings(max_examples=50)
@given(st.lists(st.tuples(score16, st.integers(0, 1)), min_size=2, max_size=30))
def test_auc_invariant_under_increasing_transforms(pairs):
    scores = np.array([p[0] for p in pairs], dtype=np.float64)
    labels = np.array([p[1] for p in pairs])
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    base = auc(scores, labels)
    assert auc(4.0 * scores, labels) == base
    assert auc(scores**3, labels) == base
    assert auc(np.exp(scores / 65536.0), labels) == base


def knn_one(train_data, z, k):
    """Label and positive-neighbor fraction of z as a one-row batch."""
    return int(knn_predict_batch(train_data, [z], k)[0]), float(knn_scores(train_data, [z], k)[0])


def knn_toy():
    return LabeledDataset(points=[[0.0], [1.0], [2.0], [10.0]], labels=[1, 1, 0, 0])


def test_knn_k1_nearest_label():
    label, frac = knn_one(knn_toy(), [0.2], 1)
    assert (label, frac) == (1, 1.0)


def test_knn_counts_votes():
    label, frac = knn_one(knn_toy(), [0.9], 3)  # neighbors: 1, 0, 2 -> labels 1,1,0
    assert label == 1
    assert frac == pytest.approx(2 / 3)


def test_knn_k_equals_n_gives_global_majority():
    ds = LabeledDataset(points=[[0.0], [1.0], [2.0], [3.0], [50.0]], labels=[0, 0, 0, 1, 1])
    for z in ([-100.0], [100.0], [2.5]):
        assert knn_one(ds, z, 5)[0] == 0


def test_knn_k_out_of_range():
    with pytest.raises(ValueError, match="k must be"):
        knn_one(knn_toy(), [0.0], 0)
    with pytest.raises(ValueError, match="k must be"):
        knn_one(knn_toy(), [0.0], 5)


@pytest.mark.parametrize("positive", [-1, 2])
def test_knn_scores_need_a_class_id(positive):
    with pytest.raises(ValueError, match="positive must be"):
        knn_scores(knn_toy(), [[0.0]], 1, positive=positive)


def test_knn_self_point_is_own_nearest_neighbor():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(20, 3))
    labels = rng.integers(0, 2, 20)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    ds = LabeledDataset(points=pts, labels=labels)
    for i in range(20):
        assert knn_one(ds, pts[i], 1)[0] == labels[i]


def test_knn_distance_tie_lower_index():
    ds = LabeledDataset(points=[[-1.0], [1.0]], labels=[0, 1])
    assert knn_one(ds, [0.0], 1)[0] == 0


def test_knn_vote_tie_majority_class_then_lower_id():
    ds = LabeledDataset(points=[[0.0], [1.0], [5.0]], labels=[0, 1, 1])
    # k=2 neighbors of 0.5 are one of each class; class 1 is larger
    assert knn_one(ds, [0.5], 2)[0] == 1
    even = LabeledDataset(points=[[0.0], [1.0]], labels=[0, 1])
    assert knn_one(even, [0.5], 2)[0] == 0


def test_knn_batch_matches_single():
    X, Y = random_instance(21, n_range=(5, 20), m_range=(5, 20))
    ds = LabeledDataset(
        points=np.vstack([X, Y]),
        labels=np.concatenate([np.zeros(len(X), np.int64), np.ones(len(Y), np.int64)]),
    )
    queries = np.random.default_rng(0).normal(size=(15, X.shape[1]))
    for k in (1, 3, 7):
        batch_labels = knn_predict_batch(ds, queries, k)
        batch_scores = knn_scores(ds, queries, k)
        for i, q in enumerate(queries):
            label, frac = knn_one(ds, q, k)
            assert batch_labels[i] == label
            assert batch_scores[i] == frac


def test_knn_matches_a_stable_sort_under_many_distance_ties(monkeypatch):
    # points on a coarse integer grid tie at almost every distance, so the
    # k-th nearest distance is shared by several points in most rows; the
    # off-grid queries have no ties, so blocks mix rows with and without
    rng = np.random.default_rng(8)
    points = rng.integers(0, 4, (40, 2)).astype(np.float64)
    labels = np.arange(40) % 3
    ds = LabeledDataset(points=points, labels=labels)
    queries = np.vstack([points[:10], rng.integers(-1, 5, (30, 2)).astype(np.float64)])
    queries = np.vstack([queries, rng.uniform(-1.0, 5.0, (20, 2))])[rng.permutation(60)]
    for k in (1, 2, 4, 5, 9, 40):
        expected_labels, neighbors = stable_sort_knn(points, labels, queries, k)
        one_block = knn_predict_batch(ds, queries, k), knn_scores(ds, queries, k)
        np.testing.assert_array_equal(one_block[0], expected_labels)
        np.testing.assert_array_equal(one_block[1], (neighbors == 1).mean(axis=1))
        # query blocks of 1, 2, 7 and n - 1 rows give the same bits
        for rows in (1, 2, 7, len(queries) - 1):
            monkeypatch.setattr(classifier, "QUERY_BLOCK_BYTES", 8 * ds.n * rows)
            assert np.array_equal(knn_predict_batch(ds, queries, k), one_block[0])
            assert np.array_equal(knn_scores(ds, queries, k), one_block[1])
        monkeypatch.undo()


def test_overlap_alpha_examples():
    assert overlap_alpha(0.0, 3) == 1.0
    assert overlap_alpha(1.0, 3) == 0.0
    assert overlap_alpha(0.5, 1) == pytest.approx(1 / 3, rel=1e-15)


def test_overlap_delta_examples():
    assert overlap_delta(1.0, 4) == 0.0
    assert overlap_delta(0.0, 4) == 1.0


@settings(max_examples=80)
@given(delta=st.floats(0.0, 1.0, allow_nan=False), d=st.integers(1, 20))
def test_overlap_round_trip(delta, d):
    assert abs(overlap_delta(overlap_alpha(delta, d), d) - delta) <= 1e-12


def test_overlap_validation():
    with pytest.raises(ValueError):
        overlap_alpha(1.5, 2)
    with pytest.raises(ValueError):
        overlap_delta(-0.1, 2)
    with pytest.raises(ValueError):
        overlap_alpha(0.5, 0)


def test_local_imbalance_whole_space_is_global_ratio():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 1, (40, 2))
    Y = rng.uniform(0, 1, (10, 2))
    assert local_imbalance(X, Y, ((-10, -10), (10, 10))) == 0.25


def test_local_imbalance_empty_region_is_none():
    assert local_imbalance([[0.0]], [[0.5]], ((2.0,), (3.0,))) is None


def test_local_imbalance_validates_region():
    with pytest.raises(ValueError):
        local_imbalance([[0.0]], [[0.5]], ((1.0,), (0.0,)))


def test_local_imbalance_embedded_sanity():
    from ccdig.core import sample_uniform_box

    X = sample_uniform_box(2, 0, 1, 500, seed=0)
    Y = sample_uniform_box(2, 0.3, 0.7, 500, seed=1)
    q = local_imbalance(X, Y, ((0.3, 0.3), (0.7, 0.7)))
    assert 3.0 < q < 12.0


def test_config_validation():
    with pytest.raises(ValueError, match="exactly one"):
        SimulationConfig(setting="embedded", d=2, n=10)
    with pytest.raises(ValueError, match="exactly one"):
        SimulationConfig(setting="embedded", d=2, n=10, m=5, q=0.5)
    with pytest.raises(ValueError, match="delta"):
        SimulationConfig(setting="shifted", d=2, n=10, m=5)
    with pytest.raises(ValueError, match="delta"):
        SimulationConfig(setting="embedded", d=2, n=10, m=5, delta=0.1)
    with pytest.raises(ValueError, match="alpha"):
        SimulationConfig(setting="balanced_overlap", d=2, n=10, m=5)
    with pytest.raises(ValueError, match="alpha"):
        SimulationConfig(setting="shifted", d=2, n=10, m=5, delta=0.1, alpha=0.5)
    with pytest.raises(ValueError, match="setting"):
        SimulationConfig(setting="weird", d=2, n=10, m=5)
    with pytest.raises(ValueError, match="q must be"):
        SimulationConfig(setting="embedded", d=2, n=10, q=-1.0)
    for q in (math.inf, math.nan):
        with pytest.raises(ValueError, match="q must be"):
            SimulationConfig(setting="embedded", d=2, n=10, q=q)
    with pytest.raises(ValueError, match="m must be an integer"):
        SimulationConfig(setting="embedded", d=2, n=10, m=2.5)
    for delta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="delta"):
            SimulationConfig(setting="disjoint", d=2, n=10, m=5, delta=delta)
    with pytest.raises(ValueError, match="se_target"):
        SimulationConfig(setting="embedded", d=2, n=10, m=5, se_target=math.nan)


def test_config_resolves_m_from_q():
    cfg = SimulationConfig(setting="embedded", d=2, n=40, q=0.5)
    assert cfg.resolved_m == 20


def test_supports_match_the_four_settings():
    emb = SimulationConfig(setting="embedded", d=3, n=5, m=5)
    xl, xh, yl, yh = emb.supports()
    np.testing.assert_array_equal(xl, [0, 0, 0])
    np.testing.assert_array_equal(xh, [1, 1, 1])
    np.testing.assert_array_equal(yl, [0.3, 0.3, 0.3])
    np.testing.assert_array_equal(yh, [0.7, 0.7, 0.7])

    sh = SimulationConfig(setting="shifted", d=2, n=5, m=5, delta=0.25)
    _, _, yl, yh = sh.supports()
    np.testing.assert_array_equal(yl, [0.25, 0.25])
    np.testing.assert_array_equal(yh, [1.25, 1.25])

    dis = SimulationConfig(setting="disjoint", d=3, n=5, m=5, delta=0.1)
    _, _, yl, yh = dis.supports()
    np.testing.assert_allclose(yl, [1.1, 0.0, 0.0])
    np.testing.assert_allclose(yh, [2.1, 1.0, 1.0])

    bal = SimulationConfig(setting="balanced_overlap", d=2, n=5, m=5, alpha=0.4)
    _, _, yl, yh = bal.supports()
    delta = overlap_delta(0.4, 2)
    np.testing.assert_array_equal(yl, [delta, delta])
    np.testing.assert_array_equal(yh, [1 + delta, 1 + delta])


def small_config(**kw):
    base = dict(
        setting="embedded",
        d=1,
        n=12,
        m=12,
        test_per_class=15,
        max_test_reps=6,
        se_target=0.0,
        base_seed=5,
    )
    base.update(kw)
    return SimulationConfig(**base)


SPECS = (ClassifierSpec("pcccd", 0.5), ClassifierSpec("rwcccd", 1.0), ClassifierSpec("knn", 3))


def test_run_simulation_deterministic():
    a = run_simulation(small_config(), SPECS)
    b = run_simulation(small_config(), SPECS)
    assert a == b


def test_run_simulation_threads_match_sequential():
    a = run_simulation(small_config(), SPECS, threads=1)
    b = run_simulation(small_config(), SPECS, threads=3)
    assert a == b


@pytest.mark.parametrize("threads", [0, -5])
def test_run_simulation_needs_a_thread(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_simulation(small_config(), SPECS, threads=threads)


@pytest.fixture
def inline_pool(monkeypatch):
    """A ThreadPoolExecutor that runs `map` in the calling thread and
    records each pool's `max_workers` and the length of each iterable
    `map` is handed; no thread starts."""
    import concurrent.futures

    record = types.SimpleNamespace(max_workers=[], handed=[])

    class InlineExecutor:
        def __init__(self, max_workers):
            record.max_workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            record.handed.append(len(iterable))
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlineExecutor)
    return record


@pytest.mark.parametrize("cpus, reps, pools", [(64, 5, [5]), (3, 6, [3]), (None, 6, [])])
def test_threads_are_capped_at_the_reps_and_the_cpu_count(monkeypatch, inline_pool, cpus, reps, pools):
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: cpus)
    cfg = small_config(max_test_reps=reps)
    report = run_simulation(cfg, SPECS, threads=10**6)
    assert inline_pool.max_workers == pools  # one CPU (or an unknown count) runs in the caller
    assert report == run_simulation(cfg, SPECS, threads=1)


def test_a_large_max_reps_is_submitted_one_batch_at_a_time(monkeypatch, inline_pool):
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    report = run_simulation(small_config(se_target=1.0, max_test_reps=10**9), SPECS, threads=2)
    assert report.reps == 2  # the SE target is met as soon as it exists
    assert inline_pool.handed and max(inline_pool.handed) <= 2


def test_run_simulation_report_shape():
    report = run_simulation(small_config(), SPECS)
    assert report.reps == 6
    for res in report.results:
        assert res.reps == 6
        assert all(0.0 <= a <= 1.0 for a in res.aucs)
        assert res.se_auc >= 0.0
    assert report.results[0].prototype_counts is not None
    assert report.results[2].prototype_counts is None
    assert report.results[2].mean_prototypes is None


def test_run_simulation_se_stopping():
    report = run_simulation(small_config(se_target=1.0, max_test_reps=50), SPECS)
    assert report.reps == 2  # the SE target is met as soon as it exists


def test_run_simulation_score_modes_differ():
    cont = run_simulation(small_config(), SPECS, score_mode="continuous")
    lab = run_simulation(small_config(), SPECS, score_mode="label")
    assert cont != lab
    with pytest.raises(ValueError, match="score_mode"):
        run_simulation(small_config(), SPECS, score_mode="fuzzy")


def test_rw_simulation_does_not_import_numpy_ma():
    # np.unique imports numpy.ma (numpy 2.4), 10-35 ms of a fresh process
    code = """
import sys
from ccdig.evaluation import ClassifierSpec, SimulationConfig, run_simulation
config = SimulationConfig(setting="shifted", d=2, n=30, m=10, delta=0.1, test_per_class=20, max_test_reps=2, se_target=0.0)
for mode in ("label", "continuous"):
    run_simulation(config, [ClassifierSpec("rwcccd", 0.5), ClassifierSpec("rwcccd", 1.0)], score_mode=mode)
print("numpy.ma" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(evaluation.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_run_simulation_se_shrinks_with_reps():
    short = run_simulation(small_config(max_test_reps=4), SPECS[:1])
    long = run_simulation(small_config(max_test_reps=40), SPECS[:1])
    assert long.results[0].se_auc < short.results[0].se_auc


def test_run_simulation_balanced_overlap_setting():
    cfg = SimulationConfig(
        setting="balanced_overlap", d=2, n=12, m=12, alpha=0.3,
        test_per_class=10, max_test_reps=3, se_target=0.0, base_seed=9,
    )
    report = run_simulation(cfg, SPECS)
    assert report.reps == 3
    assert report_rows(report)[0]["delta_or_alpha"] == "0.3"


def test_rwcccd_specs_share_one_fit_per_replication(monkeypatch):
    fits = []
    real_train = evaluation.train

    def counting(data, variant, **hyper):
        fits.append(variant)
        return real_train(data, variant, **hyper)

    monkeypatch.setattr(evaluation, "train", counting)
    cfg = small_config(d=2, n=30, m=20, test_per_class=30, max_test_reps=4)
    specs = (ClassifierSpec("rwcccd", 0.3), ClassifierSpec("rwcccd", 1.0))
    both = run_simulation(cfg, specs, score_mode="continuous")
    assert fits == ["random_walk"] * cfg.max_test_reps
    assert both.results[0].aucs != both.results[1].aucs  # each spec scores with its own e
    for spec, result in zip(specs, both.results):
        assert run_simulation(cfg, [spec], score_mode="continuous").results == (result,)


def library_replication(config, specs, rep, score_mode):
    """A replication's AUCs and prototype counts through the public
    query functions, one classifier at a time."""
    train_data, test_points, test_labels = sample_replication(config, rep)
    aucs, protos = [], []
    for spec in specs:
        if spec.kind == "knn":
            knn = knn_predict_batch if score_mode == "label" else knn_scores
            aucs.append(auc(knn(train_data, test_points, int(spec.param)), test_labels))
            protos.append(None)
            continue
        if spec.kind == "pcccd":
            model = train(train_data, VARIANT_PURE, tau=spec.param)
        else:
            model = train(train_data, VARIANT_RW, e=spec.param)
        if score_mode == "label":
            scores = predict_batch(model, test_points)[0]
        else:
            scores = discriminant_batch(model, test_points, positive_class=1)
        aucs.append(auc(scores, test_labels))
        protos.append(sum(cover.n_balls for cover in model.covers))
    return aucs, protos


@pytest.mark.parametrize("score_mode", ["label", "continuous"])
@pytest.mark.parametrize("kinds", [("pcccd", "knn"), ("rwcccd",), ("pcccd", "rwcccd", "knn")])
def test_a_replication_scores_as_the_library_does(monkeypatch, score_mode, kinds):
    params = {"pcccd": 0.5, "rwcccd": 0.5, "knn": 3}
    specs = [ClassifierSpec(kind, params[kind]) for kind in kinds]
    cfg = small_config(setting="shifted", d=2, n=40, m=15, delta=0.2, test_per_class=30)
    expected = [library_replication(cfg, specs, rep, score_mode) for rep in range(3)]
    for rep in range(3):
        assert evaluation._run_replication(cfg, specs, rep, score_mode) == expected[rep]
    # blocks of at most 7 rows: the 60 test points span at least 9 of them
    monkeypatch.setattr(classifier, "QUERY_BLOCK_BYTES", 8 * 2 * 7)
    blocks = []
    real = evaluation.row_blocks

    def counting(a, b, budget):
        for rows, block in real(a, b, budget):
            blocks.append(len(block))
            yield rows, block

    monkeypatch.setattr(evaluation, "row_blocks", counting)
    for rep in range(3):
        blocks.clear()
        assert evaluation._run_replication(cfg, specs, rep, score_mode) == expected[rep]
        assert len(blocks) >= 3 and sum(blocks) == 2 * cfg.test_per_class


def _slow_after(monkeypatch, fast: int, fail_at=None):
    """Count the replications started, under a lock; replications from
    `fast` on sleep first, so they hold every worker while the consumer
    reaches its stop, and `fail_at` raises."""
    lock = threading.Lock()
    started = []
    real = evaluation.sample_replication

    def counting(config, rep):
        with lock:
            started.append(rep)
        if rep == fail_at:
            raise RuntimeError("replication failed")
        if rep >= fast:
            time.sleep(0.2)
        return real(config, rep)

    monkeypatch.setattr(evaluation, "sample_replication", counting)
    return started


def test_se_stop_cancels_the_replications_not_started(monkeypatch):
    started = _slow_after(monkeypatch, fast=2)
    threads = 2
    report = run_simulation(small_config(se_target=1.0, max_test_reps=50), SPECS, threads=threads)
    assert report.reps == 2
    # the slow replications hold both workers until the stop cancels the rest
    assert len(started) <= report.reps + threads


def test_a_failed_replication_cancels_the_replications_not_started(monkeypatch):
    started = _slow_after(monkeypatch, fast=2, fail_at=1)
    threads = 2
    with pytest.raises(RuntimeError, match="replication failed"):
        run_simulation(small_config(max_test_reps=50), SPECS, threads=threads)
    # replications are submitted one batch of `threads` at a time; replication
    # 1 raises in the first batch, so no later batch starts
    assert len(started) <= 2 * threads


def test_run_simulation_needs_classifiers():
    with pytest.raises(ValueError):
        run_simulation(small_config(), [])


def test_classifier_spec_validation():
    with pytest.raises(ValueError):
        ClassifierSpec("pcccd", 1.5)
    with pytest.raises(ValueError):
        ClassifierSpec("rwcccd", -0.1)
    with pytest.raises(ValueError):
        ClassifierSpec("knn", 2.5)
    with pytest.raises(ValueError):
        ClassifierSpec("svm", 1.0)


@pytest.mark.parametrize("k", [math.inf, math.nan, 0, 2.5, 10**400])
def test_classifier_spec_rejects_non_finite_k(k):
    with pytest.raises(ValueError, match="k must be a positive integer"):
        ClassifierSpec("knn", k)


def test_report_rows_and_table():
    report = run_simulation(small_config(), SPECS)
    rows = report_rows(report)
    assert [r["classifier"] for r in rows] == ["pcccd", "rwcccd", "knn"]
    assert rows[0]["setting"] == "embedded"
    assert rows[0]["d"] == 1 and rows[0]["n"] == 12 and rows[0]["m"] == 12
    assert rows[0]["delta_or_alpha"] == ""
    assert rows[2]["prototypes"] == ""
    table = format_report_table(rows)
    assert "classifier" in table and "pcccd" in table
    assert len(table.splitlines()) == 4


def test_pilot_single_value_grid():
    cfg = small_config(max_test_reps=2)
    assert pilot_study(cfg, "pcccd", [0.4], reps=3).selected == 0.4


def test_pilot_mode_tie_takes_lowest():
    # fully separated classes: every tau reaches AUC 1, so all values tie
    cfg = SimulationConfig(setting="disjoint", d=1, n=8, m=8, delta=0.5, test_per_class=10, base_seed=1)
    study = pilot_study(cfg, "pcccd", [0.9, 0.2, 0.5], reps=4)
    assert study.counts == (4, 4, 4)
    assert study.selected == 0.2


def test_pilot_counts_sum_at_least_reps():
    cfg = small_config()
    study = pilot_study(cfg, "knn", [1, 3, 5], reps=5)
    assert sum(study.counts) >= study.reps
    assert study.selected in (1.0, 3.0, 5.0)


def test_pilot_validation(monkeypatch):
    cfg = small_config()
    with pytest.raises(ValueError):
        pilot_study(cfg, "pcccd", [], reps=5)
    with pytest.raises(ValueError):
        pilot_study(cfg, "pcccd", [0.5, 0.5], reps=5)
    with pytest.raises(ValueError):
        pilot_study(cfg, "nope", [0.5], reps=5)
    with pytest.raises(ValueError):
        pilot_study(cfg, "pcccd", [0.5], reps=0)

    # a bad value late in the grid is caught before any replication is drawn
    def no_sampling(config, rep):
        raise AssertionError("a replication was drawn")

    monkeypatch.setattr(evaluation, "sample_replication", no_sampling)
    for family in ("pcccd", "rwcccd"):
        with pytest.raises(ValueError, match="must be in"):
            pilot_study(cfg, family, [0.5, 7.0], reps=5)
    with pytest.raises(ValueError, match="positive integer"):
        pilot_study(cfg, "knn", [1, 10**400], reps=5)


@pytest.mark.parametrize("score_mode", ["label", "continuous"])
@pytest.mark.parametrize(
    "family, grid", [("pcccd", [0.2, 0.6, 1.0]), ("rwcccd", [0.0, 0.5, 1.0]), ("knn", [1, 3, 5])]
)
def test_pilot_counts_the_winners_of_run_simulation(family, grid, score_mode):
    cfg = small_config(d=2, n=20, m=10, test_per_class=20)  # se_target 0: runs to the cap
    specs = [ClassifierSpec(family, v) for v in grid]
    report = run_simulation(cfg, specs, score_mode=score_mode)
    counts = [0] * len(grid)
    for aucs in zip(*(result.aucs for result in report.results)):
        for i, value in enumerate(aucs):
            counts[i] += value == max(aucs)
    study = pilot_study(cfg, family, grid, reps=cfg.max_test_reps, score_mode=score_mode)
    assert study.counts == tuple(counts)


def test_pilot_low_dimension_prefers_small_tau():
    # embedded boxes in d=2: the walk of best tau values concentrates low
    cfg = SimulationConfig(setting="embedded", d=2, n=100, m=100, test_per_class=100, base_seed=2)
    grid = [EPS] + [round(0.1 * i, 1) for i in range(1, 11)]
    assert pilot_study(cfg, "pcccd", grid, reps=50).selected <= 0.3


def test_pure_covers_keep_more_prototypes_than_rw_when_overlapping():
    cfg = SimulationConfig(setting="shifted", d=3, n=100, q=1.0, delta=0.1, base_seed=11)
    p_counts, rw_counts = [], []
    for rep in range(5):
        tr, _, _ = sample_replication(cfg, rep)
        p_counts.append(sum(c.n_balls for c in train(tr, "pure", tau=1.0).covers))
        rw_counts.append(sum(c.n_balls for c in train(tr, "random_walk", e=1.0).covers))
    assert np.mean(p_counts) >= np.mean(rw_counts)
