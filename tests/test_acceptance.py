"""Acceptance suite: every gate criterion at its stated tolerance.

Each test prints one [criterion NN] PASS/FAIL line; run with `pytest
tests/test_acceptance.py -v -s` to see them. The Monte Carlo criteria
(05, 06, 10) pin exact replication counts, so early SE stopping is
disabled for them.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from ccdig.classifier import load_model, predict_batch, save_model, train
from ccdig.core import LabeledDataset, cross_distance_matrix, sample_uniform_box
from ccdig.evaluation import (
    ClassifierSpec,
    SimulationConfig,
    auc,
    local_imbalance,
    overlap_alpha,
    overlap_delta,
    pilot_select,
    run_simulation,
)
from ccdig.pccd import build_pccd_digraph, greedy_dominating_set, pccd_cover, pccd_radii
from ccdig.rwccd import rw_cover
from helpers import (
    brute_force_auc,
    brute_force_walk,
    distance_pair,
    exact_min_dominating_size,
    random_instance,
    rw_profile,
)

EPS = float(np.finfo(np.float64).eps)
TAU_GRID = [EPS] + [round(0.1 * i, 1) for i in range(1, 11)]
E_GRID = [round(0.1 * i, 1) for i in range(0, 11)]
K_GRID = list(range(1, 31))


@contextmanager
def criterion(num, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"[criterion {num:02d}] {name}: PASS ({elapsed:.1f}s)")


def two_class_dataset(X, Y):
    return LabeledDataset(
        points=np.vstack([X, Y]),
        labels=np.concatenate([np.zeros(len(X), np.int64), np.ones(len(Y), np.int64)]),
    )


def test_criterion_01_purity_and_properness():
    with criterion(1, "pure covers are pure and proper on 200 random instances", budget=30.0):
        rng = np.random.default_rng(101)
        for i in range(200):
            X, Y = random_instance(10_000 + i, dims=(1, 2, 5), n_range=(5, 60), m_range=(5, 60))
            tau = float(rng.uniform(0.05, 1.0))
            for targets, nontargets in ((X, Y), (Y, X)):
                cover = pccd_cover(targets, nontargets, tau)
                assert cover.is_pure and cover.is_proper
                centers = cover.centers
                radii = cover.radii
                enemy = cross_distance_matrix(centers, nontargets)
                assert not np.any(enemy < radii[:, None]), "purity violation"
                friendly = cross_distance_matrix(np.asarray(targets, float).reshape(len(targets), -1), centers)
                center_ids = {b.center_index for b in cover.balls}
                for j in range(len(targets)):
                    assert j in center_ids or np.any(friendly[j] < radii), "properness violation"


def test_criterion_02_greedy_vs_exact_dominating_set():
    with criterion(2, "greedy dominating set within (1+ln n) of exhaustive optimum", budget=60.0):
        rng = np.random.default_rng(202)
        ratios = []
        for i in range(100):
            X, Y = random_instance(20_000 + i, dims=(1, 2), n_range=(1, 12), m_range=(1, 8))
            tau = float(rng.uniform(0.05, 1.0))
            dist_t, dist_n = distance_pair(X, Y)
            closed = build_pccd_digraph(dist_t, pccd_radii(dist_t, dist_n, tau))
            greedy = len(greedy_dominating_set(closed))
            exact = exact_min_dominating_size(closed)
            assert greedy <= (1.0 + math.log(len(closed))) * exact
            ratios.append(greedy / exact)
        print(f"    greedy/exact mean ratio: {np.mean(ratios):.4f} over 100 instances")


def test_criterion_03_tau_invariance_of_arcs():
    with criterion(3, "arc sets identical for tau in {1e-4, 0.3, 1.0}"):
        for i in range(50):
            X, Y = random_instance(30_000 + i, dims=(1, 2, 5), n_range=(3, 40), m_range=(3, 40))
            dist_t, dist_n = distance_pair(X, Y)
            graphs = [build_pccd_digraph(dist_t, pccd_radii(dist_t, dist_n, t)) for t in (1e-4, 0.3, 1.0)]
            assert np.array_equal(graphs[0], graphs[1]) and np.array_equal(graphs[1], graphs[2])


def test_criterion_04_random_walk_oracle():
    with criterion(4, "walk profiles match brute force exactly; covers remove every target"):
        for i in range(50):
            X, Y = random_instance(40_000 + i, dims=(1, 2, 3), n_range=(2, 12), m_range=(1, 8))
            for j in range(len(X)):
                prof = rw_profile(X[j], X, Y)
                cand, walks = brute_force_walk(X[j], X, Y)
                assert prof.candidate_radii.tolist() == cand
                assert prof.walk_values.tolist() == walks
            cover = rw_cover(X, Y)
            dist = cross_distance_matrix(X, cover.centers)
            assert np.all((dist <= cover.radii).any(axis=1)), "a target was never removed"


def test_criterion_05_headline_gap_embedded_d10():
    with criterion(5, "embedded d=10: both cover classifiers beat k-NN by >= 0.10 AUC", budget=600.0):
        config = SimulationConfig(
            setting="embedded", d=10, n=50, m=50, test_per_class=100,
            max_test_reps=100, se_target=0.0, base_seed=20260505,
        )
        tau = pilot_select(config, "pcccd", TAU_GRID, reps=30)
        e = pilot_select(config, "rwcccd", E_GRID, reps=30)
        k = pilot_select(config, "knn", K_GRID, reps=30)
        report = run_simulation(
            config,
            [ClassifierSpec("pcccd", tau), ClassifierSpec("rwcccd", e), ClassifierSpec("knn", k)],
        )
        p_auc, rw_auc, knn_auc = (r.mean_auc for r in report.results)
        print(
            f"    pilot tau={tau:.3g} e={e:.3g} k={k:.0f}; "
            f"AUC P={p_auc:.4f} RW={rw_auc:.4f} kNN={knn_auc:.4f} over {report.reps} reps"
        )
        assert report.reps == 100
        assert p_auc - knn_auc >= 0.10
        assert rw_auc - knn_auc >= 0.10


def test_criterion_06_reversed_imbalance_flip():
    with criterion(6, "embedded d=2 with majority target class: k-NN >= P-CCCD - 0.01", budget=300.0):
        config = SimulationConfig(
            setting="embedded", d=2, n=200, m=50, test_per_class=100,
            max_test_reps=100, se_target=0.0, base_seed=20260606,
        )
        tau = pilot_select(config, "pcccd", TAU_GRID, reps=30)
        k = pilot_select(config, "knn", K_GRID, reps=30)
        report = run_simulation(config, [ClassifierSpec("pcccd", tau), ClassifierSpec("knn", k)])
        p_auc, knn_auc = (r.mean_auc for r in report.results)
        print(f"    pilot tau={tau:.3g} k={k:.0f}; AUC P={p_auc:.4f} kNN={knn_auc:.4f} over {report.reps} reps")
        assert report.reps == 100
        assert knn_auc >= p_auc - 0.01


def test_criterion_07_local_imbalance_embedded():
    with criterion(7, "embedded d=2 local imbalance near (1/0.4)^2 = 6.25"):
        region = ((0.3, 0.3), (0.7, 0.7))
        values = []
        for seed in range(20):
            X = sample_uniform_box(2, 0.0, 1.0, 500, seed=700 + 2 * seed)
            Y = sample_uniform_box(2, 0.3, 0.7, 500, seed=701 + 2 * seed)
            q = local_imbalance(X, Y, region)
            assert q is not None
            values.append(q)
        mean_q = float(np.mean(values))
        print(f"    mean q(E) over 20 seeds: {mean_q:.3f}")
        assert abs(mean_q - 6.25) <= 0.3 * 6.25


def test_criterion_08_overlap_algebra_round_trip():
    with criterion(8, "overlap_delta(overlap_alpha(delta,d),d) == delta to 1e-12"):
        for d in range(1, 21):
            for step in range(21):
                delta = 0.05 * step
                assert abs(overlap_delta(overlap_alpha(delta, d), d) - delta) <= 1e-12


def test_criterion_09_auc_against_brute_force():
    with criterion(9, "rank-based AUC equals all-pairs brute force to 1e-12 on 1000 vectors"):
        rng = np.random.default_rng(909)
        for i in range(1000):
            n1 = int(rng.integers(1, 30))
            n0 = int(rng.integers(1, 30))
            labels = np.concatenate([np.ones(n1, np.int64), np.zeros(n0, np.int64)])
            rng.shuffle(labels)
            if rng.random() < 0.5:
                scores = rng.integers(-3, 4, len(labels)).astype(float)  # many ties
            else:
                scores = rng.normal(size=len(labels))
            assert abs(auc(scores, labels) - brute_force_auc(scores, labels)) <= 1e-12


def test_criterion_10_prototype_reduction_trend():
    with criterion(10, "shifted d=3 n=400: RW prototypes shrink as the shift grows"):
        means = {}
        for delta in (0.1, 0.7):
            config = SimulationConfig(
                setting="shifted", d=3, n=400, q=1.0, delta=delta, test_per_class=100,
                max_test_reps=30, se_target=0.0, base_seed=20261010,
            )
            report = run_simulation(config, [ClassifierSpec("rwcccd", 1.0)])
            assert report.reps == 30
            means[delta] = report.results[0].mean_prototypes
        print(f"    mean RW prototypes: delta=0.1 -> {means[0.1]:.1f}, delta=0.7 -> {means[0.7]:.1f}")
        assert means[0.1] > means[0.7]


def test_criterion_11_persistence_bit_exact(tmp_path):
    with criterion(11, "save/load/predict reproduces in-memory predictions bit-exactly"):
        X, Y = random_instance(1111, dims=(3,), n_range=(25, 40), m_range=(25, 40))
        ds = two_class_dataset(X, Y)
        rng = np.random.default_rng(42)
        queries = rng.normal(scale=2.0, size=(1000, 3))
        for variant, kw in (("pure", {"tau": 0.35}), ("random_walk", {"e": 0.8})):
            model = train(ds, variant, **kw)
            path = tmp_path / f"{variant}.json"
            save_model(model, path)
            reloaded = load_model(path)
            labels_a, minima_a = predict_batch(model, queries)
            labels_b, minima_b = predict_batch(reloaded, queries)
            assert np.array_equal(labels_a, labels_b)
            assert np.array_equal(minima_a, minima_b)


def test_criterion_12_scale_invariance_of_predictions():
    with criterion(12, "predictions unchanged when all coordinates scale by 1e-3 or 1e3"):
        for i in range(50):
            X, Y = random_instance(120_000 + i, dims=(1, 2, 5), n_range=(5, 30), m_range=(5, 30))
            ds = two_class_dataset(X, Y)
            rng = np.random.default_rng(i)
            queries = rng.normal(size=(20, X.shape[1]))
            base = {
                "pure": predict_batch(train(ds, "pure", tau=0.5), queries)[0],
                "random_walk": predict_batch(train(ds, "random_walk", e=1.0), queries)[0],
            }
            for c in (1e-3, 1e3):
                scaled_ds = LabeledDataset(points=c * ds.points, labels=ds.labels)
                for variant, kw in (("pure", {"tau": 0.5}), ("random_walk", {"e": 1.0})):
                    labels = predict_batch(train(scaled_ds, variant, **kw), c * queries)[0]
                    assert np.array_equal(labels, base[variant]), f"{variant} changed at scale {c}"
