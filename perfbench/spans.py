"""Timing spans, counters and allocation peaks around ccdig's public functions.

A traced child installs these wrappers before it calls `ccdig.cli.main`.
Each target function is replaced in every loaded `ccdig` module namespace
that holds it, so calls made through `from .core import ...` are caught
too. Nothing here is imported by an untraced child, which runs the
program unmodified.

A function that no longer exists is listed in `missing` instead of being
wrapped; the metrics built from it are then reported as missing (null).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

import numpy as np

# layer module -> public functions whose calls are timed and counted
TIMED = {
    "core": ("cross_distance_matrix", "parse_dataset", "parse_feature_csv"),
    "pccd": ("pccd_radii", "build_pccd_digraph", "greedy_dominating_set", "pccd_cover"),
    "rwccd": ("rw_cover",),
    "classifier": ("train", "predict_batch", "discriminant_batch", "save_model", "load_model"),
    "evaluation": ("run_simulation", "auc", "knn_predict_batch", "knn_scores"),
}

# functions whose traced allocation peak is measured; tracemalloc slows
# everything it watches, so this runs in its own pass, not beside TIMED
PEAKED = {
    "pccd": ("pccd_cover",),
    "rwccd": ("rw_cover",),
    "classifier": ("predict_batch",),
}


class Recorder:
    """Per-process totals: seconds and calls per span, counters, peaks."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.peak_mb: dict[str, float] = {}
        self.missing: list[str] = []
        self.paused = False  # set while the benchmark makes calls of its own

    def add(self, table: dict, key: str, value) -> None:
        table[key] = table.get(key, 0) + value

    def as_dict(self) -> dict:
        return {
            "seconds": self.seconds,
            "calls": self.calls,
            "counts": self.counts,
            "peak_mb": self.peak_mb,
            "missing": self.missing,
        }


def _distances(points, center) -> np.ndarray:
    diff = np.asarray(points, dtype=np.float64) - center
    return np.sqrt((diff * diff).sum(axis=-1))


def sorted_cells(targets, nontargets, cover) -> int:
    """Sum over cover iterations of n_alive * (n_alive + m_alive).

    Replayed from the returned cover: each ball, in selection order,
    removes the points its closed ball holds.
    """
    X = np.asarray(targets, dtype=np.float64)
    Y = np.asarray(nontargets, dtype=np.float64).reshape(-1, X.shape[1])
    alive_x = np.ones(len(X), dtype=bool)
    alive_y = np.ones(len(Y), dtype=bool)
    cells = 0
    for ball in cover.balls:
        n_alive = int(alive_x.sum())
        cells += n_alive * (n_alive + int(alive_y.sum()))
        alive_x &= ~(_distances(X, ball.center) <= ball.radius)
        alive_y &= ~(_distances(Y, ball.center) <= ball.radius)
    return cells


def _count(rec: Recorder, name: str, args, kwargs, result) -> None:
    if name == "core.cross_distance_matrix":
        rec.add(rec.counts, "core.distance_entries", int(result.size))
    elif name == "pccd.pccd_cover":
        rec.add(rec.counts, "pccd.balls", result.n_balls)
    elif name == "rwccd.rw_cover":
        targets = args[0] if args else kwargs["targets"]
        nontargets = args[1] if len(args) > 1 else kwargs["nontargets"]
        rec.add(rec.counts, "rwccd.iterations", result.n_balls)
        rec.add(rec.counts, "rwccd.sorted_cells", sorted_cells(targets, nontargets, result))
    elif name == "classifier.predict_batch":
        model, points = args[0], args[1]
        balls = sum(cover.n_balls for cover in model.covers)
        rec.add(rec.counts, "classifier.query_ball_pairs", len(points) * balls)
    elif name == "evaluation.run_simulation":
        rec.add(rec.counts, "evaluation.reps", result.reps)


def timed(fn, name: str, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        span = name
        if name == "classifier.train":  # split fits by cover family
            span += "." + str(args[1] if len(args) > 1 else kwargs["variant"])
        rec.add(rec.seconds, span, elapsed)
        rec.add(rec.calls, span, 1)
        _count(rec, name, args, kwargs, result)
        return result

    return wrapper


def peaked(fn, name: str, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            rec.peak_mb[name] = max(rec.peak_mb.get(name, 0.0), peak / 2**20)

    return wrapper


def install(targets: dict, make, rec: Recorder) -> None:
    """Replace each target function by make(fn, "module.function", rec)."""
    for module_name, names in targets.items():
        home = importlib.import_module(f"ccdig.{module_name}")
        for fname in names:
            name = f"{module_name}.{fname}"
            fn = getattr(home, fname, None)
            if fn is None:
                rec.missing.append(name)
                continue
            wrapped = make(fn, name, rec)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ccdig" or mod_name.startswith("ccdig.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
