"""Benchmark of `ccdig train | predict | simulate` on one named workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
./src and nothing is installed. Each ccdig command runs through
`ccdig.cli.main` in a process of its own (child.py), one at a time, with
numeric libraries held to one thread and `simulate --threads` fixed.

--trace 0  repeats whole rounds (set-up, train, predict, simulate) until
           S seconds of rounds are measured and reports the median of
           every end-to-end metric.
--trace 1  runs one round untraced, then traced (spans.py), and reports
           the per-layer metrics, the tracing overhead among them.

Either way every output is checked (checks.py, workloads.py), and the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SIM_THREADS = 1  # simulate --threads of the timed run, the steadier of 1 and 2
OTHER_THREADS = 3 - SIM_THREADS  # the report at this count must be identical
SETUPS_PER_ROUND = 2
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Files:
    train_csv: Path
    query_csv: Path
    model: Path
    pred: Path
    report: Path
    library_model: Path

    @classmethod
    def under(cls, work: Path, tag: str = "") -> "Files":
        return cls(work / "train.csv", work / "queries.csv", work / f"model{tag}.json",
                   work / f"pred{tag}.csv", work / f"report{tag}.csv", work / "library_model.json")


class Runner:
    """Runs ccdig commands in child processes and counts the outcomes."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env.pop("CCDIG_SEED", None)

    def run(self, tag: str, mode: str, argv: list[str]) -> dict | None:
        self.attempted += 1
        result = self.work / f"{tag}.json"
        log = self.work / f"{tag}.log"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), str(result), mode, "--", *argv]
        with open(log, "w", encoding="utf-8") as fh:
            try:
                proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, env=self.env,
                                      cwd=ROOT, timeout=CHILD_TIMEOUT_S)
                ok = proc.returncode == 0 and result.exists()
            except subprocess.TimeoutExpired:
                ok = False
        data = json.loads(result.read_text()) if ok else None
        if data is None or data["code"] != 0:
            self.failed += 1
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
            print(f"{tag} ({' '.join(argv[:1])}) failed: {' | '.join(tail)}", file=sys.stderr)
            return None
        return data


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def checked(what: str, fn, *args) -> bool:
    """Run one check; a failure is reported on stderr and makes the run incorrect."""
    try:
        fn(*args)
        return True
    except (checks.CheckError, OSError, KeyError, ValueError) as exc:
        print(f"check failed ({what}): {type(exc).__name__}: {exc}", file=sys.stderr)
        return False


def median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def timed_run(w, seed: int, seconds: float, runner: Runner) -> tuple[bool, dict]:
    files = Files.under(runner.work)
    other_report = runner.work / "report_other.csv"
    setups, rounds = [], []
    correct, first = True, None
    measured = 0.0
    while not rounds or measured < seconds:
        start = time.perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            t0 = time.perf_counter()
            inputs = workloads.make_inputs(w, seed, files.train_csv, files.query_csv)
            setups.append(time.perf_counter() - t0)
        for path in (files.model, files.pred, files.report):
            path.unlink(missing_ok=True)
        rounds.append({
            "train": runner.run("train", "plain", w.train_args(files.train_csv, files.model)),
            "predict": runner.run("predict", "plain", w.predict_args(files.model, files.query_csv, files.pred)),
            "simulate": runner.run("simulate", "plain", w.simulate_args(seed, SIM_THREADS, files.report)),
        })
        measured += time.perf_counter() - start
        walls = {c: round(r["wall_s"], 3) for c, r in rounds[-1].items() if r}
        print(f"round {len(rounds)}: setup {setups[-1]:.3f}s, {walls}", file=sys.stderr)
        if None in rounds[-1].values():
            continue
        outputs = (files.model, files.pred, files.report)
        if first is None:
            other = runner.run("simulate_other", "plain", w.simulate_args(seed, OTHER_THREADS, other_report))
            if other:
                print(f"simulate at {OTHER_THREADS} threads: {other['wall_s']:.3f}s", file=sys.stderr)
            correct &= checked("outputs", workloads.check_outputs, w, inputs, files, other_report)
            first = [digest(p) for p in outputs]
        elif [digest(p) for p in outputs] != first:
            print("check failed: a later round's outputs differ from the first round's", file=sys.stderr)
            correct = False

    def command_median(cmd: str, key: str = "wall_s"):
        return median(r[cmd][key] if r[cmd] else None for r in rounds)

    peaks = [max(r[c]["maxrss_mb"] for c in r if r[c]) if any(r.values()) else None for r in rounds]
    metrics = {
        "setup_s": (median(setups), "s"),
        "train_s": (command_median("train"), "s"),
        "predict_s": (command_median("predict"), "s"),
        "simulate_s": (command_median("simulate"), "s"),
        "peak_rss_mb": (median(peaks), "MB"),
    }
    return correct, metrics


def traced_run(w, seed: int, runner: Runner) -> tuple[bool, dict]:
    files = Files.under(runner.work)
    inputs = workloads.make_inputs(w, seed, files.train_csv, files.query_csv)
    report = {1: runner.work / "report_1.csv", 2: runner.work / "report_2.csv"}
    plain = {
        "train": runner.run("train", "plain", w.train_args(files.train_csv, files.model)),
        "predict": runner.run("predict", "plain", w.predict_args(files.model, files.query_csv, files.pred)),
        1: runner.run("simulate_1", "plain", w.simulate_args(seed, 1, report[1])),
        2: runner.run("simulate_2", "plain", w.simulate_args(seed, 2, report[2])),
    }
    if None in plain.values():  # counted in `failed`; nothing to measure against
        return True, {}
    correct = checked("outputs", workloads.check_outputs, w, inputs,
                      replace(files, report=report[SIM_THREADS]), report[OTHER_THREADS])

    tf = Files.under(runner.work, "_timed")
    pf = Files.under(runner.work, "_peak")
    traced = {
        "train": runner.run("train_timed", "timed", w.train_args(files.train_csv, tf.model)),
        "predict": runner.run("predict_timed", "timed", w.predict_args(files.model, files.query_csv, tf.pred)),
        "simulate": runner.run("simulate_timed", "timed", w.simulate_args(seed, 1, tf.report)),
        "train_peak": runner.run("train_peak", "peak", w.train_args(files.train_csv, pf.model)),
        "predict_peak": runner.run("predict_peak", "peak", w.predict_args(files.model, files.query_csv, pf.pred)),
    }
    if None in traced.values():
        return True, {}
    for a, b in ((tf.model, files.model), (pf.model, files.model), (tf.pred, files.pred),
                 (pf.pred, files.pred), (tf.report, report[1])):
        correct &= checked("traced outputs", checks.check_same_bytes, a, b, "traced and untraced output")
    return correct, layer_metrics(plain, traced, files.model)


def layer_metrics(plain: dict, traced: dict, model_path: Path) -> dict:
    train, predict, sim = traced["train"], traced["predict"], traced["simulate"]
    missing = set(train["missing"])

    def total(proc: dict, table: str, *names: str) -> float | None:
        """Sum over the named spans or counters; None if one of their
        functions no longer exists, 0 if the layer did no work."""
        if any(n == m or n.startswith(m + ".") for n in names for m in missing):
            return None
        value = sum(proc[table].get(n, 0) for n in names)
        return float(value) if table == "seconds" else value

    def peak(proc: dict, name: str) -> float | None:
        return None if name in missing else proc["peak_mb"].get(name, 0.0)

    def both(table: str, *names: str) -> float | None:
        a, b = total(train, table, *names), total(predict, table, *names)
        return None if a is None or b is None else a + b

    def minus(a, b):
        return None if a is None or b is None else a - b

    def ratio(a, b, scale=1.0):
        return None if a is None or b is None else (a * scale / b if b else 0.0)

    cover_s = total(train, "seconds", "rwccd.rw_cover")
    sorted_cells = total(train, "counts", "rwccd.sorted_cells")
    predict_s = total(predict, "seconds", "classifier.predict_batch")
    minima_s = predict.get("minima_s")
    sim_s = total(sim, "seconds", "evaluation.run_simulation")
    reps = total(sim, "counts", "evaluation.reps")
    untraced = plain["train"]["wall_s"] + plain["predict"]["wall_s"] + plain[1]["wall_s"]
    traced_wall = train["wall_s"] + predict["wall_s"] + sim["wall_s"]
    rows = [
        ("core.distance_s", both("seconds", "core.cross_distance_matrix"), "s"),
        ("core.distance_calls", both("calls", "core.cross_distance_matrix"), "count"),
        ("core.distance_entries", both("counts", "core.distance_entries"), "count"),
        ("core.parse_s", both("seconds", "core.parse_dataset", "core.parse_feature_csv"), "s"),
        ("pccd.radii_s", total(train, "seconds", "pccd.pccd_radii"), "s"),
        ("pccd.greedy_s", total(train, "seconds", "pccd.build_pccd_digraph", "pccd.greedy_dominating_set"), "s"),
        ("pccd.balls", total(train, "counts", "pccd.balls"), "count"),
        ("pccd.peak_alloc_mb", peak(traced["train_peak"], "pccd.pccd_cover"), "MB"),
        ("rwccd.cover_s", cover_s, "s"),
        ("rwccd.iterations", total(train, "counts", "rwccd.iterations"), "count"),
        ("rwccd.sorted_cells", sorted_cells, "count"),
        ("rwccd.ns_per_cell", ratio(cover_s, sorted_cells, 1e9), "ns"),
        ("rwccd.peak_alloc_mb", peak(traced["train_peak"], "rwccd.rw_cover"), "MB"),
        ("classifier.minima_s", minima_s, "s"),
        ("classifier.tiebreak_s", minus(predict_s, minima_s), "s"),
        ("classifier.query_ball_pairs", total(predict, "counts", "classifier.query_ball_pairs"), "count"),
        ("classifier.peak_alloc_mb", peak(traced["predict_peak"], "classifier.predict_batch"), "MB"),
        ("classifier.model_io_s", both("seconds", "classifier.save_model", "classifier.load_model"), "s"),
        ("classifier.model_bytes", model_path.stat().st_size, "bytes"),
        ("evaluation.rep_s", ratio(sim_s, reps), "s"),
        ("evaluation.reps", reps, "count"),
        ("evaluation.fit_s.pcccd", total(sim, "seconds", "classifier.train.pure"), "s"),
        ("evaluation.fit_s.rwcccd", total(sim, "seconds", "classifier.train.random_walk"), "s"),
        ("evaluation.knn_s", total(sim, "seconds", "evaluation.knn_predict_batch", "evaluation.knn_scores"), "s"),
        ("evaluation.auc_s", total(sim, "seconds", "evaluation.auc"), "s"),
        ("evaluation.thread_speedup", plain[1]["wall_s"] / plain[2]["wall_s"], "ratio"),
        ("evaluation.cpu_count", len(os.sched_getaffinity(0)), "count"),
        ("cli.train_overhead_s", minus(train["wall_s"], total(train, "seconds", "classifier.train.pure",
                                                              "classifier.train.random_walk")), "s"),
        ("cli.predict_overhead_s", minus(predict["wall_s"], predict_s), "s"),
        ("cli.train.minor_faults", plain["train"]["minor_faults"], "count"),
        ("cli.predict.minor_faults", plain["predict"]["minor_faults"], "count"),
        ("cli.simulate.minor_faults", plain[SIM_THREADS]["minor_faults"], "count"),
        ("trace.overhead_pct", 100.0 * (traced_wall - untraced) / untraced, "%"),
    ]
    return {name: (value, unit) for name, value, unit in rows}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ccdig" / "__init__.py").is_file():
        print(f"error: no ccdig source under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ccdig

    if Path(ccdig.__file__).resolve().parent != (SRC / "ccdig").resolve():
        print(f"error: ccdig was imported from {ccdig.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r} (choose from {', '.join(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    work = WORK / w.name
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    if args.trace:
        correct, metrics = traced_run(w, args.seed, runner)
    else:
        correct, metrics = timed_run(w, args.seed, args.seconds, runner)
    result = {
        "correct": bool(correct),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
