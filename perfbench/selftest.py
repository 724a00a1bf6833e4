"""Self-test of the benchmark's checks: each accepts real output and
rejects a corrupted copy of it.

usage: python3 perfbench/selftest.py      (from the root of a source checkout)

Builds small versions of both workloads, produces their outputs with
`ccdig.cli.main` in this process, and requires every check to pass on
them. Then it corrupts one output at a time and requires the check that
guards it to raise CheckError. Exits 0 when every case behaves, else 1.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import checks
import workloads
from run import SRC, WORK, Files

SMALL = {
    "pure-overlap": dict(n=150, m=150, queries=600, sim_reps=3),
    "rw-imbalanced": dict(n=150, m=15, queries=600, sim_reps=3),
}


def produce(w, work: Path, seed: int = 0):
    """Inputs and outputs of one small round, made in this process."""
    from ccdig.cli import main

    work.mkdir(parents=True, exist_ok=True)
    files = Files.under(work)
    other = work / "report_other.csv"
    inputs = workloads.make_inputs(w, seed, files.train_csv, files.query_csv)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            w.train_args(files.train_csv, files.model),
            w.predict_args(files.model, files.query_csv, files.pred),
            w.simulate_args(seed, 1, files.report),
            w.simulate_args(seed, 2, other),
        ):
            if main(argv) != 0:
                raise SystemExit(f"ccdig {argv[0]} failed on the small {w.name} workload")
    return inputs, files, other


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def edit_csv(src: Path, dst: Path, row: int, column: str, value: str) -> Path:
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[row][rows[0].index(column)] = value
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return dst


def pure_cases(w, inputs, files, other):
    doc = checks.load_json(files.model)
    tau = w.param

    def nudge_past_enemy(d):
        ball = d["covers"][0]["balls"][0]
        enemies = inputs.points[inputs.labels != d["label_map"][0]]
        ball["radius"] = float(checks.distances(enemies, ball["center"]).min() * 1.001)

    def drop_last_ball(d):
        d["covers"][0]["balls"].pop()

    def off_blend(d):
        d["covers"][1]["balls"][0]["radius"] *= 1 - 1e-9

    for name, edit in (
        ("pure cover: a radius nudged past the nearest enemy", nudge_past_enemy),
        ("pure cover: the last ball dropped", drop_last_ball),
        ("pure cover: a radius off the tau blend by 1e-9", off_blend),
    ):
        bad = copy.deepcopy(doc)
        edit(bad)
        yield name, lambda bad=bad: checks.check_pure_cover(bad, inputs.points, inputs.labels, tau)
    yield from shared_cases(w, inputs, files, other, doc)


def rw_cases(w, inputs, files, other):
    doc = checks.load_json(files.model)

    def change_score(d):
        d["covers"][0]["balls"][0]["score"] += 0.5

    def drop_last_ball(d):
        d["covers"][0]["balls"].pop()

    for name, edit in (
        ("random-walk cover: a ball score changed", change_score),
        ("random-walk cover: the last ball dropped", drop_last_ball),
    ):
        bad = copy.deepcopy(doc)
        edit(bad)
        yield name, lambda bad=bad: checks.check_rw_cover(bad, inputs.points, inputs.labels, workloads.RW_PREFIX)
    yield from shared_cases(w, inputs, files, other, doc)


def shared_cases(w, inputs, files, other, doc):
    from ccdig import LabeledDataset, auc, train

    work = files.model.parent
    names = doc["label_map"]
    with open(files.pred, newline="", encoding="utf-8") as fh:
        first = next(csv.DictReader(fh))
    flipped = names[1 - names.index(first["prediction"])]
    bad_label = edit_csv(files.pred, work / "bad_pred.csv", 1, "prediction", flipped)
    column = f"dissim_{names[0]}"
    bad_dissim = edit_csv(files.pred, work / "bad_dissim.csv", 1, column, f"{float(first[column]) + 0.01:.6g}")
    yield f"{w.name} predict: a label flipped", lambda: checks.check_predictions(doc, inputs.queries, bad_label)
    yield f"{w.name} predict: a dissimilarity changed", lambda: checks.check_predictions(doc, inputs.queries, bad_dissim)

    reps_low = edit_csv(files.report, work / "bad_reps.csv", 1, "reps", str(w.sim_reps - 1))
    auc_high = edit_csv(files.report, work / "bad_auc.csv", 1, "mean_auc", "1.5")
    bad_se = edit_csv(other, work / "bad_other.csv", 1, "se", "0.123")
    report = (w.sim_classifiers, w.sim_rows, w.sim_reps)
    yield f"{w.name} simulate: replications below the cap", lambda: checks.check_report(reps_low, *report)
    yield f"{w.name} simulate: an AUC outside [0,1]", lambda: checks.check_report(auc_high, *report)
    yield f"{w.name} simulate: reports differ between thread counts", \
        lambda: checks.check_same_bytes(files.report, bad_se, "threads")

    rows = slice(0, workloads.LIBRARY_FIT_ROWS)
    data = LabeledDataset(points=inputs.points[rows], labels=(inputs.labels[rows] == "y").astype(int),
                          label_names=("x", "y"))
    model = train(data, w.variant, **{w.param_flag.lstrip("-"): w.param})

    def round_radius(path):
        saved = checks.load_json(path)
        ball = max(saved["covers"][0]["balls"], key=lambda b: b["radius"])
        ball["radius"] = float(f"{ball['radius']:.6g}")
        write_json(path, saved)

    yield f"{w.name} save/load: a radius rounded in the saved file", \
        lambda: checks.check_save_load(model, files.library_model, inputs.queries, round_radius)
    scores = inputs.queries[:, 0].copy()
    truth = inputs.query_labels
    yield f"{w.name} auc: a value off the pairwise count", \
        lambda: checks.check_auc(auc(scores, truth) + 1e-9, scores, truth)


def main() -> int:
    sys.path.insert(0, str(SRC))
    failures = 0
    for name, small in SMALL.items():
        w = dataclasses.replace(workloads.WORKLOADS[name], **small)
        inputs, files, other = produce(w, WORK / f"selftest-{name}")
        try:
            workloads.check_outputs(w, inputs, files, other)
            print(f"ok    {name}: every check accepts the real outputs")
        except checks.CheckError as exc:
            failures += 1
            print(f"FAIL  {name}: a check rejects the real outputs: {exc}")
        cases = pure_cases if w.variant == "pure" else rw_cases
        for case, check in cases(w, inputs, files, other):
            try:
                check()
            except checks.CheckError as exc:
                print(f"ok    {case}: rejected ({exc})"[:160])
            else:
                failures += 1
                print(f"FAIL  {case}: accepted")
    print("self-test passed" if not failures else f"self-test FAILED: {failures} case(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
