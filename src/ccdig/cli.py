"""Command-line front end: train, predict, simulate, pilot.

Exit codes: 0 success, 1 data/runtime error, 2 usage error. The library
checks every flag value; `simulate` and `pilot` read no input file, so
any ValueError raised while they build and run is a bad flag value
(exit 2). Output files are written to a temporary path and renamed on
success, so failures never leave partial output behind.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import os
import sys

import numpy as np

from . import evaluation
from .classifier import HYPER_KEY, load_model, predict_batch, save_model, train
from .core import check_hyper, parse_dataset, parse_feature_csv, write_text_atomic
from .evaluation import (
    CLASSIFIER_KINDS,
    ClassifierSpec,
    SimulationConfig,
    format_report_table,
    pilot_study,
    report_rows,
    run_simulation,
)

EPSILON_TAU = float(np.finfo(np.float64).eps)

_KIND_ALIASES = {
    "pcccd": "pcccd",
    "rwcccd": "rwcccd",
    "knn": "knn",
    "pccd": "pcccd",
    "rwccd": "rwcccd",
}


class UsageError(ValueError):
    """Bad flag values detected after parsing; exits with code 2."""


@contextlib.contextmanager
def _flag_values():
    """Report a ValueError raised inside as a bad flag value (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _float_list(raw: str) -> list[float]:
    try:
        values = [float(v) for v in raw.split(",") if v != ""]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"expected a comma-separated list of numbers, got {raw!r}")
    return values


def cmd_train(args) -> int:
    key = HYPER_KEY[args.variant]
    with _flag_values():
        value = check_hyper(key, getattr(args, key))
    with open(args.data, encoding="utf-8", newline="") as fh:
        data = parse_dataset(fh)
    model = train(data, args.variant, **{key: value})
    save_model(model, args.out)
    for cover, name in zip(model.covers, model.label_map):
        print(
            f"class {name}: {cover.n_balls} balls, "
            f"pure={cover.is_pure}, proper={cover.is_proper}"
        )
    print(f"model written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    """Classify a feature CSV. The rows are written by one `%` format
    call over a row template repeated once per row; each class name is
    quoted by `csv.writer` once, as the first field of a row of its shape
    (a lone empty field would be written as `""`)."""
    model = load_model(args.model)
    with open(args.data, encoding="utf-8", newline="") as fh:
        points, _ = parse_feature_csv(fh)
    labels, minima = predict_batch(model, points)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["prediction"]
    if args.scores:
        header += [f"dissim_{name}" for name in model.label_map]
    writer.writerow(header)
    k = model.n_classes if args.scores else 0
    quoted = []
    for name in model.label_map:
        field = io.StringIO()
        csv.writer(field, lineterminator="\n").writerow([name, ""] if k else [name])
        quoted.append(field.getvalue()[: -2 if k else -1])
    values = [None] * (len(labels) * (k + 1))
    values[:: k + 1] = [quoted[lab] for lab in labels.tolist()]
    for j in range(k):
        values[j + 1 :: k + 1] = minima[:, j].tolist()
    out.write(("%s" + ",%.6g" * k + "\n") * len(labels) % tuple(values))
    if args.out == "-":
        sys.stdout.write(out.getvalue())
    else:
        write_text_atomic(args.out, out.getvalue())
        print(f"predictions written to {args.out}")
    return 0


def _simulate_configs(args) -> list[SimulationConfig]:
    """One config per (delta, alpha, q, m) in the flag lists, shifts outermost."""
    lists = [[None] if raw is None else _float_list(raw) for raw in (args.delta, args.alpha, args.q, args.m)]
    return [
        SimulationConfig(
            setting=args.setting,
            d=args.d,
            n=args.n,
            q=q,
            m=m,
            delta=delta,
            alpha=alpha,
            test_per_class=args.test_per_class,
            max_test_reps=args.max_reps,
            se_target=args.se_target,
            base_seed=args.seed,
        )
        for delta, alpha, q, m in itertools.product(*lists)
    ]


def _classifier_specs(args) -> list[ClassifierSpec]:
    specs = []
    for raw in args.classifiers.split(","):
        kind = _KIND_ALIASES.get(raw.strip().lower())
        if kind is None:
            raise ValueError(f"unknown classifier {raw!r} (choose from pcccd, rwcccd, knn)")
        if any(spec.kind == kind for spec in specs):  # a report row is named by its kind
            raise ValueError(f"classifier {kind} is listed more than once")
        specs.append(ClassifierSpec(kind, getattr(args, CLASSIFIER_KINDS[kind])))
    return specs


def cmd_simulate(args) -> int:
    with _flag_values():
        configs = _simulate_configs(args)
        specs = _classifier_specs(args)
        rows = []
        for config in configs:
            report = run_simulation(config, specs, threads=args.threads, score_mode=args.score_mode)
            rows.extend(report_rows(report))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(evaluation.REPORT_FIELDS), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    print(format_report_table(rows))
    if args.out:
        write_text_atomic(args.out, out.getvalue())
        print(f"report written to {args.out}")
    return 0


def cmd_pilot(args) -> int:
    family = _KIND_ALIASES[args.family]
    with _flag_values():
        # the conventional tau grid writes machine epsilon as 0
        grid = [EPSILON_TAU if v == 0.0 and family == "pcccd" else v for v in _float_list(args.grid)]
        config = SimulationConfig(
            setting=args.setting,
            d=args.d,
            n=args.n,
            q=args.q,
            delta=args.delta,
            alpha=args.alpha,
            test_per_class=args.test_per_class,
            base_seed=args.seed,
        )
        result = pilot_study(config, family, grid, reps=args.reps, score_mode=args.score_mode)
    print(f"pilot over {result.reps} replications ({family}):")
    for value, count in zip(result.grid, result.counts):
        print(f"  {value:.6g}: {count}")
    note = " (mode tie, smallest value reported)" if result.counts.count(max(result.counts)) > 1 else ""
    print(f"selected: {result.selected:.6g}{note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccdig",
        description="Class cover catch digraph classifiers and their evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = os.environ.get("CCDIG_SEED") or "0"  # argparse converts a string default with type=int

    p_train = sub.add_parser("train", help="train a model from a CSV dataset")
    p_train.add_argument("--data", required=True, help="CSV with a header; label in the last column")
    p_train.add_argument("--variant", choices=list(HYPER_KEY), default="pure")
    p_train.add_argument("--tau", type=float, default=0.5, help="radius blend in (0,1] (pure variant)")
    p_train.add_argument("--e", type=float, default=1.0, help="score exponent in [0,1] (random-walk variant)")
    p_train.add_argument("--out", required=True, help="output model JSON path")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="classify a feature CSV with a trained model")
    p_pred.add_argument("--model", required=True, help="model JSON path")
    p_pred.add_argument("--data", required=True, help="CSV of features (no label column)")
    p_pred.add_argument("--out", default="-", help="output CSV path, or - for stdout")
    p_pred.add_argument("--scores", action="store_true", help="include per-class dissimilarities")
    p_pred.set_defaults(func=cmd_predict)

    shared = argparse.ArgumentParser(add_help=False)  # the flags of simulate and pilot
    shared.add_argument("--setting", choices=list(evaluation.SETTINGS), required=True)
    shared.add_argument("--d", type=int, required=True)
    shared.add_argument("--n", type=int, required=True)
    shared.add_argument("--test-per-class", type=int, default=100)
    shared.add_argument("--seed", type=int, default=seed)
    shared.add_argument(
        "--score-mode",
        choices=list(evaluation.SCORE_MODES),
        default="label",
        help="rank test points by predicted label (default) or by the graded score",
    )

    p_sim = sub.add_parser("simulate", parents=[shared], help="run the Monte Carlo study over a parameter grid")
    p_sim.add_argument("--q", help="comma list of class-size ratios m/n")
    p_sim.add_argument("--m", help="comma list of explicit second-class sizes")
    p_sim.add_argument("--delta", help="comma list of shifts (shifted/disjoint settings)")
    p_sim.add_argument("--alpha", help="comma list of overlap ratios (balanced_overlap)")
    p_sim.add_argument("--classifiers", default="pcccd,rwcccd,knn")
    p_sim.add_argument("--tau", type=float, default=0.5)
    p_sim.add_argument("--e", type=float, default=1.0)
    p_sim.add_argument("--k", type=int, default=5)
    p_sim.add_argument(
        "--se-target", type=float, default=0.0005, help="stop once every mean-AUC SE is at most this; 0 runs to --max-reps"
    )
    p_sim.add_argument("--max-reps", type=int, default=200)
    p_sim.add_argument("--threads", type=int, default=os.cpu_count() or 1, help="worker threads, at least 1")
    p_sim.add_argument("--out", help="write the CSV report here")
    p_sim.set_defaults(func=cmd_simulate)

    p_pilot = sub.add_parser("pilot", parents=[shared], help="select a hyperparameter by repeated best-AUC counting")
    p_pilot.add_argument("--q", type=float, default=1.0)
    p_pilot.add_argument("--delta", type=float)
    p_pilot.add_argument("--alpha", type=float)
    p_pilot.add_argument("--family", choices=list(_KIND_ALIASES), required=True)
    p_pilot.add_argument("--grid", required=True, help="comma list of parameter values (0 means machine epsilon for tau)")
    p_pilot.add_argument("--reps", type=int, default=200)
    p_pilot.set_defaults(func=cmd_pilot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the allocation that failed
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
