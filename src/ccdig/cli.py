"""Command-line front end: train, predict, simulate, pilot.

Exit codes: 0 success, 1 data/runtime error, 2 usage error. Output files
are written to a temporary path and renamed on success, so failures never
leave partial output behind.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

import numpy as np

from . import evaluation
from .classifier import (
    HYPER_KEY,
    VARIANT_PURE,
    VARIANT_RW,
    load_model,
    predict_batch,
    save_model,
    train,
)
from .core import check_hyper, parse_dataset, parse_feature_csv
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
    "pccd": "pcccd",
    "rwcccd": "rwcccd",
    "rwccd": "rwcccd",
    "knn": "knn",
}


class UsageError(ValueError):
    """Bad flag values detected after parsing; exits with code 2."""


def _default_seed() -> int:
    env = os.environ.get("CCDIG_SEED")
    return int(env) if env else 0


def _write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _float_list(raw: str) -> list[float]:
    try:
        return [float(v) for v in raw.split(",") if v != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated list of numbers, got {raw!r}") from None


def _hyper(key: str, value: float) -> float:
    """A tau, e or k flag value, range-checked; a bad value is a usage error."""
    try:
        return check_hyper(key, value)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_train(args) -> int:
    variant = VARIANT_PURE if args.variant == "pure" else VARIANT_RW
    key = HYPER_KEY[variant]
    value = _hyper(key, args.tau if variant == VARIANT_PURE else args.e)
    with open(args.data, encoding="utf-8") as fh:
        data = parse_dataset(fh)
    model = train(data, variant, **{key: value})
    save_model(model, args.out)
    for cover, name in zip(model.covers, model.label_map):
        print(
            f"class {name}: {cover.n_balls} balls, "
            f"pure={cover.is_pure}, proper={cover.is_proper}"
        )
    print(f"model written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    with open(args.data, encoding="utf-8") as fh:
        points, _ = parse_feature_csv(fh)
    labels, minima = predict_batch(model, points)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["prediction"]
    if args.scores:
        header += [f"dissim_{name}" for name in model.label_map]
    writer.writerow(header)
    names = [model.label_map[lab] for lab in labels.tolist()]
    if args.scores:
        writer.writerows([name, *(f"{v:.6g}" for v in row)] for name, row in zip(names, minima.tolist()))
    else:
        writer.writerows([name] for name in names)
    if args.out == "-":
        sys.stdout.write(out.getvalue())
    else:
        _write_text(args.out, out.getvalue())
        print(f"predictions written to {args.out}")
    return 0


def _simulate_configs(args) -> list[SimulationConfig]:
    qs = _float_list(args.q) if args.q else [None]
    ms = [int(v) for v in _float_list(args.m)] if args.m else [None]
    if args.q and args.m:
        raise UsageError("give exactly one of --q and --m")
    if not args.q and not args.m:
        raise UsageError("one of --q or --m is required")
    if args.setting in ("shifted", "disjoint"):
        if not args.delta:
            raise UsageError(f"setting {args.setting!r} requires --delta")
        variable = [("delta", v) for v in _float_list(args.delta)]
    elif args.setting == "balanced_overlap":
        if not args.alpha:
            raise UsageError("setting 'balanced_overlap' requires --alpha")
        variable = [("alpha", v) for v in _float_list(args.alpha)]
    else:
        if args.delta or args.alpha:
            raise UsageError("the embedded setting takes neither --delta nor --alpha")
        variable = [(None, None)]
    configs = []
    for key, value in variable:
        for q, m in [(q, m) for q in qs for m in ms]:
            kwargs = dict(
                setting=args.setting,
                d=args.d,
                n=args.n,
                q=q,
                m=m,
                test_per_class=args.test_per_class,
                max_test_reps=args.max_reps,
                se_target=args.se_target,
                base_seed=args.seed,
            )
            if key:
                kwargs[key] = value
            try:
                configs.append(SimulationConfig(**kwargs))
            except ValueError as exc:
                raise UsageError(str(exc)) from None
    return configs


def _classifier_specs(args) -> list[ClassifierSpec]:
    specs = []
    for raw in args.classifiers.split(","):
        kind = _KIND_ALIASES.get(raw.strip().lower())
        if kind is None:
            raise UsageError(f"unknown classifier {raw!r} (choose from pcccd, rwcccd, knn)")
        key = CLASSIFIER_KINDS[kind]
        specs.append(ClassifierSpec(kind, _hyper(key, getattr(args, key))))
    if not specs:
        raise UsageError("at least one classifier is required")
    return specs


def cmd_simulate(args) -> int:
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
        _write_text(args.out, out.getvalue())
        print(f"report written to {args.out}")
    return 0


def cmd_pilot(args) -> int:
    grid = _float_list(args.grid)
    if not grid:
        raise UsageError("the parameter grid must be non-empty")
    family = _KIND_ALIASES[args.family]
    key = CLASSIFIER_KINDS[family]
    # the conventional tau grid writes machine epsilon as 0
    grid = [EPSILON_TAU if key == "tau" and v == 0.0 else _hyper(key, v) for v in grid]
    kwargs = dict(
        setting=args.setting,
        d=args.d,
        n=args.n,
        q=args.q,
        m=None,
        test_per_class=args.test_per_class,
        base_seed=args.seed,
    )
    if args.delta is not None:
        kwargs["delta"] = args.delta
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha
    try:
        config = SimulationConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    result = pilot_study(config, family, grid, reps=args.reps, score_mode=args.score_mode)
    print(f"pilot over {result.reps} replications ({family}):")
    for value, count in zip(result.grid, result.counts):
        print(f"  {value:.6g}: {count}")
    ties = [v for v, c in zip(result.grid, result.counts) if c == max(result.counts)]
    note = " (mode tie, smallest value reported)" if len(ties) > 1 else ""
    print(f"selected: {result.selected:.6g}{note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccdig",
        description="Class cover catch digraph classifiers and their evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a CSV dataset")
    p_train.add_argument("--data", required=True, help="CSV with a header; label in the last column")
    p_train.add_argument("--variant", choices=["pure", "random_walk"], default="pure")
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

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo study over a parameter grid")
    p_sim.add_argument("--setting", choices=list(evaluation.SETTINGS), required=True)
    p_sim.add_argument("--d", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--q", help="comma list of class-size ratios m/n")
    p_sim.add_argument("--m", help="comma list of explicit second-class sizes")
    p_sim.add_argument("--delta", help="comma list of shifts (shifted/disjoint settings)")
    p_sim.add_argument("--alpha", help="comma list of overlap ratios (balanced_overlap)")
    p_sim.add_argument("--classifiers", default="pcccd,rwcccd,knn")
    p_sim.add_argument("--tau", type=float, default=0.5)
    p_sim.add_argument("--e", type=float, default=1.0)
    p_sim.add_argument("--k", type=int, default=5)
    p_sim.add_argument("--test-per-class", type=int, default=100)
    p_sim.add_argument(
        "--se-target", type=float, default=0.0005, help="stop once every mean-AUC SE is at most this; 0 runs to --max-reps"
    )
    p_sim.add_argument("--max-reps", type=int, default=200)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p_sim.add_argument(
        "--score-mode",
        choices=list(evaluation.SCORE_MODES),
        default="label",
        help="rank test points by predicted label (default) or by the graded score",
    )
    p_sim.add_argument("--out", help="write the CSV report here")
    p_sim.set_defaults(func=cmd_simulate)

    p_pilot = sub.add_parser("pilot", help="select a hyperparameter by repeated best-AUC counting")
    p_pilot.add_argument("--setting", choices=list(evaluation.SETTINGS), required=True)
    p_pilot.add_argument("--d", type=int, required=True)
    p_pilot.add_argument("--n", type=int, required=True)
    p_pilot.add_argument("--q", type=float, default=1.0)
    p_pilot.add_argument("--delta", type=float)
    p_pilot.add_argument("--alpha", type=float)
    p_pilot.add_argument("--family", choices=["pcccd", "rwcccd", "knn", "pccd", "rwccd"], required=True)
    p_pilot.add_argument("--grid", required=True, help="comma list of parameter values (0 means machine epsilon for tau)")
    p_pilot.add_argument("--reps", type=int, default=200)
    p_pilot.add_argument("--test-per-class", type=int, default=100)
    p_pilot.add_argument("--seed", type=int, default=None)
    p_pilot.add_argument(
        "--score-mode",
        choices=list(evaluation.SCORE_MODES),
        default="label",
        help="rank test points by predicted label (default) or by the graded score",
    )
    p_pilot.set_defaults(func=cmd_pilot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = _default_seed()
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
