"""End-to-end tests of the command-line interface."""

import csv
import json

import numpy as np
import pytest

from ccdig.classifier import load_model, predict_batch
from ccdig import cli
from ccdig.cli import main
from ccdig.core import parse_dataset
from helpers import predict_csv

TOY = "x1,x2,cls\n" + "\n".join(
    [f"{x},{y},left" for x, y in [(0, 0), (0.2, 0.1), (0.1, 0.3), (0.3, 0.2)]]
    + [f"{x},{y},right" for x, y in [(5, 5), (5.2, 5.1), (5.1, 5.3)]]
)


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY + "\n")
    return path


def features_csv(tmp_path, rows, name="features.csv"):
    path = tmp_path / name
    path.write_text("x1,x2\n" + "\n".join(f"{a},{b}" for a, b in rows) + "\n")
    return path


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    for sub in ("train", "predict", "simulate", "pilot"):
        assert main([sub, "--help"]) == 0
    out = capsys.readouterr().out
    assert "--tau" in out and "--grid" in out


def test_train_writes_model(toy_csv, tmp_path, capsys):
    out = tmp_path / "model.json"
    code = main(["train", "--data", str(toy_csv), "--variant", "pure", "--tau", "0.5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["variant"] == "pure" and doc["dim"] == 2
    assert doc["label_map"] == ["left", "right"]
    printed = capsys.readouterr().out
    assert "class left" in printed and "pure=True" in printed


def test_train_bad_tau_is_usage_error(toy_csv, tmp_path, capsys):
    code = main(["train", "--data", str(toy_csv), "--tau", "1.5", "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "tau must be in (0,1]" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_train_single_class_is_data_error(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("x,cls\n0,a\n1,a\n")
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_missing_file_is_data_error(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")])
    assert code == 1


def test_train_keeps_cr_lf_inside_quoted_labels(tmp_path):
    data = tmp_path / "quoted.csv"
    data.write_bytes(b'x,cls\r\n0,"a\r\nb"\r\n1,c\r\n')
    out = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["label_map"] == list(parse_dataset(data.read_bytes()).label_names)


@pytest.mark.parametrize("command", ["train", "predict"])
def test_out_directory_is_data_error_leaving_no_temp_file(toy_csv, tmp_path, capsys, command):
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(toy_csv), "--out", str(model)]) == 0
    target = tmp_path / "taken"
    target.mkdir()
    if command == "train":
        argv = ["train", "--data", str(toy_csv), "--out", str(target)]
    else:
        argv = ["predict", "--model", str(model), "--data", str(features_csv(tmp_path, [(1, 1)])), "--out", str(target)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert list(tmp_path.rglob("*.tmp.*")) == []


@pytest.mark.parametrize("command", ["train pure", "train random_walk", "predict", "predict model"])
def test_coordinates_whose_squares_overflow_are_one_line_data_errors(toy_csv, tmp_path, capsys, recwarn, command):
    # (1e200 - 0) ** 2 overflows to inf; the point set is rejected before any distance
    model, out = tmp_path / "model.json", tmp_path / "out"
    assert main(["train", "--data", str(toy_csv), "--out", str(model)]) == 0
    if command == "predict model":
        doc = json.loads(model.read_text())
        doc["covers"][0]["balls"][0]["center"] = [1e200, 0.0]
        model.write_text(json.dumps(doc))
    if command.startswith("predict"):
        queries = [(1, 1), ("1e200", "1e200")] if command == "predict" else [(1, 1)]
        argv = ["predict", "--model", str(model), "--data", str(features_csv(tmp_path, queries))]
    else:
        huge = tmp_path / "huge.csv"
        huge.write_text(TOY + "\n1e200,0,right\n")
        argv = ["train", "--data", str(huge), "--variant", command.split()[1]]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: point coordinates must be at most ")
    assert not recwarn.list and not out.exists()


def test_predict_round_trip_self_consistency(toy_csv, tmp_path):
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(toy_csv), "--tau", "0.5", "--out", str(model)]) == 0
    feats = features_csv(tmp_path, [(0, 0), (0.2, 0.1), (0.1, 0.3), (0.3, 0.2), (5, 5), (5.2, 5.1), (5.1, 5.3)])
    preds = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(model), "--data", str(feats), "--out", str(preds)]) == 0
    with open(preds) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["prediction"] for r in rows] == ["left"] * 4 + ["right"] * 3


def test_predict_scores_columns(toy_csv, tmp_path, capsys):
    model = tmp_path / "model.json"
    main(["train", "--data", str(toy_csv), "--out", str(model)])
    capsys.readouterr()  # drop the training output
    feats = features_csv(tmp_path, [(1, 1)])
    assert main(["predict", "--model", str(model), "--data", str(feats), "--scores"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header == "prediction,dissim_left,dissim_right"


# class names csv.writer must quote, or quotes only as a lone field
ODD_NAMES = ["", "a,b", 'a"b', "a\r\nb", " lead"]
# minima whose text from '%.6g' must match f"{v:.6g}"
ODD_MINIMA = [np.inf, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e21, 999999.5, np.nan, 0.0, 1.0]


@pytest.fixture
def odd_model(tmp_path):
    data = tmp_path / "odd.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "cls"])
        writer.writerows([[3 * i + j, name] for i, name in enumerate(ODD_NAMES) for j in range(2)])
    model = tmp_path / "odd.json"
    assert main(["train", "--data", str(data), "--out", str(model)]) == 0
    return model


@pytest.mark.parametrize("scores", [False, True])
@pytest.mark.parametrize("to_file", [False, True])
def test_predict_output_is_the_row_writers_byte_for_byte(odd_model, tmp_path, capsys, monkeypatch, scores, to_file):
    k = len(ODD_NAMES)
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2**64, size=(200, k), dtype=np.uint64).view(np.float64)
    minima = np.concatenate([np.resize(ODD_MINIMA, (len(ODD_MINIMA), k)), -np.resize(ODD_MINIMA, (3, k)), bits])
    labels = np.arange(len(minima)) % k
    monkeypatch.setattr("ccdig.cli.predict_batch", lambda model, points: (labels, minima))
    feats = tmp_path / "one.csv"
    feats.write_text("x\n" + "0\n" * len(minima))
    out = tmp_path / "pred.csv"
    capsys.readouterr()
    argv = ["predict", "--model", str(odd_model), "--data", str(feats), "--out", str(out) if to_file else "-"]
    assert main(argv + ["--scores"] * scores) == 0
    model = load_model(odd_model)
    assert model.label_map == tuple(ODD_NAMES)
    expected = predict_csv(model.label_map, labels, minima, scores)
    written = out.read_bytes().decode("utf-8") if to_file else capsys.readouterr().out
    assert written == expected


@pytest.mark.parametrize("scores", [False, True])
def test_predict_output_matches_the_row_writer_on_real_minima(odd_model, tmp_path, scores):
    feats = tmp_path / "queries.csv"
    queries = np.random.default_rng(3).uniform(-2.0, 15.0, 300)
    feats.write_text("x\n" + "".join(f"{v!r}\n" for v in queries.tolist()))
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(odd_model), "--data", str(feats), "--out", str(out)] + ["--scores"] * scores) == 0
    model = load_model(odd_model)
    labels, minima = predict_batch(model, queries[:, None])
    assert out.read_bytes().decode("utf-8") == predict_csv(model.label_map, labels, minima, scores)


def test_predict_dimension_mismatch(toy_csv, tmp_path, capsys):
    model = tmp_path / "model.json"
    main(["train", "--data", str(toy_csv), "--out", str(model)])
    bad = tmp_path / "bad.csv"
    bad.write_text("x1\n1\n")
    code = main(["predict", "--model", str(model), "--data", str(bad), "--out", str(tmp_path / "p.csv")])
    assert code == 1
    assert "dimension" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "predict"])
def test_oversized_csv_field_is_data_error(toy_csv, tmp_path, capsys, command):
    # one field past the csv module's default limit of 131072 characters
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(toy_csv), "--out", str(model)]) == 0
    big = tmp_path / "big.csv"
    if command == "train":
        big.write_text(TOY + "\n0,0," + "a" * 131_073 + "\n")
        argv, row = ["train", "--data", str(big), "--out", str(tmp_path / "m2.json")], 9
    else:
        big.write_text("x1,x2\n1,1\n" + "1" * 131_073 + ",1\n")
        argv, row = ["predict", "--model", str(model), "--data", str(big), "--out", str(tmp_path / "p.csv")], 3
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: row {row}: field larger than field limit")
    assert not (tmp_path / "m2.json").exists() and not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("command", ["train", "predict"])
def test_invalid_utf8_csv_is_data_error(toy_csv, tmp_path, capsys, command):
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(toy_csv), "--out", str(model)]) == 0
    bad = tmp_path / "bad.csv"
    if command == "train":
        bad.write_bytes(TOY.encode() + b"\n0,0,l\xe9ft\n")
        argv, row = ["train", "--data", str(bad), "--out", str(tmp_path / "m2.json")], 9
    else:
        bad.write_bytes(b"x1,x2\n1,1\n\xff,1\n")
        argv, row = ["predict", "--model", str(model), "--data", str(bad), "--out", str(tmp_path / "p.csv")], 3
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: row {row}: not valid UTF-8")
    assert not (tmp_path / "m2.json").exists() and not (tmp_path / "p.csv").exists()


def _trained_model_doc(toy_csv, tmp_path, variant):
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(toy_csv), "--variant", variant, "--out", str(model)]) == 0
    return model, json.loads(model.read_text())


@pytest.mark.parametrize(
    "variant, break_doc",
    [
        ("pure", lambda doc: doc.pop("variant")),
        ("random_walk", lambda doc: doc.update(hyper={})),
        ("random_walk", lambda doc: doc["covers"][0]["balls"][0].pop("score")),
        ("pure", lambda doc: doc["covers"][1]["balls"][0].update(radius=-1.0)),
        ("pure", lambda doc: doc["covers"][0].pop("n_train")),
        ("pure", lambda doc: doc.update(covers="none")),
        ("pure", lambda doc: doc.update(hyper={"tau": 2.0})),
        ("pure", lambda doc: doc.update(hyper={"tau": 0.5, "e": 1.0})),
    ],
)
def test_predict_malformed_model_is_data_error(toy_csv, tmp_path, capsys, variant, break_doc):
    model, doc = _trained_model_doc(toy_csv, tmp_path, variant)
    break_doc(doc)
    model.write_text(json.dumps(doc))
    feats = features_csv(tmp_path, [(1, 1)])
    capsys.readouterr()
    code = main(["predict", "--model", str(model), "--data", str(feats), "--out", str(tmp_path / "p.csv")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid model:")
    assert not (tmp_path / "p.csv").exists()


def test_predict_deeply_nested_model_is_data_error(tmp_path, capsys):
    model = tmp_path / "deep.json"
    model.write_text("[" * 100_000 + "]" * 100_000)
    feats = features_csv(tmp_path, [(1, 1)])
    code = main(["predict", "--model", str(model), "--data", str(feats), "--out", str(tmp_path / "p.csv")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: invalid model: JSON nested too deeply"]
    assert not (tmp_path / "p.csv").exists()


MUTANTS = [None, True, False, 0, -1, 2.5, 10**400, float("nan"), float("inf"), "x", [], [1, 2], {}, {"a": 1}]


def _mutate(doc, rng):
    """Replace one randomly chosen value of the document by a value of
    another type or range, or delete a key or a list item."""
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and len(node) and (parent is None or rng.random() < 0.75):
        parent = node
        key = rng.choice(sorted(node)) if isinstance(node, dict) else int(rng.integers(len(node)))
        node = parent[key]
    if rng.random() < 0.2:
        del parent[key]
    else:
        parent[key] = MUTANTS[rng.integers(len(MUTANTS))]
    return doc


@pytest.mark.parametrize("variant", ["pure", "random_walk"])
def test_predict_mutated_models_end_in_one_line(toy_csv, tmp_path, capsys, variant):
    # a mutated model either still loads and predicts, or is refused with
    # one error line; never a traceback
    model, doc = _trained_model_doc(toy_csv, tmp_path, variant)
    feats = features_csv(tmp_path, [(1, 1), (5, 5)])
    rng = np.random.default_rng(7)
    codes = set()
    for _ in range(300):
        model.write_text(json.dumps(_mutate(json.loads(json.dumps(doc)), rng)))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(feats), "--out", str(tmp_path / "p.csv")])
        assert code in (0, 1)
        assert len(capsys.readouterr().err.splitlines()) <= 1
        codes.add(code)
    assert codes == {0, 1}


def simulate_args(tmp_path, out="report.csv", seed="11", threads="1"):
    return [
        "simulate",
        "--setting", "shifted",
        "--d", "2",
        "--n", "16",
        "--q", "0.5,1.0",
        "--delta", "0.2,0.6",
        "--classifiers", "rwcccd,knn",
        "--test-per-class", "10",
        "--max-reps", "3",
        "--se-target", "0",
        "--seed", seed,
        "--threads", threads,
        "--out", str(tmp_path / out),
    ]


def test_simulate_grid_shape(tmp_path, capsys):
    assert main(simulate_args(tmp_path)) == 0
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2  # delta grid x q grid x classifiers
    assert {r["classifier"] for r in rows} == {"rwcccd", "knn"}
    assert {r["delta_or_alpha"] for r in rows} == {"0.2", "0.6"}
    assert all(0.0 <= float(r["mean_auc"]) <= 1.0 for r in rows)
    assert all(r["reps"] == "3" for r in rows)
    table = capsys.readouterr().out
    assert "classifier" in table


def test_simulate_deterministic_bytes(tmp_path):
    main(simulate_args(tmp_path, out="a.csv"))
    main(simulate_args(tmp_path, out="b.csv"))
    main(simulate_args(tmp_path, out="c.csv", threads="3"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


def test_simulate_env_seed_matches_flag(tmp_path, monkeypatch):
    args = simulate_args(tmp_path, out="flag.csv", seed="77")
    main(args)
    monkeypatch.setenv("CCDIG_SEED", "77")
    env_args = simulate_args(tmp_path, out="env.csv")
    env_args.remove("--seed")
    env_args.remove("11")
    main(env_args)
    assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "env.csv").read_bytes()


def test_simulate_invalid_grid_is_usage_error(tmp_path, capsys):
    args = simulate_args(tmp_path)
    args[args.index("--delta") + 1] = "2.0"  # outside [0,1] for shifted boxes
    assert main(args) == 2
    args2 = simulate_args(tmp_path)
    args2[args2.index("--classifiers") + 1] = "forest"
    assert main(args2) == 2
    args3 = simulate_args(tmp_path)
    del args3[args3.index("--q") : args3.index("--q") + 2]
    assert main(args3) == 2
    assert main(simulate_args(tmp_path) + ["--k", "0"]) == 2


def with_flags(args, **flags):
    """args with each flag's value replaced (appended if absent, dropped if None)."""
    args = list(args)
    for name, value in flags.items():
        flag = "--" + name.replace("_", "-")
        if flag in args:
            i = args.index(flag)
            del args[i : i + 2]
        if value is not None:
            args += [flag, value]
    return args


PILOT_ARGS = [
    "pilot", "--setting", "embedded", "--d", "1", "--n", "8", "--q", "1.0",
    "--family", "pcccd", "--grid", "0.5", "--reps", "2", "--test-per-class", "5",
]


@pytest.mark.parametrize(
    "command, flags, seed_env",
    [
        ("simulate", {"q": "inf"}, None),
        ("simulate", {"q": "nan"}, None),
        ("simulate", {"seed": None}, "abc"),
        ("simulate", {"delta": ","}, None),
        ("simulate", {"q": None, "m": "2.5"}, None),
        ("simulate", {"n": "10", "q": "1.0", "classifiers": "knn", "k": "50"}, None),
        ("simulate", {"setting": "disjoint", "delta": "inf"}, None),
        ("simulate", {"se_target": "nan"}, None),
        ("simulate", {"threads": "0"}, None),
        ("simulate", {"threads": "-5"}, None),
        ("simulate", {"classifiers": "knn,knn"}, None),
        ("simulate", {"classifiers": "pccd,pcccd"}, None),
        ("pilot", {"reps": "0"}, None),
        ("pilot", {"grid": "0.5,0.5"}, None),
    ],
    ids=[
        "q-inf", "q-nan", "seed-env", "empty-delta", "fractional-m", "k-over-n",
        "disjoint-inf", "se-target-nan", "threads-0", "threads-negative", "repeated-knn", "alias-pair",
        "reps-0", "repeated-grid",
    ],
)
def test_bad_flag_values_exit_2_with_one_line(tmp_path, capsys, monkeypatch, command, flags, seed_env):
    if seed_env is not None:
        monkeypatch.setenv("CCDIG_SEED", seed_env)
    base = simulate_args(tmp_path) if command == "simulate" else PILOT_ARGS
    assert main(with_flags(base, **flags)) == 2  # main returns rather than raising: no traceback
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1
    if seed_env is None:  # argparse prints its usage lines before the error
        assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not (tmp_path / "report.csv").exists()


def test_simulate_zero_se_target_runs_to_the_cap(tmp_path):
    # under label scores the first two replication AUCs tie exactly
    # (SE 0), which must not end a run whose target is 0
    report = tmp_path / "report.csv"
    code = main(
        [
            "simulate", "--setting", "shifted", "--d", "3", "--n", "200", "--q", "0.5",
            "--delta", "0.1", "--classifiers", "rwcccd", "--se-target", "0",
            "--max-reps", "8", "--seed", "12", "--threads", "1",
            "--score-mode", "label", "--out", str(report),
        ]
    )
    assert code == 0
    with open(report) as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["reps"] == "8"


def test_simulate_embedded_rejects_delta(tmp_path):
    args = simulate_args(tmp_path)
    args[args.index("--setting") + 1] = "embedded"
    assert main(args) == 2


def test_pilot_histogram_and_mode(capsys):
    code = main(
        [
            "pilot", "--setting", "embedded", "--d", "1", "--n", "10", "--q", "1.0",
            "--family", "pcccd", "--grid", "0,0.5,1.0", "--reps", "4",
            "--test-per-class", "10", "--seed", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pilot over 4 replications" in out
    assert "selected:" in out


def test_pilot_reps_one(capsys):
    code = main(
        [
            "pilot", "--setting", "embedded", "--d", "1", "--n", "8", "--q", "1.0",
            "--family", "knn", "--grid", "1,3", "--reps", "1",
            "--test-per-class", "8", "--seed", "0",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(l.split(":")[1]) for l in lines if l.startswith("  ")]
    assert sum(counts) >= 1


def test_pilot_mode_tie_notes_lowest(capsys):
    code = main(
        [
            "pilot", "--setting", "disjoint", "--d", "1", "--n", "8", "--q", "1.0",
            "--delta", "0.5", "--family", "pcccd", "--grid", "0.9,0.2", "--reps", "3",
            "--test-per-class", "8", "--seed", "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "selected: 0.2 (mode tie, smallest value reported)" in out


def test_pilot_empty_grid_is_usage_error(capsys):
    code = main(
        [
            "pilot", "--setting", "embedded", "--d", "1", "--n", "8", "--q", "1.0",
            "--family", "pcccd", "--grid", ",", "--reps", "2",
        ]
    )
    assert code == 2


@pytest.mark.parametrize("grid", ["0.5", "1,2.5", "0", "-3", "inf"])
def test_pilot_knn_grid_needs_positive_integers(capsys, grid):
    code = main(
        [
            "pilot", "--setting", "embedded", "--d", "1", "--n", "8", "--q", "1.0",
            "--family", "knn", "--grid", grid, "--reps", "2",
        ]
    )
    assert code == 2
    assert "positive integer" in capsys.readouterr().err


def test_pilot_zero_tau_means_epsilon(capsys):
    code = main(
        [
            "pilot", "--setting", "embedded", "--d", "1", "--n", "8", "--q", "1.0",
            "--family", "pcccd", "--grid", "0", "--reps", "2", "--test-per-class", "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"{float(np.finfo(np.float64).eps):.6g}" in out


# simulate and pilot argv with the namespace each parsed to when every
# flag was declared once per subcommand
PARSED = [
    (
        ["simulate", "--setting", "shifted", "--d", "3", "--n", "200", "--q", "0.1,1", "--delta", "0.1",
         "--threads", "1"],
        None,
        {"command": "simulate", "setting": "shifted", "d": 3, "n": 200, "q": "0.1,1", "m": None, "delta": "0.1",
         "alpha": None, "classifiers": "pcccd,rwcccd,knn", "tau": 0.5, "e": 1.0, "k": 5, "test_per_class": 100,
         "se_target": 0.0005, "max_reps": 200, "seed": 0, "threads": 1, "score_mode": "label", "out": None,
         "func": cli.cmd_simulate},
    ),
    (
        ["simulate", "--setting", "balanced_overlap", "--d", "2", "--n", "50", "--m", "10,20", "--alpha", "0.3",
         "--classifiers", "rwcccd", "--e", "0.5", "--test-per-class", "40", "--se-target", "0", "--max-reps", "6",
         "--seed", "9", "--threads", "2", "--score-mode", "continuous", "--out", "r.csv"],
        None,
        {"command": "simulate", "setting": "balanced_overlap", "d": 2, "n": 50, "q": None, "m": "10,20",
         "delta": None, "alpha": "0.3", "classifiers": "rwcccd", "tau": 0.5, "e": 0.5, "k": 5, "test_per_class": 40,
         "se_target": 0.0, "max_reps": 6, "seed": 9, "threads": 2, "score_mode": "continuous", "out": "r.csv",
         "func": cli.cmd_simulate},
    ),
    (
        ["pilot", "--setting", "embedded", "--d", "2", "--n", "100", "--family", "pcccd", "--grid", "0,0.5,1"],
        None,
        {"command": "pilot", "setting": "embedded", "d": 2, "n": 100, "q": 1.0, "delta": None, "alpha": None,
         "family": "pcccd", "grid": "0,0.5,1", "reps": 200, "test_per_class": 100, "seed": 0, "score_mode": "label",
         "func": cli.cmd_pilot},
    ),
    (
        ["pilot", "--setting", "embedded", "--d", "2", "--n", "100", "--family", "knn", "--grid", "1,3"],
        "7",
        {"command": "pilot", "setting": "embedded", "d": 2, "n": 100, "q": 1.0, "delta": None, "alpha": None,
         "family": "knn", "grid": "1,3", "reps": 200, "test_per_class": 100, "seed": 7, "score_mode": "label",
         "func": cli.cmd_pilot},
    ),
    (
        ["pilot", "--setting", "disjoint", "--d", "1", "--n", "8", "--q", "0.5", "--delta", "0.5", "--family",
         "rwccd", "--grid", "0,1", "--reps", "3", "--test-per-class", "8", "--seed", "4", "--score-mode",
         "continuous"],
        None,
        {"command": "pilot", "setting": "disjoint", "d": 1, "n": 8, "q": 0.5, "delta": 0.5, "alpha": None,
         "family": "rwccd", "grid": "0,1", "reps": 3, "test_per_class": 8, "seed": 4, "score_mode": "continuous",
         "func": cli.cmd_pilot},
    ),
]


@pytest.mark.parametrize("argv, seed_env, expected", PARSED)
def test_shared_flags_parse_as_before(monkeypatch, argv, seed_env, expected):
    if seed_env is None:
        monkeypatch.delenv("CCDIG_SEED", raising=False)
    else:
        monkeypatch.setenv("CCDIG_SEED", seed_env)
    assert vars(cli.build_parser().parse_args(argv)) == expected


def test_unknown_subcommand_is_usage_error():
    assert main(["transmogrify"]) == 2


@pytest.mark.parametrize("message", ["Unable to allocate 1.16 TiB for an array with shape (400000, 400000)", ""])
def test_train_out_of_memory_is_one_line(toy_csv, tmp_path, capsys, monkeypatch, message):
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("ccdig.cli.train", no_memory)
    assert main(["train", "--data", str(toy_csv), "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert (message or "out of memory") in err
    assert not (tmp_path / "m.json").exists()
