"""The package's public names, the ones the benchmark times, and the README's example."""

import importlib
import importlib.util
import pathlib

import ccdig

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    for name in ccdig.__all__:
        getattr(ccdig, name)
    namespace = {}
    exec("from ccdig import *", namespace)
    assert set(ccdig.__all__) <= set(namespace)


def test_public_surface_is_pinned():
    # a name enters or leaves the API only by editing this list
    assert sorted(ccdig.__all__) == [
        "CccdModel",
        "ClassCover",
        "ClassifierSpec",
        "EvalReport",
        "LabeledDataset",
        "SimulationConfig",
        "auc",
        "cross_distance_matrix",
        "knn_predict_batch",
        "knn_scores",
        "load_model",
        "local_imbalance",
        "model_from_json",
        "model_to_json",
        "overlap_alpha",
        "overlap_delta",
        "parse_dataset",
        "pccd_cover",
        "pilot_study",
        "predict_batch",
        "run_simulation",
        "rw_cover",
        "sample_uniform_box",
        "save_model",
        "train",
    ]


def test_benchmark_spans_name_live_functions():
    # perfbench/spans.py wraps ccdig functions by module and name, and reports
    # the metrics of a function it cannot find as null, so a deletion or a
    # rename of one of them must fail here rather than there
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = [(module, name) for table in (spans.TIMED, spans.PEAKED) for module, names in table.items() for name in names]
    assert wrapped
    for module, name in wrapped:
        assert callable(getattr(importlib.import_module(f"ccdig.{module}"), name, None)), f"{module}.{name}"


def test_only_core_refers_to_the_checking_kernel():
    # library code calls core._distances on point sets checked where they
    # entered; cross_distance_matrix is the public, checking kernel
    src = pathlib.Path(ccdig.__file__).parent
    users = sorted(p.stem for p in src.glob("*.py") if "cross_distance_matrix" in p.read_text(encoding="utf-8"))
    assert users == ["__init__", "core"]


def test_readme_python_example_runs(tmp_path, monkeypatch):
    # the first python block of the README, run as written; it saves model.json
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "model.json").is_file()
