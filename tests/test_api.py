"""The package's public names, and the ones the benchmark times."""

import importlib
import importlib.util
import pathlib

import ccdig

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
        "CoverBall",
        "EvalReport",
        "LabeledDataset",
        "SimulationConfig",
        "auc",
        "build_pccd_digraph",
        "cross_distance_matrix",
        "greedy_dominating_set",
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
        "pilot_select",
        "pilot_study",
        "predict_batch",
        "reduction_stats",
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
