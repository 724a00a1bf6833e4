"""The package's public names."""

import ccdig


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
        "Prediction",
        "SimulationConfig",
        "auc",
        "build_pccd_digraph",
        "cross_distance_matrix",
        "dataset_to_csv",
        "discriminant",
        "greedy_dominating_set",
        "knn_predict",
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
        "predict",
        "predict_batch",
        "reduction_stats",
        "run_simulation",
        "rw_cover",
        "sample_uniform_box",
        "save_model",
        "train",
    ]
