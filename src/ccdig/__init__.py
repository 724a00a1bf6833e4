"""Class cover catch digraph classifiers and their evaluation harness.

Two cover families: pure covers whose open balls never swallow a
non-target point, and random-walk covers that trade purity for fewer,
better-placed balls. Both compress a training class to a small set of
prototype balls used by a scaled-dissimilarity classifier.
"""

from .classifier import (
    CccdModel,
    load_model,
    model_from_json,
    model_to_json,
    predict_batch,
    save_model,
    train,
)
from .core import (
    LabeledDataset,
    cross_distance_matrix,
    parse_dataset,
    sample_uniform_box,
)
from .evaluation import (
    ClassifierSpec,
    EvalReport,
    SimulationConfig,
    auc,
    knn_predict_batch,
    knn_scores,
    local_imbalance,
    overlap_alpha,
    overlap_delta,
    pilot_select,
    pilot_study,
    reduction_stats,
    run_simulation,
)
from .pccd import ClassCover, CoverBall, build_pccd_digraph, greedy_dominating_set, pccd_cover
from .rwccd import rw_cover

__version__ = "0.1.0"

__all__ = [
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
