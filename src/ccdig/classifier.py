"""Cover-based classification: scaled dissimilarity, training, prediction.

A trained model holds one ball cover per class, a `ClassCover` of
arrays: open balls for the pure variant, closed balls with scores for
the random-walk one. A query point's dissimilarity to a class is the
minimum over that class's balls of d(z, center) / radius; the
random-walk variant sharpens each ball's vote by raising it to the
power score**e. Prediction is the argmin over classes. The query path
and the model JSON read and write the cover's arrays directly.

Memory of the query path (`predict`, `predict_batch`, `discriminant`,
`discriminant_batch`): queries run in row blocks of
QUERY_BLOCK_BYTES // (8 * b) rows, b the largest number of balls in one
class, and each block's distances to one class's balls (8 bytes per
query-ball pair) are reduced to that class's running minimum before the
next class. A batch keeps 8 * n_classes bytes per query for the minima
and 8 more for its label, beside its own 8 * d; on top of that comes a
fixed amount that does not grow with the batch: the 4 MiB block, up to
two block-sized temporaries when a class has zero-radius balls, and the
distance kernel's work arrays (at most 1 MiB while b <= 16384 and
d <= 128). On the two-class, d=3, 1408-ball `pure-overlap` model, 50k
queries peak at 9 MB under tracemalloc, against about 870 MB with one
block per batch.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import LabeledDataset, as_point, as_points, check_hyper, cross_distance_matrix, write_text_atomic
from .pccd import ClassCover, pccd_cover
from .rwccd import rw_cover

VARIANT_PURE = "pure"
VARIANT_RW = "random_walk"

# floor applied to ball scores before exponentiation; keeps rho**(T**e)
# defined and order-preserving when a score comes out non-positive
SCORE_CLAMP = 1e-3

# stand-in for an infinite dissimilarity gap in the discriminant
LARGE_GAP = 1e300

MODEL_FORMAT_VERSION = 1

# bytes of distances one query block may hold against one class's balls
QUERY_BLOCK_BYTES = 4 * 2**20

# the one hyperparameter each variant needs
HYPER_KEY = {VARIANT_PURE: "tau", VARIANT_RW: "e"}


@dataclass(frozen=True, eq=False)
class CccdModel:
    """Per-class ball covers plus the hyperparameters that built them."""

    variant: str
    covers: tuple[ClassCover, ...]
    hyper: dict
    dim: int
    label_map: tuple[str, ...]
    class_counts: tuple[int, ...]

    def __post_init__(self):
        if self.variant not in (VARIANT_PURE, VARIANT_RW):
            raise ValueError(f"unknown variant {self.variant!r}")
        if len(self.covers) < 2:
            raise ValueError("a model needs at least two classes")
        if len(self.label_map) != len(self.covers) or len(self.class_counts) != len(self.covers):
            raise ValueError("covers, label_map and class_counts must align")
        for cover in self.covers:
            if (cover.scores is not None) != (self.variant == VARIANT_RW):
                raise ValueError("random-walk covers must carry scores and pure covers none")
            if cover.centers.shape[1] != self.dim:
                raise ValueError("ball dimension does not match the model")
        object.__setattr__(self, "covers", tuple(self.covers))
        object.__setattr__(self, "label_map", tuple(self.label_map))
        object.__setattr__(self, "class_counts", tuple(int(c) for c in self.class_counts))

    @property
    def n_classes(self) -> int:
        return len(self.covers)


@dataclass(frozen=True)
class Prediction:
    label: int
    per_class_dissimilarity: tuple[float, ...]


def train(data: LabeledDataset, variant: str, *, tau: float | None = None, e: float | None = None) -> CccdModel:
    """Fit one cover per class, each against the union of the others."""
    if data.n_classes < 2:
        raise ValueError("training requires at least two classes")
    if variant not in HYPER_KEY:
        raise ValueError(f"unknown variant {variant!r}")
    key = HYPER_KEY[variant]
    value = tau if variant == VARIANT_PURE else e
    if value is None:
        raise ValueError(f"the {variant} variant requires {key}")
    hyper = {key: check_hyper(key, value)}
    covers = []
    for c in range(data.n_classes):
        targets = data.points[data.labels == c]
        nontargets = data.points[data.labels != c]
        if variant == VARIANT_PURE:
            covers.append(pccd_cover(targets, nontargets, hyper["tau"], class_id=c))
        else:
            covers.append(rw_cover(targets, nontargets, class_id=c))
    return CccdModel(
        variant=variant,
        covers=tuple(covers),
        hyper=hyper,
        dim=data.dim,
        label_map=data.label_names,
        class_counts=tuple(int(c) for c in data.class_counts),
    )


def _class_minima(model: CccdModel, points: np.ndarray) -> np.ndarray:
    """(n_points, n_classes) matrix of per-class minimum dissimilarities,
    computed block by block; see the module notes on memory."""
    out = np.empty((len(points), model.n_classes), dtype=np.float64)
    terms = []
    for cover in model.covers:
        radii = cover.radii
        exponent = None
        if model.variant == VARIANT_RW:
            exponent = np.maximum(cover.scores, SCORE_CLAMP) ** model.hyper["e"]
        terms.append((cover.centers, np.where(radii > 0, radii, 1.0), radii <= 0, exponent))
    rows = max(1, QUERY_BLOCK_BYTES // (8 * max(cover.n_balls for cover in model.covers)))
    for i in range(0, len(points), rows):
        for c, (centers, safe, zero, exponent) in enumerate(terms):
            rho = cross_distance_matrix(points[i : i + rows], centers)
            rho /= safe  # a zero-radius column keeps its distance (safe radius 1)
            if zero.any():
                rho[:, zero] = np.where(rho[:, zero] == 0.0, 0.0, np.inf)
            if exponent is not None:
                with np.errstate(over="ignore"):  # huge rho**exponent saturates to inf
                    rho **= exponent
            out[i : i + rows, c] = rho.min(axis=1)
    return out


def _labels(minima: np.ndarray, class_counts: tuple[int, ...]) -> np.ndarray:
    """Row-wise argmin with ties broken toward the larger class, then the
    lower id: the first minimum over the columns in that order."""
    order = np.argsort(-np.asarray(class_counts, dtype=np.int64), kind="stable")
    return order[np.argmin(minima[:, order], axis=1)]


def predict(model: CccdModel, z) -> Prediction:
    """Classify one point."""
    p = as_point(z)
    if p.size != model.dim:
        raise ValueError(f"dimension mismatch: point has {p.size}, model expects {model.dim}")
    minima = _class_minima(model, p[None, :])
    label = int(_labels(minima, model.class_counts)[0])
    return Prediction(label=label, per_class_dissimilarity=tuple(float(v) for v in minima[0]))


def predict_batch(model: CccdModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Labels and the per-class dissimilarity matrix for many points."""
    pts = as_points(points)
    if pts.shape[1] != model.dim:
        raise ValueError(f"dimension mismatch: points have {pts.shape[1]}, model expects {model.dim}")
    minima = _class_minima(model, pts)
    return _labels(minima, model.class_counts), minima


def _gap(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    pos_inf = np.isinf(pos)
    neg_inf = np.isinf(neg)
    out = np.where(neg_inf, LARGE_GAP, np.where(pos_inf, -LARGE_GAP, 0.0))
    both_fin = ~pos_inf & ~neg_inf
    out[both_fin] = neg[both_fin] - pos[both_fin]
    out[pos_inf & neg_inf] = 0.0
    return out


def discriminant(model: CccdModel, z, positive_class: int) -> float:
    """Continuous two-class score: larger means more like the positive class.

    Defined as (min dissimilarity to the negative class) minus (min
    dissimilarity to the positive class), with an infinite side replaced
    by a +-LARGE_GAP sentinel; its sign agrees with predict up to ties.
    """
    return float(discriminant_batch(model, as_point(z)[None, :], positive_class)[0])


def discriminant_batch(model: CccdModel, points, positive_class: int) -> np.ndarray:
    if model.n_classes != 2:
        raise ValueError("the discriminant is defined for two-class models only")
    if positive_class not in (0, 1):
        raise ValueError("positive_class must be one of the model's class ids")
    pts = as_points(points)
    if pts.shape[1] != model.dim:
        raise ValueError(f"dimension mismatch: points have {pts.shape[1]}, model expects {model.dim}")
    minima = _class_minima(model, pts)
    return _gap(minima[:, positive_class], minima[:, 1 - positive_class])


def model_to_dict(model: CccdModel) -> dict:
    covers = []
    for cover, n_train in zip(model.covers, model.class_counts):
        columns = {"center": cover.centers, "center_index": cover.center_index, "radius": cover.radii}
        if cover.scores is not None:
            columns["score"] = cover.scores
        rows = zip(*(arr.tolist() for arr in columns.values()))
        covers.append(
            {
                "class_id": int(cover.class_id),
                "is_pure": cover.is_pure,
                "is_proper": cover.is_proper,
                "n_train": n_train,
                "balls": [dict(zip(columns, row)) for row in rows],
            }
        )
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "variant": model.variant,
        "dim": int(model.dim),
        "hyper": dict(model.hyper),
        "label_map": list(model.label_map),
        "covers": covers,
    }


def _is_number(v) -> bool:
    """A finite JSON number that converts to float64 (bools excluded)."""
    if type(v) is int:
        return abs(v) <= sys.float_info.max  # exact; no overflow on huge ints
    return type(v) is float and math.isfinite(v)


def _is_count(v, low: int) -> bool:
    """An integer in [low, 2**63 - 1]; a larger one overflows numpy's int64."""
    return isinstance(v, int) and not isinstance(v, bool) and low <= v <= sys.maxsize


def _check_model_doc(doc) -> None:
    """Check a whole model document against the schema model_to_dict
    writes; the first problem found raises ValueError."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"invalid model: {what}")

    need(isinstance(doc, dict), "the document must be a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    missing = [k for k in ("variant", "dim", "hyper", "label_map", "covers") if k not in doc]
    need(not missing, f"missing key(s) {', '.join(missing)}")
    variant = doc["variant"]
    need(isinstance(variant, str) and variant in HYPER_KEY, f"unknown variant {variant!r}")
    dim = doc["dim"]
    need(_is_count(dim, 1), "dim must be a positive integer")
    hyper = doc["hyper"]
    key = HYPER_KEY[variant]
    need(isinstance(hyper, dict) and key in hyper, f"hyper must hold {key!r} for the {variant} variant")
    need(_is_number(hyper[key]), f"hyper {key} must be a finite number")
    check_hyper(key, hyper[key])
    covers, labels = doc["covers"], doc["label_map"]
    need(isinstance(covers, list) and len(covers) >= 2, "covers must list at least two classes")
    need(
        isinstance(labels, list) and len(labels) == len(covers) and all(isinstance(v, str) for v in labels),
        "label_map must name each class with a string",
    )
    for c, cd in enumerate(covers):
        at = f"covers[{c}]"
        need(isinstance(cd, dict), f"{at} must be an object")
        missing = [k for k in ("class_id", "is_pure", "is_proper", "n_train", "balls") if k not in cd]
        need(not missing, f"{at} is missing key(s) {', '.join(missing)}")
        need(_is_count(cd["class_id"], 0) and cd["class_id"] == c, f"{at}.class_id must be {c}")
        need(isinstance(cd["is_pure"], bool) and isinstance(cd["is_proper"], bool), f"{at} flags must be booleans")
        n_train = cd["n_train"]
        need(_is_count(n_train, 1), f"{at}.n_train must be a positive integer")
        balls = cd["balls"]
        need(isinstance(balls, list) and len(balls) > 0, f"{at}.balls must be a non-empty list")
        for b, bd in enumerate(balls):
            at = f"covers[{c}].balls[{b}]"
            need(isinstance(bd, dict), f"{at} must be an object")
            center = bd.get("center")
            need(
                isinstance(center, list) and len(center) == dim and all(_is_number(v) for v in center),
                f"{at}.center must be {dim} finite numbers",
            )
            index = bd.get("center_index")
            need(_is_count(index, 0) and index < n_train, f"{at}.center_index must be in [0, n_train)")
            radius = bd.get("radius")
            need(_is_number(radius) and radius >= 0, f"{at}.radius must be a finite number >= 0")
            if variant == VARIANT_RW:
                need(_is_number(bd.get("score")), f"{at}.score must be a finite number")
            else:
                need("score" not in bd, f"{at} must not carry a score in a pure model")


def model_from_dict(doc: dict) -> CccdModel:
    """Model from a document in the model_to_dict schema; any departure
    from the schema raises ValueError."""
    _check_model_doc(doc)
    variant = doc["variant"]
    covers = tuple(  # ClassCover turns each list into an array in one np.array call
        ClassCover(
            class_id=cd["class_id"],
            centers=[b["center"] for b in cd["balls"]],
            center_index=[b["center_index"] for b in cd["balls"]],
            radii=[b["radius"] for b in cd["balls"]],
            is_pure=cd["is_pure"],
            is_proper=cd["is_proper"],
            scores=[b["score"] for b in cd["balls"]] if variant == VARIANT_RW else None,
        )
        for cd in doc["covers"]
    )
    return CccdModel(
        variant=variant,
        covers=covers,
        hyper=dict(doc["hyper"]),
        dim=doc["dim"],
        label_map=tuple(doc["label_map"]),
        class_counts=tuple(cd["n_train"] for cd in doc["covers"]),
    )


def model_to_json(model: CccdModel) -> str:
    """JSON with full float precision; reloading reproduces predictions
    bit-exactly."""
    return json.dumps(model_to_dict(model), indent=2)


def model_from_json(text: str) -> CccdModel:
    return model_from_dict(json.loads(text))


def save_model(model: CccdModel, path) -> None:
    write_text_atomic(path, model_to_json(model) + "\n")


def load_model(path) -> CccdModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(fh.read())


def with_hyper(model: CccdModel, **hyper) -> CccdModel:
    """Same covers, different prediction hyperparameters (e.g. a new e)."""
    merged = dict(model.hyper)
    merged.update({k: check_hyper(k, v) for k, v in hyper.items()})
    return replace(model, hyper=merged)
