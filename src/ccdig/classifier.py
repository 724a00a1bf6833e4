"""Cover-based classification: scaled dissimilarity, training, prediction.

A trained model holds one ball cover per class, a `ClassCover` of
arrays: open balls for the pure variant, closed balls with scores for
the random-walk one. A query point's dissimilarity to a class is the
minimum over that class's balls of d(z, center) / radius; the
random-walk variant sharpens each ball's vote by raising it to the
power score**e. Prediction is the argmin over classes. The query path
and the model JSON read and write the cover's arrays directly.

The query path (`predict_batch`, `discriminant_batch`) works on blocks
of at most rows = core.block_rows(QUERY_BLOCK_BYTES, b) queries, b the
largest ball count of a class. A batch of at most `rows` queries is one
block, and each class's minimum is taken over the block's distances to
all its balls (`_block_minima`); every one-row batch runs this way, and
so does the `simulate` harness, on the columns of its own shared
distance blocks. A larger batch is split into leaves: a segment of
queries is cut at the median of its widest coordinate until it has at
most `rows` queries (Bentley's k-d split), and each leaf's minima are
scattered back through its query indices.

A query's minimum comes from a ball near it, so a leaf needs only the
balls that can reach the leaf's best upper bound. For each class, with
the leaf's bounding box [lo, hi]:

- Lower bound. p_j = clip(c_j, lo, hi) is the box point nearest center
  c_j, and the bound of ball j is the dissimilarity pipeline (kernel,
  division by the radius, zero-radius fix-up, power) applied to the
  kernel's distance between p_j - c_j and the origin. For a query z in
  the box each coordinate has |fl(p_jk - c_jk)| <= |fl(z_k - c_jk)|,
  because p_jk lies between c_jk and z_k and rounding is monotone; the
  kernel squares and adds those terms in the same order for both, and
  sqrt and the division are monotone too. So the bound's distance and
  its ratio to the radius never exceed the query's computed ones, with
  no rounding slack; a zero-radius ball's bound is inf only when its
  value is inf for every query of the box. Only the power is not monotone as computed: the base
  is sharpened by the RW exponent max(score, SCORE_CLAMP)**e, which is
  positive (about m at most for a trained cover, any finite value for
  a loaded one), and pow is accurate to a few ulps whatever the exponent,
  so the bound can exceed the query's value by a relative few times
  2**-53, or by a few subnormal ulps where the result is subnormal.
- Upper bound. The SEEDS balls with the smallest bounds get their exact
  values over the leaf; U is the largest over the leaf's queries of the
  smallest seed value.
- Keep. Every other ball whose bound is at most U * (1 + SLACK) + tiny
  gets its exact values too, with SLACK = 2**-20 and tiny the smallest
  normal double: far above pow's relative error, and tiny above its
  subnormal one. A ball that attains some query's minimum below its
  seed minimum has a value < U, hence a bound within the slack, so it
  is kept; an infinite U keeps every ball. Each query's minimum is the
  smaller of its seed and kept minima. Every entry comes from the same
  per-entry kernel and pipeline, and `min` is exact, so the minima are
  bit-identical to the one-block ones. (numpy's power rounds an entry
  the same way in any matrix of two or more columns, but a one-column
  matrix goes to its scalar pow, which can differ in the last bit; so no
  pruned matrix has one column.)

Classes of a few dozen balls gain nothing from leaves, because their
leaves are few and large (rows grows as b shrinks).

Memory: a block's distances to one class's kept balls (8 bytes per
query-ball pair, at most QUERY_BLOCK_BYTES) are reduced to that class's
minimum before the next class. A batch keeps 8 * n_classes bytes per
query for the minima and 8 more for its label, beside its own 8 * d; a
split batch also keeps 8 bytes per query for the leaf indices, and
splitting a segment gathers one coordinate and a partition order of it
(16 more bytes per query of the segment). On top of that comes a
fixed amount that does not grow with the batch: the 4 MiB block, the
leaf's gathered queries (rows * d * 8 bytes, as large as the kernel's
own transposed copy), a (b, d) bound array and a few length-b vectors
per leaf and class, up to two block-sized temporaries when a class has
zero-radius balls, and the distance kernel's work arrays (at most
1 MiB while b <= 16384 and d <= 128). Under tracemalloc 50k queries
peak at 6.8 MB on the `pure-overlap` model and 6.5 MB on the
`rw-imbalanced` one, against about 870 MB with one block per batch.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, _distances, as_points, block_rows, check_hyper, write_text_atomic
from .pccd import ClassCover, _pure_covers
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

# balls of least lower bound whose exact dissimilarities set a query
# leaf's upper bound; a class with at most this many balls is not pruned.
# At least 2, so that no pruned matrix has a single column (see
# _leaf_minima)
SEEDS = 16

# relative slack of the pruning test; it covers pow's rounding, a few
# ulps (see the module notes)
SLACK = 2.0**-20

# the one hyperparameter each variant needs
HYPER_KEY = {VARIANT_PURE: "tau", VARIANT_RW: "e"}


@dataclass(frozen=True, eq=False)
class CccdModel:
    """Per-class ball covers plus the hyperparameter that built them.

    hyper is exactly {HYPER_KEY[variant]: value}. The value is range-checked
    here, so a model built, loaded or replaced with a bad one never exists.
    """

    variant: str
    covers: tuple[ClassCover, ...]
    hyper: dict
    dim: int
    label_map: tuple[str, ...]
    class_counts: tuple[int, ...]

    def __post_init__(self):
        if self.variant not in HYPER_KEY:
            raise ValueError(f"unknown variant {self.variant!r}")
        key = HYPER_KEY[self.variant]
        if not isinstance(self.hyper, dict) or set(self.hyper) != {key}:
            raise ValueError(f"hyper must hold {key!r} and nothing else for the {self.variant} variant")
        if len(self.covers) < 2:
            raise ValueError("a model needs at least two classes")
        if len(self.label_map) != len(self.covers) or len(self.class_counts) != len(self.covers):
            raise ValueError("covers, label_map and class_counts must align")
        for cover in self.covers:
            if (cover.scores is not None) != (self.variant == VARIANT_RW):
                raise ValueError("random-walk covers must carry scores and pure covers none")
            if cover.centers.shape[1] != self.dim:
                raise ValueError("ball dimension does not match the model")
        object.__setattr__(self, "hyper", {key: check_hyper(key, self.hyper[key])})
        object.__setattr__(self, "covers", tuple(self.covers))
        object.__setattr__(self, "label_map", tuple(self.label_map))
        object.__setattr__(self, "class_counts", tuple(int(c) for c in self.class_counts))

    @property
    def n_classes(self) -> int:
        return len(self.covers)


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
    parts = [data.points[data.labels == c] for c in range(data.n_classes)]
    if variant == VARIANT_PURE:
        covers = _pure_covers(parts, hyper["tau"])
    else:
        covers = [rw_cover(targets, data.points[data.labels != c], class_id=c) for c, targets in enumerate(parts)]
    return CccdModel(
        variant=variant,
        covers=tuple(covers),
        hyper=hyper,
        dim=data.dim,
        label_map=data.label_names,
        class_counts=tuple(int(c) for c in data.class_counts),
    )


def _class_minima(model: CccdModel, points: np.ndarray) -> np.ndarray:
    """(n_points, n_classes) matrix of per-class minimum dissimilarities;
    see the module notes on the query leaves, the bound and memory."""
    terms = _cover_terms(model)
    rows = block_rows(QUERY_BLOCK_BYTES, max(cover.n_balls for cover in model.covers))
    if len(points) <= rows:
        if not len(points):
            return np.empty((0, model.n_classes), dtype=np.float64)
        return _block_minima(terms, (_distances(points, term[0]) for term in terms), len(points))
    out = np.empty((len(points), model.n_classes), dtype=np.float64)
    for leaf in _leaves(points, rows):
        block = points[leaf]
        lo, hi = block.min(axis=0), block.max(axis=0)
        for c, term in enumerate(terms):
            out[leaf, c] = _leaf_minima(block, lo, hi, term)
    return out


def _cover_terms(model: CccdModel) -> list[tuple]:
    """Per class: the ball centers, the radii with 1 in place of 0, the
    zero-radius mask and the RW exponent (None for a pure model)."""
    terms = []
    for cover in model.covers:
        radii = cover.radii
        exponent = None
        if model.variant == VARIANT_RW:
            exponent = np.maximum(cover.scores, SCORE_CLAMP) ** model.hyper["e"]
        terms.append((cover.centers, np.where(radii > 0, radii, 1.0), radii <= 0, exponent))
    return terms


def _block_minima(terms, distances, rows: int) -> np.ndarray:
    """(rows, n_classes) per-class minima of one query block. `distances`
    yields, in class order, a fresh (rows, balls) matrix of the block's
    distances to that class's centers, which is scaled in place."""
    out = np.empty((rows, len(terms)), dtype=np.float64)
    for c, (term, rho) in enumerate(zip(terms, distances)):
        out[:, c] = _scale(rho, *term[1:]).min(axis=1)
    return out


def _dissimilarities(points, centers, safe, zero, exponent) -> np.ndarray:
    """(len(points), len(centers)) matrix of scaled dissimilarities."""
    return _scale(_distances(points, centers), safe, zero, exponent)


def _scale(rho, safe, zero, exponent) -> np.ndarray:
    """Turn distances to the balls of the columns into dissimilarities, in place."""
    rho /= safe  # a zero-radius column keeps its distance (safe radius 1)
    if zero.any():
        rho[:, zero] = np.where(rho[:, zero] == 0.0, 0.0, np.inf)
    if exponent is not None:
        with np.errstate(over="ignore"):  # huge rho**exponent saturates to inf
            rho **= exponent
    return rho


def _leaves(points: np.ndarray, rows: int):
    """Index arrays of at most `rows` points each that partition the
    batch: a segment is split at the median of its widest coordinate
    until it fits. The segments are slices of one permutation. Each split
    gathers its segment once, laid out one contiguous row per coordinate:
    numpy reduces an (n, 3) block down its columns slower than it gathers
    it."""
    perm = np.arange(len(points))
    stack = [(0, len(points))]
    while stack:
        start, stop = stack.pop()
        seg = perm[start:stop]
        if stop - start <= rows:
            yield seg
            continue
        coords = points.take(seg, axis=0).T.copy()
        half = (stop - start) // 2
        seg[:] = seg[np.argpartition(coords[np.argmax(np.ptp(coords, axis=1))], half)]
        stack += [(start + half, stop), (start, start + half)]


def _leaf_minima(block, lo, hi, term) -> np.ndarray:
    """Per-point minimum dissimilarity of the block, whose bounding box is
    [lo, hi], over the balls that can hold it."""
    centers, safe, zero, exponent = term
    if len(centers) <= SEEDS:
        return _dissimilarities(block, *term).min(axis=1)
    # the kernel's own distance from each center to its nearest box point;
    # a difference can reach twice as_points' bound, which the kernel holds
    gap = _distances(np.clip(centers, lo, hi) - centers, np.zeros((1, centers.shape[1])))
    bound = _scale(gap.T, safe, zero, exponent)[0]
    seeds = np.argpartition(bound, SEEDS - 1)[:SEEDS]
    best = _dissimilarities(block, *_take(term, seeds)).min(axis=1)
    rest = bound <= best.max() * (1 + SLACK) + np.finfo(np.float64).tiny
    rest[seeds] = False
    if np.count_nonzero(rest) == 1:
        # numpy powers a one-column matrix with its scalar pow, whose last
        # bit can differ from the vector loop a wider matrix gets, so a lone
        # ball is computed beside a seed (SEEDS >= 2 for the same reason)
        rest[seeds[0]] = True
    if rest.any():
        np.minimum(best, _dissimilarities(block, *_take(term, rest)).min(axis=1), out=best)
    return best


def _take(term, index):
    return tuple(None if a is None else a[index] for a in term)


def _labels(minima: np.ndarray, class_counts: tuple[int, ...]) -> np.ndarray:
    """Row-wise argmin with ties broken toward the larger class, then the
    lower id: the first minimum over the columns in that order."""
    order = np.argsort(-np.asarray(class_counts, dtype=np.int64), kind="stable")
    return order[np.argmin(minima[:, order], axis=1)]


def _batch_minima(model: CccdModel, points) -> np.ndarray:
    """Per-class minima of a batch of points of the model's dimension."""
    pts = as_points(points)
    if pts.shape[1] != model.dim:
        raise ValueError(f"dimension mismatch: points have {pts.shape[1]}, model expects {model.dim}")
    return _class_minima(model, pts)


def predict_batch(model: CccdModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Labels and the per-class dissimilarity matrix for many points."""
    minima = _batch_minima(model, points)
    return _labels(minima, model.class_counts), minima


def discriminant_batch(model: CccdModel, points, positive_class: int) -> np.ndarray:
    """Continuous two-class score: larger means more like the positive class.

    Defined per point as (min dissimilarity to the negative class) minus
    (min dissimilarity to the positive class), with an infinite side
    replaced by a +-LARGE_GAP sentinel; its sign agrees with predict_batch
    up to ties.
    """
    if model.n_classes != 2:
        raise ValueError("the discriminant is defined for two-class models only")
    if positive_class not in (0, 1):
        raise ValueError("positive_class must be one of the model's class ids")
    return _gap(_batch_minima(model, points), positive_class)


def _gap(minima: np.ndarray, positive_class: int) -> np.ndarray:
    """The discriminant of each row of two-class minima."""
    with np.errstate(invalid="ignore"):  # inf - inf: both sides infinitely far, a gap of 0
        gap = minima[:, 1 - positive_class] - minima[:, positive_class]
    return np.nan_to_num(gap, copy=False, nan=0.0, posinf=LARGE_GAP, neginf=-LARGE_GAP)


def _is_number(v) -> bool:
    """A finite JSON number that converts to float64 (bools excluded)."""
    if type(v) is int:
        return abs(v) <= sys.float_info.max  # exact; no overflow on huge ints
    return type(v) is float and math.isfinite(v)


def _is_count(v, low: int) -> bool:
    """An integer in [low, 2**63 - 1]; a larger one overflows numpy's int64."""
    return isinstance(v, int) and not isinstance(v, bool) and low <= v <= sys.maxsize


def model_from_dict(doc: dict) -> CccdModel:
    """Model from a document in the model_to_json schema; the first
    departure from the schema raises ValueError. This is the one walk over
    the document: it checks each value and keeps it with its ball. The
    covers are built only after the whole document has passed, so a later
    schema fault wins over an earlier center past the coordinate bound."""

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
    need(
        isinstance(hyper, dict) and set(hyper) == {key},
        f"hyper must hold {key!r} and nothing else for the {variant} variant",
    )
    need(_is_number(hyper[key]), f"hyper {key} must be a finite number")
    try:
        check_hyper(key, hyper[key])
    except ValueError as err:
        need(False, f"hyper {err}")
    covers, labels = doc["covers"], doc["label_map"]
    need(isinstance(covers, list) and len(covers) >= 2, "covers must list at least two classes")
    need(
        isinstance(labels, list) and len(labels) == len(covers) and all(isinstance(v, str) for v in labels),
        "label_map must name each class with a string",
    )
    kept = []  # per cover: its flags, then its balls' columns
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
        rows = []  # each ball's (center, center_index, radius, score)
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
            score = bd.get("score")
            if variant == VARIANT_RW:
                need(_is_number(score), f"{at}.score must be a finite number")
            else:
                need("score" not in bd, f"{at} must not carry a score in a pure model")
            rows.append((center, index, radius, score))
        kept.append((cd["is_pure"], cd["is_proper"], *zip(*rows)))
    return CccdModel(
        variant=variant,
        covers=tuple(  # ClassCover turns each column into an array in one np.array call
            ClassCover(c, centers, index, radii, is_pure, is_proper, scores if variant == VARIANT_RW else None)
            for c, (is_pure, is_proper, centers, index, radii, scores) in enumerate(kept)
        ),
        hyper=dict(hyper),
        dim=dim,
        label_map=tuple(labels),
        class_counts=tuple(cd["n_train"] for cd in covers),
    )


def model_to_json(model: CccdModel) -> str:
    """JSON with full float precision; reloading reproduces predictions
    bit-exactly.

    The text is exactly `json.dumps(doc, indent=2)` of the model document
    with one object per ball (the oracle `tests/helpers.py::model_json`).
    Everything but the ball lists goes through `json.dumps`, so label
    names and the hyperparameter are escaped by json itself; each
    cover's balls are written by one `%` format over a per-ball template
    repeated once per ball (`_balls_json`)."""
    head = json.dumps(
        {
            "format_version": MODEL_FORMAT_VERSION,
            "variant": model.variant,
            "dim": int(model.dim),
            "hyper": dict(model.hyper),
            "label_map": list(model.label_map),
            "covers": [
                {
                    "class_id": int(cover.class_id),
                    "is_pure": cover.is_pure,
                    "is_proper": cover.is_proper,
                    "n_train": n_train,
                    "balls": [],
                }
                for cover, n_train in zip(model.covers, model.class_counts)
            ],
        },
        indent=2,
    )
    # json escapes every quote inside a string, so this text is only ever the key
    pieces = head.split('"balls": []')
    return pieces[0] + "".join(f'"balls": {_balls_json(c)}{rest}' for c, rest in zip(model.covers, pieces[1:]))


def _balls_json(cover: ClassCover) -> str:
    """A cover's ball list as `json.dumps(..., indent=2)` writes it as the
    value of a cover's "balls" key. json writes a finite float as
    `float.__repr__` does, which `%r` calls, and an int as `%d` does."""
    d = cover.centers.shape[1]
    columns = [cover.centers[:, j] for j in range(d)] + [cover.center_index, cover.radii]
    score = ""
    if cover.scores is not None:
        columns.append(cover.scores)
        score = ',\n          "score": %r'
    values = [None] * (len(columns) * cover.n_balls)
    for j, column in enumerate(columns):
        values[j :: len(columns)] = column.tolist()
    center = ",\n".join(["            %r"] * d)
    ball = (
        f'\n        {{\n          "center": [\n{center}\n          ],'
        f'\n          "center_index": %d,\n          "radius": %r{score}\n        }}'
    )
    return "[" + ",".join([ball] * cover.n_balls) % tuple(values) + "\n      ]"


def model_from_json(text: str) -> CccdModel:
    try:
        doc = json.loads(text)
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError("invalid model: JSON nested too deeply") from None
    return model_from_dict(doc)


def save_model(model: CccdModel, path) -> None:
    write_text_atomic(path, model_to_json(model) + "\n")


def load_model(path) -> CccdModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(fh.read())
