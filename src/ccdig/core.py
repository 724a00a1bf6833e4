"""Points, labeled datasets, distance matrices, box samplers, CSV ingestion,
and the atomic file writer the model and report outputs go through.

Everything downstream works on plain float64 numpy arrays: a point is a
1-D array of coordinates, a point set is an (n, d) matrix. All containers
are frozen after construction so they can be shared across threads.

The distance kernel spends its time in one broadcast subtraction per
coordinate, `np.subtract(a[:, None], b, out=dst)`. Under numpy's default
8192-entry ufunc buffer that costs 1.0-1.5 ns per entry for rows of 64
to 2000 entries, against 0.3-0.6 ns (0.9 at 64) with a 16-entry buffer,
and the doubles are the same (numpy 2.4, one thread of a 2-core host);
rows of 16 entries run faster buffered, about 2 against 3 ns. So the
block loop runs with a 16-entry buffer once its contiguous axis has
UNBUFFERED_MIN entries and neither set is one point (a one-row or
one-column broadcast is one-dimensional: the buffer costs it nothing,
and setting the size 2-3 us), and sums blocks against fewer columns
transposed. The one place that sets the size is `unbuffered`, which
restores the caller's size in a `finally`: the size is per-thread state,
`np.errstate` restores it only from numpy 2.0 on, and a process-wide
16-entry buffer makes casting reductions such as
`np.count_nonzero(mask, axis=1)` about 5x slower. The pure fit's radii
and catch rows run under it too; reductions that cast stay outside.

A point set is checked once, where it enters (`as_points`): library code
calls `_distances` and `row_blocks`, not the checking `cross_distance_matrix`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np


# numpy adds up to this many float64 terms in one block of eight
# interleaved accumulators; longer sums are split pairwise
PAIRWISE_MAX = 128

# entries per work array of the distance kernel (128 KiB, cache-sized)
KERNEL_BLOCK = 1 << 14

# shortest contiguous axis the distance kernel runs with numpy's ufunc
# buffer at its minimum; shorter ones run faster buffered
UNBUFFERED_MIN = 64


class DatasetFormatError(ValueError):
    """Raised when CSV input violates the dataset format."""


def as_points(ps) -> np.ndarray:
    """Coerce a sequence of points to an (n, d) float64 matrix.

    A 1-D input is read as n scalar (one-dimensional) points. Every
    coordinate must be finite and at most sqrt(max_double / (8 d)) in
    magnitude: then a squared distance between two points, at most
    4 d times that bound squared, stays at most max_double / 2.
    """
    arr = np.asarray(ps, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"a point set must be two-dimensional, got shape {arr.shape}")
    if arr.size:
        bound = math.sqrt(sys.float_info.max / (8 * arr.shape[1]))
        if not (-bound <= arr.min() and arr.max() <= bound):  # nan fails too; no (n, d) temporary
            if not np.isfinite(arr).all():
                raise ValueError("point coordinates must be finite")
            raise ValueError(f"point coordinates must be at most {bound:.4g} in magnitude (d = {arr.shape[1]})")
    return arr


def check_hyper(key: str, value) -> float:
    """The one range check of the hyperparameters: tau in (0,1] for pure
    covers, e in [0,1] for random-walk scores, k a positive integer for
    k-NN. Returns the value as a float; any other key raises."""
    if key not in ("tau", "e", "k"):
        raise ValueError(f"unknown hyperparameter {key!r}")
    try:
        value = float(value)
    except OverflowError:  # an int too large for a float is out of every range
        value = math.inf
    if key == "tau" and not 0.0 < value <= 1.0:
        raise ValueError("tau must be in (0,1]")
    if key == "e" and not 0.0 <= value <= 1.0:
        raise ValueError("e must be in [0,1]")
    if key == "k" and not (value >= 1 and value.is_integer()):  # inf and nan fail too
        raise ValueError("k must be a positive integer")
    return value


def check_integer(name: str, value) -> None:
    """Reject a size, count or seed that is not an integer (numpy integers
    pass), naming it, before it fails deep inside numpy or range."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def cross_distance_matrix(A, B) -> np.ndarray:
    """All pairwise Euclidean distances, entry (i, j) = |A[i] - B[j]|.

    Each entry is bit-identical to sqrt(((A[i] - B[j]) ** 2).sum()), for
    every d: the squared differences are summed one coordinate at a time
    and in the order numpy's float64 sum uses, so no (rows, m, d)
    temporary is built. Rows are taken in blocks of KERNEL_BLOCK // m (at
    least one). A block is summed straight into the output or, where the
    loop runs with numpy's ufunc buffer at its minimum (see the module
    notes) and m < UNBUFFERED_MIN, as its (m, rows) transpose, y - x
    squaring to the same double as x - y, whose square root is written
    into the output. The work arrays are blocks of
    max(KERNEL_BLOCK, m) float64 entries (128 KiB at m <= 16384): one
    block (d < 8) or eight, one more for the transposed sums, plus a
    spare block for each open level at which a sum of more than
    PAIRWISE_MAX terms is split in two (two at d = 257, five at d = 3000).
    """
    a = as_points(A)
    b = as_points(B)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("cannot build a distance matrix over an empty point set")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return _distances(a, b)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`cross_distance_matrix` of (n, d) and non-empty (m, d) float64
    matrices, without its checks. A coordinate difference of up to twice
    the `as_points` bound squares to at most max_double / (2 d), so d of
    them still sum without overflow."""
    n, m, d = len(a), len(b), a.shape[1]
    out = np.empty((n, m), dtype=np.float64)
    at, bt = a.T.copy(), b.T.copy()  # one contiguous row per coordinate
    rows = max(1, KERNEL_BLOCK // m)
    slots = 1 if d < 8 else 8
    buffered = min(n, m) == 1 or max(n, m) < UNBUFFERED_MIN
    flip = not buffered and m < UNBUFFERED_MIN  # short rows: sum each block as its (m, rows) transpose
    shape = (m, min(rows, n)) if flip else (min(rows, n), m)
    work = np.empty((slots, *shape), dtype=np.float64)
    acc = np.empty(shape, dtype=np.float64) if flip else None
    with unbuffered(not buffered):
        for i in range(0, n, rows):
            block = out[i : i + rows]
            r = len(block)
            if flip:
                _sum_squares(bt, at[:, i : i + rows], acc[:, :r], work[:, :, :r])
                np.sqrt(acc[:, :r], out=block.T)
            else:
                _sum_squares(at[:, i : i + rows], bt, block, work[:, :r])
    return out if flip else np.sqrt(out, out=out)


@contextlib.contextmanager
def unbuffered(on: bool):
    """Run the body with numpy's ufunc buffer at 16 entries, its minimum,
    and restore the caller's size after it, also when it raises; with
    `on` false the body runs under the caller's size. For broadcasts
    over rows of UNBUFFERED_MIN entries or more, not for reductions that
    cast (see the module notes)."""
    old = np.setbufsize(16) if on else None
    try:
        yield
    finally:
        if old is not None:
            np.setbufsize(old)


def block_rows(budget: int, cols: int) -> int:
    """Rows of float64 over `cols` columns that fit in `budget` bytes, at least one."""
    return max(1, budget // (8 * cols))


def row_blocks(a: np.ndarray, b: np.ndarray, budget: int):
    """Yield (rows, `_distances(a[rows], b)`) over consecutive slices `rows`
    of block_rows(budget, len(b)) rows of `a`, for `_distances`' a and b."""
    step = block_rows(budget, len(b))
    for i in range(0, len(a), step):
        yield slice(i, i + step), _distances(a[i : i + step], b)


def _sum_squares(at, bt, out, work) -> None:
    """out[i, j] = sum over k of (at[k, i] - bt[k, j]) ** 2, added in
    numpy's pairwise order. Up to PAIRWISE_MAX terms: plain below 8
    terms; otherwise 8 interleaved accumulators, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the d % 8 tail in order.
    A longer sum is split after half its terms, rounded down to a
    multiple of 8; each half is summed the same way, the second into a
    spare block, and the two are added. `work` holds the term (slot 0)
    and, from 8 terms on, accumulators r1..r7 (slots 1-7; out is r0).
    It recurses as a plain function: a recursive closure refers to
    itself, and that cycle would keep each call's work arrays alive
    until the garbage collector ran."""
    n = len(at)
    if n > PAIRWISE_MAX:
        mid = n // 2 - n // 2 % 8
        _sum_squares(at[:mid], bt[:mid], out, work)
        spare = np.empty_like(out)
        _sum_squares(at[mid:], bt[mid:], spare, work)
        out += spare
        return
    term = work[0]
    if n < 8:
        _square(at[0], bt[0], out)
        tail = 1
    else:
        acc = [out, *work[1:]]
        for j in range(8):
            _square(at[j], bt[j], acc[j])
        tail = n - n % 8
        for k in range(8, tail):
            _square(at[k], bt[k], term)
            acc[k % 8] += term
        for x, y in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
            acc[x] += acc[y]
    for k in range(tail, n):
        _square(at[k], bt[k], term)
        out += term


def _square(a, b, dst) -> None:
    """dst[i, j] = (a[i] - b[j]) ** 2 for one coordinate."""
    np.subtract(a[:, None], b, out=dst)
    np.multiply(dst, dst, out=dst)


def sample_uniform_box(d: int, low, high, n: int, seed) -> np.ndarray:
    """Draw n points with independent uniform coordinates on [low_i, high_i).

    `seed` may be an integer or a numpy Generator; an integer always yields
    the same sample. `low`/`high` may be scalars or length-d vectors.
    """
    check_integer("d", d)
    check_integer("n", n)
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if n < 1:
        raise ValueError("need at least one sample")
    lo = np.broadcast_to(np.asarray(low, dtype=np.float64), (d,)).copy()
    hi = np.broadcast_to(np.asarray(high, dtype=np.float64), (d,)).copy()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("box bounds must be finite")
    if not np.all(lo < hi):
        raise ValueError("degenerate interval: low must be < high componentwise")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    pts = lo + (hi - lo) * rng.random((n, d))
    # guard the half-open contract against upward rounding at the top edge
    return np.minimum(pts, np.nextafter(hi, lo))


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Points in d-dimensional space with dense integer class labels.

    Labels run 0..k-1 and every declared class is non-empty. `label_names`
    keeps the original spelling of each class for round trips to CSV.
    """

    points: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...] = ()

    def __post_init__(self):
        pts = as_points(self.points)
        labs = np.asarray(self.labels, dtype=np.int64)
        if labs.ndim != 1 or len(labs) != len(pts):
            raise ValueError("points and labels must have matching length")
        if len(pts) == 0:
            raise ValueError("dataset must contain at least one point")
        if labs.min() < 0:
            raise ValueError("labels must be non-negative")
        names = tuple(self.label_names) or tuple(str(i) for i in range(labs.max() + 1))
        if len(names) != labs.max() + 1:
            raise ValueError("label_names must list every class exactly once")
        counts = np.bincount(labs, minlength=len(names))
        if counts.min() == 0:
            raise ValueError("every declared class needs at least one point")
        pts = pts.copy()
        pts.flags.writeable = False
        labs = labs.copy()
        labs.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "label_names", names)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    @property
    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


def _read_rows(text, label_columns: int) -> tuple[list[str], np.ndarray, list[list[str]]]:
    """The one CSV row reader: a header row, then data rows whose leading
    columns are finite numbers and whose last `label_columns` are kept as
    text. Returns the header, the (rows, features) float64 matrix and
    the raw rows. Once no row is ragged, every feature cell goes through
    `float()` in one `np.fromiter` pass; any fault is then named by
    `_first_fault`. Row numbers in error messages are 1-based and count
    the header."""
    reader = None
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        reader = csv.reader(io.StringIO(text) if isinstance(text, str) else text)
        rows = list(reader)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DatasetFormatError(f"row {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        # exc.object is the whole input (bytes) or the chunk a text stream
        # was decoding, which continues the first line not yet read
        row = (reader.line_num if reader else 0) + 1 + exc.object[: exc.start].count(b"\n")
        raise DatasetFormatError(f"row {row}: not valid UTF-8 ({exc.reason})") from None
    if len(rows) < 2:
        raise DatasetFormatError("row 2: expected a header row and at least one data row")
    header, data = rows[0], rows[1:]
    features = len(header) - label_columns
    if features < 1:
        and_label = " and a label column" if label_columns else ""
        raise DatasetFormatError(f"row 1: need at least one feature column{and_label}")
    ncols = len(header)
    if not all(len(row) == ncols for row in data):
        raise _first_fault(header, data, features)
    cells = itertools.chain.from_iterable((row[:features] for row in data) if label_columns else data)
    try:
        points = np.fromiter(map(float, cells), np.float64, count=len(data) * features)
    except ValueError:
        raise _first_fault(header, data, features) from None
    if not np.isfinite(points).all():
        raise _first_fault(header, data, features)
    return header, points.reshape(len(data), features), data


def _first_fault(header: list[str], data: list[list[str]], features: int) -> DatasetFormatError:
    """The error of the first data row that is ragged or holds a
    non-numeric or non-finite feature; `_read_rows` found one."""
    for rownum, row in enumerate(data, start=2):
        if len(row) != len(header):
            return DatasetFormatError(f"row {rownum}: expected {len(header)} columns, got {len(row)}")
        for cell, column in zip(row[:features], header):
            try:
                value = float(cell)
            except ValueError:
                return DatasetFormatError(f"row {rownum}: non-numeric feature value {cell!r} in column {column!r}")
            if not math.isfinite(value):
                return DatasetFormatError(f"row {rownum}: non-finite feature value {cell!r}")
    raise AssertionError("no faulty row")


def parse_dataset(text) -> LabeledDataset:
    """Read a CSV dataset: header row, numeric feature columns, label last.

    Labels are remapped to 0..k-1 in first-appearance order; the original
    strings are preserved in `label_names`. Row numbers in error messages
    are 1-based and count the header.
    """
    _, points, rows = _read_rows(text, 1)
    labels = [row[-1] for row in rows]
    names = tuple(dict.fromkeys(labels))
    ids = {name: i for i, name in enumerate(names)}
    return LabeledDataset(
        points=points,
        labels=np.array([ids[label] for label in labels], dtype=np.int64),
        label_names=names,
    )


def parse_feature_csv(text) -> tuple[np.ndarray, tuple[str, ...]]:
    """Read a label-free CSV of numeric features (header required)."""
    header, points, _ = _read_rows(text, 0)
    return points, tuple(header)


def write_text_atomic(path, text: str) -> None:
    """Write text to path through a temporary file renamed into place; on
    any failure the temporary file is removed and the error re-raised, so
    nothing partial is left behind."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise
