"""Tests for points, distances, samplers and CSV ingestion."""

import gc
import io
import itertools
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccdig import core
from ccdig.core import (
    DatasetFormatError,
    LabeledDataset,
    check_hyper,
    cross_distance_matrix,
    parse_dataset,
    parse_feature_csv,
    sample_uniform_box,
)
from helpers import broadcast_distance_matrix, coordinate_bound, dataset_to_csv, distance, feature_matrix

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def points_of_dim(d):
    return st.lists(coord, min_size=d, max_size=d)


def test_distance_345_triangle():
    assert distance((0, 0), (3, 4)) == 5.0


def test_distance_identity():
    assert distance((1, 1), (1, 1)) == 0.0


def test_distance_one_dimensional():
    assert distance((0,), (0.7,)) == pytest.approx(0.7, rel=1e-15)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        distance((0, 0), (1, 2, 3))


def test_distance_rejects_non_finite():
    with pytest.raises(ValueError):
        distance((np.nan,), (0.0,))


@pytest.mark.parametrize("d", [1, 3])
def test_coordinates_up_to_the_bound_give_finite_distances(d, recwarn):
    bound = coordinate_bound(d)
    pts = np.array([[bound] * d, [-bound] * d, [0.0] * d])
    dist = cross_distance_matrix(pts, pts)
    assert np.isfinite(dist).all() and dist[0, 1] == pytest.approx(2 * bound * math.sqrt(d), rel=1e-15)
    assert not recwarn.list
    pts[1, -1] = -np.nextafter(bound, np.inf)
    with pytest.raises(ValueError, match=r"^point coordinates must be at most .* in magnitude \(d = %d\)$" % d):
        cross_distance_matrix(pts, pts[:1])
    for bad in (np.nan, np.inf, -np.inf):
        pts[1, -1] = bad
        with pytest.raises(ValueError, match="^point coordinates must be finite$"):
            LabeledDataset(points=pts, labels=[0, 1, 1])


@settings(max_examples=100)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(points_of_dim(d), points_of_dim(d), points_of_dim(d))))
def test_metric_axioms(triple):
    a, b, c = triple
    d_ab = cross_distance_matrix([a], [b])[0, 0]
    d_ba = cross_distance_matrix([b], [a])[0, 0]
    d_ac = cross_distance_matrix([a], [c])[0, 0]
    d_bc = cross_distance_matrix([b], [c])[0, 0]
    assert d_ab >= 0.0
    assert d_ab == d_ba
    assert d_ac <= d_ab + d_bc + 1e-12


def test_check_hyper_rejects_unknown_keys():
    assert type(check_hyper("tau", 1)) is float and check_hyper("k", 3.0) == 3.0
    for key in ("bogus", "foo", "E", ""):
        with pytest.raises(ValueError, match="unknown hyperparameter"):
            check_hyper(key, "nan")


def test_cross_distance_matrix_examples():
    np.testing.assert_array_equal(cross_distance_matrix([0.0, 1.0], [0.0, 1.0]), [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(cross_distance_matrix([0.0], [2.0, 5.0]), [[2.0, 5.0]])


def test_cross_distance_matrix_self_symmetric_zero_diagonal():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(17, 3))
    M = cross_distance_matrix(A, A)
    np.testing.assert_array_equal(M, M.T)
    np.testing.assert_array_equal(np.diag(M), np.zeros(17))


def test_cross_distance_matrix_matches_scalar_distance_bitwise():
    rng = np.random.default_rng(4)
    for d in (1, 2, 5, 10):
        A = rng.normal(size=(6, d))
        B = rng.normal(size=(4, d))
        M = cross_distance_matrix(A, B)
        for i in range(6):
            for j in range(4):
                assert M[i, j] == distance(A[i], B[j])


def test_cross_distance_matrix_is_the_broadcast_sum_bit_for_bit(monkeypatch):
    # every d up to numpy's pairwise block (128) and past it, then sums
    # numpy splits in two once (256), twice (257), three times (513) and
    # four times (1500); if numpy ever changes the order of its float64
    # sum this test must fail
    monkeypatch.setattr(core, "KERNEL_BLOCK", 24)  # blocks of a few rows
    rng = np.random.default_rng(5)
    for d in (*range(1, 131), 256, 257, 513, 1500):
        scale = 10.0 ** rng.uniform(-3, 3, d)  # uneven terms make the order matter
        A = rng.standard_normal((9, d)) * scale
        B = rng.standard_normal((7, d)) * scale
        B[2] = A[4]  # a point in both sets
        A[6] = A[1]  # a duplicate within one set
        for a, b in ((A, B), (A[:1], B), (A, B[:1]), (A[:1], B[:1]), (B, A)):
            got = cross_distance_matrix(a, b)
            assert np.array_equal(got, broadcast_distance_matrix(a, b)), (d, a.shape, b.shape)
        assert cross_distance_matrix(A, B)[4, 2] == 0.0


@pytest.mark.parametrize("d", [1, 3, 8, 9, 130])
def test_row_blocks_are_the_full_matrix_rows_bit_for_bit(d):
    # a pure fit computes its distances in row blocks; past PAIRWISE_MAX
    # coordinates (d = 130) the kernel splits the sum in two
    rng = np.random.default_rng(d)
    scale = 10.0 ** rng.uniform(-3, 3, d)
    X = rng.standard_normal((11, d)) * scale
    Y = rng.standard_normal((6, d)) * scale
    Y[1] = X[3]
    X[7] = X[2]
    full = cross_distance_matrix(X, Y).view(np.int64)
    for rows in (1, 4, 11):  # one-row, ragged (4 + 4 + 3) and whole splits
        blocks = [cross_distance_matrix(X[i : i + rows], Y).view(np.int64) for i in range(0, len(X), rows)]
        assert np.array_equal(np.vstack(blocks), full), rows


@pytest.mark.parametrize("d", [1, 3, 8, 9, 130])
def test_the_transposed_block_is_equal_bit_for_bit(d):
    # a pure fit reads each class pair's (c, c') block once, its column
    # minima standing for the (c', c) block's row minima; past
    # PAIRWISE_MAX coordinates (d = 130) the kernel splits the sum in two
    rng = np.random.default_rng(d)
    scale = 10.0 ** rng.uniform(-3, 3, d)
    X = rng.standard_normal((11, d)) * scale
    Y = rng.standard_normal((6, d)) * scale
    Y[1] = X[3]
    got = cross_distance_matrix(Y, X)
    assert np.array_equal(got.view(np.int64), cross_distance_matrix(X, Y).T.view(np.int64))


@pytest.mark.parametrize("d", [1, 3, 8, 9, 130, 257])
def test_cross_distance_matrix_at_the_unbuffered_thresholds_is_bit_for_bit(d):
    # rows of 64 or more entries run unbuffered, and fewer than 64 columns
    # against 64 or more rows run transposed; 300 rows make ragged last
    # blocks on both paths (54 rows against 300 columns, 40 against 63)
    rng = np.random.default_rng(d)
    scale = 10.0 ** rng.uniform(-3, 3, d)
    X = rng.standard_normal((300, d)) * scale
    Y = rng.standard_normal((300, d)) * scale
    Y[1] = X[0]  # a point in both sets
    X[1] = X[0]  # a duplicate within one set
    for n, m in itertools.product((1, 2, 63, 64, 65, 300), repeat=2):
        got = cross_distance_matrix(X[:n], Y[:m])
        assert np.array_equal(got.view(np.int64), broadcast_distance_matrix(X[:n], Y[:m]).view(np.int64)), (n, m)


SHAPES = {"unbuffered": (50, 400), "transposed": (400, 50), "small": (10, 10)}


@pytest.mark.parametrize("path", SHAPES)
def test_cross_distance_matrix_restores_the_buffer_size(path, monkeypatch):
    rng = np.random.default_rng(1)
    n, m = SHAPES[path]
    A, B = rng.random((n, 3)), rng.random((m, 3))
    caller = np.getbufsize()
    cross_distance_matrix(A, B)
    assert np.getbufsize() == caller
    old = np.setbufsize(4096)
    try:
        cross_distance_matrix(A, B)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)
    seen = []

    def fail(at, bt, out, work):
        seen.append((out.shape, np.getbufsize()))
        raise RuntimeError("inside the block loop")

    monkeypatch.setattr(core, "_sum_squares", fail)
    with pytest.raises(RuntimeError, match="inside the block loop"):
        cross_distance_matrix(A, B)
    assert np.getbufsize() == caller
    # the first block's orientation and the buffer it ran under
    assert seen == [{"unbuffered": ((40, 400), 16), "transposed": ((50, 327), 16), "small": ((10, 10), caller)}[path]]


def test_cross_distance_matrix_restores_the_buffer_size_in_a_thread():
    rng = np.random.default_rng(2)
    seen = []

    def run():
        for n, m in SHAPES.values():
            before = np.getbufsize()
            cross_distance_matrix(rng.random((n, 3)), rng.random((m, 3)))
            seen.append(np.getbufsize() == before)

    caller = np.getbufsize()
    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert seen == [True] * len(SHAPES)
    assert np.getbufsize() == caller


def test_cross_distance_matrix_frees_its_work_arrays_on_return():
    # with the collector off, arrays held by a reference cycle stay
    # allocated; only the output may remain, on the row-block path
    # (50, 400) and the transposed one (400, 50)
    rng = np.random.default_rng(0)
    for n, m in ((50, 400), (400, 50)):
        A, B = rng.random((n, 3)), rng.random((m, 3))
        gc.disable()
        tracemalloc.start()
        try:
            out = cross_distance_matrix(A, B)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert current <= out.nbytes + 4096, (n, m)


def test_cross_distance_matrix_empty_errors():
    with pytest.raises(ValueError):
        cross_distance_matrix(np.empty((0, 2)), [[0.0, 0.0]])
    with pytest.raises(ValueError):
        cross_distance_matrix([[0.0, 0.0]], np.empty((0, 2)))


def test_sample_uniform_box_support_containment():
    pts = sample_uniform_box(2, (0, 0), (1, 1), 3, seed=7)
    assert pts.shape == (3, 2)
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)


def test_sample_uniform_box_deterministic():
    a = sample_uniform_box(2, (0, 0), (1, 1), 50, seed=7)
    b = sample_uniform_box(2, (0, 0), (1, 1), 50, seed=7)
    np.testing.assert_array_equal(a, b)


def test_sample_uniform_box_seeds_differ():
    a = sample_uniform_box(1, 0.0, 1.0, 10, seed=1)
    b = sample_uniform_box(1, 0.0, 1.0, 10, seed=2)
    assert not np.array_equal(a, b)


def test_sample_uniform_box_mean_law_of_large_numbers():
    pts = sample_uniform_box(1, 0.3, 0.7, 10_000, seed=11)
    assert abs(pts.mean() - 0.5) < 0.02


@settings(max_examples=60)
@given(
    d=st.integers(1, 4),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32),
    low=st.floats(-5, 5, allow_nan=False),
    width=st.floats(1e-6, 10, allow_nan=False),
)
def test_sample_uniform_box_half_open(d, n, seed, low, width):
    pts = sample_uniform_box(d, low, low + width, n, seed)
    assert np.all(pts >= low) and np.all(pts < low + width)


def test_sample_uniform_box_degenerate_interval():
    with pytest.raises(ValueError, match="degenerate"):
        sample_uniform_box(2, (0, 0.5), (1, 0.5), 3, seed=0)


def test_sample_uniform_box_accepts_generator():
    rng = np.random.default_rng(5)
    a = sample_uniform_box(2, 0, 1, 4, rng)
    b = sample_uniform_box(2, 0, 1, 4, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_parse_dataset_two_classes():
    ds = parse_dataset("x1,x2,cls\n0,0,a\n1,1,b")
    assert ds.n == 2 and ds.dim == 2
    assert ds.labels.tolist() == [0, 1]
    assert ds.label_names == ("a", "b")


def test_parse_dataset_single_class_is_valid():
    ds = parse_dataset("x,cls\n0,only\n1,only")
    assert ds.n_classes == 1


def test_parse_dataset_error_row_number():
    with pytest.raises(DatasetFormatError, match="row 3"):
        parse_dataset("x1,cls\n0,a\nfoo,b")
    # the first faulty row is reported, whatever its fault
    with pytest.raises(DatasetFormatError, match="^row 3: non-finite feature value 'inf'$"):
        parse_dataset("x1,cls\n0,a\ninf,b\nfoo,a\n1\n")


def test_parse_dataset_ragged_row():
    with pytest.raises(DatasetFormatError, match="row 2"):
        parse_dataset("x1,x2,cls\n0,a\n")


def test_parse_dataset_too_short():
    with pytest.raises(DatasetFormatError):
        parse_dataset("x1,cls\n")
    with pytest.raises(DatasetFormatError):
        parse_dataset("")


def test_parse_dataset_label_order_is_first_appearance():
    ds = parse_dataset("x,cls\n0,z\n1,a\n2,z\n3,m")
    assert ds.label_names == ("z", "a", "m")
    assert ds.labels.tolist() == [0, 1, 0, 2]


def test_roundtrip_identity_simple():
    text = "x1,x2,cls\n0.25,-1.5,a\n1,1,b\n0.1,0.2,a"
    ds = parse_dataset(text)
    again = parse_dataset(dataset_to_csv(ds))
    np.testing.assert_array_equal(ds.points, again.points)
    np.testing.assert_array_equal(ds.labels, again.labels)
    assert ds.label_names == again.label_names


label_text = st.text(
    st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=8
)


@settings(max_examples=50)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.tuples(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d), label_text),
            min_size=1,
            max_size=12,
        )
    )
)
def test_roundtrip_identity_property(rows):
    points = np.array([r[0] for r in rows], dtype=np.float64)
    raw_labels = [r[1] for r in rows]
    names = list(dict.fromkeys(raw_labels))
    labels = np.array([names.index(l) for l in raw_labels], dtype=np.int64)
    if np.abs(points).max() > coordinate_bound(points.shape[1]):
        with pytest.raises(ValueError, match="^point coordinates must be at most "):
            LabeledDataset(points=points, labels=labels, label_names=tuple(names))
        return
    ds = LabeledDataset(points=points, labels=labels, label_names=tuple(names))
    again = parse_dataset(dataset_to_csv(ds))
    np.testing.assert_array_equal(ds.points, again.points)
    np.testing.assert_array_equal(ds.labels, again.labels)
    assert ds.label_names == again.label_names


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(points=[[0.0], [1.0]], labels=[0])
    with pytest.raises(ValueError):
        LabeledDataset(points=[[0.0], [1.0]], labels=[0, 2])  # class 1 empty
    with pytest.raises(ValueError):
        LabeledDataset(points=np.empty((0, 1)), labels=[])


def test_labeled_dataset_is_frozen():
    ds = LabeledDataset(points=[[0.0], [1.0]], labels=[0, 1])
    with pytest.raises(ValueError):
        ds.points[0, 0] = 5.0
    assert ds.class_counts.tolist() == [1, 1]
    np.testing.assert_array_equal(ds.points[ds.labels == 1], [[1.0]])


def test_parse_feature_csv():
    pts, names = parse_feature_csv("a,b\n1,2\n3,4")
    np.testing.assert_array_equal(pts, [[1.0, 2.0], [3.0, 4.0]])
    assert names == ("a", "b")
    with pytest.raises(DatasetFormatError, match="row 3"):
        parse_feature_csv("a\n1\nx")
    with pytest.raises(DatasetFormatError, match="^row 2: non-numeric feature value 'x' in column 'b'$"):
        parse_feature_csv("a,b\n1,x")


# numerals float() accepts: padded, underscored, Unicode digits, signs, exponents
_NUMERAL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**300), 10**300).map(str),
    st.sampled_from(["1_0", "1_000.5", "2_5e1_0", "١٢٣", "٣.٥", "１２", "𝟏𝟐", "+1e3", "-2E-5", "+.5", "-0", "1.", ".5e+2", "-0.0e-0"]),
)
_PAD = st.sampled_from(["", " ", "\t", "  ", "\u3000", "\u00a0"])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.lists(st.tuples(_PAD, _NUMERAL, _PAD).map("".join), min_size=d, max_size=d), min_size=1, max_size=20
        )
    ),
    st.sampled_from([parse_feature_csv, parse_dataset]),
)
def test_parse_converts_each_cell_as_float_does(rows, parser):
    label_columns = parser is parse_dataset
    header = [f"x{j}" for j in range(len(rows[0]))] + ["cls"] * label_columns
    text = ",".join(header) + "".join(
        "\n" + ",".join(row + ["ab"[i % 2]] * label_columns) for i, row in enumerate(rows)
    )
    expected = feature_matrix(text, label_columns)
    if label_columns and np.abs(expected).max() > coordinate_bound(expected.shape[1]):
        with pytest.raises(ValueError, match="^point coordinates must be at most "):
            parser(text)
        return
    result = parser(text)
    points = result.points if label_columns else result[0]
    assert points.shape == expected.shape and points.dtype == np.float64
    assert points.tobytes() == expected.tobytes()


_GOOD = {parse_feature_csv: ("a,b", "1.5,2"), parse_dataset: ("a,b,cls", "1.5,2,p")}
_BAD = {
    "ragged": ("1", "1,2"),
    "non-numeric": ("1,x", "1,x,p"),
    "non-finite": ("inf,2", "inf,2,p"),
}
_FAULT = {
    (parse_feature_csv, "ragged"): "row 5002: expected 2 columns, got 1",
    (parse_dataset, "ragged"): "row 5002: expected 3 columns, got 2",
    (parse_feature_csv, "non-numeric"): "row 5002: non-numeric feature value 'x' in column 'b'",
    (parse_dataset, "non-numeric"): "row 5002: non-numeric feature value 'x' in column 'b'",
    (parse_feature_csv, "non-finite"): "row 5002: non-finite feature value 'inf'",
    (parse_dataset, "non-finite"): "row 5002: non-finite feature value 'inf'",
}


@pytest.mark.parametrize("parser", [parse_feature_csv, parse_dataset])
@pytest.mark.parametrize("fault", list(_BAD))
@pytest.mark.parametrize("later", list(_BAD))
def test_first_fault_message_at_row_5002(parser, fault, later):
    header, good = _GOOD[parser]
    bad = _BAD[fault][parser is parse_dataset]
    after = _BAD[later][parser is parse_dataset]
    text = "\n".join([header] + [good] * 5000 + [bad, good, after, good]) + "\n"
    with pytest.raises(DatasetFormatError) as info:
        parser(text)
    assert str(info.value) == _FAULT[parser, fault]


def test_invalid_utf8_names_its_row():
    with pytest.raises(DatasetFormatError, match=r"^row 2: not valid UTF-8 \(invalid start byte\)$"):
        parse_dataset(b"x,cls\n\xff,a\n")
    # past the first chunk a text stream decodes: the row is still exact
    body = b"x\n" + b"1.5\n" * 5000 + b"\xff\n" + b"2\n" * 10
    with pytest.raises(DatasetFormatError, match="^row 5002: "):
        parse_feature_csv(io.TextIOWrapper(io.BytesIO(body), encoding="utf-8"))
    with pytest.raises(DatasetFormatError, match="^row 5002: "):
        parse_feature_csv(body)


# a field longer than the csv module's default field_size_limit()
OVERSIZED = "9" * 131_073

_VALID_CSV = {
    parse_dataset: "x1,x2,cls\n0.5,1,a\n-2,3e-3,b\n4,5,a\n",
    parse_feature_csv: "x1,x2\n0.5,1\n-2,3e-3\n4,5\n",
}
# "\udcff" encodes to the byte 0xff under surrogateescape: not valid UTF-8
_CSV_JUNK = ("", "x", "nan", "inf", "-inf", "1e999", '"', 'a"b', '"1', ",", "\n", "\r", "\x00", OVERSIZED, "\udcff")


def _mutate(text, level, action, pick, junk):
    """Delete, duplicate or replace one row, or one cell or delimiter."""
    if level == "row":
        parts, sep = text.split("\n"), "\n"
    else:
        parts, sep = re.split(r"([,\n])", text), ""
    i = pick % len(parts)
    if action == "delete":
        del parts[i]
    elif action == "duplicate":
        parts.insert(i, parts[i])
    else:
        parts[i] = junk
    return sep.join(parts)


@settings(max_examples=300, deadline=None)
@given(
    parser=st.sampled_from(list(_VALID_CSV)),
    mutations=st.lists(
        st.tuples(
            st.sampled_from(["row", "token"]),
            st.sampled_from(["delete", "duplicate", "replace"]),
            st.integers(0, 10**6),
            st.sampled_from(_CSV_JUNK),
        ),
        min_size=1,
        max_size=4,
    ),
    form=st.sampled_from(["str", "bytes", "stream"]),
)
@example(parser=parse_dataset, mutations=[("token", "replace", 6, OVERSIZED)], form="str")
@example(parser=parse_feature_csv, mutations=[("token", "replace", 8, OVERSIZED)], form="str")
@example(parser=parse_dataset, mutations=[("token", "replace", 10, OVERSIZED)], form="str")  # the label cell
@example(parser=parse_feature_csv, mutations=[("token", "replace", 4, '"')], form="str")
@example(parser=parse_dataset, mutations=[("token", "replace", 10, "\udcff")], form="bytes")
@example(parser=parse_feature_csv, mutations=[("token", "replace", 0, "\udcff")], form="stream")
def test_mutated_csv_raises_only_dataset_format_error(parser, mutations, form):
    text = _VALID_CSV[parser]
    for mutation in mutations:
        text = _mutate(text, *mutation)
    if form != "str":
        text = text.encode("utf-8", "surrogateescape")
    if form == "stream":
        text = io.TextIOWrapper(io.BytesIO(text), encoding="utf-8", newline="")
    try:
        result = parser(text)
    except DatasetFormatError:
        return
    points = result.points if parser is parse_dataset else result[0]
    assert points.ndim == 2 and points.shape[1] >= 1 and np.isfinite(points).all()
