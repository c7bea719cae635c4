import io
import math
import os
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strbench.datasets import (
    Dataset,
    DimensionError,
    LibsvmParseError,
    generate_synthetic,
    load_libsvm,
    parse_libsvm,
    to_libsvm,
)


def test_parse_basic():
    ds = parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0")
    assert ds.n == 2
    assert ds.d == 3
    assert np.array_equal(ds.to_dense(), [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(ds.label_array(), [1.0, -1.0])


def test_parse_empty_stream():
    assert parse_libsvm("").n == 0
    assert parse_libsvm("").d == 0
    assert parse_libsvm("", d_override=7).d == 7


def test_parse_skips_blank_and_comment_lines():
    ds = parse_libsvm("# header\n\n+1 1:1.0\r\n\n-1 1:2.0\n")
    assert ds.n == 2
    assert np.array_equal(ds.to_dense(), [[1.0], [2.0]])


def test_parse_label_sign_binarization():
    ds = parse_libsvm("2 1:1.0\n0 1:1.0\n-3.5 1:1.0")
    assert np.array_equal(ds.label_array(), [1.0, -1.0, -1.0])


def test_parse_d_override():
    ds = parse_libsvm("+1 2:1.0", d_override=10)
    assert ds.d == 10
    assert ds.to_dense().shape == (1, 10) and ds.to_dense()[0, 1] == 1.0
    with pytest.raises(DimensionError):
        parse_libsvm("+1 5:1.0", d_override=3)


@pytest.mark.parametrize("d_override", [2.5, 3.0, "3", True, False])
def test_parse_rejects_non_integer_d_override(d_override):
    # checked before any comparison: a float or string used to end in a bare
    # TypeError, and True was read as a width of 1
    with pytest.raises(DimensionError, match="d_override must be a positive integer"):
        parse_libsvm("+1 1:1.0", d_override=d_override)


def test_parse_accepts_numpy_integer_d_override():
    assert parse_libsvm("+1 1:1.0", d_override=np.int64(4)).d == 4


@pytest.mark.parametrize(
    "text",
    [
        "abc 1:1.0",          # bad label
        "+1 0:1.0",           # one-based indices start at 1
        "+1 -2:1.0",          # negative index
        "+1 1:xyz",           # bad value
        "+1 11.0",            # missing colon
        "+1 2:1.0 2:2.0",     # not strictly increasing
        "+1 3:1.0 2:2.0",     # decreasing
        "+1 1:nan",           # non-finite value
        "nan 1:1.0",          # non-finite label
    ],
)
def test_parse_errors_carry_line_number(text):
    with pytest.raises(LibsvmParseError, match="line 1"):
        parse_libsvm(text)


def test_parse_error_line_number_counts_all_lines():
    with pytest.raises(LibsvmParseError, match="line 3"):
        parse_libsvm("+1 1:1.0\n# comment\n+1 bad\n")


def test_dataset_invariants_enforced():
    with pytest.raises(ValueError):
        Dataset(np.ones(2), np.ones(2))  # X must be 2-D
    with pytest.raises(ValueError):
        Dataset(np.ones((1, 2)), np.array([2.0]))  # label not +-1
    with pytest.raises(ValueError):
        Dataset(np.ones((1, 2)), np.array([np.nan]))
    with pytest.raises(ValueError):
        Dataset(np.ones((1, 2)), np.array([1.0, -1.0]))  # lengths differ
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, np.inf]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([1.0]))


def test_dataset_arrays_are_read_only_views():
    X = np.arange(6.0).reshape(2, 3)
    y = np.array([1, -1])
    ds = Dataset(X, y, source="s")
    assert (ds.n, ds.d, ds.source) == (2, 3, "s")
    assert ds.to_dense() is ds.X and np.shares_memory(ds.X, X)
    assert ds.label_array() is ds.y and ds.y.dtype == np.float64
    assert ds.X.flags.c_contiguous and ds.X.dtype == np.float64
    with pytest.raises(ValueError):
        ds.to_dense()[0, 0] = 1.0
    with pytest.raises(ValueError):
        ds.label_array()[0] = -1.0
    assert X.flags.writeable  # the caller's array is left as it was
    # Fortran-ordered input is made C-contiguous
    assert Dataset(np.asfortranarray(X), y).X.flags.c_contiguous


def test_parse_index_too_large_to_densify():
    with pytest.raises(DimensionError, match="allocate"):
        parse_libsvm(f"+1 1:1.0 {2**62}:1.0\n-1 2:1.0")
    with pytest.raises(DimensionError):
        parse_libsvm(f"+1 {10**20}:1.0")


def test_round_trip_handwritten():
    text = "+1 1:0.5 3:-2.25\n-1 2:1e-3\n+1 1:3.0"
    ds = parse_libsvm(text)
    again = parse_libsvm(to_libsvm(ds))
    assert np.array_equal(again.to_dense(), ds.to_dense())
    assert np.array_equal(again.label_array(), ds.label_array())
    assert again.d == ds.d


def test_to_libsvm_writes_nonzeros_only():
    ds = Dataset(np.array([[0.0, 1.5, -0.0], [0.0, 0.0, 0.0]]), np.array([-1.0, 1.0]))
    assert to_libsvm(ds) == "-1 2:1.5\n+1\n"
    assert to_libsvm(parse_libsvm("")) == ""


_FINITE = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=0, max_value=8))
    X = np.zeros((n, d))
    for i in range(n):
        for j in draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d)):
            X[i, j] = draw(_FINITE)
    y = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(n)])
    return Dataset(X, y)


@given(datasets())
@settings(max_examples=80)
def test_round_trip_property(ds):
    again = parse_libsvm(to_libsvm(ds), d_override=ds.d)
    assert np.array_equal(again.to_dense(), ds.to_dense())
    assert np.array_equal(again.label_array(), ds.label_array())
    assert again.n == ds.n and again.d == ds.d


@given(st.text(max_size=200))
@settings(max_examples=150)
def test_parser_total_over_byte_streams(text):
    # any input either parses or raises the structured parse error
    try:
        ds = parse_libsvm(text)
        assert isinstance(ds, Dataset)
    except (LibsvmParseError, DimensionError):
        pass


def test_synthetic_deterministic():
    a = generate_synthetic(4, 2, seed=7)
    b = generate_synthetic(4, 2, seed=7)
    assert np.array_equal(a.to_dense(), b.to_dense())
    assert np.array_equal(a.label_array(), b.label_array())


def test_synthetic_rows_unit_norm():
    ds = generate_synthetic(50, 6, seed=1)
    X = ds.to_dense()
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)


def test_synthetic_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        generate_synthetic(0, 3, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(3, 0, seed=0)


def _perceptron_fits(X, y, max_epochs=20000):
    w = np.zeros(X.shape[1])
    for _ in range(max_epochs):
        clean = True
        for i in range(len(y)):
            if y[i] * (X[i] @ w) <= 0:
                w += y[i] * X[i]
                clean = False
        if clean:
            return True
    return False


def test_synthetic_separable_admits_hyperplane():
    ds = generate_synthetic(200, 10, seed=1, separable=True)
    assert _perceptron_fits(ds.to_dense(), ds.label_array())


def test_synthetic_flips_labels_when_not_separable():
    sep = generate_synthetic(300, 10, seed=5, separable=True)
    noisy = generate_synthetic(300, 10, seed=5, separable=False)
    flips = int(np.sum(sep.label_array() != noisy.label_array()))
    assert 0 < flips < 90  # ~10% of 300


# -- reference: the earlier per-nonzero tuple representation -------------------
#
# Datasets used to be stored as one ``(index, value)`` tuple per nonzero and
# densified on demand.  The functions below keep that implementation, test
# only, so the dense representation can be checked against it bit for bit.


def _ref_parse(text, d_override=None):
    rows, labels, max_idx = [], [], -1
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            lab_val = float(tokens[0])
        except ValueError:
            raise LibsvmParseError(f"line {lineno}: bad label {tokens[0]!r}") from None
        if not math.isfinite(lab_val):
            raise LibsvmParseError(f"line {lineno}: non-finite label")
        labels.append(1 if lab_val > 0 else -1)
        row, prev = [], 0
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise LibsvmParseError(f"line {lineno}: bad feature token {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise LibsvmParseError(f"line {lineno}: bad feature token {tok!r}") from None
            if idx <= 0:
                raise LibsvmParseError(f"line {lineno}: index {idx} must be >= 1")
            if idx <= prev:
                raise LibsvmParseError(f"line {lineno}: indices must be strictly increasing")
            if not math.isfinite(val):
                raise LibsvmParseError(f"line {lineno}: non-finite value in {tok!r}")
            row.append((idx - 1, val))
            prev = idx
        rows.append(tuple(row))
        if row:
            max_idx = max(max_idx, row[-1][0])
    if d_override is None:
        d = max_idx + 1
    else:
        if d_override < max_idx + 1:
            raise DimensionError(f"d_override={d_override} smaller than required {max_idx + 1}")
        d = d_override
    return len(rows), d, tuple(rows), tuple(labels)


def _ref_generate(n, d, seed, separable=False):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    margin = 0.05 / math.sqrt(d)
    X = np.empty((n, d))
    for i in range(n):
        while True:
            x = rng.standard_normal(d)
            nrm = np.linalg.norm(x)
            if nrm == 0.0:
                continue
            x /= nrm
            if abs(float(w @ x)) >= margin:
                break
        X[i] = x
    y = np.where(X @ w > 0, 1, -1)
    if not separable:
        flips = rng.random(n) < 0.1
        y = np.where(flips, -y, y)
    rows = tuple(tuple((j, float(X[i, j])) for j in range(d)) for i in range(n))
    return n, d, rows, tuple(int(v) for v in y)


def _ref_to_dense(ref):
    n, d, rows, _ = ref
    X = np.zeros((n, d))
    for i, row in enumerate(rows):
        for j, v in row:
            X[i, j] = v
    return X


def _ref_label_array(ref):
    return np.asarray(ref[3], dtype=float)


def _ref_to_libsvm(ref):
    lines = []
    for row, lab in zip(ref[2], ref[3]):
        parts = ["+1" if lab > 0 else "-1"]
        parts.extend(f"{idx + 1}:{val!r}" for idx, val in row)
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_matches_reference(ds, ref):
    assert (ds.n, ds.d) == ref[:2]
    assert _same_bits(ds.to_dense(), _ref_to_dense(ref))
    assert _same_bits(ds.label_array(), _ref_label_array(ref))


_VALUE_TEXT = st.one_of(
    _FINITE.map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0", "0.0", "-0.0", "1e-3", "+2.5", "1E+2", ".5", "5.", "1e-320"]),
)


@st.composite
def libsvm_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        if kind == "comment":
            lines.append("# " + draw(st.text(alphabet="abc 1:2", max_size=10)))
            continue
        label = draw(st.sampled_from(["+1", "-1", "1", "0", "2", "-3.5", "1e3"]))
        idxs = sorted(draw(st.lists(st.integers(1, 12), unique=True, max_size=6)))
        toks = [f"{i}:{draw(_VALUE_TEXT)}" for i in idxs]
        lines.append(" ".join([label] + toks))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@given(libsvm_texts(), st.one_of(st.none(), st.integers(12, 15)))
@settings(max_examples=150)
def test_parse_matches_tuple_reference(text, d_override):
    ds = parse_libsvm(text, d_override=d_override)
    _assert_matches_reference(ds, _ref_parse(text, d_override=d_override))


@given(st.text(max_size=200))
@settings(max_examples=150)
def test_parse_errors_match_tuple_reference(text):
    try:
        ref = _ref_parse(text)
    except (LibsvmParseError, DimensionError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            parse_libsvm(text)
        return
    assume(ref[0] * ref[1] <= 10**6)  # too large to densify on a test machine
    _assert_matches_reference(parse_libsvm(text), ref)


@pytest.mark.parametrize(
    "n,d,seed,separable",
    [(1, 1, 0, False), (4, 2, 7, False), (50, 6, 1, False), (200, 10, 1, True),
     (300, 10, 5, False), (37, 400, 3, True)],
)
def test_synthetic_matches_tuple_reference(n, d, seed, separable):
    ds = generate_synthetic(n, d, seed, separable=separable)
    _assert_matches_reference(ds, _ref_generate(n, d, seed, separable))


def test_to_libsvm_matches_tuple_reference_on_benchmark_file():
    # the LibSVM file that the cli_small benchmark workload writes
    assert to_libsvm(generate_synthetic(2000, 30, 8)) == _ref_to_libsvm(_ref_generate(2000, 30, 8))


def test_a9a_shape_if_available():
    path = os.environ.get("STR_A9A_PATH")
    if not path or not os.path.exists(path):
        pytest.skip("set STR_A9A_PATH to a local a9a file to run")
    ds = load_libsvm(path)
    assert ds.n == 32561
    assert ds.d == 123
