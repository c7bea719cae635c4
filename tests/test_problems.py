import math
import tracemalloc

import numpy as np
import pytest

from strbench import problems
from strbench.datasets import Dataset, generate_synthetic, row_blocks
from strbench.problems import (
    FiniteSumProblem,
    OracleCounters,
    _log1pexp,
    _sigmoid,
    batch_gradient,
    batch_hessian,
    batch_hvp,
    from_dataset,
    full_gradient,
    full_hessian,
    full_value,
    lipschitz_bounds,
    quadratic_problem,
    regularizer_derivatives,
)


def fd_gradient(f, x, rel=1e-5):
    """Central finite differences with per-coordinate step 1e-5 (1 + |x_j|)."""
    g = np.zeros_like(x)
    for j in range(len(x)):
        h = rel * (1.0 + abs(x[j]))
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hessian(grad, x, rel=1e-5):
    d = len(x)
    H = np.zeros((d, d))
    for j in range(d):
        h = rel * (1.0 + abs(x[j]))
        e = np.zeros(d)
        e[j] = h
        H[:, j] = (grad(x + e) - grad(x - e)) / (2 * h)
    return (H + H.T) / 2


def rel_err(a, b):
    return np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a)))


# -- regularizer ---------------------------------------------------------------


def test_regularizer_at_origin():
    val, grad, diag = regularizer_derivatives(np.zeros(4), alpha=10.0)
    assert val == 0.0
    assert np.all(grad == 0.0)
    assert np.allclose(diag, 20.0)


def test_regularizer_value_range_and_limit():
    w = np.array([0.0, 0.5, 3.0, -40.0, 1e6])
    val, _, _ = regularizer_derivatives(w, alpha=10.0)
    per_coord = 10.0 * w**2 / (1.0 + 10.0 * w**2)
    assert np.all(per_coord >= 0.0) and np.all(per_coord < 1.0)
    assert per_coord[-1] > 1.0 - 1e-9
    assert val == pytest.approx(per_coord.sum())


def test_regularizer_derivatives_match_fd():
    w = np.array([0.3, -1.2])
    alpha = 10.0
    val_of = lambda x: regularizer_derivatives(x, alpha)[0]
    _, grad, diag = regularizer_derivatives(w, alpha)
    assert rel_err(grad, fd_gradient(val_of, w)) <= 1e-6
    grad_of = lambda x: regularizer_derivatives(x, alpha)[1]
    H = fd_hessian(grad_of, w)
    assert rel_err(np.diag(H), diag) <= 1e-6
    assert abs(H[0, 1]) <= 1e-8  # separable sum: off-diagonals vanish


# a w^2 overflows, or (at -3e153) only 3 a w^2 does, so the diagonal reads -inf/inf
@pytest.mark.parametrize("w, grad", [(1e160, 0.0), (-1e300, -0.0), (-3e153, -0.0)])
def test_regularizer_takes_its_limits_where_alpha_w2_overflows(w, grad):
    val, g, diag = regularizer_derivatives(np.array([w, 0.5]), alpha=10.0)
    v_half, g_half, diag_half = regularizer_derivatives(np.array([0.5]), alpha=10.0)
    assert val == 1.0 + v_half
    assert_bitwise(g, np.array([grad, g_half[0]]))
    assert_bitwise(diag, np.array([-0.0, diag_half[0]]))


def test_regularizer_is_its_formula_where_alpha_w2_is_finite():
    # from ordinary points to those where only a power of 1 + a w^2 overflows
    w = np.array([0.0, -0.0, 1e-200, 0.3, -1.2, 40.0, 1e6, -1e77, 1e100, -3e152])
    alpha = 10.0
    with np.errstate(over="ignore"):
        aw2 = alpha * w * w
        denom = 1.0 + aw2
        ref = (float(np.sum(aw2 / denom)), 2.0 * alpha * w / denom**2,
               2.0 * alpha * (1.0 - 3.0 * aw2) / denom**3)
    assert np.isfinite(aw2).all()
    for got, want in zip(regularizer_derivatives(w, alpha), ref):
        assert_bitwise(got, want)


def test_regularizer_rejects_bad_alpha():
    with pytest.raises(ValueError):
        regularizer_derivatives(np.zeros(2), alpha=0.0)


_QUAD = quadratic_problem(3, 2, seed=0)
_X3, _Y3 = np.array([[1.0, 0.5], [-0.3, 2.0], [0.7, -1.1]]), np.array([1.0, -1.0, 1.0])
_LOGISTIC3 = {lam: FiniteSumProblem("logistic_nc", X=_X3, y=_Y3, reg_lambda=lam)
              for lam in (0.0, 1e-3)}


@pytest.mark.parametrize("call, match", [
    (lambda: batch_hvp(_QUAD, np.zeros(2), [0], np.array([np.nan, 0.0]), OracleCounters()),
     "non-finite direction"),
    # a column direction returned a (d, s) matrix at reg_lambda 0, from an s x s temporary
    (lambda: batch_hvp(_LOGISTIC3[0.0], np.zeros(2), [0, 1, 2], np.ones((2, 1)),
                       OracleCounters()), r"v must have shape \(2,\), not \(2, 1\)"),
    (lambda: batch_hvp(_LOGISTIC3[1e-3], np.zeros(2), [0, 1, 2], np.ones((2, 1)),
                       OracleCounters()), r"v must have shape \(2,\), not \(2, 1\)"),
    (lambda: batch_hvp(_QUAD, np.zeros(2), [0], np.ones((2, 1)), OracleCounters()),
     r"v must have shape \(2,\), not \(2, 1\)"),
    (lambda: batch_hvp(_QUAD, np.zeros(2), [0], np.ones(3), OracleCounters()),
     r"v must have shape \(2,\), not \(3,\)"),
    (lambda: batch_hvp(_QUAD, np.zeros(2), [0], 1.0, OracleCounters()),
     r"v must have shape \(2,\), not \(\)"),
    (lambda: full_gradient(_QUAD, np.zeros(3), OracleCounters()), r"x must have shape \(2,\)"),
    (lambda: lipschitz_bounds(_QUAD, mode="exact"), "unknown mode 'exact'"),
    (lambda: from_dataset(generate_synthetic(10, 2, 0), "synthetic_quad"),
     "does not take a dataset"),
    (lambda: FiniteSumProblem("lasso"), "unknown problem kind 'lasso'"),
    (lambda: FiniteSumProblem("synthetic_quad", anchors=np.zeros((0, 2))), "n >= 1"),
    (lambda: FiniteSumProblem("synthetic_quad", anchors=np.zeros((2, 0))), "d >= 1"),
    (lambda: problems.LipschitzBounds(1.0, 1.0, "guessed"), "unknown provenance 'guessed'"),
    (lambda: regularizer_derivatives(np.array([0.0, np.inf]), 1.0), "non-finite input"),
    (lambda: FiniteSumProblem("logistic_nc", y=_Y3), "logistic_nc takes X and y and no other"),
    (lambda: FiniteSumProblem("nls_nc", X=_X3), "nls_nc takes X and y and no other data"),
    (lambda: FiniteSumProblem("logistic_nc", X=_X3, y=_Y3, anchors=_X3), "takes X and y and"),
    (lambda: FiniteSumProblem("synthetic_quad"), "synthetic_quad takes anchors and no other"),
    (lambda: FiniteSumProblem("synthetic_quad", anchors=_X3, X=_X3), "takes anchors and no"),
    (lambda: FiniteSumProblem("synthetic_quad", anchors=_X3, y=_Y3), "takes anchors and no"),
    # a column of labels broadcasts against the margins: F(0.3, -0.2) read 0.7053, not 0.5265
    (lambda: FiniteSumProblem("logistic_nc", X=_X3, y=_Y3[:, None]), "y must hold n=3 labels"),
    (lambda: FiniteSumProblem("nls_nc", X=_X3, y=_Y3[:2]), "y must hold n=3 labels"),
    (lambda: FiniteSumProblem("nls_nc", X=_X3, y=np.array([1.0, 0.0, 1.0])),
     r"labels must be -1 or \+1"),
    (lambda: FiniteSumProblem("logistic_nc", X=_X3, y=np.array([1.0, np.nan, 1.0])),
     r"labels must be -1 or \+1"),
    (lambda: FiniteSumProblem("logistic_nc", X=_X3[0], y=_Y3[:1]), r"X must be an \(n, d\)"),
    (lambda: FiniteSumProblem("nls_nc", X=_X3[None], y=_Y3), r"X must be an \(n, d\) array"),
    (lambda: FiniteSumProblem("synthetic_quad", anchors=_X3[0]), r"anchors must be an \(n, d\)"),
], ids=["hvp_direction", "hvp_column", "hvp_column_regularized", "quad_hvp_column",
        "quad_hvp_too_long", "quad_hvp_scalar", "point_shape", "lipschitz_mode",
        "quad_from_dataset", "unknown_kind", "no_rows", "no_columns", "provenance",
        "regularizer_point", "no_X", "no_y", "glm_anchors", "no_anchors", "quad_X", "quad_y",
        "label_column", "short_labels", "binary_labels", "nan_label", "vector_X", "3d_X",
        "vector_anchors"])
def test_documented_error_exits(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# -- batch operations ----------------------------------------------------------


def test_quad_batch_gradient_is_anchor_mean(quad_problem):
    c = OracleCounters()
    x = np.full(quad_problem.d, 0.7)
    g = batch_gradient(quad_problem, x, np.arange(quad_problem.n), c)
    assert np.allclose(g, x - quad_problem.anchors.mean(axis=0), atol=1e-14)
    assert c.sfo == quad_problem.n


def test_quad_hessian_identity_any_batch(quad_problem, rng):
    c = OracleCounters()
    idx = rng.integers(0, quad_problem.n, size=5)
    H = batch_hessian(quad_problem, rng.standard_normal(quad_problem.d), idx, c)
    assert np.array_equal(H, np.eye(quad_problem.d))
    assert c.sso == 5


def test_quad_hvp_identity(quad_problem, rng):
    c = OracleCounters()
    v = rng.standard_normal(quad_problem.d)
    out = batch_hvp(quad_problem, np.zeros(quad_problem.d), [0, 3], v, c)
    assert np.allclose(out, v, atol=1e-15)
    assert c.sso == 2


def test_multiset_duplicates_average_with_multiplicity(small_logistic):
    x = np.linspace(-0.5, 0.5, small_logistic.d)
    c1, c2 = OracleCounters(), OracleCounters()
    g_single = batch_gradient(small_logistic, x, [3], c1)
    g_dup = batch_gradient(small_logistic, x, [3, 3], c2)
    assert np.allclose(g_single, g_dup, atol=1e-15)
    assert c1.sfo == 1 and c2.sfo == 2


def test_hvp_zero_vector(small_logistic):
    out = batch_hvp(
        small_logistic, np.zeros(small_logistic.d), [0, 1],
        np.zeros(small_logistic.d), OracleCounters(),
    )
    assert np.all(out == 0.0)


def test_hvp_matches_dense_hessian():
    ds = generate_synthetic(80, 20, seed=4)
    prob = from_dataset(ds, "logistic_nc")
    rng = np.random.default_rng(1)
    x = rng.standard_normal(20) * 0.5
    v = rng.standard_normal(20)
    idx = rng.integers(0, 80, size=17)
    H = batch_hessian(prob, x, idx, OracleCounters())
    hv = batch_hvp(prob, x, idx, v, OracleCounters())
    assert np.linalg.norm(hv - H @ v) <= 1e-10 * (1.0 + np.linalg.norm(H @ v))


def test_hessian_exactly_symmetric(small_logistic, small_nls, rng):
    for prob in (small_logistic, small_nls):
        x = rng.standard_normal(prob.d)
        for H in (batch_hessian(prob, x, rng.integers(0, prob.n, 9), OracleCounters()),
                  full_hessian(prob, x, OracleCounters())):
            assert np.array_equal(H, H.T)


@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_logistic_full_hessian_equals_full_index_batch(lam, rng):
    # the full batch reads X in place and the index batch gathers it; both
    # feed the same rows to the same symmetric rank-k product
    prob = from_dataset(generate_synthetic(120, 9, seed=5), "logistic_nc", reg_lambda=lam)
    x = rng.standard_normal(prob.d)
    H = full_hessian(prob, x, OracleCounters())
    assert_bitwise(H, batch_hessian(prob, x, np.arange(prob.n), OracleCounters()))


def test_index_and_domain_errors(small_logistic):
    x = np.zeros(small_logistic.d)
    with pytest.raises(IndexError):
        batch_gradient(small_logistic, x, [small_logistic.n], OracleCounters())
    with pytest.raises(IndexError):
        batch_gradient(small_logistic, x, [-1], OracleCounters())
    bad = x.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        batch_gradient(small_logistic, bad, [0], OracleCounters())
    with pytest.raises(ValueError):
        full_value(small_logistic, bad, OracleCounters())


@pytest.mark.parametrize("idx", [[1.7, 2.2], [1.0, 2.0], [True, False, True],
                                 np.array([True, True]), 2.0, np.array([[0.5]])])
def test_non_integer_indices_rejected(small_logistic, idx):
    # a float list used to be truncated to [1, 2], a bool mask read as the
    # indices [1, 0, 1] and billed 3 rows
    x = np.zeros(small_logistic.d)
    c = OracleCounters()
    with pytest.raises(IndexError, match="integers"):
        batch_gradient(small_logistic, x, idx, c)
    with pytest.raises(IndexError, match="integers"):
        batch_hessian(small_logistic, x, idx, c)
    with pytest.raises(IndexError, match="integers"):
        batch_hvp(small_logistic, x, idx, x, c)
    assert c.snapshot() == (0, 0)


@pytest.mark.parametrize("idx", [[1, 2], np.array([1, 2], dtype=np.int32),
                                 np.array([1, 2], dtype=np.uint8), (1, 2)])
def test_integer_indices_of_any_width_accepted(small_logistic, idx):
    x = np.full(small_logistic.d, 0.3)
    c = OracleCounters()
    want = batch_gradient(small_logistic, x, np.array([1, 2], dtype=np.intp), c)
    assert np.array_equal(batch_gradient(small_logistic, x, idx, c), want)
    assert c.sfo == 4
    assert np.array_equal(batch_gradient(small_logistic, x, np.int64(3), c),
                          batch_gradient(small_logistic, x, [3], c))


def test_empty_index_multiset_rejected_before_dtype(small_logistic):
    # np.asarray([]) is float64: the empty check must come first
    with pytest.raises(IndexError, match="empty"):
        batch_gradient(small_logistic, np.zeros(small_logistic.d), [], OracleCounters())


# -- reference values ----------------------------------------------------------


def test_logistic_value_at_zero_is_log2():
    ds = generate_synthetic(30, 5, seed=2)
    prob = from_dataset(ds, "logistic_nc", reg_lambda=0.0)
    c = OracleCounters()
    assert full_value(prob, np.zeros(5), c) == pytest.approx(math.log(2.0), abs=1e-14)
    assert c == OracleCounters()  # values are not billed


def test_nls_value_at_zero():
    ds = generate_synthetic(30, 5, seed=2)
    prob = from_dataset(ds, "nls_nc", reg_lambda=0.0)
    # sigmoid(0) = 1/2 and targets are 0/1, so every residual is 1/2
    assert full_value(prob, np.zeros(5), OracleCounters()) == pytest.approx(0.125, abs=1e-14)


def test_regularizer_share_of_full_value():
    ds = generate_synthetic(30, 5, seed=2)
    reg = from_dataset(ds, "logistic_nc", reg_lambda=1e-3, reg_alpha=10.0)
    plain = from_dataset(ds, "logistic_nc", reg_lambda=0.0, reg_alpha=10.0)
    w = np.zeros(5)
    w[0] = 1.0
    diff = full_value(reg, w, OracleCounters()) - full_value(plain, w, OracleCounters())
    assert diff == pytest.approx(1e-3 * (10.0 / 11.0), rel=1e-12)


def test_logistic_single_sample_hessian_at_zero():
    ds = generate_synthetic(10, 4, seed=9)
    prob = from_dataset(ds, "logistic_nc", reg_lambda=1e-3, reg_alpha=10.0)
    i = 3
    xi = prob.X[i]
    expected = 0.25 * np.outer(xi, xi) + 1e-3 * np.diag(np.full(4, 20.0))
    H = batch_hessian(prob, np.zeros(4), [i], OracleCounters())
    assert np.allclose(H, expected, atol=1e-14)


# -- derivative correctness against finite differences -------------------------


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
def test_component_derivatives_match_fd(kind):
    ds = generate_synthetic(40, 6, seed=21)
    prob = from_dataset(ds, kind, reg_lambda=1e-3, reg_alpha=10.0)
    rng = np.random.default_rng(17)
    sc = OracleCounters()
    for _ in range(25):
        i = int(rng.integers(prob.n))
        x = rng.standard_normal(prob.d) * 0.8
        val_of = lambda z: (
            prob._data_values(z, np.array([i]))[0]
            + prob.reg_lambda * regularizer_derivatives(z, prob.reg_alpha)[0]
        )
        g = batch_gradient(prob, x, [i], sc)
        assert rel_err(g, fd_gradient(val_of, x)) <= 1e-6
        grad_of = lambda z: batch_gradient(prob, z, [i], OracleCounters())
        H = batch_hessian(prob, x, [i], sc)
        assert rel_err(H, fd_hessian(grad_of, x)) <= 1e-5


def test_counter_exactness_composite(small_logistic):
    c = OracleCounters()
    x = np.zeros(small_logistic.d)
    batch_gradient(small_logistic, x, [0, 1, 2], c)
    batch_hessian(small_logistic, x, [0, 1], c)
    batch_hvp(small_logistic, x, [5], x, c)
    full_value(small_logistic, x, c)
    assert c.snapshot() == (3, 3)


# -- Lipschitz bounds ----------------------------------------------------------


def test_quad_bounds(quad_problem):
    lb = lipschitz_bounds(quad_problem)
    assert lb.L1 == 1.0
    assert lb.L2 == 1e-6
    assert lb.provenance == "analytic"


def test_logistic_unit_rows_l1():
    ds = generate_synthetic(50, 6, seed=3)
    prob = from_dataset(ds, "logistic_nc", reg_lambda=0.0)
    lb = lipschitz_bounds(prob)
    assert lb.L1 == pytest.approx(0.25, rel=1e-9)


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
def test_sampled_bounds_are_the_doubled_difference_quotients(kind):
    # the probe of lipschitz_bounds, recomputed: the largest difference quotients
    # over 32 seeded pairs of points, one component each, doubled.  Rows of norm
    # about 9 keep the probe well below the analytic bound that caps it
    rng = np.random.default_rng(3)
    prob = FiniteSumProblem(kind, X=5.0 * rng.standard_normal((6, 3)),
                            y=rng.choice([-1.0, 1.0], size=6), reg_lambda=1e-3)
    rng, c = np.random.default_rng(4), OracleCounters()
    l1 = l2 = 0.0
    for _ in range(32):
        i = int(rng.integers(prob.n))
        x, y = 0.5 * rng.standard_normal(prob.d), 0.5 * rng.standard_normal(prob.d)
        dist = np.linalg.norm(x - y)
        g = batch_gradient(prob, x, [i], c) - batch_gradient(prob, y, [i], c)
        H = batch_hessian(prob, x, [i], c) - batch_hessian(prob, y, [i], c)
        l1 = max(l1, np.linalg.norm(g) / dist)
        l2 = max(l2, np.linalg.norm(H, 2) / dist)
    ana = lipschitz_bounds(prob, mode="analytic")
    assert 2.0 * l1 < ana.L1 and 2.0 * l2 < ana.L2  # the cap does not decide
    got = lipschitz_bounds(prob, mode="sampled", seed=4)
    assert (got.L1, got.L2, got.provenance) == (2.0 * l1, 2.0 * l2, "sampled")


def test_sampled_below_analytic_logistic():
    ds = generate_synthetic(50, 6, seed=3)
    prob = from_dataset(ds, "logistic_nc", reg_lambda=1e-3, reg_alpha=10.0)
    ana = lipschitz_bounds(prob, mode="analytic")
    for seed in range(10):
        smp = lipschitz_bounds(prob, mode="sampled", seed=seed)
        assert smp.L1 <= ana.L1
        assert smp.L2 <= ana.L2


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
def test_cubic_upper_bound_with_analytic_l2(kind):
    ds = generate_synthetic(40, 6, seed=13)
    prob = from_dataset(ds, kind, reg_lambda=1e-3, reg_alpha=10.0)
    L2 = lipschitz_bounds(prob).L2
    rng = np.random.default_rng(5)
    sc = OracleCounters()
    for _ in range(40):
        x = rng.standard_normal(prob.d) * 0.6
        h = rng.standard_normal(prob.d)
        h *= rng.uniform(0, 1.0) / np.linalg.norm(h)
        lhs = full_value(prob, x + h, sc)
        quad = (
            full_value(prob, x, sc)
            + full_gradient(prob, x, sc) @ h
            + 0.5 * h @ full_hessian(prob, x, sc) @ h
        )
        assert lhs <= quad + (L2 / 6.0) * np.linalg.norm(h) ** 3 + 1e-12


# -- bitwise regression against masked, per-kind reference kernels -------------
#
# The reference below is the kernel layer as first written: masked link
# functions, one ``if`` chain per kind, and a gathered copy ``X[idx]`` even for
# the full batch.  The link table, the branch-free links and the in-place full
# batches must reproduce it bit for bit.


def _ref_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_log1pexp(z):
    out = np.empty_like(z)
    pos = z > 0
    out[pos] = z[pos] + np.log1p(np.exp(-z[pos]))
    out[~pos] = np.log1p(np.exp(z[~pos]))
    return out


def _ref_reg_terms(x, lam, alpha):
    """The regularizer's value, gradient and Hessian diagonal times ``lam``,
    all three at once, as every oracle first computed them."""
    if lam == 0.0:
        return 0.0, 0.0, 0.0
    aw2 = alpha * x * x
    denom = 1.0 + aw2
    value = float(np.sum(aw2 / denom))
    grad = 2.0 * alpha * x / denom**2
    hess_diag = 2.0 * alpha * (1.0 - 3.0 * aw2) / denom**3
    return lam * value, lam * grad, lam * hess_diag


def _ref_rows(prob, Xr, yr, x):
    """Loss values, gradient coefficients and Hessian weights of the rows ``Xr``."""
    if prob.kind == "logistic_nc":
        z = yr * (Xr @ x)
        p = _ref_sigmoid(z)
        return _ref_log1pexp(-z), (_ref_sigmoid(z) - 1.0) * yr, p * (1.0 - p)
    t = (yr + 1.0) / 2.0
    p = _ref_sigmoid(Xr @ x)
    e = p - t
    sp = p * (1.0 - p)
    return 0.5 * e * e, (p - t) * p * (1.0 - p), sp * sp + (p - t) * sp * (1.0 - 2.0 * p)


def _ref_oracles(prob, x, idx, v):
    """Value, gradient, Hessian and HVP averaged over the rows ``idx``."""
    Xs, ys = prob.X[idx], prob.y[idx]
    lam = prob.reg_lambda
    rv, rg, rd = _ref_reg_terms(x, lam, prob.reg_alpha)
    values, coef, w = _ref_rows(prob, Xs, ys, x)
    value = float(values.mean() + rv)
    g = Xs.T @ coef / len(idx) + rg
    H = (Xs * w[:, None]).T @ Xs / len(idx)
    hv = Xs.T @ (w * (Xs @ v)) / len(idx)
    if lam != 0.0:
        H = H + np.diag(rd)
        hv = hv + rd * v
    return value, g, (H + H.T) / 2.0, hv


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0


def assert_hessian_matches(prob, x, idx, H, H_ref):
    """nls: bitwise.  logistic: within the general product's forward-error bound
    ``|H - H_ref| <= (s+4) u (|X_S|' diag(w) |X_S|)/s + 4 u |H_ref|`` elementwise,
    with ``u = 2^-53``, ``s = len(idx)`` and the logistic weight ``w`` at ``x``."""
    if prob.kind == "nls_nc":
        return assert_bitwise(H, H_ref)
    u, s = 2.0**-53, len(idx)
    Xs, ys = prob.X[idx], prob.y[idx]
    p = _ref_sigmoid(ys * (Xs @ x))
    w = p * (1.0 - p)
    bound = (s + 4) * u * ((np.abs(Xs) * w[:, None]).T @ np.abs(Xs)) / s + 4 * u * np.abs(H_ref)
    assert H.shape == H_ref.shape and H.dtype == H_ref.dtype
    assert np.all(np.abs(H - H_ref) <= bound)


def summed_bound(prob, x, idx, v=None):
    """Elementwise bound on the difference between the data term of a gradient
    (``v`` None) or Hessian-vector product summed over ``X`` by multiplicity and
    the same sum over the gathered rows ``X_S``.

    Both sum per-row terms ``t``: the gradient coefficient, or ``w * (X v)``.  The
    multiplicity path takes them from the full pass (margins ``X x`` and ``X v``
    over all rows, then the rows ``idx``), the reference from ``X_S x`` and
    ``X_S v``; the two can differ by rounding (``t_S - t'``).  The n-term sum of
    ``m * t`` and the s-term sum of ``t'`` each add at most ``(n + 2) u`` or
    ``(s + 1) u`` times ``|X_S|'|t|/s``, since the multiplicities count the rows
    of ``idx``:
    ``|X_S|'(|t_S - t'| + (n + s + 8) u (|t_S| + |t'|))/s`` with ``u = 2^-53``."""
    u, s = 2.0**-53, len(idx)

    def terms(Xr, yr):
        _, coef, w = _ref_rows(prob, Xr, yr, x)
        return coef if v is None else w * (Xr @ v)

    t_full = terms(prob.X, prob.y)[idx]
    t_rows = terms(prob.X[idx], prob.y[idx])
    slack = (prob.n + s + 8) * u * (np.abs(t_full) + np.abs(t_rows))
    return np.abs(prob.X[idx]).T @ (np.abs(t_full - t_rows) + slack) / s


def assert_summed_matches(prob, x, idx, v, got, ref):
    """``got`` from the multiplicity path within :func:`summed_bound` of the
    gathered ``ref``, plus the rounding of the regularizer term both add."""
    u = 2.0**-53
    bound = summed_bound(prob, x, idx, v) + 4 * u * (np.abs(got) + np.abs(ref))
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.all(np.abs(got - ref) <= bound)


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
@pytest.mark.parametrize("n,d", [(37, 1), (37, 5), (300, 40)])
@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("order", ["C", "F"])
def test_oracles_bitwise_equal_reference(kind, n, d, lam, order):
    rng = np.random.default_rng(n * d)
    # row norms up to ~300 push margins far into both tails of the links
    X = rng.standard_normal((n, d)) * rng.choice([0.1, 1.0, 300.0], size=(n, 1))
    y = rng.choice([-1.0, 1.0], size=n)
    prob = FiniteSumProblem(kind, X=np.asarray(X, order=order), y=y,
                            reg_lambda=lam, reg_alpha=10.0)
    full = np.arange(n)
    # above the multiplicity share of n (summed over X), and below it (gathered)
    multiset = np.concatenate([rng.integers(0, n, size=2 * n), [0, 0, n - 1, n - 1]])
    small = np.concatenate([multiset[: n // 4], [0, 0]])
    assert len(small) < problems._MULTIPLICITY_SHARE * n <= len(multiset)
    for scale in (0.01, 1.0, 5.0):
        x = rng.standard_normal(d) * scale
        v = rng.standard_normal(d)
        value, g, H, hv = _ref_oracles(prob, x, full, v)
        c = OracleCounters()
        assert_bitwise(full_value(prob, x, c), value)
        assert_bitwise(full_gradient(prob, x, c), g)
        assert_hessian_matches(prob, x, full, full_hessian(prob, x, c), H)
        assert_bitwise(batch_gradient(prob, x, full, c), g)
        assert_hessian_matches(prob, x, full, batch_hessian(prob, x, full, c), H)
        assert_bitwise(batch_hvp(prob, x, full, v, c), hv)
        assert c.snapshot() == (2 * n, 3 * n)
        _, g, H, hv = _ref_oracles(prob, x, multiset, v)
        assert_summed_matches(prob, x, multiset, None, batch_gradient(prob, x, multiset, c), g)
        assert_hessian_matches(prob, x, multiset, batch_hessian(prob, x, multiset, c), H)
        assert_summed_matches(prob, x, multiset, v, batch_hvp(prob, x, multiset, v, c), hv)
        _, g, H, hv = _ref_oracles(prob, x, small, v)
        assert_bitwise(batch_gradient(prob, x, small, c), g)
        assert_hessian_matches(prob, x, small, batch_hessian(prob, x, small, c), H)
        assert_bitwise(batch_hvp(prob, x, small, v, c), hv)


def test_links_bitwise_equal_reference_at_edge_margins():
    z = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 36.0, -36.0,
                  709.0, -745.0, 1e-300, -1e-300, 0.5, -0.5, 20.0, -20.0])
    assert_bitwise(_sigmoid(z), _ref_sigmoid(z))
    assert_bitwise(_log1pexp(z), _ref_log1pexp(z))
    assert_bitwise(_log1pexp(-z), _ref_log1pexp(-z))


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
def test_problem_pickles(kind):
    import pickle

    prob = from_dataset(generate_synthetic(20, 3, seed=1), kind)
    copy = pickle.loads(pickle.dumps(prob))
    x = np.array([0.5, -1.0, 2.0])
    assert_bitwise(full_gradient(copy, x, OracleCounters()),
                   full_gradient(prob, x, OracleCounters()))


# -- the record of the last full pass ----------------------------------------------
#
# full_value, full_gradient and full_hessian at one point share one pass over X.
# Every result must equal, bit for bit, the result of a problem that has never
# seen another call (a fresh problem per call).

FULL_ORACLES = (full_value, full_gradient, full_hessian)


def _glm(kind, lam, n=50, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * rng.choice([0.1, 1.0, 30.0], size=(n, 1))
    y = rng.choice([-1.0, 1.0], size=n)
    return FiniteSumProblem(kind, X=X, y=y, reg_lambda=lam, reg_alpha=10.0)


def _fresh(prob):
    return FiniteSumProblem(prob.kind, X=prob.X, y=prob.y, reg_lambda=prob.reg_lambda,
                            reg_alpha=prob.reg_alpha)


def _record_free(prob, oracle, x):
    return oracle(_fresh(prob), x, OracleCounters())


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_full_pass_record_matches_record_free_calls(kind, lam):
    prob = _glm(kind, lam)
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(prob.d), rng.standard_normal(prob.d)
    zero = np.zeros(prob.d)
    points = [a, a, b, a, b, b, zero, -zero, zero, -zero, a.copy(), a.tolist(), b]
    idx = rng.integers(0, prob.n, size=7)
    # summed over X by multiplicity: they read the recorded coefficient and weight
    big, v = rng.integers(0, prob.n, size=prob.n), rng.standard_normal(prob.d)
    assert len(idx) < problems._MULTIPLICITY_SHARE * prob.n <= len(big)
    sampled = (lambda p, x, c: batch_gradient(p, x, idx, c),
               lambda p, x, c: batch_gradient(p, x, big, c),
               lambda p, x, c: batch_hvp(p, x, big, v, c))
    c = OracleCounters()
    for i, x in enumerate(points):
        # rotate the call order, and put the sampled calls between the full calls
        for oracle in FULL_ORACLES[i % 3:] + FULL_ORACLES[:i % 3]:
            assert_bitwise(oracle(prob, x, c), _record_free(prob, oracle, x))
            for call in sampled:
                assert_bitwise(call(prob, x, c), _record_free(prob, call, x))
    k = len(points)
    assert c.snapshot() == (k * (prob.n + 3 * (len(idx) + len(big))),
                            k * (prob.n + 3 * len(big)))


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
def test_full_pass_record_shared_by_threads(kind):
    import sys
    import threading

    prob = _glm(kind, 1e-3, n=400, d=20)
    rng = np.random.default_rng(2)
    points = [rng.standard_normal(prob.d) for _ in range(8)]
    expected = [[np.asarray(_record_free(prob, o, x)).tobytes() for o in FULL_ORACLES]
                for x in points]
    workers = 4  # more threads than the two cores of a small CI machine
    start = threading.Barrier(workers)
    mismatches, finished = [], []

    def worker(mine):
        start.wait(timeout=30)
        for _ in range(40):
            for i in mine:  # alternate points, so the record keeps being replaced
                for j, oracle in enumerate(FULL_ORACLES):
                    got = np.asarray(oracle(prob, points[i], OracleCounters())).tobytes()
                    if got != expected[i][j]:
                        mismatches.append((i, oracle.__name__))
        finished.append(mine)

    threads = [threading.Thread(target=worker, args=([2 * w, 2 * w + 1],))
               for w in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(finished) == workers
    assert mismatches == []


def test_full_pass_record_keeps_the_last_three_points():
    prob = _glm("logistic_nc", 1e-3)
    a, b, c, d = (np.full(prob.d, t) for t in (0.1, 0.2, 0.3, 0.4))

    def keys():
        return [rec.key for rec in prob._passes]

    for x in (a, b, c):
        full_value(prob, x, OracleCounters())
    assert keys() == [c.tobytes(), b.tobytes(), a.tobytes()]
    record = prob._passes
    full_gradient(prob, c, OracleCounters())  # a hit on the newest: left as it is
    assert prob._passes is record
    full_gradient(prob, a, OracleCounters())  # an older hit moves to the front
    assert keys() == [a.tobytes(), c.tobytes(), b.tobytes()]
    assert prob._passes[0] is record[2]
    full_value(prob, d, OracleCounters())  # a miss drops the oldest
    assert keys() == [d.tobytes(), a.tobytes(), c.tobytes()]


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_full_pass_record_survives_pickle(kind, lam):
    import pickle

    prob = _glm(kind, lam)
    x, other = np.full(prob.d, 0.3), np.full(prob.d, -0.7)
    full_gradient(prob, x, OracleCounters())  # fill the record
    copy = pickle.loads(pickle.dumps(prob))
    assert not (copy.X.flags.writeable or copy.y.flags.writeable
                or copy.labels.flags.writeable)
    for point in (x, other, x):
        for oracle in FULL_ORACLES:
            assert_bitwise(oracle(copy, point, OracleCounters()),
                           _record_free(prob, oracle, point))


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_caller_writes_do_not_reach_the_problem(kind, lam):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 3))
    y = rng.choice([-1.0, 1.0], size=30)
    X0, y0 = X.copy(), y.copy()
    prob = FiniteSumProblem(kind, X=X, y=y, reg_lambda=lam, reg_alpha=10.0)
    reference = FiniteSumProblem(kind, X=X0, y=y0, reg_lambda=lam, reg_alpha=10.0)
    x, other = rng.standard_normal(3), rng.standard_normal(3)
    full_value(prob, x, OracleCounters())  # fill the record at x
    X *= 2.0
    y *= -1.0
    with pytest.raises(ValueError):
        prob.X[0, 0] = 1.0
    with pytest.raises(ValueError):
        prob.labels[0] = 1.0
    for point in (x, other, x):  # a hit, a miss, a miss back to x
        for oracle in FULL_ORACLES:
            assert_bitwise(oracle(prob, point, OracleCounters()),
                           _record_free(reference, oracle, point))


def test_read_only_dataset_arrays_are_not_copied():
    ds = generate_synthetic(20, 3, seed=1)
    for kind in ("logistic_nc", "nls_nc"):
        prob = from_dataset(ds, kind)
        assert prob.X is ds.X and prob.y is ds.y


# -- the record of the last sampled gather -------------------------------------------
#
# Consecutive sampled calls on one index multiset share one gather of X[idx].
# As for the full pass, every result must equal, bit for bit, the result of a
# problem without a record.

BATCH_ORACLES = (
    lambda p, x, idx, v, c: batch_gradient(p, x, idx, c),
    lambda p, x, idx, v, c: batch_hvp(p, x, idx, v, c),
    lambda p, x, idx, v, c: batch_hessian(p, x, idx, c),
)


def _record_free_batch(prob, oracle, x, idx, v):
    return oracle(_fresh(prob), x, idx, v, OracleCounters())


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_gather_record_matches_record_free_calls(kind, lam):
    prob = _glm(kind, lam)
    rng = np.random.default_rng(4)
    S, T = rng.integers(0, prob.n, size=9), rng.integers(0, prob.n, size=5)
    points = [rng.standard_normal(prob.d) for _ in range(3)] + [np.zeros(prob.d)]
    v = rng.standard_normal(prob.d)
    multisets = (S, S.tolist(), T, S, np.asarray(S, dtype=np.int32), T)
    c = OracleCounters()
    # each multiset at several points in a row, then the next multiset, then back;
    # a full call in between leaves the gather record alone
    for idx in multisets:
        for i, x in enumerate(points):
            for oracle in BATCH_ORACLES[i % 3:] + BATCH_ORACLES[:i % 3]:
                assert_bitwise(oracle(prob, x, idx, v, c),
                               _record_free_batch(prob, oracle, x, idx, v))
            full_gradient(prob, x, c)
    rows = len(points) * sum(len(idx) for idx in multisets)
    assert c.snapshot() == (rows + len(points) * len(multisets) * prob.n, 2 * rows)


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
def test_gather_record_misses_after_in_place_mutation(kind):
    prob = _glm(kind, 1e-3)
    rng = np.random.default_rng(5)
    x, v = rng.standard_normal(prob.d), rng.standard_normal(prob.d)
    for change, hit in ((lambda a: a.__setitem__(0, 8), False),  # another multiset
                        (lambda a: a.__setitem__(slice(None), a[::-1].copy()), False),
                        (lambda a: None, True)):  # the same bytes
        for oracle in BATCH_ORACLES:
            idx = np.array([3, 3, 7, 11, 40])
            oracle(prob, x, idx, v, OracleCounters())  # fill the record
            before = prob._gather
            change(idx)
            assert_bitwise(oracle(prob, x, idx, v, OracleCounters()),
                           _record_free_batch(prob, oracle, x, idx, v))
            assert (prob._gather is before) == hit
            assert prob._gather[0] == idx.astype(np.intp).tobytes()


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
def test_gather_record_shared_by_threads(kind):
    import sys
    import threading

    prob = _glm(kind, 1e-3, n=400, d=20)
    rng = np.random.default_rng(6)
    x, v = rng.standard_normal(prob.d), rng.standard_normal(prob.d)
    # each worker alternates a gathered multiset and one summed by multiplicity
    multisets = [rng.integers(0, prob.n, size=300 if i % 2 else rng.integers(1, 60))
                 for i in range(8)]
    expected = [[_record_free_batch(prob, o, x, idx, v).tobytes() for o in BATCH_ORACLES]
                for idx in multisets]
    workers = 4
    start = threading.Barrier(workers)
    mismatches, finished = [], []

    def worker(mine):
        start.wait(timeout=30)
        for _ in range(40):
            for i in mine:  # alternate multisets, so the record keeps being replaced
                for j, oracle in enumerate(BATCH_ORACLES):
                    got = oracle(prob, x, multisets[i], v, OracleCounters()).tobytes()
                    if got != expected[i][j]:
                        mismatches.append((i, j))
        finished.append(mine)

    threads = [threading.Thread(target=worker, args=([2 * w, 2 * w + 1],))
               for w in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(finished) == workers
    assert mismatches == []


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_gather_record_dropped_by_pickle(kind, lam):
    import pickle

    prob = _glm(kind, lam)
    x, v = np.full(prob.d, 0.3), np.full(prob.d, -0.7)
    idx = np.array([1, 2, 2, 30])
    batch_gradient(prob, x, idx, OracleCounters())  # fill the records
    batch_gradient(prob, x, np.arange(prob.n), OracleCounters())
    assert prob._gather is not None and prob._passes
    copy = pickle.loads(pickle.dumps(prob))
    for record in ("_gather", "_passes"):
        assert record not in copy.__dict__
    assert copy._gather is None and copy._passes == ()
    assert not (copy.X.flags.writeable or copy.y.flags.writeable
                or copy.labels.flags.writeable)
    for oracle in BATCH_ORACLES:
        assert_bitwise(oracle(copy, x, idx, v, OracleCounters()),
                       _record_free_batch(prob, oracle, x, idx, v))


@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_nls_value_reuses_the_pass_sigmoid(lam):
    # the loss reads the pass's sigmoid, which full_gradient then reuses; the
    # value stays the loss as first written
    prob = _glm("nls_nc", lam)
    rng = np.random.default_rng(7)
    for x in (rng.standard_normal(prob.d), np.zeros(prob.d)):
        e = _sigmoid(prob.X @ x) - (prob.y + 1.0) / 2.0
        values = 0.5 * e * e
        c = OracleCounters()
        assert_bitwise(full_value(prob, x, c),
                       float(values.mean() + _ref_reg_terms(x, lam, prob.reg_alpha)[0]))
        assert prob._passes[0].key == x.tobytes() and prob._passes[0].p is not None
        assert_bitwise(full_gradient(prob, x, c), _record_free(prob, full_gradient, x))


def _ref_normalize(X):
    """Row normalization over the whole matrix at once, as first written."""
    _, e = np.frexp(np.max(np.abs(X), axis=1, initial=0.0))
    X = np.ldexp(X, -e[:, None])
    norms = np.linalg.norm(X, axis=1)
    norms[norms == 0.0] = 1.0
    return X / norms[:, None]


@pytest.mark.filterwarnings("error")  # no overflow in the row norms
def test_normalize_rows_at_extreme_scales():
    X = np.array([[1e-170, 1e-170], [1e200, 1e200], [3.0, 4.0], [0.0, 0.0],
                  [-5e-324, 0.0], [1.7e308, -1.7e308]])
    prob = from_dataset(Dataset(X, np.ones(len(X))), "logistic_nc", normalize_rows=True)
    h = math.sqrt(0.5)
    assert np.allclose(prob.X, [[h, h], [h, h], [0.6, 0.8], [0.0, 0.0], [-1.0, 0.0],
                                [h, -h]], rtol=2e-16, atol=0.0)
    assert prob.X[3].tobytes() == np.zeros(2).tobytes()  # an all-zero row stays as it is
    # over several row blocks, with the extreme rows and a zero row in the last,
    # partial one, the blocks write what one pass over the matrix writes
    B = row_blocks(10**5, 2)[0].stop
    rng = np.random.default_rng(3)
    n = 2 * B + len(X)
    big = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 1))
    big[B - 1] = big[B] = 0.0
    big[2 * B:] = X
    prob = from_dataset(Dataset(big, np.ones(n)), "logistic_nc", normalize_rows=True)
    assert_bitwise(prob.X, _ref_normalize(big))
    assert not prob.X.flags.writeable


def test_normalize_rows_traced_peak_stays_near_the_matrix():
    # the normalized matrix plus one row block: no whole-matrix temporary
    ds = generate_synthetic(12000, 50, 8)
    from_dataset(generate_synthetic(10, 5, 0), "logistic_nc", normalize_rows=True)
    tracemalloc.start()
    try:
        from_dataset(ds, "logistic_nc", normalize_rows=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * ds.X.nbytes


# -- row blocks ----------------------------------------------------------------
#
# Hessians and the analytic Lipschitz bound walk X in consecutive row blocks.
# Up to one block they are the single product over all rows, bit for bit; beyond
# it only the order of the block sums moves.


def _single_product_hessian(prob, x, idx):
    """The Hessian from one product over all rows of the batch, before blocks."""
    Xs, w = prob._weights(x, idx)
    reg = prob._reg_term(x, "diag")
    if prob.link.gram:
        B = Xs * np.sqrt(w / len(w))[:, None]
        H = B.T @ B
        H.flat[:: prob.d + 1] += reg
        return H
    H = (Xs * w[:, None]).T @ Xs / len(w)
    if prob.reg_lambda != 0.0:
        H = H + np.diag(reg)
    return (H + H.T) / 2.0


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_hessian_row_blocks_match_the_single_product(kind, lam):
    d = 5
    B = row_blocks(10**5, d)[0].stop
    rng = np.random.default_rng(4)
    for n in (B - 1, B, B + 1, 2 * B + 1):
        prob = _glm(kind, lam, n=n, d=d, seed=n)
        x = rng.standard_normal(d)
        multiset = rng.integers(0, n, size=n)  # as long as n, with repeated rows
        c = OracleCounters()
        for idx, H in ((problems._ALL, full_hessian(prob, x, c)),
                       (multiset, batch_hessian(prob, x, multiset, c))):
            ref = _single_product_hessian(prob, x, idx)
            if n <= B:
                assert_bitwise(H, ref)
            else:
                assert np.max(np.abs(H - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert np.array_equal(H, H.T)
        assert c.snapshot() == (0, 2 * n)


def test_lipschitz_bounds_equal_the_unblocked_row_norm_max(monkeypatch):
    d = 3
    B = row_blocks(10**5, d)[0].stop
    rng = np.random.default_rng(5)
    for n in (1, B - 1, B, B + 1, 2 * B + 1):
        X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 3, (n, 1))
        for longest in {0, B - 1, B, n - 1} & set(range(n)):  # a block's first or last row
            Xl = X.copy()
            Xl[longest] *= 1e6
            for kind in ("logistic_nc", "nls_nc"):
                prob = FiniteSumProblem(kind, X=Xl, y=np.ones(n), reg_lambda=1e-3)
                got = lipschitz_bounds(prob)
                with monkeypatch.context() as m:
                    m.setattr(problems, "row_blocks", lambda n, d: [slice(None)])
                    ref = lipschitz_bounds(prob)
                assert (got.L1, got.L2) == (ref.L1, ref.L2)


def test_lipschitz_bounds_past_the_float_range_of_alpha_to_the_1_5():
    # alpha**1.5 overflows from alpha of about 3.2e205: the regularizer's L2
    # term is then inf, unless lam brings the product back into range
    def L2(lam, alpha):
        prob = FiniteSumProblem("logistic_nc", X=np.ones((2, 2)), y=np.ones(2),
                                reg_lambda=lam, reg_alpha=alpha)
        return lipschitz_bounds(prob).L2

    assert L2(1e-3, 1e300) == math.inf
    assert L2(0.0, 1e300) == L2(0.0, 1.0)  # the data term alone
    assert L2(1e-200, 1e250) == pytest.approx(24.0 * 0.2 * 1e175, rel=1e-12)


def _traced_peak(call):
    """Peak bytes allocated during ``call()``; memory held before it is not traced."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
def test_full_hessian_and_lipschitz_traced_peaks_stay_below_the_matrix(kind):
    # a whole-matrix temporary (a scaled copy of X, or the squares behind the row
    # norms) would take X.nbytes by itself; row blocks take a fifth of it
    prob = from_dataset(generate_synthetic(12000, 50, 8), kind)
    x = np.random.default_rng(6).standard_normal(prob.d) * 0.3
    full_gradient(prob, x, OracleCounters())  # the full pass at x is recorded
    limit = 0.35 * prob.X.nbytes
    assert _traced_peak(lambda: full_hessian(prob, x, OracleCounters())) <= limit
    assert _traced_peak(lambda: lipschitz_bounds(prob)) <= limit
