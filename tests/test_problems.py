import math

import numpy as np
import pytest

from strbench import problems
from strbench.datasets import Dataset, generate_synthetic
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


def test_regularizer_rejects_bad_alpha():
    with pytest.raises(ValueError):
        regularizer_derivatives(np.zeros(2), alpha=0.0)


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
    assert c.snapshot() == (0, 0, 0)


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
    assert c.fval == 30


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
    assert c.snapshot() == (3, 3, small_logistic.n)


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


def test_saddle_quadratic_scales():
    prob = quadratic_problem(3, 2, anchors=np.zeros((3, 2)), quad_scales=np.array([2.0, -2.0]))
    H = full_hessian(prob, np.zeros(2), OracleCounters())
    assert np.allclose(H, np.diag([2.0, -2.0]))
    assert lipschitz_bounds(prob).L1 == 2.0


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
        assert c.snapshot() == (2 * n, 3 * n, n)
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
    c = OracleCounters()
    for i, x in enumerate(points):
        # rotate the call order, and put a sampled batch between the full calls
        for oracle in FULL_ORACLES[i % 3:] + FULL_ORACLES[:i % 3]:
            assert_bitwise(oracle(prob, x, c), _record_free(prob, oracle, x))
            assert_bitwise(batch_gradient(prob, x, idx, c),
                           _record_free(prob, lambda p, x, c: batch_gradient(p, x, idx, c), x))
    k = len(points)
    assert c.snapshot() == (k * (prob.n + 3 * len(idx)), k * prob.n, k * prob.n)


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
    assert c.snapshot() == (rows + len(points) * len(multisets) * prob.n, 2 * rows, 0)


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
    assert prob._gather is not None and prob._counts is not None and prob._passes
    copy = pickle.loads(pickle.dumps(prob))
    for record in ("_gather", "_counts", "_passes"):
        assert record not in copy.__dict__
    assert copy._gather is None and copy._counts is None and copy._passes == ()
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


@pytest.mark.filterwarnings("error")  # no overflow in the row norms
def test_normalize_rows_at_extreme_scales():
    X = np.array([[1e-170, 1e-170], [1e200, 1e200], [3.0, 4.0], [0.0, 0.0],
                  [-5e-324, 0.0], [1.7e308, -1.7e308]])
    prob = from_dataset(Dataset(X, np.ones(len(X))), "logistic_nc", normalize_rows=True)
    h = math.sqrt(0.5)
    assert np.allclose(prob.X, [[h, h], [h, h], [0.6, 0.8], [0.0, 0.0], [-1.0, 0.0],
                                [h, -h]], rtol=2e-16, atol=0.0)
    assert prob.X[3].tobytes() == np.zeros(2).tobytes()  # an all-zero row stays as it is
