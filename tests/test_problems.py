import math

import numpy as np
import pytest

from strbench.datasets import generate_synthetic
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


def test_hessian_exactly_symmetric(small_nls, rng):
    x = rng.standard_normal(small_nls.d)
    H = batch_hessian(small_nls, x, rng.integers(0, small_nls.n, 9), OracleCounters())
    assert np.array_equal(H, H.T)


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


def _ref_oracles(prob, x, idx, v):
    """Value, gradient, Hessian and HVP averaged over the rows ``idx``."""
    Xs, ys = prob.X[idx], prob.y[idx]
    lam = prob.reg_lambda
    if lam == 0.0:
        rv, rg, rd = 0.0, 0.0, 0.0
    else:
        val, grad, diag = regularizer_derivatives(x, prob.reg_alpha)
        rv, rg, rd = lam * val, lam * grad, lam * diag
    if prob.kind == "logistic_nc":
        z = ys * (Xs @ x)
        values = _ref_log1pexp(-z)
        coef = (_ref_sigmoid(z) - 1.0) * ys
        p = _ref_sigmoid(z)
        w = p * (1.0 - p)
    else:
        t = (ys + 1.0) / 2.0
        z = Xs @ x
        e = _ref_sigmoid(z) - t
        values = 0.5 * e * e
        p = _ref_sigmoid(z)
        coef = (p - t) * p * (1.0 - p)
        sp = p * (1.0 - p)
        w = sp * sp + (p - t) * sp * (1.0 - 2.0 * p)
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
    multiset = np.concatenate([rng.integers(0, n, size=2 * n), [0, 0, n - 1, n - 1]])
    for scale in (0.01, 1.0, 5.0):
        x = rng.standard_normal(d) * scale
        v = rng.standard_normal(d)
        value, g, H, hv = _ref_oracles(prob, x, full, v)
        c = OracleCounters()
        assert_bitwise(full_value(prob, x, c), value)
        assert_bitwise(full_gradient(prob, x, c), g)
        assert_bitwise(full_hessian(prob, x, c), H)
        assert_bitwise(batch_gradient(prob, x, full, c), g)
        assert_bitwise(batch_hessian(prob, x, full, c), H)
        assert_bitwise(batch_hvp(prob, x, full, v, c), hv)
        assert c.snapshot() == (2 * n, 3 * n, n)
        _, g, H, hv = _ref_oracles(prob, x, multiset, v)
        assert_bitwise(batch_gradient(prob, x, multiset, c), g)
        assert_bitwise(batch_hessian(prob, x, multiset, c), H)
        assert_bitwise(batch_hvp(prob, x, multiset, v, c), hv)


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
