import math

import numpy as np
import pytest

from strbench.datasets import generate_synthetic
from strbench.driver import (
    RunConfig,
    make_estimators,
    run,
    run_inexact_tr,
    run_inexact_tr_expectation,
    verify_sosp,
)
from strbench.estimators import GradSchedule, HessSchedule
from strbench.problems import (
    LipschitzBounds,
    OracleCounters,
    from_dataset,
    full_gradient,
    full_hessian,
    full_value,
    lipschitz_bounds,
    quadratic_problem,
)


@pytest.fixture(scope="module")
def logistic_small():
    ds = generate_synthetic(200, 10, seed=3)
    return from_dataset(ds, "logistic_nc")


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(variant="nope")
    with pytest.raises(ValueError):
        RunConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        RunConfig(delta=1.0)
    with pytest.raises(ValueError):
        RunConfig(solver="cg")


def test_scalar_quadratic_converges_fast():
    # F(x) = x^2/2, start at 1: with radius 1 the first step is the Newton
    # step to the minimizer, so the dual threshold fires immediately.
    prob = quadratic_problem(1, 1, anchors=np.zeros((1, 1)))
    cfg = RunConfig(
        variant="exact_tr", epsilon=1e-4,
        lipschitz=LipschitzBounds(1.0, 1.0, "user"),
        r_override=1.0, x0=np.array([1.0]),
    )
    res = run("exact_tr", prob, cfg)
    assert res.stop_reason == "dual_threshold"
    assert len(res.trace) <= 3
    assert res.report.grad_norm <= 3e-4
    assert res.report.certified


def test_stationary_start_stops_immediately(quad_problem):
    x_star = quad_problem.anchors.mean(axis=0)
    cfg = RunConfig(variant="exact_tr", epsilon=1e-4, x0=x_star)
    res = run("exact_tr", quad_problem, cfg)
    assert res.stop_reason == "dual_threshold"
    assert len(res.trace) == 1
    assert res.trace[0].lambda_alg == 0.0
    assert res.report.certified


def test_exact_descent_law(logistic_small):
    eps = 1e-2
    lip = lipschitz_bounds(logistic_small)
    res = run("exact_tr", logistic_small, RunConfig(variant="exact_tr", epsilon=eps))
    assert res.stop_reason == "dual_threshold"
    thr = 2.0 * math.sqrt(eps / lip.L2)
    need = eps**1.5 / (6.0 * math.sqrt(lip.L2)) - 1e-12
    fvals = [rec.fval for rec in res.trace]
    fvals.append(full_value(logistic_small, res.x_final, OracleCounters()))
    for k, rec in enumerate(res.trace):
        if rec.lambda_alg > thr:
            assert fvals[k] - fvals[k + 1] >= need


def test_boundary_step_law(logistic_small):
    eps = 1e-2
    lip = lipschitz_bounds(logistic_small)
    r = math.sqrt(eps / lip.L2)
    thr = 2.0 * math.sqrt(eps / lip.L2)
    res = run("exact_tr", logistic_small, RunConfig(variant="exact_tr", epsilon=eps))
    for rec in res.trace:
        if rec.lambda_alg > thr:
            assert rec.step_norm == pytest.approx(r, rel=1e-8)


def test_trace_monotone_counters(logistic_small):
    res = run("exact_tr", logistic_small, RunConfig(variant="exact_tr", epsilon=1e-2))
    ks = [r.k for r in res.trace]
    assert ks == list(range(len(ks)))
    for a, b in zip(res.trace, res.trace[1:]):
        assert b.sfo >= a.sfo and b.sso >= a.sso


def test_determinism_same_seed(logistic_small):
    cfg = RunConfig(variant="str1", epsilon=1e-2, seed=5, mode="practical",
                    kappa_grad=1.0, kappa_hess=0.2)
    a = run("str1", logistic_small, cfg)
    b = run("str1", logistic_small, cfg)
    assert len(a.trace) == len(b.trace)
    assert np.array_equal(a.x_final, b.x_final)
    for ra, rb in zip(a.trace, b.trace):
        assert (ra.fval, ra.lambda_alg, ra.step_norm, ra.sfo, ra.sso) == (
            rb.fval, rb.lambda_alg, rb.step_norm, rb.sfo, rb.sso)


def test_str1_quadratic_certifies(quad_problem):
    res = run("str1", quad_problem, RunConfig(variant="str1", epsilon=1e-3, seed=0))
    assert res.stop_reason == "dual_threshold"
    assert res.report.certified


def test_str2_runs_and_certifies(logistic_small):
    res = run("str2", logistic_small, RunConfig(variant="str2", epsilon=1e-2, seed=1))
    assert res.stop_reason == "dual_threshold"
    assert res.report.certified


def test_full_batch_schedules_reproduce_exact(logistic_small):
    eps = 1e-2
    exact = run("exact_tr", logistic_small, RunConfig(variant="exact_tr", epsilon=eps, seed=0))
    forced = RunConfig(
        variant="str1", epsilon=eps, seed=0,
        grad_schedule=GradSchedule(case=1, p1=1, s1=logistic_small.n),
        hess_schedule=HessSchedule("I", p2=1, s2=logistic_small.n, s2_prime=None),
    )
    res = run("str1", logistic_small, forced)
    assert len(res.iterates) == len(exact.iterates)
    for a, b in zip(res.iterates, exact.iterates):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_subsampled_uses_fixed_fresh_batches(logistic_small):
    n = logistic_small.n
    cfg = RunConfig(variant="subsampled", epsilon=1e-2, seed=2,
                    sub_s1=40, sub_s2=30, K_override=5)
    res = run("subsampled", logistic_small, cfg)
    per_iter = [(res.trace[0].sfo, res.trace[0].sso)]
    for a, b in zip(res.trace, res.trace[1:]):
        per_iter.append((b.sfo - a.sfo, b.sso - a.sso))
    assert all(p == (40, 30) for p in per_iter)


def test_lanczos_solver_variant(logistic_small):
    cfg = RunConfig(variant="exact_tr", epsilon=1e-2, solver="lanczos")
    res = run("exact_tr", logistic_small, cfg)
    assert res.stop_reason == "dual_threshold"
    assert res.report.certified


def test_unknown_variant_rejected(logistic_small):
    with pytest.raises(ValueError):
        run("sgd", logistic_small, RunConfig(variant="exact_tr"))


def test_iteration_cap(logistic_small):
    cfg = RunConfig(variant="exact_tr", epsilon=1e-8, K_override=4)
    res = run("exact_tr", logistic_small, cfg)
    assert res.stop_reason == "iteration_cap"
    assert len(res.trace) == 4


# -- verify_sosp ---------------------------------------------------------------


def test_verify_sosp_at_quadratic_min(quad_problem):
    x_star = quad_problem.anchors.mean(axis=0)
    rep = verify_sosp(quad_problem, x_star, 1e-4, 1.0)
    assert rep.grad_norm <= 1e-12
    assert rep.min_eig == pytest.approx(1.0, abs=1e-12)
    assert rep.certified


def test_verify_sosp_flags_saddle():
    prob = quadratic_problem(
        4, 2, anchors=np.zeros((4, 2)), quad_scales=np.array([2.0, -2.0])
    )
    # (10/3) sqrt(L2 eps) < 2 with the quadratic floor L2 = 1e-6
    rep = verify_sosp(prob, np.zeros(2), 1e-4, 1e-6)
    assert rep.grad_ok
    assert not rep.eig_ok
    assert not rep.certified
    assert rep.min_eig == pytest.approx(-2.0, abs=1e-12)


def test_verify_sosp_threshold_consistency(logistic_small):
    eps, L2 = 1e-3, 0.25
    x = np.full(logistic_small.d, 0.1)
    rep = verify_sosp(logistic_small, x, eps, L2)
    g = full_gradient(logistic_small, x, OracleCounters())
    H = full_hessian(logistic_small, x, OracleCounters())
    assert rep.grad_ok == (np.linalg.norm(g) <= 3 * eps)
    assert rep.eig_ok == (
        np.linalg.eigvalsh(H)[0] >= -(10.0 / 3.0) * math.sqrt(L2 * eps)
    )


# -- expectation-stopping variant ------------------------------------------------


def _exact_estimators(problem, cfg):
    return make_estimators("exact_tr", problem, cfg, np.random.default_rng(cfg.seed))


def test_expectation_interior_exit_at_minimum(quad_problem):
    x_star = quad_problem.anchors.mean(axis=0)
    cfg = RunConfig(variant="exact_tr", epsilon=1e-4, x0=x_star)
    g_fn, h_fn = _exact_estimators(quad_problem, cfg)
    res = run_inexact_tr_expectation(quad_problem, cfg, g_fn, h_fn)
    assert res.stop_reason == "interior_step"
    assert len(res.trace) == 1


def test_expectation_random_pick_reproducible(logistic_small):
    cfg = RunConfig(variant="exact_tr", epsilon=1e-9, K_override=5, seed=9)
    g_fn, h_fn = _exact_estimators(logistic_small, cfg)
    a = run_inexact_tr_expectation(logistic_small, cfg, g_fn, h_fn)
    assert a.stop_reason == "random_iterate"
    assert len(a.trace) == 5
    g_fn, h_fn = _exact_estimators(logistic_small, cfg)
    b = run_inexact_tr_expectation(logistic_small, cfg, g_fn, h_fn)
    assert np.array_equal(a.x_final, b.x_final)
    # returned point is one of the five post-step iterates
    assert any(np.array_equal(a.x_final, it) for it in a.iterates)


def test_expectation_mean_gradient_small(logistic_small):
    eps = 1e-2
    grads = []
    for seed in range(12):
        cfg = RunConfig(variant="str1", epsilon=eps, seed=seed, mode="practical",
                        kappa_grad=1.0, kappa_hess=0.2, K_override=200)
        g_fn, h_fn = make_estimators("str1", logistic_small, cfg,
                                     np.random.default_rng(seed))
        res = run_inexact_tr_expectation(logistic_small, cfg, g_fn, h_fn)
        grads.append(res.report.grad_norm)
    assert np.mean(grads) <= 1.5 * 3 * eps


def test_dual_threshold_invariant(logistic_small):
    eps = 1e-2
    lip = lipschitz_bounds(logistic_small)
    res = run("exact_tr", logistic_small, RunConfig(variant="exact_tr", epsilon=eps))
    assert res.stop_reason == "dual_threshold"
    assert res.trace[-1].lambda_alg <= 2.0 * math.sqrt(eps / lip.L2)
    assert all(rec.solver_converged for rec in res.trace)


def test_iteration_bound_from_realized_decrease(logistic_small):
    eps = 1e-2
    lip = lipschitz_bounds(logistic_small)
    res = run("exact_tr", logistic_small, RunConfig(variant="exact_tr", epsilon=eps))
    f0 = full_value(logistic_small, np.zeros(logistic_small.d), OracleCounters())
    f_end = full_value(logistic_small, res.x_final, OracleCounters())
    bound = math.ceil(6.0 * math.sqrt(lip.L2) * (f0 - f_end) / eps**1.5) + 1
    assert len(res.trace) <= bound


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_objective_aborts():
    from strbench.driver import RunAborted
    from strbench.problems import quadratic_problem as qp

    prob = qp(4, 2, seed=0)
    cfg = RunConfig(variant="exact_tr", epsilon=1e-3, x0=np.array([1e200, 0.0]),
                    delta_hat=1.0, K_override=10)
    with pytest.raises(RunAborted):
        run("exact_tr", prob, cfg)


@pytest.mark.parametrize("variant", ["exact_tr", "str1", "str2", "subsampled"])
def test_run_resolves_config_once(logistic_small, monkeypatch, variant):
    import strbench.driver as drv

    calls = []
    original = drv.resolve_config

    def counting(problem, config):
        calls.append(variant)
        return original(problem, config)

    monkeypatch.setattr(drv, "resolve_config", counting)
    cfg = RunConfig(variant=variant, epsilon=1e-2, mode="practical", kappa_grad=1.0,
                    kappa_hess=0.2, sub_s1=50, sub_s2=50, K_override=3)
    once = run(variant, logistic_small, cfg)
    assert len(calls) == 1
    monkeypatch.undo()
    # passing the resolved values down changes nothing in the run
    g_fn, h_fn = make_estimators(variant, logistic_small, cfg, np.random.default_rng(0))
    direct = run_inexact_tr(logistic_small, cfg, g_fn, h_fn)
    assert np.array_equal(once.x_final, direct.x_final)
    assert once.counters == direct.counters
