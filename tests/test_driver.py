import math

import numpy as np
import pytest

from strbench.datasets import generate_synthetic
from strbench.driver import (
    RunAborted,
    RunConfig,
    make_estimators,
    resolve_config,
    run,
    run_inexact_tr,
    run_inexact_tr_expectation,
    verify_sosp,
)
from strbench.estimators import Schedule
from strbench.problems import (
    FiniteSumProblem,
    LipschitzBounds,
    OracleCounters,
    batch_gradient,
    batch_hessian,
    from_dataset,
    full_gradient,
    full_hessian,
    full_value,
    lipschitz_bounds,
    quadratic_problem,
)
from strbench.trs import solve_trs_exact


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


def test_scalar_quadratic_converges_fast():
    # F(x) = x^2/2, start at 1: with radius sqrt(eps/L2) = 1 the first step is
    # the Newton step to the minimizer, so the dual threshold fires immediately.
    # A quadratic's Hessian is constant, so any L2 > 0 bounds its Lipschitz constant.
    prob = quadratic_problem(1, 1, anchors=np.zeros((1, 1)))
    cfg = RunConfig(
        variant="exact_tr", epsilon=1e-4,
        lipschitz=LipschitzBounds(1.0, 1e-4, "user"), x0=np.array([1.0]),
    )
    assert resolve_config(prob, cfg).r == 1.0
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


def _knobs(variant, kappa_grad):
    """The practical knobs ``variant`` reads: the kappas for str1/str2, the
    batch sizes for subsampled (RunConfig refuses a knob a variant ignores)."""
    if variant in ("str1", "str2"):
        return {"mode": "practical", "kappa_grad": kappa_grad, "kappa_hess": 0.2}
    return {"sub_s1": 50, "sub_s2": 50} if variant == "subsampled" else {}


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


def _estimators(problem, cfg):
    """The estimator callables ``run`` wires for ``cfg``."""
    return make_estimators(cfg.variant, problem, cfg, np.random.default_rng(cfg.seed))


def test_full_batch_schedules_reproduce_exact(logistic_small, run_path, scheduled):
    eps = 1e-2
    _, exact = run_path(logistic_small, RunConfig(variant="exact_tr", epsilon=eps, seed=0))
    forced = RunConfig(variant="str1", epsilon=eps, seed=0)
    full = Schedule(p=1, s=logistic_small.n)
    _, same = run_path(logistic_small, forced, scheduled(logistic_small, forced, full, full))
    assert len(same) == len(exact)
    for a, b in zip(same, exact):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_theory_mode_is_kappa_one():
    # theory mode's schedules are the practical ones at kappa 1, and it rejects
    # a kappa rather than ignore it (n is large enough that kappa 0.3 shrinks
    # the Hessian batches below n)
    prob = from_dataset(generate_synthetic(20_000, 5, seed=3), "logistic_nc")

    def str1(**knobs):
        return run("str1", prob,
                   RunConfig(variant="str1", epsilon=1e-2, seed=3, K_override=30, **knobs))

    theory = str1(mode="theory")
    practical = str1(mode="practical", kappa_grad=1.0, kappa_hess=1.0)
    assert theory.counters == practical.counters
    assert theory.x_final.tobytes() == practical.x_final.tobytes()
    assert str1(mode="practical", kappa_hess=0.3).counters != theory.counters
    for knob in ("kappa_grad", "kappa_hess"):
        with pytest.raises(ValueError, match=f"{knob} is a practical-mode option"):
            RunConfig(variant="str1", mode="theory", **{knob: 0.3})


def test_subsampled_uses_fixed_fresh_batches(logistic_small):
    n = logistic_small.n
    cfg = RunConfig(variant="subsampled", epsilon=1e-2, seed=2,
                    sub_s1=40, sub_s2=30, K_override=5)
    res = run("subsampled", logistic_small, cfg)
    per_iter = [(res.trace[0].sfo, res.trace[0].sso)]
    for a, b in zip(res.trace, res.trace[1:]):
        per_iter.append((b.sfo - a.sfo, b.sso - a.sso))
    assert all(p == (40, 30) for p in per_iter)


def _closure_estimators(variant, problem, config, rng):
    """The per-variant closures the baselines were once wired with, kept as the
    reference for their epoch-recurrence wiring: an exact or a fresh-batch oracle
    call at every step."""
    n = problem.n
    if variant == "exact_tr":
        return (lambda x, counters: full_gradient(problem, x, counters),
                lambda x, counters: full_hessian(problem, x, counters))
    s1 = config.sub_s1 if config.sub_s1 is not None else n
    s2 = config.sub_s2 if config.sub_s2 is not None else n
    return (
        lambda x, counters: batch_gradient(problem, x, rng.integers(0, n, size=s1), counters),
        lambda x, counters: batch_hessian(problem, x, rng.integers(0, n, size=s2), counters),
    )


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
@pytest.mark.parametrize("variant,sizes", [
    ("exact_tr", {}),
    ("subsampled", {}),  # n draws: the sampled gradient is summed by multiplicity
    ("subsampled", {"sub_s1": 30, "sub_s2": 17}),  # gathered batches
])
def test_baselines_match_their_per_variant_closures(kind, variant, sizes):
    ds = generate_synthetic(120, 6, seed=5)
    cfg = RunConfig(variant=variant, epsilon=1e-2, **sizes)
    walk = np.random.default_rng(9).standard_normal((6, 6)) * 0.2  # six steps in d = 6
    outputs, streams = [], []
    for wire in (make_estimators, _closure_estimators):
        # a problem each, so neither sequence reads the other's full-pass record
        prob = from_dataset(ds, kind, reg_lambda=1e-3)
        rng = np.random.default_rng(4)
        g_fn, h_fn = wire(variant, prob, cfg, rng)
        c, seen, x = OracleCounters(), [], np.full(prob.d, 0.1)
        for step in walk:
            seen.append((g_fn(x, c), h_fn(x, c), c.snapshot()))
            x = x + step
        outputs.append(seen)
        streams.append(rng.bit_generator.state)
    new, old = outputs
    for (g, H, counts), (g_ref, H_ref, counts_ref) in zip(new, old, strict=True):
        assert g.tobytes() == g_ref.tobytes() and H.tobytes() == H_ref.tobytes()
        assert counts == counts_ref
    assert streams[0] == streams[1]


@pytest.mark.parametrize("sizes", [{"sub_s1": 201}, {"sub_s2": 201}, {"sub_s1": 2**62}])
def test_subsampled_batch_above_n_is_refused_before_any_draw(logistic_small, sizes):
    # a batch past the n = 200 rows is refused, not drawn (2**62 indices would not fit
    # in memory); a batch of all n rows is the largest one taken
    cfg = RunConfig(variant="subsampled", epsilon=1e-2, **sizes)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    name = next(iter(sizes))
    with pytest.raises(ValueError, match=f"{name}={sizes[name]} exceeds the n=200 rows"):
        make_estimators("subsampled", logistic_small, cfg, rng)
    with pytest.raises(ValueError, match=name):
        run("subsampled", logistic_small, cfg)
    assert rng.bit_generator.state == state
    make_estimators("subsampled", logistic_small,
                    RunConfig(variant="subsampled", sub_s1=200, sub_s2=200), rng)


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


# A strict saddle of a logistic_nc problem (two negative eigenvalues, -0.471 and
# -0.068, and a gradient of norm 1.6e-17), where Newton's method on the gradient
# ends from the 24th default_rng(0).uniform(-3, 3, 10) draw.  Stored, since that
# search overflows on its way.
_SADDLE = np.array([-7.619937663241329, -6.174434996663437, -0.113103571523072,
                    -0.8715325060329259, -9.213595405796921, -0.2688220751954261,
                    -4.580122876996462, 3.2517119259792695, 4.974667749583759,
                    5.374663001188563])


def _saddle_problem():
    return from_dataset(generate_synthetic(500, 10, 8, separable=True), "logistic_nc",
                        reg_lambda=0.01, reg_alpha=100.0)


def test_verify_sosp_flags_saddle():
    # (10/3) sqrt(L2 eps) = 0.105 < 0.471 with L2 = 1
    prob = _saddle_problem()
    H = full_hessian(prob, _SADDLE, OracleCounters())
    rep = verify_sosp(prob, _SADDLE, 1e-3, 1.0)
    assert rep.grad_ok
    assert not rep.eig_ok
    assert not rep.certified
    assert rep.min_eig == pytest.approx(np.linalg.eigvalsh(H)[0], abs=1e-12)


def test_runs_from_a_strict_saddle_step_along_negative_curvature_and_certify():
    # the paper's output is an approximate local minimum, not only a stationary
    # point: at a saddle the gradient test passes and the eigenvalue test fails,
    # the first step is the hard case's step along the bottom eigenvector, and
    # the runs end certified, lower (1,643 iterations each)
    prob = _saddle_problem()
    lip = lipschitz_bounds(prob, mode="sampled")
    eps = 1e-3
    g = full_gradient(prob, _SADDLE, OracleCounters())
    H = full_hessian(prob, _SADDLE, OracleCounters())
    w, V = np.linalg.eigh(H)
    assert np.linalg.norm(g) <= 1e-16 and w[0] < w[1] < 0 < w[2]
    report = verify_sosp(prob, _SADDLE, eps, lip.L2)
    assert report.grad_ok and not report.eig_ok

    r = math.sqrt(eps / lip.L2)
    sol = solve_trs_exact(g, H, r, lip.L2)
    assert sol.on_boundary
    assert sol.mu == pytest.approx(-w[0], rel=1e-14)  # mu >= -lambda_1 alone proves nothing
    assert abs(sol.h @ V[:, 0]) >= (1.0 - 1e-14) * np.linalg.norm(sol.h)
    assert sol.model_decrease == pytest.approx(w[0] * r * r / 2.0, rel=1e-13)

    f0 = full_value(prob, _SADDLE, OracleCounters())
    for extra in ({"variant": "exact_tr"},
                  {"variant": "str1", "mode": "practical", "kappa_hess": 0.05}):
        result = run(extra["variant"], prob,
                     RunConfig(epsilon=eps, lipschitz=lip, x0=_SADDLE, **extra))
        if extra["variant"] == "exact_tr":  # str1's first Hessian is sampled
            assert result.trace[0].lambda_alg == pytest.approx(sol.lambda_alg, rel=1e-12)
        assert result.stop_reason == "dual_threshold"
        assert result.report.certified
        assert f0 == pytest.approx(0.30310, abs=1e-5)
        assert full_value(prob, result.x_final, OracleCounters()) == pytest.approx(0.11723,
                                                                                   abs=1e-5)


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


def test_certificate_and_trace_measure_a_tiny_gradient():
    # a gradient of 1e-170 squares to 0 at the caller's scale; the scaled norm
    # keeps it, so the certificate fails it against 3 eps = 3e-200
    prob = quadratic_problem(4, 2, anchors=np.zeros((4, 2)))
    x = np.array([1e-170, 0.0])
    rep = verify_sosp(prob, x, epsilon=1e-200, L2=1.0)
    assert rep.grad_norm == 1e-170
    assert not rep.grad_ok and not rep.certified
    cfg = RunConfig(epsilon=1e-200, lipschitz=LipschitzBounds(1.0, 1.0), K_override=1, x0=x)
    assert run("exact_tr", prob, cfg).trace[0].grad_norm == 1e-170


# -- expectation-stopping variant ------------------------------------------------


def test_expectation_interior_exit_at_minimum(quad_problem):
    x_star = quad_problem.anchors.mean(axis=0)
    cfg = RunConfig(variant="exact_tr", epsilon=1e-4, x0=x_star)
    g_fn, h_fn = _estimators(quad_problem, cfg)
    res = run_inexact_tr_expectation(quad_problem, cfg, g_fn, h_fn)
    assert res.stop_reason == "interior_step"
    assert len(res.trace) == 1


def test_expectation_random_pick_reproducible(logistic_small, monkeypatch, recording):
    import strbench.driver as drv

    solve = drv.solve_trs_exact
    steps = []

    def recording_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        steps.append(sol.h)
        return sol

    monkeypatch.setattr(drv, "solve_trs_exact", recording_solve)
    cfg = RunConfig(variant="exact_tr", epsilon=1e-9, K_override=5, seed=9)
    g_fn, h_fn = _estimators(logistic_small, cfg)
    points = []
    a = run_inexact_tr_expectation(logistic_small, cfg, recording(g_fn, points), h_fn)
    assert a.stop_reason == "random_iterate"
    assert len(a.trace) == len(points) == len(steps) == 5
    g_fn, h_fn = _estimators(logistic_small, cfg)
    b = run_inexact_tr_expectation(logistic_small, cfg, g_fn, h_fn)
    assert np.array_equal(a.x_final, b.x_final)
    # the returned point is the post-step iterate of the seeded iteration kbar
    kbar = int(np.random.default_rng([9, 1]).integers(0, 5))
    assert np.array_equal(a.x_final, points[kbar] + steps[kbar])


def test_expectation_tiny_radius_runs_to_the_cap(logistic_small):
    # ||h||^2 underflows at r = sqrt(eps/L2) = 1e-160: every step is still on the
    # boundary, so the no-dual run never takes an interior exit.  eps**1.5
    # underflows too, so the cap comes from K_override.
    cfg = RunConfig(variant="exact_tr", epsilon=1e-300, K_override=5,
                    lipschitz=LipschitzBounds(1.0, 1e20, "user"))
    r = resolve_config(logistic_small, cfg).r
    assert r == math.sqrt(1e-300 / 1e20) and 0.99e-160 < r < 1.01e-160
    res = run_inexact_tr_expectation(logistic_small, cfg, *_estimators(logistic_small, cfg))
    assert res.stop_reason == "random_iterate"
    assert len(res.trace) == 5
    for rec in res.trace:
        assert rec.step_norm == pytest.approx(r, rel=1e-12)


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
    from strbench.problems import quadratic_problem as qp

    prob = qp(4, 2, seed=0)
    cfg = RunConfig(variant="exact_tr", epsilon=1e-3, x0=np.array([1e200, 0.0]),
                    K_override=10)
    with pytest.raises(RunAborted) as info:
        run("exact_tr", prob, cfg)
    assert info.value.trace == []
    assert np.array_equal(info.value.x, cfg.x0)
    assert info.value.counters == OracleCounters()


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
def test_run_starts_where_the_regularizer_term_overflows(kind):
    # alpha w^2 overflows at w = 1e160, where R's terms take their limits; F is
    # finite there, so the run does not abort on its first objective
    prob = from_dataset(generate_synthetic(60, 3, seed=1), kind)
    x0 = np.array([1e160, 0.0, 0.0])
    result = run("exact_tr", prob, RunConfig(variant="exact_tr", epsilon=1e-2,
                                             K_override=5, x0=x0))
    fval = full_value(prob, x0, OracleCounters())
    assert math.isfinite(fval) and result.trace[0].fval == fval
    assert np.isfinite(result.x_final).all()


@pytest.mark.parametrize("overrides", [
    {"lipschitz": LipschitzBounds(math.inf, 1.0)},
    {"lipschitz": LipschitzBounds(1.0, math.inf)},
    {"epsilon": 1e-300, "lipschitz": LipschitzBounds(1.0, 1e300)},  # r = sqrt(eps/L2) = 0
    {"epsilon": 1e300, "lipschitz": LipschitzBounds(1.0, 1e-300)},  # r = inf
    {"epsilon": 1e-250},  # eps**1.5 underflows: the cap from F(x0) is not finite
])
def test_resolve_config_rejects_non_finite_or_non_positive(logistic_small, overrides):
    cfg = RunConfig(**{"variant": "exact_tr", "epsilon": 1e-2, **overrides})
    with pytest.raises(RunAborted, match="finite and positive") as info:
        resolve_config(logistic_small, cfg)
    assert info.value.trace == [] and info.value.counters == OracleCounters()
    assert np.array_equal(info.value.x, np.zeros(logistic_small.d))


@pytest.mark.parametrize("variant", ["exact_tr", "str1", "str2", "subsampled"])
def test_run_resolves_config_once(logistic_small, monkeypatch, variant):
    import strbench.driver as drv

    calls = []
    original = drv.resolve_config

    def counting(problem, config):
        calls.append(variant)
        return original(problem, config)

    monkeypatch.setattr(drv, "resolve_config", counting)
    cfg = RunConfig(variant=variant, epsilon=1e-2, K_override=3, **_knobs(variant, 1.0))
    once = run(variant, logistic_small, cfg)
    assert len(calls) == 1
    monkeypatch.undo()
    # passing the resolved values down changes nothing in the run
    g_fn, h_fn = make_estimators(variant, logistic_small, cfg, np.random.default_rng(0))
    direct = run_inexact_tr(logistic_small, cfg, g_fn, h_fn)
    assert np.array_equal(once.x_final, direct.x_final)
    assert once.counters == direct.counters


# -- non-finite estimates and iterates -------------------------------------------


def _poisoned(estimator, at_call, value):
    """``estimator`` whose ``at_call``-th output (1-based) has one ``value`` entry."""
    calls = []

    def fn(x, counters):
        out = estimator(x, counters)
        calls.append(1)
        if len(calls) == at_call:
            out = out.copy()
            out.flat[0] = value
        return out

    return fn


@pytest.mark.parametrize("which", ["gradient", "Hessian"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_estimate_aborts(logistic_small, run_path, which, value):
    cfg = RunConfig(variant="exact_tr", epsilon=1e-6, K_override=10)
    g_fn, h_fn = _estimators(logistic_small, cfg)
    if which == "gradient":
        g_fn = _poisoned(g_fn, 3, value)
    else:
        h_fn = _poisoned(h_fn, 3, value)
    clean, path = run_path(logistic_small, cfg)
    with pytest.raises(RunAborted, match=f"non-finite {which} estimate at iteration 2") as info:
        run_inexact_tr(logistic_small, cfg, g_fn, h_fn)
    assert [(r.k, r.fval, r.grad_norm, r.sfo, r.sso) for r in info.value.trace] == [
        (r.k, r.fval, r.grad_norm, r.sfo, r.sso) for r in clean.trace[:2]]
    assert np.array_equal(info.value.x, path[2])  # the post-step iterate of iteration 1
    counters = info.value.counters  # the loop's own, billed up to the abort
    assert counters.sfo == counters.sso == 3 * logistic_small.n


@pytest.mark.parametrize("loop", [run_inexact_tr, run_inexact_tr_expectation])
def test_run_loops_bill_their_own_counters(logistic_small, loop):
    # the counts come back on the result; no caller hands the loop a counter
    cfg = RunConfig(variant="exact_tr", epsilon=1e-2, K_override=2)
    with pytest.raises(TypeError):
        loop(logistic_small, cfg, *_estimators(logistic_small, cfg), OracleCounters())
    res = loop(logistic_small, cfg, *_estimators(logistic_small, cfg))
    assert res.counters.sfo == res.counters.sso == len(res.trace) * logistic_small.n


def test_nan_subproblem_residual_aborts(logistic_small):
    # a finite gradient estimate whose scale max |g_i| / r (1e307 / 0.002) is
    # past the float range: the solve names that scale, with no numpy warning,
    # and the run ends in RunAborted instead of taking a step
    cfg = RunConfig(variant="exact_tr", epsilon=1e-6, K_override=10)
    g_fn, h_fn = _estimators(logistic_small, cfg)
    g_fn = _poisoned(g_fn, 2, 1e307)
    with pytest.raises(RunAborted, match="subproblem solve failed at iteration 1: "
                                         "unit-ball scale .* past the float range") as info:
        run_inexact_tr(logistic_small, cfg, g_fn, h_fn)
    assert len(info.value.trace) == 1


def test_huge_gradient_estimate_takes_a_boundary_step(logistic_small, recording, run_path):
    # a finite gradient estimate whose squares overflow is still solved: the
    # step goes to the boundary against it, and the run goes on
    cfg = RunConfig(variant="exact_tr", epsilon=1e-6, K_override=10)
    g_fn, h_fn = _estimators(logistic_small, cfg)
    points = []
    res = run_inexact_tr(logistic_small, cfg, recording(_poisoned(g_fn, 2, 1e160), points),
                         h_fn)
    _, clean = run_path(logistic_small, cfg)
    r = resolve_config(logistic_small, cfg).r
    assert len(res.trace) >= 3
    step = points[2] - points[1]
    assert step[0] == pytest.approx(-r, rel=1e-12)
    assert res.trace[1].step_norm == pytest.approx(r, rel=1e-12)
    assert res.trace[1].lambda_alg > 1e150
    assert np.array_equal(points[1], clean[1])


def test_non_finite_iterate_aborts(logistic_small, monkeypatch):
    import strbench.driver as drv

    solve = drv.solve_trs_exact
    calls = []

    def overflowing_second_step(*args, **kwargs):
        sol = solve(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            sol.h = np.full_like(sol.h, math.inf)
        return sol

    monkeypatch.setattr(drv, "solve_trs_exact", overflowing_second_step)
    cfg = RunConfig(variant="exact_tr", epsilon=1e-6, K_override=10)
    with pytest.raises(RunAborted, match="non-finite iterate after iteration 1") as info:
        run("exact_tr", logistic_small, cfg)
    assert len(info.value.trace) == 1
    assert np.all(np.isfinite(info.value.x))
    assert info.value.counters.sfo == 2 * logistic_small.n


# -- variant options are validated up front --------------------------------------


@pytest.mark.parametrize("overrides", [
    {"mode": "bogus"},
    {"kappa_grad": 1.0},  # theory mode takes the paper's constants: no kappa
    {"kappa_hess": 0.5},
    {"mode": "practical", "kappa_grad": 0},
    {"mode": "practical", "kappa_hess": 1.5},
    {"mode": "practical", "kappa_hess": math.nan},
    {"delta": "x"},
    {"delta": math.nan},
    {"epsilon": math.nan},
    {"sub_s1": 0},
    {"sub_s2": 2.5},
    {"K_override": "x"},
    {"K_override": 2.5},
    {"K_override": True},  # booleans are not integers here
    {"sub_s1": True},
    {"epsilon": "x"},
    {"K_override": 0},  # a cap below one iteration is a bad option, not a numeric abort
    # a seed is refused where the config is made, not when the run first draws
    {"seed": True},
    {"seed": -1},
    {"seed": 1.5},
    {"seed": np.float64(2.0)},
    {"seed": "0"},
    {"seed": None},
])
def test_config_rejects_bad_option(overrides):
    with pytest.raises(ValueError):
        RunConfig(variant="subsampled", **overrides)


def test_config_takes_any_nonnegative_integer_seed(logistic_small):
    for seed in (0, np.int64(7), np.uint8(3), 2**70):
        cfg = RunConfig(variant="str1", epsilon=1e-2, seed=seed, K_override=2)
        assert len(run("str1", logistic_small, cfg).trace) == 2


@pytest.mark.parametrize("x0", [np.zeros(4), np.zeros((1, 5)), np.array(0.0)])
def test_run_refuses_an_x0_of_the_wrong_shape(quad_problem, x0):
    # quad_problem has d = 5; the shape is checked before any oracle call
    cfg = RunConfig(variant="exact_tr", epsilon=1e-2, x0=x0)
    with pytest.raises(ValueError, match=r"x0 must have shape \(5,\)"):
        run("exact_tr", quad_problem, cfg)


@pytest.mark.parametrize("name", ["r_override", "delta_hat", "solver_tol", "hess_option"])
def test_config_has_one_setting_per_run_decision(name):
    # the radius is sqrt(eps/L2), the cap K_override or the one computed from
    # F(x0), the subproblem tolerance the solver's GATE_TOL, and the Hessian
    # option the cheaper one (the schedules: see _NOT_FIELDS below)
    with pytest.raises(TypeError, match=name):
        RunConfig(variant="exact_tr", **{name: 1.0})


@pytest.mark.parametrize("call", ["run", "make_estimators"])
def test_variant_argument_must_match_the_config(logistic_small, call):
    cfg = RunConfig(variant="exact_tr", epsilon=1e-2)
    with pytest.raises(ValueError, match="'str1'.*'exact_tr'"):
        if call == "run":
            run("str1", logistic_small, cfg)
        else:
            make_estimators("str1", logistic_small, cfg, np.random.default_rng(0))


# the schedules are no RunConfig fields: make_estimators computes them, and a run
# on others passes its own steps to run_inexact_tr
_NOT_FIELDS = {"grad_schedule": Schedule(p=2, s=3), "hess_schedule": Schedule(p=2, s=3)}
_STOCHASTIC_KNOBS = {"kappa_grad": 0.5, "kappa_hess": 0.01, **_NOT_FIELDS}


@pytest.mark.parametrize("variant,field,value", [
    *((v, f, x) for v in ("exact_tr", "subsampled") for f, x in _STOCHASTIC_KNOBS.items()),
    *((v, f, 3) for v in ("exact_tr", "str1", "str2") for f in ("sub_s1", "sub_s2")),
], ids=lambda v: f"p{v.p}s{v.s}" if isinstance(v, Schedule) else None)  # not by position
def test_config_rejects_a_knob_its_variant_never_reads(variant, field, value):
    # a knob the variant ignores would leave the run as if it were not set
    if field in _NOT_FIELDS:
        with pytest.raises(TypeError, match=field):
            RunConfig(variant=variant, mode="practical", **{field: value})
        return
    with pytest.raises(ValueError, match=f"{field} is not read by variant {variant!r}"):
        RunConfig(variant=variant, mode="practical", **{field: value})
    RunConfig(variant=variant, mode="practical", **{field: None})  # the default passes


# -- one full pass per point -------------------------------------------------------


class _Products(np.ndarray):
    """``X`` that keeps the operand of each product ``X @ v`` over all of its rows
    (not over a gathered block or the transpose, which are other arrays)."""

    target = None
    operands: list = []

    def __matmul__(self, other):
        if self is type(self).target:
            type(self).operands.append(np.array(other).tobytes())
        return np.asarray(self) @ other


def test_exact_tr_reads_x_once_per_iterate():
    prob = from_dataset(generate_synthetic(200, 10, seed=3), "logistic_nc")
    prob.X = _Products.target = prob.X.view(_Products)
    _Products.operands = []
    result = run("exact_tr", prob, RunConfig(variant="exact_tr", epsilon=1e-2, seed=4))
    assert result.stop_reason == "dual_threshold"
    # one pass per iterate (value, gradient diagnostic, estimate and Hessian
    # share it), plus one for the certificate at the final, unvisited point
    assert len(_Products.operands) == len(result.trace) + 1


def test_str2_reads_x_once_per_iterate():
    # s1 = n: each recurrent step takes the multiplicity path, and its endpoints
    # x_k, x_prev and x_ref are all among the last three full passes
    prob = from_dataset(generate_synthetic(200, 10, seed=3), "logistic_nc")
    prob.X = _Products.target = prob.X.view(_Products)
    _Products.operands = []
    x0 = np.full(prob.d, 0.1)  # not 0, so no step x_1 - x_0 equals the point x_1
    result = run("str2", prob, RunConfig(variant="str2", epsilon=1e-3, seed=4, K_override=30,
                                         x0=x0))
    n = prob.n
    sfo = [0] + [rec.sfo for rec in result.trace]
    recurrent = sum(b - a == 2 * n for a, b in zip(sfo, sfo[1:]))
    assert recurrent >= 2 * (len(result.trace) - recurrent) > 0  # several steps per epoch
    # one margin pass per iterate and one for the certificate at the final point,
    # plus the X dx of each recurrent step's Hessian-vector product; no operand twice
    assert len(_Products.operands) == len(result.trace) + 1 + recurrent
    assert len(set(_Products.operands)) == len(_Products.operands)


class _RecordFree(FiniteSumProblem):
    """A problem that never keeps a full pass or a gather, so every call derives
    its margins, sigmoid, gradient coefficient, Hessian weight, data gradient and
    regularizer terms afresh."""

    @property
    def _passes(self):
        return ()

    @_passes.setter
    def _passes(self, record):
        pass

    @property
    def _gather(self):
        return None

    @_gather.setter
    def _gather(self, record):
        pass


@pytest.mark.parametrize("variant", ["exact_tr", "str1", "str2", "subsampled"])
def test_runs_equal_record_free_runs(variant):
    ds = generate_synthetic(200, 10, seed=3)
    cfg = RunConfig(variant=variant, epsilon=1e-2, K_override=25, seed=5,
                    **_knobs(variant, 0.5))
    for kind in ("logistic_nc", "nls_nc"):
        prob = from_dataset(ds, kind)
        free = _RecordFree(kind, X=ds.X, y=ds.y, reg_lambda=prob.reg_lambda,
                           reg_alpha=prob.reg_alpha)
        got, want = run(variant, prob, cfg), run(variant, free, cfg)
        assert [(r.fval, r.grad_norm, r.lambda_alg, r.sfo, r.sso) for r in got.trace] == [
            (r.fval, r.grad_norm, r.lambda_alg, r.sfo, r.sso) for r in want.trace]
        assert got.x_final.tobytes() == want.x_final.tobytes()
        assert got.counters == want.counters
        assert got.report == want.report and got.stop_reason == want.stop_reason


# -- the eigensolves -----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
@pytest.mark.parametrize("variant", ["exact_tr", "str1", "str2", "subsampled"])
def test_subproblem_hessians_are_bitwise_symmetric(monkeypatch, kind, variant):
    # sym_eig hands a bitwise symmetric H to LAPACK as is; the oracles return
    # (H + H')/2, and the estimators' sums and differences keep that exact
    import strbench.driver as driver_module

    solve = driver_module.solve_trs_exact
    seen = []

    def recording_solve(g, H, *args, **kwargs):
        bits = np.asarray(H).view(np.int64)
        seen.append(bool((bits == bits.T).all()))
        return solve(g, H, *args, **kwargs)

    monkeypatch.setattr(driver_module, "solve_trs_exact", recording_solve)
    prob = from_dataset(generate_synthetic(200, 10, seed=3), kind)
    cfg = RunConfig(variant=variant, epsilon=1e-3, K_override=40, seed=2,
                    **_knobs(variant, 0.5))
    result = run(variant, prob, cfg)
    assert len(seen) == len(result.trace) >= 2
    assert all(seen)


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
def test_certificate_eigenvalue_matches_full_eigendecomposition(kind):
    # verify_sosp reads lambda_min from eigenvalues alone
    prob = from_dataset(generate_synthetic(300, 30, seed=8), kind)
    rng = np.random.default_rng(8)
    eps, L2 = 1e-3, lipschitz_bounds(prob).L2
    for scale in (0.0, 0.1, 1.0, 3.0):
        x = scale * rng.standard_normal(prob.d)
        rep = verify_sosp(prob, x, eps, L2)
        H = full_hessian(prob, x, OracleCounters())
        min_eig = float(np.linalg.eigh((H + H.T) / 2.0)[0][0])
        assert abs(rep.min_eig - min_eig) <= 1e-12
        assert rep.eig_ok == (min_eig >= -(10.0 / 3.0) * math.sqrt(L2 * eps))
        assert rep.certified == (rep.grad_ok and rep.eig_ok)


def test_theory_mode_str1_sso_does_not_grow_with_n():
    # the paper's claim: fewer second-order oracle calls than exact TR.  In
    # theory mode at this eps, str1's option-II Hessian batches do not depend
    # on n, while exact_tr bills n sso an iteration
    sso, iterations = {}, {}
    for n in (12000, 48000):
        problem = from_dataset(generate_synthetic(n, 50, seed=8), "logistic_nc")
        for variant in ("exact_tr", "str1"):
            res = run(variant, problem, RunConfig(variant=variant, epsilon=1e-2, delta=0.1,
                                                  seed=0))
            assert res.report.certified
            sso[variant, n] = res.counters.sso
            iterations[variant, n] = len(res.trace)
    assert sso["str1", 48000] <= 1.5 * sso["str1", 12000]
    for n in (12000, 48000):
        assert sso["exact_tr", n] == n * iterations["exact_tr", n]
