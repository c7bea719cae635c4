"""Inexact trust-region driver with dual-threshold and expectation stopping.

The main loop solves the subproblem on estimated differentials
``(g_k, H_k)`` with a fixed radius ``r = sqrt(eps/L2)``, steps
``x_{k+1} = x_k + h_k``, and stops the first time the rescaled dual variable
satisfies ``lambda_alg <= 2 sqrt(eps/L2)``.  The no-dual variant instead
stops on the first step the solver puts inside the ball, and otherwise returns
the post-step iterate of a seeded iteration drawn uniformly before the loop.
Four variants are wired: exact differentials, the two
variance-reduced combinations (``str1``, ``str2``), and a plain subsampled
baseline with fresh batches each iteration.  All four step their estimates
through the estimators' one epoch recurrence; the two baselines reset at
every step.

Per-iteration trace diagnostics (objective value, true gradient norm) are
computed with a scratch counter and never billed to the run's oracle budget.
They share the GLM problem's full pass at the iterate with the estimator and
the certificate, so they cost at most the part of a pass not already paid for;
the problem keeps the last three such passes, from which a large sampled
recurrent step takes the margins at all of its endpoints.
A non-finite estimate or iterate ends the run with :class:`RunAborted`.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import estimators as est
from .problems import (
    FiniteSumProblem,
    LipschitzBounds,
    OracleCounters,
    full_gradient,
    full_hessian,
    full_value,
    lipschitz_bounds,
)
from .trs import TrsNumericError, _norm, _sym_eigvals, solve_trs_exact

VARIANTS = ("exact_tr", "str1", "str2", "subsampled")
# the RunConfig fields only some variants read, and those variants
_VARIANT_FIELDS = {
    **dict.fromkeys(("kappa_grad", "kappa_hess", "hess_option", "grad_schedule",
                     "hess_schedule"), ("str1", "str2")),
    "sub_s1": ("subsampled",),
    "sub_s2": ("subsampled",),
}
# the str1/str2 knobs an explicit schedule object overrides, and that schedule
_SCHEDULE_OF = {"kappa_grad": "grad_schedule", "kappa_hess": "hess_schedule",
                "hess_option": "hess_schedule"}


@dataclass
class RunConfig:
    """Knobs for one optimization run.

    ``lipschitz=None`` resolves to analytic bounds of the problem.  The
    radius is ``sqrt(epsilon/L2)``, and the iteration cap ``K_override`` (an
    integer >= 1) or ``ceil(6 sqrt(L2) F(x0) / epsilon^1.5)``: F(x0) bounds the
    initial optimality gap of the nonnegative losses shipped here.  Each
    subproblem is solved to ``trs.MIN_TOL``.  Theory mode takes the paper's
    constants and rejects ``kappa_grad``/``kappa_hess``; practical mode scales
    the gradient and Hessian sample sizes by them (default 1).  Explicit
    :class:`~strbench.estimators.Schedule` objects override both; ``str2``'s
    ``grad_schedule`` must reset with an exact pass.  A field that the variant
    never reads (the kappas, ``hess_option`` and the schedules outside
    ``str1``/``str2``, ``sub_s1`` and ``sub_s2`` outside ``subsampled``,
    ``kappa_grad`` next to ``grad_schedule``, ``kappa_hess`` and
    ``hess_option`` next to ``hess_schedule``) must stay None.
    ``sub_s1`` and ``sub_s2`` may not exceed the problem's n
    (:func:`check_batch_sizes`).
    """

    variant: str = "exact_tr"
    epsilon: float = 1e-3
    delta: float = 0.1
    lipschitz: LipschitzBounds | None = None
    K_override: int | None = None
    mode: str = "theory"
    kappa_grad: float | None = None
    kappa_hess: float | None = None
    hess_option: str | None = None
    grad_schedule: est.Schedule | None = None
    hess_schedule: est.Schedule | None = None
    sub_s1: int | None = None  # subsampled baseline batch sizes
    sub_s2: int | None = None
    seed: int = 0
    x0: np.ndarray | None = None

    def __post_init__(self):
        if not (_real(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if not (_real(self.delta) and 0 < self.delta < 1):
            raise ValueError("delta must lie in (0, 1)")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        for name, readers in _VARIANT_FIELDS.items():
            if getattr(self, name) is not None and self.variant not in readers:
                raise ValueError(f"{name} is not read by variant {self.variant!r}")
        for name, schedule in _SCHEDULE_OF.items():
            if getattr(self, name) is not None and getattr(self, schedule) is not None:
                raise ValueError(f"{name} is not read by variant {self.variant!r} next to "
                                 f"{schedule}, which overrides it")
        if self.mode not in ("theory", "practical"):
            raise ValueError("mode must be 'theory' or 'practical'")
        if self.hess_option not in (None, "I", "II"):
            raise ValueError("hess_option must be 'I' or 'II'")
        for name in ("kappa_grad", "kappa_hess"):
            value = getattr(self, name)
            if value is None:
                continue
            if self.mode == "theory":
                raise ValueError(f"{name} is a practical-mode option; theory mode uses "
                                 "the paper's constants")
            if not (_real(value) and 0 < value <= 1):
                raise ValueError(f"{name} must lie in (0, 1]")
        for name in ("sub_s1", "sub_s2"):
            value = getattr(self, name)
            if not (value is None or _integer(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1")
        if not (self.K_override is None or _integer(self.K_override) and self.K_override >= 1):
            raise ValueError("K_override must be an integer >= 1")


def check_batch_sizes(config: RunConfig, n: int) -> None:
    """Refuse a ``sub_s1``/``sub_s2`` above the ``n`` rows its batches draw from."""
    for name in ("sub_s1", "sub_s2"):
        value = getattr(config, name)
        if value is not None and value > n:
            raise ValueError(f"{name}={value} exceeds the n={n} rows it samples")


def _check_variant(variant, config: RunConfig) -> None:
    if variant != config.variant:
        raise ValueError(f"variant {variant!r} is not config.variant {config.variant!r}")


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class IterateRecord:
    """One iteration of a run.  The fields, in order, are the columns of the
    trace CSV (``cli.TRACE_HEADER``); ``wall_ms`` stays last."""

    k: int
    fval: float
    grad_norm: float
    lambda_alg: float
    step_norm: float
    sfo: int
    sso: int
    wall_ms: float


@dataclass
class SosReport:
    """Second-order stationarity certificate at thresholds 3 eps and
    -(10/3) sqrt(L2 eps), checked with exact differentials."""

    grad_norm: float
    min_eig: float
    grad_ok: bool
    eig_ok: bool
    certified: bool


@dataclass
class RunResult:
    """``x_final`` is the last post-step iterate or, for the no-dual rule at
    the cap, that of the seeded iteration ``kbar``; no other iterate is kept."""

    x_final: np.ndarray
    trace: list[IterateRecord]
    stop_reason: str  # dual_threshold | interior_step | random_iterate | iteration_cap
    report: SosReport
    counters: OracleCounters


class RunAborted(RuntimeError):
    """Numeric failure before or during a run; carries the partial trace, the
    last iterate and the oracle counters spent before the abort."""

    def __init__(self, message: str, trace: list[IterateRecord], x: np.ndarray,
                 counters: OracleCounters):
        super().__init__(message)
        self.trace = trace
        self.x = x
        self.counters = counters


@dataclass(frozen=True)
class _Resolved:
    lip: LipschitzBounds
    r: float
    K: int
    x0: np.ndarray


def resolve_config(problem: FiniteSumProblem, config: RunConfig) -> _Resolved:
    lip = config.lipschitz or lipschitz_bounds(problem, mode="analytic")
    eps = config.epsilon
    r = math.sqrt(eps / lip.L2)
    x0 = (
        np.zeros(problem.d)
        if config.x0 is None
        else np.array(config.x0, dtype=float, copy=True)
    )
    if x0.shape != (problem.d,):
        raise ValueError(f"x0 must have shape ({problem.d},)")
    if config.K_override is not None:
        K = int(config.K_override)
    else:
        gap = full_value(problem, x0, OracleCounters())
        try:
            bound = 6.0 * math.sqrt(lip.L2) * gap / eps**1.5
        except ArithmeticError:  # eps**1.5 under- or overflows
            bound = math.nan
        K = max(1, math.ceil(bound)) if math.isfinite(bound) else bound
    # features near 1e300 overflow the analytic bounds to inf, and r to 0
    for name, value in (("L1", lip.L1), ("L2", lip.L2), ("r", r), ("K", K)):
        if not (math.isfinite(value) and value > 0):
            raise RunAborted(f"{name}={value!r} is not finite and positive", [], x0,
                             OracleCounters())
    return _Resolved(lip=lip, r=r, K=K, x0=x0)


def verify_sosp(problem: FiniteSumProblem, x, epsilon: float, L2: float) -> SosReport:
    """Certify approximate second-order stationarity with exact differentials."""
    scratch = OracleCounters()
    g = full_gradient(problem, x, scratch)
    H = full_hessian(problem, x, scratch)
    grad_norm = _norm(g)
    min_eig = float(_sym_eigvals(H)[0])
    grad_ok = grad_norm <= 3.0 * epsilon
    eig_ok = min_eig >= -(10.0 / 3.0) * math.sqrt(L2 * epsilon)
    return SosReport(grad_norm, min_eig, grad_ok, eig_ok, grad_ok and eig_ok)


def _run_loop(problem, config, grad_estimator, hess_estimator, counters, use_dual_stop,
              res: _Resolved | None):
    res = res if res is not None else resolve_config(problem, config)
    counters = counters if counters is not None else OracleCounters()
    x = res.x0.copy()
    trace: list[IterateRecord] = []
    # the no-dual rule's pick, read only at the cap (which a K past int64 never reaches)
    kbar = None if use_dual_stop else int(
        np.random.default_rng([config.seed, 1]).integers(0, min(res.K, 2**63 - 1)))
    picked = None
    scratch = OracleCounters()
    stop_reason = "iteration_cap"
    t_start = time.perf_counter()
    for k in range(res.K):
        fval = full_value(problem, x, scratch)
        if not math.isfinite(fval):
            raise RunAborted(f"non-finite objective at iteration {k}", trace, x, counters)
        gnorm_true = _norm(full_gradient(problem, x, scratch))
        g = grad_estimator(x, counters)
        H = hess_estimator(x, counters)
        for name, estimate in (("gradient", g), ("Hessian", H)):
            if not np.isfinite(estimate).all():
                raise RunAborted(f"non-finite {name} estimate at iteration {k}",
                                 trace, x, counters)
        try:
            sol = solve_trs_exact(g, H, res.r, res.lip.L2)
        except TrsNumericError as exc:
            raise RunAborted(f"subproblem solve failed at iteration {k}: {exc}",
                             trace, x, counters) from exc
        x_next = x + sol.h
        if not np.isfinite(x_next).all():
            raise RunAborted(f"non-finite iterate after iteration {k}", trace, x, counters)
        x = x_next  # rebound, never written in place: ``picked`` needs no copy
        if k == kbar:
            picked = x
        trace.append(
            IterateRecord(
                k=k,
                fval=fval,
                grad_norm=gnorm_true,
                lambda_alg=sol.lambda_alg,
                step_norm=_norm(sol.h),
                sfo=counters.sfo,
                sso=counters.sso,
                wall_ms=(time.perf_counter() - t_start) * 1e3,
            )
        )
        if use_dual_stop:
            if sol.lambda_alg <= 2.0 * res.r:  # 2 sqrt(eps/L2)
                stop_reason = "dual_threshold"
                break
        elif not sol.on_boundary:
            stop_reason = "interior_step"
            break
    if not use_dual_stop and stop_reason == "iteration_cap":
        x = picked
        stop_reason = "random_iterate"
    report = verify_sosp(problem, x, config.epsilon, res.lip.L2)
    return RunResult(
        x_final=x,
        trace=trace,
        stop_reason=stop_reason,
        report=report,
        counters=counters,
    )


def run_inexact_tr(problem, config, grad_estimator, hess_estimator,
                   counters: OracleCounters | None = None) -> RunResult:
    """Dual-threshold trust-region loop.

    Estimator callables have signature ``f(x, counters) -> ndarray`` and own
    any internal state.  Stops the first time
    ``lambda_alg <= 2 sqrt(eps/L2)`` and returns the post-step iterate.
    """
    return _run_loop(problem, config, grad_estimator, hess_estimator, counters, True, None)


def run_inexact_tr_expectation(problem, config, grad_estimator, hess_estimator,
                               counters: OracleCounters | None = None) -> RunResult:
    """No-dual variant: stop on the first step that the solver reports inside
    the ball, otherwise return the post-step iterate of iteration
    ``kbar = default_rng([seed, 1]).integers(0, K)`` after K steps."""
    return _run_loop(problem, config, grad_estimator, hess_estimator, counters, False, None)


def make_estimators(variant, problem, config, rng, resolved: _Resolved | None = None):
    """Estimator callables for a variant, sharing one sampling stream.

    Every variant steps its gradient and Hessian estimates by an
    :class:`~strbench.estimators.Schedule`: ``exact_tr`` resets to the exact
    differentials at every step, ``subsampled`` to fresh batches of
    ``sub_s1``/``sub_s2`` draws (default n), and ``str1``/``str2`` follow the
    paper's schedules, ``str2`` through the Hessian-corrected gradient step.
    The gradient estimator draws before the Hessian estimator inside each
    iteration, so runs are reproducible from (config, seed).  ``variant`` must
    be ``config.variant``, and a batch size above n is a ``ValueError``
    raised before any draw.  ``resolved`` is ``resolve_config(problem, config)``
    if already computed; only ``str1`` and ``str2`` need it.
    """
    _check_variant(variant, config)
    n = problem.n
    check_batch_sizes(config, n)
    if variant == "exact_tr":
        gsched = hsched = est.Schedule(1, n)
    elif variant == "subsampled":
        gsched = est.Schedule(1, n, config.sub_s1 or n)
        hsched = est.Schedule(1, n, config.sub_s2 or n)
    else:
        res = resolved if resolved is not None else resolve_config(problem, config)
        K0 = 2 * res.K
        kg = config.kappa_grad if config.kappa_grad is not None else 1.0
        kh = config.kappa_hess if config.kappa_hess is not None else 1.0
        hsched = config.hess_schedule or est.hessian_schedule(
            n, problem.d, config.epsilon, res.lip.L1, res.lip.L2, config.delta, K0,
            kappa=kh, force_option=config.hess_option,
        )
        gsched = config.grad_schedule or (
            est.gradient_schedule_case1(n, config.epsilon, res.lip.L1, res.lip.L2,
                                        config.delta, K0, kappa=kg)
            if variant == "str1" else est.gradient_schedule_case2(n, config.delta, K0, kappa=kg)
        )
    grad_step = est.corrected_step if variant == "str2" else est.spider_step
    gstate, hstate = est.EstimatorState(gsched), est.EstimatorState(hsched)
    return (
        lambda x, counters: grad_step(gstate, problem, x, counters, rng),
        lambda x, counters: est.hessian_estimate_step(hstate, problem, x, counters, rng),
    )


def run(variant: str, problem: FiniteSumProblem, config: RunConfig) -> RunResult:
    """Wire estimators for ``variant`` (which must be ``config.variant``) and
    execute the dual-threshold loop."""
    _check_variant(variant, config)
    rng = np.random.default_rng(config.seed)
    res = resolve_config(problem, config)
    grad_fn, hess_fn = make_estimators(variant, problem, config, rng, res)
    return _run_loop(problem, config, grad_fn, hess_fn, OracleCounters(), True, res)
