"""Variance-reduced differential estimators and their sample-size schedules.

All estimators are epoch based: an exact (or large-batch) reset at the start
of each epoch, then recurrent corrections.  Every sampled step draws ONE
index multiset (with replacement) and evaluates both endpoints on it, which
is what makes the telescoping error a martingale.

Schedules enforce the per-step accuracy targets ``||g - grad F|| <= eps/6``
and ``||H - hess F|| <= sqrt(eps L2)/3`` with probability ``1 - delta/K0``
under steps of norm at most ``sqrt(eps/L2)``.  Sample sizes are multiplied by
``kappa`` in (0, 1]; theory mode is ``kappa = 1``, the paper's constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import (
    FiniteSumProblem,
    OracleCounters,
    batch_gradient,
    batch_hessian,
    batch_hvp,
    full_gradient,
    full_hessian,
)

SPIDER_CONSTANT = 1152  # concentration constant c in the gradient schedules


@dataclass(frozen=True)
class HessSchedule:
    option: str  # "I" (exact reset) or "II" (subsampled reset)
    p2: int
    s2: int
    s2_prime: int | None

    def __post_init__(self):
        if self.option not in ("I", "II"):
            raise ValueError("option must be 'I' or 'II'")
        if self.p2 < 1 or self.s2 < 1:
            raise ValueError("p2 and s2 must be >= 1")
        if self.option == "II" and (self.s2_prime is None or self.s2_prime < 1):
            raise ValueError("option II needs s2_prime >= 1")


@dataclass(frozen=True)
class GradSchedule:
    case: int  # 1 = plain recurrent, 2 = Hessian-corrected
    p1: int
    s1: int

    def __post_init__(self):
        if self.case not in (1, 2):
            raise ValueError("case must be 1 or 2")
        if self.p1 < 1 or self.s1 < 1:
            raise ValueError("p1 and s1 must be >= 1")


@dataclass
class GradEstimatorState:
    schedule: GradSchedule
    k_in_epoch: int = 0
    g_prev: np.ndarray | None = None
    x_prev: np.ndarray | None = None
    x_ref: np.ndarray | None = None  # case 2 epoch reference point
    H_ref: np.ndarray | None = None  # case 2 cached full Hessian at x_ref


@dataclass
class HessEstimatorState:
    schedule: HessSchedule
    k_in_epoch: int = 0
    H_prev: np.ndarray | None = None
    x_prev: np.ndarray | None = None


def _validate_schedule_args(epsilon, delta, kappa):
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 < kappa <= 1:
        raise ValueError("kappa must lie in (0, 1]")


def _sized(raw: float, kappa: float, n: int) -> int:
    return int(max(1, math.ceil(min(kappa * raw, n))))  # capped first: raw may be inf


def hessian_schedule(
    n: int,
    d: int,
    epsilon: float,
    L1: float,
    L2: float,
    delta: float,
    K0: int,
    kappa: float = 1.0,
    force_option: str | None = None,
) -> HessSchedule:
    """Epoch length and sample sizes for the recurrent Hessian estimator.

    Option I:  p2 = ceil(sqrt(n)),             s2 = ceil(32 sqrt(n) log(d K0/delta)).
    Option II: p2 = ceil(L1 / (2 sqrt(eps L2))),
               s2' = ceil(16 L1^2/(eps L2) log(d K0/delta)),
               s2  = ceil(32 L1/sqrt(eps L2) log(d K0/delta)).

    The option with the smaller amortized cost 2 s2 wins (ties go to I).
    Sample sizes are scaled by kappa and always capped at n.
    """
    _validate_schedule_args(epsilon, delta, kappa)
    if n < 1 or d < 1 or L1 <= 0 or L2 <= 0 or K0 < 1:
        raise ValueError("n, d, L1, L2, K0 must be positive")
    log_dk = math.log(d * K0 / delta)
    root_eps = math.sqrt(epsilon * L2)

    p2_i = max(1, math.ceil(math.sqrt(n)))
    s2_i = _sized(32.0 * math.sqrt(n) * log_dk, kappa, n)

    p2_ii = max(1, math.ceil(L1 / (2.0 * root_eps)))
    s2_ii = _sized(32.0 * L1 / root_eps * log_dk, kappa, n)
    s2p_ii = _sized(16.0 * L1 * L1 / (epsilon * L2) * log_dk, kappa, n)

    if force_option is None:
        option = "I" if 2 * s2_i <= 2 * s2_ii else "II"
    else:
        option = force_option
    if option == "I":
        return HessSchedule("I", p2_i, s2_i, None)
    if option == "II":
        return HessSchedule("II", p2_ii, s2_ii, s2p_ii)
    raise ValueError(f"unknown option {force_option!r}")


def gradient_schedule_case1(
    n: int,
    epsilon: float,
    L1: float,
    L2: float,
    delta: float,
    K0: int,
    kappa: float = 1.0,
) -> GradSchedule:
    """Schedule for the plain recurrent gradient estimator.

    p1 = max(1, ceil(sqrt(n eps L2 / (c L1^2 log(K0/delta))))) and
    s1 = min(n, ceil(sqrt(c n L1^2 log(K0/delta) / (eps L2)))) with c = 1152.
    A kappa below 1 shrinks s1 by kappa and resets p1 = ceil(n / s1) so one
    epoch still amortizes a full pass.
    """
    _validate_schedule_args(epsilon, delta, kappa)
    if n < 1 or L1 <= 0 or L2 <= 0 or K0 < 1:
        raise ValueError("n, L1, L2, K0 must be positive")
    lg = math.log(K0 / delta)
    c = SPIDER_CONSTANT
    s1 = _sized(math.sqrt(c * n * L1 * L1 * lg / (epsilon * L2)), kappa, n)
    if kappa < 1.0:
        p1 = max(1, math.ceil(n / s1))
    else:
        p1 = max(1, math.ceil(math.sqrt(n * epsilon * L2 / (c * L1 * L1 * lg))))
        if s1 >= n:
            p1 = 1  # a full pass every step, no sampling
    return GradSchedule(1, p1, s1)


def gradient_schedule_case2(
    n: int,
    delta: float,
    K0: int,
    kappa: float = 1.0,
) -> GradSchedule:
    """Schedule for the Hessian-corrected gradient estimator.

    p1 = ceil(n^0.25), s1 = min(n, ceil(kappa n^0.75 c log(K0/delta))), c = 1152.
    """
    _validate_schedule_args(1.0, delta, kappa)
    if n < 1 or K0 < 1:
        raise ValueError("n and K0 must be positive")
    lg = math.log(K0 / delta)
    p1 = max(1, math.ceil(n**0.25))
    s1 = _sized(n**0.75 * SPIDER_CONSTANT * lg, kappa, n)
    return GradSchedule(2, p1, s1)


def _draw(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    return rng.integers(0, n, size=size)


def _advance(state, x_k: np.ndarray, period: int):
    state.x_prev = np.array(x_k, dtype=float, copy=True)
    state.k_in_epoch = (state.k_in_epoch + 1) % period


def hessian_estimate_step(
    state: HessEstimatorState,
    problem: FiniteSumProblem,
    x_k,
    counters: OracleCounters,
    rng: np.random.Generator,
) -> np.ndarray:
    """One step of the recurrent Hessian estimator.

    Epoch start: option I takes the exact full Hessian (n queries), option II
    a batch of s2' fresh samples.  Otherwise the previous estimate is updated
    with the difference of two batch Hessians on one shared multiset of size
    s2 (2 s2 queries).
    """
    sch = state.schedule
    x_k = np.asarray(x_k, dtype=float)
    if x_k.shape != (problem.d,):
        raise ValueError(f"x_k must have shape ({problem.d},)")
    if state.k_in_epoch == 0:
        if sch.option == "I":
            H = full_hessian(problem, x_k, counters)
        else:
            idx = _draw(rng, problem.n, sch.s2_prime)
            H = batch_hessian(problem, x_k, idx, counters)
    else:
        if state.H_prev is None or state.x_prev is None:
            raise RuntimeError("estimator state lacks previous step data")
        idx = _draw(rng, problem.n, sch.s2)
        H = (
            batch_hessian(problem, x_k, idx, counters)
            - batch_hessian(problem, state.x_prev, idx, counters)
            + state.H_prev
        )
    state.H_prev = H
    _advance(state, x_k, sch.p2)
    return H


def spider_step(
    state: GradEstimatorState,
    problem: FiniteSumProblem,
    x_k,
    counters: OracleCounters,
    rng: np.random.Generator,
) -> np.ndarray:
    """One step of the plain recurrent gradient estimator (case 1).

    Epoch start computes the exact full gradient; otherwise
    ``g_k = grad f(x_k; G) - grad f(x_prev; G) + g_prev`` on one multiset G.
    """
    sch = state.schedule
    if sch.case != 1:
        raise ValueError("state is not configured for case 1")
    x_k = np.asarray(x_k, dtype=float)
    if state.k_in_epoch == 0:
        g = full_gradient(problem, x_k, counters)
    else:
        if state.g_prev is None or state.x_prev is None:
            raise RuntimeError("estimator state lacks previous step data")
        idx = _draw(rng, problem.n, sch.s1)
        g = (
            batch_gradient(problem, x_k, idx, counters)
            - batch_gradient(problem, state.x_prev, idx, counters)
            + state.g_prev
        )
    state.g_prev = g
    _advance(state, x_k, sch.p1)
    return g


def corrected_step(
    state: GradEstimatorState,
    problem: FiniteSumProblem,
    x_k,
    counters: OracleCounters,
    rng: np.random.Generator,
) -> np.ndarray:
    """One step of the Hessian-corrected gradient estimator (case 2).

    Epoch start caches the reference point, its exact gradient and its exact
    Hessian.  Recurrent steps add the correction
    ``c_k = [hess F(x_ref) - hess f(x_ref; G)] (x_k - x_prev)`` to the plain
    recurrence, with the batch term as a Hessian-vector product on the same
    multiset G (s1 extra second-order queries).
    """
    sch = state.schedule
    if sch.case != 2:
        raise ValueError("state is not configured for case 2")
    x_k = np.asarray(x_k, dtype=float)
    if state.k_in_epoch == 0:
        state.x_ref = np.array(x_k, copy=True)
        g = full_gradient(problem, x_k, counters)
        state.H_ref = full_hessian(problem, x_k, counters)
    else:
        if state.g_prev is None or state.x_prev is None:
            raise RuntimeError("estimator state lacks previous step data")
        if state.H_ref is None or state.x_ref is None:
            raise RuntimeError("estimator state lacks the cached epoch Hessian")
        idx = _draw(rng, problem.n, sch.s1)
        dx = x_k - state.x_prev
        correction = state.H_ref @ dx - batch_hvp(problem, state.x_ref, idx, dx, counters)
        g = (
            batch_gradient(problem, x_k, idx, counters)
            - batch_gradient(problem, state.x_prev, idx, counters)
            + state.g_prev
            + correction
        )
    state.g_prev = g
    _advance(state, x_k, sch.p1)
    return g
