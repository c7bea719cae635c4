"""Variance-reduced differential estimators and their sample-size schedules.

All estimators share one epoch recurrence, set by a :class:`Schedule` of
``p`` steps per epoch.  The first step resets, with an exact full pass
(``reset=None``) or a fresh batch of ``reset`` draws; the other ``p - 1`` are
recurrent corrections on ``s`` draws each.  Exact differentials are
``Schedule(1, n)`` and the subsampled baseline ``Schedule(1, n, batch)``: every
step resets.  Every recurrent step draws ONE index multiset (with replacement)
and evaluates both endpoints on it, which is what makes the telescoping error
a martingale.

Schedules enforce the per-step accuracy targets ``||g - grad F|| <= eps/6``
and ``||H - hess F|| <= sqrt(eps L2)/3`` with probability ``1 - delta/K0``
under steps of norm at most ``sqrt(eps/L2)``.  Sample sizes are multiplied by
``kappa`` in (0, 1]; theory mode is ``kappa = 1``, the paper's constants.
"""

from __future__ import annotations

import math
import numbers
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


def _integer(value) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Schedule:
    """One estimator's epoch: ``p`` steps, the first a reset, the others
    recurrent steps on ``s`` shared draws.  ``reset=None`` resets with an exact
    full pass, an integer with a fresh batch of that many draws.  Each size is
    an integer >= 1 (a numpy integer too, but not a bool or a float)."""

    p: int
    s: int
    reset: int | None = None

    def __post_init__(self):
        if not (_integer(self.p) and _integer(self.s) and self.p >= 1 and self.s >= 1):
            raise ValueError("p and s must be integers >= 1")
        if not (self.reset is None or _integer(self.reset) and self.reset >= 1):
            raise ValueError("a sampled reset needs an integer >= 1 draws")


@dataclass
class EstimatorState:
    schedule: Schedule
    k_in_epoch: int = 0
    prev: np.ndarray | None = None  # the last estimate
    x_prev: np.ndarray | None = None  # the point it was taken at
    x_ref: np.ndarray | None = None  # corrected_step's epoch reference point
    H_ref: np.ndarray | None = None  # and its full Hessian there


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
) -> Schedule:
    """Epoch length and sample sizes for the recurrent Hessian estimator.

    Option I:  p2 = ceil(sqrt(n)),             s2 = ceil(32 sqrt(n) log(d K0/delta)).
    Option II: p2 = ceil(L1 / (2 sqrt(eps L2))),
               s2' = ceil(16 L1^2/(eps L2) log(d K0/delta)),
               s2  = ceil(32 L1/sqrt(eps L2) log(d K0/delta)).

    The option with the smaller amortized cost 2 s2 wins (ties go to I).
    Sample sizes are scaled by kappa and always capped at n.  Option I resets
    with the exact Hessian, option II with a fresh batch of s2' draws.
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
        return Schedule(p2_i, s2_i)
    if option == "II":
        return Schedule(p2_ii, s2_ii, s2p_ii)
    raise ValueError(f"unknown option {force_option!r}")


def gradient_schedule_case1(
    n: int,
    epsilon: float,
    L1: float,
    L2: float,
    delta: float,
    K0: int,
    kappa: float = 1.0,
) -> Schedule:
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
    return Schedule(p1, s1)


def gradient_schedule_case2(
    n: int,
    delta: float,
    K0: int,
    kappa: float = 1.0,
) -> Schedule:
    """Schedule for the Hessian-corrected gradient estimator.

    p1 = ceil(n^0.25), s1 = min(n, ceil(kappa n^0.75 c log(K0/delta))), c = 1152.
    """
    _validate_schedule_args(1.0, delta, kappa)
    if n < 1 or K0 < 1:
        raise ValueError("n and K0 must be positive")
    lg = math.log(K0 / delta)
    p1 = max(1, math.ceil(n**0.25))
    s1 = _sized(n**0.75 * SPIDER_CONSTANT * lg, kappa, n)
    return Schedule(p1, s1)


def _epoch_step(state: EstimatorState, problem, x_k, rng, reset, recur) -> np.ndarray:
    """The shared epoch recurrence.  At the epoch start the estimate is
    ``reset(x_k, idx)``, with ``idx`` None for an exact pass or the schedule's
    fresh batch; at any other step it is ``recur(x_k, idx)`` on ``s`` new draws."""
    x_k = np.asarray(x_k, dtype=float)
    if x_k.shape != (problem.d,):
        raise ValueError(f"x_k must have shape ({problem.d},)")
    sch = state.schedule
    if state.k_in_epoch == 0:
        est = reset(x_k, None if sch.reset is None
                    else rng.integers(0, problem.n, size=sch.reset))
    else:
        if state.prev is None or state.x_prev is None:
            raise RuntimeError("estimator state lacks previous step data")
        est = recur(x_k, rng.integers(0, problem.n, size=sch.s))
    state.prev = est
    state.x_prev = np.array(x_k, copy=True)
    state.k_in_epoch = (state.k_in_epoch + 1) % sch.p
    return est


def _recurrent_step(state, problem, x_k, counters, rng, full, batch) -> np.ndarray:
    """Reset to ``full`` (or ``batch`` on a fresh batch), then step
    ``batch(x_k; G) - batch(x_prev; G) + prev`` on one multiset G."""

    def reset(x, idx):
        return full(problem, x, counters) if idx is None else batch(problem, x, idx, counters)

    def recur(x, idx):  # one expression: each batch term is freed once subtracted
        return (batch(problem, x, idx, counters)
                - batch(problem, state.x_prev, idx, counters) + state.prev)

    return _epoch_step(state, problem, x_k, rng, reset, recur)


def hessian_estimate_step(
    state: EstimatorState,
    problem: FiniteSumProblem,
    x_k,
    counters: OracleCounters,
    rng: np.random.Generator,
) -> np.ndarray:
    """One step of the recurrent Hessian estimator.

    Epoch start takes the exact full Hessian (n queries) or, with a sampled
    reset (option II), a batch of s2' fresh samples.  Otherwise the previous
    estimate is updated with the difference of two batch Hessians on one
    shared multiset of size s2 (2 s2 queries).
    """
    return _recurrent_step(state, problem, x_k, counters, rng, full_hessian, batch_hessian)


def spider_step(
    state: EstimatorState,
    problem: FiniteSumProblem,
    x_k,
    counters: OracleCounters,
    rng: np.random.Generator,
) -> np.ndarray:
    """One step of the plain recurrent gradient estimator (case 1).

    Epoch start computes the exact full gradient (or a fresh batch one);
    otherwise ``g_k = grad f(x_k; G) - grad f(x_prev; G) + g_prev`` on one
    multiset G.
    """
    return _recurrent_step(state, problem, x_k, counters, rng, full_gradient, batch_gradient)


def corrected_step(
    state: EstimatorState,
    problem: FiniteSumProblem,
    x_k,
    counters: OracleCounters,
    rng: np.random.Generator,
) -> np.ndarray:
    """One step of the Hessian-corrected gradient estimator (case 2).

    Epoch start caches the reference point, its exact gradient and its exact
    Hessian, so the schedule must reset with an exact pass.  Recurrent steps
    add the correction ``c_k = [hess F(x_ref) - hess f(x_ref; G)] (x_k - x_prev)``
    to the plain recurrence, with the batch term as a Hessian-vector product on
    the same multiset G (s1 extra second-order queries).
    """
    if state.schedule.reset is not None:
        raise ValueError("corrected_step resets with an exact pass, not a sampled batch")

    def reset(x, _):
        state.x_ref = np.array(x, copy=True)
        g = full_gradient(problem, x, counters)
        state.H_ref = full_hessian(problem, x, counters)
        return g

    def recur(x, idx):
        if state.H_ref is None or state.x_ref is None:
            raise RuntimeError("estimator state lacks the cached epoch Hessian")
        # x_prev first: a problem that keeps its last three full passes then
        # drops x_prev's, not x_ref's, when the next iterate's pass arrives
        g_prev_point = batch_gradient(problem, state.x_prev, idx, counters)
        dx = x - state.x_prev
        correction = state.H_ref @ dx - batch_hvp(problem, state.x_ref, idx, dx, counters)
        return batch_gradient(problem, x, idx, counters) - g_prev_point + state.prev + correction

    return _epoch_step(state, problem, x_k, rng, reset, recur)
