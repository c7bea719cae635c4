"""Finite-sum objectives F(x) = (1/n) sum_i f_i(x) with analytic derivatives.

Three problem kinds are supported:

* ``logistic_nc``  -- logistic loss with the separable nonconvex regularizer
  ``R(w; a) = sum_j a w_j^2 / (1 + a w_j^2)``.
* ``nls_nc``       -- nonlinear least squares ``0.5 (t_i - sigmoid(w.x_i))^2``
  with targets ``t_i = (y_i + 1)/2`` and the same regularizer.
* ``synthetic_quad`` -- ``f_i(x) = 0.5 (x - a_i)' diag(q) (x - a_i)``; used for
  exactly solvable tests (default ``q = 1`` gives the identity Hessian).

Every component includes the full regularizer term, so batch averages over
any index multiset carry ``reg_lambda * R`` once.  All batch operations
update the caller-owned :class:`OracleCounters` by exactly the multiset size.

The GLM kinds share one set of kernels and differ only in their entry of the
link table ``_LINKS`` (margin, loss, gradient coefficient, Hessian weight).
Each call reads its rows of ``X`` once: ``full_*`` oracles use ``X`` in
place, sampled batches gather ``X[idx]`` once and take the margins from it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset

# sup |sigma''| and sup |sigma'''| over the real line (sigma = logistic).
_SIG_D2_MAX = 1.0 / (6.0 * math.sqrt(3.0))
_SIG_D3_MAX = 0.125
# sup_u |u (1 - u^2)| / (1 + u^2)^4 is ~0.19453; rounded up to stay an
# upper bound for the regularizer's third derivative 24 a^1.5 * phi(u).
_REG_D3_SHAPE = 0.2

_L_FLOOR = 1e-6

_ALL = slice(None)  # the full batch: basic indexing reads X in place, no copy

KINDS = ("logistic_nc", "nls_nc", "synthetic_quad")


@dataclass
class OracleCounters:
    """Counts of single-component oracle queries (gradient / Hessian / value)."""

    sfo: int = 0
    sso: int = 0
    fval: int = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.sfo, self.sso, self.fval)


@dataclass(frozen=True)
class LipschitzBounds:
    """Upper bounds on gradient (L1) and Hessian (L2) Lipschitz constants."""

    L1: float
    L2: float
    provenance: str = "user"

    def __post_init__(self):
        if not (self.L1 > 0 and self.L2 > 0):
            raise ValueError("L1 and L2 must be positive")
        if self.provenance not in ("analytic", "sampled", "user"):
            raise ValueError(f"unknown provenance {self.provenance!r}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log1pexp(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z), overflow-safe."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _nls_loss(z, b):
    e = _sigmoid(z) - b
    return 0.5 * e * e


def _nls_weight(p, b):
    sp = p * (1.0 - p)
    return sp * sp + (p - b) * sp * (1.0 - 2.0 * p)


# Per GLM kind: labels(y) -> b, margin(X x, b) -> z, loss(z, b), grad_coef and
# hess_weight of (sigmoid(z), b); l1, l2 scale max|x_i|^2, ^3 in the L1, L2 bounds.
_Link = namedtuple("_Link", "labels margin loss grad_coef hess_weight l1 l2")
_LINKS = {
    "logistic_nc": _Link(
        labels=lambda y: y,
        margin=lambda u, b: b * u,
        loss=lambda z, b: _log1pexp(-z),
        grad_coef=lambda p, b: (p - 1.0) * b,
        hess_weight=lambda p, b: p * (1.0 - p),
        l1=0.25, l2=_SIG_D2_MAX,
    ),
    "nls_nc": _Link(
        labels=lambda y: (y + 1.0) / 2.0,  # nls targets in {0, 1}
        margin=lambda u, b: u,
        loss=_nls_loss,
        grad_coef=lambda p, b: (p - b) * p * (1.0 - p),
        hess_weight=_nls_weight,
        l1=0.0625 + _SIG_D2_MAX, l2=0.75 * _SIG_D2_MAX + _SIG_D3_MAX,
    ),
}


def regularizer_derivatives(w: np.ndarray, alpha: float):
    """Value, gradient and Hessian diagonal of R(w; alpha).

    The sum is separable, so the Hessian is diagonal with entries
    ``2 a (1 - 3 a w_j^2) / (1 + a w_j^2)^3``.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite input")
    aw2 = alpha * w * w
    denom = 1.0 + aw2
    value = float(np.sum(aw2 / denom))
    grad = 2.0 * alpha * w / denom**2
    hess_diag = 2.0 * alpha * (1.0 - 3.0 * aw2) / denom**3
    return value, grad, hess_diag


class FiniteSumProblem:
    """Component-wise value/gradient/Hessian oracle over n components."""

    # data of the other kinds stays None
    X = y = labels = anchors = quad_scales = None

    def __init__(
        self,
        kind: str,
        X: np.ndarray | None = None,
        y: np.ndarray | None = None,
        reg_lambda: float = 0.0,
        reg_alpha: float = 10.0,
        anchors: np.ndarray | None = None,
        quad_scales: np.ndarray | None = None,
        dataset: Dataset | None = None,
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown problem kind {kind!r}")
        if reg_lambda < 0 or reg_alpha <= 0:
            raise ValueError("reg_lambda must be >= 0 and reg_alpha > 0")
        self.kind = kind
        self.reg_lambda = float(reg_lambda)
        self.reg_alpha = float(reg_alpha)
        self.dataset = dataset
        if kind == "synthetic_quad":
            assert anchors is not None
            self.anchors = np.ascontiguousarray(anchors, dtype=float)
            self.n, self.d = self.anchors.shape
            q = np.ones(self.d) if quad_scales is None else np.asarray(quad_scales, float)
            if q.shape != (self.d,):
                raise ValueError("quad_scales must have length d")
            self.quad_scales = q
        else:
            assert X is not None and y is not None
            # C order, so a full pass over X and a gathered X[idx] agree bitwise
            self.X = np.ascontiguousarray(X, dtype=float)
            self.y = np.asarray(y, dtype=float)
            self.n, self.d = self.X.shape
            self.labels = self.link.labels(self.y)
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")

    @property
    def link(self) -> _Link:  # a lookup, not an attribute, so problems stay picklable
        return _LINKS[self.kind]

    # -- data-term helpers (no counter updates) ----------------------------

    def _rows(self, x: np.ndarray, idx):
        """Rows of the batch, read once, with their margins and labels."""
        Xs, b = self.X[idx], self.labels[idx]
        return Xs, self.link.margin(Xs @ x, b), b

    def _weights(self, x: np.ndarray, idx):
        """Rows of the batch with their Hessian weights."""
        Xs, z, b = self._rows(x, idx)
        return Xs, self.link.hess_weight(_sigmoid(z), b)

    def _data_values(self, x: np.ndarray, idx=_ALL) -> np.ndarray:
        if self.kind == "synthetic_quad":
            diff = x[None, :] - self.anchors[idx]
            return 0.5 * np.sum(self.quad_scales[None, :] * diff * diff, axis=1)
        _, z, b = self._rows(x, idx)
        return self.link.loss(z, b)

    def _reg_terms(self, x: np.ndarray):
        if self.reg_lambda == 0.0:
            return 0.0, 0.0, 0.0
        val, grad, diag = regularizer_derivatives(x, self.reg_alpha)
        lam = self.reg_lambda
        return lam * val, lam * grad, lam * diag


def _check_point(problem: FiniteSumProblem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.d,):
        raise ValueError(f"x must have shape ({problem.d},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite point")
    return x


def _check_idx(problem: FiniteSumProblem, idx) -> np.ndarray:
    idx = np.atleast_1d(np.asarray(idx, dtype=np.intp))
    if idx.size == 0:
        raise IndexError("empty index multiset")
    if idx.min() < 0 or idx.max() >= problem.n:
        raise IndexError(f"component index out of range [0, {problem.n})")
    return idx


def _gradient(problem, x, idx, counters: OracleCounters) -> np.ndarray:
    if problem.kind == "synthetic_quad":
        g = problem.quad_scales * (x - problem.anchors[idx].mean(axis=0))
    else:
        Xs, z, b = problem._rows(x, idx)
        g = Xs.T @ problem.link.grad_coef(_sigmoid(z), b) / len(z)
    _, rg, _ = problem._reg_terms(x)
    counters.sfo += problem.n if idx is _ALL else len(idx)
    return g + rg


def _hessian(problem, x, idx, counters: OracleCounters) -> np.ndarray:
    if problem.kind == "synthetic_quad":
        H = np.diag(problem.quad_scales)
    else:
        Xs, w = problem._weights(x, idx)
        H = (Xs * w[:, None]).T @ Xs / len(w)
    _, _, rd = problem._reg_terms(x)
    if problem.reg_lambda != 0.0:
        H = H + np.diag(rd)
    counters.sso += problem.n if idx is _ALL else len(idx)
    return (H + H.T) / 2.0


def batch_gradient(problem, x, idx, counters: OracleCounters) -> np.ndarray:
    """Average gradient over the index multiset (duplicates count twice)."""
    return _gradient(problem, _check_point(problem, x), _check_idx(problem, idx), counters)


def batch_hessian(problem, x, idx, counters: OracleCounters) -> np.ndarray:
    """Average Hessian over the multiset, symmetrized as (A + A')/2."""
    return _hessian(problem, _check_point(problem, x), _check_idx(problem, idx), counters)


def batch_hvp(problem, x, idx, v, counters: OracleCounters) -> np.ndarray:
    """Average Hessian-vector product without forming the matrix."""
    x, idx = _check_point(problem, x), _check_idx(problem, idx)
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite direction")
    if problem.kind == "synthetic_quad":
        out = problem.quad_scales * v
    else:
        Xs, w = problem._weights(x, idx)
        out = Xs.T @ (w * (Xs @ v)) / len(w)
    _, _, rd = problem._reg_terms(x)
    if problem.reg_lambda != 0.0:
        out = out + rd * v
    counters.sso += len(idx)
    return out


def full_value(problem, x, counters: OracleCounters) -> float:
    x = _check_point(problem, x)
    rv, _, _ = problem._reg_terms(x)
    counters.fval += problem.n
    return float(problem._data_values(x).mean() + rv)


def full_gradient(problem, x, counters: OracleCounters) -> np.ndarray:
    return _gradient(problem, _check_point(problem, x), _ALL, counters)


def full_hessian(problem, x, counters: OracleCounters) -> np.ndarray:
    return _hessian(problem, _check_point(problem, x), _ALL, counters)


# -- constructors ------------------------------------------------------------


def from_dataset(
    dataset: Dataset,
    kind: str,
    reg_lambda: float = 1e-3,
    reg_alpha: float = 10.0,
    normalize_rows: bool = False,
) -> FiniteSumProblem:
    if kind not in _LINKS:
        raise ValueError(f"kind {kind!r} does not take a dataset")
    X = dataset.to_dense()
    if normalize_rows:
        norms = np.linalg.norm(X, axis=1)
        norms[norms == 0.0] = 1.0
        X = X / norms[:, None]
    return FiniteSumProblem(
        kind, X=X, y=dataset.label_array(), reg_lambda=reg_lambda,
        reg_alpha=reg_alpha, dataset=dataset,
    )


def quadratic_problem(
    n: int,
    d: int,
    seed: int = 0,
    anchors: np.ndarray | None = None,
    quad_scales: np.ndarray | None = None,
) -> FiniteSumProblem:
    """Quadratic finite sum around random (or given) anchors."""
    if anchors is None:
        rng = np.random.default_rng(seed)
        anchors = rng.standard_normal((n, d))
    return FiniteSumProblem("synthetic_quad", anchors=anchors, quad_scales=quad_scales)


# -- Lipschitz bound estimation ----------------------------------------------


def lipschitz_bounds(problem, mode: str = "analytic", seed: int = 0) -> LipschitzBounds:
    """Bounds on the component gradient/Hessian Lipschitz constants.

    ``analytic`` uses closed-form worst cases of the data term plus the
    regularizer; ``sampled`` takes the max difference quotient over random
    point pairs and components, doubled as a safety factor.  Oracle queries
    made in sampled mode are not billed to any counter.
    """
    if mode == "analytic":
        lam, alpha = problem.reg_lambda, problem.reg_alpha
        reg_l1 = 2.0 * lam * alpha
        reg_l2 = 24.0 * _REG_D3_SHAPE * lam * alpha**1.5
        if problem.kind == "synthetic_quad":
            L1 = float(np.max(np.abs(problem.quad_scales)))
            L2 = _L_FLOOR
        else:
            m = float(np.linalg.norm(problem.X, axis=1).max())
            L1 = problem.link.l1 * (m * m) + reg_l1
            L2 = problem.link.l2 * (m * m * m) + reg_l2
        return LipschitzBounds(max(L1, _L_FLOOR), max(L2, _L_FLOOR), provenance="analytic")
    if mode == "sampled":
        if problem.n < 2:
            raise ValueError("sampled mode needs n >= 2")
        rng = np.random.default_rng(seed)
        scratch = OracleCounters()
        l1 = l2 = 0.0
        for _ in range(32):
            i = int(rng.integers(problem.n))
            x = 0.5 * rng.standard_normal(problem.d)
            y = 0.5 * rng.standard_normal(problem.d)
            dist = float(np.linalg.norm(x - y))
            if dist < 1e-12:
                continue
            gi = batch_gradient(problem, x, [i], scratch)
            gj = batch_gradient(problem, y, [i], scratch)
            l1 = max(l1, float(np.linalg.norm(gi - gj)) / dist)
            Hi = batch_hessian(problem, x, [i], scratch)
            Hj = batch_hessian(problem, y, [i], scratch)
            l2 = max(l2, float(np.linalg.norm(Hi - Hj, 2)) / dist)
        l1, l2 = 2.0 * l1, 2.0 * l2
        # the closed-form sup is a certified ceiling for the doubled probe
        analytic = lipschitz_bounds(problem, mode="analytic")
        l1, l2 = min(l1, analytic.L1), min(l2, analytic.L2)
        return LipschitzBounds(max(l1, _L_FLOOR), max(l2, _L_FLOOR), provenance="sampled")
    raise ValueError(f"unknown mode {mode!r}")
