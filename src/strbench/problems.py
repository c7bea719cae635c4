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
Every Hessian is bitwise symmetric.  Where the link's Hessian weight ``w`` is
nonnegative by construction (logistic), the data Hessian is the Gram matrix
``B'B`` with ``B = diag(sqrt(w/s)) X_S``, a sum of symmetric rank-k products;
a signed weight (nls) sums general products, symmetrized as ``(A + A')/2``.
Hessians and the analytic Lipschitz bound walk the rows in consecutive blocks
(:func:`strbench.datasets.row_blocks`) and sum them in row order, so no
temporary the size of ``X_S`` is made; a batch of one block is one product.
Each call reads its rows of ``X`` at most once, and consecutive calls often
share that read.  ``full_*`` oracles use ``X`` in place, and the problem keeps
a record of its last three full passes (margins, sigmoid, data gradient),
keyed by the exact bytes of the point, so ``full_value``, ``full_gradient``
and ``full_hessian`` at one point compute ``X @ x`` once and the gradient
once.  A sampled gradient or Hessian-vector product over at least
``_MULTIPLICITY_SHARE`` (a third) of n rows is not gathered: it sums over
``X`` weighted by the multiplicity of each row, ``X'(m c(z))/s`` and
``X'(m w(z) X v)/s``, with the margins from the full pass at its point, so a
recurrent estimator step whose endpoints ``x_k``, ``x_{k-1}`` and ``x_ref``
were visited recently reads no margins at all.  The multiplicities
``m = bincount(idx)`` are kept in a one-slot record keyed by the bytes of the
index multiset.  Smaller batches, and every sampled Hessian, read the rows
``X[idx]``; the problem keeps a record of its last such gather, keyed the
same way, so the calls of one recurrent step gather it once, and each call
still takes its margins at its own point.  Every call still bills its full
batch size.  The records rely on ``X`` and the labels never changing, so the
problem holds them read-only.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, row_blocks

# sup |sigma''| and sup |sigma'''| over the real line (sigma = logistic).
_SIG_D2_MAX = 1.0 / (6.0 * math.sqrt(3.0))
_SIG_D3_MAX = 0.125
# sup_u |u (1 - u^2)| / (1 + u^2)^4 is ~0.19453; rounded up to stay an
# upper bound for the regularizer's third derivative 24 a^1.5 * phi(u).
_REG_D3_SHAPE = 0.2

_L_FLOOR = 1e-6

_ALL = slice(None)  # the full batch: basic indexing reads X in place, no copy

# A sampled gradient or Hessian-vector product over at least this share of n rows
# skips the gather and sums over X by multiplicity.  Measured at n = 12000, d = 50,
# one BLAS thread, with the full passes at the points held: the three calls of a
# recurrent step on one multiset took 1.30 ms gathered and 1.66 ms summed at
# s = n/4, 1.51 and 1.62 at s = 0.30 n, 1.81 and 1.60 at 0.36 n, and 5.8 and 1.4 at
# s = n.  A lone gradient call, which pays the gather by itself, breaks even below n/5.
_MULTIPLICITY_SHARE = 1.0 / 3.0

KINDS = ("logistic_nc", "nls_nc", "synthetic_quad")


@dataclass
class OracleCounters:
    """Counts of single-component gradient (sfo) and Hessian (sso) queries."""

    sfo: int = 0
    sso: int = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.sfo, self.sso)


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
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _log1pexp(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z), overflow-safe."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _nls_loss(rows):
    e = rows.sigmoid() - rows.b
    return 0.5 * e * e


def _nls_weight(p, b):
    sp = p * (1.0 - p)
    return sp * sp + (p - b) * sp * (1.0 - 2.0 * p)


# Per GLM kind: labels(y) -> b, margin(X x, b) -> z, loss of a _Pass, grad_coef and
# hess_weight of (sigmoid(z), b); gram: hess_weight is >= 0 by construction, so
# the data Hessian is a Gram matrix; l1, l2 scale max|x_i|^2, ^3 in the L1, L2 bounds.
_Link = namedtuple("_Link", "labels margin loss grad_coef hess_weight gram l1 l2")
_LINKS = {
    "logistic_nc": _Link(
        labels=lambda y: y,
        margin=lambda u, b: b * u,
        loss=lambda rows: _log1pexp(-rows.z),
        grad_coef=lambda p, b: (p - 1.0) * b,
        hess_weight=lambda p, b: p * (1.0 - p),
        gram=True,
        l1=0.25, l2=_SIG_D2_MAX,
    ),
    "nls_nc": _Link(
        labels=lambda y: (y + 1.0) / 2.0,  # nls targets in {0, 1}
        margin=lambda u, b: u,
        loss=_nls_loss,  # reads the pass's sigmoid, which the gradient reuses
        grad_coef=lambda p, b: (p - b) * p * (1.0 - p),
        hess_weight=_nls_weight,
        gram=False,  # the weight is signed
        l1=0.0625 + _SIG_D2_MAX, l2=0.75 * _SIG_D2_MAX + _SIG_D3_MAX,
    ),
}


class _Pass:
    """A batch's rows and labels with their margins at one point, and the
    sigmoid of the margins and the data gradient filled in when first needed.
    A full pass also carries ``key``, the bytes of its point."""

    __slots__ = ("X", "b", "z", "key", "p", "g")

    def __init__(self, X, b, z, key=None):
        self.X, self.b, self.z, self.key = X, b, z, key
        self.p = self.g = None

    def sigmoid(self) -> np.ndarray:
        p = self.p
        if p is None:
            p = self.p = _sigmoid(self.z)
        return p


def _read_only(a) -> np.ndarray:
    """``a`` as a C-contiguous float64 array nobody can write.  A writable
    input is copied once, so its owner's later writes do not reach the copy."""
    if isinstance(a, np.ndarray) and not a.flags.writeable:
        out = np.ascontiguousarray(a, dtype=float)  # ``a`` itself if already C float64
    else:
        out = np.array(a, dtype=float, order="C")
    out.flags.writeable = False
    return out


def _regularizer(w: np.ndarray, alpha: float, part: str):
    """R(w; alpha)'s ``"value"``, ``"grad"`` or Hessian ``"diag"`` at a finite w."""
    aw2 = alpha * w * w
    denom = 1.0 + aw2
    if part == "value":
        return float(np.sum(aw2 / denom))
    if part == "grad":
        return 2.0 * alpha * w / denom**2
    return 2.0 * alpha * (1.0 - 3.0 * aw2) / denom**3


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
    return tuple(_regularizer(w, alpha, part) for part in ("value", "grad", "diag"))


class FiniteSumProblem:
    """Component-wise value/gradient/Hessian oracle over n components."""

    # data of the other kinds stays None
    X = y = labels = anchors = quad_scales = None
    # GLM kinds: the last three full passes, newest first
    _passes: tuple[_Pass, ...] = ()
    _gather: tuple | None = None  # GLM kinds: (idx bytes, X[idx], labels[idx])
    _counts: tuple | None = None  # GLM kinds: (idx bytes, multiplicity of each row)

    def __init__(
        self,
        kind: str,
        X: np.ndarray | None = None,
        y: np.ndarray | None = None,
        reg_lambda: float = 0.0,
        reg_alpha: float = 10.0,
        anchors: np.ndarray | None = None,
        quad_scales: np.ndarray | None = None,
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown problem kind {kind!r}")
        if not (0 <= reg_lambda < math.inf and 0 < reg_alpha < math.inf):
            raise ValueError("reg_lambda must be >= 0 and reg_alpha > 0, both finite")
        self.kind = kind
        self.reg_lambda = float(reg_lambda)
        self.reg_alpha = float(reg_alpha)
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
            # C order, so a full pass over X and a gathered X[idx] agree bitwise;
            # read-only, so the record of the last full pass stays valid
            self.X, self.y = _read_only(X), _read_only(y)
            self.n, self.d = self.X.shape
            self.labels = self.link.labels(self.y)  # logistic: y itself
            self.labels.flags.writeable = False
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")

    @property
    def link(self) -> _Link:  # a lookup, not an attribute, so problems stay picklable
        return _LINKS[self.kind]

    def __getstate__(self):
        state = dict(self.__dict__)
        for cache in ("_passes", "_gather", "_counts"):  # a copy starts without them
            state.pop(cache, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        for a in (self.X, self.y, self.labels):
            if a is not None:  # unpickled arrays come back writable
                a.flags.writeable = False

    # -- data-term helpers (no counter updates) ----------------------------

    def _rows(self, x: np.ndarray, idx) -> _Pass:
        """Rows of the batch with their labels and their margins at ``x``.

        A sampled batch reuses the last gather when ``idx`` has the same bytes;
        the full batch reuses a recorded full pass (:meth:`_full`).  Each record
        is read once and replaced in one assignment, so threads sharing the
        problem can lose a hit but never read another batch's rows.
        """
        if idx is _ALL:
            return self._full(x)
        key = idx.tobytes()  # a checked intp array: equal bytes, equal rows
        rec = self._gather
        if rec is None or rec[0] != key:
            rec = self._gather = (key, self.X[idx], self.labels[idx])
        _, Xs, b = rec
        return _Pass(Xs, b, self.link.margin(Xs @ x, b))

    def _full(self, x: np.ndarray) -> _Pass:
        """The full pass at ``x``, from the record of the last three when it
        is there.  A hit on the newest entry leaves the record as it is; any
        other hit or a miss puts its pass first (a miss drops the oldest)."""
        key = x.tobytes()
        passes = self._passes
        if passes and passes[0].key == key:
            return passes[0]
        for i, rec in enumerate(passes[1:], 1):
            if rec.key == key:
                self._passes = (rec,) + passes[:i] + passes[i + 1:]
                return rec
        rec = _Pass(self.X, self.labels, self.link.margin(self.X @ x, self.labels), key)
        self._passes = (rec,) + passes[:2]
        return rec

    def _summed(self, x: np.ndarray, idx):
        """``(rows, m)`` for a gradient or Hessian-vector product over the batch.

        A sampled batch of at least ``_MULTIPLICITY_SHARE * n`` rows is not
        gathered: ``rows`` is the full pass at ``x`` and ``m`` the multiplicity
        of each row of ``X`` in ``idx``, so the batch sum is a sum over ``X``
        weighted by ``m``.  Otherwise ``rows`` is :meth:`_rows` and ``m`` None.
        """
        if idx is _ALL or len(idx) < _MULTIPLICITY_SHARE * self.n:
            return self._rows(x, idx), None
        key = idx.tobytes()
        rec = self._counts
        if rec is None or rec[0] != key:
            m = np.bincount(idx, minlength=self.n).astype(float)
            m.flags.writeable = False
            rec = self._counts = (key, m)
        return self._full(x), rec[1]

    def _weights(self, x: np.ndarray, idx):
        """Rows of the batch with their Hessian weights."""
        rows = self._rows(x, idx)
        return rows.X, self.link.hess_weight(rows.sigmoid(), rows.b)

    def _data_values(self, x: np.ndarray, idx=_ALL) -> np.ndarray:
        if self.kind == "synthetic_quad":
            diff = x[None, :] - self.anchors[idx]
            return 0.5 * np.sum(self.quad_scales[None, :] * diff * diff, axis=1)
        return self.link.loss(self._rows(x, idx))

    def _reg_term(self, x: np.ndarray, part: str):
        """``reg_lambda`` times the regularizer's ``part`` (see :func:`_regularizer`)
        at a checked point; 0.0 without a regularizer."""
        if self.reg_lambda == 0.0:
            return 0.0
        return self.reg_lambda * _regularizer(x, self.reg_alpha, part)


def _check_point(problem: FiniteSumProblem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.d,):
        raise ValueError(f"x must have shape ({problem.d},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite point")
    return x


def _check_idx(problem: FiniteSumProblem, idx) -> np.ndarray:
    idx = np.atleast_1d(np.asarray(idx))
    if idx.size == 0:  # before the dtype check: an empty list is float64
        raise IndexError("empty index multiset")
    if idx.dtype.kind not in "iu":  # no truncated floats, no bool masks read as 0/1
        raise IndexError(f"component indices must be integers, not {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
    if idx.min() < 0 or idx.max() >= problem.n:
        raise IndexError(f"component index out of range [0, {problem.n})")
    return idx


def _gradient(problem, x, idx, counters: OracleCounters) -> np.ndarray:
    if problem.kind == "synthetic_quad":
        g = problem.quad_scales * (x - problem.anchors[idx].mean(axis=0))
    else:
        rows, m = problem._summed(x, idx)
        if m is not None:
            coef = problem.link.grad_coef(rows.sigmoid(), rows.b)
            g = rows.X.T @ (m * coef) / len(idx)
        else:
            g = rows.g
            if g is None:
                coef = problem.link.grad_coef(rows.sigmoid(), rows.b)
                g = rows.g = rows.X.T @ coef / len(coef)
    counters.sfo += problem.n if idx is _ALL else len(idx)
    return g + problem._reg_term(x, "grad")


def _hessian(problem, x, idx, counters: OracleCounters) -> np.ndarray:
    if problem.kind == "synthetic_quad":
        H = np.diag(problem.quad_scales)
    else:
        Xs, w = problem._weights(x, idx)
        s, gram = len(w), problem.link.gram
        if gram:
            w = np.sqrt(w / s)

        def block(b):
            # Gram: B'B with B = diag(sqrt(w/s)) X_b; numpy computes a buffer times
            # its own transpose with syrk and mirrors the triangle, so each block's
            # product, and their sum, is bitwise symmetric
            B = Xs[b] * w[b, None]
            return B.T @ B if gram else B.T @ Xs[b]

        first, *rest = row_blocks(s, problem.d)
        H = block(first)
        for b in rest:  # in row order; one block is the single product
            H += block(b)
        if gram:
            H.flat[:: problem.d + 1] += problem._reg_term(x, "diag")
            counters.sso += s
            return H
        H /= s
    if problem.reg_lambda != 0.0:
        H = H + np.diag(problem._reg_term(x, "diag"))
    counters.sso += problem.n if idx is _ALL else len(idx)
    return (H + H.T) / 2.0


def batch_gradient(problem, x, idx, counters: OracleCounters) -> np.ndarray:
    """Average gradient over the index multiset (duplicates count twice)."""
    return _gradient(problem, _check_point(problem, x), _check_idx(problem, idx), counters)


def batch_hessian(problem, x, idx, counters: OracleCounters) -> np.ndarray:
    """Average Hessian over the multiset, bitwise symmetric.

    The rows are taken in consecutive blocks (:func:`strbench.datasets.row_blocks`)
    and the blocks' products summed in row order.  A link whose Hessian weight
    is nonnegative (logistic) forms each as a symmetric rank-k product; the
    others sum general products and symmetrize the total as (A + A')/2."""
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
        rows, m = problem._summed(x, idx)
        w = problem.link.hess_weight(rows.sigmoid(), rows.b)
        if m is not None:
            w = m * w
        out = rows.X.T @ (w * (rows.X @ v)) / len(idx)
    if problem.reg_lambda != 0.0:
        out = out + problem._reg_term(x, "diag") * v
    counters.sso += len(idx)
    return out


def full_value(problem, x, counters: OracleCounters) -> float:
    """F(x).  Values lie outside the sfo/sso budget: ``counters`` keeps the
    signature of the other full oracles, and nothing is billed to it."""
    x = _check_point(problem, x)
    return float(problem._data_values(x).mean() + problem._reg_term(x, "value"))


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
        # scale each row by the power of two of its max-abs first, so no square
        # under- or overflows; the scaling is exact, so ordinary rows are unchanged.
        # Each block is written into the output, which also holds its |x|.
        out = np.empty_like(X)
        for b in row_blocks(*X.shape):
            Xb, Ob = X[b], out[b]
            _, e = np.frexp(np.abs(Xb, out=Ob).max(axis=1, initial=0.0))
            np.ldexp(Xb, -e[:, None], out=Ob)
            norms = np.linalg.norm(Ob, axis=1)
            norms[norms == 0.0] = 1.0
            Ob /= norms[:, None]
        X = out
        X.flags.writeable = False  # nobody else holds it: no copy needed
    return FiniteSumProblem(
        kind, X=X, y=dataset.label_array(), reg_lambda=reg_lambda, reg_alpha=reg_alpha
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
        try:
            reg_l2 = 24.0 * _REG_D3_SHAPE * lam * alpha**1.5
        except OverflowError:  # alpha above about 3.2e205; inf unless lam brings it back
            reg_l2 = 24.0 * _REG_D3_SHAPE * lam * alpha * math.sqrt(alpha)
        if problem.kind == "synthetic_quad":
            L1 = float(np.max(np.abs(problem.quad_scales)))
            L2 = _L_FLOOR
        else:
            X = problem.X  # a row's norm reads only that row, so blocks change no bit
            m = max(float(np.linalg.norm(X[b], axis=1).max()) for b in row_blocks(*X.shape))
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
