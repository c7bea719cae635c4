"""Trust-region subproblem solvers.

Solves ``min_{||h|| <= r} <g, h> + 0.5 <H h, h>`` two ways:

* :func:`solve_trs_exact` -- dense eigendecomposition, then, on the problem
  scaled to the unit ball (``u = h / r``, every entry at most 1), a
  safeguarded Newton iteration on the reciprocal secular equation
  ``1/||u(mu)|| - 1`` (More-Sorensen style, :func:`_secular_newton`, run to
  the rounding level of ``||u||``), with explicit hard-case handling, and a
  gate on the unit problem's KKT conditions.  From ``d = _KRYLOV_MIN_D``
  (38, the measured crossover) on it first solves in g's Krylov space
  (GLTR, Gould, Lucidi, Roma & Toint 1999: one Lanczos chain, and at each
  step the same Newton, evaluated on an O(m) ``LDL'`` factorization of the
  tridiagonal, kept as its two diagonals and scaled by a Gershgorin bound,
  with no eigenvalue of it computed, warm-started from the previous step)
  and proves the lifted step globally optimal by showing ``H + mu I``,
  shifted down by a rounding margin, positive definite: by Gershgorin's
  circles in O(d^2) where they suffice, else by one Cholesky factorization;
  a case that proof cannot cover, such as the hard case, takes the
  eigendecomposition.
* :func:`solve_trs_lanczos` -- matrix-free, through Hessian-vector
  products: a probe Lanczos chain from a random vector finds the bottom Ritz
  pair ``(theta, y)``, then g's chain solves as on the Krylov path above
  with the multiplier held at or above ``max(0, -theta)``, and a step inside
  the ball at that bound is padded to the boundary along ``y``.  Where the
  O(m) Newton cannot resolve a root near the pole, g's chain is rerun with
  each step solved in the eigenbasis of its tridiagonal.

A global minimizer is characterized by a multiplier ``mu >= 0`` with
``(H + mu I) h = -g``, ``H + mu I`` positive semidefinite, and
``mu (||h|| - r) = 0``.  The rescaled dual ``lambda_alg = 2 mu / L2`` is what
the outer driver thresholds against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import _integer

# Projection of g onto the bottom eigenspace below this fraction of ||g||
# is treated as zero (numeric orthogonality proxy for the hard case).
_HARD_CASE_RTOL = 1e-11
# The secular Newton (_secular_newton) ends on a stall only once its best gap
# |1 - ||u||| is within this, and the Krylov path accepts no root outside it;
# GATE_TOL is only the acceptance threshold below which a solve counts as
# converged.
_SECULAR_RTOL = 1e-13
# The secular Newton of both paths iterates on to this gap, the rounding level
# of ||u||, where a step no longer moves the multiplier.
_SECULAR_ROUNDING = 1e-15
_MAX_SECULAR_ITERS = 200
# A boundary deficit 1 - ||u|| at or below this is rounding of the unit
# secular root, not room for a bottom-eigenvector pad.  At mu > -lambda_1 the
# pad, about sqrt(2 deficit), adds (mu + lambda_1) times its length to the
# stationarity residual.
_PAD_RTOL = 1e-12
# From this dimension on, solve_trs_exact first solves in g's Krylov space,
# with no d x d eigendecomposition.  scripts/trs_crossover.py times both paths
# in turn per solve on exact_tr subproblems, one BLAS thread.  At d = 30..50 in
# steps of 2, three runs put the crossover at d = 34, 34, 34 on its default
# grid and at 36, 38, 36 with --n 12000 --epsilon 1e-2; this is the smallest d
# at which Krylov won on both grids in every run.  Eigen and Krylov ms per
# solve: 0.31 and 0.26 at d = 38, 0.47 and 0.31 at d = 50, 0.23 and 0.25 at
# d = 30 (default grid); 0.33 and 0.31, 0.43 and 0.32, 0.22 and 0.27 with
# --n 12000.  Gershgorin's circles certified every Krylov step there, with no
# Cholesky factorization.
_KRYLOV_MIN_D = 38
# The Krylov step stops growing once the lifted residual beta_m |u_m| is at
# most this times sigma ||u||.  On the d = 400 benchmark subproblems (seeds 0
# and 43) its step then lies within 2.6e-15 r of the eigen path's; at 1e-13 it
# lay within 8e-14 r.
_KRYLOV_RTOL = 1e-15
# A Krylov attempt gives up after this many steps.  On a definite d = 150
# instance whose chain needs 69, the 64 steps cost 3.0-4.8 ms against 3.6-4.0
# ms for the eigen path it then takes (one BLAS thread); about 40% of that is
# the reduced solves, each a pure-Python O(m) LDL' of T_m.  The d = 400
# benchmark's solves take 6 to 18 steps and 1.5-1.7 ms (median), certificate
# included.
_KRYLOV_MAX_M = 64


@dataclass(frozen=True)
class KktResidual:
    """Stationarity norm, lambda_min(H + mu I), and |mu (||h|| - r)|.

    On the Krylov path of :func:`solve_trs_exact` (``krylov_dim`` set) the
    middle field is a lower bound on lambda_min(H + mu I), the margin that
    path proved (by Gershgorin's circles or a Cholesky factorization), not
    the eigenvalue.
    """

    stationarity: float
    min_eig_shifted: float
    complementarity: float


@dataclass
class TrsSolution:
    h: np.ndarray
    mu: float
    lambda_alg: float
    on_boundary: bool
    kkt: KktResidual
    model_decrease: float
    converged: bool = True
    krylov_dim: int | None = None


class TrsNumericError(RuntimeError):
    """Numeric failure; ``best`` carries the best iterate found, if any."""

    def __init__(self, message: str, best: TrsSolution | None = None):
        super().__init__(message)
        self.best = best


_SYM_TOL = 1e-12  # relative asymmetry tolerance of the eigensolvers
# The tolerance of the solvers' KKT gate (see _gated_solution).  Below it the
# gate starts to refuse solves that are exact up to rounding: of 2,000 random
# instances (d < 60, scales 1e-6 to 1e3), none at 1e-8, 11 at 1e-10 and 163 at
# 1e-12.
GATE_TOL = 1e-8


def _symmetric(A) -> np.ndarray:
    """``A`` as a finite symmetric float matrix, for the LAPACK eigensolvers.

    Rejects inputs whose asymmetry exceeds ``_SYM_TOL`` relative to the
    largest entry.  A bitwise symmetric input (every Hessian the oracles and
    estimators build) is returned as is: ``(A + A')/2`` would reproduce it bit
    for bit.  Any other input within tolerance is symmetrized.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(A).all():
        raise ValueError("non-finite matrix")
    bits = A.view(np.int64)  # compared as bits, so 0.0 and -0.0 count as different
    if (bits == bits.T).all():
        return A
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if float(np.max(np.abs(A - A.T), initial=0.0)) > _SYM_TOL * (1.0 + scale):
        raise ValueError("matrix is not symmetric within tolerance")
    return (A + A.T) / 2.0


def _eigh(A: np.ndarray):
    """``np.linalg.eigh`` of a matrix known to be symmetric, with LAPACK
    non-convergence a :class:`TrsNumericError`."""
    try:
        return np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise TrsNumericError(f"eigendecomposition failed: {exc}") from exc


def sym_eig(A: np.ndarray):
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Rejects inputs that are not square, not finite, or asymmetric beyond
    ``_SYM_TOL`` relative to the largest entry (see :func:`_symmetric`); wraps
    LAPACK non-convergence in :class:`TrsNumericError`.
    """
    return _eigh(_symmetric(A))


def _sym_eigvals(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, without eigenvectors.

    Same checks and errors as :func:`sym_eig`.
    """
    A = _symmetric(A)
    try:
        return np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise TrsNumericError(f"eigenvalue computation failed: {exc}") from exc


def model_value(g: np.ndarray, H: np.ndarray, h: np.ndarray) -> float:
    return float(g @ h + 0.5 * h @ (H @ h))


def kkt_residual(g, H, r, sol: TrsSolution) -> KktResidual:
    """Recompute the three optimality residuals from scratch, with scaled norms.

    ``H`` goes through the solvers' checks (see :func:`_symmetric`): a matrix
    that is not square, not finite, or asymmetric beyond ``_SYM_TOL`` is a
    ``ValueError``.
    """
    g = np.asarray(g, float)
    H = np.asarray(H, float)
    h, mu = sol.h, sol.mu
    min_eig = float(_sym_eigvals(H)[0]) + mu
    stationarity = _norm(H @ h + mu * h + g)
    comp = abs(mu * (_norm(h) - r))
    return KktResidual(stationarity, min_eig, comp)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array.  ``math.hypot`` scales, so no
    square over- or underflows, and at small sizes it beats ``sqrt(v . v)``."""
    return math.hypot(*v.tolist())


def _secular_newton(evaluate, lo, hi, x, ev):
    """Safeguarded Newton on the reciprocal secular equation ``1/||u(x)|| = 1``
    (More & Sorensen 1983) over the bracket ``(lo, hi)``, from ``x`` and its
    evaluation ``ev``: the one iteration of the eigen and Krylov paths.

    ``evaluate(x)`` is None where ``x`` lies at the pole up to rounding, and
    else ``(n, value, denominator)``: ``n = ||u(x)||``, what to return with
    the best iterate, and a callable, valid until the next evaluation, for
    the Newton denominator ``q = v' (A + x I)^{-1} v``, ``v = u / n``, which
    makes ``(n - 1) / q`` the Newton step on ``1/||u|| - 1``; it is computed
    only where a step is taken.  ``||u||`` falls as ``x`` rises, so each
    evaluation moves one end of the bracket; a pole raises its lower end.
    A step that leaves the bracket or is not finite, and the step from a
    pole, is a bisection.

    The iteration runs past the gap ``|n - 1| <= _SECULAR_RTOL`` to
    ``_SECULAR_ROUNDING``.  It ends there, at the first evaluation that does
    not improve on a best gap within ``_SECULAR_RTOL`` (a stall), where a
    step no longer moves ``x``, or after ``_MAX_SECULAR_ITERS`` steps.
    Returns ``(x, value, gap)`` of the evaluation of least gap; ``(x, None,
    inf)`` for the starting ``x`` where no gap is finite.  Acceptance is the
    caller's.
    """
    best_x, best_value, best_gap = x, None, math.inf
    for _ in range(_MAX_SECULAR_ITERS):
        if ev is None:  # x at the pole up to rounding
            lo, x_new = x, math.nan
        else:
            n, value, denominator = ev
            gap = abs(n - 1.0)
            if gap < best_gap:
                best_x, best_value, best_gap = x, value, gap
                if gap <= _SECULAR_ROUNDING:
                    break
            elif best_gap <= _SECULAR_RTOL:
                break  # stalled: a further step makes no progress
            if n > 1.0:
                lo = x
            else:
                hi = x
            q = denominator()
            x_new = x + (n - 1.0) / q if q > 0.0 else math.nan
        if not lo < x_new < hi:  # also an inf or NaN step
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x, ev = x_new, evaluate(x_new)
    return best_x, best_value, best_gap


def _secular_root(e, gt, delta_hi):
    """Find delta > 0 with ||u(delta)|| = 1 where u_i = -gt_i / (e_i + delta).

    ``e = w + mu_lo >= 0`` are the shifted eigenvalues and ``gt`` the
    eigencoordinates of g, both of the unit-ball problem, and ``delta_hi =
    ||g||``.  Solving in the offset delta (instead of mu itself) keeps full
    float resolution next to the pole, where the root of a nearly hard case
    can sit within 1e-12 of mu_lo.  :func:`_secular_newton` iterates, with
    ``||u||`` and the Newton denominator ``sum_i (u_i/||u||)^2 / (e_i +
    delta)``, which squares only ratios, evaluated in the eigenbasis, to the
    rounding gap ``_SECULAR_ROUNDING`` or a stall.

    The bracket is ``[0, delta_hi]``, for every case.  The iteration
    evaluates ``||u||`` only inside it, so a zero in ``e`` is no division at
    the pole.  At the upper end ``||u|| <= ||gt|| / ||g||``, which is 1 up to
    rounding; where rounding puts it above 1, ``hi`` is doubled once, to
    ``2 ||g|| + 1``, where ``||u|| < 1/2``.  It runs only where a root
    exists, that is where the step at ``delta = 0`` does not fit.  Returns
    the best iterate and whether its gap is within 1e-9: a root the
    iteration cannot resolve, pinned against the pole at float resolution,
    comes back flagged unresolved, a fallback the caller handles.  The
    caller ignores numpy's floating-point warnings (see
    :func:`_solve_in_eigenbasis`).
    """
    # exact zeros in gt contribute nothing, even at a pole; else a plain division
    nonzero = True if gt.all() else gt != 0.0
    u = np.zeros(gt.size)  # stays zero where gt is

    def evaluate(delta):
        t = e + delta
        np.divide(gt, t, out=u, where=nonzero)
        n = _norm(u)

        def denominator():
            v = u / n
            return float((v * v / t).sum())
        return n, None, denominator

    hi = delta_hi
    if evaluate(hi)[0] > 1.0:
        hi = 2.0 * hi + 1.0
    delta = 0.5 * hi
    delta, _, gap = _secular_newton(evaluate, 0.0, hi, delta, evaluate(delta))
    # resolved well enough, or stalled at float resolution near the pole
    return delta, gap <= 1e-9


def _check_inputs(g, r, L2) -> tuple[float, float]:
    """Refuse bad inputs; return ``r`` and ``L2`` as Python floats, whose
    products and quotients go to inf past the float range with no warning,
    where numpy scalars warn."""
    if g.ndim != 1:
        raise ValueError(f"g must be a vector, not an array of shape {g.shape}")
    # written as ``not <``, so NaN fails; the unit-ball solve needs a finite r
    if not 0.0 < r < math.inf:
        raise ValueError("radius must be positive and finite")
    if not 0.0 < L2 < math.inf:
        raise ValueError("L2 must be positive and finite")
    if not np.isfinite(g).all():
        raise ValueError("non-finite inputs")
    return float(r), float(L2)


def solve_trs_exact(g, H, r: float, L2: float) -> TrsSolution:
    """Global minimizer of the quadratic model over the ball of radius r.

    Interior Newton step when the Hessian is definite and the step fits;
    otherwise the boundary multiplier is found on the secular equation, and
    (near-)hard cases are resolved by padding along a bottom eigenvector, all
    on the unit ball (see :func:`_solve_in_eigenbasis`).  At ``d >=
    _KRYLOV_MIN_D`` the step is first sought in g's Krylov space with no d x d
    eigendecomposition (see :func:`_krylov_solution`); a step found there
    carries ``krylov_dim``, is proved globally optimal by Gershgorin's
    circles or a factorization of ``H + mu I`` and passes the same gate.
    Where that path finds none (g = 0, hard or semidefinite cases, no
    convergence) the eigendecomposition solves, so its pads, errors and
    results are those of smaller d.  Raises :class:`TrsNumericError` with the
    best iterate attached if the stationarity residual misses ``GATE_TOL
    (||g|| + 1)`` (a NaN always misses), ``||h|| > r``, or ``mu > 0`` with
    ``||h|| < r``, each judged relative to r, and with none attached if the
    unit problem's scale ``max_i |g_i| / r`` is past the float range.  A
    ``g`` that is not a vector, or an ``H`` that is not d x d for g's size
    d, is a ``ValueError``.
    """
    g = np.asarray(g, dtype=float)
    H = np.asarray(H, dtype=float)
    r, L2 = _check_inputs(g, r, L2)
    if H.shape != (g.size, g.size):
        raise ValueError(f"H must have shape {(g.size, g.size)} for g of shape {g.shape}, "
                         f"not {H.shape}")
    if g.size >= _KRYLOV_MIN_D:
        H = _symmetric(H)
        sol = _krylov_solution(g, H, r, L2)
        if sol is not None:
            return sol
    w, V = sym_eig(H)
    return _solve_in_eigenbasis(g, w, V, r, L2)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _solve_in_eigenbasis(g, w, V, r, L2) -> TrsSolution:
    """:func:`solve_trs_exact` for ``H = V diag(w) V'``, eigenvalues ascending:
    its path below ``_KRYLOV_MIN_D`` and the Krylov path's fallbacks.

    Solves for ``u = h / r`` on the unit ball with eigenvalues ``w / sigma``
    and gradient ``g / (r sigma)``, ``sigma = max(|lambda_1|, |lambda_d|,
    max_i |g_i| / r)`` or 1 if that is 0 (the max-norm of g cannot overflow
    where its 2-norm would), and maps back once: ``h = r u``, ``mu = sigma
    mu_hat``.  A scale past the float range raises :class:`TrsNumericError`.

    One test decides the case: does the step at ``mu_lo = max(0,
    -lambda_1)`` fit in the ball?  That step is 0 wherever g has no
    coordinate, and in the hard case (``lambda_1 <= 0``, g orthogonal to the
    bottom eigenspace up to ``_HARD_CASE_RTOL``) g's bottom coordinates are
    dropped first.  Where g has a coordinate on the exact zero of ``w +
    mu_lo`` the step has a pole and cannot fit, which is decided in O(1).
    A step that fits is the solution at ``mu = 0`` when ``mu_lo = 0`` (a
    Newton or pseudo-Newton step); otherwise it is padded to the boundary
    along the first bottom eigenvector at ``mu_lo``, the coordinate on
    which it is 0.  A step that does not fit puts a root of the secular
    equation above ``mu_lo``, which :func:`_secular_root` finds; that step
    is padded, its bottom coordinates dropped, in the hard case and where
    the root comes back unresolved with ``lambda_1 <= 0``.

    One ``np.errstate`` covers the solve: a step past the float range, or
    with a pole at a tie of ``w + mu_lo``, reads inf and does not fit, and
    the secular iteration bisects over a non-finite Newton step, all
    without a warning.
    """
    gmax = float(np.abs(g).max())
    sigma = max(abs(float(w[0])), abs(float(w[-1])), gmax / r) or 1.0
    if sigma == math.inf:
        raise TrsNumericError(f"unit-ball scale max_i |g_i| / r = {gmax:.3e} / {r:.3e} "
                              "is past the float range")
    w = w / sigma
    g = g / r / sigma
    gt = V.T @ g
    gnorm = _norm(g)
    lam1 = float(w[0])
    mu_lo = max(0.0, -lam1)

    def solution(ut, mu) -> TrsSolution:
        """The unit step ``V ut`` at multiplier ``mu``, gated, in the caller's units."""
        u = V @ ut
        return _gated_solution(u, V @ (w * (V.T @ u)), mu, g, gnorm, sigma, r, L2,
                               sigma * (lam1 + mu))

    def to_boundary(ut):
        """``ut`` scaled to the boundary, or padded to it along the first bottom
        eigenvector, signed so that its largest-magnitude entry is positive: the
        eigensolver's sign choice does not reach the step."""
        n0 = _norm(ut)
        if n0 > 1.0:
            ut /= n0
        elif n0 < 1.0 - _PAD_RTOL:
            v = V[:, 0]
            ut[0] += math.copysign(math.sqrt(1.0 - n0 * n0), v[np.argmax(np.abs(v))])
        return ut

    shifted = w + mu_lo  # exact zero on the bottom eigenvalue when lam1 <= 0
    gs, hard = gt, False
    if lam1 <= 0.0:  # the hard case and each use of `bottom` below need lam1 <= 0
        # Bottom eigenspace: eigenvalues tied with lam1 up to rounding; w ascends.
        bottom = (w - lam1) <= 1e-12 * (1.0 + max(abs(lam1), abs(float(w[-1]))))
        hard = _norm(gt[bottom]) <= _HARD_CASE_RTOL * gnorm
        if hard:
            gs = np.where(bottom, 0.0, gt)
    if shifted[0] > 0.0 or gs[0] == 0.0:  # else a pole at shifted[0] = 0: no fit
        # 0 where g has no coordinate, even at a pole; else a plain division
        nonzero = True if gs.all() else gs != 0.0
        ut = np.divide(-gs, shifted, out=np.zeros(gs.size), where=nonzero)
        if _norm(ut) <= 1.0:
            if mu_lo == 0.0:  # a Newton or pseudo-Newton step
                return solution(ut, 0.0)
            return solution(to_boundary(ut), mu_lo)
    delta, resolved = _secular_root(shifted, gs, gnorm)
    if hard or not (resolved or lam1 > 0.0):
        # the hard case, or a root pinned against the pole at float resolution
        # (unresolved), whose bottom eigenspace is treated as in the hard case
        ut = np.where(bottom, 0.0, -gt / np.where(bottom, 1.0, shifted + delta))
        return solution(to_boundary(ut), mu_lo + delta)
    return solution(-gt / (shifted + delta), mu_lo + delta)


def _gated_solution(u, Hu, mu, g, gnorm, sigma, r, L2, min_eig_shifted) -> TrsSolution:
    """The step ``u`` at multiplier ``mu`` of the unit-ball problem with gradient
    ``g`` (of norm ``gnorm``) and ``Hu`` its Hessian times ``u``, in the
    caller's units: ``h = r u`` and multiplier ``sigma mu``.

    Raises :class:`TrsNumericError`, the solution attached, unless the
    stationarity residual meets ``GATE_TOL (||g|| + 1)`` in the caller's units
    (divided by ``r sigma`` here; a NaN residual or step norm always misses),
    ``||u|| <= 1 + 1e-8``, and ``mu > 0`` comes with a boundary step.
    """
    unorm = _norm(u)
    stationarity = _norm(Hu + mu * u + g)
    mu_out = sigma * mu
    sol = TrsSolution(
        h=r * u,
        mu=mu_out,
        lambda_alg=2.0 * mu_out / L2,
        on_boundary=unorm >= 1.0 - 1e-8,
        kkt=KktResidual(stationarity * sigma * r, min_eig_shifted,
                        mu_out * (r * abs(unorm - 1.0))),
        model_decrease=float(g @ u + 0.5 * u @ Hu) * sigma * r * r,
    )
    # written as ``not <=``, so a NaN fails
    if not stationarity <= GATE_TOL * (gnorm + 1.0 / r / sigma):
        raise TrsNumericError(
            f"stationarity residual {sol.kkt.stationarity:.3e} above tolerance",
            best=sol,
        )
    if not unorm <= 1.0 + 1e-8:
        raise TrsNumericError(
            f"step outside the trust region: ||h|| / r = {unorm:.3e} at r = {r:.3e}",
            best=sol,
        )
    if mu > 0.0 and not sol.on_boundary:
        raise TrsNumericError(
            f"multiplier {mu_out:.3e} > 0 with a step inside the trust region: "
            f"||h|| / r = {unorm:.3e}",
            best=sol,
        )
    return sol


def _tridiagonal_ldl(a, b, gamma, mu):
    """``u = -(T + mu I)^{-1} gamma e_1`` for the tridiagonal ``T`` of diagonal
    ``a`` and off-diagonal ``b`` (lists of floats), from ``T + mu I = L D L'``
    with ``L`` unit lower bidiagonal; returns ``u``, ``D`` and the subdiagonal
    of ``L``, or None unless every pivot in ``D`` is positive (``T + mu I`` is
    then not positive definite, up to rounding)."""
    piv = a[0] + mu
    if not piv > 0.0:
        return None
    D, low = [piv], []
    for ai, bi in zip(a[1:], b):
        li = bi / piv
        piv = ai + mu - li * bi
        if not piv > 0.0:
            return None
        low.append(li)
        D.append(piv)
    # L z = -gamma e_1 gives z_i = -l_{i-1} z_{i-1}; then L' u = z / D
    z = -gamma
    u = [z / D[0]]
    for li, pi in zip(low, D[1:]):
        z = -li * z
        u.append(z / pi)
    for i in range(len(low) - 1, -1, -1):
        u[i] -= low[i] * u[i + 1]
    return u, D, low


def _tridiagonal_trs(a, b, gamma, mu, mu_min=0.0):
    """Step and multiplier of ``min gamma u_1 + u'Tu / 2`` over the unit ball,
    the multiplier held at or above ``mu_min >= 0``, for the tridiagonal ``T``
    of diagonal ``a`` and off-diagonal ``b``, whose eigenvalues lie in [-1,
    1], in O(m) per iteration.

    The step at ``mu_min`` when ``T + mu_min I`` is definite (every pivot of
    its ``LDL'`` positive) and the step fits; otherwise the multiplier in
    ``(mu_min, mu_min + 1 + gamma]`` where ``||u|| = 1``, found by
    :func:`_secular_newton` from ``mu`` (the previous Lanczos step's; the
    bracket's midpoint where ``mu`` lies outside it) with ``||u||`` and the
    Newton denominator ``||L^{-1} u||_D^2 / ||u||^2`` evaluated on an
    ``LDL'`` of ``T + mu I``, whose non-positive pivot marks the pole.  As
    ``||u||`` falls with ``mu``, the step at ``mu_min`` can fit only where
    the first ``mu`` tried gives ``||u|| <= 1``; it is tried there, unless
    that ``mu`` is already a root to the gap ``_SECULAR_ROUNDING``.
    Raises :class:`TrsNumericError` where no multiplier meets
    ``_SECULAR_RTOL``: the reduced problem is hard, or so nearly hard that
    the rounding of ``T + mu I``, about ``eps |mu| / (mu + theta_1)`` in
    ``||u||`` with ``theta_1`` the bottom eigenvalue of ``T``, exceeds that
    gap: already where the root lies within about 1e-3 ``|mu|`` of the pole
    ``mu = -theta_1`` (the eigenbasis solve keeps that pole exact).
    """
    def evaluate(x):
        ldl = _tridiagonal_ldl(a, b, gamma, x)
        if ldl is None:
            return None
        u, D, low = ldl
        n = math.hypot(*u)

        def denominator():  # ||s||_D^2 with s = L^{-1} u / n
            s = u[0] / n
            q = s * s / D[0]
            for ui, li, pi in zip(u[1:], low, D[1:]):
                s = ui / n - li * s
                q += s * s / pi
            return q
        return n, u, denominator

    lo, hi = mu_min, 1.0 + gamma + mu_min
    if not lo < mu < hi:
        mu = 0.5 * (lo + hi)
    ev = evaluate(mu)
    if ev is not None and 1.0 - ev[0] > _SECULAR_ROUNDING:
        at_min = evaluate(mu_min)
        if at_min is not None and at_min[0] <= 1.0:
            return at_min[1], mu_min
    mu, u, gap = _secular_newton(evaluate, lo, hi, mu, ev)
    if not gap <= _SECULAR_RTOL:
        raise TrsNumericError("reduced secular equation unresolved: a hard case")
    return u, mu


@np.errstate(over="ignore", invalid="ignore")
def _gershgorin_definite(H, shift) -> bool:
    """Whether Gershgorin's circles prove ``H + shift I`` positive definite, in
    O(d^2) and with no factorization.

    Each eigenvalue of ``H`` lies right of ``min_i (H_ii - sum_{j != i}
    |H_ij|)`` (Conn, Gould & Toint 2000, section 7.3).  That bound plus
    ``shift`` must exceed ``2 d eps (max_i sum_j |H_ij| + |shift|)``, which
    covers the rounding of the row sums and of the test itself.  A row sum
    that overflows (or a NaN) makes the test fail, with no warning.  The
    test is only sufficient: a definite ``H + shift I`` that is not
    diagonally dominant fails it.
    """
    rows = np.abs(H).sum(axis=1)
    diag = H.diagonal()
    lower = float(np.min(diag - (rows - np.abs(diag)))) + shift
    return lower > 2.0 * len(H) * np.finfo(float).eps * (float(np.max(rows)) + abs(shift))


def _lanczos(hvp, q, m_max):
    """The Lanczos chain of ``hvp`` from the unit vector ``q``: after each step
    m yields the basis ``B`` (m rows) and the lists ``alpha`` and ``beta`` of
    ``T_m``, ``beta[-1]`` the norm ``beta_m`` of the residual.

    Each new vector is orthogonalized twice against the basis, which is
    grown by doubling; ``hvp``'s result is changed in place.  Ends after
    ``m_max`` steps, at ``beta_m = 0``, and, with no yield, at a non-finite
    ``alpha_m`` or ``beta_m``.
    """
    d = q.size
    Q = np.empty((min(32, m_max), d))
    Q[0] = q
    alpha, beta = [], []
    for m in range(1, m_max + 1):
        j = m - 1
        v = hvp(Q[j])
        B = Q[:m]
        c = B @ v
        v -= B.T @ c
        v -= B.T @ (B @ v)
        alpha.append(float(c[j]))
        beta.append(_norm(v))
        if not (math.isfinite(alpha[j]) and math.isfinite(beta[j])):
            return
        yield B, alpha, beta
        if m == m_max or beta[j] == 0.0:
            return
        if m == len(Q):
            Q = np.concatenate([Q, np.empty((min(m, m_max - m), d))])
        Q[m] = v / beta[j]


def _krylov_chain(g, hvp, r, m_max, mu_min=0.0):
    """GLTR's step in g's Krylov space, the multiplier at least ``mu_min``.

    :func:`_lanczos` from ``g / ||g||``, at most ``m_max`` steps.  At each
    size m the reduced problem on ``T_m`` is solved on the unit ball of the
    scale ``sigma = max(||g|| / r, max_i |alpha_i| + beta_{i-1} + beta_i)``,
    a running Gershgorin bound on the spectral radius of ``T_m``, by
    :func:`_tridiagonal_trs` warm-started from step m - 1, until the lifted
    residual ``beta_m |u_m|`` is at most ``_KRYLOV_RTOL sigma ||u||``.
    Returns ``(B, u, mu, sigma, stopped)`` for the last step solved: the
    basis by rows, the reduced unit step (the step is ``r B'u``), its unit
    multiplier, the scale, and whether that test passed; the chain also ends
    where :func:`_lanczos` ends, where the unit gradient ``||g|| / (r
    sigma)`` underflows to 0, and on a reduced problem that is hard or
    fails.  None where no step is solved: also on g = 0 and a scale ``||g||
    / r`` past the float range.
    """
    gnorm = _norm(g)
    sigma = gnorm / r
    if gnorm == 0.0 or sigma == math.inf:
        return None
    mu_c = mu_min  # the last multiplier in the caller's units, the next warm start
    out = None
    for B, alpha, beta in _lanczos(hvp, g / gnorm, m_max):
        j = len(alpha) - 1
        # Gershgorin row j of T_{m+1}: an upper bound on the spectral radius of T_m
        sigma = max(sigma, abs(alpha[j]) + (beta[j - 1] if j else 0.0) + beta[j]) or 1.0
        gamma = gnorm / r / sigma
        if gamma == 0.0:  # the unit gradient underflowed: as at g = 0
            break
        try:
            u, mu = _tridiagonal_trs([x / sigma for x in alpha], [x / sigma for x in beta[:j]],
                                     gamma, mu_c / sigma, mu_min / sigma)
        except TrsNumericError:
            break
        mu_c = sigma * mu
        lifted = beta[j] * abs(u[-1])
        # relative to ||u||, else a gradient far below H's scale stops at m = 1;
        # ||u|| <= 1 up to rounding, so the O(m) norm waits for the plain test
        stopped = (lifted <= _KRYLOV_RTOL * sigma
                   and lifted <= _KRYLOV_RTOL * sigma * math.hypot(*u))
        out = B, u, mu, sigma, stopped
        if stopped:
            break
    return out


def _krylov_solution(g, H, r, L2) -> TrsSolution | None:
    """The global minimizer from g's Krylov space, or None where that space
    does not certify one.

    The stopped step of :func:`_krylov_chain` through ``H``, at most
    ``_KRYLOV_MAX_M`` steps, if ``H + (mu - tau) I``, ``tau = 1e-12 sigma``,
    is proved positive definite (the step is then the unique global
    minimizer) and the eigen path's gate (:func:`_gated_solution`) passes.
    The proof is Gershgorin's circles (:func:`_gershgorin_definite`, O(d^2))
    where they clear zero, else a Cholesky factorization; either way
    ``kkt.min_eig_shifted`` is ``tau``, a lower bound on ``lambda_min(H + mu
    I)``.
    """
    d = g.size
    chain = _krylov_chain(g, H.__matmul__, r, min(d, _KRYLOV_MAX_M))
    if chain is None or not chain[-1]:
        return None
    B, u_red, mu, sigma, _ = chain
    u = B.T @ np.array(u_red)
    tau = 1e-12 * sigma
    if not _gershgorin_definite(H, sigma * mu - tau):
        shifted = H.copy()
        shifted.flat[:: d + 1] += sigma * mu - tau
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return None
    g = g / r / sigma
    try:
        sol = _gated_solution(u, (H @ u) / sigma, mu, g, _norm(g), sigma, r, L2, tau)
    except TrsNumericError:
        return None
    sol.krylov_dim = len(u_red)
    return sol


def solve_trs_lanczos(
    g,
    hvp,
    d: int,
    r: float,
    L2: float,
    m_max: int | None = None,
    rng: np.random.Generator | None = None,
) -> TrsSolution:
    """Matrix-free TRS solve in Hessian-generated Krylov spaces.

    A probe Lanczos chain (:func:`_lanczos`) from one random vector runs,
    one k x k ``eigh`` per step, until its bottom Ritz pair ``(theta, y)``
    has the residual ``rho = ||H y - theta y|| <= GATE_TOL (||g|| + 1) /
    (2 r)``.  g's chain then solves as on the Krylov path of
    :func:`solve_trs_exact` (:func:`_krylov_chain`) with the multiplier at
    or above ``max(0, -theta)``, a Ritz safeguard (cf. Xu, Roosta & Mahoney
    2017): a chain from g alone cannot see a bottom eigenvector orthogonal to
    g (the hard case).
    Where the O(m) Newton ends g's chain early, as when ``||g||`` is far
    below ``|theta| r`` and the root lies too near the pole for the ``LDL'``
    of ``T + mu I``, the chain is rerun with each step solved in the
    eigenbasis of ``T`` (:func:`_solve_in_eigenbasis`), to the same stop
    test.  A step inside the ball at ``mu = -theta`` is padded to the
    boundary along y, which adds at most ``2 r rho`` to the stationarity
    residual.  Each chain takes at most ``m_max`` steps (default d);
    ``krylov_dim`` is the length of g's (0 at g = 0).  ``converged`` says
    that the step passed the gate of :func:`solve_trs_exact` and ``rho`` met
    its bound.  ``kkt.min_eig_shifted`` is the Ritz estimate ``theta + mu``.
    A ``g`` that is not a vector, a ``d`` other than its size, an ``m_max``
    outside [1, d], either of them not an integer (a bool or a float is not
    one), and a Hessian-vector product not of shape ``(d,)`` or not finite
    are a ``ValueError``; a scale ``||g|| / r``, Lanczos coefficients past
    the float range and a LAPACK failure of a k x k ``eigh`` are a
    :class:`TrsNumericError`.
    """
    g = np.asarray(g, dtype=float)
    r, L2 = _check_inputs(g, r, L2)
    if not (_integer(d) and d == g.size):
        raise ValueError(f"d = {d!r} is not the size of g, of shape {g.shape}")
    m_max = d if m_max is None else m_max
    if not (_integer(m_max) and 1 <= m_max <= d):
        raise ValueError(f"need an integer m_max in [1, d], not {m_max!r}")

    def checked_hvp(v):
        Hv = np.array(hvp(v), dtype=float)  # a copy: the chain changes it in place
        if Hv.shape != (d,):
            raise ValueError(f"Hessian-vector product of shape {Hv.shape}, not ({d},)")
        if not np.isfinite(Hv).all():
            raise ValueError("non-finite Hessian-vector product")
        return Hv

    gnorm = _norm(g)
    if gnorm / r == math.inf:
        raise TrsNumericError(f"unit-ball scale ||g|| / r = {gnorm:.3e} / {r:.3e} "
                              "is past the float range")
    bound = GATE_TOL * (gnorm + 1.0) / (2.0 * r)
    q = (np.random.default_rng(0) if rng is None else rng).standard_normal(d)
    P = None
    for P, alpha, beta in _lanczos(checked_hvp, q / _norm(q), m_max):
        w, S = _eigh(np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
        rho = beta[-1] * abs(float(S[-1, 0]))
        if rho <= bound:
            break
    if P is None:  # the probe's first alpha or beta overflowed
        raise TrsNumericError("Lanczos coefficients past the float range")
    theta, y = float(w[0]), P.T @ S[:, 0]
    mu_min = max(0.0, -theta)
    chain = _krylov_chain(g, checked_hvp, r, m_max, mu_min)
    if chain is None:  # g = 0, or no step solved, as where the unit gradient underflows
        sigma = max(gnorm / r, mu_min) or 1.0
        u, mu, dim = np.zeros(d), mu_min / sigma, 0
    else:
        B, u_red, mu, sigma, stopped = chain
        u, dim = B.T @ np.array(u_red), len(u_red)
        if not stopped and dim < m_max:  # ended early: rerun, each step in T's eigenbasis
            for B, alpha, beta in _lanczos(checked_hvp, g / gnorm, m_max):
                eig = _eigh(np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
                e1 = np.r_[gnorm, np.zeros(len(alpha) - 1)]
                try:  # a LAPACK failure above ends the solve; a gate miss here does not
                    red = _solve_in_eigenbasis(e1, *eig, r, L2)
                except TrsNumericError as exc:
                    red = exc.best
                if beta[-1] * abs(red.h[-1]) <= _KRYLOV_RTOL * sigma * _norm(red.h):
                    break
            u, mu, dim = B.T @ red.h / r, red.mu / sigma, len(alpha)
    unorm = _norm(u)
    if mu > 0.0 and unorm < 1.0 - _PAD_RTOL:  # the step at mu = -theta lies inside
        # ||u + t y|| = 1 at the roots of t^2 + 2 b t - c; the one of least
        # magnitude adds the least to the model and to the residual
        b, c = float(u @ y), (1.0 - unorm) * (1.0 + unorm)
        u = u + c / (b + math.copysign(math.sqrt(b * b + c), b)) * y
    g = g / r / sigma
    try:
        sol = _gated_solution(u, checked_hvp(u) / sigma, mu, g, _norm(g), sigma, r, L2,
                              theta + sigma * mu)
        sol.converged = rho <= bound
    except TrsNumericError as exc:
        sol = exc.best
        sol.converged = False
    sol.krylov_dim = dim
    return sol
