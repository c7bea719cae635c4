"""Trust-region subproblem solvers.

Solves ``min_{||h|| <= r} <g, h> + 0.5 <H h, h>`` two ways:

* :func:`solve_trs_exact` -- dense eigendecomposition, then, on the problem
  scaled to the unit ball (``u = h / r``, every entry at most 1), a
  safeguarded Newton iteration on the reciprocal secular equation
  ``1/||u(mu)|| - 1`` (More-Sorensen style), with explicit hard-case
  handling, and a gate on the unit problem's KKT conditions.  From
  ``d = _KRYLOV_MIN_D`` (38, the measured crossover) on it first solves in
  g's Krylov space (GLTR, Gould, Lucidi, Roma & Toint 1999: one Lanczos
  chain, and at each step the same Newton on an O(m) ``LDL'`` factorization
  of the tridiagonal, kept as its two diagonals and scaled by a Gershgorin
  bound, with no eigenvalue of it computed, warm-started from the previous
  step) and proves the lifted step globally optimal by showing ``H + mu I``,
  shifted down by a rounding margin, positive definite: by Gershgorin's
  circles in O(d^2) where they suffice, else by one Cholesky factorization;
  a case that proof cannot cover, such as the hard case, takes the
  eigendecomposition.
* :func:`solve_trs_lanczos` -- matrix-free Krylov method with full
  reorthogonalization; column m >= 2 of the basis is ``H q_{m-2}``, so g's
  chain takes the even columns and a random probe's the odd ones.  The
  reduced problem is solved exactly and expanded until the lifted
  stationarity residual meets tolerance and a Ritz test certifies it.

A global minimizer is characterized by a multiplier ``mu >= 0`` with
``(H + mu I) h = -g``, ``H + mu I`` positive semidefinite, and
``mu (||h|| - r) = 0``.  The rescaled dual ``lambda_alg = 2 mu / L2`` is what
the outer driver thresholds against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Projection of g onto the bottom eigenspace below this fraction of ||g||
# is treated as zero (numeric orthogonality proxy for the hard case).
_HARD_CASE_RTOL = 1e-11
# Secular iteration targets near machine precision; `tol` is only the
# acceptance threshold below which a solve counts as converged.
_SECULAR_RTOL = 1e-13
# The O(m) tridiagonal Newton of the Krylov path iterates on to this gap, the
# rounding level of ||u||, where a step no longer moves mu.
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
# most this times sigma.  On the d = 400 benchmark subproblems its step then
# lies within 2.6e-15 r of the eigen path's run to a rounding-level secular
# gap, and within 9.4e-14 r of the eigen path as it stands, which stops at the
# first gap below _SECULAR_RTOL; at 1e-13 it lay within 8e-14 r.
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
# The smallest ``tol`` the solvers accept.  Below it the gate starts to refuse
# solves that are exact up to rounding: of 2,000 random instances (d < 60,
# scales 1e-6 to 1e3), none at 1e-8, 11 at 1e-10 and 163 at 1e-12.
MIN_TOL = 1e-8


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
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite matrix")
    bits = A.view(np.int64)  # compared as bits, so 0.0 and -0.0 count as different
    if (bits == bits.T).all():
        return A
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if float(np.max(np.abs(A - A.T), initial=0.0)) > _SYM_TOL * (1.0 + scale):
        raise ValueError("matrix is not symmetric within tolerance")
    return (A + A.T) / 2.0


def sym_eig(A: np.ndarray):
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Rejects inputs that are not square, not finite, or asymmetric beyond
    ``_SYM_TOL`` relative to the largest entry (see :func:`_symmetric`); wraps
    LAPACK non-convergence in :class:`TrsNumericError`.
    """
    A = _symmetric(A)
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise TrsNumericError(f"eigendecomposition failed: {exc}") from exc
    return w, V


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


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _secular_root(e, gt, delta_hi, singular_at_lo):
    """Find delta > 0 with ||u(delta)|| = 1 where u_i = -gt_i / (e_i + delta).

    ``e = w + mu_lo >= 0`` are the shifted eigenvalues and ``gt`` the
    eigencoordinates of g, both of the unit-ball problem.  Solving in the
    offset delta (instead of mu itself) keeps full float resolution next to
    the pole, where the root of a nearly hard case can sit within 1e-12 of
    mu_lo.  Newton on the reciprocal secular function ``1/||u|| - 1``, whose
    step ``(||u|| - 1) / sum_i (u_i/||u||)^2 / (e_i + delta)`` squares only
    ratios, with a bisection bracket that also replaces a non-finite step.
    """
    nonzero = gt != 0.0  # exact zeros in gt contribute nothing, even at a pole
    u = np.zeros_like(gt)  # stays zero where gt is

    def norm_at(t):
        np.divide(gt, t, out=u, where=nonzero)
        return _norm(u)

    lo, hi = 0.0, delta_hi
    # ||u(lo)|| must exceed 1; at a singular lower end step just inside.
    if singular_at_lo:
        step = 1e-18 * delta_hi
        for _ in range(400):
            if norm_at(e + step) > 1.0:
                lo = step
                break
            hi = step
            step *= 1e-2
        else:
            lo = step
    for _ in range(200):
        if norm_at(e + hi) <= 1.0 or not math.isfinite(hi):
            break
        hi = 2.0 * hi + 1.0
    delta = 0.5 * (lo + hi)
    best_delta, best_gap = delta, math.inf
    for _ in range(_MAX_SECULAR_ITERS):
        t = e + delta
        n = norm_at(t)
        gap = abs(n - 1.0)
        if gap < best_gap:
            best_delta, best_gap = delta, gap
        if gap <= _SECULAR_RTOL:
            return delta, True
        if n > 1.0:
            lo = delta
        else:
            hi = delta
        v = u / n
        delta_new = delta + (n - 1.0) / np.sum(v * v / t)  # inf or NaN: bisect
        if not (lo < delta_new < hi):
            delta_new = 0.5 * (lo + hi)
        if delta_new == delta:
            break
        delta = float(delta_new)
    # resolved well enough, or stalled at float resolution near the pole
    return best_delta, best_gap <= 1e-9


def _check_inputs(g, r, L2, tol) -> tuple[float, float]:
    """Refuse bad inputs; return ``r`` and ``L2`` as Python floats, whose
    products and quotients go to inf past the float range with no warning,
    where numpy scalars warn."""
    # written as ``not <``, so NaN fails; the unit-ball solve needs a finite r
    if not 0.0 < r < math.inf:
        raise ValueError("radius must be positive and finite")
    if not 0.0 < L2 < math.inf:
        raise ValueError("L2 must be positive and finite")
    if not MIN_TOL <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= {MIN_TOL:g}, got {tol!r}")
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite inputs")
    return float(r), float(L2)


def solve_trs_exact(g, H, r: float, L2: float, tol: float = MIN_TOL) -> TrsSolution:
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
    best iterate attached if the stationarity residual misses ``tol (||g|| +
    1)`` (a NaN always misses), ``||h|| > r``, or ``mu > 0`` with ``||h|| <
    r``, each judged relative to r, and with none attached if the unit
    problem's scale ``max_i |g_i| / r`` is past the float range.
    A ``tol`` below :data:`MIN_TOL` or not finite is a ``ValueError``.
    """
    g = np.asarray(g, dtype=float)
    H = np.asarray(H, dtype=float)
    r, L2 = _check_inputs(g, r, L2, tol)
    if g.size >= _KRYLOV_MIN_D:
        H = _symmetric(H)
        sol = _krylov_solution(g, H, r, L2, tol)
        if sol is not None:
            return sol
    w, V = sym_eig(H)
    return _solve_in_eigenbasis(g, w, V, r, L2, tol)


def _solve_in_eigenbasis(g, w, V, r, L2, tol) -> TrsSolution:
    """:func:`solve_trs_exact` for ``H = V diag(w) V'``, eigenvalues ascending:
    its path below ``_KRYLOV_MIN_D`` and the Krylov path's fallbacks, and the
    reduced solve of :func:`solve_trs_lanczos`.

    Solves for ``u = h / r`` on the unit ball with eigenvalues ``w / sigma``
    and gradient ``g / (r sigma)``, ``sigma = max(|lambda_1|, |lambda_d|,
    max_i |g_i| / r)`` or 1 if that is 0 (the max-norm of g cannot overflow
    where its 2-norm would), and maps back once: ``h = r u``, ``mu = sigma
    mu_hat``.  A scale past the float range raises :class:`TrsNumericError`.
    """
    gmax = float(np.max(np.abs(g)))
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
        return _gated_solution(u, V @ (w * (V.T @ u)), mu, g, gnorm, sigma, r, L2, tol,
                               sigma * (lam1 + mu))

    shifted = w + mu_lo  # exact zero on the bottom eigenvalue when lam1 <= 0

    def boundary_without_bottom(delta, bottom):
        """Step at mu_lo + delta, bottom eigenspace zeroed, padded to the boundary
        along the first bottom eigenvector, signed so that its largest-magnitude
        entry is positive: the eigensolver's sign choice does not reach the step."""
        denom = np.where(bottom, 1.0, shifted + delta)
        ut = np.where(bottom, 0.0, -gt / denom)
        n0 = _norm(ut)
        if n0 > 1.0:
            ut /= n0
        elif n0 < 1.0 - _PAD_RTOL:
            j = int(np.argmax(bottom))
            v = V[:, j]
            ut[j] += math.copysign(math.sqrt(1.0 - n0 * n0), v[np.argmax(np.abs(v))])
        return ut

    # Bottom eigenspace: eigenvalues tied with lam1 up to rounding.
    gap_tol = 1e-12 * (1.0 + float(np.max(np.abs(w))))
    bottom = (w - lam1) <= gap_tol
    p_bottom = _norm(gt[bottom])

    if lam1 > 0:
        with np.errstate(over="ignore"):  # a Newton step past the float range does not fit
            ut = -gt / w
        if _norm(ut) <= 1.0:
            return solution(ut, 0.0)
        delta, _ = _secular_root(shifted, gt, gnorm, singular_at_lo=False)
        return solution(-gt / (shifted + delta), delta)

    if p_bottom <= _HARD_CASE_RTOL * gnorm:
        # g is (numerically) orthogonal to the bottom eigenspace.
        ut = np.where(bottom, 0.0, -gt / np.where(bottom, 1.0, shifted))
        if _norm(ut) <= 1.0:
            if mu_lo == 0.0:
                # positive semidefinite with a fitting pseudo-Newton step
                return solution(ut, 0.0)
            # hard case: pad with a bottom eigenvector up to the boundary
            return solution(boundary_without_bottom(0.0, bottom), mu_lo)
        delta, _ = _secular_root(shifted, np.where(bottom, 0.0, gt), gnorm, singular_at_lo=False)
        return solution(boundary_without_bottom(delta, bottom), mu_lo + delta)

    delta, resolved = _secular_root(shifted, gt, gnorm, singular_at_lo=True)
    if not resolved:
        # root pinned against the pole at float resolution: treat the bottom
        # eigenspace as in the hard case and pad to the boundary
        ut = boundary_without_bottom(delta, bottom)
    else:
        ut = -gt / (shifted + delta)
    return solution(ut, mu_lo + delta)


def _gated_solution(u, Hu, mu, g, gnorm, sigma, r, L2, tol, min_eig_shifted) -> TrsSolution:
    """The step ``u`` at multiplier ``mu`` of the unit-ball problem with gradient
    ``g`` (of norm ``gnorm``) and ``Hu`` its Hessian times ``u``, in the
    caller's units: ``h = r u`` and multiplier ``sigma mu``.

    Raises :class:`TrsNumericError`, the solution attached, unless the
    stationarity residual meets ``tol (||g|| + 1)`` in the caller's units
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
    if not stationarity <= tol * (gnorm + 1.0 / r / sigma):
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


def _tridiagonal_trs(a, b, gamma, mu):
    """Step and multiplier of ``min gamma u_1 + u'Tu / 2`` over the unit ball,
    for the tridiagonal ``T`` of diagonal ``a`` and off-diagonal ``b``, whose
    eigenvalues lie in [-1, 1], in O(m) per iteration.

    The interior Newton step when ``T`` is definite (every pivot of its
    ``LDL'`` positive) and the step fits; otherwise the multiplier in ``(0, 1 +
    gamma]`` where ``||u|| = 1``, by Newton on ``1/||u(mu)|| - 1`` over an
    ``LDL'`` of ``T + mu I`` (More & Sorensen 1983), started at ``mu`` (the
    previous Lanczos step's) and safeguarded by a bisection bracket whose
    lower end a non-positive pivot raises.  The interior step is tried first
    when ``mu`` is 0, else only once some ``mu > 0`` gives ``||u|| < 1``.  The
    iteration runs past the gap ``_SECULAR_RTOL`` to ``_SECULAR_ROUNDING``, or
    until it stalls.  Raises :class:`TrsNumericError` where no multiplier
    meets ``_SECULAR_RTOL``: the reduced problem is hard, or so nearly hard
    that its root lies within the rounding of ``T + mu I`` of the pole ``mu =
    -theta_1``, ``theta_1`` the bottom eigenvalue of ``T`` (the eigenbasis
    solve keeps that pole exact).
    """
    def interior():
        ldl = _tridiagonal_ldl(a, b, gamma, 0.0)
        return ldl[0] if ldl is not None and math.hypot(*ldl[0]) <= 1.0 else None

    untried = mu > 0.0  # the interior step may yet be the solution
    if not untried:
        u0 = interior()
        if u0 is not None:
            return u0, 0.0
    lo, hi = 0.0, 1.0 + gamma
    if not lo < mu < hi:
        mu = 0.5 * (lo + hi)
    best_u, best_mu, best_gap = None, mu, math.inf
    for _ in range(_MAX_SECULAR_ITERS):
        ldl = _tridiagonal_ldl(a, b, gamma, mu)
        if ldl is None:  # mu at the pole up to rounding
            lo = mu
            mu_new = 0.5 * (lo + hi)
        else:
            u, D, low = ldl
            n = math.hypot(*u)
            gap = abs(n - 1.0)
            if gap < best_gap:
                best_u, best_mu, best_gap = u, mu, gap
                if gap <= _SECULAR_ROUNDING:
                    break
            elif best_gap <= _SECULAR_RTOL:
                break  # stalled: a further step makes no progress
            if n > 1.0:
                lo = mu
            else:
                hi = mu
                if untried:
                    untried = False
                    u0 = interior()
                    if u0 is not None:
                        return u0, 0.0
            # Newton step (n - 1) n^2 / ||L^{-1} u||_D^2, with s = L^{-1} u / n
            s = u[0] / n
            q = s * s / D[0]
            for ui, li, pi in zip(u[1:], low, D[1:]):
                s = ui / n - li * s
                q += s * s / pi
            mu_new = mu + (n - 1.0) / q if q > 0.0 else math.nan
            if not lo < mu_new < hi:  # also an inf or NaN step
                mu_new = 0.5 * (lo + hi)
        if mu_new == mu:
            break
        mu = mu_new
    if not best_gap <= _SECULAR_RTOL:
        raise TrsNumericError("reduced secular equation unresolved: a hard case")
    return best_u, best_mu


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


def _krylov_solution(g, H, r, L2, tol) -> TrsSolution | None:
    """The global minimizer from g's Krylov space, or None where that space
    does not certify one.

    One Lanczos chain from ``g / ||g||``: each new vector is orthogonalized
    twice against the basis, which is stored by rows and grown by doubling,
    and the tridiagonal ``T_m`` is kept as two lists and nowhere else.  At
    each size m the reduced problem on ``T_m`` is solved on the unit ball of
    the scale ``sigma = max(||g|| / r, max_i |alpha_i| + beta_{i-1} +
    beta_i)``, a running Gershgorin bound on the spectral radius of ``T_m``,
    by :func:`_tridiagonal_trs`, an O(m) Newton warm-started from step m - 1,
    until the lifted residual ``beta_m |u_m|`` is at most ``_KRYLOV_RTOL
    sigma``.  The lifted step is accepted only if ``H + (mu - tau) I``, ``tau
    = 1e-12 sigma``, is proved positive definite, so that the step is the
    unique global minimizer, and if it passes the eigen path's gate
    (:func:`_gated_solution`).  The proof is Gershgorin's circles
    (:func:`_gershgorin_definite`, O(d^2)) where they clear zero, else a
    Cholesky factorization; either way ``kkt.min_eig_shifted`` is ``tau``, a
    lower bound on ``lambda_min(H + mu I)``, and the solution is the same.
    None on g = 0, a scale ``||g|| / r`` past the float range or a unit
    gradient ``||g|| / (r sigma)`` that underflows to 0, on a reduced problem
    that is hard or fails, on a failed factorization (a hard or semidefinite
    case) or gate, and after ``_KRYLOV_MAX_M`` steps.
    """
    d = g.size
    gnorm = _norm(g)
    sigma = gnorm / r
    if gnorm == 0.0 or sigma == math.inf:  # the eigen path solves or names the scale
        return None
    m_max = min(d, _KRYLOV_MAX_M)
    Q = np.empty((min(32, m_max), d))
    alpha, beta = [], []
    mu_c = 0.0  # the last multiplier in the caller's units, the next warm start
    Q[0] = g / gnorm
    for m in range(1, m_max + 1):
        j = m - 1
        v = H @ Q[j]
        B = Q[:m]
        c = B @ v
        v -= B.T @ c
        v -= B.T @ (B @ v)
        alpha.append(float(c[j]))
        beta.append(_norm(v))
        if not (math.isfinite(alpha[j]) and math.isfinite(beta[j])):
            return None
        # Gershgorin row j of T_{m+1}: an upper bound on the spectral radius of T_m
        sigma = max(sigma, abs(alpha[j]) + (beta[j - 1] if j else 0.0) + beta[j]) or 1.0
        gamma = gnorm / r / sigma
        if gamma == 0.0:  # the unit gradient underflowed: as at g = 0
            return None
        try:
            u_red, mu = _tridiagonal_trs([x / sigma for x in alpha],
                                         [x / sigma for x in beta[:j]],
                                         gamma, mu_c / sigma)
        except TrsNumericError:
            return None
        mu_c = sigma * mu
        if beta[j] * abs(u_red[-1]) <= _KRYLOV_RTOL * sigma:
            break
        if m == m_max or beta[j] == 0.0:
            return None
        if m == len(Q):
            Q = np.concatenate([Q, np.empty((min(m, m_max - m), d))])
        Q[m] = v / beta[j]
    u = Q[:m].T @ np.array(u_red)
    tau = 1e-12 * sigma
    if not _gershgorin_definite(H, mu_c - tau):
        shifted = H.copy()
        shifted.flat[:: d + 1] += mu_c - tau
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return None
    g = g / r / sigma
    try:
        sol = _gated_solution(u, (H @ u) / sigma, mu, g, _norm(g), sigma, r, L2, tol, tau)
    except TrsNumericError:
        return None
    sol.krylov_dim = m
    return sol


def _fresh_direction(rng, Q, m, d):
    """Random direction orthogonalized (twice) against the first m columns of Q."""
    for _ in range(50):
        v = rng.standard_normal(d)
        v -= Q[:, :m] @ (Q[:, :m].T @ v)
        v -= Q[:, :m] @ (Q[:, :m].T @ v)
        nv = _norm(v)
        if nv > 1e-8:
            return v / nv
    raise TrsNumericError("could not extend the Krylov basis")


def _krylov_column(rng, Q, W, j, d):
    """Column ``j >= 1`` of the Krylov basis: ``H q_{j-2}`` (``W[:, j-2]``)
    orthogonalized twice against ``q_0 .. q_{j-1}``, so the even columns extend
    g's chain and the odd ones the random probe's.  Column 1 seeds the probe
    with a fresh random direction, and so does a breakdown,
    ``beta <= 1e-10 (1 + ||H q_{j-1}||)``."""
    if j >= 2:
        v = W[:, j - 2] - Q[:, :j] @ (Q[:, :j].T @ W[:, j - 2])
        v -= Q[:, :j] @ (Q[:, :j].T @ v)
        beta = _norm(v)
        if beta > 1e-10 * (1.0 + _norm(W[:, j - 1])):
            return v / beta
    return _fresh_direction(rng, Q, j, d)


def solve_trs_lanczos(
    g,
    hvp,
    d: int,
    r: float,
    L2: float,
    m_max: int | None = None,
    tol: float = MIN_TOL,
    rng: np.random.Generator | None = None,
) -> TrsSolution:
    """Approximate TRS solve in a Hessian-generated Krylov subspace.

    Two interleaved chains grow an orthonormal basis with full
    reorthogonalization: g's chain takes the even columns, and an auxiliary
    chain seeded by a random vector, whose job is to pin down the bottom
    eigenpair, the odd ones.  So column m >= 2 is ``H q_{m-2}`` orthogonalized
    against the basis; column 1, a breakdown and the start at g = 0 draw a
    fresh random direction.  At each size m the reduced problem on Q'HQ is
    solved exactly (equal to the Lanczos tridiagonal solve up to rounding) in
    the eigenbasis that also gives the Ritz pairs, and accepted once

    * the lifted stationarity residual is <= tol (||g|| + 1), and
    * the bottom Ritz pair (theta, y) is converged and certifies approximate
      dual feasibility, mu >= -theta - ||Hy - theta y|| - tol.

    The Ritz safeguard is what makes hard cases (g orthogonal to the bottom
    eigenspace) land on the global solution instead of a subspace-stationary
    point with an equally small residual; a residual test alone cannot tell
    the two apart.  If ``m_max`` is exhausted the iterate with the smallest
    residual is returned with ``converged=False``.  A ``tol`` below
    :data:`MIN_TOL` or not finite is a ``ValueError``.
    """
    g = np.asarray(g, dtype=float)
    r, L2 = _check_inputs(g, r, L2, tol)
    if m_max is None:
        m_max = d
    if not 1 <= m_max <= d:
        raise ValueError("need 1 <= m_max <= d")
    if rng is None:
        rng = np.random.default_rng(0)
    gnorm = _norm(g)

    Q = np.zeros((d, m_max))
    W = np.zeros((d, m_max))  # W[:, j] = H @ Q[:, j]
    B = np.zeros((m_max, m_max))  # Q'HQ, filled bitwise symmetric
    Q[:, 0] = g / gnorm if gnorm > 0.0 else _fresh_direction(rng, Q, 0, d)

    best: TrsSolution | None = None
    theta_hist: list[float] = []
    for m in range(1, m_max + 1):
        j = m - 1
        if j:
            Q[:, j] = _krylov_column(rng, Q, W, j, d)
        wv = np.asarray(hvp(Q[:, j]), dtype=float)
        W[:, j] = wv
        B[:m, j] = Q[:, :m].T @ wv
        B[j, :m] = B[:m, j]

        gt = np.zeros(m)
        gt[0] = gnorm
        Bm = B[:m, :m]
        theta, U = sym_eig(Bm)
        red = _solve_in_eigenbasis(gt, theta, U, r, L2, tol)
        h = Q[:, :m] @ red.h
        Hh = W[:, :m] @ red.h
        resid = _norm(Hh + red.mu * h + g)
        resid_ok = resid <= tol * (gnorm + 1.0)
        # Acceptance below full dimension needs the bottom eigenpair pinned
        # down, or a small residual alone can certify a subspace-stationary
        # point that is not the global solution (the hard case).
        theta_hist.append(float(theta[0]))
        scale = 1.0 + abs(theta[0])
        ritz_res = _norm(W[:, :m] @ U[:, 0] - theta[0] * (Q[:, :m] @ U[:, 0]))
        ritz_ok = ritz_res <= tol * scale
        dual_ok = red.mu + theta[0] >= -(ritz_res + tol * scale)
        theta_stable = (
            len(theta_hist) >= 3 and abs(theta_hist[-1] - theta_hist[-3]) <= tol * scale
        )
        # m >= 4: the probe's chain has two columns
        certified = m >= 4 and ritz_ok and dual_ok and theta_stable
        sol = TrsSolution(
            h=h,
            mu=red.mu,
            lambda_alg=2.0 * red.mu / L2,
            on_boundary=red.on_boundary,
            kkt=KktResidual(resid, red.kkt.min_eig_shifted, red.kkt.complementarity),
            model_decrease=float(g @ h + 0.5 * red.h @ (Bm @ red.h)),
            converged=resid_ok and (m == d or certified),
            krylov_dim=m,
        )
        if best is None or sol.kkt.stationarity < best.kkt.stationarity:
            best = sol
        if sol.converged:
            return sol
    return best
