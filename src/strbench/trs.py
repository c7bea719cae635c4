"""Trust-region subproblem solvers.

Solves ``min_{||h|| <= r} <g, h> + 0.5 <H h, h>`` two ways:

* :func:`solve_trs_exact` -- dense eigendecomposition, then, on the problem
  scaled to the unit ball (``u = h / r``, every entry at most 1), a
  safeguarded Newton iteration on the reciprocal secular equation
  ``1/||u(mu)|| - 1`` (More-Sorensen style), with explicit hard-case
  handling, and a gate on the unit problem's KKT conditions.  From
  ``d = _KRYLOV_MIN_D`` on it first solves in g's Krylov space (one Lanczos
  chain, cf. GLTR, Gould, Lucidi, Roma & Toint 1999) and proves the lifted
  step globally optimal with one Cholesky factorization of ``H + mu I``
  shifted down by a rounding margin; a case that proof cannot cover, such
  as the hard case, takes the eigendecomposition.
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
_MAX_SECULAR_ITERS = 200
# A boundary deficit 1 - ||u|| at or below this is rounding of the unit
# secular root, not room for a bottom-eigenvector pad.  At mu > -lambda_1 the
# pad, about sqrt(2 deficit), adds (mu + lambda_1) times its length to the
# stationarity residual.
_PAD_RTOL = 1e-12
# From this dimension on, solve_trs_exact first solves in g's Krylov space,
# with no d x d eigendecomposition.  scripts/trs_crossover.py times both paths
# per solve on exact_tr subproblems, one BLAS thread: eigen 3.4 ms and Krylov
# 2.7 ms at d = 150, 1.1 and 1.4 ms at d = 100, 0.35 and 1.1 ms at d = 50.
_KRYLOV_MIN_D = 150
# The Krylov step stops growing once the lifted residual beta_m |u_m| is at
# most this times sigma.  On the d = 400 benchmark subproblems its step then
# lies within 3e-15 r of the eigen path's; at 1e-13 it lay within 8e-14 r.
_KRYLOV_RTOL = 1e-15
# A Krylov attempt gives up after this many steps, by which it has cost about
# one d = 400 eigendecomposition (20 ms).  The benchmark's solves take 6 to 18.
_KRYLOV_MAX_M = 64


@dataclass(frozen=True)
class KktResidual:
    """Stationarity norm, lambda_min(H + mu I), and |mu (||h|| - r)|.

    On the Krylov path of :func:`solve_trs_exact` (``krylov_dim`` set) the
    middle field is a lower bound on lambda_min(H + mu I), the margin its
    factorization proved, not the eigenvalue.
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
    """Recompute the three optimality residuals from scratch, with scaled norms."""
    g = np.asarray(g, float)
    H = np.asarray(H, float)
    h, mu = sol.h, sol.mu
    stationarity = _norm(H @ h + mu * h + g)
    min_eig = float(np.linalg.eigvalsh((H + H.T) / 2.0)[0]) + mu
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


def _check_inputs(g, r, L2, tol) -> None:
    # written as ``not <``, so NaN fails; the unit-ball solve needs a finite r
    if not 0.0 < r < math.inf:
        raise ValueError("radius must be positive and finite")
    if not 0.0 < L2 < math.inf:
        raise ValueError("L2 must be positive and finite")
    if not MIN_TOL <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= {MIN_TOL:g}, got {tol!r}")
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite inputs")


def solve_trs_exact(g, H, r: float, L2: float, tol: float = MIN_TOL) -> TrsSolution:
    """Global minimizer of the quadratic model over the ball of radius r.

    Interior Newton step when the Hessian is definite and the step fits;
    otherwise the boundary multiplier is found on the secular equation, and
    (near-)hard cases are resolved by padding along a bottom eigenvector, all
    on the unit ball (see :func:`_solve_in_eigenbasis`).  At ``d >=
    _KRYLOV_MIN_D`` the step is first sought in g's Krylov space with no d x d
    eigendecomposition (see :func:`_krylov_solution`); a step found there
    carries ``krylov_dim``, is proved globally optimal by a factorization of
    ``H + mu I`` and passes the same gate.  Where that path finds none (g = 0,
    hard or semidefinite cases, no convergence) the eigendecomposition
    solves, so its pads, errors and results are those of smaller d.  Raises
    :class:`TrsNumericError` with the best iterate attached if the
    stationarity residual misses ``tol (||g|| + 1)`` (a NaN always misses),
    ``||h|| > r``, or ``mu > 0`` with ``||h|| < r``, each judged relative to r.
    A ``tol`` below :data:`MIN_TOL` or not finite is a ``ValueError``.
    """
    g = np.asarray(g, dtype=float)
    H = np.asarray(H, dtype=float)
    _check_inputs(g, r, L2, tol)
    if g.size >= _KRYLOV_MIN_D:
        H = _symmetric(H)
        sol = _krylov_solution(g, H, r, L2, tol)
        if sol is not None:
            return sol
    w, V = sym_eig(H)
    return _solve_in_eigenbasis(g, w, V, r, L2, tol)


def _solve_in_eigenbasis(g, w, V, r, L2, tol) -> TrsSolution:
    """:func:`solve_trs_exact` for ``H = V diag(w) V'``, eigenvalues ascending.

    Solves for ``u = h / r`` on the unit ball with eigenvalues ``w / sigma``
    and gradient ``g / (r sigma)``, ``sigma = max(|lambda_1|, |lambda_d|,
    max_i |g_i| / r)`` or 1 if that is 0 (the max-norm of g cannot overflow
    where its 2-norm would), and maps back once: ``h = r u``, ``mu = sigma
    mu_hat``.  A scale past the float range makes the unit problem NaN.
    """
    sigma = max(abs(float(w[0])), abs(float(w[-1])), float(np.max(np.abs(g))) / r) or 1.0
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


def _krylov_solution(g, H, r, L2, tol) -> TrsSolution | None:
    """The global minimizer from g's Krylov space, or None where that space
    does not certify one.

    One Lanczos chain from ``g / ||g||``: each new vector is orthogonalized
    twice against the basis, which is stored by rows and grown by doubling,
    and the tridiagonal is kept as two vectors.  At each size m the reduced
    problem on the tridiagonal is solved exactly, on the unit ball of the scale
    ``sigma = max(|theta_1|, |theta_m|, ||g|| / r)`` of its Ritz values, until
    the lifted residual ``beta_m |u_m|`` is at most ``_KRYLOV_RTOL sigma``.
    The lifted step is accepted only if a Cholesky factorization of
    ``H + (mu - tau) I``, ``tau = 1e-12 sigma``, proves ``H + mu I`` positive
    definite, so that the step is the unique global minimizer, and if it
    passes the eigen path's gate (:func:`_gated_solution`).  Its
    ``kkt.min_eig_shifted`` is then ``tau``, a lower bound on
    ``lambda_min(H + mu I)``.  None on g = 0, on a reduced problem that is
    hard or fails, on a failed factorization (a hard or semidefinite case) or
    gate, and after ``_KRYLOV_MAX_M`` steps.
    """
    d = g.size
    gnorm = _norm(g)
    if gnorm == 0.0:
        return None
    m_max = min(d, _KRYLOV_MAX_M)
    Q = np.empty((min(32, m_max), d))
    alpha = np.empty(m_max)
    beta = np.empty(m_max)
    Q[0] = g / gnorm
    for m in range(1, m_max + 1):
        j = m - 1
        v = H @ Q[j]
        B = Q[:m]
        c = B @ v
        v -= B.T @ c
        v -= B.T @ (B @ v)
        alpha[j] = c[j]
        beta[j] = _norm(v)
        if not (math.isfinite(alpha[j]) and math.isfinite(beta[j])):
            return None
        T = np.diag(alpha[:m]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
        try:
            theta, U = np.linalg.eigh(T)
        except np.linalg.LinAlgError:
            return None
        sigma = max(abs(float(theta[0])), abs(float(theta[-1])), gnorm / r) or 1.0
        gt = np.zeros(m)
        gt[0] = gnorm / r / sigma
        theta = theta / sigma
        try:
            # sigma makes the largest of the reduced scales exactly 1, so the
            # reduced solve at r = 1 works on this unit problem unscaled
            red = _solve_in_eigenbasis(gt, theta, U, 1.0, L2, tol)
        except TrsNumericError:
            return None
        if red.mu <= -theta[0]:
            # a hard case of the reduced problem: as lambda_1 <= theta_1,
            # H + mu I is not positive definite, and no factorization certifies it
            return None
        if beta[j] * abs(red.h[-1]) <= _KRYLOV_RTOL * sigma:
            break
        if m == m_max or beta[j] == 0.0:
            return None
        if m == len(Q):
            Q = np.concatenate([Q, np.empty((min(m, m_max - m), d))])
        Q[m] = v / beta[j]
    u = Q[:m].T @ red.h
    mu = red.mu
    tau = 1e-12 * sigma
    shifted = H.copy()
    shifted.flat[:: d + 1] += sigma * mu - tau
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
    _check_inputs(g, r, L2, tol)
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
