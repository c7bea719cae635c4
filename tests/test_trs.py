import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strbench import trs
from strbench.trs import (
    TrsNumericError,
    kkt_residual,
    model_value,
    solve_trs_exact,
    solve_trs_lanczos,
    sym_eig,
)


def oracle_objective(g, H, r):
    """Brute-force reference: eigenbasis reduction, bisection over the
    multiplier in [max(0, -lam_min), max(0, -lam_min) + 10 ||g||/r], plus the
    interior and eigenvector-padded candidates.  Returns the best feasible
    model value."""
    w, V = np.linalg.eigh((H + H.T) / 2.0)
    gt = V.T @ g
    lam1 = w[0]
    mu0 = max(0.0, -lam1)
    gnorm = np.linalg.norm(g)
    cands = []
    shifted = w + mu0
    loose = np.abs(shifted) <= 1e-12 * (1 + abs(lam1))
    if np.sqrt(np.sum(gt[loose] ** 2)) <= 1e-9 * (1.0 + gnorm):
        ht = np.where(loose, 0.0, -gt / np.where(loose, 1.0, shifted))
        n0 = np.linalg.norm(ht)
        if n0 <= r * (1 + 1e-12):
            if mu0 == 0.0:
                cands.append(V @ ht)
            if np.any(loose):
                pad = ht.copy()
                pad[int(np.argmax(loose))] += math.sqrt(max(r * r - n0 * n0, 0.0))
                cands.append(V @ pad)

    def norm_at(mu):
        den = w + mu
        terms = np.where(np.abs(gt) > 0, gt / np.where(den == 0, np.nan, den), 0.0)
        terms = np.nan_to_num(terms, nan=np.inf)
        return np.linalg.norm(terms)

    hi = mu0 + 10.0 * gnorm / r + 1e-9
    lo = mu0 + 1e-300
    if norm_at(lo) >= r:
        for _ in range(400):
            mid = 0.5 * (lo + hi)
            if norm_at(mid) > r:
                lo = mid
            else:
                hi = mid
        mu = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            ht = np.nan_to_num(-gt / (w + mu), nan=0.0)
        cands.append(V @ ht)
    # hypot scales: a candidate past the float range reads inf, not an overflow
    feasible = [h for h in cands if math.hypot(*h) <= r * (1 + 1e-8)]
    assert feasible, "oracle produced no feasible candidate"
    return min(model_value(g, H, h) for h in feasible)


def random_instance(trial, rng, d=None):
    """Cycle through definite / indefinite / hard-case / flat spectra, at
    d = 2, 5, 20 in turn unless ``d`` is given."""
    if d is None:
        d = [2, 5, 20][trial % 3]
    kind = trial % 4
    V = np.linalg.qr(rng.standard_normal((d, d)))[0]
    if kind == 0:
        w = rng.uniform(0.1, 3.0, d)
    elif kind == 1:
        w = rng.uniform(-2.0, 2.0, d)
    elif kind == 2:
        w = np.sort(rng.uniform(-2.0, 2.0, d))
        w[0] = w.min() - 0.5
    else:
        w = rng.uniform(-0.5, 0.5, d)
    H = V @ np.diag(w) @ V.T
    H = (H + H.T) / 2.0
    g = rng.standard_normal(d)
    r = float(rng.uniform(0.1, 3.0))
    if kind == 2:
        # gradient orthogonal to the bottom eigenvector, shrunk so the
        # orthogonal-complement step is interior: a genuine hard case
        g = g - (g @ V[:, 0]) * V[:, 0]
        gt = V.T @ g
        wpos = w - w[0]
        base = np.linalg.norm(
            np.where(wpos > 1e-12, gt / np.where(wpos > 1e-12, wpos, 1.0), 0.0)
        )
        if base > 0:
            g *= 0.5 * r / base
    return g, H, r


# -- sym_eig -------------------------------------------------------------------


def test_sym_eig_identity():
    w, V = sym_eig(np.eye(3))
    assert np.allclose(w, 1.0)
    assert np.allclose(V.T @ V, np.eye(3), atol=1e-12)


def test_sym_eig_diag_sorted():
    w, _ = sym_eig(np.diag([3.0, -1.0]))
    assert np.allclose(w, [-1.0, 3.0])


def test_sym_eig_reconstruction(rng):
    A = rng.standard_normal((10, 10))
    A = (A + A.T) / 2.0
    w, V = sym_eig(A)
    assert np.linalg.norm(A @ V - V * w) <= 1e-9 * (1.0 + np.linalg.norm(A))


def test_sym_eig_rejects_asymmetric():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        sym_eig(A)
    with pytest.raises(ValueError):
        trs._sym_eigvals(A)


# -- regression against the raw-unit solver ------------------------------------
#
# The reference below is the solver before the unit-ball scaling: the secular
# iteration, packaging and gate in the caller's units, with every input to the
# eigensolver symmetrized and ``np.linalg.norm`` for every norm.


def _ref_sym_eig(A, sym_tol=1e-12):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite matrix")
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if float(np.max(np.abs(A - A.T), initial=0.0)) > sym_tol * (1.0 + scale):
        raise ValueError("matrix is not symmetric within tolerance")
    try:
        w, V = np.linalg.eigh((A + A.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise TrsNumericError(f"eigendecomposition failed: {exc}") from exc
    return w, V


@np.errstate(divide="ignore", invalid="ignore")
def _ref_secular_root(e, c, r, delta_hi, singular_at_lo):
    nonzero = c != 0.0
    terms = np.zeros_like(c)

    def power_sum(t, power):
        np.divide(c, t**power, out=terms, where=nonzero)
        return float(np.sum(terms))

    def norm_at(delta):
        return math.sqrt(power_sum(e + delta, 2))

    lo, hi = 0.0, delta_hi
    if singular_at_lo:
        step = max(1e-18 * delta_hi, 5e-324)
        for _ in range(400):
            if norm_at(step) > r:
                lo = step
                break
            hi = step
            step *= 1e-2
        else:
            lo = step
    for _ in range(200):
        if norm_at(hi) <= r or not math.isfinite(hi):
            break
        hi = 2.0 * hi + 1.0
    delta = 0.5 * (lo + hi)
    best_delta, best_gap = delta, float("inf")
    for _ in range(200):
        t = e + delta
        n = math.sqrt(power_sum(t, 2))
        gap = abs(n - r)
        if gap < best_gap:
            best_delta, best_gap = delta, gap
        if gap <= 1e-13 * r:
            return delta, True
        phi = 1.0 / n - 1.0 / r if n > 0 else 1.0 / r
        if phi < 0.0:
            lo = delta
        else:
            hi = delta
        try:
            n3 = n**3
        except OverflowError:
            n3 = 0.0
        if n3 > 0:
            dphi = power_sum(t, 3) / n3
        elif n > 0:
            frac = np.sqrt(c) / t / n
            dphi = float(np.sum(np.where(nonzero, frac * frac / t, 0.0))) / n
        else:
            dphi = 0.0
        delta_new = delta - phi / dphi if dphi > 0 else 0.5 * (lo + hi)
        if not (lo < delta_new < hi):
            delta_new = 0.5 * (lo + hi)
        if delta_new == delta:
            break
        delta = delta_new
    return best_delta, best_gap <= 1e-9 * r


def _ref_package(g, H_mul, h, mu, r, L2, min_eig_shifted):
    hnorm = float(np.linalg.norm(h))
    Hh = H_mul(h)
    return trs.TrsSolution(
        h=h,
        mu=mu,
        lambda_alg=2.0 * mu / L2,
        on_boundary=hnorm >= r * (1.0 - 1e-8),
        kkt=trs.KktResidual(float(np.linalg.norm(Hh + mu * h + g)), min_eig_shifted,
                            abs(mu * (hnorm - r))),
        model_decrease=float(g @ h + 0.5 * h @ Hh),
    )


def _ref_solve_in_eigenbasis(g, w, V, r, L2, tol):
    def pad(ht, j, length):
        # along V[:, j], with the sign that makes its largest-magnitude entry positive
        ht[j] += length if V[np.argmax(np.abs(V[:, j])), j] > 0 else -length

    gt = V.T @ g
    c = gt * gt
    gnorm = float(np.linalg.norm(g))
    lam1 = float(w[0])
    mu_lo = max(0.0, -lam1)

    def H_mul(v):
        return V @ (w * (V.T @ v))

    def gated(sol):
        if not sol.kkt.stationarity <= max(tol, 1e-8) * (gnorm + 1.0):
            raise TrsNumericError("stationarity residual above tolerance", best=sol)
        if not float(np.linalg.norm(sol.h)) <= r * (1.0 + 1e-8):
            raise TrsNumericError("step outside the trust region", best=sol)
        return sol

    shifted = w + mu_lo

    def boundary_without_bottom(delta, bottom):
        denom = np.where(bottom, 1.0, shifted + delta)
        ht = np.where(bottom, 0.0, -gt / denom)
        n0 = float(np.linalg.norm(ht))
        if n0 > r:
            ht *= r / n0
        elif n0 < r * (1.0 - 1e-12):
            pad(ht, int(np.argmax(bottom)), math.sqrt(r * r - n0 * n0))
        return ht

    gap_tol = 1e-12 * (1.0 + float(np.max(np.abs(w))))
    bottom = (w - lam1) <= gap_tol
    p_bottom = math.sqrt(float(np.sum(c[bottom])))

    if lam1 > 0:
        ht = -gt / w
        if float(np.linalg.norm(ht)) <= r:
            return gated(_ref_package(g, H_mul, V @ ht, 0.0, r, L2, lam1))
        delta, _ = _ref_secular_root(shifted, c, r, gnorm / r, singular_at_lo=False)
        ht = -gt / (shifted + delta)
        return gated(_ref_package(g, H_mul, V @ ht, delta, r, L2, lam1 + delta))

    if p_bottom <= 1e-11 * max(gnorm, 1e-300) or gnorm == 0.0:
        ct = np.where(bottom, 0.0, c)
        ht = np.where(bottom, 0.0, -gt / np.where(bottom, 1.0, shifted))
        n0 = float(np.linalg.norm(ht))
        if n0 <= r:
            if mu_lo == 0.0:
                return gated(_ref_package(g, H_mul, V @ ht, 0.0, r, L2, lam1))
            pad(ht, int(np.argmax(bottom)), math.sqrt(max(r * r - n0 * n0, 0.0)))
            return gated(_ref_package(g, H_mul, V @ ht, mu_lo, r, L2, 0.0))
        delta, _ = _ref_secular_root(shifted, ct, r, gnorm / r, singular_at_lo=False)
        ht = boundary_without_bottom(delta, bottom)
        return gated(_ref_package(g, H_mul, V @ ht, mu_lo + delta, r, L2, lam1 + mu_lo + delta))

    delta, resolved = _ref_secular_root(shifted, c, r, gnorm / r, singular_at_lo=True)
    if not resolved:
        ht = boundary_without_bottom(delta, bottom)
    else:
        ht = -gt / (shifted + delta)
    return gated(_ref_package(g, H_mul, V @ ht, mu_lo + delta, r, L2, lam1 + mu_lo + delta))


def _reference_outcome(g, H, r):
    w, V = _ref_sym_eig(H)
    try:
        return _ref_solve_in_eigenbasis(g, w, V, r, 0.7, 1e-8)
    except TrsNumericError as exc:
        return exc


def _outcome(g, H, r):
    try:
        return solve_trs_exact(g, H, r, 0.7)
    except TrsNumericError as exc:
        return exc


def _reference_instances():
    """Interior, boundary, hard, near-hard and tiny-radius subproblems."""
    rng = np.random.default_rng(20)
    for trial in range(560):
        kind = trial % 7
        d = [1, 2, 5, 20][trial % 4]
        V = np.linalg.qr(rng.standard_normal((d, d)))[0]
        w = np.sort(rng.uniform(-2.0, 2.0, d))
        g = rng.standard_normal(d)
        r = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
        if kind == 0:  # definite; interior or boundary by the radius
            w = np.abs(w) + 0.1
            r *= 10.0
        elif kind in (2, 3):  # hard (g orthogonal to the bottom) and near-hard
            w[0] = min(w[0], -0.1)
            g -= (g @ V[:, 0]) * V[:, 0]
            if kind == 3:
                g += 10.0 ** rng.uniform(-14, -6) * V[:, 0]
        elif kind == 4:  # tiny radius, where ||h||^3 underflows in the caller's units
            r = 10.0 ** rng.uniform(-152, -110)
        elif kind == 5:  # diagonal: exact zeros in the eigencoordinates of g
            V = np.eye(d)
            g[rng.random(d) < 0.5] = 0.0
        H = V @ np.diag(w) @ V.T
        yield g, (H + H.T) / 2.0, r


def test_exact_matches_reference_solver():
    # the unit-ball solve moves results only in the last bits
    outcomes = set()
    for g, H, r in _reference_instances():
        ref = _reference_outcome(g, H, r)
        got = _outcome(g, H, r)
        assert type(got) is type(ref)
        if isinstance(got, TrsNumericError):
            outcomes.add("error")
            continue
        assert np.linalg.norm((got.h - ref.h) / r) <= 1e-12
        assert abs(got.mu - ref.mu) <= 1e-12 * max(1.0, ref.mu)
        assert got.on_boundary == ref.on_boundary
        outcomes.add("boundary" if got.on_boundary else "interior")
    assert {"boundary", "interior"} <= outcomes


# -- bitwise regression of the eigen path ---------------------------------------
#
# The eigen path's secular solve and case logic before the wrapper overhead was
# cut (one errstate per solve, method reductions, a plain division where g has
# no zero coordinate), kept test only.  It is verbatim but for two changes made
# on purpose.  ``fits`` records the one branch whose result changed, and whether
# it was the hard case: a step that fits at mu_lo > 0 is now padded as it is,
# where this copy first dropped g's bottom coordinates.  And the secular solve
# has the stop rule of the shared Newton: it runs past the gap _SECULAR_RTOL to
# _SECULAR_ROUNDING or a stall, where it used to stop at the first gap within
# _SECULAR_RTOL.


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _previous_secular_root(e, gt, delta_hi):
    nonzero = gt != 0.0
    u = np.zeros_like(gt)

    def norm_at(t):
        np.divide(gt, t, out=u, where=nonzero)
        return trs._norm(u)

    lo, hi = 0.0, delta_hi
    if norm_at(e + hi) > 1.0:
        hi = 2.0 * hi + 1.0
    delta = 0.5 * (lo + hi)
    best_delta, best_gap = delta, math.inf
    for _ in range(trs._MAX_SECULAR_ITERS):
        t = e + delta
        n = norm_at(t)
        gap = abs(n - 1.0)
        if gap < best_gap:
            best_delta, best_gap = delta, gap
            if gap <= trs._SECULAR_ROUNDING:
                break
        elif best_gap <= trs._SECULAR_RTOL:
            break
        if n > 1.0:
            lo = delta
        else:
            hi = delta
        v = u / n
        delta_new = delta + (n - 1.0) / np.sum(v * v / t)
        if not (lo < delta_new < hi):
            delta_new = 0.5 * (lo + hi)
        if delta_new == delta:
            break
        delta = float(delta_new)
    return best_delta, best_gap <= 1e-9


def _previous_solve_in_eigenbasis(g, w, V, r, L2, fits):
    gmax = float(np.max(np.abs(g)))
    sigma = max(abs(float(w[0])), abs(float(w[-1])), gmax / r) or 1.0
    if sigma == math.inf:
        raise TrsNumericError(f"unit-ball scale max_i |g_i| / r = {gmax:.3e} / {r:.3e} "
                              "is past the float range")
    w = w / sigma
    g = g / r / sigma
    gt = V.T @ g
    gnorm = trs._norm(g)
    lam1 = float(w[0])
    mu_lo = max(0.0, -lam1)

    def solution(ut, mu):
        u = V @ ut
        return trs._gated_solution(u, V @ (w * (V.T @ u)), mu, g, gnorm, sigma, r, L2,
                                   sigma * (lam1 + mu))

    shifted = w + mu_lo
    gap_tol = 1e-12 * (1.0 + float(np.max(np.abs(w))))
    bottom = (w - lam1) <= gap_tol

    def boundary_without_bottom(delta):
        ut = np.where(bottom, 0.0, -gt / np.where(bottom, 1.0, shifted + delta))
        n0 = trs._norm(ut)
        if n0 > 1.0:
            ut /= n0
        elif n0 < 1.0 - trs._PAD_RTOL:
            v = V[:, 0]
            ut[0] += math.copysign(math.sqrt(1.0 - n0 * n0), v[np.argmax(np.abs(v))])
        return ut

    hard = lam1 <= 0.0 and trs._norm(gt[bottom]) <= trs._HARD_CASE_RTOL * gnorm
    gs = np.where(bottom, 0.0, gt) if hard else gt
    if shifted[0] > 0.0 or gs[0] == 0.0:
        with np.errstate(divide="ignore", over="ignore"):
            ut = np.divide(-gs, shifted, out=np.zeros_like(gs), where=gs != 0.0)
        if trs._norm(ut) <= 1.0:
            if mu_lo == 0.0:
                return solution(ut, 0.0)
            fits.append(hard)
            return solution(boundary_without_bottom(0.0), mu_lo)
    delta, resolved = _previous_secular_root(shifted, gs, gnorm)
    if hard or not (resolved or lam1 > 0.0):
        return solution(boundary_without_bottom(delta), mu_lo + delta)
    return solution(-gt / (shifted + delta), mu_lo + delta)


def _eigen_path_instances(count, seed):
    """``(g, w, V, r)`` with eigenvalues ascending over d = 2..37: generic,
    clustered, exactly singular, exactly tied and definite spectra, V a random
    rotation or a signed permutation (then g's eigencoordinates are exact),
    and g's bottom coordinates zeroed in about half of them.  A tenth are
    pinned at the pole: a clustered bottom, g 1e-17 of the spectrum's scale
    and 0 on the exact bottom, so the step at mu_lo fits with g's other
    bottom coordinates in it."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        d = int(rng.integers(2, 38))
        m = int(rng.integers(1, d + 1))  # the size of the bottom cluster
        w = np.sort(rng.uniform(-2.0, 2.0, d))
        kind = trial % 5
        if kind == 1:  # clustered: the bottom m within 1e-16..1e-9 of each other
            w[:m] = w[0] + np.sort(10.0 ** rng.uniform(-16, -9, m)) * abs(w[0])
        elif kind == 2:  # exactly singular: m zeros at the bottom
            w = np.sort(np.abs(w))
            w[:m] = 0.0
        elif kind == 3:  # exactly tied bottom
            w[:m] = w[0]
        elif kind == 4:  # definite
            w = np.sort(np.abs(w)) + 10.0 ** rng.uniform(-6, 0)
        w *= 10.0 ** rng.uniform(-3, 3)
        if trial % 2:
            V = np.linalg.qr(rng.standard_normal((d, d)))[0]
        else:
            V = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
        gt = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
        if kind == 1 and not trial % 2:
            gt[0] = 0.0
            gt *= 1e-17 * abs(w[0]) / np.abs(gt).max()
        elif rng.random() < 0.5:
            gt[:m] = 0.0
        r = 10.0 ** rng.uniform(-3, 2)
        yield V @ gt, w, V, r


def _bits(sol):
    return (sol.h.tobytes(), sol.mu, sol.lambda_alg, sol.on_boundary, sol.kkt,
            sol.model_decrease, sol.converged, sol.krylov_dim)


def test_eigen_path_is_bitwise_the_previous_solve():
    # every third instance goes through solve_trs_exact and its input checks
    compared, padded_fits = 0, 0
    for i, (g, w, V, r) in enumerate(_eigen_path_instances(2700, 28)):
        if i % 3 == 0:
            H = V @ np.diag(w) @ V.T
            H = (H + H.T) / 2.0
            w, V = np.linalg.eigh(H)
        fits = []
        outcomes = []
        for solve in (lambda: _previous_solve_in_eigenbasis(g, w, V, r, 0.7, fits),
                      lambda: solve_trs_exact(g, H, r, 0.7) if i % 3 == 0
                      else trs._solve_in_eigenbasis(g, w, V, r, 0.7)):
            try:
                outcomes.append(solve())
            except TrsNumericError as exc:
                outcomes.append(exc)
        ref, got = outcomes
        if fits and fits[0]:  # the fixed branch, hard case: the same step up to a zero's sign
            assert np.array_equal(got.h, ref.h) and repr(_bits(got)[1:]) == repr(_bits(ref)[1:])
            continue
        if fits:  # the fixed branch: the same multiplier, and stationary up to rounding
            padded_fits += 1
            assert got.mu == ref.mu and got.on_boundary and ref.on_boundary
            assert got.kkt.stationarity <= 1e-15 * (1.0 + ref.mu) * r
            continue
        compared += 1
        assert type(got) is type(ref)
        if isinstance(ref, TrsNumericError):
            assert str(got) == str(ref) and (ref.best is None) == (got.best is None)
            ref, got = ref.best, got.best
            if ref is None:
                continue
        # repr tells -0.0 from 0.0, and a NaN equals itself
        assert repr(_bits(got)) == repr(_bits(ref))
    assert compared >= 2000 and padded_fits >= 20


def test_sym_eig_bitwise_on_exactly_symmetric_input(rng):
    for d in (1, 2, 7, 40):
        A = rng.standard_normal((d, d))
        A = (A + A.T) / 2.0
        w, V = sym_eig(A)
        rw, rV = _ref_sym_eig(A)
        assert w.tobytes() == rw.tobytes() and V.tobytes() == rV.tobytes()


def test_sym_eig_symmetrizes_within_tolerance(rng):
    A = rng.standard_normal((6, 6))
    A = (A + A.T) / 2.0
    A[0, 3] += 1e-14  # inside the tolerance, so averaged with A[3, 0]
    w, V = sym_eig(A)
    rw, rV = _ref_sym_eig(A)
    assert w.tobytes() == rw.tobytes() and V.tobytes() == rV.tobytes()
    assert trs._sym_eigvals(A).tobytes() == np.linalg.eigvalsh((A + A.T) / 2.0).tobytes()
    A[0, 3] += 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(A)
    with pytest.raises(ValueError, match="not symmetric"):
        trs._sym_eigvals(A)


def test_sym_eig_signed_zero_pair_is_symmetrized():
    # 0.0 == -0.0, but (A + A')/2 turns the pair into two 0.0: the fast path
    # compares bits, so such an input takes the symmetrizing path
    A = np.array([[1.0, 0.0, 0.5], [-0.0, 2.0, 0.0], [0.5, -0.0, 3.0]])
    w, V = sym_eig(A)
    rw, rV = _ref_sym_eig(A)
    assert w.tobytes() == rw.tobytes() and V.tobytes() == rV.tobytes()


def test_sym_eigvals_checks_and_agrees_with_sym_eig(rng):
    A = rng.standard_normal((30, 30))
    A = (A + A.T) / 2.0
    assert np.max(np.abs(trs._sym_eigvals(A) - sym_eig(A)[0])) <= 1e-12 * (1.0 + np.abs(A).max())
    for bad in (np.ones((2, 3)), np.array([[np.nan, 0.0], [0.0, 1.0]])):
        with pytest.raises(ValueError):
            trs._sym_eigvals(bad)


# -- exact solver --------------------------------------------------------------


def test_exact_interior_newton_step():
    sol = solve_trs_exact(np.array([1.0, 0.0]), np.diag([2.0, 2.0]), 10.0, 1.0)
    assert np.allclose(sol.h, [-0.5, 0.0], atol=1e-14)
    assert sol.mu == 0.0
    assert not sol.on_boundary
    assert sol.kkt.complementarity == 0.0


def test_exact_hard_case_by_symmetry():
    sol = solve_trs_exact(np.zeros(2), np.diag([-1.0, 1.0]), 1.0, 1.0)
    assert abs(abs(sol.h[0]) - 1.0) <= 1e-12
    assert abs(sol.h[1]) <= 1e-12
    assert sol.mu == pytest.approx(1.0, abs=1e-12)
    assert sol.model_decrease == pytest.approx(-0.5, abs=1e-12)
    assert sol.on_boundary


def test_exact_rejects_bad_radius():
    with pytest.raises(ValueError):
        solve_trs_exact(np.ones(2), np.eye(2), 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_trs_exact(np.array([np.nan, 0.0]), np.eye(2), 1.0, 1.0)


@pytest.mark.parametrize("r", [math.nan, math.inf])
@pytest.mark.parametrize("solver", ["exact", "lanczos"])
def test_solvers_reject_non_finite_radius_or_L2(solver, r):
    # ``r <= 0`` and ``L2 <= 0`` are false for NaN; an infinite radius has no unit ball
    g, H = np.array([1.0, 2.0]), np.diag([1.0, -1.0])

    def solve(r, L2):
        if solver == "exact":
            return solve_trs_exact(g, H, r, L2)
        return solve_trs_lanczos(g, lambda v: H @ v, 2, r, L2)

    with pytest.raises(ValueError, match="radius"):
        solve(r, 1.0)
    with pytest.raises(ValueError, match="L2"):
        solve(1.0, r)


@pytest.mark.parametrize("tol", [1e-10, 0.0, math.nan])
@pytest.mark.parametrize("solver", ["exact", "lanczos"])
def test_solvers_reject_tol_below_the_gate_floor(solver, tol):
    # the gate's tolerance is the one constant trs.GATE_TOL: a tol below it,
    # which would refuse solves that are exact up to rounding, is no argument
    g, H = np.array([1.0, 2.0]), np.diag([1.0, -1.0])
    with pytest.raises(TypeError, match="tol"):
        if solver == "exact":
            solve_trs_exact(g, H, 1.0, 1.0, tol=tol)
        else:
            solve_trs_lanczos(g, lambda v: H @ v, 2, 1.0, 1.0, tol=tol)


@pytest.mark.parametrize("tol", [math.inf, -math.inf])
@pytest.mark.parametrize("solver", ["exact", "lanczos"])
def test_solvers_reject_a_non_finite_tol(solver, tol):
    # tol = inf would turn the KKT gate off; the solvers take no tol
    g, H = np.array([1.0, 2.0]), np.diag([1.0, -1.0])
    with pytest.raises(TypeError, match="tol"):
        if solver == "exact":
            solve_trs_exact(g, H, 1.0, 1.0, tol=tol)
        else:
            solve_trs_lanczos(g, lambda v: H @ v, 2, 1.0, 1.0, tol=tol)


def test_sym_eig_takes_only_the_matrix():
    with pytest.raises(TypeError):
        sym_eig(np.eye(2), 1e-3)


def test_hard_case_pad_sign_follows_the_matrix_not_the_eigensolver():
    # The pad runs along the bottom eigenvector, whose sign LAPACK picks.  Its
    # largest-magnitude entry is made positive, so for a simple bottom
    # eigenvalue the step depends only on H.
    g, w = np.array([0.0, 1.0, 1.0]), np.array([-1.0, 1.0, 2.0])
    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    for V in (np.eye(3), Q):
        flipped = V * np.array([-1.0, 1.0, 1.0])
        steps = [trs._solve_in_eigenbasis(V @ g, w, B, 1.0, 1.0).h
                 for B in (V, flipped)]
        assert np.array_equal(steps[0], steps[1])
        pad = V[:, 0] * (V[:, 0] @ steps[0])  # the step's bottom component
        assert pad[np.argmax(np.abs(pad))] > 0
        assert _scaled(steps[0], 1.0) == pytest.approx(1.0, abs=1e-12)


def _scaled(h, r):
    """``||h|| / r`` without squaring ``h`` at the caller's scale."""
    return float(np.linalg.norm(h / r))


@pytest.mark.parametrize("w", [(1.0, -1.0), (1.0, 2.0)])
@pytest.mark.parametrize("r", [1e-110, 1e-120, 1e-152, 1e-160, 1e-300])
def test_exact_tiny_radius_reaches_boundary(w, r):
    # ||h||^2 underflows below r ~ 1e-154; the solve works on u = h / r
    sol = solve_trs_exact(np.array([1.0, 2.0]), np.diag(w), r, 1.0)
    assert _scaled(sol.h, r) == pytest.approx(1.0, rel=1e-12)
    assert sol.on_boundary


@pytest.mark.parametrize("w", [(1e10, 2e10), (-1e10, 2e10)])
def test_exact_huge_step_norm_reaches_boundary(w):
    # ||h||^3 overflows a float above ||h|| ~ 5.6e102; the unit-ball solve
    # never forms it
    g, H, r = np.array([1e120, 2e120]), np.diag(w), 1e105
    sol = solve_trs_exact(g, H, r, 1.0)
    assert np.linalg.norm(sol.h) == pytest.approx(r, rel=1e-12)
    assert sol.on_boundary
    res = kkt_residual(g, H, r, sol)
    assert res.stationarity <= 1e-8 * np.linalg.norm(g)
    assert res.min_eig_shifted >= 0.0


def test_exact_unresolvable_huge_scale_raises_documented_error():
    # the root sits 1e-171 relative to mu_lo = 1e150 from the pole, far below
    # float resolution: the documented TrsNumericError, not an OverflowError
    with pytest.raises(TrsNumericError):
        solve_trs_exact(np.array([1e100, 1e100]), np.diag([-1e150, 1e150]), 1e121, 1.0)


@pytest.mark.parametrize("H", [np.eye(2), np.diag([-1.0, 2.0])])
def test_exact_huge_gradient_reaches_boundary(H):
    # g^2 overflows, g / (r sigma) does not
    g = np.array([1e160, 1e160])
    sol = solve_trs_exact(g, H, 1.0, 1.0)
    assert sol.on_boundary
    assert np.allclose(sol.h, -math.sqrt(0.5), rtol=1e-12, atol=0.0)
    assert sol.mu == pytest.approx(math.sqrt(2.0) * 1e160, rel=1e-12)
    assert math.isfinite(sol.kkt.stationarity)


@pytest.mark.parametrize("H", [np.eye(2), np.diag([-1.0, 2.0])])
def test_exact_nan_residual_raises(monkeypatch, H):
    # a NaN multiplier makes the step and its residual NaN; a NaN never passes
    # the gate
    monkeypatch.setattr(trs, "_secular_root", _bad_root(math.nan))
    with pytest.raises(TrsNumericError, match="stationarity residual nan") as info:
        solve_trs_exact(np.array([1e160, 1e160]), H, 1.0, 1.0)
    assert math.isnan(info.value.best.kkt.stationarity)


@pytest.mark.parametrize("d", [2, 10, 70])
@pytest.mark.parametrize("radius", [float, np.float64])
def test_exact_scale_past_the_float_range_is_named(d, radius):
    # max |g_i| / r is past the float range (about 1e381 here): the unit
    # problem's scale and the multiplier have no float, so the solve ends in a
    # TrsNumericError that names the scale, on both paths and for either type
    # of radius, with no numpy overflow warning (pytest makes one an error)
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d))
    g = rng.standard_normal(d)
    g *= 1.7e192 / np.linalg.norm(g)
    with pytest.raises(TrsNumericError, match=r"unit-ball scale .* past the float range"):
        solve_trs_exact(g, (A + A.T) / 2.0, radius(3.5e-190), 1.0)


@pytest.mark.parametrize("d", [10, 70])
def test_exact_float64_radius_is_the_float_radius(d):
    # H near 1e300 and r = 1e10 put the caller-unit products of the gate past
    # the float range; an np.float64 radius gives, with no overflow warning,
    # what a float gives, bit for bit
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d))
    H, g = (A + A.T) / 2.0 * 1e300, rng.standard_normal(d)
    outcomes = []
    for r in (1e10, np.float64(1e10), 0.5, np.float64(0.5)):
        try:
            outcomes.append(_fields(solve_trs_exact(g, H, r, np.float64(0.7))))
        except TrsNumericError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1] and outcomes[2] == outcomes[3]


def _bad_root(delta):
    """A stand-in for ``trs._secular_root`` that returns ``delta`` as resolved."""
    return lambda *args, **kwargs: (delta, True)


def test_exact_rejects_infeasible_step(monkeypatch):
    # a secular root short of the true one leaves the ball with a small
    # stationarity residual; it must not pass as a solution
    monkeypatch.setattr(trs, "_secular_root", _bad_root(0.0))
    with pytest.raises(TrsNumericError, match="outside the trust region") as info:
        solve_trs_exact(np.array([1.0, 2.0]), np.diag([1.0, 2.0]), 0.1, 1.0)
    assert np.linalg.norm(info.value.best.h) > 0.1


def test_exact_rejects_positive_multiplier_inside_the_ball(monkeypatch):
    # a secular root past the true one gives a stationary step inside the ball
    # with mu > 0, which breaks complementarity
    monkeypatch.setattr(trs, "_secular_root", _bad_root(1e6))
    with pytest.raises(TrsNumericError, match="inside the trust region") as info:
        solve_trs_exact(np.array([1.0, 2.0]), np.diag([1.0, 2.0]), 0.1, 1.0)
    assert info.value.best.mu > 0.0
    assert not info.value.best.on_boundary


def _kkt_failure(g, lam, V, r, sol):
    """First scale-free KKT condition ``sol`` breaks, or None.

    Works on ``u = h / r`` and the unit problem ``(H / sigma, g / (r sigma))``
    with ``sigma = max(|lambda|_max, max_i |g_i| / r)``, and takes norms with
    ``math.hypot``, so no check squares a value at the caller's scale.  The
    step and the multiplier must be finite; ``lambda_alg = 2 mu / L2`` and the
    model decrease may pass the float range with a finite multiplier.
    """
    if not (np.all(np.isfinite(sol.h)) and math.isfinite(sol.mu)):
        return "non-finite"
    sigma = max(float(np.max(np.abs(lam))), float(np.max(np.abs(g))) / r) or 1.0
    u = sol.h / r
    unorm = math.hypot(*u)
    g_hat = g / r / sigma
    resid = V @ ((lam / sigma) * (V.T @ u)) + (sol.mu / sigma) * u + g_hat
    if not unorm <= 1.0 + 1e-8:
        return "infeasible"
    if not math.hypot(*resid) <= 1e-8 * (math.hypot(*g_hat) + 1.0):
        return "stationarity"
    if not float(np.min(lam)) / sigma + sol.mu / sigma >= -1e-8:
        return "dual feasibility"
    if sol.mu > 0 and not abs(unorm - 1.0) <= 1e-8:
        return "complementarity"
    return None


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_extreme_scale_sweep(seed):
    # eigenvalues, g and r each at a random scale in 1e+-200: every returned
    # solution meets the KKT conditions on the unit problem, and every other
    # instance ends in the documented TrsNumericError, with no numpy warning
    rng = np.random.default_rng(seed)
    returned = 0
    for _ in range(1500):
        d = int(rng.integers(2, 8))
        V = np.linalg.qr(rng.standard_normal((d, d)))[0]
        lam = rng.standard_normal(d) * 10.0 ** rng.uniform(-200, 200)
        g = rng.standard_normal(d) * 10.0 ** rng.uniform(-200, 200)
        r = 10.0 ** rng.uniform(-200, 200)
        H = V @ np.diag(lam) @ V.T
        try:
            sol = solve_trs_exact(g, (H + H.T) / 2.0, r, 1.0)
        except TrsNumericError:
            continue
        returned += 1
        assert _kkt_failure(g, lam, V, r, sol) is None
    assert returned >= 900


def test_exact_scale_equivariance():
    # solve(alpha g, (alpha / beta) H, beta r) = (beta h, (alpha / beta) mu)
    rng = np.random.default_rng(31)
    scales = (1e-150, 1e-50, 1.0, 1e50, 1e150)
    for trial in range(40):
        d = (2, 5, 20)[trial % 3]
        V = np.linalg.qr(rng.standard_normal((d, d)))[0]
        w = rng.uniform(0.1, 3.0, d) if trial % 2 == 0 else rng.uniform(-2.0, 2.0, d)
        H = V @ np.diag(w) @ V.T
        H = (H + H.T) / 2.0
        g = rng.standard_normal(d)
        r = float(rng.uniform(0.1, 3.0))
        base = solve_trs_exact(g, H, r, 1.0)
        for alpha in scales:
            for beta in scales:
                sol = solve_trs_exact(alpha * g, (alpha / beta) * H, beta * r, 1.0)
                assert np.linalg.norm(sol.h / beta - base.h) <= 1e-12 * np.linalg.norm(base.h)
                assert abs(sol.mu / (alpha / beta) - base.mu) <= 1e-12 * base.mu
                assert sol.on_boundary == base.on_boundary


def test_exact_hard_case_on_the_boundary():
    # g orthogonal to the bottom eigenvector of an indefinite H, with the
    # orthogonal-complement step too long for the ball: the step lies on the
    # boundary with no bottom component, mu above -lambda_1
    rng = np.random.default_rng(11)
    for trial in range(160):
        d = [2, 5, 20, 60][trial % 4]
        V = np.linalg.qr(rng.standard_normal((d, d)))[0]
        w = np.sort(rng.uniform(-2.0, 2.0, d))
        w[0] = min(w[0], -0.1)
        H = V @ np.diag(w) @ V.T
        H = (H + H.T) / 2.0
        g = rng.standard_normal(d)
        g -= (g @ V[:, 0]) * V[:, 0]
        r = math.exp(rng.uniform(math.log(1e-8), math.log(10.0)))
        sol = solve_trs_exact(g, H, r, 1.0)
        res = kkt_residual(g, H, r, sol)
        assert res.stationarity <= 1e-8 * (np.linalg.norm(g) + 1.0)
        assert res.min_eig_shifted >= -1e-8
        assert res.complementarity <= 1e-8
        assert np.linalg.norm(sol.h) <= r * (1.0 + 1e-10)


def test_exact_singular_psd_takes_the_fitting_pseudo_newton_step():
    # lambda_1 = 0 with g orthogonal to its eigenvector: the minimum-norm
    # stationary step fits, so it is the solution, at mu = 0, inside the ball
    sol = solve_trs_exact(np.array([0.0, 0.1]), np.diag([0.0, 1.0]), 1.0, 1.0)
    assert sol.h.tolist() == [0.0, -0.1]
    assert sol.mu == 0.0
    assert not sol.on_boundary


def test_exact_root_pinned_at_the_pole_is_padded(monkeypatch):
    # g's bottom coordinates are 0 on the exact bottom and 1e-14 on a second
    # eigenvalue 1e-13 above it: no multiplier above -lambda_1 puts the step on
    # the boundary, so the step at mu = -lambda_1 fits, no secular solve runs,
    # and that step, -0.1 along the second eigenvector, is padded along the
    # bottom eigenvector; it is stationary up to rounding, where the step
    # with g's bottom coordinates dropped, (1, 0, 0), misses by 1e-14
    roots = []
    secular_root = trs._secular_root

    def recorded(*args, **kwargs):
        roots.append(secular_root(*args, **kwargs))
        return roots[-1]

    monkeypatch.setattr(trs, "_secular_root", recorded)
    sol = solve_trs_exact(np.array([0.0, 1e-14, 0.0]), np.diag([-1.0, -1.0 + 1e-13, 1.0]),
                          1.0, 1.0)
    assert roots == []
    h1 = -1e-14 / ((-1.0 + 1e-13) + 1.0)  # -0.09997, from the rounded second eigenvalue
    assert sol.h == pytest.approx([math.sqrt(1.0 - h1 * h1), h1, 0.0], rel=1e-15, abs=0.0)
    assert sol.mu == 1.0
    assert sol.on_boundary
    assert sol.kkt.stationarity <= 1e-16  # the rounding of H h and mu h, each of size 0.1


def test_exact_psd_step_that_fits_short_of_the_pole_is_interior():
    # the same g on a positive semidefinite H: the pseudo-Newton step fits, so
    # it is the solution, at mu = 0, inside the ball, and not a boundary step
    # padded along the null vector at a multiplier of rounding size
    g, H = np.array([0.0, 1e-14, 0.0]), np.diag([0.0, 1e-13, 1.0])
    sol = solve_trs_exact(g, H, 1.0, 1.0)
    assert sol.h == pytest.approx([0.0, -0.1, 0.0], rel=1e-15, abs=0.0)
    assert sol.mu == 0.0
    assert not sol.on_boundary
    assert sol.kkt.stationarity <= 1e-28
    assert sol.model_decrease < 0.0


def test_exact_unresolved_root_below_a_nonpositive_lambda_1_is_padded(monkeypatch):
    # g has a coordinate on the exact bottom, so the step at mu = -lambda_1 does
    # not fit and the secular solve runs; its root sits 1e-40 above the pole.
    # Resolved, the step leans -0.1 along the second eigenvector; where the
    # solve comes back unresolved, the bottom eigenspace is treated as in the
    # hard case and the step is padded to the boundary along the first
    g, H = np.array([1e-40, 1e-14, 0.0]), np.diag([-1.0, -1.0 + 1e-13, 1.0])
    resolved = solve_trs_exact(g, H, 1.0, 1.0)
    assert resolved.h[1] == pytest.approx(-0.1, rel=1e-3)
    secular_root = trs._secular_root
    monkeypatch.setattr(trs, "_secular_root", lambda *args: (secular_root(*args)[0], False))
    sol = solve_trs_exact(g, H, 1.0, 1.0)
    assert sol.h.tolist() == [1.0, 0.0, 0.0]
    assert sol.mu == resolved.mu == 1.0
    assert sol.on_boundary


def test_exact_matches_bruteforce_on_indefinite(rng):
    for trial in range(60):
        g, H, r = random_instance(trial, rng)
        sol = solve_trs_exact(g, H, r, 1.0)
        assert model_value(g, H, sol.h) <= oracle_objective(g, H, r) + 1e-6
        assert np.linalg.norm(sol.h) <= r * (1.0 + 1e-10)


def test_exact_kkt_certificate(rng):
    for trial in range(40):
        g, H, r = random_instance(trial + 17, rng)
        sol = solve_trs_exact(g, H, r, 1.0)
        res = kkt_residual(g, H, r, sol)
        assert res.stationarity <= 1e-8 * (np.linalg.norm(g) + 1.0)
        assert res.min_eig_shifted >= -1e-8
        assert res.complementarity <= 1e-8
        assert sol.mu >= 0.0
        assert sol.model_decrease <= 1e-12
        # stored decrease equals an independent recomputation
        direct = model_value(g, H, sol.h)
        assert sol.model_decrease == pytest.approx(direct, abs=1e-12)


def test_lambda_alg_rescaling(rng):
    g, H, r = random_instance(1, rng)
    for L2 in (0.5, 2.0):
        sol = solve_trs_exact(g, H, r, L2)
        assert sol.lambda_alg == pytest.approx(2.0 * sol.mu / L2, rel=1e-15)


def test_scaling_property(rng):
    g, H, r = random_instance(4, rng)
    a = solve_trs_exact(g, H, r, 1.0)
    c = 3.7
    b = solve_trs_exact(c * g, c * H, r, 1.0)
    assert np.allclose(a.h, b.h, atol=1e-9 * (1 + np.linalg.norm(a.h)))
    assert b.mu == pytest.approx(c * a.mu, rel=1e-9, abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_exact_feasible_and_nonascending(trial):
    rng = np.random.default_rng(trial)
    g, H, r = random_instance(trial, rng)
    sol = solve_trs_exact(g, H, r, 1.0)
    assert np.linalg.norm(sol.h) <= r * (1.0 + 1e-10)
    assert sol.model_decrease <= 1e-12
    assert sol.mu >= 0.0
    if sol.mu > 1e-10:
        assert sol.on_boundary


# -- kkt_residual --------------------------------------------------------------


def test_kkt_residual_flags_perturbation(rng):
    g, H, r = random_instance(7, rng)
    sol = solve_trs_exact(g, H, r, 1.0)
    clean = kkt_residual(g, H, r, sol)
    assert clean.stationarity <= 1e-10 * (np.linalg.norm(g) + 1.0)
    sol.h = sol.h + 1e-3 * rng.standard_normal(len(sol.h))
    noisy = kkt_residual(g, H, r, sol)
    assert noisy.stationarity > 1e-4


def test_kkt_residual_tiny_radius_boundary_step():
    # ||h||^2 underflows at r = 1e-160; the recomputed residuals must not
    # misread a boundary step as one inside the ball
    g, H, r = np.array([1.0, 2.0]), np.diag([1.0, 2.0]), 1e-160
    sol = solve_trs_exact(g, H, r, 1.0)
    assert sol.on_boundary
    res = kkt_residual(g, H, r, sol)
    assert res.complementarity <= 1e-12 * sol.mu * r
    assert res.stationarity <= 1e-8 * (np.linalg.norm(g) + 1.0)


@pytest.mark.parametrize("defect,message", [
    ("nan", "non-finite matrix"), ("asymmetric", "not symmetric"), ("non-square", "square"),
])
def test_kkt_residual_refuses_a_bad_matrix(defect, message):
    g, H, r = np.array([1.0, 2.0]), np.diag([1.0, 2.0]), 0.5
    sol = solve_trs_exact(g, H, r, 1.0)
    if defect == "nan":
        H[0, 1] = H[1, 0] = math.nan
    elif defect == "asymmetric":
        H[0, 1] = 5.0
    else:
        H = np.ones((2, 3))
    with pytest.raises(ValueError, match=message):
        kkt_residual(g, H, r, sol)


# -- the Krylov path of solve_trs_exact ------------------------------------------

# the threshold, the earlier thresholds 60 and 75, and two sizes well above them
KRYLOV_DIMS = sorted({trs._KRYLOV_MIN_D, 60, 75, 150, 300})


def _eigen_path(g, H, r):
    return trs._solve_in_eigenbasis(g, *sym_eig(H), r, 0.7)


def _fields(sol):
    """Every field of a solution, the step as bytes."""
    return (sol.h.tobytes(), sol.mu, sol.lambda_alg, sol.on_boundary, sol.kkt,
            sol.model_decrease, sol.converged, sol.krylov_dim)


def _with_spectrum(rng, w):
    V = np.linalg.qr(rng.standard_normal((len(w), len(w))))[0]
    H = V @ np.diag(w) @ V.T
    return (H + H.T) / 2.0, V


def _easy_instance(rng, d, case):
    """A subproblem whose solution has ``H + mu I`` definite: boundary on an
    indefinite or definite H, or interior."""
    w = rng.uniform(-1.0, 1.0, d) if case == "indefinite" else rng.uniform(0.5, 2.0, d)
    H, _ = _with_spectrum(rng, w)
    g = rng.standard_normal(d)
    if case == "indefinite":
        return g, H, 0.5
    newton = np.linalg.norm(np.linalg.solve(H, g))
    return g, H, (1.5 if case == "interior" else 0.5) * newton


@pytest.fixture
def eig_sizes(monkeypatch):
    """The size of each matrix that solve_trs_exact hands to sym_eig."""
    sizes = []

    def recording(A):
        sizes.append(len(A))
        return sym_eig(A)

    monkeypatch.setattr(trs, "sym_eig", recording)
    return sizes


def _counted(monkeypatch, owner, name) -> list:
    """Replace ``owner.<name>`` by a wrapper that appends the arguments of each
    call to the returned list."""
    fn = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("d", KRYLOV_DIMS)
@pytest.mark.parametrize("case", ["indefinite", "definite", "interior"])
def test_exact_krylov_path_matches_the_eigen_path(monkeypatch, d, case, eig_sizes):
    eighs = _counted(monkeypatch, np.linalg, "eigh")
    eigvalshs = _counted(monkeypatch, np.linalg, "eigvalsh")
    chols = _counted(monkeypatch, np.linalg, "cholesky")
    rng = np.random.default_rng(d)
    for _ in range(3):
        g, H, r = _easy_instance(rng, d, case)
        sol = solve_trs_exact(g, H, r, 0.7)
        # the reduced problem is solved by an LDL' Newton on the tridiagonal,
        # scaled by a Gershgorin bound: no eigh or eigvalsh of any size
        assert eighs == [] and eigvalshs == []
        # H's rows are not dominant: at the small mu of the definite and
        # interior cases Gershgorin's circles do not prove H + mu I definite,
        # and one Cholesky factorization does; the indefinite case's large mu
        # clears every row's deficit
        assert len(chols) == (case != "indefinite")
        ref = _eigen_path(g, H, r)
        assert 1 <= sol.krylov_dim <= trs._KRYLOV_MAX_M
        assert np.linalg.norm(sol.h - ref.h) <= 1e-13 * r
        assert abs(sol.mu - ref.mu) <= 1e-12 * max(1.0, ref.mu)
        assert sol.lambda_alg == 2.0 * sol.mu / 0.7
        assert sol.on_boundary == ref.on_boundary == (case != "interior")
        # on this path min_eig_shifted is the margin its certificate proved, a
        # lower bound on lambda_min(H + mu I)
        assert 0.0 < sol.kkt.min_eig_shifted <= kkt_residual(g, H, r, sol).min_eig_shifted
        assert sol.kkt.stationarity <= 1e-8 * (np.linalg.norm(g) + 1.0)
        eighs.clear()
        eigvalshs.clear()
        chols.clear()
    assert eig_sizes == []  # no d x d eigendecomposition


def test_exact_krylov_step_cap_is_the_eigen_path(monkeypatch, eig_sizes):
    # a definite H whose Chebyshev-spaced spectrum in [0.1, 2.1] makes the
    # chain converge at the slowest rate (it needs 69 steps), and a radius ten
    # times the Newton step's norm: the chain runs to the step cap, then the
    # eigen path solves
    d = 150
    rng = np.random.default_rng(0)
    H, _ = _with_spectrum(rng, 1.1 + np.cos(np.pi * (np.arange(d) + 0.5) / d))
    g = rng.standard_normal(d)
    r = 10.0 * np.linalg.norm(np.linalg.solve(H, g))
    steps = _counted(monkeypatch, trs, "_tridiagonal_trs")
    sol = solve_trs_exact(g, H, r, 0.7)
    assert len(steps) == trs._KRYLOV_MAX_M
    assert _fields(sol) == _fields(_eigen_path(g, H, r))
    assert sol.krylov_dim is None and not sol.on_boundary and sol.mu == 0.0
    assert eig_sizes == [d]


def _dominant_instance(rng, d, case):
    """A subproblem whose ``H + mu I`` is strictly diagonally dominant at the
    solution: diagonal in [0.5, 2] ("definite", boundary, and "interior") or
    in [-1, 1] with a radius that puts mu near 3 ("indefinite"), off-diagonal
    row sums below 0.25."""
    E = rng.uniform(-1.0, 1.0, (d, d))
    E = (E + E.T) / 2.0 * (0.25 / d)
    np.fill_diagonal(E, 0.0)
    low, high = (-1.0, 1.0) if case == "indefinite" else (0.5, 2.0)
    H = E + np.diag(rng.uniform(low, high, d))
    g = rng.standard_normal(d)
    if case == "indefinite":
        return g, H, np.linalg.norm(g) / 3.0
    newton = np.linalg.norm(np.linalg.solve(H, g))
    return g, H, (1.5 if case == "interior" else 0.5) * newton


@pytest.mark.parametrize("d", KRYLOV_DIMS)
@pytest.mark.parametrize("case", ["indefinite", "definite", "interior"])
def test_exact_krylov_dominant_step_is_certified_without_a_factorization(monkeypatch, d, case):
    # Gershgorin's circles prove H + (mu - tau) I definite: no Cholesky, and
    # the same solution, bit for bit, as the factorization's route
    rng = np.random.default_rng(d)
    for _ in range(2):
        g, H, r = _dominant_instance(rng, d, case)
        with monkeypatch.context() as m:
            chols = _counted(m, np.linalg, "cholesky")
            sol = solve_trs_exact(g, H, r, 0.7)
            assert chols == []
        with monkeypatch.context() as m:
            chols = _counted(m, np.linalg, "cholesky")
            m.setattr(trs, "_gershgorin_definite", lambda H, shift: False)
            factorized = solve_trs_exact(g, H, r, 0.7)
            assert len(chols) == 1
        assert sol.krylov_dim is not None
        assert _fields(sol) == _fields(factorized)
        assert sol.on_boundary == (case != "interior")
        assert 0.0 < sol.kkt.min_eig_shifted <= kkt_residual(g, H, r, sol).min_eig_shifted


@pytest.mark.parametrize("d", KRYLOV_DIMS)
def test_gershgorin_margin_inside_the_rounding_margin_is_factorized(monkeypatch, d):
    # H = a I + b P, P a symmetric sign pattern with zero diagonal: every row's
    # Gershgorin bound is c = a - (d - 1) b, exact in floats, while lambda_min(H)
    # is about a - 2 b sqrt(d).  The interior solution has mu = 0, so the test
    # sees c - tau; c puts that halfway inside the rounding margin
    rng = np.random.default_rng(d)
    P = np.triu(rng.choice([-1.0, 1.0], (d, d)), 1)
    b = 2.0**-10
    g = rng.standard_normal(d)
    tests = _counted(monkeypatch, trs, "_gershgorin_definite")

    def solve(c):
        H = (c + (d - 1) * b) * np.eye(d) + b * (P + P.T)
        r = 2.0 * np.linalg.norm(np.linalg.solve(H, g))
        return H, solve_trs_exact(g, H, r, 0.7)

    H, sol = solve(0.0)
    shift = tests[-1][1]  # -tau
    margin = 2.0 * d * np.finfo(float).eps * (np.max(np.abs(H).sum(axis=1)) - shift)
    chols = _counted(monkeypatch, np.linalg, "cholesky")
    H, sol = solve(-shift + margin / 2.0)
    assert sol.mu == 0.0 and sol.krylov_dim is not None
    c = H[0, 0] - (d - 1) * b
    assert 0.0 < c + tests[-1][1] < margin
    assert len(chols) == 1


@pytest.mark.parametrize("scale", [1e308, 1.7e308])
def test_gershgorin_overflowing_row_sums_decline_without_a_warning(scale):
    # strictly dominant, but each row's absolute sum overflows: inconclusive,
    # so the factorization decides (pytest turns a RuntimeWarning into an error)
    d = trs._KRYLOV_MIN_D
    H = np.full((d, d), scale / d) + np.diag(np.full(d, scale))
    with np.errstate(over="ignore"):
        assert np.isfinite(H).all() and not np.isfinite(np.abs(H).sum(axis=1)).any()
    assert not trs._gershgorin_definite(H, 0.0)
    assert not trs._gershgorin_definite(H, 1e308)
    assert trs._gershgorin_definite(H / scale, 0.0)


def _spy_evaluation(q_scale=1.0, pole=0.0, noise=0.0):
    """An evaluation for ``trs._secular_newton`` and the list of the points it
    was called at.  ``||u(x)|| = 2 / (1 + x)``, root x = 1, plus ``noise`` of
    alternating sign; None at or below ``pole``.  Its Newton denominator is
    ``q_scale`` times the true one, ``||u|| / 2``, whose step lands on the
    root; below 1 every step overshoots."""
    calls = []

    def evaluate(x):
        calls.append(x)
        if x <= pole:
            return None
        n = 2.0 / (1.0 + x) + noise * (-1.0) ** len(calls)
        return n, ("value at", x), lambda: q_scale * n / 2.0
    return evaluate, calls


@pytest.mark.parametrize("q_scale", [0.1, 0.0])
def test_secular_newton_bisects_a_step_that_leaves_the_bracket(q_scale):
    # a tenth of the denominator sends each Newton step ten times too far, out
    # of the bracket, and a zero one gives no step: only bisection finds the root
    evaluate, calls = _spy_evaluation(q_scale=q_scale)
    x, value, gap = trs._secular_newton(evaluate, 0.0, 3.0, 2.5, evaluate(2.5))
    assert all(0.0 < c < 3.0 for c in calls)
    assert len(calls) < trs._MAX_SECULAR_ITERS
    assert abs(x - 1.0) <= 1e-12 and gap <= trs._SECULAR_RTOL
    assert value == ("value at", x)


def test_secular_newton_raises_the_bracket_past_a_pole():
    # the step from a pole is a bisection of the bracket above it
    evaluate, calls = _spy_evaluation(pole=0.5)
    x, _, gap = trs._secular_newton(evaluate, 0.0, 3.0, 0.25, evaluate(0.25))
    assert calls[:2] == [0.25, 0.5 * (0.25 + 3.0)]
    assert all(c > 0.5 for c in calls[2:])
    assert abs(x - 1.0) <= 4e-15 and gap <= trs._SECULAR_ROUNDING


def test_secular_newton_stops_on_a_stall_inside_the_tolerance():
    # a noise floor of 3e-14 in ||u||: no gap reaches _SECULAR_ROUNDING, so the
    # iteration ends at the first evaluation that does not improve on a gap
    # within _SECULAR_RTOL, a step or two after Newton lands on the root
    evaluate, calls = _spy_evaluation(noise=3e-14)
    x, _, gap = trs._secular_newton(evaluate, 0.0, 3.0, 2.5, evaluate(2.5))
    assert trs._SECULAR_ROUNDING < gap <= trs._SECULAR_RTOL
    assert abs(x - 1.0) <= 1e-12
    assert len(calls) <= 4


def test_secular_root_widens_a_bracket_that_rounding_leaves_short():
    # ||u(delta_hi)|| = 0.5 / delta_hi lies an ulp above 1, as where rounding puts
    # ||gt|| above ||g||: the bracket [0, delta_hi] misses the root delta = 0.5,
    # [0, 2 delta_hi + 1] holds it
    delta_hi = np.nextafter(0.5, 0.0)
    delta, resolved = trs._secular_root(np.array([0.0, 1.0]), np.array([0.5, 0.0]), delta_hi)
    assert resolved and delta == 0.5


def test_secular_newton_keeps_the_start_where_no_gap_is_finite():
    # a NaN norm is no gap: each step bisects, and the start comes back
    evaluate, calls = _spy_evaluation(noise=math.nan)
    assert trs._secular_newton(evaluate, 0.0, 3.0, 2.5, evaluate(2.5)) == (2.5, None, math.inf)
    assert all(0.0 < c < 3.0 for c in calls)


def _tridiagonal(a, b):
    return np.diag(a) + np.diag(b, 1) + np.diag(b, -1)


def _lanczos_tridiagonal(rng, w):
    """The tridiagonal of a full Lanczos run on ``diag(w)`` from a random start,
    as the Krylov path builds it from g."""
    m = len(w)
    Q, a, b = np.zeros((m, m)), np.zeros(m), np.zeros(m - 1)
    q = rng.standard_normal(m)
    Q[0] = q / np.linalg.norm(q)
    for j in range(m):
        v = w * Q[j]
        a[j] = Q[j] @ v
        for _ in range(2):
            v -= Q[:j + 1].T @ (Q[:j + 1] @ v)
        if j < m - 1:
            b[j] = np.linalg.norm(v)
            Q[j + 1] = v / b[j]
    return a, b


def _unit_tridiagonal_problem(seed, case):
    """``(a, b, gamma)`` of a reduced unit-ball problem, scaled as the Krylov
    path scales it, and the eigenbasis solve of the same problem."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 30))
    w = rng.uniform(-1.0, 1.0, m) if case == "indefinite" else rng.uniform(0.5, 2.0, m)
    a, b = _lanczos_tridiagonal(rng, w)
    gamma = 0.1 if case == "interior" else 3.0
    theta, U = np.linalg.eigh(_tridiagonal(a, b))
    sigma = max(abs(theta[0]), abs(theta[-1]), gamma)
    a, b, gamma, theta = a / sigma, b / sigma, gamma / sigma, theta / sigma
    gt = np.zeros(m)
    gt[0] = gamma
    ref = trs._solve_in_eigenbasis(gt, theta, U, 1.0, 1.0)
    assert (ref.mu == 0.0) == (case == "interior")
    return list(a), list(b), gamma, ref


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("case", ["indefinite", "definite", "interior"])
def test_tridiagonal_trs_matches_the_eigenbasis_solve(seed, case):
    # warm-started at the solution, at 0 and far above it, the O(m) Newton
    # lands where the eigenbasis solve of the same unit problem does
    a, b, gamma, ref = _unit_tridiagonal_problem(seed, case)
    for mu0 in (ref.mu, 0.0, 10.0):
        u, mu = trs._tridiagonal_trs(a, b, gamma, mu0)
        assert np.linalg.norm(np.array(u) - ref.h) <= 1e-13
        assert abs(mu - ref.mu) <= 1e-13 * max(1.0, ref.mu)
        assert (mu == 0.0) == (case == "interior")


@pytest.mark.parametrize("case", ["indefinite", "definite", "interior"])
def test_tridiagonal_trs_newton_takes_few_factorizations(monkeypatch, case):
    # Newton with its true denominator: one LDL' where the warm start is the
    # root (two in the interior case: the bracket's midpoint, then mu_min),
    # at most 7 from a cold start; bisection alone would take about 50
    factorizations = _counted(monkeypatch, trs, "_tridiagonal_ldl")
    for seed in range(10):
        a, b, gamma, ref = _unit_tridiagonal_problem(seed, case)
        for mu0, most in ((ref.mu, 2 if case == "interior" else 1), (0.0, 7), (10.0, 7)):
            factorizations.clear()
            trs._tridiagonal_trs(a, b, gamma, mu0)
            assert len(factorizations) <= most


def test_tridiagonal_trs_refuses_a_hard_case():
    # beta = 0 splits T, and gamma e_1 misses the lower block that holds the
    # bottom eigenvalue: for every mu above -theta_1 the step lies inside the
    # ball, so no multiplier meets the secular equation.  T is scaled by its
    # spectral radius, so its eigenvalues lie in [-1, 1]
    a, b = np.array([1.0, 1.0, -1.0, 0.5]), np.array([0.2, 0.0, 0.3])
    rho = float(np.max(np.abs(np.linalg.eigvalsh(_tridiagonal(a, b)))))
    a, b = list(a / rho), list(b / rho)
    for mu0 in (0.0, 1.2, 5.0):
        with pytest.raises(TrsNumericError, match="hard case"):
            trs._tridiagonal_trs(a, b, 0.1, mu0)


@pytest.mark.parametrize("d", KRYLOV_DIMS)
@pytest.mark.parametrize("case", ["hard", "hard_spread", "singular"])
def test_exact_krylov_uncertified_cases_are_the_eigen_path(d, case, eig_sizes):
    # g orthogonal to the bottom eigenvector, the step without it inside the
    # ball.  "hard": lambda_1 = -1 and three other eigenvalues, so g's Krylov
    # space is invariant after three steps and the factorization refuses the
    # step found there; the solution pads along the bottom eigenvector at
    # mu = 1.  "hard_spread": the other eigenvalues spread close to -1, and
    # rounding brings the bottom eigenvector into the space, where the
    # reduced problem turns hard.  "singular": lambda_1 = 0, so H + mu I is
    # only semidefinite at mu = 0
    rng = np.random.default_rng(d + 1)
    if case == "hard_spread":
        w = rng.uniform(-0.9, 1.0, d)
    else:
        w = rng.choice([0.5, 1.0, 2.0], d)
    w[0] = 0.0 if case == "singular" else -1.0
    H, V = _with_spectrum(rng, w)
    g = rng.standard_normal(d)
    g -= (g @ V[:, 0]) * V[:, 0]
    r = 2.0 * np.linalg.norm((V.T @ g)[1:] / (w[1:] - w[0]))
    sol = solve_trs_exact(g, H, r, 0.7)
    assert _fields(sol) == _fields(_eigen_path(g, H, r))
    assert sol.krylov_dim is None
    assert sol.mu == pytest.approx(0.0 if case == "singular" else 1.0, abs=1e-12)
    assert sol.on_boundary or case == "singular"  # there, the sign of lambda_1's rounding decides
    assert eig_sizes == [d]


@pytest.mark.parametrize("d", KRYLOV_DIMS)
@pytest.mark.parametrize("low", [-1.0, 0.5])
def test_exact_krylov_zero_gradient_is_the_eigen_path(d, low, eig_sizes):
    H, _ = _with_spectrum(np.random.default_rng(d), np.linspace(low, 2.0, d))
    g = np.zeros(d)
    sol = solve_trs_exact(g, H, 0.3, 0.7)
    assert _fields(sol) == _fields(_eigen_path(g, H, 0.3))
    assert sol.krylov_dim is None and sol.on_boundary == (low < 0.0)
    assert eig_sizes == [d]


def _fail_first_call(monkeypatch, name):
    """Make the first call of ``trs.<name>`` raise TrsNumericError."""
    fn = getattr(trs, name)
    calls = []

    def failing_first(*args):
        calls.append(1)
        if len(calls) == 1:
            raise TrsNumericError(f"{name} failed")
        return fn(*args)

    monkeypatch.setattr(trs, name, failing_first)


@pytest.mark.parametrize("failure", ["step_cap", "_tridiagonal_trs", "_gated_solution"])
def test_exact_krylov_failure_falls_back_to_the_eigen_path(monkeypatch, eig_sizes, failure):
    # a chain that does not converge within the step cap, a reduced solve that
    # raises, and a lifted step that misses the gate each end in the eigen path
    d = trs._KRYLOV_MIN_D
    g, H, r = _easy_instance(np.random.default_rng(5), d, "indefinite")
    ref = _eigen_path(g, H, r)
    if failure == "step_cap":
        monkeypatch.setattr(trs, "_KRYLOV_MAX_M", 2)
    else:
        _fail_first_call(monkeypatch, failure)
    assert _fields(solve_trs_exact(g, H, r, 0.7)) == _fields(ref)
    assert eig_sizes == [d]


# the eigen path just below the threshold, the Krylov path at it and at an
# odd and an even size both near it and well above it
@pytest.mark.parametrize("d", [trs._KRYLOV_MIN_D - 1, trs._KRYLOV_MIN_D, 59, 60, 74, 75, 149,
                               150])
@pytest.mark.parametrize("defect,message", [
    ("asymmetric", "not symmetric"), ("nan", "non-finite matrix"), ("inf", "non-finite matrix"),
])
def test_exact_refuses_a_bad_matrix_on_both_paths(d, defect, message):
    H = np.eye(d)
    if defect == "asymmetric":
        H[0, 1] = 1e-3
    else:
        H[0, 1] = H[1, 0] = math.nan if defect == "nan" else math.inf
    with pytest.raises(ValueError, match=message):
        solve_trs_exact(np.ones(d), H, 1.0, 1.0)


@pytest.mark.parametrize("d", [2, 30, trs._KRYLOV_MIN_D - 1])
def test_exact_below_the_krylov_dimension_is_the_eigen_path(d):
    rng = np.random.default_rng(d)
    for case in ("indefinite", "definite", "interior"):
        g, H, r = _easy_instance(rng, d, case)
        assert _fields(solve_trs_exact(g, H, r, 0.7)) == _fields(_eigen_path(g, H, r))


@pytest.mark.parametrize("gi,H_scale,r", [(1e-185, 1e108, 1e94), (1e-300, 1e108, 1e20)])
def test_exact_krylov_underflowing_unit_gradient_is_the_eigen_path(gi, H_scale, r, eig_sizes):
    # ||g|| / r / sigma underflows to 0: the Krylov path treats the unit
    # problem as g = 0 and hands it to the eigen path, whose error or solution
    # is that of smaller d (no ZeroDivisionError from an all-zero reduced step)
    d = 64
    A = np.random.default_rng(0).standard_normal((d, d))
    g, H = np.full(d, gi), (A + A.T) / 2.0 * H_scale
    try:
        sol = solve_trs_exact(g, H, r, 1.0)
    except TrsNumericError as exc:
        outcome = str(exc)
    else:
        outcome = _fields(sol)
    try:
        ref = _fields(_eigen_path(g, H, r))
    except TrsNumericError as exc:
        ref = str(exc)
    assert outcome == ref
    assert eig_sizes == [d]


def test_exact_krylov_path_scale_equivariance():
    # solve(alpha g, (alpha / beta) H, beta r) = (beta h, (alpha / beta) mu), as
    # on the eigen path
    g, H, r = _easy_instance(np.random.default_rng(7), trs._KRYLOV_MIN_D, "indefinite")
    base = solve_trs_exact(g, H, r, 1.0)
    assert base.krylov_dim is not None
    scales = (1e-150, 1.0, 1e150)
    for alpha in scales:
        for beta in scales:
            sol = solve_trs_exact(alpha * g, (alpha / beta) * H, beta * r, 1.0)
            assert np.linalg.norm(sol.h / beta - base.h) <= 1e-12 * np.linalg.norm(base.h)
            assert abs(sol.mu / (alpha / beta) - base.mu) <= 1e-12 * base.mu
            assert sol.on_boundary == base.on_boundary


@pytest.mark.parametrize("d", [trs._KRYLOV_MIN_D - 1, trs._KRYLOV_MIN_D])
def test_exact_krylov_stop_is_relative_to_the_step(d):
    # g far below H's scale: beta_1 |u_1| is tiny against sigma, yet the
    # one-step Krylov step is 44% off the Newton step; the stop must weigh the
    # residual against ||u||, and the chain then breaks down at m = 2
    H = np.diag(np.arange(1.0, d + 1.0))
    g = np.zeros(d)
    g[:2] = 1e-20 * np.array([1.0, 2.0])
    sol = solve_trs_exact(g, H, 1.0, 1.0)
    newton = -g / np.diag(H)
    assert sol.krylov_dim == (2 if d >= trs._KRYLOV_MIN_D else None)
    assert np.linalg.norm(sol.h - newton) <= 1e-12 * np.linalg.norm(newton)


# -- Lanczos solver ------------------------------------------------------------


def test_lanczos_diagonal_single_axis():
    H = np.diag([2.0, -1.0, 0.5])
    g = np.array([3.0, 0.0, 0.0])
    a = solve_trs_exact(g, H, 0.4, 1.0)
    b = solve_trs_lanczos(g, lambda v: H @ v, 3, 0.4, 1.0)
    assert np.allclose(a.h, b.h, atol=1e-9)
    assert b.converged


def test_lanczos_matches_exact_d50():
    for t in range(15):
        rng = np.random.default_rng(t)
        d = 50
        A = rng.standard_normal((d, d))
        H = (A + A.T) / 2.0
        g = rng.standard_normal(d)
        a = solve_trs_exact(g, H, 1.0, 1.0)
        b = solve_trs_lanczos(g, lambda v: H @ v, d, 1.0, 1.0, m_max=d)
        assert abs(model_value(g, H, b.h) - model_value(g, H, a.h)) <= 1e-6


@pytest.mark.parametrize("d", [30, 60, 90])
def test_lanczos_matches_exact_across_kinds_and_scales(d):
    # random_instance's four kinds, g and H scaled by 1e4 or 1e-4 (the model
    # value scales with them); where the solution is unique (every kind but
    # the hard case) the Krylov path's step and the eigen path's are the same
    for trial in range(20):
        rng = np.random.default_rng(100 * d + trial)
        scale = 1e4 if trial // 4 % 2 else 1e-4
        g, H, r = random_instance(trial, rng, d)
        g, H = scale * g, scale * H
        a = solve_trs_exact(g, H, r, 1.0)
        b = solve_trs_lanczos(g, lambda v: H @ v, d, r, 1.0, rng=np.random.default_rng(trial))
        assert b.converged
        assert abs(model_value(g, H, b.h) - model_value(g, H, a.h)) <= 1e-6 * scale
        assert _scaled(b.h, r) <= 1.0 + 1e-8
        if d >= trs._KRYLOV_MIN_D and trial % 4 != 2:
            assert np.linalg.norm(b.h - a.h) <= 1e-12 * r


def test_lanczos_zero_gradient_negative_curvature():
    for seed in range(20):
        rng = np.random.default_rng(seed + 1000)
        d = 30
        V = np.linalg.qr(rng.standard_normal((d, d)))[0]
        w = np.sort(rng.uniform(-2.0, 2.0, d))
        w[0] = -1.5
        H = V @ np.diag(w) @ V.T
        H = (H + H.T) / 2.0
        r = 0.8
        sol = solve_trs_lanczos(
            np.zeros(d), lambda v: H @ v, d, r, 1.0, m_max=d,
            rng=np.random.default_rng(seed),
        )
        assert sol.on_boundary
        assert sol.model_decrease <= -0.25 * abs(w[0]) * r * r


def test_lanczos_truncated_flags_unconverged():
    rng = np.random.default_rng(3)
    d = 40
    A = rng.standard_normal((d, d))
    H = (A + A.T) / 2.0
    g = rng.standard_normal(d)
    sol = solve_trs_lanczos(g, lambda v: H @ v, d, 0.5, 1.0, m_max=3)
    assert sol.krylov_dim <= 3
    assert np.linalg.norm(sol.h) <= 0.5 * (1 + 1e-10)
    if not sol.converged:
        assert sol.kkt.stationarity > 0.0


def test_lanczos_one_reduced_solve_per_step_and_eigh_only_on_the_probe(monkeypatch):
    # g's chain solves each step's reduced problem once, by the O(m) Newton;
    # eigh runs only on the probe's k x k tridiagonals, k = 1, 2, ...
    rng = np.random.default_rng(5)
    d = 30
    A = rng.standard_normal((d, d))
    H = (A + A.T) / 2.0
    g = rng.standard_normal(d)
    steps = _counted(monkeypatch, trs, "_tridiagonal_trs")
    calls = _counted(monkeypatch, np.linalg, "eigh")
    sol = solve_trs_lanczos(g, lambda v: H @ v, d, 0.5, 1.0, rng=np.random.default_rng(0))
    assert sol.converged
    assert len(steps) == sol.krylov_dim
    assert [len(T) for (T,) in calls] == list(range(1, len(calls) + 1))
    for (T,) in calls:
        assert np.array_equal(T, T.T) and not np.triu(T, 2).any()


def test_lanczos_rejects_bad_inputs():
    for r, L2, g in ((0.0, 1.0, np.ones(3)), (1.0, 0.0, np.ones(3)),
                     (1.0, 1.0, np.array([np.inf, 0.0, 0.0]))):
        with pytest.raises(ValueError):
            solve_trs_lanczos(g, lambda v: v, 3, r, L2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [1, 3])
def test_lanczos_non_finite_hvp_is_a_value_error(bad, call):
    d = 30
    rng = np.random.default_rng(1)
    H, _ = _with_spectrum(rng, rng.uniform(-1.0, 2.0, d))
    g = rng.standard_normal(d)
    calls = []

    def hvp(v):
        calls.append(v)
        Hv = H @ v
        if len(calls) == call:
            Hv[d // 2] = bad
        return Hv

    with pytest.raises(ValueError, match="non-finite"):
        solve_trs_lanczos(g, hvp, d, 0.5, 1.0)
    assert len(calls) == call


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_lanczos_coefficients_past_the_float_range_are_a_numeric_error():
    # each product is finite, but the probe's first alpha = q'Hq overflows
    # (numpy warns), so its chain ends before its first step
    d = 4
    with pytest.raises(TrsNumericError, match="past the float range"):
        solve_trs_lanczos(np.ones(d), lambda v: 1.5e308 * np.sign(v), d, 1.0, 1.0)


def _near_hard(seed, d=30):
    """``(g, H)`` with ||g|| = 1e-4 against lambda_1 = -1.5, which puts the
    root mu about 1e-5 above the pole -lambda_1, where the rounding of the
    LDL' of T + mu I keeps the O(m) Newton from its gap."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 2.0, d)
    w[0] = -1.5
    H, _ = _with_spectrum(rng, w)
    g = rng.standard_normal(d)
    return g * (1e-4 / np.linalg.norm(g)), H


@pytest.mark.parametrize("seed", range(3))
def test_lanczos_near_hard_reruns_g_chain_in_the_eigenbasis(seed, monkeypatch):
    # g's chain is rerun with each step solved in the eigenbasis of T, at an
    # offset from the pole
    g, H = _near_hard(seed)
    d = g.size
    a = solve_trs_exact(g, H, 1.0, 1.0)
    chains = _counted(monkeypatch, trs, "_lanczos")
    b = solve_trs_lanczos(g, lambda v: H @ v, d, 1.0, 1.0, rng=np.random.default_rng(seed))
    assert len(chains) == 3  # the probe's, g's and its rerun
    assert b.converged and b.on_boundary
    assert np.linalg.norm(b.h - a.h) <= 1e-12
    assert b.mu == pytest.approx(a.mu, rel=1e-12)


def test_lanczos_rerun_lapack_failure_is_a_numeric_error(monkeypatch):
    # each k x k eigh of g's rerun chain fails
    g, H = _near_hard(0)
    chains = _counted(monkeypatch, trs, "_lanczos")
    eigh = np.linalg.eigh

    def fail_in_rerun(A):
        if len(chains) == 3:
            raise np.linalg.LinAlgError("did not converge")
        return eigh(A)

    monkeypatch.setattr(np.linalg, "eigh", fail_in_rerun)
    with pytest.raises(TrsNumericError, match="did not converge"):
        solve_trs_lanczos(g, lambda v: H @ v, g.size, 1.0, 1.0, rng=np.random.default_rng(0))
    assert len(chains) == 3


@pytest.mark.parametrize("r", [1e-160, 1e-300])
def test_lanczos_tiny_radius_reaches_boundary(r):
    # the lifted ||h|| underflows below r ~ 1e-154; on_boundary comes from the
    # reduced solve
    H = np.diag([2.0, -1.0, 0.5])
    g = np.array([1.0, 2.0, 3.0])
    sol = solve_trs_lanczos(g, lambda v: H @ v, 3, r, 1.0)
    assert sol.converged
    assert sol.on_boundary
    assert _scaled(sol.h, r) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("g, H, shape", [
    (np.ones((3, 1)), np.eye(3), "(3, 1)"),
    (np.ones(3), np.eye(4), "(4, 4)"),
    (np.ones(3), np.ones(3), "(3,)"),
    (np.ones(40), np.eye(41), "(41, 41)"),
], ids=["g_column", "H_too_large", "H_vector", "H_too_large_krylov"])
def test_exact_refuses_inputs_of_the_wrong_shape(g, H, shape):
    with pytest.raises(ValueError, match=re.escape(shape)):
        solve_trs_exact(g, H, 1.0, 1.0)


@pytest.mark.parametrize("g, d, shape", [
    (np.ones((3, 1)), 3, "(3, 1)"),
    (np.ones(3), 5, "(3,)"),
    (np.ones(3), 2, "(3,)"),
], ids=["g_column", "d_too_large", "d_too_small"])
def test_lanczos_refuses_inputs_of_the_wrong_shape(g, d, shape):
    # a d other than g's size would run the probe chain in another space
    with pytest.raises(ValueError, match=re.escape(shape)):
        solve_trs_lanczos(g, lambda v: 2.0 * v, d, 1.0, 1.0)


@pytest.mark.parametrize("hvp, shape", [
    (lambda v: 2.0 * v[:, None], "(3, 1)"),
    (lambda v: np.r_[v, 0.0], "(4,)"),
    (lambda v: float(v.sum()), "()"),
], ids=["column", "too_long", "scalar"])
def test_lanczos_refuses_a_misshapen_hessian_vector_product(hvp, shape):
    # a column ended in a TypeError from the norm, the others in numpy's matmul error
    with pytest.raises(ValueError, match=re.escape(f"Hessian-vector product of shape {shape}")):
        solve_trs_lanczos(np.ones(3), hvp, 3, 1.0, 1.0)


def test_lanczos_scale_past_the_float_range_is_named():
    # ||g|| / r = 1.7e310
    with pytest.raises(TrsNumericError, match=r"unit-ball scale .* past the float range"):
        solve_trs_lanczos(1e300 * np.ones(3), lambda v: v, 3, 1e-10, 1.0)


@pytest.mark.parametrize("solver, lapack", [
    (sym_eig, "eigh"),
    (trs._sym_eigvals, "eigvalsh"),
    (lambda A: solve_trs_lanczos(np.ones(len(A)), A.__matmul__, len(A), 1.0, 1.0), "eigh"),
], ids=["sym_eig-eigh", "_sym_eigvals-eigvalsh", "lanczos_probe-eigh"])
def test_lapack_failure_is_a_numeric_error(monkeypatch, solver, lapack):
    def fail(A):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, lapack, fail)
    with pytest.raises(TrsNumericError, match="did not converge"):
        solver(np.eye(2))


def test_lanczos_rejects_bad_m_max():
    with pytest.raises(ValueError):
        solve_trs_lanczos(np.ones(3), lambda v: v, 3, 1.0, 1.0, m_max=5)


@pytest.mark.parametrize("m_max", [2.5, 3.0, True, np.float64(2.0)],
                         ids=["2.5", "3.0", "True", "np.float64"])
def test_lanczos_rejects_a_non_integer_m_max(m_max):
    # a float or a bool used to end in a TypeError from range()
    with pytest.raises(ValueError, match="m_max"):
        solve_trs_lanczos(np.ones(3), lambda v: 2 * v, 3, 1.0, 1.0, m_max=m_max)


@pytest.mark.parametrize("d", [3.0, True, np.float64(3.0)], ids=["3.0", "True", "np.float64"])
def test_lanczos_rejects_a_non_integer_d(d):
    # d = 3.0 matched g's size and used to end in a TypeError from the probe draw
    with pytest.raises(ValueError, match="d = "):
        solve_trs_lanczos(np.ones(3), lambda v: 2 * v, d, 1.0, 1.0)


def test_lanczos_takes_numpy_integer_sizes():
    sol = solve_trs_lanczos(np.ones(3), lambda v: 2 * v, np.int64(3), 1.0, 1.0,
                            m_max=np.int32(2))
    assert sol.converged and sol.h == pytest.approx([-0.5, -0.5, -0.5])


def test_lanczos_gradient_below_the_square_root_of_the_float_range():
    # ||g||^2 underflows: a squared norm would read g = 0 and start at a random
    # vector instead of g
    H = np.diag([1.0, 2.0, 3.0])
    g = 1e-170 * np.array([1.0, 2.0, 0.0])
    a = solve_trs_exact(g, H, 1.0, 1.0)
    b = solve_trs_lanczos(g, lambda v: H @ v, 3, 1.0, 1.0)
    assert a.h == pytest.approx([-1e-170, -1e-170, 0.0], rel=1e-12, abs=1e-182)
    assert b.converged
    assert b.h == pytest.approx(a.h, rel=1e-12, abs=1e-182)


@pytest.mark.parametrize("seed", range(6))
def test_lanczos_hard_case_certifies_below_full_dimension(seed):
    # g orthogonal to the bottom eigenvector and small enough that mu = -lambda_1:
    # g's chain never sees that eigenvector, the random probe's chain finds it
    d = 60
    rng = np.random.default_rng(seed)
    V = np.linalg.qr(rng.standard_normal((d, d)))[0]
    w = np.sort(rng.uniform(-1.0, 2.0, d))
    w[0] = -1.5
    H = V @ np.diag(w) @ V.T
    g = rng.standard_normal(d)
    g -= (g @ V[:, 0]) * V[:, 0]
    g *= 0.5 / np.linalg.norm((V.T @ g)[1:] / (w[1:] - w[0]))
    a = solve_trs_exact(g, H, 1.0, 1.0)
    b = solve_trs_lanczos(g, lambda v: H @ v, d, 1.0, 1.0, rng=np.random.default_rng(seed))
    assert a.mu == pytest.approx(1.5, rel=1e-12)
    assert b.converged and b.krylov_dim < d
    assert abs(model_value(g, H, b.h) - model_value(g, H, a.h)) <= 1e-12
