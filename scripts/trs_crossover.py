#!/usr/bin/env python3
"""Time the two paths of ``solve_trs_exact`` per subproblem across dimensions.

For each d, runs the ``exact_tr`` iteration (full gradient and Hessian, fixed
radius ``sqrt(eps/L2)``, dual-threshold stop) on ``logistic_nc`` over
``generate_synthetic(n, d)`` and keeps its subproblems.  Each subproblem is then
solved by the eigen path (``sym_eig`` and the eigenbasis solve) and by the
Krylov path (``_krylov_solution``), and the median wall time per solve of each
is printed, with ``step_us``, the median Krylov time per Lanczos step (over the
solves that path certifies), and ``gersh``, how many of those solves
Gershgorin's circles certified with no Cholesky factorization.  The two paths
are timed in turn on each subproblem, so a change of machine speed during the
run reaches both alike.  The last lines give the crossover, the smallest listed
d from which the Krylov path wins at every larger listed d, which sets
``trs._KRYLOV_MIN_D``, and that threshold.  BLAS runs on one thread unless the
environment already sets ``OPENBLAS_NUM_THREADS``.

Example:
    python scripts/trs_crossover.py --dims 30 50 60 75 100 150 400
"""

import argparse
import math
import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy is first imported

import numpy as np  # noqa: E402

from strbench import trs  # noqa: E402
from strbench.datasets import generate_synthetic  # noqa: E402
from strbench.problems import (  # noqa: E402
    OracleCounters,
    from_dataset,
    full_gradient,
    full_hessian,
    lipschitz_bounds,
)


def exact_tr_subproblems(n, d, data_seed, epsilon, max_iters):
    """The (g, H, r, L2) of each iteration of an exact_tr run."""
    problem = from_dataset(generate_synthetic(n, d, seed=data_seed), "logistic_nc")
    L2 = lipschitz_bounds(problem).L2
    r = math.sqrt(epsilon / L2)
    x = np.zeros(d)
    found = []
    for _ in range(max_iters):
        g = full_gradient(problem, x, OracleCounters())
        H = full_hessian(problem, x, OracleCounters())
        found.append((g, H, r, L2))
        sol = trs.solve_trs_exact(g, H, r, L2)
        x = x + sol.h
        if sol.lambda_alg <= 2.0 * r:
            break
    return found


def eigen_path(g, H, r, L2):
    w, V = trs.sym_eig(H)
    return trs._solve_in_eigenbasis(g, w, V, r, L2)


def krylov_path(g, H, r, L2):
    return trs._krylov_solution(g, trs._symmetric(H), r, L2)


def gershgorin_certified(subproblem, sol) -> bool:
    """Whether the Krylov path proved ``sol`` optimal with no factorization:
    its ``kkt.min_eig_shifted`` is the margin ``tau`` it proved, and it tries
    Gershgorin's circles on ``H + (mu - tau) I`` first."""
    H = trs._symmetric(subproblem[1])
    return trs._gershgorin_definite(H, sol.mu - sol.kkt.min_eig_shifted)


def best_times(solves, subproblems, repeats):
    """For each of ``solves``, the best of ``repeats`` wall times of each
    subproblem's solve, in s; each repeat times every solve in turn."""
    times = [[] for _ in solves]
    for g, H, r, L2 in subproblems:
        best = [math.inf for _ in solves]
        for _ in range(repeats):
            for i, solve in enumerate(solves):
                t0 = time.perf_counter()
                solve(g, H, r, L2)
                best[i] = min(best[i], time.perf_counter() - t0)
        for out, t in zip(times, best):
            out.append(t)
    return times


def crossover(rows):
    """The smallest d of ``rows``, ``(d, eigen_s, krylov_s)`` in ascending d,
    from which the Krylov path wins at every larger d, or None."""
    found = None
    for d, eigen_s, krylov_s in reversed(rows):
        if not krylov_s < eigen_s:
            break
        found = d
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--dims", type=int, nargs="+", default=[30, 50, 100, 150, 200, 400])
    ap.add_argument("--data-seed", type=int, default=8)
    ap.add_argument("--epsilon", type=float, default=4e-3)
    ap.add_argument("--max-iters", type=int, default=20)
    ap.add_argument("--repeats", type=int, default=3, help="best of this many per subproblem")
    args = ap.parse_args(argv)

    print(f"{'d':>5} {'solves':>6} {'eigen_ms':>9} {'krylov_ms':>9} {'krylov_dim':>10} "
          f"{'step_us':>8} {'gersh':>6} {'fallbacks':>9}")
    rows = []
    for d in sorted(args.dims):
        subproblems = exact_tr_subproblems(args.n, d, args.data_seed, args.epsilon,
                                           args.max_iters)
        krylov = [krylov_path(*sp) for sp in subproblems]
        dims = [s.krylov_dim for s in krylov if s is not None]
        eigen_s, krylov_s = best_times([eigen_path, krylov_path], subproblems, args.repeats)
        step_s = [t / s.krylov_dim for t, s in zip(krylov_s, krylov) if s is not None]
        gersh = sum(gershgorin_certified(sp, s) for sp, s in zip(subproblems, krylov)
                    if s is not None)
        rows.append((d, float(np.median(eigen_s)), float(np.median(krylov_s))))
        print(f"{d:>5} {len(subproblems):>6} "
              f"{1e3 * rows[-1][1]:>9.2f} "
              f"{1e3 * rows[-1][2]:>9.2f} "
              f"{float(np.median(dims)) if dims else math.nan:>10g} "
              f"{1e6 * np.median(step_s) if step_s else math.nan:>8.1f} "
              f"{gersh:>6} "
              f"{len(krylov) - len(dims):>9}")
    found = crossover(rows)
    print(f"the Krylov path wins from d = {'none' if found is None else found}")
    print(f"solve_trs_exact takes the Krylov path from d = {trs._KRYLOV_MIN_D}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
