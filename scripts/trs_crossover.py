#!/usr/bin/env python3
"""Time the two paths of ``solve_trs_exact`` per subproblem across dimensions.

For each d, runs the ``exact_tr`` iteration (full gradient and Hessian, fixed
radius ``sqrt(eps/L2)``, dual-threshold stop) on ``logistic_nc`` over
``generate_synthetic(n, d)`` and keeps its subproblems.  Each subproblem is then
solved by the eigen path (``sym_eig`` and the eigenbasis solve) and by the
Krylov path (``_krylov_solution``), and the median wall time per solve of each
is printed.  The smallest d at which the Krylov path wins is where
``trs._KRYLOV_MIN_D`` belongs.  BLAS runs on one thread unless the
environment already sets ``OPENBLAS_NUM_THREADS``.

Example:
    python scripts/trs_crossover.py --dims 30 50 100 150 200 400
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
    return trs._solve_in_eigenbasis(g, w, V, r, L2, trs.MIN_TOL)


def krylov_path(g, H, r, L2):
    return trs._krylov_solution(g, trs._symmetric(H), r, L2, trs.MIN_TOL)


def median_ms(solve, subproblems, repeats):
    times = []
    for g, H, r, L2 in subproblems:
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            solve(g, H, r, L2)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    return 1e3 * float(np.median(times))


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
          f"{'fallbacks':>9}")
    for d in args.dims:
        subproblems = exact_tr_subproblems(args.n, d, args.data_seed, args.epsilon,
                                           args.max_iters)
        krylov = [krylov_path(*sp) for sp in subproblems]
        dims = [s.krylov_dim for s in krylov if s is not None]
        print(f"{d:>5} {len(subproblems):>6} "
              f"{median_ms(eigen_path, subproblems, args.repeats):>9.2f} "
              f"{median_ms(krylov_path, subproblems, args.repeats):>9.2f} "
              f"{float(np.median(dims)) if dims else math.nan:>10g} "
              f"{len(krylov) - len(dims):>9}")
    print(f"solve_trs_exact takes the Krylov path from d = {trs._KRYLOV_MIN_D}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
