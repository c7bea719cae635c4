#!/usr/bin/env python3
"""Second-order oracle calls (sso) against n, in theory mode.

For each n, runs ``exact_tr``, ``str1`` and ``str2`` (the paper's constants,
analytic Lipschitz bounds, seed 0) on ``logistic_nc`` over
``generate_synthetic(n, d, 8)`` and prints one row: each variant's sso and
iteration count, and whether every run certified.  ``exact_tr`` bills n sso an
iteration; ``str1``'s option-II Hessian batches do not grow with n.

Example:
    python scripts/sso_scaling.py --n 12000 48000 192000
"""

import argparse
import sys

from strbench.datasets import generate_synthetic
from strbench.driver import RunConfig, run
from strbench.problems import from_dataset

VARIANTS = ("exact_tr", "str1", "str2")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, nargs="+", default=[12000, 48000])
    ap.add_argument("--d", type=int, default=50)
    ap.add_argument("--epsilon", type=float, default=1e-2)
    ap.add_argument("--delta", type=float, default=0.1)
    args = ap.parse_args(argv)

    print(f"{'n':>8}", *(f"{v + '_sso':>12}" for v in VARIANTS),
          *(f"{v + '_iters':>14}" for v in VARIANTS), "certified")
    for n in args.n:
        problem = from_dataset(generate_synthetic(n, args.d, seed=8), "logistic_nc")
        results = [run(v, problem, RunConfig(variant=v, epsilon=args.epsilon,
                                             delta=args.delta, seed=0)) for v in VARIANTS]
        print(f"{n:>8}", *(f"{res.counters.sso:>12}" for res in results),
              *(f"{len(res.trace):>14}" for res in results),
              all(res.report.certified for res in results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
