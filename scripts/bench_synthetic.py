#!/usr/bin/env python3
"""Run the full variant comparison on a synthetic instance and print a table.

Example:
    python scripts/bench_synthetic.py --n 2000 --d 30 --epsilon 1e-3 --out runs/demo
"""

import argparse
import json
import sys
from pathlib import Path

from strbench.cli import compare, run_experiment


def build_spec(args) -> dict:
    variants = [
        {"variant": "exact_tr", "epsilon": args.epsilon, "delta": args.delta},
        {
            "variant": "str1", "epsilon": args.epsilon, "delta": args.delta,
            "mode": "practical", "kappa_grad": 1.0, "kappa_hess": args.kappa,
        },
        {
            "variant": "str2", "epsilon": args.epsilon, "delta": args.delta,
            "mode": "practical", "kappa_grad": 1.0, "kappa_hess": args.kappa,
        },
        {
            "variant": "subsampled", "epsilon": args.epsilon, "delta": args.delta,
            "sub_s1": args.n, "sub_s2": max(1, args.n // 2),
            "K_override": args.baseline_cap,
        },
    ]
    return {
        "task": args.task,
        "dataset": {"synthetic": {"n": args.n, "d": args.d, "seed": args.data_seed}},
        "seeds": args.seeds,
        "variants": variants,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--task", default="logistic_nc",
                    choices=["logistic_nc", "nls_nc", "synthetic_quad"])
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--d", type=int, default=30)
    ap.add_argument("--data-seed", type=int, default=8)
    ap.add_argument("--epsilon", type=float, default=1e-3)
    ap.add_argument("--delta", type=float, default=0.2)
    ap.add_argument("--kappa", type=float, default=0.01,
                    help="practical-mode Hessian sample-size multiplier")
    ap.add_argument("--baseline-cap", type=int, default=600,
                    help="iteration cap for the subsampled baseline")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", type=Path, default=Path("runs/bench_synthetic"))
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    spec_path = args.out / "spec.json"
    spec_path.write_text(json.dumps(build_spec(args), indent=2))
    code = run_experiment(spec_path, out_dir=args.out, threads=args.threads)
    if code != 0:
        print(f"experiment finished with exit code {code}", file=sys.stderr)
        return code

    summary = json.loads((args.out / "summary.json").read_text())
    print(f"\n{'variant':<12} {'seed':>4} {'iters':>6} {'sfo':>10} {'sso':>10} "
          f"{'|grad|':>10} {'certified':>9} {'stop':>15}")
    for entry in summary["runs"]:
        rep = entry["report"]
        print(f"{entry['label']:<12} {entry['seed']:>4} {entry['iterations']:>6} "
              f"{entry['counters']['sfo']:>10} {entry['counters']['sso']:>10} "
              f"{rep['grad_norm']:>10.2e} {str(rep['certified']):>9} "
              f"{entry['stop_reason']:>15}")

    traces = sorted(args.out.glob("trace_*.csv"))
    compare(traces, out_path=args.out / "merged.csv")
    print(f"\nmerged long-format trace: {args.out / 'merged.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
