#!/usr/bin/env python3
"""strbench benchmark: wall time to a certified second-order stationary point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {tall,wide,cli_small} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics from a traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  An
operation is one (variant, seed) run of the optimizer.

Every run first makes one untimed pass with the default seed and compares
its fingerprints with ``references.json``; ``--record`` stores that pass's
fingerprints there instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread; no huge-page advice on numpy's large arrays.  With that
# advice on, how many of an array's pages are huge depends on where address
# randomization puts it, which moved times by up to 35% between processes.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("tall", "wide", "cli_small"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write the default-seed fingerprints to references.json")
    return ap.parse_args(argv)


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # BLAS and numpy read these when numpy is first imported.
    os.environ.update(PINNED_ENV)
    os.environ.pop("STR_SEED", None)  # the CLI would override the spec's seeds
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import strbench
    except ImportError as exc:
        print(f"error: cannot import strbench from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(strbench.__file__).resolve().parent != src / "strbench":
        print(f"error: strbench imported from {strbench.__file__}, not {src}", file=sys.stderr)
        return 2
    import bench

    units = declared_metrics(bool(args.trace))
    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    steal = bench.steal_seconds()
    try:
        metrics, checker = bench.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.record, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    # Machine noise, not a metric: time the hypervisor ran others instead.
    print(f"steal_s {bench.steal_seconds() - steal:.2f}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
