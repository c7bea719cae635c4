#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a base revision against this tree.

Checks ``--base`` out with ``git worktree add`` into a temporary directory
(no network needed), then runs ``perfbench/run.py --workload W --seed K
--seconds S`` ``--pairs`` times in each tree, alternating which tree runs
first.  Every run must end ``correct``; otherwise the script stops with
exit 1.  It prints one JSON line:

* ``metrics``: per end-to-end metric, both medians, ``ratio`` (change over
  base), ``change_lower`` (pairs in which this tree read lower) and
  ``base_iqr`` (the distance between the base runs' quartiles);
* ``fingerprints_identical``: whether every run of both trees printed the same
  ``fingerprint`` lines, those of the seed-0 reference pass among them.

The worktree is removed at exit.  Example, from the root of a checkout:
    python3 scripts/pairs.py --base HEAD~1 --workload cli_small --pairs 10 \\
        --seconds 32 --seed 43
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def bench(tree: Path, args) -> tuple[dict, list[str]]:
    """One ``perfbench/run.py`` run in ``tree``: its metrics and its
    fingerprint lines.  A run that fails or is not correct raises."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: a run is not correct\n{proc.stdout}")
    return ({name: m["value"] for name, m in result["metrics"].items()},
            [line for line in lines if line.startswith("fingerprint ")])


def summarize(base: list[dict], change: list[dict]) -> dict:
    out = {}
    for name in base[0]:
        b, c = [run[name] for run in base], [run[name] for run in change]
        mb, mc = statistics.median(b), statistics.median(c)
        q1, _, q3 = statistics.quantiles(b, n=4, method="inclusive") if len(b) > 1 else b * 3
        out[name] = {"base_median": mb, "change_median": mc,
                     "ratio": mc / mb if mb else None,
                     "change_lower": sum(y < x for x, y in zip(b, c)),
                     "base_iqr": q3 - q1}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, choices=("tall", "wide", "cli_small"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--seed", type=int, default=43)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be >= 1 and --seconds positive")
    try:
        rev = _git("rev-parse", "--verify", args.base + "^{commit}")
    except subprocess.CalledProcessError as exc:
        ap.error(f"--base {args.base!r} is not a commit: {exc.stderr.strip()}")

    # a terminated script unwinds like an exception, so the worktree is removed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    runs = {"base": [], "change": []}
    fingerprints = set()
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(base_tree), rev)
        try:
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    metrics, lines = bench(base_tree if side == "base" else ROOT, args)
                    runs[side].append(metrics)
                    fingerprints.add(tuple(lines))
                    print(f"pair {i + 1} {side}: " + json.dumps(metrics), file=sys.stderr)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            _git("worktree", "remove", "--force", str(base_tree))
    print(json.dumps({
        "workload": args.workload, "base": rev, "pairs": args.pairs,
        "seconds": args.seconds, "seed": args.seed,
        "metrics": summarize(runs["base"], runs["change"]),
        "fingerprints_identical": len(fingerprints) == 1,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
