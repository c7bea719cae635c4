"""The benchmark's workloads, called only through strbench's public API.

A pass is one setup plus every operation of a workload; an operation is one
(variant, seed) run.  A ``speed.Clock`` times each call of a pass.  The data
are fixed (``DATA_SEED``) and the benchmark seed picks the optimizer seeds;
README.md gives the reasons and why each workload was chosen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from strbench import cli, datasets, driver, problems

from speed import Clock

DATA_SEED = 8
DELTA = 0.2
PRACTICAL = {"mode": "practical", "kappa_grad": 1.0, "kappa_hess": 0.01}


@dataclass
class Op:
    """One (variant, seed) run: its time in reference seconds, its
    correctness fingerprint, and the reason it failed, if it did."""

    label: str
    seed: int
    seconds: float
    fingerprint: dict
    error: str | None = None

    @property
    def key(self) -> str:
        return f"{self.label}/{self.seed}"


@dataclass
class Pass:
    """One pass; times are in reference seconds (see ``speed.py``) except
    ``wall_s``, which is plain wall seconds."""

    setup_s: float = 0.0
    total_s: float = 0.0  # setup and every timed call
    wall_s: float = 0.0  # the same calls in wall seconds
    run_s: float = 0.0  # cli_small: the run_experiment calls alone
    ops: list[Op] = field(default_factory=list)

    def add(self, wall: float, scale: float) -> None:
        """Count one timed call into the pass totals."""
        self.total_s += wall * scale
        self.wall_s += wall


def fingerprint(iterations, stop_reason, sfo, sso, report: dict, x_final) -> dict:
    return {
        "iterations": int(iterations),
        "stop_reason": stop_reason,
        "sfo": int(sfo),
        "sso": int(sso),
        "certified": bool(report["certified"]),
        "grad_ok": bool(report["grad_ok"]),
        "eig_ok": bool(report["eig_ok"]),
        "grad_norm": float(report["grad_norm"]),
        "min_eig": float(report["min_eig"]),
        "x_final": [float(v) for v in x_final],
    }


class SyntheticWorkload:
    """Generate, build and solve one logistic_nc instance with each variant."""

    variants = ("exact_tr", "str1", "str2")

    def __init__(self, name: str, n: int, d: int, epsilon: float):
        self.name, self.n, self.d, self.epsilon = name, n, d, epsilon

    def prepare(self, work_dir: Path) -> None:
        pass

    def _setup(self):
        data = datasets.generate_synthetic(self.n, self.d, DATA_SEED)
        problem = problems.from_dataset(data, "logistic_nc")
        return problem, problems.lipschitz_bounds(problem)

    def run_pass(self, seed: int, clock: Clock) -> Pass:
        (problem, lip), wall, scale = clock.time(self._setup)
        p = Pass(setup_s=wall * scale)
        p.add(wall, scale)
        for variant in self.variants:
            extra = PRACTICAL if variant != "exact_tr" else {}
            config = driver.RunConfig(variant=variant, epsilon=self.epsilon, delta=DELTA,
                                      lipschitz=lip, seed=seed, **extra)
            try:
                result, wall, scale = clock.time(driver.run, variant, problem, config)
            except driver.RunAborted as exc:
                p.ops.append(Op(variant, seed, 0.0, {}, str(exc)))
                continue
            p.add(wall, scale)
            fp = fingerprint(len(result.trace), result.stop_reason, result.counters.sfo,
                             result.counters.sso, vars(result.report), result.x_final)
            p.ops.append(Op(variant, seed, wall * scale, fp))
        return p


class CliWorkload:
    """``strbench run`` on a LibSVM file, once per variant, then ``compare``
    on all their traces."""

    name = "cli_small"
    n, d, epsilon = 2000, 30, 1e-3
    seeds_per_pass = 3

    def prepare(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.threads = 1
        self.passes = 0
        self.data_path = work_dir / "cli_small.svm"
        data = datasets.generate_synthetic(self.n, self.d, DATA_SEED)
        self.data_path.write_text(datasets.to_libsvm(data), encoding="utf-8")

    def _spec_paths(self, seed: int) -> list[Path]:
        """One experiment spec per variant for benchmark seed ``seed``, which
        runs the spec seeds ``3 seed`` to ``3 seed + 2``; written on first use."""
        common = {"epsilon": self.epsilon, "delta": DELTA}
        variants = [
            {"variant": "exact_tr", **common},
            {"variant": "str1", **common, **PRACTICAL},
            {"variant": "str2", **common, **PRACTICAL},
            {"variant": "subsampled", **common,
             "sub_s1": 2000, "sub_s2": 1000, "K_override": 600},
        ]
        paths = []
        for vspec in variants:
            path = self.work_dir / f"cli_small_{seed}_{vspec['variant']}.json"
            if not path.exists():
                spec = {
                    "task": "nls_nc",
                    "dataset": {"path": str(self.data_path)},
                    "seeds": [self.seeds_per_pass * seed + i for i in range(self.seeds_per_pass)],
                    "variants": [vspec],
                }
                path.write_text(json.dumps(spec), encoding="utf-8")
            paths.append(path)
        return paths

    def run_pass(self, seed: int, clock: Clock) -> Pass:
        specs = self._spec_paths(seed)
        _, wall, scale = clock.time(lambda: cli.build_problem(cli.load_spec(specs[0])))
        p = Pass(setup_s=wall * scale)
        p.add(wall, scale)

        self.passes += 1
        out = self.work_dir / f"out{self.passes}"
        codes = []
        for i, spec_path in enumerate(specs):
            run_out = out / str(i)
            code, wall, scale = clock.time(cli.run_experiment, spec_path, out_dir=run_out,
                                           threads=self.threads)
            p.add(wall, scale)
            p.run_s += wall * scale
            codes.append(code)
            p.ops += _summary_ops(run_out, scale)
        merged, wall, scale = clock.time(cli.compare, sorted(out.glob("*/trace_*.csv")),
                                         out_path=out / "merged.csv")
        p.add(wall, scale)

        code = max(codes)
        error = _compare_error(merged, p.ops) or (f"run_experiment exited {code}" if code else None)
        if error:
            for op in p.ops:
                op.error = op.error or error
        return p


def _summary_ops(out: Path, scale: float) -> list[Op]:
    """The operations of one ``run_experiment``, read from its summary."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    ops = []
    for entry in summary["runs"]:
        label, run_seed = entry["label"], entry["seed"]
        if entry["failed"]:
            ops.append(Op(label, run_seed, 0.0, {}, entry.get("error", "failed")))
            continue
        fp = fingerprint(entry["iterations"], entry["stop_reason"],
                         entry["counters"]["sfo"], entry["counters"]["sso"],
                         entry["report"], entry["x_final"])
        ops.append(Op(label, run_seed, _trace_seconds(out, label, run_seed) * scale, fp))
    return ops


def _trace_seconds(out: Path, label: str, seed: int) -> float:
    """Loop wall time of one run, from the ``wall_ms`` of its last trace row."""
    lines = (out / f"trace_{label}_{seed}.csv").read_text(encoding="utf-8").splitlines()
    return float(lines[-1].rsplit(",", 1)[1]) / 1e3


def _compare_error(merged: list[dict], ops: list[Op]) -> str | None:
    """``compare`` must keep every trace row and measure gaps from the best."""
    rows = sum(op.fingerprint.get("iterations", 0) for op in ops)
    if len(merged) != rows:
        return f"compare merged {len(merged)} rows, traces hold {rows}"
    gaps = [float(r["fval_gap"]) for r in merged]
    if min(gaps) != 0.0 or not all(np.isfinite(gaps)):
        return "compare gaps are not measured from the best objective value"
    return None


WORKLOADS = {
    "tall": lambda: SyntheticWorkload("tall", 12000, 50, 1e-2),
    "wide": lambda: SyntheticWorkload("wide", 1000, 400, 4e-3),
    "cli_small": CliWorkload,
}
