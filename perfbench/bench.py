"""Measurement loops, correctness checks and metrics of the benchmark.

Imported by ``run.py`` once BLAS is pinned to one thread and ``strbench`` is
importable from the checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from strbench import trs

from speed import Clock
from tracer import Tracer
from workloads import WORKLOADS, CliWorkload, Op, Pass

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 0
MIN_PASSES = 2  # a floor for slow machines; a normal run fits five or more
X_TOL = 1e-12  # iterates and certificate values must match references this closely
EXACT_KEYS = ("iterations", "stop_reason", "sfo", "sso", "certified", "grad_ok", "eig_ok")
RUN_VARIANTS = ("exact_tr", "str1", "str2")


# -- environment --------------------------------------------------------------


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_seconds() -> float:
    """CPU time the hypervisor gave to others while this VM wanted it."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def environment(workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "pinned": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS", "NUMPY_MADVISE_HUGEPAGE")},
        "note": "bytes_computed and flops_computed are computed from array shapes, "
                "not measured",
    }
    if hasattr(workload, "n"):
        env["X_bytes"] = 8 * workload.n * workload.d
    return env


# -- correctness --------------------------------------------------------------


def _mismatch(fp: dict, ref: dict) -> str | None:
    for key in EXACT_KEYS:
        if fp[key] != ref[key]:
            return f"{key} {fp[key]!r} != reference {ref[key]!r}"
    for key in ("grad_norm", "min_eig"):
        if abs(fp[key] - ref[key]) > X_TOL:
            return f"{key} {fp[key]!r} differs from reference {ref[key]!r}"
    if len(fp["x_final"]) != len(ref["x_final"]):
        return "x_final has the wrong length"
    dev = float(np.max(np.abs(np.subtract(fp["x_final"], ref["x_final"]))))
    if dev > X_TOL:
        return f"x_final differs from reference by {dev:.3e}"
    return None


class Checker:
    """Counts operations and the ones that fail.

    An operation fails if it aborts, does not certify, differs from the
    stored reference (the reference pass of every run), or differs from the
    same operation in an earlier pass of this run.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.rejected = False  # a check of the whole run failed

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.rejected

    def reject(self, errors: list[str]) -> None:
        for error in errors:
            self.rejected = True
            print(f"FAILED {self.workload}: {error}")

    def check(self, passes: list[Pass], references: dict | None = None) -> None:
        """Check every operation of ``passes``; with ``references``, also
        compare each against its stored fingerprint."""
        for p in passes:
            for op in p.ops:
                self.attempted += 1
                error = self._error(op, references)
                if error:
                    self.failed += 1
                    print(f"FAILED {self.workload} {op.key}: {error}")

    def _error(self, op: Op, references: dict | None) -> str | None:
        if op.error:
            return op.error
        fp = op.fingerprint
        if not fp["certified"]:
            return "run did not certify an approximate SOSP"
        if references is not None:
            ref = references.get(op.key)
            if ref is None:
                return "no reference fingerprint"
            error = _mismatch(fp, ref)
            if error:
                return error
        if op.key not in self.first:
            self.first[op.key] = fp
            print(f"fingerprint {self.workload} {op.key} " + _digest(fp))
            return None
        if fp != self.first[op.key]:
            return "result differs from an earlier pass of the same inputs"
        return None


def _digest(fp: dict) -> str:
    x = np.asarray(fp["x_final"])
    return " ".join(
        [f"{k}={fp[k]}" for k in EXACT_KEYS]
        + [f"grad_norm={fp['grad_norm']!r}", f"min_eig={fp['min_eig']!r}",
           f"x_norm={float(np.linalg.norm(x))!r}", f"x_sum={float(x.sum())!r}"]
    )


def load_references(workload: str) -> dict:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8")).get(workload, {})


def record_references(workload: str, reference: Pass) -> None:
    stored = json.loads(REFERENCES.read_text(encoding="utf-8")) if REFERENCES.exists() else {}
    stored[workload] = {op.key: op.fingerprint for op in reference.ops}
    REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# -- measurement --------------------------------------------------------------


def _timed_loop(step, seconds: float, minimum: int, reserve: float = 0.0) -> None:
    """Call ``step`` at least ``minimum`` times, then while another call
    (at the mean cost so far) still ends within ``seconds - reserve``."""
    start = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        elapsed = time.perf_counter() - start
        if calls >= minimum and elapsed * (calls + 1) / calls > seconds - reserve:
            return


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    """Medians over passes; times in reference seconds (``speed.py``)."""
    med = statistics.median
    metrics = {
        "setup_s": med(p.setup_s for p in passes),
        "total_s": med(p.total_s for p in passes),
    }
    for variant in RUN_VARIANTS:  # mean over a pass's seeds, median over passes
        metrics[f"run_s.{variant}"] = med(
            statistics.fmean(op.seconds for op in p.ops if op.label == variant) for p in passes
        )
    for counter in ("sfo", "sso"):
        metrics[counter] = med(sum(op.fingerprint.get(counter, 0) for op in p.ops)
                               for p in passes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def shadow_lanczos(inputs) -> dict[str, float]:
    """Replay sampled exact-TRS inputs through the Krylov solver."""
    ms, dims, converged, ratio = [], [], [], []
    for g, H, r, L2 in inputs:
        t0 = time.perf_counter()
        trs.solve_trs_exact(g, H, r, L2)
        t1 = time.perf_counter()
        try:
            sol = trs.solve_trs_lanczos(g, lambda v: H @ v, len(g), r, L2,
                                        rng=np.random.default_rng(0))
            dims.append(sol.krylov_dim)
            converged.append(sol.converged)
        except trs.TrsNumericError:
            converged.append(False)
        t2 = time.perf_counter()
        ms.append((t2 - t1) * 1e3)
        ratio.append((t2 - t1) / (t1 - t0))
    med = statistics.median
    return {
        "trs.shadow_lanczos.p50_ms": med(ms) if ms else 0.0,
        "trs.shadow_lanczos.krylov_dim_p50": med(dims) if dims else 0.0,
        "trs.shadow_lanczos.converged_frac": sum(converged) / len(converged) if inputs else 0.0,
        "trs.shadow_lanczos.over_exact": med(ratio) if ratio else 0.0,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, record: bool,
            work_dir: Path) -> tuple[dict, Checker]:
    """Run one workload; return its metrics and the checker of its results."""
    workload = WORKLOADS[name]()
    print("env " + json.dumps(environment(workload), sort_keys=True), flush=True)
    workload.prepare(work_dir)
    checker = Checker(name)
    # Untimed reference pass on the default seed, checked against the stored
    # fingerprints whatever ``seed`` is; it also warms caches for the timing.
    reference = workload.run_pass(DEFAULT_SEED, Clock(calibrate=False))
    if record:
        record_references(name, reference)
    checker.check([reference], None if record else load_references(name))

    untraced: list[Pass] = []
    clock = Clock()  # timed calls in reference seconds; spans stay in wall seconds
    if not trace:
        _timed_loop(lambda: untraced.append(workload.run_pass(seed, clock)), seconds, MIN_PASSES)
        checker.check(untraced)
        # not a metric: what the machine's speed did to the wall times
        print(f"wall_s total {statistics.median(p.wall_s for p in untraced):.4f} "
              f"reference_s total {statistics.median(p.total_s for p in untraced):.4f}")
        return end_to_end(untraced), checker

    is_cli = isinstance(workload, CliWorkload)
    tracer = Tracer(keep_trs_inputs=(name == "wide"))
    traced: list[Pass] = []

    def pair():
        untraced.append(workload.run_pass(seed, clock))
        tracer.install()
        try:
            traced.append(workload.run_pass(seed, clock))
        finally:
            tracer.uninstall()

    # leave room for the two-thread cli pass after the loop
    reserve = seconds / 3 if is_cli else 0.0
    _timed_loop(pair, seconds, 1, reserve)
    metrics = tracer.per_layer(len(traced))
    checker.reject(tracer.coverage_errors())
    med = statistics.median
    metrics["tracing.overhead_frac"] = (
        med(p.total_s for p in traced) / med(p.total_s for p in untraced) - 1.0
    )
    metrics["cli.parallel_efficiency"] = 0.0
    if is_cli:
        single = med(p.run_s for p in untraced)
        workload.threads = 2
        untraced.append(workload.run_pass(seed, clock))
        metrics["cli.parallel_efficiency"] = single / (2 * untraced[-1].run_s)
    metrics.update(shadow_lanczos(tracer.trs_inputs))
    checker.check(untraced + traced)
    return metrics, checker
