"""Span tracing of strbench's public functions, from outside the package.

``Tracer.install`` replaces each traced function at every place it is bound:
the defining module and every ``strbench`` module that imported it by name
(``estimators``, ``driver`` and ``cli`` do).  Spans stay in memory;
``per_layer`` turns them into per-pass layer metrics and ``coverage_errors``
checks that the billed oracle spans add up to each run's reported counters.

``bytes_computed`` and ``flops_computed`` are computed from array shapes
(8-byte floats), not measured.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# Public functions the benchmark traces, as (module, attribute) pairs.
TARGETS = (
    ("strbench.datasets", "generate_synthetic"),
    ("strbench.datasets", "load_libsvm"),
    ("strbench.problems", "full_value"),
    ("strbench.problems", "full_gradient"),
    ("strbench.problems", "full_hessian"),
    ("strbench.problems", "batch_gradient"),
    ("strbench.problems", "batch_hessian"),
    ("strbench.problems", "batch_hvp"),
    ("strbench.problems", "lipschitz_bounds"),
    ("strbench.estimators", "spider_step"),
    ("strbench.estimators", "corrected_step"),
    ("strbench.estimators", "hessian_estimate_step"),
    ("strbench.trs", "solve_trs_exact"),
    ("strbench.trs", "sym_eig"),
    ("strbench.driver", "run"),
    ("strbench.driver", "verify_sosp"),
    ("strbench.driver", "resolve_config"),
    ("strbench.cli", "build_problem"),
    ("strbench.cli", "run_experiment"),
    ("strbench.cli", "write_trace"),
    ("strbench.cli", "compare"),
)

ORACLES = ("full_value", "full_gradient", "full_hessian",
           "batch_gradient", "batch_hessian", "batch_hvp")
FIRST_ORDER = ("full_gradient", "batch_gradient")
SECOND_ORDER = ("full_hessian", "batch_hessian", "batch_hvp")
ESTIMATORS = ("spider_step", "corrected_step", "hessian_estimate_step")
VARIANTS = ("exact_tr", "str1", "str2", "subsampled")
CLI_STEPS = ("build_problem", "run_experiment", "write_trace", "compare")

# Every SHADOW_EVERY-th exact TRS input is kept for the Lanczos replay.
SHADOW_EVERY = 16
SHADOW_MAX = 8


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    run: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _oracle_info(pos_counters, full):
    """Rows, width and counter object of one oracle call."""

    def before(span, args, kwargs):
        problem = _arg(args, kwargs, 0, "problem")
        if full:
            rows = problem.n
        else:
            rows = int(np.size(_arg(args, kwargs, 2, "idx")))
        span.info.update(rows=rows, d=problem.d,
                         counters=_arg(args, kwargs, pos_counters, "counters"))

    return before


def _estimator_before(span, args, kwargs):
    span.info["reset"] = _arg(args, kwargs, 0, "state").k_in_epoch == 0


def _run_before(span, args, kwargs):
    span.info["variant"] = _arg(args, kwargs, 0, "variant")


def _run_after(span, result):
    span.info.update(iterations=len(result.trace), counters=result.counters)


def _trs_after(span, result):
    span.info.update(on_boundary=bool(result.on_boundary), converged=bool(result.converged))


def _eig_before(span, args, kwargs):
    span.info["d"] = int(np.shape(_arg(args, kwargs, 0, "A"))[0])


def _libsvm_before(span, args, kwargs):
    span.info["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


class Tracer:
    """In-memory span recorder; one instance per traced benchmark run."""

    def __init__(self, keep_trs_inputs: bool = False):
        self.spans: list[Span] = []
        self.trs_inputs: list[tuple] = []
        self._keep_trs_inputs = keep_trs_inputs
        self._trs_seen = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            top = stack[-1] if stack else None
            with tracer._lock:
                sid = next(tracer._ids)
            run = sid if name == "driver.run" else (top.run if top else None)
            span = Span(sid, name, top.id if top else None, threading.get_ident(), run)
            if before is not None:
                before(span, args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                after(span, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _keep_trs(self, span, args, kwargs):
        self._trs_seen += 1
        if self._trs_seen % SHADOW_EVERY == 0 and len(self.trs_inputs) < SHADOW_MAX:
            g, H = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "H")
            self.trs_inputs.append((np.array(g, dtype=float), np.array(H, dtype=float),
                                    float(_arg(args, kwargs, 2, "r")),
                                    float(_arg(args, kwargs, 3, "L2"))))

    def _hooks(self, module, attr):
        if module == "strbench.problems" and attr in ORACLES:
            pos = 4 if attr == "batch_hvp" else (2 if attr.startswith("full_") else 3)
            return _oracle_info(pos, attr.startswith("full_")), None
        if module == "strbench.estimators":
            return _estimator_before, None
        if attr == "solve_trs_exact":
            return (self._keep_trs if self._keep_trs_inputs else None), _trs_after
        if attr == "sym_eig":
            return _eig_before, None
        if attr == "run":
            return _run_before, _run_after
        if attr == "load_libsvm":
            return _libsvm_before, None
        return None, None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at each place a ``strbench`` module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "strbench" or n.startswith("strbench."))]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            before, after = self._hooks(module_name, attr)
            short = module_name.rsplit(".", 1)[1]
            wrapper = self._wrap(f"{short}.{attr}", original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        dataset_cls = sys.modules["strbench.datasets"].Dataset
        to_dense = dataset_cls.to_dense
        self._patches.append((dataset_cls, "to_dense", to_dense))
        dataset_cls.to_dense = self._wrap("datasets.to_dense", to_dense)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def _nested_oracles(self) -> set[int]:
        """Ids of oracle spans inside another oracle span (``full_*`` delegates
        to ``batch_*``); their work belongs to the outer span."""
        by_id = {s.id: s for s in self.spans}
        return {
            s.id for s in self.spans
            if s.name.split(".", 1)[1] in ORACLES and s.parent in by_id
            and by_id[s.parent].name.split(".", 1)[1] in ORACLES
        }

    def _children(self, skip: set[int]) -> dict[int, float]:
        """Time each span's child spans cover, leaving out the ``skip`` ids."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None and s.id not in skip:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
        return covered

    def coverage_errors(self) -> list[str]:
        """Runs whose billed oracle spans do not add up to the reported sfo/sso.

        A span is billed when it was handed the run's own counter object; only
        the outermost oracle span counts (``full_*`` delegates to ``batch_*``).
        """
        nested = self._nested_oracles()
        runs = {s.run: s for s in self.spans
                if s.name == "driver.run" and "counters" in s.info}
        sums = {rid: [0, 0] for rid in runs}
        for s in self.spans:
            kind = s.name.split(".", 1)[1]
            if kind not in ORACLES or s.run not in runs or s.id in nested:
                continue
            if s.info["counters"] is not runs[s.run].info["counters"]:
                continue
            if kind in FIRST_ORDER:
                sums[s.run][0] += s.info["rows"]
            elif kind in SECOND_ORDER:
                sums[s.run][1] += s.info["rows"]
        errors = []
        for rid, run in runs.items():
            counters = run.info["counters"]
            if sums[rid] != [counters.sfo, counters.sso]:
                errors.append(
                    f"run {rid} ({run.info['variant']}): spans bill sfo/sso "
                    f"{sums[rid]}, run reports [{counters.sfo}, {counters.sso}]"
                )
        return errors

    def per_layer(self, passes: int) -> dict[str, float]:
        """Layer metrics per traced pass (sums divided by ``passes``).

        Only outermost oracle spans count: a full pass counts once, under
        ``full_*``, and ``batch_*`` covers direct batch calls only.
        """
        nested = self._nested_oracles()
        covered = self._children(nested)
        by_id = {s.id: s for s in self.spans}
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            if s.id not in nested:
                by_name.setdefault(s.name, []).append(s)

        def spans(name):
            return by_name.get(name, [])

        def total(name):
            return sum(s.duration for s in spans(name)) / passes

        def self_s(name):
            return sum(s.duration - covered.get(s.id, 0.0) for s in spans(name)) / passes

        def p50_ms(name):
            found = spans(name)
            return statistics.median(s.duration for s in found) * 1e3 if found else 0.0

        def frac(name, key):
            found = spans(name)
            return sum(s.info[key] for s in found) / len(found) if found else 0.0

        m: dict[str, float] = {}
        for name in ("generate_synthetic", "to_dense", "load_libsvm"):
            m[f"datasets.{name}.s"] = total(f"datasets.{name}")
        m["datasets.load_libsvm.bytes"] = sum(
            s.info["bytes"] for s in spans("datasets.load_libsvm")) / passes
        for kind in ORACLES:
            name = f"problems.{kind}"
            rows = sum(s.info["rows"] for s in spans(name))
            nbytes = sum(8 * s.info["rows"] * s.info["d"]
                         + (8 * s.info["d"] ** 2 if kind in ("full_hessian", "batch_hessian")
                            else 0)
                         for s in spans(name))
            m[f"{name}.calls"] = len(spans(name)) / passes
            m[f"{name}.self_s"] = self_s(name)
            m[f"{name}.p50_ms"] = p50_ms(name)
            m[f"{name}.rows"] = rows / passes
            m[f"{name}.bytes_computed"] = nbytes / passes
        m["problems.lipschitz_bounds.s"] = total("problems.lipschitz_bounds")
        for kind in ESTIMATORS:
            found = spans(f"estimators.{kind}")
            for phase, is_reset in (("reset", True), ("recur", False)):
                chosen = [s for s in found if s.info["reset"] == is_reset]
                m[f"estimators.{kind}.{phase}_calls"] = len(chosen) / passes
                m[f"estimators.{kind}.{phase}_s"] = sum(s.duration for s in chosen) / passes
        name = "trs.solve_trs_exact"
        m[f"{name}.calls"] = len(spans(name)) / passes
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.p50_ms"] = p50_ms(name)
        m[f"{name}.boundary_frac"] = frac(name, "on_boundary")
        m[f"{name}.converged_frac"] = frac(name, "converged")
        m["trs.sym_eig.calls"] = len(spans("trs.sym_eig")) / passes
        m["trs.sym_eig.s"] = total("trs.sym_eig")
        # symmetric QR with eigenvectors: about 9 d^3 flops (Golub & Van Loan)
        m["trs.sym_eig.flops_computed"] = sum(
            9.0 * s.info["d"] ** 3 for s in spans("trs.sym_eig")) / passes

        runs = spans("driver.run")
        run_time = sum(s.duration for s in runs)
        billed = {s.run: s.info.get("counters") for s in runs}
        diag = sum(
            s.duration for s in self.spans
            if s.name in ("problems.full_value", "problems.full_gradient")
            and s.parent in by_id and by_id[s.parent].name == "driver.run"
            and s.info["counters"] is not billed.get(s.run)
        )
        m["driver.diag_s"] = diag / passes
        m["driver.diag_share"] = diag / run_time if run_time else 0.0
        m["driver.verify_sosp.s"] = total("driver.verify_sosp")
        m["driver.resolve_config.calls"] = len(spans("driver.resolve_config")) / passes
        m["driver.resolve_config.s"] = total("driver.resolve_config")
        m["driver.loop_other_s"] = self_s("driver.run")
        for variant in VARIANTS:
            m[f"driver.iterations.{variant}"] = sum(
                s.info.get("iterations", 0) for s in runs if s.info["variant"] == variant
            ) / passes
        for step in CLI_STEPS:
            m[f"cli.{step}.s"] = total(f"cli.{step}")
        return m
