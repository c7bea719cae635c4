"""Benchmark harness CLI.

``strbench run <spec.json> [--out DIR] [--threads N]`` checks the whole
experiment spec, every variant option included, then executes each of its
(variant, seed) pairs, writing one ``trace_<label>_<seed>.csv`` per run plus a
``summary.json`` under ``DIR`` (default ``out``).

``strbench compare <trace.csv>... [--out FILE]`` merges traces into one
long-format CSV with the objective gap against the best value seen anywhere.

Exit codes: 2 any bad input (an unreadable or invalid spec, dataset, variant
option or trace, an ``--out`` that cannot be created or written, or
``--threads`` below 1), with nothing run or written; 1 a
run aborted numerically, reported in ``summary.json``; 0 otherwise (a failed
certificate is reported, not an error).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import operator
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .datasets import generate_synthetic, load_libsvm
from .driver import IterateRecord, RunAborted, RunConfig, check_batch_sizes, run
from .problems import (
    KINDS,
    FiniteSumProblem,
    LipschitzBounds,
    from_dataset,
    lipschitz_bounds,
    quadratic_problem,
)

# one column per IterateRecord field, in field order; ``wall_ms`` is last
TRACE_HEADER = [f.name for f in dataclasses.fields(IterateRecord)]
_TRACE_VALUES = operator.attrgetter(*TRACE_HEADER[:-1])
COMPARE_HEADER = ["variant", "seed", "k", "fval_gap", "grad_norm", "sso", "sfo", "wall_ms"]
# A compare row is the trace's variant and seed, then these trace columns;
# ``fval`` becomes ``fval_gap`` once the best value of all inputs is known.
_COMPARE_FROM_TRACE = operator.itemgetter(
    *("fval" if col == "fval_gap" else col for col in COMPARE_HEADER[2:]))

LIP_MODES = ("analytic", "sampled")

# RunConfig fields a variant spec may set; the rest come from the spec's
# structure (variant, seeds, L1/L2) or are library-only objects.
_CONFIG_KEYS = frozenset(
    f.name for f in dataclasses.fields(RunConfig)
) - {"variant", "lipschitz", "seed", "x0", "grad_schedule", "hess_schedule"}


class SpecError(ValueError):
    """Unreadable or invalid experiment spec / dataset."""


class TraceFormatError(ValueError):
    """A trace file is misnamed, lacks the canonical header or has a malformed row."""


@dataclass
class VariantSpec:
    variant: str
    label: str
    options: dict = field(default_factory=dict)


@dataclass
class ExperimentSpec:
    task: str  # logistic_nc | nls_nc | synthetic_quad
    dataset: dict
    variants: list[VariantSpec]
    seeds: list[int] = field(default_factory=lambda: [0])
    reg_lambda: float = 1e-3
    reg_alpha: float = 10.0
    normalize_rows: bool = False
    lip_mode: str = "analytic"  # how variants without L1/L2 get their bounds


_SPEC_KEYS = frozenset(f.name for f in dataclasses.fields(ExperimentSpec))
_DATASET_FORMS = ({"path"}, {"path", "d"}, {"synthetic"})  # a LibSVM file or generated data


def _json_int(value, name: str) -> int:
    """A JSON integer; floats, strings and booleans are not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    return value


def _json_number(value, name: str) -> float:
    """A JSON number as a float; strings and booleans are not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{name} must be a number, got {value!r}")
    return float(value)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows a float64")
    return value


def _int64(text: str) -> int:
    value = int(text)  # raises past Python's digit limit
    if not -2**63 <= value < 2**63:
        raise ValueError(f"integer {text[:20]}{'...' if len(text) > 20 else ''} "
                         "does not fit in an int64")
    return value


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _json_ints(value, name: str) -> list[int]:
    if not isinstance(value, list):
        raise SpecError(f"{name} must be a list of integers, got {value!r}")
    return [_json_int(v, name) for v in value]


def _json_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{name} must be true or false, got {value!r}")
    return value


def _object(value, name: str, keys) -> dict:
    """A JSON object whose keys all lie in ``keys``; no key is ignored."""
    if not isinstance(value, dict):
        raise SpecError(f"{name} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise SpecError(f"unknown {name} keys {unknown}, expected some of {sorted(keys)}")
    return value


def _variant_spec(frag) -> VariantSpec:
    frag = dict(frag)
    name = frag.pop("variant")
    label = frag.pop("label", name)
    # the label names the trace file
    if not (isinstance(label, str) and label) or "/" in label or "\0" in label:
        raise ValueError(f"label {label!r} cannot name a trace file")
    return VariantSpec(variant=name, label=label, options=frag)


def _trace_name(label: str, seed: int) -> str:
    return f"trace_{label}_{seed}.csv"


def load_spec(path) -> ExperimentSpec:
    """Read and check an experiment spec.  Its keys are the ``ExperimentSpec``
    fields, whose defaults fill the keys it omits; any other key is an error.
    Every number must fit a float64 or, written as an integer, an int64.  Each
    label must make ``trace_<label>_<seed>.csv`` a UTF-8 file name of at most
    255 bytes at every seed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite_float, parse_int=_int64,
                            parse_constant=_no_constant)
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    raw = _object(raw, "spec", _SPEC_KEYS)
    try:
        spec = ExperimentSpec(**raw)
        spec = dataclasses.replace(
            spec,
            variants=[_variant_spec(frag) for frag in spec.variants],
            seeds=_json_ints(spec.seeds, "seeds"),
            reg_lambda=_json_number(spec.reg_lambda, "reg_lambda"),
            reg_alpha=_json_number(spec.reg_alpha, "reg_alpha"),
            normalize_rows=_json_bool(spec.normalize_rows, "normalize_rows"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"invalid spec {path}: {exc}") from exc
    if not spec.variants or not spec.seeds:
        raise SpecError("spec needs at least one variant and one seed")
    bad = [s for s in spec.seeds if not 0 <= s < 2**63]  # numpy seeds, file-name sized
    if bad:
        raise SpecError(f"seeds must lie in [0, 2**63), got {bad[0]}")
    for v in spec.variants:
        name = _trace_name(v.label, max(spec.seeds))  # the seed with the most digits
        try:
            fits = len(name.encode("utf-8")) <= 255  # a file name's byte limit
        except UnicodeEncodeError:
            fits = False
        if not fits:
            raise SpecError(f"label {v.label!r} cannot name a trace file: {name!r} is not "
                            "a UTF-8 name of at most 255 bytes")
    for name, values in (("labels", [v.label for v in spec.variants]), ("seeds", spec.seeds)):
        repeated = sorted(v for v, count in Counter(values).items() if count > 1)
        if repeated:
            raise SpecError(f"{name} {repeated} repeat: each (label, seed) names one trace file")
    if not isinstance(spec.dataset, dict) or set(spec.dataset) not in _DATASET_FORMS:
        raise SpecError("dataset must be {'path': file} with an optional 'd', or "
                        f"{{'synthetic': params}}, got {spec.dataset!r}")
    if spec.task not in KINDS:
        raise SpecError(f"unknown task {spec.task!r}")
    if spec.lip_mode not in LIP_MODES:
        raise SpecError(f"unknown lip_mode {spec.lip_mode!r}, expected one of {LIP_MODES}")
    return spec


def build_problem(spec: ExperimentSpec) -> FiniteSumProblem:
    ds_spec = spec.dataset
    if "synthetic" in ds_spec:
        quad = spec.task == "synthetic_quad"
        params = _object(ds_spec["synthetic"], "synthetic",
                         ("n", "d", "seed") if quad else ("n", "d", "seed", "separable"))
        try:
            n, d = _json_int(params["n"], "n"), _json_int(params["d"], "d")
            seed = _json_int(params.get("seed", 0), "seed")
            if quad:
                return quadratic_problem(n=n, d=d, seed=seed)
            dataset = generate_synthetic(
                n=n, d=d, seed=seed,
                separable=_json_bool(params.get("separable", False), "separable"),
            )
        except (KeyError, TypeError, ValueError, OverflowError, MemoryError) as exc:
            raise SpecError(f"invalid synthetic dataset spec: {exc}") from exc
    elif spec.task == "synthetic_quad":
        raise SpecError("task synthetic_quad needs a 'synthetic' dataset")
    else:
        if not isinstance(ds_spec["path"], str):  # an int would open a file descriptor
            raise SpecError(f"dataset path must be a string, got {ds_spec['path']!r}")
        d = ds_spec.get("d")
        if d is not None:
            _json_int(d, "d")
        try:
            dataset = load_libsvm(ds_spec["path"], d_override=d)
        except (OSError, TypeError, ValueError) as exc:
            raise SpecError(f"cannot load dataset {ds_spec['path']}: {exc}") from exc
    try:
        return from_dataset(
            dataset,
            spec.task,
            reg_lambda=spec.reg_lambda,
            reg_alpha=spec.reg_alpha,
            normalize_rows=spec.normalize_rows,
        )
    except ValueError as exc:
        raise SpecError(f"invalid problem: {exc}") from exc


def _default_lipschitz(spec: ExperimentSpec, problem: FiniteSumProblem):
    """Bounds for variants that give no ``L1``/``L2``; ``None`` lets the driver
    resolve analytic bounds."""
    if spec.lip_mode == "analytic":
        return None
    try:
        return lipschitz_bounds(problem, mode=spec.lip_mode)
    except ValueError as exc:
        raise SpecError(f"lip_mode {spec.lip_mode!r}: {exc}") from exc


def make_config(vspec: VariantSpec, seed: int, lipschitz: LipschitzBounds | None,
                n: int) -> RunConfig:
    """The config of one (variant, seed) run on a problem of ``n`` rows; a bad
    variant option is a ``SpecError`` that names the label."""
    opts = dict(vspec.options)
    lip = lipschitz
    if "L1" in opts or "L2" in opts:
        if not ("L1" in opts and "L2" in opts):
            raise SpecError(f"L1 and L2 must be given together for {vspec.label}")
        try:
            lip = LipschitzBounds(_json_number(opts.pop("L1"), "L1"),
                                  _json_number(opts.pop("L2"), "L2"), "user")
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"invalid L1/L2 for {vspec.label}: {exc}") from exc
    unknown = set(opts) - _CONFIG_KEYS
    if unknown:
        raise SpecError(f"unknown config fields for {vspec.label}: {sorted(unknown)}")
    try:
        config = RunConfig(variant=vspec.variant, lipschitz=lip, seed=seed, **opts)
        check_batch_sizes(config, n)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid config for {vspec.label}: {exc}") from exc
    return config


def write_trace(path, trace) -> None:
    """One row per record in ``TRACE_HEADER`` order.  ``csv`` writes each
    float as its ``repr``; ``wall_ms`` gets three decimals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        writer.writerows((*_TRACE_VALUES(rec), f"{rec.wall_ms:.3f}") for rec in trace)


def run_experiment(spec_path, out_dir="out", threads: int = 1) -> int:
    """Check the whole experiment spec, then execute its every (variant, seed)
    pair into ``out_dir``.

    Returns 2, having run and written nothing, when the spec, its dataset, a
    variant option or ``threads`` is invalid; otherwise 1 when a run aborted
    numerically and 0 when all runs completed.
    """
    try:
        if threads < 1:
            raise SpecError(f"threads must be >= 1, got {threads}")
        spec = load_spec(spec_path)
        problem = build_problem(spec)
        lip = _default_lipschitz(spec, problem)
        jobs = [(vspec, make_config(vspec, seed, lip, problem.n))
                for vspec in spec.variants for seed in spec.seeds]
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. an existing file of that name
        print(f"error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return 2

    def _entry(job) -> dict:
        """Summary entry of one (variant, config) job, after writing its trace;
        a numeric abort gives a failed entry."""
        vspec, config = job
        try:
            outcome = run(vspec.variant, problem, config)
        except RunAborted as exc:
            outcome = exc
        if outcome.trace:
            write_trace(out / _trace_name(vspec.label, config.seed), outcome.trace)
        failed = isinstance(outcome, RunAborted)
        entry = {"label": vspec.label, "variant": vspec.variant, "seed": config.seed,
                 "config": dataclasses.asdict(config), "failed": failed,
                 "iterations": len(outcome.trace),
                 "counters": dataclasses.asdict(outcome.counters)}
        if failed:
            entry["error"] = str(outcome)
        else:
            entry.update(
                stop_reason=outcome.stop_reason,
                report=dataclasses.asdict(outcome.report),
                x_final=outcome.x_final.tolist(),
            )
        return entry

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            entries = list(pool.map(_entry, jobs))
    else:
        entries = list(map(_entry, jobs))

    summary = {
        "version": __version__,
        "task": spec.task,
        "dataset": spec.dataset,
        "runs": entries,
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 1 if any(entry["failed"] for entry in entries) else 0


def _variant_seed_from_name(path: Path) -> tuple[str, int]:
    stem = path.stem
    if not stem.startswith("trace_"):
        raise TraceFormatError(f"{path}: trace files are named trace_<variant>_<seed>.csv")
    body = stem[len("trace_"):]
    variant, _, seed_s = body.rpartition("_")
    if not (variant and seed_s.isascii() and seed_s.removeprefix("-").isdigit()):
        raise TraceFormatError(f"{path}: cannot split variant/seed from name")
    return variant, int(seed_s)


def compare(trace_paths, out_path=None) -> list[dict]:
    """Merge trace CSVs into long format with gaps against the global best.

    A trace that cannot be read, is not UTF-8 or is malformed raises
    :class:`TraceFormatError`; an ``out_path`` that cannot be written raises
    the ``OSError`` of opening it.
    """
    rows = []
    for p in trace_paths:
        path = Path(p)
        variant, seed = _variant_seed_from_name(path)
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header != TRACE_HEADER:
                    raise TraceFormatError(f"{path}: header mismatch {header!r}")
                for rec in reader:
                    row = dict(zip(TRACE_HEADER, rec))
                    try:
                        if len(rec) != len(TRACE_HEADER):
                            raise ValueError(f"{len(rec)} fields, expected {len(TRACE_HEADER)}")
                        row["k"], row["fval"] = int(row["k"]), float(row["fval"])
                        row["sfo"], row["sso"] = int(row["sfo"]), int(row["sso"])
                        if not math.isfinite(row["fval"]):  # it would reach every gap
                            raise ValueError(f"fval {row['fval']!r} is not finite")
                    except ValueError as exc:
                        raise TraceFormatError(f"{path}: line {reader.line_num}: {exc}") from None
                    rows.append(
                        dict(zip(COMPARE_HEADER, (variant, seed, *_COMPARE_FROM_TRACE(row)))))
        except (OSError, UnicodeDecodeError) as exc:
            raise TraceFormatError(f"{path}: {exc}") from exc
    if not rows:
        raise TraceFormatError("no trace rows found")
    fmin = min(map(operator.itemgetter("fval_gap"), rows))
    rows.sort(key=operator.itemgetter("variant", "seed", "k"))
    for r in rows:
        r["fval_gap"] = repr(r["fval_gap"] - fmin)
    sink = open(out_path, "w", encoding="utf-8", newline="") if out_path else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerow(COMPARE_HEADER)
        writer.writerows(map(dict.values, rows))
    finally:
        if out_path:
            sink.close()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="strbench",
        description="Stochastic trust-region benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment spec")
    p_run.add_argument("spec", help="path to the JSON experiment spec")
    p_run.add_argument("--out", default="out", help="output directory (default out)")
    p_run.add_argument("--threads", type=int, default=1)

    p_cmp = sub.add_parser("compare", help="merge trace CSVs")
    p_cmp.add_argument("traces", nargs="+", help="trace_<variant>_<seed>.csv files")
    p_cmp.add_argument("--out", default=None, help="output CSV (default stdout)")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.spec, out_dir=args.out, threads=args.threads)
    try:
        compare(args.traces, out_path=args.out)
        return 0
    except (TraceFormatError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
