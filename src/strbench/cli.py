"""Benchmark harness CLI.

``strbench run <spec.json> [--out DIR] [--threads N]`` executes every
(variant, seed) pair of an experiment spec, writing one
``trace_<label>_<seed>.csv`` per run plus a ``summary.json``.

``strbench compare <trace.csv>... [--out FILE]`` merges traces into one
long-format CSV with the objective gap against the best value seen anywhere.

Exit codes: 0 all runs completed (a failed certificate is reported, not an
error), 1 a run aborted numerically, 2 unreadable spec/dataset/trace or a bad
``STR_SEED`` or ``--threads`` value.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import generate_synthetic, load_libsvm
from .driver import RunAborted, RunConfig, RunResult, run
from .problems import (
    FiniteSumProblem,
    LipschitzBounds,
    from_dataset,
    lipschitz_bounds,
    quadratic_problem,
)

TRACE_HEADER = ["k", "fval", "grad_norm", "lambda_alg", "step_norm", "sfo", "sso", "wall_ms"]
COMPARE_HEADER = ["variant", "seed", "k", "fval_gap", "grad_norm", "sso", "sfo", "wall_ms"]

SEED_ENV_VAR = "STR_SEED"
LIP_MODES = ("analytic", "sampled")

# RunConfig fields a variant spec may set; the rest come from the spec's
# structure (variant, seeds, L1/L2) or are library-only objects.
_CONFIG_KEYS = frozenset(
    f.name for f in dataclasses.fields(RunConfig)
) - {"variant", "lipschitz", "seed", "x0", "grad_schedule", "hess_schedule"}


class SpecError(ValueError):
    """Unreadable or invalid experiment spec / dataset."""


class TraceFormatError(ValueError):
    """A trace file does not carry the canonical header."""


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
    seeds: list[int]
    reg_lambda: float = 1e-3
    reg_alpha: float = 10.0
    normalize_rows: bool = False
    lip_mode: str = "analytic"  # how variants without L1/L2 get their bounds
    output_dir: str = "out"


def _json_int(value, name: str) -> int:
    """A JSON integer; floats, strings and booleans are not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    return value


def _json_ints(value, name: str) -> list[int]:
    if not isinstance(value, list):
        raise SpecError(f"{name} must be a list of integers, got {value!r}")
    return [_json_int(v, name) for v in value]


def _json_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{name} must be true or false, got {value!r}")
    return value


def load_spec(path) -> ExperimentSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    try:
        variants = []
        for frag in raw["variants"]:
            frag = dict(frag)
            name = frag.pop("variant")
            label = frag.pop("label", name)
            # the label names the trace file
            if not (isinstance(label, str) and label) or "/" in label or "\0" in label:
                raise ValueError(f"label {label!r} cannot name a trace file")
            variants.append(VariantSpec(variant=name, label=label, options=frag))
        spec = ExperimentSpec(
            task=raw["task"],
            dataset=raw["dataset"] if isinstance(raw["dataset"], dict)
            else {"path": raw["dataset"]},
            variants=variants,
            seeds=_json_ints(raw.get("seeds", [0]), "seeds"),
            reg_lambda=float(raw.get("reg_lambda", 1e-3)),
            reg_alpha=float(raw.get("reg_alpha", 10.0)),
            normalize_rows=_json_bool(raw.get("normalize_rows", False), "normalize_rows"),
            lip_mode=raw.get("lip_mode", "analytic"),
            output_dir=raw.get("output_dir", "out"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"invalid spec {path}: {exc}") from exc
    if not spec.variants or not spec.seeds:
        raise SpecError("spec needs at least one variant and one seed")
    if not isinstance(spec.output_dir, str):
        raise SpecError(f"output_dir must be a string, got {spec.output_dir!r}")
    if spec.task not in ("logistic_nc", "nls_nc", "synthetic_quad"):
        raise SpecError(f"unknown task {spec.task!r}")
    if spec.lip_mode not in LIP_MODES:
        raise SpecError(f"unknown lip_mode {spec.lip_mode!r}, expected one of {LIP_MODES}")
    return spec


def build_problem(spec: ExperimentSpec) -> FiniteSumProblem:
    ds_spec = spec.dataset
    if spec.task == "synthetic_quad":
        params = ds_spec.get("synthetic", ds_spec)
        try:
            return quadratic_problem(
                n=_json_int(params["n"], "n"), d=_json_int(params["d"], "d"),
                seed=_json_int(params.get("seed", 0), "seed"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"invalid synthetic_quad dataset spec: {exc}") from exc
    if "path" in ds_spec:
        if not isinstance(ds_spec["path"], str):  # an int would open a file descriptor
            raise SpecError(f"dataset path must be a string, got {ds_spec['path']!r}")
        try:
            dataset = load_libsvm(ds_spec["path"], d_override=ds_spec.get("d"))
        except (OSError, TypeError, ValueError) as exc:
            raise SpecError(f"cannot load dataset {ds_spec['path']}: {exc}") from exc
    elif "synthetic" in ds_spec:
        params = ds_spec["synthetic"]
        try:
            dataset = generate_synthetic(
                n=_json_int(params["n"], "n"),
                d=_json_int(params["d"], "d"),
                seed=_json_int(params.get("seed", 0), "seed"),
                separable=_json_bool(params.get("separable", False), "separable"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"invalid synthetic dataset spec: {exc}") from exc
    else:
        raise SpecError("dataset must provide 'path' or 'synthetic'")
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


def make_config(vspec: VariantSpec, seed: int,
                lipschitz: LipschitzBounds | None = None) -> RunConfig:
    opts = dict(vspec.options)
    lip = lipschitz
    if "L1" in opts or "L2" in opts:
        if not ("L1" in opts and "L2" in opts):
            raise SpecError("L1 and L2 must be given together")
        try:
            lip = LipschitzBounds(float(opts.pop("L1")), float(opts.pop("L2")), "user")
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid L1/L2 for {vspec.label}: {exc}") from exc
    unknown = set(opts) - _CONFIG_KEYS
    if unknown:
        raise SpecError(f"unknown config fields for {vspec.label}: {sorted(unknown)}")
    try:
        return RunConfig(variant=vspec.variant, lipschitz=lip, seed=seed, **opts)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid config for {vspec.label}: {exc}") from exc


def write_trace(path, trace) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for rec in trace:
            writer.writerow(
                [
                    rec.k,
                    repr(rec.fval),
                    repr(rec.grad_norm),
                    repr(rec.lambda_alg),
                    repr(rec.step_norm),
                    rec.sfo,
                    rec.sso,
                    f"{rec.wall_ms:.3f}",
                ]
            )


def _config_echo(config: RunConfig) -> dict:
    out = dataclasses.asdict(config)
    for key, val in out.items():
        if isinstance(val, np.ndarray):
            out[key] = val.tolist()
    return out


def _summarize(label, seed, config, outcome: RunResult | RunAborted) -> dict:
    """Summary entry of a finished run, or of an aborted one up to the abort."""
    entry = {
        "label": label,
        "variant": config.variant,
        "seed": seed,
        "config": _config_echo(config),
        "failed": isinstance(outcome, RunAborted),
        "iterations": len(outcome.trace),
        "counters": {
            "sfo": outcome.counters.sfo,
            "sso": outcome.counters.sso,
            "fval": outcome.counters.fval,
        },
    }
    if isinstance(outcome, RunAborted):
        entry["error"] = str(outcome)
    else:
        entry.update(
            {
                "stop_reason": outcome.stop_reason,
                "report": dataclasses.asdict(outcome.report),
                "x_final": [float(v) for v in outcome.x_final],
            }
        )
    return entry


def run_experiment(spec_path, out_dir=None, threads: int = 1) -> int:
    """Execute every (variant, seed) pair of the experiment spec.

    Returns 0 when all runs completed, 1 when a run aborted numerically,
    2 when the spec or dataset is unreadable or ``threads`` or ``STR_SEED``
    is invalid.
    """
    try:
        if threads < 1:
            raise SpecError(f"threads must be >= 1, got {threads}")
        spec = load_spec(spec_path)
        seeds = spec.seeds
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                seeds = [int(env_seed)]
            except ValueError:
                raise SpecError(f"{SEED_ENV_VAR}={env_seed!r} is not an integer") from None
        bad = [s for s in seeds if not 0 <= s < 2**63]  # numpy seeds, file-name sized
        if bad:
            source = SEED_ENV_VAR if env_seed is not None else "seeds"
            raise SpecError(f"{source}: seeds must lie in [0, 2**63), got {bad[0]}")
        problem = build_problem(spec)
        lip = _default_lipschitz(spec, problem)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(out_dir if out_dir is not None else spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    jobs = [(vspec, seed) for vspec in spec.variants for seed in seeds]

    def _one(job):
        vspec, seed = job
        try:
            config = make_config(vspec, seed, lip)
        except SpecError as exc:
            return (vspec, seed, None, exc)
        try:
            return (vspec, seed, config, run(vspec.variant, problem, config))
        except RunAborted as exc:
            return (vspec, seed, config, exc)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_one, jobs))
    else:
        outcomes = [_one(job) for job in jobs]

    entries = []
    for vspec, seed, config, outcome in outcomes:
        if config is None:
            entries.append(
                {"label": vspec.label, "variant": vspec.variant, "seed": seed,
                 "failed": True, "error": str(outcome)}
            )
            continue
        if outcome.trace:
            write_trace(out / f"trace_{vspec.label}_{seed}.csv", outcome.trace)
        entries.append(_summarize(vspec.label, seed, config, outcome))

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
    if not variant or not seed_s.lstrip("-").isdigit():
        raise TraceFormatError(f"{path}: cannot split variant/seed from name")
    return variant, int(seed_s)


def compare(trace_paths, out_path=None) -> list[dict]:
    """Merge trace CSVs into long format with gaps against the global best."""
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
                    rows.append(
                        {
                            "variant": variant,
                            "seed": seed,
                            "k": int(rec[0]),
                            "fval": float(rec[1]),
                            "grad_norm": rec[2],
                            "sso": int(rec[6]),
                            "sfo": int(rec[5]),
                            "wall_ms": rec[7],
                        }
                    )
        except OSError as exc:
            raise TraceFormatError(f"{path}: {exc}") from exc
    if not rows:
        raise TraceFormatError("no trace rows found")
    fmin = min(r["fval"] for r in rows)
    rows.sort(key=lambda r: (r["variant"], r["seed"], r["k"]))
    out_rows = [
        {
            "variant": r["variant"],
            "seed": r["seed"],
            "k": r["k"],
            "fval_gap": repr(r["fval"] - fmin),
            "grad_norm": r["grad_norm"],
            "sso": r["sso"],
            "sfo": r["sfo"],
            "wall_ms": r["wall_ms"],
        }
        for r in rows
    ]
    sink = open(out_path, "w", encoding="utf-8", newline="") if out_path else sys.stdout
    try:
        writer = csv.DictWriter(sink, fieldnames=COMPARE_HEADER)
        writer.writeheader()
        writer.writerows(out_rows)
    finally:
        if out_path:
            sink.close()
    return out_rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="strbench",
        description="Stochastic trust-region benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment spec")
    p_run.add_argument("spec", help="path to the JSON experiment spec")
    p_run.add_argument("--out", default=None, help="output directory override")
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
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
