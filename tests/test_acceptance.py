"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Shared artifacts (the two benchmark experiments) are produced once
through the CLI and reused across criteria.
"""

import csv
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from strbench.cli import COMPARE_HEADER, TRACE_HEADER, compare, run_experiment
from strbench.datasets import generate_synthetic
from strbench.driver import (
    RunConfig,
    make_estimators,
    run_inexact_tr,
    run_inexact_tr_expectation,
    verify_sosp,
)
from strbench.estimators import (
    EstimatorState,
    Schedule,
    corrected_step,
    gradient_schedule_case1,
    gradient_schedule_case2,
    hessian_estimate_step,
    hessian_schedule,
    spider_step,
)
from strbench.problems import (
    OracleCounters,
    batch_gradient,
    batch_hessian,
    from_dataset,
    full_gradient,
    full_hessian,
    full_value,
    lipschitz_bounds,
    regularizer_derivatives,
)
from strbench.trs import kkt_residual, model_value, solve_trs_exact, solve_trs_lanczos

from test_trs import oracle_objective, random_instance


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num:02d} ({name}): PASS")


# -- shared experiment artifacts -------------------------------------------------


@pytest.fixture(scope="module")
def descent_experiment(tmp_path_factory):
    """Criterion-3 instance run through the CLI (plus a rerun for criterion 10)."""
    base = tmp_path_factory.mktemp("descent")
    spec = {
        "task": "logistic_nc",
        "dataset": {"synthetic": {"n": 500, "d": 20, "seed": 3}},
        "seeds": [0],
        "variants": [{"variant": "exact_tr", "epsilon": 1e-3, "delta": 0.2}],
    }
    spec_path = base / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code_a = run_experiment(spec_path, out_dir=base / "a")
    code_b = run_experiment(spec_path, out_dir=base / "b")
    assert code_a == 0 and code_b == 0
    ds = generate_synthetic(500, 20, seed=3)
    problem = from_dataset(ds, "logistic_nc")
    return {"dir_a": base / "a", "dir_b": base / "b", "problem": problem, "epsilon": 1e-3}


@pytest.fixture(scope="module")
def complexity_experiment(tmp_path_factory):
    """Criterion-8 instance: three variants on one larger logistic problem."""
    base = tmp_path_factory.mktemp("complexity")
    spec = {
        "task": "logistic_nc",
        "dataset": {"synthetic": {"n": 2000, "d": 30, "seed": 8}},
        "seeds": [0],
        "variants": [
            {"variant": "exact_tr", "epsilon": 1e-3, "delta": 0.2},
            {
                "variant": "str1", "epsilon": 1e-3, "delta": 0.2,
                "mode": "practical", "kappa_grad": 1.0, "kappa_hess": 0.01,
            },
            {
                "variant": "subsampled", "epsilon": 1e-3, "delta": 0.2,
                "sub_s1": 2000, "sub_s2": 1200, "K_override": 600,
            },
        ],
    }
    spec_path = base / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert run_experiment(spec_path, out_dir=base / "out") == 0
    return {"dir": base / "out"}


def load_summary(path):
    with open(path / "summary.json") as fh:
        return json.load(fh)


def load_trace(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == TRACE_HEADER
        return [
            {
                "k": int(r[0]), "fval": float(r[1]), "grad_norm": float(r[2]),
                "lambda_alg": float(r[3]), "step_norm": float(r[4]),
                "sfo": int(r[5]), "sso": int(r[6]), "wall_ms": float(r[7]),
            }
            for r in reader
        ]


# -- criterion 1: subproblem solver correctness ----------------------------------


def test_criterion_1_trs_correctness():
    with criterion(1, "TRS correctness"):
        rng = np.random.default_rng(20240501)
        for trial in range(500):
            g, H, r = random_instance(trial, rng)
            sol = solve_trs_exact(g, H, r, 1.0)
            res = kkt_residual(g, H, r, sol)
            assert res.stationarity <= 1e-8 * (np.linalg.norm(g) + 1.0)
            assert res.min_eig_shifted >= -1e-8
            assert res.complementarity <= 1e-8
            ref = oracle_objective(g, H, r)
            assert model_value(g, H, sol.h) <= ref + 1e-6
            assert abs(model_value(g, H, sol.h) - ref) <= 1e-6
            d = len(g)
            lz = solve_trs_lanczos(
                g, lambda v: H @ v, d, r, 1.0, m_max=d,
                rng=np.random.default_rng(trial),
            )
            assert abs(model_value(g, H, lz.h) - model_value(g, H, sol.h)) <= 1e-6


# -- criterion 2: derivative correctness ------------------------------------------


def test_criterion_2_derivative_correctness():
    with criterion(2, "derivative correctness"):
        rng = np.random.default_rng(7)
        for kind in ("logistic_nc", "nls_nc"):
            ds = generate_synthetic(60, 8, seed=23)
            prob = from_dataset(ds, kind, reg_lambda=1e-3, reg_alpha=10.0)
            sc = OracleCounters()
            for _ in range(100):
                i = int(rng.integers(prob.n))
                x = rng.standard_normal(prob.d)

                def val(z):
                    data = prob._data_values(z, np.array([i]))[0]
                    reg = regularizer_derivatives(z, prob.reg_alpha)[0]
                    return data + prob.reg_lambda * reg

                g = batch_gradient(prob, x, [i], sc)
                g_fd = np.zeros_like(x)
                for j in range(prob.d):
                    h = 1e-5 * (1.0 + abs(x[j]))
                    e = np.zeros_like(x)
                    e[j] = h
                    g_fd[j] = (val(x + e) - val(x - e)) / (2 * h)
                assert np.max(np.abs(g - g_fd)) <= 1e-5 * (1.0 + np.max(np.abs(g)))

                H = batch_hessian(prob, x, [i], sc)
                H_fd = np.zeros_like(H)
                for j in range(prob.d):
                    h = 1e-5 * (1.0 + abs(x[j]))
                    e = np.zeros(prob.d)
                    e[j] = h
                    H_fd[:, j] = (
                        batch_gradient(prob, x + e, [i], OracleCounters())
                        - batch_gradient(prob, x - e, [i], OracleCounters())
                    ) / (2 * h)
                H_fd = (H_fd + H_fd.T) / 2
                assert np.max(np.abs(H - H_fd)) <= 1e-5 * (1.0 + np.max(np.abs(H)))


# -- criteria 3 and 4: descent law and certificate --------------------------------


def test_criterion_3_exact_descent_law(descent_experiment):
    with criterion(3, "exact-TR descent law"):
        prob = descent_experiment["problem"]
        eps = descent_experiment["epsilon"]
        lip = lipschitz_bounds(prob)
        summary = load_summary(descent_experiment["dir_a"])
        entry = summary["runs"][0]
        assert entry["stop_reason"] == "dual_threshold"
        trace = load_trace(descent_experiment["dir_a"] / "trace_exact_tr_0.csv")
        x_final = np.array(entry["x_final"])
        fvals = [rec["fval"] for rec in trace]
        fvals.append(full_value(prob, x_final, OracleCounters()))
        thr = 2.0 * math.sqrt(eps / lip.L2)
        need = eps**1.5 / (6.0 * math.sqrt(lip.L2)) - 1e-12
        for k, rec in enumerate(trace):
            if rec["lambda_alg"] > thr:
                assert fvals[k] - fvals[k + 1] >= need
        gap_hat = full_value(prob, np.zeros(prob.d), OracleCounters())
        K = math.ceil(6.0 * math.sqrt(lip.L2) * gap_hat / eps**1.5)
        assert len(trace) <= K


def test_criterion_4_sosp_certificate(descent_experiment):
    with criterion(4, "SOSP certificate"):
        prob = descent_experiment["problem"]
        eps = descent_experiment["epsilon"]
        lip = lipschitz_bounds(prob)
        entry = load_summary(descent_experiment["dir_a"])["runs"][0]
        x_final = np.array(entry["x_final"])
        rep = verify_sosp(prob, x_final, eps, lip.L2)
        assert rep.grad_norm <= 3.0 * eps
        assert rep.min_eig >= -(10.0 / 3.0) * math.sqrt(lip.L2 * eps)
        assert rep.certified
        # stored report agrees with the recomputation
        assert entry["report"]["certified"] is True
        assert entry["report"]["grad_norm"] == pytest.approx(rep.grad_norm, rel=1e-9)


# -- criterion 5: estimator accuracy -----------------------------------------------


def _walk_violations(problem, make_state, step_fn, epoch_len, threshold, r, trials):
    viol = total = 0
    scratch = OracleCounters()
    for t in range(trials):
        rng = np.random.default_rng(50_000 + t)
        x = 0.1 * rng.standard_normal(problem.d)
        state = make_state()
        counters = OracleCounters()
        for _ in range(epoch_len):
            est = step_fn(state, problem, x, counters, rng)
            err = est[1](x, scratch, est[0])
            total += 1
            viol += err > threshold
            u = rng.standard_normal(problem.d)
            x = x + (r / np.linalg.norm(u)) * u
    return viol, total


def test_criterion_5_estimator_accuracy():
    with criterion(5, "estimator accuracy"):
        n, d = 500, 20
        delta, K0 = 0.2, 20
        eps = 1e-2  # accuracy scale for the controlled walk
        trials = 200
        ds = generate_synthetic(n, d, seed=42)
        prob = from_dataset(ds, "logistic_nc")
        lip = lipschitz_bounds(prob)
        r = math.sqrt(eps / lip.L2)
        h_thr = math.sqrt(eps * lip.L2) / 3.0
        g_thr = eps / 6.0
        allowed = delta / K0 + 0.05

        def hess_err(x, scratch, H):
            return float(np.linalg.norm(H - full_hessian(prob, x, scratch), 2))

        def grad_err(x, scratch, g):
            return float(np.linalg.norm(g - full_gradient(prob, x, scratch)))

        cases = []
        for option in ("I", "II"):
            sched = hessian_schedule(n, d, eps, lip.L1, lip.L2, delta, K0,
                                     force_option=option)
            cases.append((
                f"hessian option {option}",
                lambda s=sched: EstimatorState(schedule=s),
                lambda st, pb, x, c, rng: (
                    hessian_estimate_step(st, pb, x, c, rng), hess_err),
                sched.p,
                h_thr,
            ))
        g1 = gradient_schedule_case1(n, eps, lip.L1, lip.L2, delta, K0)
        cases.append((
            "gradient case 1",
            lambda: EstimatorState(schedule=g1),
            lambda st, pb, x, c, rng: (spider_step(st, pb, x, c, rng), grad_err),
            g1.p,
            g_thr,
        ))
        g2 = gradient_schedule_case2(n, delta, K0)
        cases.append((
            "gradient case 2",
            lambda: EstimatorState(schedule=g2),
            lambda st, pb, x, c, rng: (corrected_step(st, pb, x, c, rng), grad_err),
            g2.p,
            g_thr,
        ))
        for name, make_state, step_fn, epoch_len, threshold in cases:
            viol, total = _walk_violations(
                prob, make_state, step_fn, epoch_len, threshold, r, trials
            )
            rate = viol / total
            print(f"  estimator accuracy [{name}]: {viol}/{total} violations")
            assert rate <= allowed, f"{name}: rate {rate} > {allowed}"


# -- criterion 6: full-batch degeneracy --------------------------------------------


def test_criterion_6_full_batch_degeneracy(descent_experiment, run_path, scheduled):
    with criterion(6, "full-batch degeneracy"):
        prob = descent_experiment["problem"]
        eps = descent_experiment["epsilon"]
        exact, exact_path = run_path(prob, RunConfig(variant="exact_tr", epsilon=eps, seed=0))
        forced = RunConfig(variant="str1", epsilon=eps, seed=0)
        same, same_path = run_path(prob, forced, scheduled(
            prob, forced, Schedule(p=1, s=prob.n), Schedule(p=1, s=prob.n)))
        assert same.stop_reason == exact.stop_reason
        assert len(same_path) == len(exact_path)
        for a, b in zip(same_path, exact_path):
            assert np.max(np.abs(a - b)) <= 1e-12


# -- criterion 7: oracle accounting ------------------------------------------------


def _epoch_costs(trace, key):
    deltas = [trace[0][key]]
    for a, b in zip(trace, trace[1:]):
        deltas.append(b[key] - a[key])
    return deltas


def test_criterion_7_oracle_accounting(tmp_path, scheduled):
    with criterion(7, "oracle accounting"):
        ds = generate_synthetic(200, 8, seed=14)
        prob = from_dataset(ds, "logistic_nc")
        n = prob.n
        for option, s2_prime in (("I", None), ("II", 23)):
            p1, s1, p2, s2 = 4, 16, 5, 8
            K = 40  # common multiple of p1 and p2: whole epochs only
            cfg = RunConfig(variant="str1", epsilon=1e-9, seed=1, K_override=K)
            res = run_inexact_tr(prob, cfg, *scheduled(
                prob, cfg, Schedule(p=p1, s=s1), Schedule(p=p2, s=s2, reset=s2_prime)))
            assert len(res.trace) == K
            trace = [
                {"sfo": rec.sfo, "sso": rec.sso} for rec in res.trace
            ]
            d_sfo = _epoch_costs(trace, "sfo")
            d_sso = _epoch_costs(trace, "sso")
            start_cost = n if option == "I" else s2_prime
            for k in range(K):
                assert d_sfo[k] == (n if k % p1 == 0 else 2 * s1)
                assert d_sso[k] == (start_cost if k % p2 == 0 else 2 * s2)
            # per-epoch totals and the amortized bound
            for e in range(K // p2):
                epoch = d_sso[e * p2:(e + 1) * p2]
                assert sum(epoch) == start_cost + 2 * s2 * (p2 - 1)
            for e in range(K // p1):
                epoch = d_sfo[e * p1:(e + 1) * p1]
                assert sum(epoch) == n + 2 * s1 * (p1 - 1)
            assert trace[-1]["sso"] / K <= 2 * s2 + start_cost / p2


# -- criterion 8: complexity direction ---------------------------------------------


def test_criterion_8_complexity_direction(complexity_experiment):
    with criterion(8, "complexity direction"):
        summary = load_summary(complexity_experiment["dir"])
        by_variant = {e["variant"]: e for e in summary["runs"]}
        for name in ("exact_tr", "str1", "subsampled"):
            assert by_variant[name]["report"]["certified"] is True, name
        sso = {name: by_variant[name]["counters"]["sso"]
               for name in ("exact_tr", "str1", "subsampled")}
        assert sso["str1"] < sso["exact_tr"]
        assert sso["str1"] < sso["subsampled"]
        print(
            f"  second-order queries: str1={sso['str1']} exact={sso['exact_tr']} "
            f"subsampled={sso['subsampled']} | ratios exact/str1="
            f"{sso['exact_tr'] / sso['str1']:.2f} sub/str1="
            f"{sso['subsampled'] / sso['str1']:.2f}"
        )


# -- criterion 9: expectation-stopping variant ------------------------------------


def test_criterion_9_expectation_variant(descent_experiment):
    with criterion(9, "expectation-mode output"):
        prob = descent_experiment["problem"]
        eps = descent_experiment["epsilon"]
        grads = []
        for seed in range(50):
            cfg = RunConfig(
                variant="str1", epsilon=eps, seed=seed, mode="practical",
                kappa_grad=1.0, kappa_hess=0.05, K_override=400,
            )
            g_fn, h_fn = make_estimators("str1", prob, cfg, np.random.default_rng(seed))
            res = run_inexact_tr_expectation(prob, cfg, g_fn, h_fn)
            grads.append(res.report.grad_norm)
        mean_grad = float(np.mean(grads))
        print(f"  mean final gradient norm over 50 seeds: {mean_grad:.3e}")
        assert mean_grad <= 4.5 * eps

        # strict local minimizer start: polish with Newton, then early exit
        sc = OracleCounters()
        x = np.array(load_summary(descent_experiment["dir_a"])["runs"][0]["x_final"])
        for _ in range(30):
            g = full_gradient(prob, x, sc)
            if np.linalg.norm(g) < 1e-12:
                break
            x = x - np.linalg.solve(full_hessian(prob, x, sc), g)
        assert np.linalg.eigvalsh(full_hessian(prob, x, sc))[0] > 0
        cfg = RunConfig(variant="exact_tr", epsilon=eps, x0=x, seed=1)
        g_fn, h_fn = make_estimators("exact_tr", prob, cfg, np.random.default_rng(1))
        res = run_inexact_tr_expectation(prob, cfg, g_fn, h_fn)
        assert res.stop_reason == "interior_step"
        assert len(res.trace) == 1


# -- criterion 10: CLI reproducibility ---------------------------------------------


def _strip_wall(path):
    lines = path.read_text().splitlines()
    return [ln.rsplit(",", 1)[0] for ln in lines]


def _validate_merged(traces, out):
    rows = compare(traces, out_path=out)
    with open(out, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == COMPARE_HEADER
        body = list(reader)
    assert len(body) == len(rows)
    keys = []
    gaps = []
    last = {}
    for rec in body:
        key = (rec[0], int(rec[1]))
        keys.append((rec[0], int(rec[1]), int(rec[2])))
        gaps.append(float(rec[3]))
        assert all(math.isfinite(float(v)) for v in rec[3:])
        sso, sfo = int(rec[5]), int(rec[6])
        if key in last:
            assert sso >= last[key][0] and sfo >= last[key][1]
        last[key] = (sso, sfo)
    assert keys == sorted(keys)
    assert min(gaps) == 0.0 and all(g >= 0.0 for g in gaps)


def test_criterion_10_cli_reproducibility(descent_experiment, complexity_experiment, tmp_path):
    with criterion(10, "CLI reproducibility"):
        a = descent_experiment["dir_a"] / "trace_exact_tr_0.csv"
        b = descent_experiment["dir_b"] / "trace_exact_tr_0.csv"
        assert _strip_wall(a) == _strip_wall(b)
        _validate_merged(
            sorted(descent_experiment["dir_a"].glob("trace_*.csv")),
            tmp_path / "merged_descent.csv",
        )
        _validate_merged(
            sorted(complexity_experiment["dir"].glob("trace_*.csv")),
            tmp_path / "merged_complexity.csv",
        )
