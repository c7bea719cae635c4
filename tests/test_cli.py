import contextlib
import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strbench import cli
from strbench.cli import (
    COMPARE_HEADER,
    TRACE_HEADER,
    TraceFormatError,
    build_problem,
    compare,
    load_spec,
    main,
    run_experiment,
)
from strbench.driver import RunConfig, run
from strbench.problems import lipschitz_bounds


def write_spec(path, **overrides):
    spec = {
        "task": "synthetic_quad",
        "dataset": {"synthetic": {"n": 30, "d": 5, "seed": 2}},
        "seeds": [0],
        "variants": [{"variant": "exact_tr", "epsilon": 1e-4, "K_override": 300}],
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return spec


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_exits_2(spec, out, capsys, *flags) -> str:
    """Run ``spec`` into ``out``; a bad input exits 2 with nothing written."""
    assert main(["run", str(spec), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    assert not out.exists() and not (out / "summary.json").exists()
    return err


def test_run_quadratic_trace_schema(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    assert run_experiment(spec, out_dir=tmp_path / "o") == 0
    rows = read_csv(tmp_path / "o" / "trace_exact_tr_0.csv")
    assert rows[0] == TRACE_HEADER
    fvals = [float(r[1]) for r in rows[1:]]
    assert all(b <= a + 1e-15 for a, b in zip(fvals, fvals[1:]))
    for r in rows[1:]:
        assert all(np.isfinite(float(v)) for v in r)
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    runs = summary["runs"]
    assert len(runs) == 1
    assert runs[0]["stop_reason"] == "dual_threshold"
    assert runs[0]["report"]["certified"] is True
    assert "x_final" in runs[0]
    assert runs[0]["counters"]["sso"] > 0


def test_trace_columns_are_pinned():
    # the columns come from IterateRecord's fields; a change there must not
    # change the CSV contract unnoticed (perfbench reads wall_ms last)
    assert TRACE_HEADER == [
        "k", "fval", "grad_norm", "lambda_alg", "step_norm", "sfo", "sso", "wall_ms"]


def test_run_reproducible_modulo_wall(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    run_experiment(spec, out_dir=tmp_path / "a")
    run_experiment(spec, out_dir=tmp_path / "b")
    rows_a = read_csv(tmp_path / "a" / "trace_exact_tr_0.csv")
    rows_b = read_csv(tmp_path / "b" / "trace_exact_tr_0.csv")
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        assert ra[:7] == rb[:7]  # everything except wall_ms


def test_run_missing_spec_exits_2(tmp_path, capsys):
    run_exits_2(tmp_path / "nope.json", tmp_path / "o", capsys)


def test_run_bad_dataset_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec, task="logistic_nc", dataset={"path": str(tmp_path / "missing.libsvm")})
    run_exits_2(spec, tmp_path / "o", capsys)


def test_l1_without_l2_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec, variants=[{"variant": "exact_tr", "label": "v", "L1": 1.0}])
    assert "L1 and L2 must be given together for v" in run_exits_2(spec, tmp_path / "o", capsys)


def test_run_unknown_config_key_fails_run(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec, variants=[{"variant": "exact_tr", "bogus_knob": 1}])
    err = run_exits_2(spec, tmp_path / "o", capsys)
    assert "bogus_knob" in err and "exact_tr" in err


def test_run_reads_no_seed_from_the_environment(tmp_path, monkeypatch):
    spec = tmp_path / "spec.json"
    write_spec(spec, seeds=[0, 1])
    monkeypatch.setenv("STR_SEED", "7")
    assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 0
    names = sorted(p.name for p in (tmp_path / "o").glob("trace_*.csv"))
    assert names == ["trace_exact_tr_0.csv", "trace_exact_tr_1.csv"]


def test_run_logistic_synthetic_with_label(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(
        spec,
        task="logistic_nc",
        dataset={"synthetic": {"n": 120, "d": 8, "seed": 4}},
        variants=[
            {"variant": "exact_tr", "epsilon": 1e-2},
            {"variant": "str1", "epsilon": 1e-2, "label": "str1_theory"},
        ],
        seeds=[1],
    )
    assert run_experiment(spec, out_dir=tmp_path / "o") == 0
    names = sorted(p.name for p in (tmp_path / "o").glob("trace_*.csv"))
    assert names == ["trace_exact_tr_1.csv", "trace_str1_theory_1.csv"]


def test_threads_match_sequential(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec, seeds=[0, 1])
    run_experiment(spec, out_dir=tmp_path / "seq", threads=1)
    run_experiment(spec, out_dir=tmp_path / "par", threads=2)
    for seed in (0, 1):
        a = read_csv(tmp_path / "seq" / f"trace_exact_tr_{seed}.csv")
        b = read_csv(tmp_path / "par" / f"trace_exact_tr_{seed}.csv")
        assert [r[:7] for r in a] == [r[:7] for r in b]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    assert "threads" in run_exits_2(spec, tmp_path / "o", capsys, "--threads", threads)


def test_lip_mode_unknown_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec, lip_mode="bogus")
    assert "lip_mode" in run_exits_2(spec, tmp_path / "o", capsys)


def test_lip_mode_sampled_on_one_row_exits_2(tmp_path, capsys):
    # sampled bounds need two distinct rows to difference
    spec = tmp_path / "spec.json"
    write_spec(spec, task="logistic_nc", dataset={"synthetic": {"n": 1, "d": 3}},
               lip_mode="sampled")
    assert "lip_mode 'sampled'" in run_exits_2(spec, tmp_path / "o", capsys)


def test_lip_mode_sampled_used_unless_variant_gives_bounds(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(
        spec,
        task="logistic_nc",
        dataset={"synthetic": {"n": 60, "d": 5, "seed": 4}},
        lip_mode="sampled",
        variants=[
            {"variant": "exact_tr", "epsilon": 1e-2},
            {"variant": "exact_tr", "epsilon": 1e-2, "label": "own", "L1": 2.0, "L2": 3.0},
        ],
    )
    assert run_experiment(spec, out_dir=tmp_path / "o") == 0
    runs = json.loads((tmp_path / "o" / "summary.json").read_text())["runs"]
    sampled = lipschitz_bounds(build_problem(load_spec(spec)), mode="sampled")
    assert runs[0]["config"]["lipschitz"] == {
        "L1": sampled.L1, "L2": sampled.L2, "provenance": "sampled"}
    assert runs[1]["config"]["lipschitz"] == {"L1": 2.0, "L2": 3.0, "provenance": "user"}


def test_default_lip_mode_records_the_analytic_bounds(tmp_path):
    # the entry names the bounds its run used; the run is the library's with
    # lipschitz=None, which resolves the same analytic bounds
    spec = tmp_path / "spec.json"
    write_spec(spec, task="logistic_nc", dataset={"synthetic": {"n": 60, "d": 5, "seed": 4}},
               variants=[{"variant": "str1", "epsilon": 1e-2}])
    assert run_experiment(spec, out_dir=tmp_path / "o") == 0
    (entry,) = json.loads((tmp_path / "o" / "summary.json").read_text())["runs"]
    problem = build_problem(load_spec(spec))
    analytic = lipschitz_bounds(problem)
    assert entry["config"]["lipschitz"] == {
        "L1": analytic.L1, "L2": analytic.L2, "provenance": "analytic"}
    library = run("str1", problem, RunConfig(variant="str1", epsilon=1e-2))
    assert entry["x_final"] == library.x_final.tolist()
    assert entry["counters"] == {"sfo": library.counters.sfo, "sso": library.counters.sso}


# -- compare -------------------------------------------------------------------


def _run_once(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec, seeds=[0])
    run_experiment(spec, out_dir=tmp_path / "o")
    return tmp_path / "o" / "trace_exact_tr_0.csv"


def test_compare_single_input(tmp_path):
    trace = _run_once(tmp_path)
    out = tmp_path / "merged.csv"
    rows = compare([trace], out_path=out)
    got = read_csv(out)
    assert got[0] == COMPARE_HEADER
    gaps = [float(r[3]) for r in got[1:]]
    assert min(gaps) == 0.0
    assert all(g >= 0.0 for g in gaps)
    assert gaps[-1] >= 0.0
    assert len(rows) == len(got) - 1


def test_compare_two_variants_row_count(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(
        spec,
        variants=[
            {"variant": "exact_tr", "epsilon": 1e-4, "K_override": 300},
            {"variant": "str1", "epsilon": 1e-4, "K_override": 300, "label": "str1"},
        ],
    )
    run_experiment(spec, out_dir=tmp_path / "o")
    traces = sorted((tmp_path / "o").glob("trace_*.csv"))
    n_inputs = sum(len(read_csv(t)) - 1 for t in traces)
    rows = compare(traces, out_path=tmp_path / "m.csv")
    assert len(rows) == n_inputs
    keys = [(r["variant"], r["seed"], r["k"]) for r in rows]
    assert keys == sorted(keys)


def test_compare_header_mismatch_names_file(tmp_path):
    bad = tmp_path / "trace_x_0.csv"
    bad.write_text("k,fval\n0,1.0\n")
    with pytest.raises(TraceFormatError, match="trace_x_0.csv"):
        compare([bad])


@pytest.mark.parametrize("row", ["1,0.5,0.1", "1,x,0.1,0.0,0.0,10,10,1.0"])
def test_compare_malformed_row_names_file_and_line(tmp_path, capsys, row):
    bad = tmp_path / "trace_x_0.csv"
    bad.write_text(",".join(TRACE_HEADER) + "\n0,1.0,0.1,0.0,0.0,0,0,1.0\n" + row + "\n")
    with pytest.raises(TraceFormatError, match="trace_x_0.csv.*line 3"):
        compare([bad])
    assert main(["compare", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "trace_x_0.csv" in err and "Traceback" not in err


@pytest.mark.parametrize("fval", ["nan", "inf", "-inf"])
def test_compare_non_finite_fval_names_file_and_line(tmp_path, capsys, fval):
    # one such row would turn every fval_gap of the merged file into nan or inf
    bad = tmp_path / "trace_x_0.csv"
    bad.write_text(",".join(TRACE_HEADER) + "\n0,1.0,0.1,0.0,0.0,0,0,1.0\n"
                   f"1,{fval},0.1,0.0,0.0,10,10,1.0\n")
    with pytest.raises(TraceFormatError, match="trace_x_0.csv.*line 3.*fval"):
        compare([bad])
    assert main(["compare", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "trace_x_0.csv" in err and "Traceback" not in err


def test_compare_bad_filename(tmp_path):
    bad = tmp_path / "notatrace.csv"
    bad.write_text(",".join(TRACE_HEADER) + "\n")
    with pytest.raises(TraceFormatError):
        compare([bad])


def test_compare_trace_with_only_its_header_exits_2(tmp_path, capsys):
    empty = tmp_path / "trace_x_0.csv"
    empty.write_text(",".join(TRACE_HEADER) + "\n")
    with pytest.raises(TraceFormatError, match="no trace rows found"):
        compare([empty])
    assert main(["compare", str(empty)]) == 2
    err = capsys.readouterr().err
    assert "no trace rows found" in err and "Traceback" not in err


@pytest.mark.parametrize("name", [
    "trace_a_--1.csv", "trace_b_\u00b2.csv", "trace_c_+1.csv", "trace_d_None.csv",
])
def test_compare_misnamed_seed_exits_2(tmp_path, capsys, name):
    # the seed part must be an integer as written: no second sign, no superscript
    bad = tmp_path / name
    bad.write_text(",".join(TRACE_HEADER) + "\n0,1.0,0.1,0.0,0.0,0,0,1.0\n")
    assert main(["compare", str(bad)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


def test_compare_trace_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "trace_x_0.csv"
    bad.write_bytes(b"\xff\xfe")
    with pytest.raises(TraceFormatError, match="trace_x_0.csv.*utf-8"):
        compare([bad])
    assert main(["compare", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trace_x_0.csv" in err and "Traceback" not in err


@pytest.mark.parametrize("out", ["dir", "missing/m.csv"])
def test_compare_unwritable_out_exits_2(tmp_path, capsys, out):
    trace = _run_once(tmp_path)
    (tmp_path / "dir").mkdir()
    assert main(["compare", str(trace), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and out in err and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_run_out_that_is_a_file_exits_2_and_runs_nothing(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    out = tmp_path / "o"
    out.write_text("kept")
    ran = []
    monkeypatch.setattr(cli, "run", lambda *args: ran.append(args))
    assert main(["run", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert ran == [] and out.read_text() == "kept"


# -- argparse entry ------------------------------------------------------------


def test_main_run_and_compare(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 0
    trace = tmp_path / "o" / "trace_exact_tr_0.csv"
    assert main(["compare", str(trace), "--out", str(tmp_path / "m.csv")]) == 0
    assert main(["compare", str(tmp_path / "o" / "summary.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_python_m_strbench_compare_exit_codes(tmp_path):
    # the ``python -m strbench`` entry point, in a process of its own
    spec = tmp_path / "spec.json"
    write_spec(spec)
    assert run_experiment(spec, out_dir=tmp_path / "o") == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def strbench(*args):
        return subprocess.run([sys.executable, "-m", "strbench", *args],
                              capture_output=True, text=True, env=env, timeout=120)

    ok = strbench("compare", str(tmp_path / "o" / "trace_exact_tr_0.csv"))
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.splitlines()[0] == ",".join(COMPARE_HEADER)
    bad = strbench("compare", str(tmp_path / "o" / "summary.json"))
    assert bad.returncode == 2
    assert "error" in bad.stderr and "Traceback" not in bad.stderr


def test_spec_config_keys_are_runconfig_fields():
    from strbench.cli import _CONFIG_KEYS

    assert _CONFIG_KEYS == {
        "epsilon", "delta", "K_override", "mode", "kappa_grad", "kappa_hess",
        "sub_s1", "sub_s2",
    }


def test_readme_lists_the_variant_option_keys():
    from strbench.cli import _CONFIG_KEYS

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    [paragraph] = [p for p in readme.split("\n\n") if p.startswith("Variant option keys:")]
    listed = re.findall(r"`(\w+)`", paragraph)
    assert len(listed) == len(set(listed))
    assert set(listed) == _CONFIG_KEYS | {"variant", "label", "L1", "L2"}


def test_spec_defaults_match_protocol(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec)  # reg fields omitted
    loaded = load_spec(spec)
    assert loaded.reg_lambda == 1e-3
    assert loaded.reg_alpha == 10.0
    assert loaded.normalize_rows is False
    assert loaded.lip_mode == "analytic"


def test_normalize_rows_gives_unit_rows_and_keeps_zero_rows(tmp_path):
    data = tmp_path / "rows.svm"
    data.write_text("+1 1:3 2:4\n-1\n+1 2:0.5\n-1 1:-2 2:1e-3\n")
    spec = tmp_path / "spec.json"
    write_spec(spec, task="logistic_nc", dataset={"path": str(data)}, normalize_rows=True,
               variants=[{"variant": "exact_tr", "epsilon": 1e-2, "K_override": 3}])
    X = build_problem(load_spec(spec)).X
    assert np.array_equal(X[0], [0.6, 0.8])
    assert np.allclose(np.linalg.norm(X[[0, 2, 3]], axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert np.array_equal(X[1], [0.0, 0.0])  # an all-zero row is left as it is
    assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 0


# -- numeric aborts and bad datasets ---------------------------------------------


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("extra", [{}, {"K_override": 5}])
def test_overflowing_lipschitz_bounds_fail_the_run(tmp_path, capsys, extra):
    data = tmp_path / "huge.svm"
    data.write_text("+1 1:1e300 2:1e300\n-1 1:-1e300\n+1 2:1e300\n")
    spec = tmp_path / "spec.json"
    write_spec(spec, task="logistic_nc", dataset={"path": str(data)},
               variants=[{"variant": "exact_tr", "epsilon": 1e-2, **extra}])
    assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 1
    assert "Traceback" not in capsys.readouterr().err
    (entry,) = json.loads((tmp_path / "o" / "summary.json").read_text())["runs"]
    assert entry["failed"] is True
    assert "L1" in entry["error"] or "L2" in entry["error"]
    assert entry["iterations"] == 0
    assert entry["counters"] == {"sfo": 0, "sso": 0}


def test_huge_reg_alpha_fails_the_run(tmp_path, capsys):
    # alpha**1.5 overflows a float from alpha of about 3.2e205 on; the analytic
    # L2 is then inf, a numeric abort
    spec = tmp_path / "spec.json"
    write_spec(spec, task="logistic_nc", dataset={"synthetic": {"n": 40, "d": 3, "seed": 1}},
               reg_alpha=1e300, variants=[{"variant": "exact_tr", "epsilon": 1e-2}])
    assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 1
    assert "Traceback" not in capsys.readouterr().err
    (entry,) = json.loads((tmp_path / "o" / "summary.json").read_text())["runs"]
    assert entry["failed"] is True
    assert entry["error"] == "L2=inf is not finite and positive"
    assert entry["counters"] == {"sfo": 0, "sso": 0}


@pytest.mark.parametrize("variant, epsilon, name", [
    ("exact_tr", 1e-300, "K"),  # eps**1.5 underflows to 0
    ("exact_tr", 1e250, "K"),   # eps**1.5 overflows
    ("str1", 1e308, "r"),       # so does eps / L2, here below 1
])
def test_epsilon_past_the_iteration_cap_range_fails_the_run(tmp_path, capsys, variant,
                                                            epsilon, name):
    spec = tmp_path / "spec.json"
    write_spec(spec, task="nls_nc", dataset={"synthetic": {"n": 200, "d": 5, "seed": 1}},
               variants=[{"variant": variant, "epsilon": epsilon}])
    assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 1
    assert "Traceback" not in capsys.readouterr().err
    (entry,) = json.loads((tmp_path / "o" / "summary.json").read_text())["runs"]
    assert entry["failed"] is True
    assert entry["error"].startswith(f"{name}=")
    assert entry["error"].endswith("is not finite and positive")
    assert entry["iterations"] == 0
    assert entry["counters"] == {"sfo": 0, "sso": 0}


def test_aborted_run_reports_partial_counters(tmp_path, monkeypatch):
    import strbench.driver as drv
    from strbench.trs import TrsNumericError

    calls = []
    solve = drv.solve_trs_exact

    def failing_third_solve(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise TrsNumericError("injected failure")
        return solve(*args, **kwargs)

    monkeypatch.setattr(drv, "solve_trs_exact", failing_third_solve)
    spec = tmp_path / "spec.json"
    write_spec(spec, task="logistic_nc", dataset={"synthetic": {"n": 60, "d": 5, "seed": 4}},
               variants=[{"variant": "exact_tr", "epsilon": 1e-3}])
    assert run_experiment(spec, out_dir=tmp_path / "o") == 1
    (entry,) = json.loads((tmp_path / "o" / "summary.json").read_text())["runs"]
    assert entry["failed"] is True
    assert "injected failure" in entry["error"]
    assert entry["iterations"] == 2
    trace = read_csv(tmp_path / "o" / "trace_exact_tr_0.csv")
    assert len(trace) == 3
    assert entry["counters"]["sfo"] == 3 * 60 > int(trace[-1][5])
    assert entry["counters"]["sso"] == 3 * 60 > int(trace[-1][6])


def test_index_too_large_to_densify_exits_2(tmp_path, capsys):
    data = tmp_path / "wide.svm"
    data.write_text(f"+1 1:1.0 {2**62}:1.0\n-1 2:1.0\n")
    spec = tmp_path / "spec.json"
    write_spec(spec, task="logistic_nc", dataset={"path": str(data)})
    run_exits_2(spec, tmp_path / "o", capsys)


@pytest.mark.parametrize("task", ["logistic_nc", "synthetic_quad"])
def test_synthetic_too_large_to_allocate_exits_2(tmp_path, capsys, task):
    # 8e15 bytes: above 2**47, so no overcommit setting lets it succeed, and below
    # 2**63, so numpy reports a failed allocation rather than "array is too big"
    spec = tmp_path / "spec.json"
    write_spec(spec, task=task, dataset={"synthetic": {"n": 10**9, "d": 10**6}})
    assert "allocate" in run_exits_2(spec, tmp_path / "o", capsys)


# -- a bad variant option stops the whole spec before any run -----------------------


@pytest.mark.parametrize("option", [
    {"mode": "bogus"},
    {"kappa_hess": 0.5},  # theory mode (the default) rejects kappa_grad/kappa_hess
    {"mode": "practical", "kappa_grad": 0},
    {"hess_option": "III"},  # the Hessian option is chosen by cost, with no setting
    {"solver_tol": "x"},
    {"solver_tol": 1e-10},
    {"variant": "subsampled", "sub_s1": 0},
    {"sub_s1": 5},  # str1 never reads it: refused, not ignored
    {"variant": "exact_tr", "hess_option": "I"},
    {"solver": "lanczos"},  # not RunConfig fields: unknown keys fail the run,
    {"m_max": 2},           # they are not silently ignored
    {"L1": "x", "L2": 1.0},
    {"L1": -1.0, "L2": 1.0},
    {"L1": "2", "L2": 1.0},  # numeric strings and booleans are not coerced
    {"L1": 1.0, "L2": True},
    {"r_override": 1.0},  # the radius is sqrt(epsilon/L2), with no second setting
    {"delta_hat": 1.0},   # the cap's gap is F(x0)
    {"variant": "subsampled", "sub_s1": 2**62},  # a batch past the n = 200 rows
    {"variant": "subsampled", "sub_s2": 201},
    {"K_override": 0},  # an iteration cap below 1 is a bad option, not a numeric abort
    {"K_override": -3},
])
def test_bad_variant_option_fails_the_run(tmp_path, capsys, option):
    # the good variant listed first does not run either: a spec runs whole or not at all
    spec = tmp_path / "spec.json"
    variant = {"variant": "str1", "label": "v", "epsilon": 1e-2, "K_override": 3, **option}
    write_spec(spec, task="nls_nc", dataset={"synthetic": {"n": 200, "d": 5, "seed": 1}},
               variants=[{"variant": "exact_tr", "epsilon": 1e-2, "K_override": 3}, variant])
    assert "for v:" in run_exits_2(spec, tmp_path / "o", capsys)


@pytest.mark.parametrize("overrides", [
    {"seeds": [-1]},
    {"seeds": [float("inf")]},
    {"dataset": 0},  # not a file name (0 would be read as a file descriptor)
    {"dataset": {"synthetic": {"n": float("inf"), "d": 3}}},
    {"reg_lambda": -1.0},
    {"reg_alpha": 0.0},
    {"output_dir": "o"},  # not a spec key: ``--out`` names the output directory
    {"variants": [{"variant": "exact_tr", "label": "a/b"}]},
    # trace_<label>_<seed>.csv must be a UTF-8 file name of at most 255 bytes
    {"variants": [{"variant": "exact_tr", "label": "a" * 300}]},
    {"seeds": [0, 2**63 - 1], "variants": [{"variant": "exact_tr", "label": "a" * 226}]},
    {"variants": [{"variant": "exact_tr", "label": "\ud800"}]},
])
def test_bad_spec_field_exits_2(tmp_path, capsys, overrides):
    spec = tmp_path / "spec.json"
    write_spec(spec, **{"task": "logistic_nc",
                        "dataset": {"synthetic": {"n": 40, "d": 3, "seed": 1}}, **overrides})
    run_exits_2(spec, tmp_path / "o", capsys)


@pytest.mark.parametrize("overrides,field", [
    ({"normalize_rows": "false"}, "normalize_rows"),
    ({"normalize_rows": 0}, "normalize_rows"),
    ({"seeds": [2.5]}, "seeds"),
    ({"seeds": ["7"]}, "seeds"),
    ({"seeds": [True]}, "seeds"),
    ({"seeds": 3}, "seeds"),
    ({"dataset": {"synthetic": {"n": 40, "d": 3, "separable": "false"}}}, "separable"),
    ({"dataset": {"synthetic": {"n": 40, "d": 3, "seed": 1.9}}}, "seed"),
    ({"dataset": {"synthetic": {"n": 40.0, "d": 3}}}, "n"),
    ({"dataset": {"synthetic": {"n": 40, "d": True}}}, "d"),
    ({"task": "synthetic_quad", "dataset": {"synthetic": {"n": "30", "d": 5}}}, "n"),
    ({"reg_lambda": True}, "reg_lambda"),
    ({"reg_lambda": "0.5"}, "reg_lambda"),
    ({"reg_alpha": "10"}, "reg_alpha"),
    ({"dataset": {"path": 0}}, "dataset path must be a string"),  # 0 would open stdin
])
def test_spec_field_of_the_wrong_json_type_exits_2(tmp_path, capsys, overrides, field):
    # flags take JSON booleans and counts or seeds JSON integers; nothing is coerced
    spec = tmp_path / "spec.json"
    write_spec(spec, **{"task": "logistic_nc",
                        "dataset": {"synthetic": {"n": 40, "d": 3, "seed": 1}}, **overrides})
    assert field in run_exits_2(spec, tmp_path / "o", capsys)


_BIG = "1" + "0" * 400  # a JSON integer past float64 and int64


@pytest.mark.parametrize("field,literal", [
    ("epsilon", _BIG),
    ("K_override", _BIG),
    ("sub_s1", str(2**63)),
    ("sub_s2", str(2**63)),
    ("K_override", str(-2**63 - 1)),
    ("epsilon", "1e999"),
    ("L1", "1e999"),
    ("L1", _BIG),
    ("epsilon", "NaN"),
    ("epsilon", "Infinity"),
    ("epsilon", "-Infinity"),
], ids=lambda v: v if len(v) < 25 else f"{len(v)}-digits")
def test_spec_number_no_float64_or_int64_holds_exits_2(tmp_path, capsys, field, literal):
    variant = {"variant": "subsampled" if field.startswith("sub_") else "str1",
               "K_override": 3, field: "X", **({"L2": 1.0} if field == "L1" else {})}
    spec = tmp_path / "spec.json"
    write_spec(spec, task="nls_nc", dataset={"synthetic": {"n": 40, "d": 3, "seed": 1}},
               variants=[variant])
    spec.write_text(spec.read_text().replace('"X"', literal))
    run_exits_2(spec, tmp_path / "o", capsys)


def test_spec_that_is_not_utf8_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec, variants=[{"variant": "exact_tr", "label": "LABEL"}])
    spec.write_bytes(spec.read_bytes().replace(b"LABEL", b"\xff"))
    assert "utf-8" in run_exits_2(spec, tmp_path / "o", capsys)


@pytest.mark.parametrize("d", ["x", 2.5, [1], 1e300, True])
def test_non_integer_dataset_width_exits_2(tmp_path, capsys, d):
    data = tmp_path / "d.svm"
    data.write_text("+1 1:0.5\n-1 1:-0.3\n")  # one feature: true would read as width 1
    spec = tmp_path / "spec.json"
    write_spec(spec, task="logistic_nc", dataset={"path": str(data), "d": d})
    assert "d must be an integer" in run_exits_2(spec, tmp_path / "o", capsys)


@pytest.mark.parametrize("overrides,key", [
    ({"reg_lamda": 0.5}, "reg_lamda"),  # misspelt: reg_lambda would silently stay 1e-3
    ({"epsilon": 1e-2}, "epsilon"),  # a variant option, not a spec key
    ({"dataset": {"path": "DATA", "normalise": True}}, "normalise"),
    ({"dataset": {"path": "DATA", "synthetic": {"n": 40, "d": 3}}}, "synthetic"),
    ({"dataset": {"synthetic": {"n": 40, "d": 3, "seperable": True}}}, "seperable"),
    ({"dataset": {"synthetic": {"n": 40, "d": 3}, "d": 3}}, "'d'"),
    ({"task": "synthetic_quad", "dataset": {"n": 30, "d": 5, "path": "DATA"}}, "'n'"),
    ({"task": "synthetic_quad", "dataset": {"synthetic": {"n": 30, "d": 5, "separable": True}}},
     "separable"),  # the quadratic family has no labels to separate
    ({"task": "synthetic_quad", "dataset": {"path": "DATA"}}, "synthetic"),
    ({"dataset": "DATA"}, "dataset"),  # a bare path is not a dataset object
    # nor has it a regularizer or rows to normalize; given at its default, too
    *(({"task": "synthetic_quad", "dataset": {"synthetic": {"n": 20, "d": 3}}, key: value}, key)
      for key, value in (("reg_lambda", 0.5), ("reg_alpha", 3.0), ("normalize_rows", True),
                         ("reg_lambda", 1e-3))),
])
def test_unknown_spec_key_exits_2(tmp_path, capsys, overrides, key):
    data = tmp_path / "d.svm"
    data.write_text("+1 1:0.5 3:1\n-1 2:-0.3\n+1 1:1\n")
    overrides = json.loads(json.dumps(overrides).replace('"DATA"', json.dumps(str(data))))
    spec = tmp_path / "spec.json"
    write_spec(spec, **{"task": "logistic_nc", **overrides})
    assert key in run_exits_2(spec, tmp_path / "o", capsys)


def test_spec_that_is_not_an_object_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("[]")
    assert "spec must be a JSON object" in run_exits_2(spec, tmp_path / "o", capsys)


def test_synthetic_params_that_are_not_an_object_exit_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec, task="logistic_nc", dataset={"synthetic": [40, 3]})
    assert "synthetic must be a JSON object" in run_exits_2(spec, tmp_path / "o", capsys)


@pytest.mark.parametrize("overrides,repeated", [
    ({"variants": [{"variant": "str1"}, {"variant": "str1", "K_override": 3}]}, "str1"),
    ({"variants": [{"variant": "str1", "label": "a"}, {"variant": "str2", "label": "a"}]}, "a"),
    ({"variants": [{"variant": "exact_tr", "label": "str1"}, {"variant": "str1"}]}, "str1"),
    ({"seeds": [0, 1, 0]}, 0),
])
def test_repeated_label_or_seed_exits_2(tmp_path, capsys, overrides, repeated):
    # each (label, seed) names one trace file: a repeat would overwrite a trace
    # that summary.json still lists
    spec = tmp_path / "spec.json"
    write_spec(spec, **overrides)
    err = run_exits_2(spec, tmp_path / "o", capsys, "--threads", "2")
    assert "repeat" in err and repr(repeated) in err


# -- exit contract: any spec mutation ends in exit 0, 1 or 2 -----------------------

_BASE_SPEC = {
    "task": "nls_nc",
    "dataset": {"synthetic": {"n": 40, "d": 3, "seed": 1}},
    "seeds": [0],
    "reg_lambda": 1e-3,
    "lip_mode": "analytic",
    "variants": [
        {"variant": "str2", "epsilon": 0.1, "K_override": 3, "mode": "practical",
         "kappa_hess": 0.5},
        {"variant": "exact_tr", "label": "ex", "L1": 1.0, "L2": 1.0, "K_override": 3},
        {"variant": "subsampled", "epsilon": 0.1, "K_override": 3, "sub_s1": 5},
    ],
}


def _spec_paths(spec, prefix=()):
    """Key paths to every dict entry and list element of the spec, nested ones too."""
    found = []
    items = spec.items() if isinstance(spec, dict) else enumerate(spec)
    for key, value in items:
        found.append(prefix + (key,))
        if isinstance(value, (dict, list)):
            found += _spec_paths(value, prefix + (key,))
    return found


def _spec_get(spec, path):
    for key in path:
        spec = spec[key]
    return spec


_PATHS = _spec_paths(_BASE_SPEC)
_DICTS = [()] + [p for p in _PATHS if isinstance(_spec_get(_BASE_SPEC, p), dict)]
_VALUES = [None, True, False, -1, 0, 2, 0.5, 1e300, -1e300, float("nan"), float("inf"),
           "x", "", "exact_tr", [], {}, [1], {"a": 1}]

_mutation = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(_PATHS), st.just(None)),
    st.tuples(st.just("set"), st.sampled_from(_PATHS), st.sampled_from(_VALUES)),
    st.tuples(st.just("add"), st.sampled_from(_DICTS), st.sampled_from(_VALUES)),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(mutation=_mutation)
def test_any_spec_mutation_keeps_the_exit_contract(mutation):
    action, path, value = mutation
    spec = copy.deepcopy(_BASE_SPEC)
    if action == "add":
        _spec_get(spec, path)["unknown_field"] = value
    else:
        parent = _spec_get(spec, path[:-1])
        if action == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        out = os.path.join(tmp, "o")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", spec_path, "--out", out])
        assert code in (0, 1, 2)
        # exit 2 writes nothing; exit 1 is a numeric abort, reported in the summary
        assert os.path.exists(out) == os.path.exists(os.path.join(out, "summary.json")) == (
            code != 2)
        if code != 2:
            with open(os.path.join(out, "summary.json")) as fh:
                runs = json.load(fh)["runs"]
            # each entry is a finished run or a numeric abort, with no third shape
            for e in runs:
                assert "config" in e and ("error" in e) == e["failed"] != ("stop_reason" in e)
            assert any(e["failed"] for e in runs) == (code == 1)
        assert "Traceback" not in err.getvalue()
