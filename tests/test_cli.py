import csv
import json
import os

import numpy as np
import pytest

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
from strbench.problems import lipschitz_bounds


def write_spec(path, **overrides):
    spec = {
        "task": "synthetic_quad",
        "dataset": {"synthetic": {"n": 30, "d": 5, "seed": 2}},
        "seeds": [0],
        "output_dir": str(path.parent / "out"),
        "variants": [{"variant": "exact_tr", "epsilon": 1e-4, "K_override": 300}],
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return spec


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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
    assert run_experiment(tmp_path / "nope.json") == 2
    assert "error" in capsys.readouterr().err


def test_run_bad_dataset_exits_2(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec, task="logistic_nc", dataset={"path": str(tmp_path / "missing.libsvm")})
    assert run_experiment(spec, out_dir=tmp_path / "o") == 2


def test_run_unknown_config_key_fails_run(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec, variants=[{"variant": "exact_tr", "bogus_knob": 1}])
    assert run_experiment(spec, out_dir=tmp_path / "o") == 1
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["runs"][0]["failed"] is True


def test_seed_env_override(tmp_path, monkeypatch):
    spec = tmp_path / "spec.json"
    write_spec(spec, seeds=[0, 1, 2])
    monkeypatch.setenv("STR_SEED", "7")
    run_experiment(spec, out_dir=tmp_path / "o")
    names = sorted(p.name for p in (tmp_path / "o").glob("trace_*.csv"))
    assert names == ["trace_exact_tr_7.csv"]


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


def test_seed_env_not_an_integer_exits_2(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    monkeypatch.setenv("STR_SEED", "abc")
    assert run_experiment(spec, out_dir=tmp_path / "o") == 2
    assert "STR_SEED" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    assert main(["run", str(spec), "--out", str(tmp_path / "o"), "--threads", threads]) == 2
    assert "threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_lip_mode_unknown_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec, lip_mode="bogus")
    assert run_experiment(spec, out_dir=tmp_path / "o") == 2
    assert "lip_mode" in capsys.readouterr().err


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


def test_compare_bad_filename(tmp_path):
    bad = tmp_path / "notatrace.csv"
    bad.write_text(",".join(TRACE_HEADER) + "\n")
    with pytest.raises(TraceFormatError):
        compare([bad])


# -- argparse entry ------------------------------------------------------------


def test_main_run_and_compare(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 0
    trace = tmp_path / "o" / "trace_exact_tr_0.csv"
    assert main(["compare", str(trace), "--out", str(tmp_path / "m.csv")]) == 0
    assert main(["compare", str(tmp_path / "o" / "summary.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_spec_defaults_match_protocol(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec)  # reg fields omitted
    loaded = load_spec(spec)
    assert loaded.reg_lambda == 1e-3
    assert loaded.reg_alpha == 10.0
    assert loaded.normalize_rows is False
    assert loaded.lip_mode == "analytic"
