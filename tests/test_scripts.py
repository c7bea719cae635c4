"""Smoke tests: the scripts under ``scripts/`` run end to end on a tiny instance."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_bench_synthetic_runs(tmp_path):
    proc = run_script("bench_synthetic.py", "--n", 60, "--d", 5, "--epsilon", 1e-2,
                      "--baseline-cap", 20, "--out", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[1].split() == [
        "variant", "seed", "iters", "sfo", "sso", "|grad|", "certified", "stop"]
    assert (tmp_path / "out" / "merged.csv").exists()


def test_sweep_kappa_runs():
    proc = run_script("sweep_kappa.py", "--n", 60, "--d", 5, "--epsilon", 1e-2)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0].split() == [
        "kappa", "iters", "sfo", "sso", "|grad|", "certified", "stop"]


def test_trs_crossover_runs():
    proc = run_script("trs_crossover.py", "--n", 60, "--dims", 5, 150, "--max-iters", 2,
                      "--repeats", 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["d", "solves", "eigen_ms", "krylov_ms", "krylov_dim",
                                "step_us", "gersh", "fallbacks"]
    assert [line.split()[0] for line in lines[1:3]] == ["5", "150"]
    # the crossover: one of the listed dimensions, or none if Krylov loses at 150
    assert re.fullmatch(r"the Krylov path wins from d = (5|150|none)", lines[-2])
    assert lines[-1].startswith("solve_trs_exact takes the Krylov path from d = ")


def test_sso_scaling_runs():
    proc = run_script("sso_scaling.py", "--n", 200, 400, "--d", 5)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["n", "exact_tr_sso", "str1_sso", "str2_sso", "exact_tr_iters",
                                "str1_iters", "str2_iters", "certified"]
    assert [line.split()[0] for line in lines[1:]] == ["200", "400"]


def test_pairs_runs_two_wide_pairs_against_head():
    inside = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                            capture_output=True, text=True)
    if inside.returncode != 0:
        pytest.skip("pairs.py checks its base out of git, and this tree has no HEAD")
    worktrees = subprocess.run(["git", "-C", str(ROOT), "worktree", "list"],
                               capture_output=True, text=True).stdout
    proc = run_script("pairs.py", "--base", "HEAD", "--workload", "wide", "--pairs", 2,
                      "--seconds", 0.5, "--seed", 1)
    assert proc.returncode == 0, proc.stderr
    line, = proc.stdout.splitlines()
    out = json.loads(line)
    assert out["base"] == inside.stdout.strip() and out["pairs"] == 2
    assert out["fingerprints_identical"] is True
    assert set(out["metrics"]) == {"setup_s", "total_s", "run_s.exact_tr", "run_s.str1",
                                   "run_s.str2", "sfo", "sso", "peak_rss_mb"}
    for m in out["metrics"].values():
        assert 0 <= m["change_lower"] <= 2 and m["base_iqr"] >= 0.0
    assert out["metrics"]["sfo"]["ratio"] == out["metrics"]["sso"]["ratio"] == 1.0
    # the base's worktree is gone again
    assert subprocess.run(["git", "-C", str(ROOT), "worktree", "list"],
                          capture_output=True, text=True).stdout == worktrees
