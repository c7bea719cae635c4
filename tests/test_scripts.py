"""Smoke tests: the scripts under ``scripts/`` run end to end on a tiny instance."""

import os
import subprocess
import sys
from pathlib import Path

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
                                "fallbacks"]
    assert [line.split()[0] for line in lines[1:3]] == ["5", "150"]
    assert lines[-1].startswith("solve_trs_exact takes the Krylov path from d = ")
