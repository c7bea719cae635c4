"""The benchmark's correctness gate, run in tier-1: a change that moves iterates,
oracle counts or certificates fails here, not only in the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload,extra", [
    pytest.param("tall", [], id="tall"),
    pytest.param("wide", [], id="wide"),
    # the only workload that runs nls_nc, subsampled and the CLI
    pytest.param("cli_small", [], id="cli_small"),
    # the traced run also checks the tracer's sfo/sso coverage and replays
    # sampled subproblems through the Krylov solver
    pytest.param("wide", ["--trace", "1"], id="wide-trace"),
])
def test_benchmark_fingerprints_match_references(workload, extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
