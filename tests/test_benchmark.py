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


def _certified_pass(monkeypatch, workload):
    """Run one seed-43 pass of ``workload``; return the outcome of each
    Gershgorin test of the Krylov path and the sizes of the matrices handed to
    ``np.linalg.cholesky`` and to ``np.linalg.eigh``."""
    import numpy as np

    from strbench import trs

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import speed
    import workloads

    proofs, chols, eighs = [], [], []
    gershgorin, cholesky, eigh = trs._gershgorin_definite, np.linalg.cholesky, np.linalg.eigh

    def recording_proof(H, shift):
        proofs.append(gershgorin(H, shift))
        return proofs[-1]

    def counting(calls, fn):
        def counted(A, *args, **kwargs):
            calls.append(len(A))
            return fn(A, *args, **kwargs)
        return counted

    monkeypatch.setattr(trs, "_gershgorin_definite", recording_proof)
    monkeypatch.setattr(np.linalg, "cholesky", counting(chols, cholesky))
    monkeypatch.setattr(np.linalg, "eigh", counting(eighs, eigh))
    ops = workloads.WORKLOADS[workload]().run_pass(43, speed.Clock(calibrate=False)).ops
    assert [op.error for op in ops] == [None, None, None]
    return proofs, chols, eighs


def test_wide_pass_certifies_every_krylov_step_without_a_factorization(monkeypatch):
    # each d = 400 subproblem of a seed-43 `wide` pass is proved optimal by
    # Gershgorin's circles, so the O(d^3) Cholesky factorization never runs
    proofs, chols, _ = _certified_pass(monkeypatch, "wide")
    assert len(proofs) == 27 and all(proofs)
    assert chols == []


def test_tall_pass_solves_every_subproblem_on_the_krylov_path(monkeypatch):
    # each d = 50 subproblem of a seed-43 `tall` pass is solved in g's Krylov
    # space and proved optimal by Gershgorin's circles: no d x d
    # eigendecomposition and no Cholesky factorization
    proofs, chols, eighs = _certified_pass(monkeypatch, "tall")
    assert len(proofs) == 147 and all(proofs)
    assert chols == []
    assert eighs == []
