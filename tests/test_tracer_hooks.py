"""The benchmark's per-layer tracer runs against this source tree.

``perfbench/tracing.py`` rebinds names inside the package's modules (the
RHS closure, the section locators, the manifold tracer, the equilibrium
table, ...).  A rename that unbinds one of them, or a path that stops
going through it, fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_FLAGS = ["--rel-tol", "1e-06", "--abs-tol", "1e-09", "--rho-eq", "1e-05"]


@pytest.mark.parametrize("argv,counters,samples", [
    (["basin", "-M", "0.04", "-S", "0.12", "-Q", "0.45", "-C", "0.07",
      "--resolution", "4"] + FAST_FLAGS,
     ["model.rhs_evals", "equilibria.calls", "basin.cells"], []),
    (["bifurcation", "-Q", "0.5", "-C", "0.1", "--m-window=-0.04,0.01",
      "--s-window=0.005,0.15", "--hom-points", "2", "--hopf-points", "3",
      "--grid", "2x2"] + FAST_FLAGS,
     ["model.rhs_evals", "equilibria.calls", "manifolds.trace_steps",
      "manifolds.refine_calls", "bifurcation.locus_points"],
     # the homoclinic solve calls homoclinic_gap through bifurcation's name
     ["manifolds.gap_ms"]),
], ids=["basin", "bifurcation"])
def test_traced_command(argv, counters, samples, tmp_path):
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(report),
         "trace"] + argv + ["--out-dir", str(tmp_path)],
        env=env, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(report.read_text())
    assert out["rc"] == 0
    counts = out["trace"]["counts"]
    for key in counters:
        assert counts.get(key, 0) > 0, (key, counts)
    for key in samples:
        assert out["trace"]["samples"].get(key), (key, out["trace"].keys())
