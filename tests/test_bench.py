"""The scaling-ladder script must stay runnable and keep earlier runs."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_ladder_records_and_compares_two_runs(tmp_path):
    out = tmp_path / "bench.json"
    for label in ("parent", "change"):
        proc = subprocess.run([sys.executable, str(SCRIPT), "--out", str(out),
                               "--label", label, "--max-k", "25"],
                              capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(out.read_text())
    assert doc["machine"]["blas_threads"] == 1
    cells = {(r["n"], r["v"], r["policy"]) for r in doc["runs"]["change"]}
    assert cells == {(n, v, p) for n in (2, 3)
                     for v, p in (("uniform", "P2"), ("uniform", "P3"), ("skewed", "P3"))}
    assert all(r["k"] == 25 and r["kernel_calls"] >= 1 and 0 < r["ltec"] <= 1
               for r in doc["runs"]["change"])
    sims = [r for r in doc["runs"]["change"] if r["policy"] == "P3"]
    assert len(sims) == 4
    assert all(r["sim_median_s"] > 0 and 0 <= r["empirical_cost_rate"] <= 1 for r in sims)
    assert doc["compare"]["max_ltec_diff"] == 0.0  # same code, same answers
    assert doc["compare"]["kernel_calls_changed"] == 0
    assert doc["compare"]["policies_changed"] == 0
    assert all(len(r["policy_sha256"]) == 64 for r in doc["runs"]["change"])
    assert len(doc["compare"]["cells"]) == 6
    compared = [c for c in doc["compare"]["cells"] if c["policy"] == "P3"]
    assert all(c["sim_ratio"] > 0 and c["sim_rate_diff"] == 0.0 for c in compared)
    assert doc["compare"]["max_sim_rate_diff"] == 0.0
