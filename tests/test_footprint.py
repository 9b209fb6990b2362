"""What a fresh interpreter loads: the default path (config, `auto` solves,
`evaluate`, `simulate`, sweeps and the CLI around them) needs numpy and yaml
only. scipy is imported on first use, by the LP oracle (`--solver highs`)
and by edge-list ingestion (connected components)."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = {"graph": {"kind": "poisson", "k": 40, "mean_degree": 5}, "alpha": 0.8, "n": 3,
          "v": [0.6, 0.3, 0.1], "q": 0.9, "zipf_s": 0.7, "cache_size": 2, "seed": 1}

PRELUDE = f"""
import json, sys
from cacherec import cli, data, markov, policies, sim
CONFIG = json.loads({json.dumps(json.dumps(CONFIG))})

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(*argv):
    code = cli.main(list(argv))
    assert code == cli.EXIT_OK, (argv, code)
"""

DEFAULT_PATH = PRELUDE + """
scenario, _ = data.scenario_from_config(CONFIG)
for name in ("baseline", "P1", "P2", "P3"):
    result = policies.solve_named(name, scenario)
markov.evaluate(result.policy, scenario)
sim.simulate(result.policy, scenario, steps=5000, seed=1)
cli.run_sweep(cli.SweepSpec(config=CONFIG, axis="q", values=[0.5, 0.9],
                            policies=["baseline", "P1", "P2"], reference="P1", workers=1))
with open("c.json", "w") as fh:
    json.dump(CONFIG, fh)
run("gen", "--config", "c.json", "--out", "s.npz")
for problem in ("greedy", "uni", "pref"):
    run("solve", "--config", "c.json", "--problem", problem, "--out", problem + ".csv")
run("eval", "--scenario", "s.npz", "--policy", "pref.csv")
run("sim", "--scenario", "s.npz", "--policy", "pref.csv", "--steps", "5000")
print(json.dumps(scipy_modules()))
"""

FIRST_USE = PRELUDE + """
assert scipy_modules() == []
with open("edges.txt", "w") as fh:
    fh.write("0 1 0.9\\n1 2 0.8\\n2 3 0.7\\n3 0 0.6\\n0 2 0.5\\n7 8 0.9\\n")
run("ingest", "--edges", "edges.txt", "--threshold", "0.1", "--out", "s.npz")
ingest = "scipy.sparse.csgraph" in sys.modules
run("solve", "--scenario", "s.npz", "--problem", "uni", "--solver", "highs", "--out", "p.csv")
print(json.dumps([ingest, "scipy.optimize" in sys.modules]))
"""


def run_fresh(code: str, cwd: Path) -> str:
    """Standard output of `code` run by a new interpreter that imports the
    package from this checkout."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_default_path_loads_no_scipy(tmp_path):
    assert json.loads(run_fresh(DEFAULT_PATH, tmp_path)) == []


def test_ingest_and_the_lp_oracle_import_scipy_on_first_use(tmp_path):
    assert json.loads(run_fresh(FIRST_USE, tmp_path)) == [True, True]
