"""Scaling ladder of the default (method="auto") solvers, P2 and P3.

Run from the root of a cacherec checkout:

    python3 bench/run.py --out BENCH_8.json --label change
    python3 bench/run.py --out BENCH_8.json --label parent --src ../parent/src

Every cell builds a Poisson-graph scenario (mean degree 8, Zipf(0.7)
popularity, a cache of K/50 items, alpha = 0.8, q = 0.9, graph seed 1) for
K in LADDER and N in {2, 3}, with uniform clicks or the skewed clicks
SKEWED[N]. P3 runs on both click vectors. P2 solves the uniform-click
problem whatever the clicks are, so it runs once per (K, N). A cell repeats
its solve until the solves add up to TIME_FLOOR_S (at least MIN_SOLVES
times) and records the median and minimum wall time, the number of solves,
the kernel calls (`PolicyResult.iterations`) and the LTEC. A P3 cell then
simulates SIM_STEPS requests of its policy (seed SIM_SEED) the same way,
until the simulations add up to TIME_FLOOR_S, and records their median
wall time and the empirical cost rate.

The cacherec package is imported from --src (default: this checkout's src/),
so one script measures two checkouts with identical settings. The records go
to `runs[label]` of the --out file, and the file's other labels are kept.
Once it holds both a "parent" and a "change" run, `compare` lists each
cell's time ratio (change / parent), kernel calls and LTEC difference, and
for P3 cells the simulation's time ratio and cost-rate difference; it also
counts the cells whose kernel calls differ. The script uses one
BLAS thread and needs only the standard library and numpy.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
LADDER = (25, 50, 100, 200, 400, 800, 1600, 3200)
SKEWED = {2: [0.7, 0.3], 3: [0.6, 0.3, 0.1]}
GRAPH_SEED = 1


#: Each cell repeats its solve until the solves add up to this many seconds,
#: so a cell of a few milliseconds takes hundreds of solves and its median
#: is steady; cells of a second or more take MIN_SOLVES.
TIME_FLOOR_S = 0.5
MIN_SOLVES = 3
#: The session a P3 cell simulates, as `cacherec sim` would.
SIM_STEPS = 250_000
SIM_SEED = 1


def cells(max_k: int):
    for k in (k for k in LADDER if k <= max_k):
        for n in (2, 3):
            yield k, n, "uniform", "P2"
            yield k, n, "uniform", "P3"
            yield k, n, "skewed", "P3"


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": 1}


def run_cell(cacherec, k: int, n: int, v: str, name: str) -> dict:
    cfg = {"graph": {"kind": "poisson", "k": k, "mean_degree": 8}, "alpha": 0.8, "n": n,
           "v": SKEWED[n] if v == "skewed" else "uniform", "q": 0.9, "zipf_s": 0.7,
           "cache_size": max(1, k // 50), "seed": GRAPH_SEED}
    scenario, _ = cacherec.scenario_from_config(cfg)
    times, result = timed(lambda: cacherec.solve_named(name, scenario))
    rec = {"k": k, "n": n, "v": v, "policy": name, "median_s": statistics.median(times),
           "min_s": min(times), "solves": len(times), "kernel_calls": result.iterations,
           "ltec": result.report.ltec}
    if name == "P3":
        times, report = timed(lambda: cacherec.simulate(result.policy, scenario,
                                                        steps=SIM_STEPS, seed=SIM_SEED))
        rec.update(sim_median_s=statistics.median(times),
                   empirical_cost_rate=report.empirical_cost_rate)
    return rec


def timed(fn) -> tuple[list[float], object]:
    """Wall times of repeated calls of fn, until they add up to TIME_FLOOR_S
    (at least MIN_SOLVES calls), and the last call's result."""
    times = []
    while len(times) < MIN_SOLVES or sum(times) < TIME_FLOOR_S:
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return times, out


def compare(parent: list[dict], change: list[dict]) -> dict:
    def key(rec):
        return rec["k"], rec["n"], rec["v"], rec["policy"]

    before = {key(rec): rec for rec in parent}
    rows = []
    for rec in change:
        prev = before.get(key(rec))
        if prev is None:
            continue
        row = {"k": rec["k"], "n": rec["n"], "v": rec["v"], "policy": rec["policy"],
               "time_ratio": rec["median_s"] / prev["median_s"],
               "kernel_calls": [prev["kernel_calls"], rec["kernel_calls"]],
               "ltec_diff": abs(rec["ltec"] - prev["ltec"])}
        if "sim_median_s" in rec and "sim_median_s" in prev:
            row.update(sim_ratio=rec["sim_median_s"] / prev["sim_median_s"],
                       sim_rate_diff=abs(rec["empirical_cost_rate"]
                                         - prev["empirical_cost_rate"]))
        rows.append(row)
    return {"max_ltec_diff": max((row["ltec_diff"] for row in rows), default=None),
            "max_sim_rate_diff": max((row["sim_rate_diff"] for row in rows
                                      if "sim_rate_diff" in row), default=None),
            "kernel_calls_changed": sum(row["kernel_calls"][0] != row["kernel_calls"][1]
                                        for row in rows),
            "cells": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to add this run to")
    parser.add_argument("--label", default="change", help="key of this run in the file")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the cacherec package to measure")
    parser.add_argument("--max-k", type=int, default=LADDER[-1],
                        help="stop the ladder after this K")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    import cacherec

    records = []
    for cell in cells(args.max_k):
        rec = run_cell(cacherec, *cell)
        records.append(rec)
        sim = (f", sim median {rec['sim_median_s']:.4f} s"
               if "sim_median_s" in rec else "")
        print(f"K={rec['k']:5d} N={rec['n']} v={rec['v']:7s} {rec['policy']}: "
              f"median {rec['median_s']:.4f} s, {rec['kernel_calls']} kernel calls, "
              f"LTEC {rec['ltec']:.15f}{sim}", flush=True)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = machine()
    doc.setdefault("runs", {})[args.label] = records
    if {"parent", "change"} <= doc["runs"].keys():
        doc["compare"] = compare(doc["runs"]["parent"], doc["runs"]["change"])
        print(f"max |LTEC change - parent| = {doc['compare']['max_ltec_diff']!r}, "
              f"max |sim cost rate change - parent| = "
              f"{doc['compare']['max_sim_rate_diff']!r}, cells with changed kernel "
              f"calls: {doc['compare']['kernel_calls_changed']}")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
