"""Scaling ladder of the default (method="auto") solvers, P2 and P3.

Run from the root of a cacherec checkout:

    python3 bench/run.py --out BENCH_8.json
    python3 bench/run.py --out BENCH_8.json --parent-src ../parent/src

Every cell builds a Poisson-graph scenario (mean degree 8, Zipf(0.7)
popularity, a cache of K/50 items, alpha = 0.8, q = 0.9, graph seed 1) for
K in LADDER and N in {2, 3}, with uniform clicks or the skewed clicks
SKEWED[N]. P3 runs on both click vectors. P2 solves the uniform-click
problem whatever the clicks are, so it runs once per (K, N). A cell repeats
its solve until the solves add up to TIME_FLOOR_S (at least MIN_SOLVES
times) and records the median and minimum wall time, the number of solves,
the kernel calls (`PolicyResult.iterations`), the LTEC and a sha256 of the
policy's CSR arrays (indptr, indices, data). A P3 cell then
simulates SIM_STEPS requests of its policy (seed SIM_SEED) the same way,
until the simulations add up to TIME_FLOOR_S, and records their median
wall time and the empirical cost rate.

The cacherec package of this checkout is the "change" run. With
--parent-src, the cacherec package in that directory is imported as a
second package in the same process and is the "parent" run: each cell
builds its scenario in both packages and alternates their solves, and then
their simulations, reversing the order on every repeat, so both see the
same machine state. `compare` then lists each cell's time ratio
(change / parent), kernel calls, LTEC difference and whether its policy
changed, and for P3 cells the simulation's time ratio and cost-rate
difference; it also counts the cells whose kernel calls differ and those
whose policies differ in any bit. The --out file is written afresh. The
script uses one BLAS thread and needs only the standard library and numpy.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
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


def load_parent(src: str):
    """The cacherec package in directory `src`, imported as "cacherec_parent"
    so that it lives beside this checkout's package."""
    pkg = Path(src).resolve() / "cacherec"
    spec = importlib.util.spec_from_file_location(
        "cacherec_parent", pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def run_cell(packages, k: int, n: int, v: str, name: str) -> list[dict]:
    """One record per package, in the order of `packages`."""
    cfg = {"graph": {"kind": "poisson", "k": k, "mean_degree": 8}, "alpha": 0.8, "n": n,
           "v": SKEWED[n] if v == "skewed" else "uniform", "q": 0.9, "zipf_s": 0.7,
           "cache_size": max(1, k // 50), "seed": GRAPH_SEED}
    scenarios = [pkg.scenario_from_config(cfg)[0] for pkg in packages]
    times, results = timed([lambda pkg=pkg, s=s: pkg.solve_named(name, s)
                            for pkg, s in zip(packages, scenarios)])
    recs = [{"k": k, "n": n, "v": v, "policy": name, "median_s": statistics.median(t),
             "min_s": min(t), "solves": len(t), "kernel_calls": result.iterations,
             "ltec": result.report.ltec, "policy_sha256": policy_digest(result.policy)}
            for t, result in zip(times, results)]
    if name == "P3":
        times, reports = timed([
            lambda pkg=pkg, s=s, r=r: pkg.simulate(r.policy, s, steps=SIM_STEPS, seed=SIM_SEED)
            for pkg, s, r in zip(packages, scenarios, results)])
        for rec, t, report in zip(recs, times, reports):
            rec.update(sim_median_s=statistics.median(t),
                       empirical_cost_rate=report.empirical_cost_rate)
    return recs


def policy_digest(policy) -> str:
    """sha256 of a policy's CSR arrays, so two runs can tell equal policies."""
    digest = hashlib.sha256()
    for arr in (policy.indptr, policy.indices, policy.data):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def timed(fns) -> tuple[list[list[float]], list]:
    """Wall times of repeated calls of each function in `fns`, and each one's
    last result. A repeat calls every function once, in order on even
    repeats and in reverse on odd ones, until the calls of each add up to
    TIME_FLOOR_S (at least MIN_SOLVES repeats)."""
    times, outs = [[] for _ in fns], [None] * len(fns)
    while len(times[0]) < MIN_SOLVES or min(map(sum, times)) < TIME_FLOOR_S:
        order = range(len(fns)) if len(times[0]) % 2 == 0 else reversed(range(len(fns)))
        for at in order:
            t0 = time.perf_counter()
            outs[at] = fns[at]()
            times[at].append(time.perf_counter() - t0)
    return times, outs


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Cell-by-cell differences of two runs of the same cells."""
    rows = []
    for prev, rec in zip(parent, change):
        row = {"k": rec["k"], "n": rec["n"], "v": rec["v"], "policy": rec["policy"],
               "time_ratio": rec["median_s"] / prev["median_s"],
               "kernel_calls": [prev["kernel_calls"], rec["kernel_calls"]],
               "ltec_diff": abs(rec["ltec"] - prev["ltec"]),
               "policy_changed": rec["policy_sha256"] != prev["policy_sha256"]}
        if "sim_median_s" in rec:
            row.update(sim_ratio=rec["sim_median_s"] / prev["sim_median_s"],
                       sim_rate_diff=abs(rec["empirical_cost_rate"]
                                         - prev["empirical_cost_rate"]))
        rows.append(row)
    return {"max_ltec_diff": max((row["ltec_diff"] for row in rows), default=None),
            "max_sim_rate_diff": max((row["sim_rate_diff"] for row in rows
                                      if "sim_rate_diff" in row), default=None),
            "kernel_calls_changed": sum(row["kernel_calls"][0] != row["kernel_calls"][1]
                                        for row in rows),
            "policies_changed": sum(row["policy_changed"] for row in rows),
            "cells": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write the runs to")
    parser.add_argument("--parent-src", help="directory holding the cacherec package "
                                             "to compare this checkout with")
    parser.add_argument("--max-k", type=int, default=LADDER[-1],
                        help="stop the ladder after this K")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import cacherec

    labels, packages = ["change"], [cacherec]
    if args.parent_src:
        labels.append("parent")
        packages.append(load_parent(args.parent_src))
    runs = {label: [] for label in labels}
    for cell in cells(args.max_k):
        for label, rec in zip(labels, run_cell(packages, *cell)):
            runs[label].append(rec)
            sim = (f", sim median {rec['sim_median_s']:.4f} s"
                   if "sim_median_s" in rec else "")
            print(f"{label:6s} K={rec['k']:5d} N={rec['n']} v={rec['v']:7s} "
                  f"{rec['policy']}: median {rec['median_s']:.4f} s, "
                  f"{rec['kernel_calls']} kernel calls, LTEC {rec['ltec']:.15f}{sim}",
                  flush=True)

    doc = {"machine": machine(), "runs": runs}
    if args.parent_src:
        doc["compare"] = compare(runs["parent"], runs["change"])
        print(f"max |LTEC change - parent| = {doc['compare']['max_ltec_diff']!r}, "
              f"max |sim cost rate change - parent| = "
              f"{doc['compare']['max_sim_rate_diff']!r}, cells with changed kernel "
              f"calls: {doc['compare']['kernel_calls_changed']}, cells with changed "
              f"policies: {doc['compare']['policies_changed']}")
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
