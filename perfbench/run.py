"""cacherec benchmark: three workloads, timed end to end or traced per layer.

Run from the root of a cacherec checkout:

    python3 perfbench/run.py --workload session-solve --seed 0 --seconds 25 --trace 0

Workloads (see README.md for why each exists): session-solve, small-sweep,
monte-carlo. `--workload all` runs each of them in its own process, one
after the other. `--trace 0` measures the end-to-end metrics of
BENCHMARK.json; `--trace 1` spends half the time untraced and half traced
and reports the per-layer metrics. `--toy` shrinks every workload to a few
seconds for selfcheck.py.

A run sets up its inputs from the seed, computes reference answers, then
repeats passes over a fixed list of operations for at most `--seconds`
(at least one pass), checking every pass. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

The program is imported from src/ of the checkout, never from an installed
copy; without src/cacherec the run exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
WORKLOAD_NAMES = ("session-solve", "small-sweep", "monte-carlo")

#: BLAS threads; one thread keeps timings steady on a shared 2-core machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: What a fresh process imports before it can run any workload.
IMPORTS = "import numpy, scipy.optimize, yaml, cacherec"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for selfcheck.py")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd + (["--toy"] if args.toy else [])).returncode)
    return worst


def median_import_s() -> float:
    """Median wall time of a fresh interpreter importing the program from src/."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_info() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (TypeError, KeyError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "blas_threads": BLAS_THREADS}


def timed_passes(workload, refs, seconds: float, tally, tracer=None) -> list[float]:
    """Run as many whole passes as the first one's time fits in `seconds`, at
    least one, and check each pass."""
    def one_pass(run: int) -> float:
        if tracer is not None:
            tracer.run, tracer.active = run, True
        t0 = time.perf_counter()
        outputs = workload.run_pass()
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        tally.add(workload.check(outputs, refs))
        return elapsed

    times = [one_pass(0)]
    times += [one_pass(run) for run in range(1, int(seconds / times[0]))]
    return times


def end_to_end(workload, refs, seconds: float, setup_s: float, tally):
    """Untraced passes; returns pass times, metrics and extra lines to show."""
    times = timed_passes(workload, refs, seconds, tally)
    pass_s = statistics.median(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": (setup_s, "s"), "pass_s": (pass_s, "s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    shown = [("setup_s", setup_s, "s")] + workload.describe(pass_s) + [
        ("peak_rss_mb", peak_rss_mb, "MB")]
    return times, metrics, shown


def per_layer(workload, refs, seconds: float, tally, header: dict):
    """Half the time untraced, then set-up and passes again under the tracer."""
    import spans
    import workloads

    untraced = timed_passes(workload, refs, seconds / 2, tally)
    tracer = spans.Tracer(workload.name)
    tracer.install()
    tracer.active = True
    workload.build()
    tracer.active = False
    times = timed_passes(workload, refs, seconds / 2, tally, tracer)
    values = spans.layer_metrics(tracer, range(len(times)))
    values.update(spans.setup_metrics(tracer))
    values["trace.overhead_s"] = statistics.median(times) - statistics.median(untraced)
    metrics = {key: (value, "count" if key in spans.COUNTS else "s")
               for key, value in values.items()}

    workloads.OUT_DIR.mkdir(exist_ok=True)
    path = workloads.OUT_DIR / f"spans-{workload.name}-seed{header['seed']}.jsonl"
    tracer.write(path, dict(header, untraced_pass_s=untraced, traced_pass_s=times))
    selfs = {key: value for key, value in values.items() if key.endswith(".self_s")}
    top = max(selfs, key=selfs.get)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(f"dominant layer: {top.split('.')[0]} "
          f"({selfs[top] / statistics.median(times):.0%} of a traced pass)")
    return times, metrics, [(key, value, unit) for key, (value, unit) in sorted(metrics.items())]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "cacherec" / "__init__.py").is_file():
        print(f"error: no cacherec sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    repeats = 1 if args.trace else SETUP_REPEATS
    import_s = 0.0 if args.trace else median_import_s()
    sys.path.insert(0, str(SRC))

    import cacherec
    if Path(cacherec.__file__).resolve().parent != (SRC / "cacherec").resolve():
        print(f"error: imported cacherec from {cacherec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    size = "toy" if args.toy else "full"
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[size])
    machine = machine_info()
    print("machine:", json.dumps(machine))
    print(f"workload: {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={size}")

    builds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)

    known = {}
    if args.seed == DEFAULT_SEED and not args.toy:
        known = json.loads((BENCH / "references.json").read_text())[workload.name]
    t0 = time.perf_counter()
    refs = workload.references(known)
    print(f"references: {len(refs)} ({len(refs.keys() - known.keys())} computed "
          f"by the oracle in {time.perf_counter() - t0:.2f} s)")

    tally = workloads.Gate()
    if args.trace:
        header = {"machine": machine, "workload": workload.name, "seed": args.seed}
        times, metrics, shown = per_layer(workload, refs, args.seconds, tally, header)
    else:
        times, metrics, shown = end_to_end(workload, refs, args.seconds, setup_s, tally)

    print(f"passes: {len(times)}; pass_s min/median/max: {min(times):.4f} / "
          f"{statistics.median(times):.4f} / {max(times):.4f}")
    for name, value, unit in shown:
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_ratio = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g} failed/attempted")
    for line in sorted(set(tally.refused)):
        print(f"refused: {line}")
    for line in sorted(set(tally.wrong)):
        print(f"WRONG: {line}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
