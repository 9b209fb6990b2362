"""Self-check of the benchmark: every workload once at toy size, in both modes.

Run from the root of a cacherec checkout (about half a minute):

    python3 perfbench/selfcheck.py

For each workload and each of --trace 0 and --trace 1 it asserts that the run
exits 0, that its last line is the JSON result with exactly the keys
correct, attempted, failed and metrics, that the result is correct, and that
the metrics are exactly the end_to_end (trace 0) or per_layer (trace 1)
metrics named in BENCHMARK.json, each a finite number with its unit. It then
copies BENCHMARK.json and the benchmark's files into an otherwise empty
directory and asserts that the benchmark fails there without a result.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ARGS = ["--seed", "7", "--seconds", "1", "--toy"]


def bench(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--trace", str(trace)] + ARGS
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int) -> None:
    proc = bench(workload, trace, run.ROOT)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert set(metrics) == set(declared), sorted(set(metrics) ^ set(declared))
    for name, metric in metrics.items():
        assert metric["unit"] == declared[name], (name, metric)
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    print(f"ok: {workload} trace={trace} ({result['failed']}/{result['attempted']} failed)")


def check_bare_directory() -> None:
    bare = run.BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(run.WORKLOAD_NAMES[0], 0, bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program"
    print("ok: fails without the program")


def main() -> int:
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            check_run(workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
