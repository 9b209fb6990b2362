"""Record the default seed's reference answers in references.json.

Run from the root of a cacherec checkout, at the commit whose exact LP path
the references should freeze:

    python3 perfbench/record_references.py

Every reference is computed by the same oracles the benchmark uses for other
seeds (see workloads.py); nothing is read from an existing references.json.
"""
import json
import os
import sys

import run


def main() -> int:
    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(run.SRC))
    import workloads

    refs = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(run.DEFAULT_SEED, workloads.SIZES["full"])
        workload.build()
        refs[name] = workload.references({})
        print(f"{name}: {len(refs[name])} references")
    path = run.BENCH / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
