"""Record the reference final validation RMSE of every workload and seed.

    python3 perfbench/record_references.py

Rewrites ``references.json`` next to this file.  Run it only on a commit
whose training arithmetic is known to be right: the benchmark's correctness
gate compares every later run against these values.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run as bench


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(bench.BLAS_THREADS)
    sys.path.insert(0, str(bench.SRC))
    import workloads

    work = bench.ROOT / ".perfbench" / "record"
    table = {}
    for name in bench.WORKLOAD_NAMES:
        for scale in ("full", "tiny"):
            values = table.setdefault(name, {}).setdefault(scale, {})
            for member in range(workloads.REFERENCE_SEEDS):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                run = workloads.Run(name, member, 0.0, None, scale == "tiny", work, {})
                values[str(member)] = workloads.reference_value(run)
                print(name, scale, member, repr(values[str(member)]), flush=True)
    shutil.rmtree(work, ignore_errors=True)
    (bench.HERE / "references.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
