"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 45 --trace 0

Run from anywhere: the library is imported from ``src/`` next to this
directory, and scratch files go to ``.perfbench/`` there.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  ``--tiny`` shrinks every workload to a 3x3 city so that
``selfcheck.py`` can prove the harness and its gates in seconds.
Exit codes: 0 measured (``correct`` says whether every check passed),
1 the set-up failed, 2 the library sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk_train", "city256_train", "serve_predict")
# BLAS pool size, fixed so that every commit runs alike; one thread would
# hide the parallel gain at V=256.
BLAS_THREADS = 2
END_TO_END = (
    ("setup_s", "s"),
    ("request_ms_p50", "ms"),
    ("windows_per_s", "1/s"),
    ("predict1_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="3x3 city, for selfcheck.py")
    return parser.parse_args(argv)


def tail(values):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, by nearest rank; None below 11 samples."""
    n = len(values)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))
    return pct, sorted(values)[rank - 1]


def openblas_threads():
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def end_to_end(run, extra) -> dict:
    import workloads

    t = run.timings
    if run.workload == "serve_predict":
        request, per_window = t["cli_predict"], t["predict_batch"]
    else:
        request, per_window = t["train"], t["train"]
    return {
        "setup_s": statistics.median(t["setup"]),
        "request_ms_p50": 1e3 * statistics.median(request),
        "windows_per_s": extra["windows"] / statistics.median(per_window),
        "predict1_ms_p50": 1e3 * statistics.median(t["predict1"]),
        "peak_rss_mb": workloads.peak_rss_mb(),
    }


def per_layer(run, tracer, layer_ms) -> dict:
    import tracing

    metrics = tracer.layer_metrics()
    metrics.update(layer_ms)
    metrics["training.final_val_rmse"] = run.details["final_val_rmse"]
    kind = "cycle" if run.workload == "serve_predict" else "train"
    plain, traced = run.timings.get(kind), run.timings.get(f"{kind}_traced")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        if plain and traced else 0.0)
    return {name: metrics[name] for name, _ in tracing.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy reads these when it is first imported, below
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "mmgcn" / "__init__.py").is_file():
        print(f"perfbench: no mmgcn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mmgcn

    if Path(mmgcn.__file__).resolve().parent != (SRC / "mmgcn").resolve():
        print(f"perfbench: imported mmgcn from {mmgcn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    references = json.loads((HERE / "references.json").read_text())
    tracer = tracing.Tracer() if args.trace else None
    run = workloads.Run(args.workload, args.seed, args.seconds, tracer, args.tiny, work,
                        references)
    try:
        extra = workloads.WORKLOADS[args.workload](run)
        if tracer:
            layer_ms = workloads.layer_timings(run, *extra["layer_args"])
            metrics, units = per_layer(run, tracer, layer_ms), dict(tracing.PER_LAYER)
        else:
            metrics, units = end_to_end(run, extra), dict(END_TO_END)
    except Exception:  # set-up failed or no request succeeded: nothing to report
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment()
    counts = {kind: len(v) for kind, v in run.timings.items()}
    tails = {kind: tail(v) for kind, v in run.timings.items() if kind != "setup"}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{stem}.json").write_text(json.dumps(
        {"env": env, "metrics": metrics, "samples": counts, "timings_s": run.timings,
         "tails_s": tails}, indent=1) + "\n")
    if tracer:
        tracer.write(out_dir / f"spans-{stem}.json")
    print("env: " + json.dumps(env))
    print("samples: " + json.dumps(counts))
    for kind, found in tails.items():
        if found:
            print(f"tail {kind}: p{found[0]} = {1e3 * found[1]:.3f} ms of {counts[kind]} samples")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
