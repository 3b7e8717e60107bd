"""The reclens benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload {synth-desk,ml100k-cli,explain-tree}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from ``src``
there.  Inputs are generated from ``--seed``.  Each run prints the
environment, the data shape and the workload's own end-to-end figures,
then, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the run is traced and the metrics are the per-layer ones.
A fuller record, and the spans of a traced run, are written under
``.bench_work/results``.  See perfbench/METRICS.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "wall_s": "s"}

# BLAS and OpenMP settings (thread counts change results in the last digits);
# recorded as found and never set by the benchmark.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES",
               "OPENBLAS_CORETYPE", "OPENBLAS_VERBOSE")


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (KeyError, TypeError, ValueError):
            return None

    env_vars = {k: os.environ.get(k) for k in THREAD_VARS}
    env_vars.update({k: v for k, v in os.environ.items()
                     if k.startswith(("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "GOMP_", "KMP_"))})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor() or None,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": dict(sorted(env_vars.items())),
    }


def _program_available() -> str | None:
    """Why the program cannot be benchmarked here, or None."""
    if not (SRC / "reclens" / "__init__.py").is_file():
        return f"no reclens package under {SRC}; run from the root of a checkout"
    sys.path.insert(0, str(SRC))
    try:
        import reclens
    except ImportError as exc:
        return f"cannot import reclens from {SRC}: {exc}"
    if Path(reclens.__file__).resolve().parent != (SRC / "reclens").resolve():
        return f"imported reclens from {reclens.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description="reclens benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the benchmark's self-test: a smaller input, and planted faults.
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--plant", choices=("none", "influence", "exit"), default="none")
    args = parser.parse_args(argv)

    reason = _program_available()
    if reason is not None:
        print(f"error: {reason}", file=sys.stderr)
        return 2

    from spans import PER_LAYER, calibrate_span_cost, hook_errors, layer_metrics, write_spans

    seed = args.seed % 2**31
    env = environment()
    WORK.mkdir(exist_ok=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    ctx = workloads.Context(src=SRC, work=work, seed=seed, seconds=args.seconds,
                            traced=bool(args.trace), size=args.size, plant=args.plant)
    t0 = time.perf_counter()
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - t0
    if args.trace:
        outcome.record("trace", hook_errors(outcome.spans))

    failed = outcome.failed_ops
    error_rate = failed / outcome.attempted if outcome.attempted else 1.0
    if args.trace:
        cost = calibrate_span_cost()
        values = layer_metrics(outcome.spans, outcome.cli_runs, outcome.traced_wall_s, cost)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        write_spans(results / f"{args.workload}-seed{seed}.spans.jsonl", outcome.spans)
    else:
        metrics = {k: {"value": outcome.metrics.get(k, 0.0), "unit": u}
                   for k, u in END_TO_END.items()}

    print(f"reclens benchmark: workload {args.workload}, seed {seed}, "
          f"trace {args.trace}, size {args.size}, {elapsed:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    print("data " + json.dumps(outcome.data, sort_keys=True))
    rows = [(k, m["value"], m["unit"], "") for k, m in metrics.items()]
    rows += [(k, v, u, f"n={n}") for k, (v, u, n) in outcome.detail.items()]
    rows.append(("error_rate", error_rate, "ratio", f"{failed}/{outcome.attempted}"))
    for name, value, unit, note in rows:
        print(f"  {name:34s} {value:14.6f} {unit:6s} {note}")
    for problem in outcome.failures[:20]:
        print(f"  FAILED {problem}")

    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace, "size": args.size,
        "env": env, "data": outcome.data, "error_rate": error_rate,
        "detail": {k: {"value": v, "unit": u, "samples": n}
                   for k, (v, u, n) in outcome.detail.items()},
        "failures": outcome.failures,
    }
    result = {"correct": failed == 0, "attempted": outcome.attempted,
              "failed": failed, "metrics": metrics}
    record["result"] = result
    with open(results / f"{args.workload}-seed{seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
