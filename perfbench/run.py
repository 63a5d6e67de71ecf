"""Benchmark of the parafosls least-squares backward Euler solver.

Run from the repository root:

    python3 perfbench/run.py --workload h2-primary --seed 1 --seconds 30 --trace 0

Each measurement runs in a fresh process (bench.py) that imports the
package from ./src, with the BLAS/OpenMP thread counts fixed before numpy
is imported. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The line before it
records the environment. Full results, and with --trace 1 the spans, are
written under perfbench/_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
WORKLOADS = ("h2-primary", "h-alternative", "projection-ksweep")
# One thread: the solver and assembly are single-threaded, and a fixed,
# small thread count keeps timings steady on a shared machine.
THREADS = 1
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
TIME_LIMIT_S = 170.0


def child_env(root):
    env = dict(os.environ)
    threads = str(min(THREADS, os.cpu_count() or 1))
    for name in THREAD_VARIABLES:
        env[name] = threads
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_child(args, mode, seconds, deadline, root):
    tag = f"{args.workload}-seed{args.seed}-{mode}"
    command = [
        sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
        "--out", str(OUT / f"{tag}.json"),
    ]
    done = subprocess.run(
        command, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - perf_counter(), 1.0),
    )
    if done.returncode != 0:
        raise RuntimeError(f"{tag} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def median_of(reps, key):
    values = [r[key] for r in reps if r[key] is not None]
    if not values:
        raise RuntimeError(f"no repetition produced {key}")
    return statistics.median(values)


def end_to_end(record):
    reps = record["reps"]
    values = {key: median_of(reps, key)
              for key in ("wall_s", "setup_s", "step_ms", "err_u", "natural_norm")}
    values["peak_rss_mb"] = record["peak_rss_mb"]
    return values


def per_layer(plain, traced):
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["reps"][0]["wall_s"] - plain["reps"][0]["wall_s"]
    return values


def with_units(values, declared):
    """Attach the units BENCHMARK.json declares; the names must match it exactly."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = perf_counter() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "parafosls" / "__init__.py").is_file():
        print("error: run from a checkout of the repository (no src/parafosls here)",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace == 0:
            record = run_child(args, "clock", args.seconds, deadline, root)
            records = [record]
            metrics = with_units(end_to_end(record), declared["end_to_end"])
        else:
            plain = run_child(args, "clock", 0, deadline, root)
            traced = run_child(args, "trace", 0, deadline, root)
            records = [plain, traced]
            metrics = with_units(per_layer(plain, traced), declared["per_layer"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for rec in records for r in rec["reps"])
    failed = sum(r["failed"] for rec in records for r in rec["reps"])
    print(json.dumps({"environment": records[0]["environment"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
