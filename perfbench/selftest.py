"""Self-test of the benchmark's traced runs (about two and a half minutes).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it makes two traced runs with the same seed and checks
that the outputs are correct, that every count metric repeats exactly,
that the counts match the values the workload implies at this commit,
that the per-layer self times cover the traced wall time, and that the
layer mix is the one each workload was chosen for.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import bench  # noqa: E402

SEED = 7
COUNTS = (
    "mesh.refine_calls", "forms.assemblers", "forms.tables_builds", "forms.load_calls",
    "solver.factor_calls", "solver.solve_calls", "solver.refine_sweeps",
    "solver.lu_fill", "forms.nnz", "evolution.steps",
)
MIN_COVERAGE = 0.97


def expected_counts(workload):
    """Counts implied by the workload: one assembler and two factorizations
    (time loop and initial L2 projection) per study level, one assembler and
    one factorization per projection solve."""
    if workload == bench.PROJECTION:
        solves = bench.K_BANDS * len(bench.PROJECTION_LEVELS)
        return {
            "mesh.refine_calls": bench.PROJECTION_LEVELS[-1],
            "forms.assemblers": solves,
            "forms.load_calls": 0,
            "evolution.steps": 0,
            "solver.factor_calls": solves,
            "solver.solve_calls": solves,
            "projection.calls": solves,
        }
    spec = bench.STUDIES[workload]
    config = bench.driver.ExperimentConfig(
        variant=spec["variant"], coupling=spec["coupling"], max_level=spec["max_level"]
    )
    levels = spec["max_level"] + 1
    steps = sum(config.partition(level).steps.size for level in range(levels))
    return {
        "mesh.refine_calls": spec["max_level"],
        "forms.assemblers": levels,
        "forms.load_calls": steps,
        "analysis.source_calls": steps,
        "evolution.steps": steps,
        "solver.factor_calls": 2 * levels,
        "solver.solve_calls": steps + levels,
        "projection.calls": 0,
    }


def traced_run(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {name: m["value"] for name, m in result["metrics"].items()}


def setup_share(layers):
    parts = ("forms.tables_s", "forms.total_matrix_s", "solver.factor_s")
    return sum(layers[p] for p in parts) / layers["trace.wall_s"]


def main():
    layers = {}
    for workload in bench.WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        for name in COUNTS:
            assert first[name] == second[name], (workload, name, first[name], second[name])
        for name, value in expected_counts(workload).items():
            assert first[name] == value, (workload, name, first[name], value)
        for run in (first, second):
            assert run["trace.coverage"] >= MIN_COVERAGE, (workload, run["trace.coverage"])
        layers[workload] = first
        print(f"{workload}: counts repeat and match; coverage {first['trace.coverage']:.4f}, "
              f"overhead {first['trace.overhead_s']:+.3f} s / {second['trace.overhead_s']:+.3f} s")

    h2 = layers["h2-primary"]
    step_share = (h2["forms.load_s"] + h2["analysis.source_s"] + h2["solver.solve_s"]) / h2["trace.wall_s"]
    assert step_share > 0.5, step_share
    assert setup_share(layers["h-alternative"]) > 2 * setup_share(h2)
    print(f"h2-primary: load + source + solve are {step_share:.0%} of the wall time; "
          f"tables + assembly + factorization {setup_share(h2):.0%} "
          f"against {setup_share(layers['h-alternative']):.0%} on h-alternative")
    print("selftest passed")


if __name__ == "__main__":
    main()
