"""One benchmark process: repetitions of one workload, outputs checked.

``run.py`` starts this script in a fresh process per measurement, with
the thread-count variables already set and the checkout's ``src`` first
on ``PYTHONPATH``. The last line of standard output is one JSON object
with the per-repetition results.

Modes:
  clock  untraced; only the start of each ``FormAssembler.load_vector``
         and the end of each ``FactorHandle.solve`` are timestamped, which
         is what ``setup_s`` and ``step_ms`` need. Repeats the workload
         until the next repetition would overrun ``--seconds``.
  trace  every public call into the package is a span (see spans.py);
         one repetition.
"""

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import parafosls
from parafosls import analysis, driver, forms, projection, solver, spaces

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

L2_BAND = (1.7, 2.3)
ENERGY_BAND = (0.8, 1.2)
REL_TOL = 1e-10
QUANTITIES = analysis.ERROR_QUANTITIES

# Convergence studies through run_level, one mesh hierarchy per repetition,
# levels in ascending order as run_experiment runs them. Their inputs are
# the paper's fixed experiment, so the seed does not change them.
# The final-window rate bands are those of the acceptance criteria, plus
# the natural norm.
STUDIES = {
    "h2-primary": dict(
        variant="primary", coupling="h2", max_level=5,
        bands={"err_u": L2_BAND, "err_grad_u": ENERGY_BAND, "err_sigma": ENERGY_BAND,
               "natural_norm": ENERGY_BAND},
    ),
    "h-alternative": dict(
        variant="alternative", coupling="h", max_level=6,
        bands={q: ENERGY_BAND for q in QUANTITIES},
    ),
}

# Elliptic projection of the primary benchmark fields at t = 0.1. The step
# weights come from a fixed log-spaced grid so that every drawn k has a
# recorded reference; the grid is cut into equal bands and one k is drawn
# from each, which covers both ends of the range in every run.
PROJECTION = "projection-ksweep"
PROJECTION_LEVELS = (2, 3, 4, 5, 6)
PROJECTION_TIME = 0.1
K_GRID = tuple(float(k) for k in np.logspace(-6.0, -1.0, 24))
K_BANDS = 3

WORKLOADS = tuple(STUDIES) + (PROJECTION,)


def draw_k_indices(seed):
    """One grid index per band, in a seeded order."""
    rng = random.Random(seed)
    width = len(K_GRID) // K_BANDS
    picks = [band * width + rng.randrange(width) for band in range(K_BANDS)]
    rng.shuffle(picks)
    return picks


def matches(values, expected):
    return all(abs(v - e) <= REL_TOL * abs(e) for v, e in zip(values, expected))


def rate(coarse, fine):
    return math.log2(coarse / fine)


class StepClock:
    """Timestamps of the two calls that make up a backward Euler step."""

    def __init__(self):
        self.load_starts = []
        self.solve_ends = []
        load_vector = forms.FormAssembler.load_vector
        solve = solver.FactorHandle.solve

        def timed_load(asm, *args, **kwargs):
            self.load_starts.append(perf_counter())
            return load_vector(asm, *args, **kwargs)

        def timed_solve(handle, *args, **kwargs):
            report = solve(handle, *args, **kwargs)
            self.solve_ends.append(perf_counter())
            return report

        forms.FormAssembler.load_vector = timed_load
        solver.FactorHandle.solve = timed_solve

    def mark(self):
        return len(self.load_starts), len(self.solve_ends)

    def steps_since(self, mark):
        """(start, end) of each step since mark: a load and the solve after it."""
        loads = self.load_starts[mark[0]:]
        if not loads:
            raise RuntimeError("no load_vector call seen: cannot time the steps")
        ends = [t for t in self.solve_ends[mark[1]:] if t > loads[0]]
        if len(ends) != len(loads):
            raise RuntimeError(f"{len(loads)} loads but {len(ends)} solves in the time loop")
        return list(zip(loads, ends))


def run_study(name, reference, clock):
    spec = STUDIES[name]
    config = driver.ExperimentConfig(
        variant=spec["variant"], coupling=spec["coupling"], max_level=spec["max_level"]
    )
    finest = spec["max_level"]
    start = perf_counter()
    meshes = driver.mesh_hierarchy(finest)
    setup_s = perf_counter() - start
    step_ms = []
    reports = {}
    failed = set()
    for level in range(finest + 1):
        mark = clock.mark() if clock else None
        level_start = perf_counter()
        try:
            reports[level] = driver.run_level(config, level, mesh=meshes[level])[0]
        except Exception as exc:  # a failing level is counted; the others still run
            print(f"{name} level {level} failed: {exc!r}", file=sys.stderr)
            failed.add(level)
            continue
        if clock:
            steps = clock.steps_since(mark)
            setup_s += steps[0][0] - level_start
            if level == finest:
                step_ms = [1e3 * (end - begin) for begin, end in steps]

    expected = reference[name]
    for level, report in reports.items():
        if not matches([getattr(report, q) for q in QUANTITIES], expected[str(level)]):
            print(f"{name} level {level}: errors differ from the reference", file=sys.stderr)
            failed.add(level)
    if finest in reports and finest - 1 in reports:
        for q, (low, high) in spec["bands"].items():
            observed = rate(getattr(reports[finest - 1], q), getattr(reports[finest], q))
            if not low <= observed <= high:
                print(f"{name}: {q} rate {observed:.3f} outside [{low}, {high}]", file=sys.stderr)
                failed.add(finest)
    wall_s = perf_counter() - start
    top = reports.get(finest)
    return dict(
        wall_s=wall_s,
        setup_s=setup_s,
        step_ms=statistics.median(step_ms) if step_ms else None,
        err_u=top.err_u if top else None,
        natural_norm=top.natural_norm if top else None,
        attempted=finest + 1,
        failed=len(failed),
    )


def run_projection(k_indices, reference):
    """One repetition of the projection sweep over the given K_GRID indices.

    Returns (result, errors); errors maps (grid index, level) to the five
    error quantities. With reference None the outputs are not checked.
    """
    finest = PROJECTION_LEVELS[-1]
    start = perf_counter()
    meshes = driver.mesh_hierarchy(finest)
    dofmaps = {level: spaces.build_dof_map(meshes[level]) for level in PROJECTION_LEVELS}
    setup_s = perf_counter() - start

    problem = analysis.decaying_sine_problem("primary")
    fields = problem.fields_at(PROJECTION_TIME)
    errors = {}
    finest_ms = []
    failed = set()
    for index in k_indices:
        k = K_GRID[index]
        for level in PROJECTION_LEVELS:
            m, dm = meshes[level], dofmaps[level]
            begin = perf_counter()
            try:
                result = projection.elliptic_project(
                    *fields, m, dm, problem.coeffs, k, problem.variant
                )
            except Exception as exc:  # a failing solve is counted; the others still run
                print(f"k={k:g} level {level} failed: {exc!r}", file=sys.stderr)
                failed.add((index, level))
                continue
            if level == finest:
                finest_ms.append(1e3 * (perf_counter() - begin))
            eu, eg, es, ed = analysis.field_error_norms(
                *fields, result.u_coeffs, result.sigma_coeffs, m, dm
            )
            errors[(index, level)] = (eu, eg, es, ed, math.sqrt(eg**2 + es**2 + k * ed**2))

    if reference is not None:
        expected = reference[PROJECTION]
        for (index, level), values in errors.items():
            if not matches(values, expected[str(index)][str(level)]):
                print(f"k={K_GRID[index]:g} level {level}: errors differ from the reference",
                      file=sys.stderr)
                failed.add((index, level))
        for index in k_indices:
            for coarse, fine in zip(PROJECTION_LEVELS[:-1], PROJECTION_LEVELS[1:]):
                if (index, coarse) not in errors or (index, fine) not in errors:
                    continue
                a, b = errors[(index, coarse)], errors[(index, fine)]
                if not (L2_BAND[0] <= rate(a[0], b[0]) <= L2_BAND[1]
                        and ENERGY_BAND[0] <= rate(a[4], b[4]) <= ENERGY_BAND[1]):
                    print(f"k={K_GRID[index]:g}: rates {coarse}->{fine} outside the bands",
                          file=sys.stderr)
                    failed.add((index, fine))
    wall_s = perf_counter() - start
    smallest = (min(k_indices), finest)
    top = errors.get(smallest)
    result = dict(
        wall_s=wall_s,
        setup_s=setup_s,
        step_ms=statistics.fmean(finest_ms) if finest_ms else None,
        err_u=top[0] if top else None,
        natural_norm=top[4] if top else None,
        attempted=len(k_indices) * len(PROJECTION_LEVELS),
        failed=len(failed),
    )
    return result, errors


def run_once(workload, seed, reference, clock):
    if workload == PROJECTION:
        return run_projection(draw_k_indices(seed), reference)[0]
    return run_study(workload, reference, clock)


def environment():
    return dict(
        python=sys.version.split()[0],
        numpy=np.__version__,
        scipy=scipy.__version__,
        nproc=os.cpu_count(),
        threads={v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="clock mode: repeat until this budget would be overrun")
    parser.add_argument("--mode", choices=("clock", "trace"), required=True)
    parser.add_argument("--out", help="write the results (and spans) here as JSON")
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if src not in Path(parafosls.__file__).resolve().parents:
        raise SystemExit(f"parafosls was imported from {parafosls.__file__}, not from {src}")
    reference = json.loads(REFERENCE.read_text())
    if reference.get("k_grid") != list(K_GRID):
        raise SystemExit("reference.json was recorded for another k grid")

    record = dict(workload=args.workload, seed=args.seed, mode=args.mode,
                  environment=environment())
    if args.mode == "clock":
        clock = StepClock() if args.workload in STUDIES else None
        reps = []
        start = perf_counter()
        while True:
            gc.collect()
            reps.append(run_once(args.workload, args.seed, reference, clock))
            typical = statistics.median(r["wall_s"] for r in reps)
            if perf_counter() - start + typical > args.seconds:
                break
        record["reps"] = reps
    else:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        rep = tracer.wrap("bench.rep", run_once)
        gc.collect()
        result = rep(args.workload, args.seed, reference, None)
        root = tracer.spans[0]
        record["reps"] = [result]
        record["layers"] = spans.layer_metrics(tracer, root[3] - root[2])
        if args.out:
            record["spans"] = [[n, p, s - root[2], e - root[2]] for n, p, s, e in tracer.spans]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.out:
        Path(args.out).write_text(json.dumps(record))
    record.pop("spans", None)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
