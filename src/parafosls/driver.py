"""Experiment runner and command-line interface.

Reproduces the convergence studies for the decaying-sine benchmark:
starting from the four-triangle mesh, refine uniformly up to a maximum
level, couple the time step to the mesh width (halving or quartering
it per level), run the least-squares backward Euler scheme to the
final time, and record the final-time error quantities per level as a
machine-readable CSV together with the observed rates (from two levels
on).

Two subcommands are exposed:

    parafosls run     one convergence experiment -> CSV (+ rate table)
    parafosls verify  the built-in verification suite -> pass/fail list

Each ``run`` flag sets the ``ExperimentConfig`` field of its name, and
the config holds every default. The numbers leave only as the error CSV
(printed, and written to ``--out``) and its rates file. Neither
subcommand sets how accurately the linear systems are solved: every
solve meets the relative-residual contract of ``solver``.
"""

import argparse
import math
import numbers
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .analysis import (
    ERROR_QUANTITIES,
    compute_errors,
    decaying_sine_problem,
    observed_rates,
)
from .checks import run_verification_suite
from .evolution import TimePartition, backward_euler_run, l2_project_initial
from .forms import ProblemVariant
from .mesh import mesh_hierarchy
from .spaces import build_dof_map

COUPLING_H = "h"
COUPLING_H2 = "h2"

_CSV_HEADER = "level,h,k,dofs,err_u,err_grad_u,err_sigma,err_div_sigma,natural_norm"


def _check_positive_finite(name, value):
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _seed(text):
    """argparse type of ``verify --seed``: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one convergence experiment.

    ``max_level`` defaults to 5 for the h2 coupling and 6 for h: at
    desk scale, quartering the step is costlier per level.
    """

    variant: ProblemVariant = ProblemVariant.PRIMARY
    coupling: str = COUPLING_H2
    max_level: int = None
    final_time: float = 0.1
    k0: float = 0.1
    output_path: str = None

    def __post_init__(self):
        object.__setattr__(self, "variant", ProblemVariant(self.variant))
        if self.coupling not in (COUPLING_H, COUPLING_H2):
            raise ValueError(f"unknown coupling {self.coupling!r} (use 'h' or 'h2')")
        if self.max_level is None:
            object.__setattr__(self, "max_level", 5 if self.coupling == COUPLING_H2 else 6)
        level = self.max_level
        if isinstance(level, bool) or not isinstance(level, int) or level < 0:
            raise ValueError(f"max_level must be a non-negative integer, got {level!r}")
        for name in ("final_time", "k0"):
            _check_positive_finite(name, getattr(self, name))

    def step_size(self, level):
        """Time step at a level: k0 halves (h) or quarters (h2) per level."""
        factor = 0.5 if self.coupling == COUPLING_H else 0.25
        return self.k0 * factor**level

    def partition(self, level):
        k = self.step_size(level)
        n = round(self.final_time / k)
        if n < 1 or abs(n * k - self.final_time) > 1e-9 * self.final_time:
            raise ValueError(
                f"final time {self.final_time} is not a multiple of the "
                f"level-{level} step {k}"
            )
        return TimePartition.uniform(self.final_time, n)


def run_level(config, level, mesh):
    """Run one level of an experiment on its mesh.

    Returns (report, u, sigma, dofmap, partition): the (N + 1, n_u)
    scalar trajectory allows bound checks on every step, and sigma is
    the final flux.
    """
    dofmap = build_dof_map(mesh)
    problem = decaying_sine_problem(config.variant)
    partition = config.partition(level)
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), mesh, dofmap)
    u, sigma = backward_euler_run(
        problem.f, partition, mesh, dofmap, problem.coeffs, problem.variant, initial=initial
    )
    report = compute_errors(
        u[-1], sigma, problem, mesh, dofmap, config.step_size(level), config.final_time
    )
    return report, u, sigma, dofmap, partition


def format_float(value):
    """Full double precision, locale-independent."""
    return f"{value:.17g}"


def _reports_csv(reports):
    """The error CSV text: the header, then one line per level."""
    lines = [_CSV_HEADER] + [
        ",".join(
            [str(r.level), format_float(r.h), format_float(r.k), str(r.dofs)]
            + [format_float(getattr(r, q)) for q in ERROR_QUANTITIES]
        )
        for r in reports
    ]
    return "\n".join(lines) + "\n"


def write_rates_csv(reports, path):
    rates = observed_rates(reports)
    lines = ["quantity,level_from,level_to,rate"]
    for q in ERROR_QUANTITIES:
        for i, rate in enumerate(rates[q]):
            lines.append(
                f"{q},{reports[i].level},{reports[i + 1].level},{format_float(rate)}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def run_experiment(config):
    """Run all levels of one experiment and write the output files.

    Returns the list of per-level error reports, levels in order. An
    output_path that is a directory or lies in a missing one is rejected
    before level 0.
    """
    out = Path(config.output_path) if config.output_path else None
    if out is not None and not out.parent.is_dir():
        raise ValueError(f"output_path {str(out)!r}: no directory {str(out.parent)!r}")
    if out is not None and out.is_dir():
        raise ValueError(f"output_path {str(out)!r} is a directory, not a file")
    reports = []
    try:
        meshes = mesh_hierarchy(config.max_level)
        for level in range(config.max_level + 1):
            reports.append(run_level(config, level, mesh=meshes[level])[0])
    except Exception as exc:
        raise RuntimeError(
            f"experiment failed at level {len(reports)}: {exc}"
        ) from exc

    if out is not None:
        out.write_text(_reports_csv(reports))
        if len(reports) > 1:  # a single level has no rate
            write_rates_csv(reports, out.with_suffix(out.suffix + ".rates.csv"))
    return reports


# ----------------------------------------------------------------------
# command line


def _config_from_args(args):
    """ExperimentConfig of the flags given; each flag's dest is its field."""
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    return ExperimentConfig(**{name: v for name, v in given.items() if v is not None})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="parafosls",
        description="Least-squares backward Euler convergence experiments "
        "on the unit square",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one convergence experiment")
    run_p.add_argument("--variant", choices=[v.value for v in ProblemVariant])
    run_p.add_argument("--coupling", choices=[COUPLING_H, COUPLING_H2])
    run_p.add_argument("--max-level", type=int, dest="max_level")
    run_p.add_argument("--final-time", type=float, dest="final_time")
    run_p.add_argument("--k0", type=float)
    run_p.add_argument("--out", dest="output_path")

    verify_p = sub.add_parser("verify", help="run the verification suite")
    verify_p.add_argument("--seed", type=_seed, default=0)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        results = run_verification_suite(seed=args.seed)
        return 0 if all(r.passed for r in results) else 1

    try:
        config = _config_from_args(args)
        reports = run_experiment(config)
    except Exception as exc:  # surface the failing level/setting, exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rates = observed_rates(reports) if len(reports) > 1 else {}
    print(_reports_csv(reports), end="")
    if rates:
        print("\nfinal-window rates:")
        for q in ERROR_QUANTITIES:
            print(f"  {q}: {rates[q][-1]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
