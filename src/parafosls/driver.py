"""Experiment runner and command-line interface.

Reproduces the convergence studies for the decaying-sine benchmark:
starting from the four-triangle mesh, refine uniformly up to a maximum
level, couple the time step to the mesh width (halving or quartering
it per level), run the least-squares backward Euler scheme to the
final time, and record the final-time error quantities per level as a
machine-readable CSV together with the observed rates.

Two subcommands are exposed:

    parafosls run     one convergence experiment -> CSV (+ rate table)
    parafosls verify  the built-in verification suite -> pass/fail list
"""

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import solver
from .analysis import (
    ERROR_QUANTITIES,
    compute_errors,
    decaying_sine_problem,
    field_error_norms,
    observed_rates,
)
from .evolution import (
    TimePartition,
    backward_euler_run,
    check_stability_bound,
    galerkin_be_reference,
    l2_project_initial,
)
from .forms import Coefficients, FormAssembler, ProblemVariant
from .mesh import refine_uniform, unit_square_initial_mesh
from .projection import elliptic_project
from .quadrature import triangle_rule
from .spaces import build_dof_map, eval_fields_on_triangle

COUPLING_H = "h"
COUPLING_H2 = "h2"

_CSV_HEADER = "level,h,k,dofs,err_u,err_grad_u,err_sigma,err_div_sigma,natural_norm"


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one convergence experiment."""

    variant: ProblemVariant = ProblemVariant.PRIMARY
    coupling: str = COUPLING_H2
    max_level: int = 5
    final_time: float = 0.1
    k0: float = 0.1
    solver_tol: float = solver.DEFAULT_TOL
    output_path: str = None
    plot_data: bool = False
    parallel: bool = False

    def __post_init__(self):
        object.__setattr__(self, "variant", ProblemVariant(self.variant))
        if self.coupling not in (COUPLING_H, COUPLING_H2):
            raise ValueError(f"unknown coupling {self.coupling!r} (use 'h' or 'h2')")
        if self.max_level < 0:
            raise ValueError("max_level must be >= 0")
        if self.final_time <= 0.0 or self.k0 <= 0.0:
            raise ValueError("final_time and k0 must be positive")

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


def default_max_level(coupling):
    """Desk-scale defaults: quartering the step is costlier per level."""
    return 5 if coupling == COUPLING_H2 else 6


def mesh_hierarchy(max_level):
    """Meshes for levels 0..max_level."""
    meshes = [unit_square_initial_mesh()]
    for _ in range(max_level):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def run_level(config, level, mesh=None):
    """Run one level of an experiment.

    Returns (report, states, mesh, dofmap, partition); the trajectory
    allows bound checks on every step.
    """
    if mesh is None:
        mesh = mesh_hierarchy(level)[level]
    dofmap = build_dof_map(mesh)
    problem = decaying_sine_problem(config.variant)
    partition = config.partition(level)
    initial = l2_project_initial(
        lambda x, y: problem.u(0.0, x, y), mesh, dofmap, solver_tol=config.solver_tol
    )
    states = backward_euler_run(
        problem, partition, mesh, dofmap, initial=initial,
        solver_tol=config.solver_tol,
    )
    report = compute_errors(
        states[-1], problem, mesh, dofmap, config.step_size(level), config.final_time
    )
    return report, states, mesh, dofmap, partition


def _level_report(config, level):
    return run_level(config, level)[0]


def format_float(value):
    """Full double precision, locale-independent."""
    return f"{value:.17g}"


def write_reports_csv(reports, path):
    lines = [_CSV_HEADER]
    for r in reports:
        lines.append(
            ",".join(
                [str(r.level), format_float(r.h), format_float(r.k), str(r.dofs)]
                + [
                    format_float(getattr(r, q))
                    for q in ERROR_QUANTITIES
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_rates_csv(reports, path):
    rates = observed_rates(reports)
    lines = ["quantity,level_from,level_to,rate"]
    for q in ERROR_QUANTITIES:
        for i, rate in enumerate(rates[q]):
            lines.append(
                f"{q},{reports[i].level},{reports[i + 1].level},{format_float(rate)}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def write_plot_data(reports, stem):
    """Two-column `dofs error` files, one per quantity."""
    paths = []
    for q in ERROR_QUANTITIES:
        path = Path(f"{stem}_{q}.dat")
        lines = [f"{r.dofs} {format_float(getattr(r, q))}" for r in reports]
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def run_experiment(config):
    """Run all levels of one experiment and emit the output files.

    Returns the list of per-level error reports. Levels run
    sequentially unless ``config.parallel`` is set; results are
    identical either way since levels are independent.
    """
    levels = list(range(config.max_level + 1))
    reports = []
    try:
        if config.parallel:
            with ProcessPoolExecutor() as pool:
                reports = list(
                    pool.map(_level_report, [config] * len(levels), levels)
                )
        else:
            meshes = mesh_hierarchy(config.max_level)
            reports = []
            for level in levels:
                reports.append(run_level(config, level, mesh=meshes[level])[0])
    except Exception as exc:
        failed = len(reports) if not config.parallel else "unknown"
        raise RuntimeError(f"experiment failed at level {failed}: {exc}") from exc

    if config.output_path:
        out = Path(config.output_path)
        write_reports_csv(reports, out)
        write_rates_csv(reports, out.with_suffix(out.suffix + ".rates.csv"))
        if config.plot_data:
            write_plot_data(reports, str(out.with_suffix("")))
    return reports


# ----------------------------------------------------------------------
# verification suite


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def conformity_jumps(mesh, dofmap, seed=0):
    """Largest inter-element jumps of u and of the normal flux.

    Samples random coefficient vectors and compares values from both
    sides of every interior edge at its midpoint. Conforming spaces
    must make both jumps vanish to roundoff.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dofmap.n_u)
    s = rng.standard_normal(dofmap.n_sigma)

    incident = {}
    for t in range(mesh.num_triangles):
        for i in range(3):
            incident.setdefault(int(mesh.triangle_edges[t, i]), []).append((t, i))

    max_jump_u = 0.0
    max_jump_flux = 0.0
    for e, tris in incident.items():
        if len(tris) != 2:
            continue
        a, b = mesh.edges[e]
        normal_dir = mesh.vertices[b] - mesh.vertices[a]
        normal = np.array([normal_dir[1], -normal_dir[0]])
        normal /= np.linalg.norm(normal)
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        vals = []
        for t, i in tris:
            # barycentric coordinates of the edge midpoint: the two
            # edge endpoints carry 1/2, the opposite vertex 0
            lam = np.full(3, 0.5)
            lam[i] = 0.0
            u_val, _, sig, _ = eval_fields_on_triangle(u, s, mesh, dofmap, t, lam)
            vals.append((u_val, sig @ normal))
        max_jump_u = max(max_jump_u, abs(vals[0][0] - vals[1][0]))
        max_jump_flux = max(max_jump_flux, abs(vals[0][1] - vals[1][1]))
    return max_jump_u, max_jump_flux


def _check(results, name, passed, detail=""):
    results.append(CheckResult(name=name, passed=bool(passed), detail=detail))


def run_verification_suite(solver_tol=solver.DEFAULT_TOL, seed=0, out=None):
    """Execute the structural property checks at desk scale.

    Prints one line per check and returns the list of CheckResult.
    """
    import math

    if out is None:
        out = sys.stdout
    results = []
    rng = np.random.default_rng(seed)

    # mesh invariants through level 4
    meshes = mesh_hierarchy(4)
    ok = True
    detail = ""
    for L, m in enumerate(meshes):
        euler = m.num_vertices - m.num_edges + m.num_triangles
        if m.num_triangles != 4 * 4**L or euler != 1:
            ok, detail = False, f"level {L}: T={m.num_triangles}, euler={euler}"
            break
        if abs(m.triangle_areas().sum() - 1.0) > 1e-12:
            ok, detail = False, f"level {L}: areas sum {m.triangle_areas().sum()}"
            break
        if not math.isclose(m.mesh_width(), 2.0**-L):
            ok, detail = False, f"level {L}: h={m.mesh_width()}"
            break
    _check(results, "mesh counts, Euler relation, areas, mesh width", ok, detail)

    # quadrature exactness against the factorial formula
    worst = 0.0
    for degree in (4, 6):
        rule = triangle_rule(degree)
        x, y = rule.points[:, 1], rule.points[:, 2]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                worst = max(worst, abs(float(np.sum(rule.weights * x**a * y**b)) - exact))
    _check(results, "quadrature exactness (degrees 4 and 6)", worst < 1e-13,
           f"worst error {worst:.2e}")

    mesh2 = meshes[2]
    dm2 = build_dof_map(mesh2)
    coeffs = Coefficients.constant(beta=(1.0, 1.0))

    # symmetry and positive definiteness of the total form
    ok, detail = True, ""
    for variant in ProblemVariant:
        for k in (0.1, 1e-3, 1e-6):
            dense = FormAssembler(mesh2, dm2, coeffs, k, variant).total_matrix().toarray()
            asym = np.abs(dense - dense.T).max() / np.abs(dense).max()
            if asym > 1e-12:
                ok, detail = False, f"{variant.value}, k={k}: asymmetry {asym:.2e}"
                break
            try:
                np.linalg.cholesky(dense)
            except np.linalg.LinAlgError:
                ok, detail = False, f"{variant.value}, k={k}: not SPD"
                break
    _check(results, "total form symmetric and SPD (both variants, k sweep)", ok, detail)

    # sampled coercivity of the non-symmetric form w.r.t. the natural norm
    asm = FormAssembler(mesh2, dm2, coeffs, 0.01, ProblemVariant.PRIMARY)
    B = asm.nonsymmetric_matrix()
    G = asm.natural_gram()
    quotients = []
    for _ in range(100):
        v = rng.standard_normal(dm2.total)
        quotients.append(float(v @ (B @ v)) / float(v @ (G @ v)))
    qmin = min(quotients)
    _check(results, "non-symmetric form coercive on samples", qmin > 0.0,
           f"min Rayleigh quotient {qmin:.4f}")

    # conformity of the discrete spaces
    jump_u, jump_flux = conformity_jumps(mesh2, dm2, seed=seed)
    _check(results, "H1/H(div) conformity across interior edges",
           jump_u < 1e-12 and jump_flux < 1e-12,
           f"jumps u {jump_u:.2e}, flux {jump_flux:.2e}")

    # decoupling: zero convection/reaction reduces to standard Galerkin
    mesh3 = mesh_hierarchy(3)[3]
    dm3 = build_dof_map(mesh3)
    heat = Coefficients.constant()
    part = TimePartition.uniform(0.1, 16)

    def source(t, x, y):
        return (1.0 + t) * np.sin(np.pi * x) * np.sin(np.pi * y)

    u0 = l2_project_initial(
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), mesh3, dm3
    )
    ls_states = backward_euler_run(
        source, part, mesh3, dm3, coeffs=heat,
        variant=ProblemVariant.PRIMARY, initial=u0, solver_tol=solver_tol,
    )
    galerkin = galerkin_be_reference(source, part, mesh3, dm3, initial=u0)
    worst = max(
        np.abs(s.u_coeffs - g).max() / max(np.abs(g).max(), 1e-30)
        for s, g in zip(ls_states[1:], galerkin[1:])
    )
    _check(results, "decoupled problem matches Galerkin reference", worst <= 1e-8,
           f"max relative coefficient difference {worst:.2e}")

    # stability bound on short runs of the benchmark, both variants
    ok, detail = True, ""
    for variant in ProblemVariant:
        problem = decaying_sine_problem(variant)
        init = l2_project_initial(
            lambda x, y: problem.u(0.0, x, y), mesh2, dm2
        )
        states = backward_euler_run(
            problem, TimePartition.uniform(0.1, 8), mesh2, dm2, initial=init
        )
        try:
            check_stability_bound(
                states, problem.f, TimePartition.uniform(0.1, 8), mesh2, dm2
            )
        except AssertionError as exc:
            ok, detail = False, f"{variant.value}: {exc}"
    _check(results, "per-step stability bound", ok, detail)

    # the computed step minimizes the least-squares functional
    problem = decaying_sine_problem(ProblemVariant.PRIMARY)
    init = l2_project_initial(lambda x, y: problem.u(0.0, x, y), mesh2, dm2)
    one_step = backward_euler_run(
        problem, TimePartition.uniform(0.1, 1), mesh2, dm2, initial=init
    )[-1]
    asm = FormAssembler(mesh2, dm2, problem.coeffs, 0.1, problem.variant)
    g = lambda x, y: problem.f(0.1, x, y)
    j_opt = asm.lsq_functional(one_step.u_coeffs, one_step.sigma_coeffs, g=g, w=init)
    ok = True
    for _ in range(20):
        v = rng.standard_normal(dm2.total)
        j_other = asm.lsq_functional(v[:dm2.n_u], v[dm2.n_u:], g=g, w=init)
        if j_other < j_opt * (1.0 - 1e-12):
            ok = False
            break
    _check(results, "computed step minimizes the functional", ok,
           f"optimal value {j_opt:.6e}")

    # elliptic projection: k-robust optimal rates
    ok, detail = True, ""
    proj_meshes = mesh_hierarchy(5)
    fields = problem.fields_at(0.1)
    for k in (1e-1, 1e-3, 1e-5):
        errs_nat, errs_u = [], []
        for L in range(2, 6):
            m = proj_meshes[L]
            dm = build_dof_map(m)
            res = elliptic_project(
                *fields, m, dm, problem.coeffs, k, problem.variant,
                solver_tol=solver_tol,
            )
            eu, eg, es, ed = field_error_norms(
                *fields, res.u_coeffs, res.sigma_coeffs, m, dm
            )
            errs_u.append(eu)
            errs_nat.append(math.sqrt(eg**2 + es**2 + k * ed**2))
        for b, f_ in zip(errs_nat[1:-1], errs_nat[2:]):
            rate = math.log2(b / f_)
            if not 0.8 <= rate <= 1.2:
                ok, detail = False, f"k={k}: natural rate {rate:.3f}"
        for b, f_ in zip(errs_u[1:-1], errs_u[2:]):
            rate = math.log2(b / f_)
            if not 1.7 <= rate <= 2.3:
                ok, detail = False, f"k={k}: L2 rate {rate:.3f}"
    _check(results, "elliptic projection rates, k-robust", ok, detail)

    # discrete solution satisfies its own variational equations
    matrix = asm.total_matrix()
    rhs = asm.load_vector(f=g, w=init)
    full = np.concatenate([one_step.u_coeffs, one_step.sigma_coeffs])
    resid = np.abs(matrix @ full - rhs).max()
    scale = max(np.abs(rhs).max(), 1.0)
    _check(results, "variational residual of computed step", resid <= 1e-8 * scale,
           f"max residual {resid:.2e}")

    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.name}"
        if r.detail:
            line += f"  [{r.detail}]"
        print(line, file=out)
    return results


# ----------------------------------------------------------------------
# command line


def _read_config_file(path):
    """Line-oriented key=value settings; '#' starts a comment."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


_BOOL_TRUE = {"1", "true", "yes", "on"}


def _merge_config(args):
    file_values = _read_config_file(args.config) if args.config else {}

    def pick(flag_value, key, convert, default):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return convert(file_values[key])
        return default

    coupling = pick(args.coupling, "coupling", str, COUPLING_H2)
    return ExperimentConfig(
        variant=pick(args.variant, "variant", str, ProblemVariant.PRIMARY.value),
        coupling=coupling,
        max_level=pick(args.max_level, "max_level", int, default_max_level(coupling)),
        final_time=pick(args.final_time, "final_time", float, 0.1),
        k0=pick(args.k0, "k0", float, 0.1),
        solver_tol=pick(args.tol, "tol", float, solver.DEFAULT_TOL),
        output_path=pick(args.out, "out", str, None),
        plot_data=pick(
            args.plot_data or None, "plot_data",
            lambda s: s.lower() in _BOOL_TRUE, False,
        ),
        parallel=pick(
            args.parallel or None, "parallel",
            lambda s: s.lower() in _BOOL_TRUE, False,
        ),
    )


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
    run_p.add_argument("--tol", type=float)
    run_p.add_argument("--out")
    run_p.add_argument("--config", help="key=value settings file; flags win")
    run_p.add_argument("--plot-data", action="store_true", dest="plot_data")
    run_p.add_argument("--parallel", action="store_true")

    verify_p = sub.add_parser("verify", help="run the verification suite")
    verify_p.add_argument("--tol", type=float, default=solver.DEFAULT_TOL)
    verify_p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        results = run_verification_suite(solver_tol=args.tol, seed=args.seed)
        return 0 if all(r.passed for r in results) else 1

    try:
        config = _merge_config(args)
        reports = run_experiment(config)
    except Exception as exc:  # surface the failing level/setting, exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rates = observed_rates(reports) if len(reports) > 1 else {}
    print(_CSV_HEADER)
    for r in reports:
        print(
            ",".join(
                [str(r.level), format_float(r.h), format_float(r.k), str(r.dofs)]
                + [format_float(getattr(r, q)) for q in ERROR_QUANTITIES]
            )
        )
    if rates:
        print("\nfinal-window rates:")
        for q in ERROR_QUANTITIES:
            print(f"  {q}: {rates[q][-1]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
