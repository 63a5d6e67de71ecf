"""The discrete properties the least-squares analysis rests on, checked once.

``CHECKS`` lists (name, check) pairs. Each check takes ``seed``,
builds its own meshes and data at desk scale, and returns ``(passed,
detail)``; a check that draws random vectors makes its own generator
from the seed. Every solve inside a check meets the solver's own
contract. ``parafosls verify`` runs the list in order and reports a
check that raises as failed; the acceptance tests parametrize over it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import compute_errors, decaying_sine_problem, observed_rates
from .evolution import (
    SeparableSource,
    TimePartition,
    backward_euler_run,
    check_stability_bound,
    galerkin_be_reference,
    l2_project_initial,
)
from .forms import Coefficients, FormAssembler, ProblemVariant
from .mesh import mesh_hierarchy
from .projection import elliptic_project
from .quadrature import triangle_rule
from .spaces import build_dof_map, eval_fields_on_triangle

# Observed-rate bands: second order (scalar L2 error), first order (natural norm)
L2_RATE_BAND = (1.7, 2.3)
NATURAL_RATE_BAND = (0.8, 1.2)

_CONVECTION = Coefficients.constant(beta=(1.0, 1.0))
_ONE_STEP = 0.1


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def in_band(rate, band):
    """Whether an observed rate lies in the closed band; NaN does not."""
    return band[0] <= rate <= band[1]


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


def _level(level):
    mesh = mesh_hierarchy(level)[level]
    return mesh, build_dof_map(mesh)


def _one_step(mesh, dofmap):
    """One primary-variant step of size _ONE_STEP from the projected initial data.

    Returns the assembler of the problem, the source at the new time,
    the initial coefficients and the computed (u, sigma) coefficients.
    """
    problem = decaying_sine_problem(ProblemVariant.PRIMARY)
    init = l2_project_initial(lambda x, y: problem.u(0.0, x, y), mesh, dofmap)
    u, sigma = backward_euler_run(
        problem.f, TimePartition.uniform(_ONE_STEP, 1), mesh, dofmap,
        problem.coeffs, problem.variant, initial=init,
    )
    asm = FormAssembler(mesh, dofmap, problem.coeffs, problem.variant)
    g = lambda x, y: problem.f(_ONE_STEP, x, y)
    return asm, g, init, (u[-1], sigma)


def check_mesh(seed):
    for L, m in enumerate(mesh_hierarchy(4)):
        euler = m.num_vertices - m.num_edges + m.num_triangles
        if m.num_triangles != 4 * 4**L or euler != 1:
            return False, f"level {L}: T={m.num_triangles}, euler={euler}"
        area = m.geometry.areas.sum()
        if abs(area - 1.0) > 1e-12:
            return False, f"level {L}: areas sum {area}"
        if not math.isclose(m.mesh_width(), 2.0**-L):
            return False, f"level {L}: h={m.mesh_width()}"
    return True, ""


def check_quadrature(seed):
    """Exactness against the factorial formula for monomials on the triangle."""
    worst = 0.0
    for degree in (4, 6):
        rule = triangle_rule(degree)
        x, y = rule.points[:, 1], rule.points[:, 2]
        for a in range(rule.exactness_degree + 1):
            for b in range(rule.exactness_degree + 1 - a):
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                worst = max(worst, abs(float(np.sum(rule.weights * x**a * y**b)) - exact))
    return worst < 1e-13, f"worst error {worst:.2e}"


def check_total_form_spd(seed):
    mesh, dofmap = _level(2)
    for variant in ProblemVariant:
        asm = FormAssembler(mesh, dofmap, _CONVECTION, variant)
        for k in (0.1, 1e-3, 1e-6):
            dense = asm.total_matrix(k).toarray()
            asym = np.abs(dense - dense.T).max() / np.abs(dense).max()
            if asym > 1e-12:
                return False, f"{variant.value}, k={k}: asymmetry {asym:.2e}"
            try:
                np.linalg.cholesky(dense)
            except np.linalg.LinAlgError:
                return False, f"{variant.value}, k={k}: not SPD"
    return True, ""


def check_coercivity(seed):
    """Sampled coercivity of the non-symmetric form in the natural norm."""
    mesh, dofmap = _level(2)
    rng = np.random.default_rng(seed)
    asm = FormAssembler(mesh, dofmap, _CONVECTION, ProblemVariant.PRIMARY)
    B = asm.nonsymmetric_matrix(0.01)
    G = asm.natural_gram(0.01)
    quotients = []
    for _ in range(100):
        v = rng.standard_normal(dofmap.total)
        quotients.append(float(v @ (B @ v)) / float(v @ (G @ v)))
    qmin = min(quotients)
    return qmin > 0.0, f"min Rayleigh quotient {qmin:.4f}"


def check_conformity(seed):
    jump_u, jump_flux = conformity_jumps(*_level(2), seed=seed)
    return (
        jump_u < 1e-12 and jump_flux < 1e-12,
        f"jumps u {jump_u:.2e}, flux {jump_flux:.2e}",
    )


def check_decoupling(seed):
    """Zero convection and reaction reduce the scheme to standard Galerkin.

    The source (1 + t) sin(pi x) sin(pi y) is separable: the scheme takes
    its separable path, and the reference evaluates f(t, x, y) each step.
    """
    mesh, dofmap = _level(3)
    part = TimePartition.uniform(0.1, 16)
    source = SeparableSource(
        lambda t: 1.0 + t, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    )

    u0 = l2_project_initial(
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), mesh, dofmap
    )
    ls_u, _ = backward_euler_run(
        source, part, mesh, dofmap, coeffs=Coefficients.constant(),
        variant=ProblemVariant.PRIMARY, initial=u0,
    )
    galerkin = galerkin_be_reference(source, part, mesh, dofmap, initial=u0)
    worst = max(
        np.abs(s - g).max() / max(np.abs(g).max(), 1e-30)
        for s, g in zip(ls_u[1:], galerkin[1:])
    )
    return worst <= 1e-8, f"max relative coefficient difference {worst:.2e}"


def check_stability(seed):
    """The per-step bound on short runs of the benchmark, both variants."""
    mesh, dofmap = _level(2)
    partition = TimePartition.uniform(0.1, 8)
    for variant in ProblemVariant:
        problem = decaying_sine_problem(variant)
        init = l2_project_initial(lambda x, y: problem.u(0.0, x, y), mesh, dofmap)
        u, _ = backward_euler_run(
            problem.f, partition, mesh, dofmap, problem.coeffs, problem.variant, initial=init
        )
        try:
            check_stability_bound(u, problem.f, partition, mesh, dofmap)
        except AssertionError as exc:
            return False, f"{variant.value}: {exc}"
    return True, ""


def check_minimizer(seed):
    """The computed step beats random competitors in the functional."""
    mesh, dofmap = _level(2)
    asm, g, init, (u, sigma) = _one_step(mesh, dofmap)
    j_opt = asm.lsq_functional(_ONE_STEP, u, sigma, g=g, w=init)
    detail = f"optimal value {j_opt:.6e}"
    rng = np.random.default_rng(seed)
    for _ in range(20):
        v = rng.standard_normal(dofmap.total)
        j_other = asm.lsq_functional(_ONE_STEP, v[:dofmap.n_u], v[dofmap.n_u:], g=g, w=init)
        if j_opt > j_other * (1.0 + 1e-12):
            return False, detail
    return True, detail


def check_projection_rates(seed):
    """k-robust optimal rates of the elliptic projection, levels 3 to 5."""
    problem = decaying_sine_problem(ProblemVariant.PRIMARY)
    fields = problem.fields_at(0.1)
    meshes = mesh_hierarchy(5)
    ok, detail = True, ""
    for k in (1e-1, 1e-3, 1e-5):
        reports = []
        for m in meshes[3:]:
            dm = build_dof_map(m)
            res = elliptic_project(*fields, m, dm, problem.coeffs, k, problem.variant)
            reports.append(compute_errors(res.u_coeffs, res.sigma_coeffs, problem, m, dm, k, 0.1))
        rates = observed_rates(reports)
        for quantity, band, label in (
            ("natural_norm", NATURAL_RATE_BAND, "natural"),
            ("err_u", L2_RATE_BAND, "L2"),
        ):
            for rate in rates[quantity]:
                if not in_band(rate, band):
                    ok, detail = False, f"k={k}: {label} rate {rate:.3f}"
    return ok, detail


def check_variational_residual(seed):
    """The computed step satisfies its own variational equations."""
    asm, g, init, step = _one_step(*_level(2))
    rhs = asm.load_vector(_ONE_STEP, f=g, w=init)
    full = np.concatenate(step)
    resid = np.abs(asm.total_matrix(_ONE_STEP) @ full - rhs).max()
    scale = max(np.abs(rhs).max(), 1.0)
    return resid <= 1e-8 * scale, f"max residual {resid:.2e}"


CHECKS = (
    ("mesh counts, Euler relation, areas, mesh width", check_mesh),
    ("quadrature exactness (degrees 4 and 6)", check_quadrature),
    ("total form symmetric and SPD (both variants, k sweep)", check_total_form_spd),
    ("non-symmetric form coercive on samples", check_coercivity),
    ("H1/H(div) conformity across interior edges", check_conformity),
    ("decoupled problem matches Galerkin reference", check_decoupling),
    ("per-step stability bound", check_stability),
    ("computed step minimizes the functional", check_minimizer),
    ("elliptic projection rates, k-robust", check_projection_rates),
    ("variational residual of computed step", check_variational_residual),
)


def run_verification_suite(seed=0):
    """Run every check in ``CHECKS``, printing one line per check.

    A check that raises fails with the exception as its detail, and the
    suite goes on. Returns the list of CheckResult.
    """
    results = []
    for name, check in CHECKS:
        try:
            passed, detail = check(seed=seed)
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        result = CheckResult(name=name, passed=bool(passed), detail=detail)
        results.append(result)
        line = f"{'PASS' if result.passed else 'FAIL'}  {name}"
        if detail:
            line += f"  [{detail}]"
        print(line)
    return results
