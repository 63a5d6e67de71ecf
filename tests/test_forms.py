import dataclasses
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafosls import forms
from parafosls.analysis import decaying_sine_problem, field_error_norms
from parafosls.evolution import TimePartition, backward_euler_run, l2_project_initial
from parafosls.forms import (
    CoefficientError,
    Coefficients,
    FormAssembler,
    ProblemVariant,
    _spd_roots,
    assemble_p1_mass,
    assemble_p1_stiffness,
)
from parafosls.quadrature import triangle_rule
from parafosls.solver import FactorHandle
from parafosls.spaces import _element_first

from oracles import (
    _residuals,
    coo_load_operators,
    dense_coupling_matrix,
    dense_rhs,
    dense_total_matrix,
    einsum_forms,
    element_first_forms,
    element_first_points,
    whole_mesh_error_norms,
)

CONVECTION = Coefficients.constant(beta=(1.0, 1.0))
HEAT = Coefficients.constant()


def rule_points(mesh, degree):
    """The (nE, nQ, 2) points of the rule of that degree on every element."""
    return element_first_points(triangle_rule(degree), mesh.geometry.verts)


def variable_coefficients():
    """Smooth admissible non-constant coefficients for stress tests."""

    def A(x, y):
        shape = np.broadcast(x, y).shape
        out = np.zeros((2, 2) + shape)
        out[0, 0] = 2.0 + np.sin(x)
        out[1, 1] = 2.0 + np.cos(y)
        out[0, 1] = out[1, 0] = 0.25
        return out

    def beta(x, y):
        return np.stack([np.broadcast_to(y, np.broadcast(x, y).shape),
                         np.broadcast_to(x, np.broadcast(x, y).shape)])

    def div_beta(x, y):
        return np.zeros(np.broadcast(x, y).shape)

    def gamma(x, y):
        return 1.0 + 0.5 * np.broadcast_to(x, np.broadcast(x, y).shape)

    return Coefficients(A=A, beta=beta, div_beta=div_beta, gamma=gamma)


@pytest.mark.parametrize("variant", list(ProblemVariant))
@pytest.mark.parametrize("k", [0.1, 1e-3, 1e-6])
def test_total_form_symmetric_and_spd(mesh_chain, dofmaps, variant, k):
    asm = FormAssembler(mesh_chain[1], dofmaps[1], CONVECTION, variant)
    matrix = asm.total_matrix(k).toarray()
    assert np.abs(matrix - matrix.T).max() <= 1e-12 * np.abs(matrix).max()
    np.linalg.cholesky(matrix)  # raises if not SPD


def _rotated_diffusion(angle, lam1, lam2):
    """R(angle) diag(lam1, lam2) R(angle)^T; array arguments give a (2, 2) + shape field."""
    c, s = np.cos(angle), np.sin(angle)
    off = (lam1 - lam2) * c * s
    return np.array([[lam1 * c * c + lam2 * s * s, off], [off, lam1 * s * s + lam2 * c * c]])


def _diffusion_only(A):
    """Coefficients with the given diffusion field and no convection or reaction."""

    def zero(x, y):
        return np.zeros(np.broadcast(x, y).shape)

    return Coefficients(
        A=A, beta=lambda x, y: np.zeros((2,) + np.broadcast(x, y).shape),
        div_beta=zero, gamma=zero,
    )


_EIGENVALUE = st.floats(0.1, 10.0)
_CONVECTION_COMPONENT = st.floats(-2.0, 2.0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    angle=st.floats(0.0, np.pi),
    lam1=_EIGENVALUE,
    lam2=_EIGENVALUE,
    beta=st.tuples(_CONVECTION_COMPONENT, _CONVECTION_COMPONENT),
    gamma=st.floats(0.0, 2.0),
    log_k=st.floats(-8.0, 0.0),
    level=st.integers(0, 3),
    variant=st.sampled_from(ProblemVariant),
)
def test_total_form_spd_for_admissible_constant_coefficients(
    mesh_chain, dofmaps, angle, lam1, lam2, beta, gamma, log_k, level, variant
):
    coeffs = Coefficients.constant(
        A=_rotated_diffusion(angle, lam1, lam2), beta=beta, gamma=gamma
    )
    asm = FormAssembler(mesh_chain[level], dofmaps[level], coeffs, variant)
    matrix = asm.total_matrix(10.0**log_k).toarray()
    assert np.abs(matrix - matrix.T).max() <= 1e-12 * np.abs(matrix).max()
    np.linalg.cholesky(matrix)  # raises if not SPD


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    angle=st.tuples(st.floats(0.0, np.pi), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    lam1=_EIGENVALUE,
    lam1_swing=st.floats(0.0, 0.9),
    lam2=_EIGENVALUE,
    beta=st.tuples(*[_CONVECTION_COMPONENT] * 4),
    gamma=st.floats(0.0, 2.0),
    log_k=st.floats(-8.0, 0.0),
    level=st.integers(0, 2),
    variant=st.sampled_from(ProblemVariant),
)
def test_total_form_spd_for_admissible_variable_coefficients(
    mesh_chain, dofmaps, angle, lam1, lam1_swing, lam2, beta, gamma, log_k, level, variant
):
    """A = R(theta) diag(lam1, lam2) R(theta)^T with theta and lam1 varying
    in space, a variable beta with its analytic divergence, and
    gamma = gamma0 + |div beta| / 2, so 0.5 div beta + gamma >= gamma0 >= 0."""
    b0, b1, b2, b3 = beta

    def A(x, y):
        theta = angle[0] + angle[1] * x + angle[2] * y
        lam = lam1 * (1.0 + lam1_swing * np.sin(np.pi * x) * np.cos(np.pi * y))
        return _rotated_diffusion(theta, lam, np.full_like(lam, lam2))

    def beta_field(x, y):
        return np.stack([b0 + b1 * x * y, b2 + b3 * y * np.sin(np.pi * x)])

    def div_beta(x, y):
        return b1 * y + b3 * np.sin(np.pi * x)

    coeffs = Coefficients(
        A=A, beta=beta_field, div_beta=div_beta,
        gamma=lambda x, y: gamma + 0.5 * np.abs(div_beta(x, y)),
    )
    asm = FormAssembler(mesh_chain[level], dofmaps[level], coeffs, variant)
    matrix = asm.total_matrix(10.0**log_k).toarray()
    assert np.abs(matrix - matrix.T).max() <= 1e-12 * np.abs(matrix).max()
    np.linalg.cholesky(matrix)  # raises if not SPD


@settings(derandomize=True, deadline=None, max_examples=20)
@given(gamma=st.floats(-2.0, -1e-3), beta=st.tuples(_CONVECTION_COMPONENT, _CONVECTION_COMPONENT))
def test_negative_reaction_rejected(mesh_chain, dofmaps, gamma, beta):
    coeffs = Coefficients.constant(beta=beta, gamma=gamma)
    with pytest.raises(CoefficientError, match=r"0.5 div\(beta\) \+ gamma"):
        FormAssembler(mesh_chain[0], dofmaps[0], coeffs, "primary").total_matrix(0.1)


@pytest.mark.parametrize("variant", list(ProblemVariant))
def test_total_matrix_matches_dense_oracle(mesh_chain, dofmaps, variant):
    m, dm = mesh_chain[1], dofmaps[1]
    fast = FormAssembler(m, dm, CONVECTION, variant).total_matrix(0.05).toarray()
    slow = dense_total_matrix(m, dm, CONVECTION, 0.05, variant)
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-13)


def test_total_matrix_variable_coefficients_oracle(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    coeffs = variable_coefficients()
    fast = FormAssembler(m, dm, coeffs, "primary").total_matrix(0.01).toarray()
    slow = dense_total_matrix(m, dm, coeffs, 0.01, "primary")
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("variant", list(ProblemVariant))
def test_exact_residuals_match_oracle(mesh_chain, dofmaps, variant):
    """r and d of an exact field at every data point, against eigh roots."""
    m, dm = mesh_chain[1], dofmaps[1]
    coeffs = variable_coefficients()
    fields = decaying_sine_problem(variant).fields_at(0.05)
    asm = FormAssembler(m, dm, coeffs, variant)
    tables = forms._RuleTables(asm, triangle_rule(forms.DATA_DEGREE), slice(None))
    r, d = tables.exact_residuals(*fields)  # (nQ, nE), (nQ, 2, nE)
    points = rule_points(m, forms.DATA_DEGREE)
    for e, q in np.ndindex(points.shape[:2]):
        x, y = points[e, q]
        values = [np.asarray(fn(x, y), dtype=float) for fn in fields]
        r_ref, d_ref = _residuals(coeffs, variant, x, y, *values)
        np.testing.assert_allclose(r[q, e], r_ref, rtol=1e-12)
        np.testing.assert_allclose(d[q, :, e], d_ref, rtol=1e-12)


def test_decoupled_u_block_is_galerkin_operator(mesh_chain, dofmaps):
    """Zero convection/reaction with unit diffusion: the scalar block is
    (1/k) mass + stiffness and the scalar-flux coupling cancels globally."""
    m, dm = mesh_chain[0], dofmaps[0]
    k = 0.05
    total = FormAssembler(m, dm, HEAT, "primary").total_matrix(k).toarray()
    n_u = dm.n_u

    # frozen oracle values for the single interior hat function:
    # mass 1/6 from the barycentric integral formula, stiffness 4 from
    # the four gradients of magnitude 2 on triangles of area 1/4
    assert np.isclose(total[0, 0], (1.0 / 6.0) / k + 4.0)

    coupling = total[:n_u, n_u:]
    assert np.abs(coupling).max() <= 1e-12 * np.abs(total).max()

    mass = assemble_p1_mass(m, dm).toarray()
    stiffness = assemble_p1_stiffness(m, dm).toarray()
    assert np.allclose(total[:n_u, :n_u], mass / k + stiffness, rtol=1e-12)


def test_nonsymmetric_form_is_nonsymmetric_with_convection(mesh_chain, dofmaps):
    matrix = FormAssembler(
        mesh_chain[1], dofmaps[1], CONVECTION, "primary"
    ).nonsymmetric_matrix(0.05).toarray()
    assert np.abs(matrix - matrix.T).max() > 1e-8


def test_form_decomposition(mesh_chain, dofmaps):
    """total = (1/k) mass + coupling + nonsym, entrywise; the mass is the P1
    mass matrix in the u-u block, the coupling <u, r(v)> the loop oracle's."""
    m, dm = mesh_chain[1], dofmaps[1]
    k = 0.02
    for variant in ProblemVariant:
        asm = FormAssembler(m, dm, CONVECTION, variant)
        total = asm.total_matrix(k).toarray()
        parts = dense_coupling_matrix(m, dm, CONVECTION, variant)
        parts[: dm.n_u, : dm.n_u] += assemble_p1_mass(m, dm).toarray() / k
        parts += asm.nonsymmetric_matrix(k).toarray()
        assert np.abs(total - parts).max() <= 1e-12 * np.abs(total).max()


def test_nonsymmetric_dominates_half_spatial_form(mesh_chain, dofmaps, rng):
    """b(v, v) >= a(v, v) / 2 for the spatial form a = coupling + b."""
    m, dm = mesh_chain[1], dofmaps[1]
    asm = FormAssembler(m, dm, CONVECTION, "primary")
    B = asm.nonsymmetric_matrix(0.05).toarray()
    A_sp = dense_coupling_matrix(m, dm, CONVECTION, "primary") + B
    for _ in range(50):
        v = rng.standard_normal(dm.total)
        bv = float(v @ (B @ v))
        av = float(v @ (A_sp @ v))
        assert bv > 0.0
        assert bv >= 0.5 * av - 1e-12 * abs(av)


@pytest.mark.parametrize("k", [0.0, -0.1, np.nan, np.inf])
def test_step_must_be_positive_and_finite(mesh_chain, dofmaps, k, monkeypatch):
    """Every form rejects a bad k before it builds any table."""
    m, dm = mesh_chain[0], dofmaps[0]
    asm = FormAssembler(m, dm, CONVECTION, "primary")

    def no_tables(*args):
        raise AssertionError("element tables built before k was checked")

    monkeypatch.setattr(forms, "_RuleTables", no_tables)
    zeros = np.zeros(dm.n_u), np.zeros(dm.n_sigma)
    fields = decaying_sine_problem("primary").fields_at(0.0)
    calls = (
        asm.total_matrix, asm.nonsymmetric_matrix, asm.natural_gram, asm.load_vector,
        lambda k: asm.lsq_functional(k, *zeros),
        lambda k: asm.lsq_indicators(k, *zeros),
        lambda k: asm.nonsymmetric_load_from_fields(k, *fields),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"k must be positive and finite, got {k}"):
            call(k)
    assert "_data_points" not in vars(asm)


def test_rhs_zero_data(mesh_chain, dofmaps):
    asm = FormAssembler(mesh_chain[1], dofmaps[1], CONVECTION, "primary")
    rhs = asm.load_vector(0.1, f=None, w=None)
    assert np.allclose(rhs, 0.0)


@pytest.mark.parametrize("variant", list(ProblemVariant))
def test_rhs_matches_dense_oracle(mesh_chain, dofmaps, variant, rng):
    m, dm = mesh_chain[0], dofmaps[0]
    w = rng.standard_normal(dm.n_u)

    def f(x, y):
        return np.sin(np.pi * x) * np.cos(y)

    fast = FormAssembler(m, dm, CONVECTION, variant).load_vector(0.25, f=f, w=w)
    slow = dense_rhs(m, dm, CONVECTION, 0.25, variant, f=f, w=w)
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("variant", list(ProblemVariant))
@pytest.mark.parametrize("w_kind", ["vector", "none"])
@pytest.mark.parametrize("with_f", [True, False])
def test_load_vector_matches_dense_oracle_level2(
    mesh_chain, dofmaps, variant, w_kind, with_f, rng
):
    m, dm = mesh_chain[2], dofmaps[2]
    w = rng.standard_normal(dm.n_u) if w_kind == "vector" else None

    def f(x, y):
        return np.sin(np.pi * x) * np.cos(y)

    f = f if with_f else None
    asm = FormAssembler(m, dm, variable_coefficients(), variant)
    fast = asm.load_vector(0.03, f=f, w=w)
    slow = dense_rhs(m, dm, asm.coeffs, 0.03, variant, f=f, w=w)
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12 * np.abs(slow).max())


def test_source_of_wrong_shape_named(mesh_chain, dofmaps):
    asm = FormAssembler(mesh_chain[1], dofmaps[1], CONVECTION, "primary")
    expected = str(rule_points(mesh_chain[1], forms.DATA_DEGREE).shape[:2])
    with pytest.raises(ValueError, match=r"source f .*shape \(5,\).*" + re.escape(expected)):
        asm.load_vector(0.1, f=lambda x, y: np.zeros(5))


def test_rhs_previous_step_scaling(mesh_chain, dofmaps):
    """With f = 0 the scalar test rows reduce to <w, v>/k for the
    decoupled coefficients."""
    m, dm = mesh_chain[0], dofmaps[0]
    k = 0.125
    w = np.array([0.8])
    rhs = FormAssembler(m, dm, HEAT, "primary").load_vector(k, f=None, w=w)
    # single interior hat: <w, phi>/k = 0.8 * (1/6) / k
    assert np.isclose(rhs[0], 0.8 / 6.0 / k)


def test_coefficient_condition_violation_names_point(mesh_chain, dofmaps):
    bad = Coefficients.constant(beta=(1.0, 1.0), gamma=-0.5)
    with pytest.raises(CoefficientError, match=r"0.5 div\(beta\) \+ gamma.*\("):
        FormAssembler(mesh_chain[0], dofmaps[0], bad, "primary").total_matrix(0.1)


def test_indefinite_diffusion_rejected(mesh_chain, dofmaps):
    bad = _diffusion_only(
        lambda x, y: np.broadcast_to(
            np.array([[1.0, 0.0], [0.0, -1.0]])[..., None, None],
            (2, 2) + np.broadcast(x, y).shape,
        )
    )
    with pytest.raises(CoefficientError):
        FormAssembler(mesh_chain[0], dofmaps[0], bad, "primary").total_matrix(0.1)


def test_diffusion_indefinite_at_one_point_names_it(mesh_chain, dofmaps, monkeypatch):
    """The point is named whichever block holds it (element 5 lies in
    the second block of four elements)."""
    x0, y0 = rule_points(mesh_chain[1], forms.MATRIX_DEGREE)[5, 2]

    def A(x, y):
        out = _rotated_diffusion(0.0, np.ones_like(x), np.ones_like(x))
        out[1, 1] = np.where((x == x0) & (y == y0), -0.5, 1.0)
        return out

    asm = FormAssembler(mesh_chain[1], dofmaps[1], _diffusion_only(A), "primary")
    point = re.escape(f"({x0:.6g}, {y0:.6g})")
    for block_elements in (forms.BLOCK_ELEMENTS, 4):
        monkeypatch.setattr(forms, "BLOCK_ELEMENTS", block_elements)
        with pytest.raises(CoefficientError, match=point + r": lambda_min = -0\.5$"):
            asm.total_matrix(0.1)


_FAILURE_MESSAGES = {
    "asymmetric A": r"diffusion matrix not symmetric at point {}: \|A01 - A10\| = 5$",
    "indefinite A": r"diffusion matrix not positive definite at point {}: lambda_min = -0\.5$",
    "negative margin": r"0\.5 div\(beta\) \+ gamma >= 0 fails at point {}: value -0\.5$",
    "non-finite gamma": r"coefficient gamma is not finite at point {}: value nan$",
}


@pytest.mark.parametrize("failure", list(_FAILURE_MESSAGES))
def test_first_offending_point_in_element_order(mesh_chain, dofmaps, failure):
    """A coefficient that fails equally at point 3 of element 1 and at
    point 0 of element 5 is named at the first of them in (element,
    point) order; point by point, over the elements, the other one comes
    first."""
    m, dm = mesh_chain[1], dofmaps[1]
    points = rule_points(m, forms.MATRIX_DEGREE)
    first, other = points[1, 3], points[5, 0]

    def bad(x, y):
        return ((x == first[0]) & (y == first[1])) | ((x == other[0]) & (y == other[1]))

    def A(x, y):
        out = _rotated_diffusion(0.0, np.ones_like(x), np.ones_like(x))
        if failure == "asymmetric A":
            out[0, 1] = np.where(bad(x, y), 5.0, 0.0)
        if failure == "indefinite A":
            out[1, 1] = np.where(bad(x, y), -0.5, 1.0)
        return out

    def gamma(x, y):
        if failure.endswith("A"):
            return np.zeros(np.broadcast(x, y).shape)
        return np.where(bad(x, y), np.nan if failure == "non-finite gamma" else -0.5, 1.0)

    coeffs = dataclasses.replace(_diffusion_only(A), gamma=gamma)
    asm = FormAssembler(m, dm, coeffs, "primary")
    point = re.escape("({:.6g}, {:.6g})".format(*first))
    with pytest.raises(CoefficientError, match=_FAILURE_MESSAGES[failure].format(point)):
        asm.total_matrix(0.1)


def test_diffusion_singular_to_roundoff_rejected(mesh_chain, dofmaps):
    """Here tr/2 - hypot rounds to lambda_min = 3.6e-15 > 0 while det A
    rounds to -3.6e-15, so the closed-form roots would be NaN."""
    b = -4.165905789897516
    bad = Coefficients.constant(A=((35.18625711319704, b), (b, 0.4932258351455212)))
    asm = FormAssembler(mesh_chain[0], dofmaps[0], bad, "primary")
    with pytest.raises(CoefficientError, match=r"not positive definite at point \(.+\): lambda_min = 3\.55"):
        asm.total_matrix(0.1)


def test_nonsymmetric_diffusion_rejected(mesh_chain, dofmaps):
    """A symmetric-matrix root reads one triangle only, so it would take
    ((1, 5), (0, 1)) for the identity: the asymmetry must fail first."""
    bad = Coefficients.constant(A=((1.0, 5.0), (0.0, 1.0)))
    asm = FormAssembler(mesh_chain[0], dofmaps[0], bad, "primary")
    with pytest.raises(CoefficientError, match=r"not symmetric at point \(.+\): \|A01 - A10\| = 5$"):
        asm.total_matrix(0.1)
    # an asymmetry below the relative tolerance 1e-12 is roundoff
    nearly = Coefficients.constant(A=((2.0, 0.5), (0.5 + 1e-13, 2.0)))
    FormAssembler(mesh_chain[0], dofmaps[0], nearly, "primary").total_matrix(0.1)


def test_closed_form_roots_agree_with_eigh(rng):
    """Random SPD fields with condition numbers up to 1e8."""
    n = 2000
    lam1 = 10.0 ** rng.uniform(-4.0, 4.0, n)
    field = _rotated_diffusion(
        rng.uniform(0.0, np.pi, n), lam1, lam1 / 10.0 ** rng.uniform(0.0, 8.0, n)
    )
    a, root, inv_root = (
        np.moveaxis(m, (0, 1), (-2, -1)) for m in (field, *_spd_roots(field, str))
    )
    vals, vecs = np.linalg.eigh(a)
    eigh_root = (vecs * np.sqrt(vals)[:, None, :]) @ np.swapaxes(vecs, -1, -2)

    def norm(m):
        return np.linalg.norm(m, ord=2, axis=(-2, -1))

    assert (norm(root - eigh_root) / norm(eigh_root)).max() <= 1e-12
    assert (norm(root @ root - a) / norm(a)).max() <= 1e-12
    # A^{-1/2} carries the O(eps cond) error of the smallest eigenvalue
    # with either method, so it is checked through its defining identity
    assert (norm(root @ inv_root - np.eye(2)) / (norm(root) * norm(inv_root))).max() <= 1e-12


def test_identity_diffusion_roots_are_exact():
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 5))
    identity = _rotated_diffusion(0.0, np.ones_like(x), np.ones_like(x))
    root, inv_root = _spd_roots(HEAT.A(x, y), str)
    assert np.array_equal(root, identity)
    assert np.array_equal(inv_root, identity)


def test_lsq_functional_zero_state(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    asm = FormAssembler(m, dm, CONVECTION, "primary")
    value = asm.lsq_functional(0.1, np.zeros(dm.n_u), np.zeros(dm.n_sigma), g=None, w=None)
    assert value == 0.0


def test_lsq_functional_positive_off_zero(mesh_chain, dofmaps, rng):
    m, dm = mesh_chain[1], dofmaps[1]
    for variant in ProblemVariant:
        v = rng.standard_normal(dm.total)
        asm = FormAssembler(m, dm, CONVECTION, variant)
        assert asm.lsq_functional(0.1, v[: dm.n_u], v[dm.n_u :], g=None, w=None) > 0.0


@pytest.mark.parametrize("variant", list(ProblemVariant))
def test_solution_minimizes_functional(mesh_chain, dofmaps, variant, rng):
    """The backward Euler step beats 20 random competitors."""
    from parafosls.analysis import decaying_sine_problem

    m, dm = mesh_chain[2], dofmaps[2]
    problem = decaying_sine_problem(variant)
    k = 0.1
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), m, dm)
    u, sigma = backward_euler_run(
        problem.f, TimePartition.uniform(k, 1), m, dm, problem.coeffs, variant, initial=initial
    )
    g = lambda x, y: problem.f(k, x, y)
    asm = FormAssembler(m, dm, problem.coeffs, variant)
    j_best = asm.lsq_functional(k, u[-1], sigma, g=g, w=initial)
    for _ in range(20):
        v = rng.standard_normal(dm.total)
        j_other = asm.lsq_functional(k, v[: dm.n_u], v[dm.n_u :], g=g, w=initial)
        assert j_best <= j_other * (1.0 + 1e-12)


def test_variational_residual_of_solved_step(mesh_chain, dofmaps):
    """The solved coefficients satisfy every test equation to solver accuracy."""
    from parafosls.analysis import decaying_sine_problem

    m, dm = mesh_chain[2], dofmaps[2]
    problem = decaying_sine_problem("primary")
    asm = FormAssembler(m, dm, problem.coeffs, "primary")
    matrix = asm.total_matrix(0.1)
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), m, dm)
    rhs = asm.load_vector(0.1, f=lambda x, y: problem.f(0.1, x, y), w=initial)
    solution = FactorHandle(matrix).solve(rhs).solution
    residual = np.abs(matrix @ solution - rhs).max()
    assert residual <= 1e-10 * max(np.abs(rhs).max(), 1.0)


def test_natural_gram_is_spd(mesh_chain, dofmaps):
    n_u = dofmaps[1].n_u
    gram = FormAssembler(mesh_chain[1], dofmaps[1], CONVECTION, "primary").natural_gram(0.05)
    assert gram[:n_u, n_u:].nnz == 0 and gram[n_u:, :n_u].nnz == 0
    gram = gram.toarray()
    assert np.allclose(gram, gram.T)
    np.linalg.cholesky(gram)


def every_form(asm, variant):
    """Every form of the assembler at one k, for the block-size test."""
    k = 0.03
    dm = asm.dofmap
    rng = np.random.default_rng(7)
    u, sigma, w = (rng.standard_normal(n) for n in (dm.n_u, dm.n_sigma, dm.n_u))

    def f(x, y):
        return np.sin(np.pi * x) * np.cos(y)

    out = {
        "total": asm.total_matrix(k),
        "nonsymmetric": asm.nonsymmetric_matrix(k),
        "gram": asm.natural_gram(k),
        "functional": asm.lsq_functional(k, u, sigma, g=f, w=w),
        "functional, no data": asm.lsq_functional(k, u, None),
        "indicators": asm.lsq_indicators(k, u, sigma, g=f, w=w),
        "field load": asm.nonsymmetric_load_from_fields(
            k, *decaying_sine_problem(variant).fields_at(0.1)
        ),
        "source load": asm.source_load(k, lambda x, y: np.cos(x + y)),
    }
    for f_name, source in (("plain", f), ("none", None)):
        for w_name, datum in (("vector", w), ("none", None)):
            out[f"load f {f_name}, w {w_name}"] = asm.load_vector(k, f=source, w=datum)
    return out


def _same_bits(x, y):
    """Bitwise equality, which np.array_equal is not for signed zeros."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_bitwise_equal(a, b):
    if hasattr(a, "indptr"):
        for part in ("data", "indices", "indptr"):
            assert _same_bits(getattr(a, part), getattr(b, part))
    else:
        assert _same_bits(a, b)


@pytest.mark.parametrize("variant", list(ProblemVariant))
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_load_operators_equal_coo_scatter(mesh_chain, dofmaps, variant, level):
    """The load pair in CSR form (to_tests is stored as CSC) is bitwise
    the one a COO scatter gives: data, indices and indptr, dtypes
    included."""
    m, dm = mesh_chain[level], dofmaps[level]
    for coeffs in (decaying_sine_problem(variant).coeffs, variable_coefficients()):
        asm = FormAssembler(m, dm, coeffs, variant)
        for k in (1e-6, 1e-3, 0.1):
            for op, oracle in zip(asm._load_operators(k), coo_load_operators(asm, k)):
                built = op.tocsr()
                assert built.shape == oracle.shape
                for part in ("data", "indices", "indptr"):
                    a, b = getattr(built, part), getattr(oracle, part)
                    assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("variant", list(ProblemVariant))
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_forms_equal_element_first_oracle(mesh_chain, dofmaps, variant, level, monkeypatch):
    """Every form built from the element-last tables in blocks of 5 (a
    ragged last one at every level) is bitwise the one the element-first
    tables and kernels give: the four matrices, the field load, the
    functional terms, both load operators and the error norms. So are
    the products of to_tests (stored as CSC) and of the oracle's CSR
    operator, for an x spanning 16 decades with both signed zeros and
    for the separable image k to_tests g."""
    m, dm = mesh_chain[level], dofmaps[level]
    monkeypatch.setattr(forms, "BLOCK_ELEMENTS", 5)
    rng = np.random.default_rng(level)
    u, sigma, w = (rng.standard_normal(n) for n in (dm.n_u, dm.n_sigma, dm.n_u))
    fields = decaying_sine_problem(variant).fields_at(0.1)

    def g(x, y):
        return np.sin(np.pi * x) * np.cos(y)

    g_vals = g(*np.moveaxis(rule_points(m, forms.DATA_DEGREE), -1, 0)).ravel()
    x = rng.standard_normal(g_vals.size) * 10.0 ** rng.uniform(-8.0, 8.0, g_vals.size)
    x[::7], x[3::11] = 0.0, -0.0

    for coeffs in (decaying_sine_problem(variant).coeffs, variable_coefficients()):
        asm = FormAssembler(m, dm, coeffs, variant)
        for k in (1e-6, 1e-3, 0.1):
            oracle = element_first_forms(asm, k, fields, u, sigma, g, w)
            assert _same_bits(asm._lsq_terms(k, u, sigma, g, w), oracle.pop("lsq terms"))
            built = {
                "total": asm.total_matrix(k),
                "nonsymmetric": asm.nonsymmetric_matrix(k),
                "gram": asm.natural_gram(k),
                "field load": asm.nonsymmetric_load_from_fields(k, *fields),
            }
            for name, value in oracle.items():
                assert_bitwise_equal(built[name], value)
            ops, refs = asm._load_operators(k), coo_load_operators(asm, k)
            for op, ref in zip(ops, refs):
                op = op.tocsr()
                for part in ("data", "indices", "indptr"):
                    a, b = getattr(op, part), getattr(ref, part)
                    assert a.dtype == b.dtype and _same_bits(a, b)
            assert _same_bits(ops[0] @ x, refs[0] @ x)
            assert _same_bits(asm.source_load(k, g), k * (refs[0] @ g_vals))
    for sigma_coeffs in (sigma, None):
        blocked = field_error_norms(*fields, u, sigma_coeffs, m, dm)
        assert blocked == whole_mesh_error_norms(*fields, u, sigma_coeffs, m, dm)


@pytest.mark.parametrize("variant", list(ProblemVariant))
@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("block_elements", [7, 1000])
def test_block_size_changes_no_bit(
    mesh_chain, dofmaps, variant, level, block_elements, monkeypatch
):
    """Blocks of any size, a partial last one included, give the arrays
    of one whole-mesh block bitwise, and no table outlives its call."""
    m, dm = mesh_chain[level], dofmaps[level]
    monkeypatch.setattr(forms, "BLOCK_ELEMENTS", m.num_triangles)
    whole = every_form(FormAssembler(m, dm, variable_coefficients(), variant), variant)

    monkeypatch.setattr(forms, "BLOCK_ELEMENTS", block_elements)
    tables = []
    build = forms._RuleTables.__init__

    def tracked(self, *args):
        build(self, *args)
        tables.append(weakref.ref(self))

    monkeypatch.setattr(forms._RuleTables, "__init__", tracked)
    asm = FormAssembler(m, dm, variable_coefficients(), variant)
    fresh = dict(vars(asm))
    blocked = every_form(asm, variant)

    for name, value in whole.items():
        assert_bitwise_equal(blocked[name], value)
    assert len(tables) > 0 and all(ref() is None for ref in tables)
    rebound = {name for name, value in vars(asm).items() if fresh.get(name) is not value}
    assert rebound == {"_load_ops", "_data_points"}


def _einsum_operands(rng, n_e, n_q, flux):
    """Random element-last w, a, and a slot-strided b of a block."""
    tail = (2,) if flux else ()
    w = rng.random((n_q, n_e))
    a = rng.standard_normal((n_q, 6) + tail + (n_e,))
    b = rng.standard_normal((n_q, 12) + tail + (n_e,))[:, ::2]
    return w, a, b


def _padded(a):
    """a on the first three of six slots, zero on the rest."""
    out = np.zeros(a.shape[:1] + (6,) + a.shape[2:])
    out[:, :3] = a
    return out


@pytest.mark.parametrize("n_e", [1, 7, 1024])
@pytest.mark.parametrize("n_q", [6, 12])
@pytest.mark.parametrize("flux", [False, True])
def test_quad_matrix_equals_einsum(n_e, n_q, flux):
    """The kernel on element-last tables is einsum on element-first copies."""
    w, a, b = _einsum_operands(np.random.default_rng(n_e + n_q), n_e, n_q, flux)
    spec = "eq,eqix,eqjx->eij" if flux else "eq,eqi,eqj->eij"
    ef = _element_first
    u = a[:, :3]
    for args, slots in (((a, b), None), ((b, b), None), ((u, u), (6, 6)),
                        ((u, b), (6, 6)), ((b, u), (6, 6))):
        full = [ef(_padded(arg) if arg is u else arg) for arg in args]
        assert _same_bits(ef(forms._quad_matrix(w, *args, slots)), np.einsum(spec, ef(w), *full))
    if flux:  # a table broadcast over the points, as the P1 gradients
        grads = np.broadcast_to(a[:1, :3], (n_q, 3, 2, n_e))
        full = ef(grads)
        assert _same_bits(
            ef(forms._quad_matrix(w, grads, grads)), np.einsum(spec, ef(w), full, full)
        )


@pytest.mark.parametrize("n_e", [1, 7, 1024])
@pytest.mark.parametrize("n_q", [6, 12])
@pytest.mark.parametrize("flux", [False, True])
def test_quad_vector_equals_einsum(n_e, n_q, flux):
    rng = np.random.default_rng(n_e * n_q)
    w, a, b = _einsum_operands(rng, n_e, n_q, flux)
    if flux:  # strided views, as the exact residuals
        c = np.moveaxis(rng.standard_normal((2, n_q, n_e)), 0, 1)
    else:
        c = rng.standard_normal((n_q, n_e))
    spec = "eq,eqx,eqix->ei" if flux else "eq,eq,eqi->ei"
    ef = _element_first
    for table in (a, b):
        assert _same_bits(ef(forms._quad_vector(w, c, table)), np.einsum(spec, ef(w), ef(c), ef(table)))
    u = a[:, :3]
    assert _same_bits(
        ef(forms._quad_vector(w, c, u, 6)), np.einsum(spec, ef(w), ef(c), ef(_padded(u)))
    )


@pytest.mark.parametrize("variant", list(ProblemVariant))
@pytest.mark.parametrize("k", [1e-6, 0.1])
def test_forms_equal_einsum_oracle(mesh_chain, dofmaps, variant, k):
    """The quadrature kernels sum in einsum's order: every contracted form
    equals the one-einsum-per-term oracle bitwise."""
    m, dm = mesh_chain[3], dofmaps[3]
    asm = FormAssembler(m, dm, variable_coefficients(), variant)
    fields = decaying_sine_problem(variant).fields_at(0.1)
    oracle = einsum_forms(asm, k, fields)
    assert_bitwise_equal(asm.total_matrix(k), oracle["total"])
    assert_bitwise_equal(asm.nonsymmetric_matrix(k), oracle["nonsymmetric"])
    assert_bitwise_equal(asm.natural_gram(k), oracle["gram"])
    assert_bitwise_equal(asm.nonsymmetric_load_from_fields(k, *fields), oracle["field load"])


def _poisoned(coeffs, name, point, value):
    """coeffs with every component of the named coefficient set to value at one point."""
    field = getattr(coeffs, name)

    def fn(x, y):
        out = np.array(field(x, y), dtype=float)
        out[..., (x == point[0]) & (y == point[1])] = value
        return out

    return dataclasses.replace(coeffs, **{name: fn})


@pytest.mark.parametrize(
    "name, value", [("A", np.nan), ("beta", np.nan), ("div_beta", np.inf), ("gamma", np.nan)]
)
def test_non_finite_coefficient_named(mesh_chain, dofmaps, name, value):
    """A non-finite coefficient fails where it is evaluated, naming itself
    and the point, before any arithmetic could warn about it."""
    m, dm = mesh_chain[2], dofmaps[2]
    x0, y0 = rule_points(m, forms.MATRIX_DEGREE)[5, 2]
    coeffs = _poisoned(variable_coefficients(), name, (x0, y0), value)
    asm = FormAssembler(m, dm, coeffs, "primary")
    point = re.escape(f"({x0:.6g}, {y0:.6g})")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CoefficientError, match=f"coefficient {name} is not finite at point {point}"):
            asm.total_matrix(0.1)


@pytest.mark.parametrize("name", ["beta", "gamma"])
def test_non_finite_coefficient_named_by_load(mesh_chain, dofmaps, name):
    m, dm = mesh_chain[2], dofmaps[2]
    points = rule_points(m, forms.DATA_DEGREE)
    coeffs = _poisoned(variable_coefficients(), name, points[9, 4], np.nan)
    coeffs = _poisoned(coeffs, name, points[30, 1], -np.inf)
    asm = FormAssembler(m, dm, coeffs, "alternative")
    point = re.escape("({:.6g}, {:.6g})".format(*points[9, 4]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CoefficientError, match=f"{name} is not finite at point {point}: value nan"):
            asm.load_vector(0.1, f=None, w=np.ones(dm.n_u))


@pytest.mark.parametrize("variant", list(ProblemVariant))
def test_lsq_indicators_sum_to_functional(mesh_chain, dofmaps, variant, rng):
    m, dm = mesh_chain[2], dofmaps[2]
    asm = FormAssembler(m, dm, variable_coefficients(), variant)
    u, sigma, w = (rng.standard_normal(n) for n in (dm.n_u, dm.n_sigma, dm.n_u))

    def g(x, y):
        return np.sin(np.pi * x) * y

    total = asm.lsq_functional(0.05, u, sigma, g=g, w=w)
    indicators = asm.lsq_indicators(0.05, u, sigma, g=g, w=w)
    assert indicators.shape == (m.num_triangles,)
    assert np.all(indicators >= 0.0)
    assert abs(indicators.sum() - total) <= 1e-12 * total
