import math

import numpy as np
import pytest
import sympy

from parafosls.quadrature import triangle_rule


def reference_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle.

    Follows from the barycentric formula: the integral of
    lam1^p lam2^q lam3^r over a triangle T equals
    2|T| p! q! r! / (p + q + r + 2)!, with x and y being two of the
    barycentric coordinates on the reference element of area 1/2.
    """
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(1, 11))
def test_weights_positive_and_sum_to_reference_area(degree):
    r = triangle_rule(degree)
    assert np.all(r.weights > 0)
    assert abs(r.weights.sum() - 0.5) <= 1e-14
    assert np.allclose(r.points.sum(axis=1), 1.0)
    assert np.all(r.points > 0)


@pytest.mark.parametrize("degree", range(1, 11))
def test_monomial_exactness(degree):
    r = triangle_rule(degree)
    assert r.exactness_degree >= degree
    x, y = r.points[:, 1], r.points[:, 2]
    for a in range(r.exactness_degree + 1):
        for b in range(r.exactness_degree + 1 - a):
            value = float(np.sum(r.weights * x**a * y**b))
            assert abs(value - reference_integral(a, b)) <= 1e-13


def test_barycentric_product_case():
    # lam1^2 lam2^2 integrates to 2!2!0!/6! = 1/180 on the reference triangle
    r = triangle_rule(4)
    value = float(np.sum(r.weights * r.points[:, 0] ** 2 * r.points[:, 1] ** 2))
    assert abs(value - 1.0 / 180.0) <= 1e-15


def test_constant_integrates_to_reference_area():
    for degree in (1, 4, 6, 10):
        r = triangle_rule(degree)
        assert abs(float(np.sum(r.weights)) - 0.5) <= 1e-14


def test_unsupported_degrees():
    with pytest.raises(ValueError):
        triangle_rule(0)
    with pytest.raises(ValueError):
        triangle_rule(11)


def test_affine_mapping_consistency():
    """Rule times 2|T| on a mapped triangle matches a symbolic integral."""
    p0, p1, p2 = np.array([0.2, 0.1]), np.array([0.9, 0.3]), np.array([0.4, 0.8])
    area = 0.5 * abs(
        (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0])
    )

    s, t = sympy.symbols("s t")
    x_expr = p0[0] + s * (p1[0] - p0[0]) + t * (p2[0] - p0[0])
    y_expr = p0[1] + s * (p1[1] - p0[1]) + t * (p2[1] - p0[1])
    integrand = (x_expr**2 * y_expr + 3 * x_expr * y_expr - y_expr**3) * 2 * area
    exact = float(sympy.integrate(integrand, (s, 0, 1 - t), (t, 0, 1)))

    r = triangle_rule(4)
    pts = r.points @ np.array([p0, p1, p2])
    vals = pts[:, 0] ** 2 * pts[:, 1] + 3 * pts[:, 0] * pts[:, 1] - pts[:, 1] ** 3
    approx = float(np.sum(r.weights * vals)) * 2 * area
    assert abs(approx - exact) <= 1e-13
