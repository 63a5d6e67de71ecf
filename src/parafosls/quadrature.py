"""Symmetric Gaussian quadrature rules on the reference triangle.

Points are stored as barycentric triples, weights sum to 1/2 (the area
of the reference triangle), and all weights are positive. To integrate
over a physical triangle, evaluate at the mapped points and multiply
the weighted sum by twice the triangle area.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature rule in barycentric form.

    points : (n, 3) array of barycentric coordinates
    weights : (n,) array of positive weights summing to 1/2
    exactness_degree : highest total polynomial degree integrated exactly
    """

    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(c, a, b), (c, b, a), (a, c, b), (b, c, a), (a, b, c), (b, a, c)]


# (degree, [(orbit points, unit-sum weight), ...]); weights are scaled
# by the reference area 1/2 on construction. The forms ask for degrees 4
# and 6 only.
_RULES = {
    4: [
        (_orbit3(0.445948490915965), 0.223381589678011),
        (_orbit3(0.091576213509771), 0.109951743655322),
    ],
    6: [
        (_orbit3(0.063089014491502), 0.050844906370207),
        (_orbit3(0.249286745170910), 0.116786275726379),
        (_orbit6(0.310352451033785, 0.053145049844816), 0.082851075618374),
    ],
}

_AVAILABLE = sorted(_RULES)


def _conical_rule(degree):
    """Conical-product Gauss rule, exact to the given degree.

    Tensorizes Gauss-Jacobi (weight 1-s) with Gauss-Legendre through
    the standard collapsed-square map; weights stay positive and the
    points stay strictly inside the triangle.
    """
    n = (degree + 2) // 2  # 2n-1 >= degree
    sj, wj = roots_jacobi(n, 1.0, 0.0)
    sl, wl = roots_legendre(n)
    # map both 1D rules from [-1, 1] to [0, 1]
    sj, wj = 0.5 * (sj + 1.0), 0.25 * wj  # Jacobi weight absorbs one factor of 1/2
    sl, wl = 0.5 * (sl + 1.0), 0.5 * wl
    x = np.repeat(sj, n)
    y = np.outer(1.0 - sj, sl).ravel()
    w = np.outer(wj, wl).ravel()
    points = np.stack([1.0 - x - y, x, y], axis=1)
    return points, w


def triangle_rule(degree):
    """Return a rule exact for all polynomials of total degree <= degree.

    Supported requests are 1 <= degree <= 10; the returned rule may be
    exact to a higher degree than requested. Degrees up to 4 get the
    tabulated symmetric rule of degree 4 (6 points), 5 and 6 the one of
    degree 6 (12 points), higher degrees a conical product.
    """
    if not 1 <= degree <= 10:
        raise ValueError(f"unsupported quadrature degree {degree} (need 1..10)")
    if degree <= _AVAILABLE[-1]:
        actual = next(d for d in _AVAILABLE if d >= degree)
        pts, wts = [], []
        for orbit, w in _RULES[actual]:
            pts.extend(orbit)
            wts.extend([0.5 * w] * len(orbit))
        points, weights = np.array(pts), np.array(wts)
    else:
        actual = degree
        points, weights = _conical_rule(degree)
    return QuadratureRule(points=points, weights=weights, exactness_degree=actual)
