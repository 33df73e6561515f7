"""Constant spinor algebra and the pointwise spinor -> (coframe, density) map.

Conventions are frozen once and for all: metric diag(-1,+1,+1), Pauli
matrices with the first index enumerating rows, epsilon = [[0,-1],[1,0]]
for every index placement.  Dotted/undotted index placement never shows up
at runtime; every contraction below is a fixed 2x2 matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import grid_minor

# Minkowski metrics, diagonal entries only.
METRIC3 = np.array([-1.0, 1.0, 1.0])
METRIC4 = np.array([-1.0, 1.0, 1.0, 1.0])

# Frame metric o_jk = o^jk.
O3 = np.array([-1.0, 1.0, 1.0])

# Pauli matrices sigma_alpha (lower index), alpha = 0..3.
SIGMA_LOWER = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# sigma^alpha: index raised with diag(-1,+1,+1); sigma^3 = sigma_3.
SIGMA_UPPER = np.array(
    [-SIGMA_LOWER[0], SIGMA_LOWER[1], SIGMA_LOWER[2], SIGMA_LOWER[3]]
)

SIGMA3 = SIGMA_LOWER[3]


@dataclass(frozen=True)
class CoframeReport:
    """Deviations of a coframe from the kinematic constraints."""

    max_orthonormality_deviation: float
    det_deviation: float
    oriented: bool    # theta^0_0 > 0 and rho > 0 at every point


def coframe_map(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized spinor -> (theta, rho) map on arrays of shape (..., 2).

    Returns (theta, rho) with theta of shape (..., 3, 3), row j the covector
    theta^j: theta^0_alpha = Re(xi^dag sigma_alpha xi) / rho and theta^1_alpha
    + i theta^2_alpha = xi^T sigma_1 sigma_alpha xi / rho.  With x0, x1 the
    two components, all nine entries come from six products and one 1/rho:

        theta^0 = (|x0|^2 + |x1|^2, 2 Re p, 2 Im p) / rho,  p = conj(x0) x1,
        theta^1 + i theta^2 = (2 x0 x1, x0^2 + x1^2, i (x0^2 - x1^2)) / rho.

    Each numerator is written into its entry's slot, the products pass
    through two complex scratch arrays, and one product by 1/rho scales all
    nine.  rho = |x0|^2 - |x1|^2; its sign is the class of the spinor.
    The numerators regroup the products of the per-alpha sigma formula, so
    theta agrees with that formula to a few roundings of theta^0_0, the
    largest entry of a Lorentz matrix.

    theta is grid-minor (``pauli.grid_minor`` over the batch axes): every
    entry slice ``theta[..., j, a]`` is one contiguous block, so each store
    here and each frame row a consumer reads is contiguous.  No density
    check is performed here: where rho = 0, theta is not finite and no
    warning is raised.  Callers check the density
    (``errors.require_density``, or ``verify_coframe``).
    """
    v = np.asarray(xi, dtype=complex)
    x0, x1 = v[..., 0], v[..., 1]
    theta = grid_minor(v.shape[:-1] + (3, 3), v.ndim - 1, float)
    t = [[theta[..., j, alpha] for alpha in range(3)] for j in range(3)]
    # |x0|^2 and |x1|^2 in two entry slots until rho and theta^0_0 are formed
    n0, n1 = np.abs(x0, out=t[0][1]), np.abs(x1, out=t[0][2])
    n0 *= n0
    n1 *= n1
    rho = n0 - n1
    np.add(n0, n1, out=t[0][0])
    p, q = np.empty_like(x0), np.empty_like(x0)
    np.multiply(x0, x0, out=p)
    np.multiply(x1, x1, out=q)
    np.add(p.real, q.real, out=t[1][1])
    np.add(p.imag, q.imag, out=t[2][1])
    np.subtract(q.imag, p.imag, out=t[1][2])
    np.subtract(p.real, q.real, out=t[2][2])
    np.conjugate(x0, out=p)
    p *= x1
    np.multiply(x0, x1, out=q)
    np.add(p.real, p.real, out=t[0][1])
    np.add(p.imag, p.imag, out=t[0][2])
    np.add(q.real, q.real, out=t[1][0])
    np.add(q.imag, q.imag, out=t[2][0])
    # the scratch arrays are not needed for the scaling
    del p, q
    with np.errstate(divide="ignore", invalid="ignore"):
        theta *= np.divide(1.0, rho)[..., None, None]
    return theta, rho


def verify_coframe(theta: np.ndarray, rho) -> CoframeReport:
    """The largest deviations of a coframe (..., 3, 3), row j the covector
    theta^j, from o_jk theta^j theta^k = g and from det = +1, and whether
    theta^0_0 > 0 and rho > 0 at every point; the caller bounds them."""
    theta = np.asarray(theta, dtype=float)
    gram = np.einsum("...ja,j,...jb->...ab", theta, O3, theta)
    dev = float(np.max(np.abs(gram - np.diag(METRIC3))))
    ddet = float(np.max(np.abs(np.linalg.det(theta) - 1.0)))
    oriented = bool(np.all(theta[..., 0, 0] > 0.0) and np.all(np.asarray(rho) > 0.0))
    return CoframeReport(dev, ddet, oriented)

