"""Pointwise 2x2 kernels for the Pauli matrices on spinor arrays (..., 2).

Every Pauli matrix is diagonal or anti-diagonal, so ``sigma v`` and
``u^dagger sigma v`` need two products per point, written out on
``v[..., 0]`` and ``v[..., 1]``.  ``v @ sigma.T`` and an ``einsum`` with an
inner size of 2 spend their time on dispatch and on the zero entries.  The
kernels read the entries of the matrix they are given, so any complex 2x2
matrix works; a matrix with no zero entry costs four products.  For entries
0, +-1 and +-i, ``apply`` reproduces ``v @ sigma.T`` exactly, and
``contract`` agrees with the ``einsum`` to a unit or two in the last place.

The module imports nothing from the package, so the time spent here counts
toward the calling module's own.
"""

from __future__ import annotations

import numpy as np


def _scaled(c: complex, z: np.ndarray) -> np.ndarray:
    """c z, without a pass for c = 1; may return z itself."""
    if c == 1:
        return z
    if c == -1:
        return -z
    return c * z


def _pair(a: complex, x: np.ndarray, b: complex, y: np.ndarray) -> np.ndarray:
    """a x + b y, with a single scaling pass when b = +-a."""
    if b == a:
        return _scaled(a, x + y)
    if b == -a:
        return _scaled(a, x - y)
    return a * x + b * y


def components(sig: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma v)[..., 0] and (sigma v)[..., 1]; either may be a view of v."""
    s00, s01, s10, s11 = np.ravel(sig).tolist()
    v0, v1 = v[..., 0], v[..., 1]
    if s01 == 0 and s10 == 0:
        return _scaled(s00, v0), _scaled(s11, v1)
    if s00 == 0 and s11 == 0:
        return _scaled(s01, v1), _scaled(s10, v0)
    return s00 * v0 + s01 * v1, s10 * v0 + s11 * v1


def component_major(v: np.ndarray) -> np.ndarray:
    """A copy of the spinor array v (..., 2), same shape, whose two
    component slices ``v[..., 0]`` and ``v[..., 1]`` are each contiguous.

    A bundle stores the two components of a point next to each other, so a
    component strides through memory and a product on it costs several
    times one on a contiguous array.  A kernel that reads each component
    more than once copies it into this layout once; values and results do
    not change.
    """
    return np.moveaxis(np.moveaxis(v, -1, 0).copy(), 0, -1)


def apply(sig: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sigma v pointwise, shape (..., 2): v @ sigma.T."""
    return np.stack(components(sig, v), axis=-1)


def contract(sig: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^dagger sigma v pointwise: einsum("...a,ab,...b->...", conj(u), sigma, v)."""
    s00, s01, s10, s11 = np.ravel(sig).tolist()
    c0, c1 = np.conj(u[..., 0]), np.conj(u[..., 1])
    v0, v1 = v[..., 0], v[..., 1]
    if s01 == 0 and s10 == 0:
        return _pair(s00, c0 * v0, s11, c1 * v1)
    if s00 == 0 and s11 == 0:
        return _pair(s01, c0 * v1, s10, c1 * v0)
    return c0 * (s00 * v0 + s01 * v1) + c1 * (s10 * v0 + s11 * v1)
