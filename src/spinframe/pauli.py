"""Pointwise 2x2 kernels for the Pauli matrices on spinor arrays (..., 2),
and the grid-minor allocator the bundle producers fill.

Every Pauli matrix is diagonal or anti-diagonal, with nonzero entries a and
b = +-a, so ``sigma v`` and ``u^dagger sigma v`` need two products per
point, written out on ``v[..., 0]`` and ``v[..., 1]``.  ``v @ sigma.T`` and
an ``einsum`` with an inner size of 2 spend their time on dispatch and on
the zero entries.  The kernels raise ConfigInvalid for a matrix of any
other pattern.  For entries 0, +-1 and +-i, ``apply`` reproduces
``v @ sigma.T`` exactly, and ``contract`` agrees with the ``einsum`` to a
unit or two in the last place.  ``contract`` allocates two arrays of one
component's size: each product ``conj(u_a) v_b`` is built in place, and the
sum and the scaling by a happen in the first of them.

The kernels accept any memory layout.  They are fastest on the grid-minor
layout of ``grid_minor``, where each component slice ``v[..., k]`` is one
contiguous block; a spinor stored with its two components next to each
other makes every component read stride through memory.

The module imports only its error from the package and is no layer of its
own, so the time spent here counts toward the calling module's own.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigInvalid


def _scaled(c: complex, z: np.ndarray) -> np.ndarray:
    """c z, without a pass for c = 1; may return z itself."""
    if c == 1:
        return z
    if c == -1:
        # numpy's complex negative is several times slower than a product
        return -1.0 * z
    return c * z


def _scale_into(c: complex, z: np.ndarray) -> None:
    """z *= c, without a pass for c = 1."""
    if c == -1:
        # numpy's complex negative is several times slower than a product
        z *= -1.0
    elif c != 1:
        z *= c


def _conj_times(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """conj(u) v, in the one new buffer that holds conj(u)."""
    out = np.conjugate(u, dtype=np.result_type(u, v))
    out *= v
    return out


def components(sig: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma v)[..., 0] and (sigma v)[..., 1]; either may be a view of v."""
    s00, s01, s10, s11 = np.ravel(sig).tolist()
    v0, v1 = v[..., 0], v[..., 1]
    if s01 == 0 and s10 == 0 and s11 in (s00, -s00):
        return _scaled(s00, v0), _scaled(s11, v1)
    if s00 == 0 and s11 == 0 and s10 in (s01, -s01):
        return _scaled(s01, v1), _scaled(s10, v0)
    raise ConfigInvalid(f"not a Pauli matrix pattern: {(s00, s01, s10, s11)}")


def grid_minor(shape, dims: int, dtype=complex) -> np.ndarray:
    """An uninitialised array of logical shape ``shape`` = (*grid, *tail),
    with the ``dims`` grid axes innermost in memory.

    It is a ``np.moveaxis`` view of a C-ordered (*tail, *grid) buffer, so
    every slice ``a[..., j, k]`` that fixes all tail indices is one
    contiguous block.  Bundles, derivative stacks and sampled covectors are
    built this way.
    """
    shape = tuple(shape)
    tail = shape[dims:]
    buf = np.empty(tail + shape[:dims], dtype=dtype)
    return np.moveaxis(buf, tuple(range(len(tail))), tuple(range(dims, len(shape))))


def apply(sig: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sigma v pointwise, shape (..., 2): v @ sigma.T."""
    return np.stack(components(sig, v), axis=-1)


def contract(sig: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^dagger sigma v pointwise: einsum("...a,ab,...b->...", conj(u), sigma, v)."""
    s00, s01, s10, s11 = sig.ravel().tolist()
    u0, u1 = u[..., 0], u[..., 1]
    v0, v1 = v[..., 0], v[..., 1]
    if s01 == 0 and s10 == 0 and s11 in (s00, -s00):
        a, x, b, y = s00, _conj_times(u0, v0), s11, _conj_times(u1, v1)
    elif s00 == 0 and s11 == 0 and s10 in (s01, -s01):
        a, x, b, y = s01, _conj_times(u0, v1), s10, _conj_times(u1, v0)
    else:
        raise ConfigInvalid(f"not a Pauli matrix pattern: {(s00, s01, s10, s11)}")
    # a x + b y = a (x +- y), with a single scaling pass
    if b == a:
        x += y
    else:
        x -= y
    _scale_into(a, x)
    return x
