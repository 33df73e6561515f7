"""Axial torsion and the x3-rotation covector, by two independent routes.

The spinor-route formulas are the primary ones; the coframe route (wedge of
the coframe with its exterior derivative) exists as an independent oracle.
All starred quantities are real: the spinor route takes the real or
imaginary part of each contraction by its formula, and the coframe route is
real throughout.

What each route holds besides its input:

* The spinor route (``spinor_contractions``) keeps only the imaginary parts
  it reads, as float arrays.  Each contraction passes through one complex
  buffer of one component's size and one float pair sum, and rho is read
  after the products.  Next to a 3D bundle it holds Im z, the pair sum and
  the buffer, then Im z, rho, t and the quotient's temporaries: one, or two
  on arrays under 256 KiB, where numpy elides none.
* The coframe route (``axial_torsion_coframe``) sums over the frame rows one
  at a time.  Row j's 2-form d theta^j is built from one component's
  gradient at a time (``CoframeBundle.row_differential``), so next to theta
  it holds the caller's t, the running total, d theta^j and one component
  gradient; ``dual_axial_torsion_coframe`` then writes the scalar into one
  more array.  On a 4D grid the same three rows give the extended torsion
  T_ext^ax of the Kaluza-Klein step: the appended row theta^3 = dx^3 is
  constant, so its term vanishes and no extended coframe is built.

torsion-routes' refinement (``suites._routes_rms``) runs both routes on 8
x0-planes at a time, with one halo plane on either side, so at 64^3 each
array above spans 8 or 10 of the 64 planes: the refinement peaks near a
quarter of the 64^3 spinor bundle, the block's bundle and the grid's
difference included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import O3, SIGMA_LOWER, SIGMA_UPPER, coframe_map
from .errors import InvalidGrid, require_choice, require_density, require_finite
from .pauli import contract, grid_minor
from .grids import (
    CoframeBundle,
    LatticeField,
    ModelParams,
    SpinorBundle,
    hodge_dual,
    lorentz_dot,
    wedge,
)


@dataclass
class SpinorContractions:
    """The imaginary parts of the spinor-route contractions of one bundle,
    the only parts that t, u and ``lagrangians.lagrangian_4d`` read, as
    float arrays.

    With D_alpha = d_alpha + (A_alpha / m) d_3 (plain d_alpha when no
    params are given; see ``mixed_derivative``):

    * z = Im(xi^dag sigma^alpha D_alpha xi) and t = *T^ax = 4 z / (3 rho);
    * on a 4D bundle, y_alpha = Im(xi^dag sigma_alpha d_3 xi) and
      u_alpha = (*D_3 theta)_alpha = -4 y_alpha / (3 rho); both are None
      on a 3D bundle.

    u is grid-minor (``pauli.grid_minor``): each component ``u[..., alpha]``
    is one contiguous block, written in place by its division.
    """

    rho: np.ndarray
    z: np.ndarray
    t: np.ndarray
    y: tuple[np.ndarray, ...] | None
    u: np.ndarray | None


def mixed_derivative(b: SpinorBundle, params: ModelParams | None, alpha: int) -> np.ndarray:
    """D_alpha xi = d_alpha xi + (A_alpha / m) d_3 xi, shape (*n, 2).

    Without params, or where A_alpha is zero on the whole grid, this is the
    stored d_alpha xi itself (a view, no product is formed).
    """
    d = b.derivs[..., alpha, :]
    if params is not None and np.any(params.A[..., alpha]):
        d = d + (params.A[..., alpha] / params.m)[..., None] * b.derivs[..., 3, :]
    return d


def _imag_contraction(sig: np.ndarray, xi: np.ndarray, v: np.ndarray,
                      buf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Im(xi^dag sigma v) into the float array ``out``, for a Pauli matrix
    sigma^alpha or sigma_alpha (alpha < 3), through the complex buffer buf.

    ``pauli.contract`` forms this contraction as a (p +- q), where a and
    b = +-a are the two nonzero entries of sigma, each one of +-1 and +-i,
    p = conj(xi_0) v_l and q = conj(xi_1) v_(1-l).  Here buf holds p, then
    q, each computed as ``pauli`` computes it (conjugate, then product in
    place).  Im(a w) is +-Im w for a = +-1 and +-Re w for a = +-i, so the
    sign of a is folded into the copy of p's part and into the add or
    subtract of q's.  Each step is exact, so out is bit-identical to the
    imaginary part of ``contract(sigma, xi, v)``.
    """
    s00, s01, s10, s11 = sig.ravel().tolist()
    a, b_, l = (s00, s11, 0) if s01 == 0 and s10 == 0 else (s01, s10, 1)
    positive = a.real + a.imag > 0
    part = "imag" if a.imag == 0 else "real"
    np.conjugate(xi[..., 0], out=buf)
    buf *= v[..., l]
    if positive:
        np.copyto(out, getattr(buf, part))
    else:
        np.negative(getattr(buf, part), out=out)
    np.conjugate(xi[..., 1], out=buf)
    buf *= v[..., 1 - l]
    if (b_ == a) == positive:
        out += getattr(buf, part)
    else:
        out -= getattr(buf, part)
    return out


def spinor_contractions(b: SpinorBundle, params: ModelParams | None = None) -> SpinorContractions:
    """Every spinor-route contraction of one bundle, in one pass.

    Always gives rho, z and t; a 4D bundle also gives y and u.  Passing
    params mixes A into D_alpha, which only a 4D bundle accepts (InvalidGrid
    otherwise).  A t or u that is not finite everywhere raises
    NonFiniteTorsion.  ``axial_torsion_spinor``, ``kk_decomposition_check``,
    ``lagrangian_4d`` and ``field_equation_residual_4d`` all read from here.

    Each alpha's imaginary part is one ``_imag_contraction`` through one
    reused complex buffer: alpha = 0 is written into z itself, and alphas 1
    and 2 into one float pair sum that is then added to z, in order.  Each
    y_alpha is written into its own array.  Imaginary parts of sums are
    sums of imaginary parts, so t and u are bit-identical to the complex
    formulas that tests/test_contractions.py keeps as its reference.  The
    buffers are freed before rho is read, and the density is read once.
    On a grid-minor bundle (``SpinorBundle``) every read is contiguous; any
    other layout gives the same numbers, only slower.
    """
    dims = b.spec.dims
    if params is not None and dims != 4:
        raise InvalidGrid("A mixing needs a 4D bundle")
    values = b.values
    shape = values.shape[:-1]
    buf = np.empty(shape, complex)
    z, pair = np.empty(shape), np.empty(shape)
    for alpha in range(3):
        d = mixed_derivative(b, params, alpha)
        if alpha == 0:
            _imag_contraction(SIGMA_UPPER[alpha], values, d, buf, z)
        else:
            z += _imag_contraction(SIGMA_UPPER[alpha], values, d, buf, pair)
        del d
    del pair
    y = None
    if dims == 4:
        d3 = b.derivs[..., 3, :]
        y = tuple(_imag_contraction(SIGMA_LOWER[alpha], values, d3, buf, np.empty(shape))
                  for alpha in range(3))
    del buf
    rho = b.rho
    require_density(rho, positive=False)
    t = 4.0 * z / (3.0 * rho)
    require_finite(t, "axial torsion t")
    u = None
    if dims == 4:
        u = grid_minor(shape + (3,), dims, float)
        three_rho = 3.0 * rho
        for alpha, y_alpha in enumerate(y):
            np.divide(-4.0 * y_alpha, three_rho, out=u[..., alpha])
        require_finite(u, "x3-rotation covector u")
    return SpinorContractions(rho, z, t, y, u)


def axial_torsion_spinor(b: SpinorBundle) -> np.ndarray:
    """Hodge-dualized axial torsion from the spinor field (xi form):
    *T^ax = 4 Im(xi^dag sigma^alpha d_alpha xi) / (3 rho), computed in
    ``spinor_contractions``.  A caller that mixes in A reads
    ``spinor_contractions(b, params).t``.
    """
    return spinor_contractions(b).t


def dirac_term(b: SpinorBundle, params: ModelParams, r: int, alpha: int) -> np.ndarray:
    """eta^dag sigma^alpha (i d + r A)_alpha eta for one alpha (complex); the
    sum over alpha, ``lagrangians.dirac_contraction``, is the w of the Dirac
    Lagrangian and the reduced torsion.

    The sign r must be +1 or -1 (UnknownOption otherwise).  For r = -1 the
    product A_alpha eta is subtracted; since (-a) v = -(a v) exactly, this is
    bit-identical to adding (r A_alpha) eta.  Where A_alpha is zero on the
    whole grid, the contraction of d_alpha eta is multiplied by i in place;
    a product by i only swaps and negates parts, so this is bit-identical to
    contracting a copy i d_alpha eta.
    """
    require_choice("r", r, (1, -1))
    d = b.derivs[..., alpha, :]
    a = params.A[..., alpha]
    if a.any():
        op = 1j * d
        a_eta = a[..., None] * b.values
        if r == 1:
            op += a_eta
        else:
            op -= a_eta
        return contract(SIGMA_UPPER[alpha], b.values, op)
    w = contract(SIGMA_UPPER[alpha], b.values, d)
    w *= 1j
    return w


def reduced_axial_torsion(b: SpinorBundle, re_w: np.ndarray) -> np.ndarray:
    """*T_{Ar}^ax = -(4 / 3 rho) Re w, w = eta^dag sigma^alpha (i d + r A)_alpha eta;
    a t that is not finite everywhere raises NonFiniteTorsion.

    re_w is Re w for this bundle, the sign r and the params, as
    ``lagrangians.dirac_contraction`` gives it; the density is read here.
    """
    rho = b.rho
    require_density(rho)
    t = -4.0 * re_w / (3.0 * rho)
    require_finite(t, "reduced axial torsion t")
    return t


def _row_forms(cb: CoframeBundle, j: int) -> tuple[LatticeField, LatticeField]:
    """The 1-form theta^j and the 2-form d theta^j of frame row j, both
    grid-minor; d theta^j is ``CoframeBundle.row_differential``'s.

    On a 4D grid theta^j_3 = 0, so the row is padded with that zero.
    """
    spec = cb.spec
    row = cb.theta[..., j, :]
    k = row.shape[-1]
    if k < spec.dims:
        padded = grid_minor(spec.extents + (spec.dims,), spec.dims, float)
        padded[..., :k] = row
        padded[..., k:] = 0.0
        row = padded
    return LatticeField(spec, 1, row), cb.row_differential(j)


def axial_torsion_coframe(cb: CoframeBundle) -> LatticeField:
    """T^ax = (1/3) o_jj theta^j wedge d theta^j, from coframe derivatives.

    The sum runs over the three frame rows, one row at a time: each row's
    2-form d theta^j is built (``CoframeBundle.row_differential``), wedged
    and added in, and dropped before the next row.  o = diag(-1, 1, 1).  On
    a 4D grid this is T_ext^ax: the appended row theta^3 = dx^3 is constant,
    so its term is exactly zero and is not computed.  theta is not verified
    here: the coframe suite runs ``algebra.verify_coframe`` itself.
    """
    total = None
    for j in range(3):
        term = wedge(*_row_forms(cb, j))
        term.values *= O3[j] / 3.0
        if total is None:
            total = term
        else:
            total.values += term.values
        del term
    return total


def dual_axial_torsion_coframe(cb: CoframeBundle) -> np.ndarray:
    """The coframe route's scalar *T^ax, the Hodge dual of
    ``axial_torsion_coframe``; the spinor route's is ``axial_torsion_spinor``."""
    return hodge_dual(axial_torsion_coframe(cb)).values


def spinor_vs_coframe_residual(t_spinor: np.ndarray, cb: CoframeBundle) -> float:
    """Largest mismatch over the grid between the two torsion routes (scalar
    *T^ax): t_spinor from ``axial_torsion_spinor`` against
    ``dual_axial_torsion_coframe`` of cb.

    The caller takes the spinor route first, so that the spinor bundle's
    derivative stack can be released before the coframe is built: the
    coframe route reads only theta and one component gradient at a time.
    """
    return float(np.max(np.abs(t_spinor - dual_axial_torsion_coframe(cb))))


# ---------------------------------------------------------------------------
# Kaluza-Klein decomposition
# ---------------------------------------------------------------------------


@dataclass
class KKReport:
    lhs_norm_sq: np.ndarray    # ||T_ext^ax||^2, 4D coframe route
    rhs_norm_sq: np.ndarray    # ||T^ax||^2 + ||D_3 theta||^2, spinor route
    max_residual: float


def kk_decomposition_check(b: SpinorBundle, coframe_derivs: str) -> KKReport:
    """||T_ext^ax||^2 (4D coframe route) vs ||T^ax||^2 + ||D_3 theta||^2.

    The right-hand side uses the spinor-route scalars; since ||*R||^2 =
    -||R||^2 in signature -++, it reads -(*T)^2 - ||*D_3 theta||^2.  The
    left-hand side is ``axial_torsion_coframe`` of the three coframe rows on
    the 4D grid, which is T_ext^ax (the appended row theta^3 = dx^3 adds
    nothing).  With coframe_derivs="chain" the component gradients are
    those of the spinor -> coframe map in closed form (analytic agreement),
    sliced from one ``_coframe_chain_derivs`` stack; with "grid" each
    component of the sampled coframe is differentiated by the order-2
    stencil when it is read, making the routes fully independent at the
    cost of an O(h^2) chain-rule mismatch.  Either way the rows' 2-forms
    are antisymmetrised by ``CoframeBundle.row_differential``.
    """
    require_choice("coframe_derivs", coframe_derivs, ("chain", "grid"))
    if b.spec.dims != 4:
        raise InvalidGrid("kk check needs a 4D bundle")
    theta, rho = coframe_map(b.values)
    require_density(rho, positive=False)
    if coframe_derivs == "chain":
        dtheta = _coframe_chain_derivs(b, theta, rho)
        cb = CoframeBundle(b.spec, theta, lambda j, p: dtheta[..., j, p])
    else:
        cb = CoframeBundle.from_grid(b.spec, theta, "stencil")
    t_ext = axial_torsion_coframe(cb)
    lhs = lorentz_dot(t_ext, t_ext).values
    del t_ext
    c = spinor_contractions(b)
    t, u = c.t, c.u
    # Im z, Im y and rho are not read below; release them before the norm
    # arithmetic allocates
    del c
    u_norm = np.einsum("...a,a,...a->...", u, np.array([-1.0, 1.0, 1.0]), u)
    rhs = -(t ** 2) - u_norm
    return KKReport(lhs, rhs, float(np.max(np.abs(lhs - rhs))))


def _coframe_chain_derivs(b: SpinorBundle, theta: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """d_a theta^j_alpha, grid-minor (*n, dims, 3, 3), by differentiating
    the spinor -> coframe map in closed form, every axis in each ufunc call.
    ``out[..., j, alpha]`` is the (*n, dims) gradient of one component.

    theta^0_alpha = Re(xi^dag sigma_alpha xi) / rho and theta^1_alpha +
    i theta^2_alpha = xi^T J sigma_alpha xi / rho with J = sigma_1.  Since
    sigma_alpha is Hermitian, d Re(xi^dag sigma_alpha xi) = 2 Re(xi^dag
    sigma_alpha d xi); since J sigma_alpha is symmetric for alpha = 0, 1, 2,
    d(xi^T J sigma_alpha xi) = 2 xi^T J sigma_alpha d xi; and d rho =
    2 Re(xi^dag sigma_3 d xi).  With n' half the derivative of a numerator
    and h = d rho / 2, d theta = 2 (n' - theta h) / rho reuses the theta and
    rho of ``coframe_map``.  Each n' and h is a real or imaginary part of
    p + q or p - q for one of four pairs (p, q) of products of d xi with xi
    or conj(xi); the pairs share two buffers.
    """
    dims = b.spec.dims
    x0, x1 = b.values[..., 0], b.values[..., 1]
    c0, c1 = np.conj(x0), np.conj(x1)
    # axis first: dx0[a] = d_a xi_0 is one contiguous block on a grid-minor
    # bundle, and xi broadcasts over the axes
    dx0, dx1 = (np.moveaxis(b.derivs[..., k], dims, 0) for k in range(2))
    out = grid_minor(b.spec.extents + (dims, 3, 3), dims, float)
    o = np.moveaxis(out, (dims, dims + 1, dims + 2), (0, 1, 2))
    p, q = np.empty(dx0.shape, complex), np.empty(dx0.shape, complex)
    pr, pi, qr, qi = p.real, p.imag, q.real, q.imag
    h = np.empty(dx0.shape)
    # conj(xi_k) d xi_k: theta^0_0 and h
    np.multiply(dx0, c0, out=p)
    np.multiply(dx1, c1, out=q)
    np.add(pr, qr, out=o[:, 0, 0])
    np.subtract(pr, qr, out=h)
    # conj(xi_1) d xi_0 and conj(xi_0) d xi_1: theta^0_1 and theta^0_2
    np.multiply(dx0, c1, out=p)
    np.multiply(dx1, c0, out=q)
    np.add(pr, qr, out=o[:, 0, 1])
    np.subtract(qi, pi, out=o[:, 0, 2])
    # xi_k d xi_k: w_1 = xi_0^2 + xi_1^2 and w_2 = i (xi_0^2 - xi_1^2)
    np.multiply(dx0, x0, out=p)
    np.multiply(dx1, x1, out=q)
    np.add(pr, qr, out=o[:, 1, 1])
    np.add(pi, qi, out=o[:, 2, 1])
    np.subtract(qi, pi, out=o[:, 1, 2])
    np.subtract(pr, qr, out=o[:, 2, 2])
    # xi_0 d xi_1 and xi_1 d xi_0: w_0 = 2 xi_0 xi_1
    np.multiply(dx1, x0, out=p)
    np.multiply(dx0, x1, out=q)
    np.add(pr, qr, out=o[:, 1, 0])
    np.add(pi, qi, out=o[:, 2, 0])
    # n' - theta h, entry by entry over all axes; then 2 / rho on the whole
    for j in range(3):
        for alpha in range(3):
            np.multiply(h, theta[..., j, alpha], out=pr)
            o[:, j, alpha] -= pr
    o *= 2.0 / rho
    return out
