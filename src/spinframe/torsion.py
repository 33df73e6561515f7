"""Axial torsion and the x3-rotation covector, by two independent routes.

The spinor-route formulas are the primary ones; the coframe route (wedge of
the coframe with its exterior derivative) exists as an independent oracle.
It sums over the frame rows one at a time, each from that row's own
derivatives.  On a 4D grid the same three rows give the extended torsion
T_ext^ax of the Kaluza-Klein step: the appended row theta^3 = dx^3 is
constant, so its term vanishes and no extended coframe is built.  All
starred quantities are real; the imaginary parts are dropped after a
reality check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    O3,
    SIGMA_LOWER,
    SIGMA_UPPER,
    CoframeDensity,
    coframe_map,
    verify_coframe,
)
from .errors import InvalidCoframe, InvalidGrid, require_choice, require_density, require_finite
from .pauli import components, contract
from .grids import (
    CoframeBundle,
    LatticeField,
    ModelParams,
    SpinorBundle,
    form_components,
    form_field,
    hodge_dual,
    norm_squared,
    wedge,
)

_REALITY_TOL = 1e-13


@dataclass
class SpinorContractions:
    """The spinor-route contractions of one bundle, each computed once.

    With D_alpha = d_alpha + (A_alpha / m) d_3 (plain d_alpha when no
    params are given; see ``mixed_derivative``):

    * z = xi^dag sigma^alpha D_alpha xi and t = *T^ax = 4 Im z / (3 rho);
    * on a 4D bundle, y_alpha = xi^dag sigma_alpha d_3 xi and
      u_alpha = (*D_3 theta)_alpha = -4 Im y_alpha / (3 rho); both are None
      on a 3D bundle.
    """

    rho: np.ndarray
    z: np.ndarray
    t: np.ndarray
    y: tuple[np.ndarray, ...] | None = None
    u: np.ndarray | None = None


def mixed_derivative(b: SpinorBundle, params: ModelParams | None, alpha: int) -> np.ndarray:
    """D_alpha xi = d_alpha xi + (A_alpha / m) d_3 xi, shape (*n, 2).

    Without params, or where A_alpha is zero on the whole grid, this is the
    stored d_alpha xi itself (a view, no product is formed).
    """
    d = b.derivs[..., alpha, :]
    if params is not None and np.any(params.A[..., alpha]):
        d = d + (params.A[..., alpha] / params.m)[..., None] * b.derivs[..., 3, :]
    return d


def spinor_contractions(b: SpinorBundle, params: ModelParams | None = None) -> SpinorContractions:
    """Every spinor-route contraction of one bundle, in one pass.

    Always gives rho, z and t; a 4D bundle also gives y and u.  Passing
    params mixes A into D_alpha, which only a 4D bundle accepts (InvalidGrid
    otherwise).  A t or u that is not finite everywhere raises
    NonFiniteTorsion.  ``axial_torsion_spinor``, ``kk_decomposition_check``,
    ``lagrangian_4d`` and ``field_equation_residual_4d`` all read from here.

    The density is read once.  On a grid-minor bundle (``SpinorBundle``)
    every derivative read is contiguous; any other layout gives the same
    numbers, only slower.  z is the sum of one ``pauli.contract`` per alpha,
    taken in order, and each y_alpha is one ``pauli.contract``, so t and u
    are bit-identical to the one-contraction-at-a-time formulas that
    tests/test_contractions.py keeps as its reference.
    """
    dims = b.spec.dims
    if params is not None and dims != 4:
        raise InvalidGrid("A mixing needs a 4D bundle")
    rho = b.rho
    require_density(rho, positive=False)
    z = 0.0
    for alpha in range(3):
        z += contract(SIGMA_UPPER[alpha], b.values, mixed_derivative(b, params, alpha))
    out = SpinorContractions(rho, z, 4.0 * z.imag / (3.0 * rho))
    require_finite(out.t, "axial torsion t")
    if dims == 4:
        d3 = b.derivs[..., 3, :]
        out.y = tuple(contract(SIGMA_LOWER[alpha], b.values, d3) for alpha in range(3))
        out.u = np.stack([-4.0 * y.imag / (3.0 * rho) for y in out.y], axis=-1)
        require_finite(out.u, "x3-rotation covector u")
    return out


def axial_torsion_spinor(b: SpinorBundle, params: ModelParams | None = None) -> np.ndarray:
    """Hodge-dualized axial torsion from the spinor field (xi form).

    Without params this is *T^ax = 4 Im(xi^dag sigma^alpha d_alpha xi) / (3 rho);
    params mix d_alpha -> d_alpha + A_alpha/m * d_3 (4D bundles only).
    The contraction is computed in ``spinor_contractions``.
    """
    return spinor_contractions(b, params).t


def dirac_term(b: SpinorBundle, params: ModelParams, r: int, alpha: int) -> np.ndarray:
    """eta^dag sigma^alpha (i d + r A)_alpha eta for one alpha (complex); the
    sum over alpha is the w of the Dirac Lagrangian and the reduced torsion.

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


def reduced_axial_torsion(b: SpinorBundle, params: ModelParams, r: int,
                          re_w: np.ndarray | None = None) -> np.ndarray:
    """*T_{Ar}^ax = -(4 / 3 rho) Re w, w = eta^dag sigma^alpha (i d + r A)_alpha eta;
    a t that is not finite everywhere raises NonFiniteTorsion.

    w is summed here from one ``dirac_term`` per alpha, unless the caller
    already holds Re w for the same bundle, params and r and passes it as
    re_w (as ``lagrangian_reduced`` and ``dirac_lagrangian`` do).
    """
    rho = b.rho
    require_density(rho)
    if re_w is None:
        w = dirac_term(b, params, r, 0)
        for alpha in (1, 2):
            w += dirac_term(b, params, r, alpha)
        re_w = w.real
    t = -4.0 * re_w / (3.0 * rho)
    require_finite(t, "reduced axial torsion t")
    return t


def _row_forms(cb: CoframeBundle, j: int) -> tuple[LatticeField, LatticeField]:
    """The 1-form theta^j and the 2-form d theta^j of frame row j.

    (d theta^j)_{ab} = d_a theta^j_b - d_b theta^j_a from the bundle's row
    derivatives.  On a 4D grid theta^j_3 = 0, so the row is padded with that
    zero and (d theta^j)_{a3} = -d_3 theta^j_a.
    """
    spec = cb.spec
    row = cb.theta[..., j, :]
    drow = cb.row_derivatives(j)
    k = row.shape[-1]
    if k < spec.dims:
        padded = np.zeros(spec.extents + (spec.dims,))
        padded[..., :k] = row
        row = padded
    comps = form_components(spec.dims, 2)
    vals = np.empty(spec.extents + (len(comps),))
    for i, (a, b_) in enumerate(comps):
        if b_ < k:
            np.subtract(drow[..., a, b_], drow[..., b_, a], out=vals[..., i])
        else:
            np.negative(drow[..., b_, a], out=vals[..., i])
    return form_field(spec, 1, row), form_field(spec, 2, vals)


def axial_torsion_coframe(cb: CoframeBundle, check_tol: float | None = 1e-8) -> LatticeField:
    """T^ax = (1/3) o_jj theta^j wedge d theta^j, from coframe derivatives.

    The sum runs over the three frame rows, one row at a time: each row's
    derivatives are read (``CoframeBundle.row_derivatives``), wedged and
    added in, and dropped before the next row.  o = diag(-1, 1, 1).  On a 4D
    grid this is T_ext^ax: the appended row theta^3 = dx^3 is constant, so
    its term is exactly zero and is not computed.  Unless check_tol is None,
    the coframe is first verified (InvalidCoframe if it is not one).
    """
    if check_tol is not None:
        rho = cb.rho if cb.rho is not None else 1.0
        rep = verify_coframe(CoframeDensity(cb.theta,
                                            float(np.min(rho)) if np.ndim(rho) else rho),
                             check_tol)
        if not rep.passed:
            raise InvalidCoframe(
                f"orthonormality deviation {rep.max_orthonormality_deviation:.3g}, "
                f"det deviation {rep.det_deviation:.3g}, min theta00 {rep.theta00:.3g}"
            )
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


def spinor_vs_coframe_residual(b: SpinorBundle, cb: CoframeBundle,
                               norm: str = "max") -> float:
    """Mismatch between the two torsion routes (scalar *T^ax); norm is
    "max" or "rms" over the grid."""
    require_choice("norm", norm, ("max", "rms"))
    t_spinor = axial_torsion_spinor(b)
    t_coframe = hodge_dual(axial_torsion_coframe(cb, check_tol=None)).values
    diff = t_spinor - t_coframe
    if norm == "rms":
        return float(np.sqrt(np.mean(diff ** 2)))
    return float(np.max(np.abs(diff)))


# ---------------------------------------------------------------------------
# Kaluza-Klein decomposition
# ---------------------------------------------------------------------------


@dataclass
class KKReport:
    lhs_norm_sq: np.ndarray    # ||T_ext^ax||^2, 4D coframe route
    rhs_norm_sq: np.ndarray    # ||T^ax||^2 + ||D_3 theta||^2, spinor route
    max_residual: float


def kk_decomposition_check(b: SpinorBundle, coframe_derivs: str = "chain") -> KKReport:
    """||T_ext^ax||^2 (4D coframe route) vs ||T^ax||^2 + ||D_3 theta||^2.

    The right-hand side uses the spinor-route scalars; since ||*R||^2 =
    -||R||^2 in signature -++, it reads -(*T)^2 - ||*D_3 theta||^2.  The
    left-hand side is ``axial_torsion_coframe`` of the three coframe rows on
    the 4D grid, which is T_ext^ax (the appended row theta^3 = dx^3 adds
    nothing).  With coframe_derivs="chain" the rows' derivatives are those
    of the spinor -> coframe map in closed form (analytic agreement); with
    "grid" each row of the sampled coframe is differentiated by the order-2
    stencil when it is read, making the routes fully independent at the
    cost of an O(h^2) chain-rule mismatch.
    """
    require_choice("coframe_derivs", coframe_derivs, ("chain", "grid"))
    if b.spec.dims != 4:
        raise InvalidGrid("kk check needs a 4D bundle")
    theta, rho = coframe_map(b.values)
    if coframe_derivs == "chain":
        dtheta = _coframe_chain_derivs(b)
        cb = CoframeBundle(b.spec, theta, lambda j: dtheta[..., j, :], rho)
    else:
        cb = CoframeBundle.from_grid(b.spec, theta, rho, "stencil")
    lhs = norm_squared(axial_torsion_coframe(cb, check_tol=None))
    c = spinor_contractions(b)
    t, u = c.t, c.u
    # z, y and rho are not read below; release them before the norm
    # arithmetic allocates
    del c
    u_norm = np.einsum("...a,a,...a->...", u, np.array([-1.0, 1.0, 1.0]), u)
    rhs = -(t ** 2) - u_norm
    return KKReport(lhs, rhs, float(np.max(np.abs(lhs - rhs))))


def _coframe_chain_derivs(b: SpinorBundle) -> np.ndarray:
    """d theta by differentiating the spinor -> coframe map in closed form.

    Uses complex-step-free exact differentiation of the rational map: theta
    is a ratio of sesquilinear forms in xi, so d theta follows from the
    product rule on numerators and rho.
    """
    xi = b.values
    rho = b.rho
    rho2 = rho ** 2
    d = b.spec.dims
    x0, x1 = xi[..., 0], xi[..., 1]
    c0, c1 = np.conj(x0), np.conj(x1)
    # sigma_alpha xi, the numerator of theta^0_alpha and w do not depend on
    # the axis
    svs = [components(SIGMA_LOWER[alpha], xi) for alpha in range(3)]
    num0s = [(c0 * sv0 + c1 * sv1).real for sv0, sv1 in svs]
    ws = [x1 * sv0 + x0 * sv1 for sv0, sv1 in svs]
    out = np.empty(b.spec.extents + (d, 3, 3))
    for axis in range(d):
        dxi = b.derivs[..., axis, :]
        dx0, dx1 = dxi[..., 0], dxi[..., 1]
        dc0, dc1 = np.conj(dx0), np.conj(dx1)
        drho = 2.0 * (c0 * dx0).real - 2.0 * (c1 * dx1).real
        for alpha in range(3):
            sv0, sv1 = svs[alpha]
            dsv0, dsv1 = components(SIGMA_LOWER[alpha], dxi)
            dnum0 = (dc0 * sv0 + dc1 * sv1) + (c0 * dsv0 + c1 * dsv1)
            out[..., axis, 0, alpha] = (dnum0.real * rho - num0s[alpha] * drho) / rho2
            dw = dx1 * sv0 + x1 * dsv0 + dx0 * sv1 + x0 * dsv1
            dval = (dw * rho - ws[alpha] * drho) / rho2
            out[..., axis, 1, alpha] = dval.real
            out[..., axis, 2, alpha] = dval.imag
    return out
