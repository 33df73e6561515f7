"""Lagrangian densities: rotational-deformation, Dirac, the reduction
lemma's combined density, and the factorization identity connecting them.

Every density is computed in both its spelled-out and compact forms and the
two are cross-asserted pointwise (``errors.require_agreement``); a
disagreement, or a NaN in either form, is a build-breaking bug, not a
tolerance issue.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDenominator, require_agreement, require_density, require_finite
from .grids import LatticeField, ModelParams, SpinorBundle, lorentz_dot, hodge_dual
from .torsion import SpinorContractions, dirac_term, reduced_axial_torsion


def lagrangian_4d(xi: SpinorBundle, contractions: SpinorContractions) -> np.ndarray:
    """Rotational-deformation density for the 4D spinor field.

    Spelled-out form: -(4 / 9 rho) ([i(z - conj z)]^2 + ||i(y - conj y)||^2)
    with z the sigma^alpha contraction of the mixed derivative and y_alpha
    the sigma_alpha contraction of the x3 derivative; i(z - conj z) =
    -2 Im z.  Cross-checked against the norm form (||T_A^ax||^2 +
    ||D_3 theta||^2) rho computed through the lattice form machinery.

    ``contractions`` is ``torsion.spinor_contractions(xi, params)``, with A
    mixed in: Im z, Im y and the torsion scalars t, u, computed once by the
    caller (``field_equation_residual_4d``).
    """
    c = contractions
    rho = c.rho
    sq = (-2.0 * c.z) ** 2
    ynorm = sum(g * (-2.0 * y) ** 2 for g, y in zip((-1.0, 1.0, 1.0), c.y))
    spelled = -(4.0 / (9.0 * rho)) * (sq + ynorm)

    # norm form through the 3-form/2-form machinery (the form component axis
    # is the trailing one, so 4D grids just act as extra batch axes)
    spec3 = xi.spec.spatial
    tform = unhodge_scalar(spec3, c.t)
    uform = unhodge_covector(spec3, c.u)
    compact = (lorentz_dot(tform, tform).values + lorentz_dot(uform, uform).values) * rho
    require_agreement(spelled, compact, "lagrangian_4d")
    return spelled


def unhodge_scalar(spec3, t: np.ndarray):
    """3-form whose Hodge dual is the scalar t; T_{012} = -t since ** = -1."""
    return LatticeField(spec3, 3, np.asarray(-t)[..., None])


def unhodge_covector(spec3, u: np.ndarray):
    """2-form whose Hodge dual is the covector u.

    Double dual on 1-forms is (-1)^{1*2} sign(det g) = -1 in signature -++,
    so the preimage of u under the star is -*u.
    """
    dual = hodge_dual(LatticeField(spec3, 1, u))
    np.negative(dual.values, out=dual.values)
    return dual


def dirac_contraction(eta: SpinorBundle, params: ModelParams, r: int) -> np.ndarray:
    """w = eta^dag sigma^alpha (i d + r A)_alpha eta, pointwise (complex): the
    sum of one ``torsion.dirac_term`` per alpha, and the one place it is
    summed.

    Each density computes w once and reads Re w for both of its forms: the
    spelled one directly, the compact one through ``reduced_axial_torsion``.
    """
    w = dirac_term(eta, params, r, 0)
    for alpha in (1, 2):
        w += dirac_term(eta, params, r, alpha)
    return w


def lagrangian_reduced(eta: SpinorBundle, params: ModelParams, r: int) -> np.ndarray:
    """L_r for the x3-separated field; compact form -((T*)^2 - 16 m^2/9) rho."""
    rho = eta.rho
    require_density(rho)
    re_w = dirac_contraction(eta, params, r).real
    spelled = -(16.0 / (9.0 * rho)) * (re_w ** 2 - (params.m * rho) ** 2)
    t = reduced_axial_torsion(eta, re_w)
    compact = -(t ** 2 - (16.0 / 9.0) * params.m ** 2) * rho
    require_agreement(spelled, compact, "lagrangian_reduced")
    return spelled


def dirac_lagrangian(eta: SpinorBundle, params: ModelParams, r: int, s: int) -> np.ndarray:
    """L_rs = Re(eta^dag sigma^alpha (i d + r A)_alpha eta) + s m rho.

    The compact form (-(3/4) *T_{Ar}^ax + s m) rho is asserted equal unless
    rho <= 0 somewhere; L_rs itself is defined for any eta, so there it is
    only checked to be finite (NonFiniteTorsion otherwise).  A NaN density
    takes the assert's branch, whose torsion raises NonPositiveDensity.
    """
    rho = eta.rho
    re_w = dirac_contraction(eta, params, r).real
    spelled = re_w + s * params.m * rho
    if np.any(rho <= 0.0):
        require_finite(spelled, "Dirac Lagrangian L_rs")
    else:
        t = reduced_axial_torsion(eta, re_w)
        compact = (-0.75 * t + s * params.m) * rho
        require_agreement(spelled, compact, "dirac_lagrangian")
    return spelled


def combine_densities(lp: np.ndarray, lm: np.ndarray) -> np.ndarray:
    """lp lm / (lp - lm), the reduction lemma's combined density.  Any two
    scaling-covariant densities may be fed in, which is what generates the
    hierarchy of reducible equations.  Raises DegenerateDenominator where
    |lp - lm| < 1e-12 max(|lp|, |lm|)."""
    denom = lp - lm
    scale = max(float(np.max(np.abs(lp))), float(np.max(np.abs(lm))), 1e-300)
    if np.any(np.abs(denom) < 1e-12 * scale):
        raise DegenerateDenominator("L_+ - L_- vanishes somewhere on the grid")
    return lp * lm / denom


def factorization_residual(eta: SpinorBundle, params: ModelParams, r: int) -> np.ndarray:
    """Pointwise residual of L_r + (32 m / 9) L_{r+} L_{r-} / (L_{r+} - L_{r-}),
    the combined density of the two Dirac Lagrangians.

    Algebraic identity in (*T, rho, m) once derivative values are fixed, so
    the residual is roundoff-level on any positive-class field.
    """
    require_density(eta.rho)
    lp = dirac_lagrangian(eta, params, r, +1)
    lm = dirac_lagrangian(eta, params, r, -1)
    return lagrangian_reduced(eta, params, r) + (32.0 * params.m / 9.0) * combine_densities(lp, lm)
