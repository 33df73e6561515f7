"""Dirac operators, the explicit nonlinear field equations, discrete
variational derivatives, and the equivalence verdict harness that
Theorem 1 and the reduction lemma share.

The explicit residuals are pure pointwise algebra in the bundle and the
derivatives of the torsion scalars they are handed; they take no
derivative rule.  ``theorem1_check`` and the variational route
differentiate spectrally, and only through ``grids.derivatives``.  The
variational route is an independent oracle: it differentiates the action
numerically and knows nothing about the explicit equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import SIGMA3, SIGMA_UPPER
from .errors import ProbeOutsideInterior, require_choice, require_density, require_shape
from .grids import LatticeSpec, ModelParams, SpinorBundle, derivatives
from .lagrangians import dirac_contraction, dirac_lagrangian, lagrangian_4d, lagrangian_reduced
from .pauli import apply, components, grid_minor
from .torsion import mixed_derivative, reduced_axial_torsion, spinor_contractions


def _first_order_op(eta: SpinorBundle, a, r: int) -> np.ndarray:
    """sigma^alpha (i d + r A)_alpha eta, pointwise, shape (*n, 2)."""
    a = np.asarray(a)
    out = np.zeros_like(eta.values)
    out0, out1 = out[..., 0], out[..., 1]
    for alpha in range(3):
        op = 1j * eta.derivs[..., alpha, :]
        if np.any(a[..., alpha]):
            op += (r * a[..., alpha])[..., None] * eta.values
        op0, op1 = components(SIGMA_UPPER[alpha], op)
        out0 += op0
        out1 += op1
    return out


def dirac_apply(eta: SpinorBundle, params: ModelParams, r: int, s: int) -> np.ndarray:
    """(D_rs eta)_a = sigma^alpha (i d + r A)_alpha eta + s m sigma^3 eta."""
    return _first_order_op(eta, params.A, r) + s * params.m * apply(SIGMA3, eta.values)


def field_equation_residual_reduced(eta: SpinorBundle, params: ModelParams, r: int,
                                    dt: np.ndarray) -> np.ndarray:
    """Explicit residual of the reduced nonlinear field equation, grid-minor
    (*n, 2).

    (4/3)[t P eta + P(t eta)] + (32 m^2/9) sigma^3 eta - (L_r / rho) sigma_3 eta
    with P = sigma^alpha (i d + r A)_alpha and t the reduced axial torsion.
    P(t eta) expands to i sigma^alpha (d_alpha t) eta + t P eta, so only the
    gradient dt of the torsion scalar, shape (*n, 3), is needed: zeros for
    plane waves, or ``derivatives`` of ``reduced_axial_torsion``.  A dt of
    any other shape raises InvalidGrid; any layout of it is read, and
    grid-minor is the fast one.  Since L_r / rho = 16 m^2/9 - t^2, the mass
    terms are (16 m^2/9 + t^2) sigma^3 eta, in t alone.

    Like ``field_equation_residual_4d``, each spinor component j is written
    straight into its slot of the result with two scratch arrays, and no
    Pauli matrix is applied to eta: with k = 1 - j, the sum over alpha of
    (d_alpha t) (sigma^alpha eta)_j is -(d_0 t) eta_j + (d_1 t) eta_k
    -+ i (d_2 t) eta_k, in that order, times i once; then 2 t (P eta)_j is
    added, the whole scaled by 4/3, and the mass term's sigma^3 sign picks
    an addition or a subtraction.  Each product is the one the stacked
    formula rounds, so the result is bit-identical to it.  Products of
    sigma^0 and sigma^2 with eta would be four more grid-sized copies.
    """
    shape = eta.spec.extents
    require_shape(dt, shape + (eta.spec.dims,), "dt")
    t = reduced_axial_torsion(eta, dirac_contraction(eta, params, r).real)
    p_eta = _first_order_op(eta, params.A, r)
    x = eta.values[..., 0], eta.values[..., 1]
    two_t = 2.0 * t
    mass = 16.0 * params.m ** 2 / 9.0 + t ** 2
    res = grid_minor(shape + (2,), len(shape))
    out, term = np.empty(shape, complex), np.empty(shape, complex)
    for j, i_sign in ((0, -1j), (1, 1j)):
        other = 1 - j
        # sigma^0 = -1, sigma^1 swaps the components, sigma^2 swaps them
        # times -+i
        np.multiply(dt[..., 0], x[j], out=out)
        out *= -1.0
        np.multiply(dt[..., 1], x[other], out=term)
        out += term
        np.multiply(dt[..., 2], x[other], out=term)
        term *= i_sign
        out += term
        out *= 1j
        np.multiply(two_t, p_eta[..., j], out=term)
        out += term
        out *= 4.0 / 3.0
        # plus the mass term, with sigma^3 eta = (eta_0, -eta_1)
        slot = res[..., j]
        np.multiply(mass, x[j], out=slot)
        if j == 0:
            slot += out
        else:
            np.subtract(out, slot, out=slot)
    return res


def _torsion_gradient(params: ModelParams, dt: np.ndarray, du: np.ndarray,
                      alpha: int) -> np.ndarray:
    """D_alpha t - d_3 u_alpha, D_alpha = d_alpha + (A_alpha / m) d_3."""
    g = dt[..., alpha]
    a = params.A[..., alpha]
    if np.any(a):
        g = g + a / params.m * dt[..., 3]
    return g - du[..., alpha]


def field_equation_residual_4d(xi: SpinorBundle, params: ModelParams,
                               dt: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Explicit residual of the 4D field equation, grid-minor (*n, 2).

    (4i/3)[2 t sigma^alpha D_alpha xi + sigma^alpha (D_alpha t) xi
           - 2 u_alpha sigma^alpha d_3 xi - sigma^alpha (d_3 u_alpha) xi]
    - (L / rho) sigma_3 xi,  D_alpha = d_alpha + A_alpha/m d_3.

    dt (*n, 4) is the gradient of t over all four axes and du (*n, 3) the
    x3 derivative of u; for a separated field both x3 derivatives are zero.
    Any other shape of either raises InvalidGrid.  Any layout of them is
    read; grid-minor (``pauli.grid_minor``) is the fast one, where each
    slice ``dt[..., a]`` is one contiguous block.

    rho, t, u and the contractions z, y behind them come from one
    ``torsion.spinor_contractions`` pass; L reuses them through
    ``lagrangian_4d``, whose spelled/compact cross-assert runs on every call.
    D_alpha xi comes from ``torsion.mixed_derivative``.  No Pauli matrix is
    applied: component j of the bracket (k = 1 - j) is written out as
    2 t p_j - G_0 xi_j + (G_1 -+ i G_2) xi_k + 2 u_0 d_3 xi_j
    + (w_1 -+ i w_2) d_3 xi_k, with G_alpha = D_alpha t - d_3 u_alpha,
    w_alpha = -2 u_alpha and p = sigma^alpha D_alpha xi.  The metric sign of
    sigma^0 rides on the real coefficients and sigma_2's -+i on the complex
    ones, so each component takes five products.
    """
    shape = xi.spec.extents
    require_shape(dt, shape + (4,), "dt")
    require_shape(du, shape + (3,), "du")
    c = spinor_contractions(xi, params)
    t, u = c.t, c.u
    k = lagrangian_4d(xi, c) / c.rho
    # Im z and Im y are not read below
    del c
    x = xi.values[..., 0], xi.values[..., 1]
    e = xi.derivs[..., 3, 0], xi.derivs[..., 3, 1]
    d0, d1, d2 = (mixed_derivative(xi, params, alpha) for alpha in range(3))
    grad = [_torsion_gradient(params, dt, du, alpha) for alpha in range(3)]
    g_diag = np.negative(grad[0])
    w_diag = 2.0 * u[..., 0]
    # the off-diagonal coefficients of component 0; component 1 takes their
    # conjugates
    g_off = np.empty(shape, complex)
    g_off.real = grad[1]
    np.negative(grad[2], out=g_off.imag)
    w_off = np.empty(shape, complex)
    np.multiply(u[..., 1], -2.0, out=w_off.real)
    np.multiply(u[..., 2], 2.0, out=w_off.imag)
    del grad
    two_t = 2.0 * t
    res = grid_minor(shape + (2,), len(shape))
    out, term = np.empty(shape, complex), np.empty(shape, complex)
    # p_0 = D_1 xi_1 - D_0 xi_0 - i D_2 xi_1, p_1 = D_1 xi_0 - D_0 xi_1 + i D_2 xi_0
    for j, i_sign in ((0, -1j), (1, 1j)):
        other = 1 - j
        if j == 1:
            np.conjugate(g_off, out=g_off)
            np.conjugate(w_off, out=w_off)
        np.multiply(d2[..., other], i_sign, out=out)
        out += d1[..., other]
        out -= d0[..., j]
        out *= two_t
        for coef, v in ((g_diag, x[j]), (g_off, x[other]), (w_diag, e[j]), (w_off, e[other])):
            np.multiply(coef, v, out=term)
            out += term
        out *= 4.0j / 3.0
        # minus (L / rho) sigma_3 xi, with sigma_3 xi = (xi_0, -xi_1)
        slot = res[..., j]
        np.multiply(k, x[j], out=slot)
        if j == 0:
            np.subtract(out, slot, out=slot)
        else:
            slot += out
    return res


class Verdict(Enum):
    SOLVES_PLUS = "SolvesPlus"
    SOLVES_MINUS = "SolvesMinus"
    SOLVES_NEITHER = "SolvesNeither"
    INCONSISTENT = "Inconsistent"


@dataclass
class EquivalenceResult:
    verdict: Verdict
    nonlinear_residual: float
    plus_residual: float
    minus_residual: float
    scale: float


def equivalence_verdict(nonlinear: float, plus: float, minus: float, scale: float,
                        linear_scale: float) -> EquivalenceResult:
    """Classify one field by which residuals vanish: the nonlinear one
    relative to scale, the plus and minus linear ones relative to
    linear_scale.  The nonlinear residual must vanish where a linear one
    does, and only there; anything else is Inconsistent, which must never
    occur and falsifies the build.  A NaN residual never counts as
    vanishing.
    """
    tol = 1e-6   # relative bound under which a residual counts as vanishing
    n_zero = nonlinear <= tol * scale
    p_zero = plus <= tol * linear_scale
    m_zero = minus <= tol * linear_scale
    if n_zero and p_zero:
        verdict = Verdict.SOLVES_PLUS
    elif n_zero and m_zero:
        verdict = Verdict.SOLVES_MINUS
    elif not n_zero and not (p_zero or m_zero):
        verdict = Verdict.SOLVES_NEITHER
    else:
        verdict = Verdict.INCONSISTENT
    return EquivalenceResult(verdict, nonlinear, plus, minus, scale)


def theorem1_check(eta: SpinorBundle, params: ModelParams, r: int,
                   dt: np.ndarray | None = None) -> EquivalenceResult:
    """Compare near-vanishing of the field-equation and Dirac residuals
    (``equivalence_verdict``): the field equation's relative to
    m^2 sqrt(max rho), the Dirac ones' relative to m sqrt(max rho).

    dt is the in-plane gradient of the reduced torsion scalar; without it,
    the check differentiates ``reduced_axial_torsion`` spectrally.  A dt of
    any shape but (*n, 3) raises InvalidGrid.
    """
    rho = eta.rho
    require_density(rho)
    if dt is not None:
        require_shape(dt, eta.spec.extents + (eta.spec.dims,), "dt")
    else:
        t = reduced_axial_torsion(eta, dirac_contraction(eta, params, r).real)
        dt = derivatives(t, eta.spec, "spectral")
    root_rho = float(np.sqrt(np.max(rho)))
    fe = float(np.max(np.abs(field_equation_residual_reduced(eta, params, r, dt))))
    # dirac_apply's two signs s = +-1 share the first-order part
    p_eta = _first_order_op(eta, params.A, r)
    mass = params.m * apply(SIGMA3, eta.values)
    dp = float(np.max(np.abs(p_eta + mass)))
    dm = float(np.max(np.abs(p_eta - mass)))
    return equivalence_verdict(fe, dp, dm, params.m ** 2 * root_rho, params.m * root_rho)


# ---------------------------------------------------------------------------
# Discrete variational derivative
# ---------------------------------------------------------------------------

DENSITIES = ("dirac", "reduced")

# Step of the two-sided action differences, in each Re/Im direction.
_STEP = 1e-6


def _action_from_values(values: np.ndarray, spec: LatticeSpec, params: ModelParams,
                        density_kind: str, r: int, s: int) -> float:
    b = SpinorBundle.from_grid(spec, values)
    if density_kind == "dirac":
        L = dirac_lagrangian(b, params, r, s)
    else:
        L = lagrangian_reduced(b, params, r)
    return spec.integrate(L)


def action_gradient(action, values: np.ndarray, spec: LatticeSpec, probes) -> np.ndarray:
    """Two-sided difference, step ``_STEP``, of action(values) w.r.t. Re/Im of
    each component of values at the probe points; shape (len(probes),
    components, 2).

    ``action`` maps a perturbed copy of values (same shape and layout) to a
    float; this loop knows nothing of the density behind it, which keeps the
    variational routes independent of the formulas they check.  The copy is
    one working array per call: each evaluation perturbs one entry of it and
    the entry is restored exactly afterwards, so ``action`` must neither
    modify the array it gets nor keep a reference to it.  ``values`` itself
    is never written.  A probe that is not a grid point, integers 0 <= p_a < n_a,
    raises ProbeOutsideInterior before any evaluation.
    """
    probes = [np.atleast_1d(p) for p in probes]
    for p in probes:
        if p.dtype.kind not in "iu" or p.shape != (spec.dims,) \
                or not np.all((p >= 0) & (p < spec.extents)):
            raise ProbeOutsideInterior(f"probe {p.tolist()} is off the {spec.extents} grid")
    out = np.empty((len(probes), values.shape[-1], 2))
    work = values.copy(order="K")
    for i, p in enumerate(probes):
        p = tuple(int(x) for x in p)
        for comp in range(values.shape[-1]):
            entry = p + (comp,)
            saved = work[entry]
            for k, delta in enumerate((1.0, 1.0j)):
                both = []
                for sign in (1.0, -1.0):
                    work[entry] = saved + sign * _STEP * delta
                    both.append(action(work))
                out[i, comp, k] = (both[0] - both[1]) / (2.0 * _STEP)
            work[entry] = saved
    return out


def discrete_variational_derivative(density_kind: str, eta_values: np.ndarray,
                                    spec: LatticeSpec, params: ModelParams,
                                    probes, r: int = 1, s: int = 1) -> np.ndarray:
    """Gradient of the discrete action w.r.t. Re/Im of each spinor component.

    Central two-sided differencing (``action_gradient``) of the action value
    at the probe points; each evaluation differentiates the perturbed values
    spectrally.  Returns an array (len(probes), 2, 2): probe x component x
    (re, im).  A probe that is not a grid point raises ProbeOutsideInterior.
    """
    require_choice("density kind", density_kind, DENSITIES)
    return action_gradient(
        lambda v: _action_from_values(v, spec, params, density_kind, r, s),
        eta_values, spec, probes)
