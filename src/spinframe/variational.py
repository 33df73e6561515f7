"""Formally self-adjoint first-order operators, their scaling-covariant
Lagrangians, the combined nonlinear Lagrangian, and the reduction lemma
with its worked 1D example.

The domain here is Euclidean R^n (no Lorentzian structure); fields are
C^m-valued columns on a lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, VanishingU, require_agreement
from .field_equations import EquivalenceResult, Verdict, action_gradient, equivalence_verdict
from .grids import LatticeSpec, derivatives
from .lagrangians import combine_densities

_HERM_TOL = 1e-12


def _check_hermitian(mat: np.ndarray, what: str) -> None:
    dev = float(np.max(np.abs(mat - np.conj(np.swapaxes(mat, -1, -2)))))
    if not dev <= _HERM_TOL * max(1.0, float(np.max(np.abs(mat)))):
        raise NotHermitian(f"{what} is not Hermitian (deviation {dev:.3g})")


@dataclass
class FirstOrderOperator:
    """A = i B^alpha d_alpha + C with constant Hermitian matrix coefficients:
    b of shape (n, m, m), one matrix per grid axis, and c of shape (m, m).
    Any other shape raises DimensionMismatch, and a non-Hermitian or
    non-finite coefficient NotHermitian."""

    spec: LatticeSpec
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=complex)
        self.c = np.asarray(self.c, dtype=complex)
        n, m = self.spec.dims, self.b.shape[-1] if self.b.ndim else 0
        if self.b.shape != (n, m, m) or self.c.shape != (m, m):
            raise DimensionMismatch(
                f"b must have shape (n, m, m) = ({n}, {m}, {m}) and c (m, m); "
                f"got {self.b.shape} and {self.c.shape}")
        _check_hermitian(self.b, "B")
        _check_hermitian(self.c, "C")

    @property
    def mdim(self) -> int:
        return self.b.shape[-1]


def op_apply(op: FirstOrderOperator, u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """A u on the grid; u is (*grid, m), du (*grid, n, m)."""
    u = np.asarray(u, dtype=complex)
    if u.shape[-1] != op.mdim:
        raise DimensionMismatch(f"u has {u.shape[-1]} components, operator wants {op.mdim}")
    return 1j * np.einsum("amk,...ak->...m", op.b, du) + np.einsum("mk,...k->...m", op.c, u)


def first_order_lagrangian(op: FirstOrderOperator, u: np.ndarray,
                           du: np.ndarray) -> np.ndarray:
    """L(u) = Re(u* A u), cross-asserted against its expanded form
    (i/2)[u* B du - (du*) B u] + u* C u."""
    u = np.asarray(u, dtype=complex)
    au = op_apply(op, u, du)
    spelled = np.einsum("...m,...m->...", np.conj(u), au).real
    bu_du = np.einsum("...m,amk,...ak->...", np.conj(u), op.b, du)
    expanded = (0.5j * (bu_du - np.conj(bu_du))).real \
        + np.einsum("...m,mk,...k->...", np.conj(u), op.c, u).real
    require_agreement(spelled, expanded, "first_order_lagrangian")
    return spelled


def combined_lagrangian(op_p: FirstOrderOperator, op_m: FirstOrderOperator,
                        u: np.ndarray, du: np.ndarray) -> np.ndarray:
    lp = first_order_lagrangian(op_p, u, du)
    lm = first_order_lagrangian(op_m, u, du)
    return combine_densities(lp, lm)


# ---------------------------------------------------------------------------
# The 1D scalar example: i u' +- u = 0
# ---------------------------------------------------------------------------


def example_operators(spec: LatticeSpec) -> tuple[FirstOrderOperator, FirstOrderOperator]:
    """The scalar pair with B = 1 and C = +-1, so A_+- u = i u' +- u."""
    b = np.ones((1, 1, 1))
    return (FirstOrderOperator(spec, b, np.array([[1.0]])),
            FirstOrderOperator(spec, b, np.array([[-1.0]])))


def example_ode_residual(u: np.ndarray, du: np.ndarray, ddu: np.ndarray) -> np.ndarray:
    """Field equation of the combined density for the scalar example:

    ((ubar u' - u ubar')/(2|u|^2) u)' + ((ubar u')^2 - (u ubar')^2)/(4|u|^4) u + u

    evaluated from supplied first and second derivative values, so it works
    in analytic mode as well as on stencil data.
    """
    u = np.asarray(u, dtype=complex)
    mod2 = np.abs(u) ** 2
    if np.any(mod2 == 0.0):
        raise VanishingU("u vanishes somewhere on the grid")
    num = np.conj(u) * du - u * np.conj(du)
    q = num / (2.0 * mod2)
    # derivative of q by the quotient rule; the u' ubar' cross terms cancel
    num_d = np.conj(u) * ddu - u * np.conj(ddu)
    mod2_d = np.conj(du) * u + np.conj(u) * du
    q_d = num_d / (2.0 * mod2) - q * mod2_d / mod2
    second = (np.conj(u) * du) ** 2 - (u * np.conj(du)) ** 2
    return q_d * u + q * du + second / (4.0 * mod2 ** 2) * u + u


# ---------------------------------------------------------------------------
# Lemma check: variational derivative of the combined action vs A_+- u
# ---------------------------------------------------------------------------


# The lemma's verdicts are Theorem 1's; the lemma's name for them stays
# importable here, where acceptance criterion 6 imports it.
LemmaVerdict = Verdict


def _combined_action(op_p, op_m, u) -> float:
    du = derivatives(u, op_p.spec, "spectral")
    return op_p.spec.integrate(combined_lagrangian(op_p, op_m, u, du))


def combined_action_gradient(op_p: FirstOrderOperator, op_m: FirstOrderOperator,
                             u: np.ndarray, probes) -> np.ndarray:
    """Two-sided difference of the combined action w.r.t. Re/Im of each
    component at the probe points; (len(probes), mdim, 2).

    The differencing loop, with its probe check and step, is
    ``field_equations.action_gradient``, the same one that differentiates
    the spinor actions; the combined density enters only through the action
    it is handed, which differentiates u spectrally.
    """
    return action_gradient(lambda v: _combined_action(op_p, op_m, v),
                           np.asarray(u, dtype=complex), op_p.spec, probes)


def lemma_check(op_p: FirstOrderOperator, op_m: FirstOrderOperator, u: np.ndarray,
                probes=None) -> EquivalenceResult:
    """Compare near-vanishing of the combined-action variational derivative
    with the two linear residuals (``field_equations.equivalence_verdict``):
    the gradient's relative to max(|u|, |u|^2, 1), the linear ones' relative
    to that times 1 + max|C_+| + max|C_-|.  Inconsistent must never occur.

    Both residuals read the spectral derivative of u, the rule the
    variational derivative uses."""
    spec = op_p.spec
    u = np.asarray(u, dtype=complex)
    if probes is None:
        rng = np.random.default_rng(0)
        idx = rng.integers(0, np.array(spec.extents), size=(8, spec.dims))
        probes = [tuple(row) for row in idx]
    umax = float(np.max(np.abs(u)))
    scale = max(umax, umax ** 2, 1.0)
    grad = combined_action_gradient(op_p, op_m, u, probes)
    gnorm = float(np.max(np.abs(grad)))
    du = derivatives(u, spec, "spectral")
    ap = float(np.max(np.abs(op_apply(op_p, u, du))))
    am = float(np.max(np.abs(op_apply(op_m, u, du))))
    op_scale = scale * (1.0 + float(np.max(np.abs(op_p.c))) + float(np.max(np.abs(op_m.c))))
    return equivalence_verdict(gnorm, ap, am, scale, op_scale)
