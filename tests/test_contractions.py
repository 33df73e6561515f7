"""The fused spinor contractions and residuals against the formulas they
replace.

The reference functions below are the one-at-a-time formulas that
``field_equation_residual_4d``, ``lagrangian_4d``, ``axial_torsion_spinor``
and the x3-rotation covector used before ``torsion.spinor_contractions``
computed their shared contractions once, and the stacked formula that
``field_equation_residual_reduced`` used before it was written per spinor
component.  They are kept here only as the tests' reference.
"""

import numpy as np
import pytest

from spinframe import lagrangians
from spinframe.algebra import SIGMA3, SIGMA_LOWER, SIGMA_UPPER
from spinframe.field_equations import field_equation_residual_4d, field_equation_residual_reduced
from spinframe.grids import ModelParams, SpinorBundle, derivatives, lorentz_dot, periodic_spec
from spinframe.lagrangians import lagrangian_4d, unhodge_covector, unhodge_scalar
from spinframe.pauli import apply, contract, grid_minor
from spinframe.sampling import base_for, random_positive_spinor
from spinframe.torsion import (
    axial_torsion_spinor,
    mixed_derivative,
    spinor_contractions,
)

REL = 1e-13
SPEC4 = periodic_spec((6, 5, 4, 6), (0.9, 1.1, 1.4, 0.7), 4)


# ---------------------------------------------------------------------------
# reference: the one-at-a-time formulas
# ---------------------------------------------------------------------------


def ref_axial_torsion_spinor(b, params=None, with_A=False):
    rho = b.rho
    z = np.zeros(rho.shape, dtype=complex)
    for alpha in range(3):
        d = b.derivs[..., alpha, :]
        if with_A:
            a = params.A
            d = d + (a[..., alpha] / params.m)[..., None] * b.derivs[..., 3, :]
        z += contract(SIGMA_UPPER[alpha], b.values, d)
    return 4.0 * z.imag / (3.0 * rho)


def ref_d3_rotation_spinor(b):
    rho = b.rho
    d3 = b.derivs[..., 3, :]
    return np.stack(
        [-4.0 * contract(SIGMA_LOWER[a], b.values, d3).imag / (3.0 * rho)
         for a in range(3)],
        axis=-1,
    )


def ref_lagrangian_4d(xi, params):
    rho = xi.rho
    a = params.A
    z = np.zeros(rho.shape, dtype=complex)
    for alpha in range(3):
        d = xi.derivs[..., alpha, :] + (np.asarray(a)[..., alpha] / params.m)[..., None] \
            * xi.derivs[..., 3, :]
        z += contract(SIGMA_UPPER[alpha], xi.values, d)
    y = np.stack(
        [contract(SIGMA_LOWER[al], xi.values, xi.derivs[..., 3, :]) for al in range(3)],
        axis=-1,
    )
    sq = (-2.0 * z.imag) ** 2
    ynorm = np.einsum("...a,a,...a->...", -2.0 * y.imag, np.array([-1.0, 1.0, 1.0]),
                      -2.0 * y.imag)
    spelled = -(4.0 / (9.0 * rho)) * (sq + ynorm)
    t = ref_axial_torsion_spinor(xi, params, with_A=True)
    u = ref_d3_rotation_spinor(xi)
    spec3 = periodic_spec(xi.spec.extents[:3], xi.spec.spacing[:3], 3)
    tform = unhodge_scalar(spec3, t)
    uform = unhodge_covector(spec3, u)
    compact = (lorentz_dot(tform, tform).values + lorentz_dot(uform, uform).values) * rho
    assert np.max(np.abs(spelled - compact)) <= 1e-12 * max(1.0, np.max(np.abs(spelled)))
    return spelled


def ref_field_equation_residual_4d(xi, params, dt, du):
    rho = xi.rho
    a = np.asarray(params.A)
    t = ref_axial_torsion_spinor(xi, params, with_A=True)
    u = ref_d3_rotation_spinor(xi)
    p_xi = np.zeros_like(xi.values)
    grad_t = np.zeros_like(xi.values)
    for alpha in range(3):
        a_al = a[..., alpha] if a.ndim > 1 else a[alpha]
        d_al = xi.derivs[..., alpha, :] \
            + np.asarray(a_al / params.m)[..., None] * xi.derivs[..., 3, :]
        p_xi += apply(SIGMA_UPPER[alpha], d_al)
        dta = dt[..., alpha] + a_al / params.m * dt[..., 3]
        grad_t += dta[..., None] * apply(SIGMA_UPPER[alpha], xi.values)
    d3_xi = xi.derivs[..., 3, :]
    u_term = np.zeros_like(xi.values)
    du_term = np.zeros_like(xi.values)
    for alpha in range(3):
        u_term += u[..., alpha, None] * apply(SIGMA_UPPER[alpha], d3_xi)
        du_term += du[..., alpha, None] * apply(SIGMA_UPPER[alpha], xi.values)
    lagr = ref_lagrangian_4d(xi, params)
    mass = apply(SIGMA3, xi.values)
    return (4.0j / 3.0) * (2.0 * t[..., None] * p_xi + grad_t
                           - 2.0 * u_term - du_term) \
        - (lagr / rho)[..., None] * mass


def ref_field_equation_residual_reduced(eta, params, r, dt):
    """(4/3)[2 t P eta + i sigma^alpha (d_alpha t) eta] + (16 m^2/9 + t^2) sigma^3 eta,
    P = sigma^alpha (i d + r A)_alpha, with every sigma product a stacked
    (*n, 2) array and t = -(4 / 3 rho) Re eta^dag P eta."""
    v = eta.values
    w = np.zeros(eta.rho.shape, dtype=complex)
    p_eta = np.zeros_like(v)
    grad_t = np.zeros_like(v)
    for alpha in range(3):
        op = 1j * eta.derivs[..., alpha, :] + (r * params.A[..., alpha])[..., None] * v
        w += contract(SIGMA_UPPER[alpha], v, op)
        p_eta += apply(SIGMA_UPPER[alpha], op)
        grad_t += 1j * dt[..., alpha, None] * apply(SIGMA_UPPER[alpha], v)
    t = -4.0 * w.real / (3.0 * eta.rho)
    mass = apply(SIGMA3, v)
    return (4.0 / 3.0) * (2.0 * t[..., None] * p_eta + grad_t) \
        + (16.0 * params.m ** 2 / 9.0 + t ** 2)[..., None] * mass


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def _bundle4(seed: int, sampled: str = "analytic") -> SpinorBundle:
    """A random positive-class 4D field that is not x3-separated."""
    rng = np.random.default_rng(seed)
    b = random_positive_spinor(rng, base_for(SPEC4), max_mode=2).bundle(SPEC4)
    if sampled == "analytic":
        return b
    return SpinorBundle(SPEC4, b.values, derivatives(b.values, SPEC4, sampled))


def _torsion_derivatives(b, params, backend, x3_flat):
    """dt over all four axes and du along x3 by one backend; with x3_flat
    both x3 derivatives are zero, as for a separated field."""
    c = spinor_contractions(b, params)
    dt = derivatives(c.t, b.spec, backend)
    if x3_flat:
        dt[..., 3] = 0.0
        return dt, np.zeros(c.u.shape)
    return dt, derivatives(c.u, b.spec, backend)[..., 3, :]


def _params(kind: str, seed: int) -> ModelParams:
    rng = np.random.default_rng(1000 + seed)
    if kind == "zero":
        return ModelParams(m=1.3)
    if kind == "constant":
        return ModelParams(m=1.3, A=rng.normal(size=3))
    return ModelParams(m=1.3, A=0.4 * rng.normal(size=SPEC4.extents + (3,)))


def _close(new, ref) -> None:
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref)) <= REL * np.max(np.abs(ref))


A_KINDS = ("zero", "constant", "field")


@pytest.mark.parametrize("a_kind", A_KINDS)
@pytest.mark.parametrize("backend", ("stencil", "spectral"))
@pytest.mark.parametrize("x3_flat", (False, True))
def test_residual_4d_matches_reference(a_kind, backend, x3_flat):
    for seed in range(2):
        b = _bundle4(seed)
        p = _params(a_kind, seed)
        dt, du = _torsion_derivatives(b, p, backend, x3_flat)
        _close(field_equation_residual_4d(b, p, dt, du),
               ref_field_equation_residual_4d(b, p, dt, du))


@pytest.mark.parametrize("a_kind", A_KINDS)
def test_residual_4d_with_given_derivatives_matches_reference(a_kind):
    rng = np.random.default_rng(7)
    b = _bundle4(3, sampled="spectral")
    p = _params(a_kind, 3)
    dt = rng.normal(size=SPEC4.extents + (4,))
    du = rng.normal(size=SPEC4.extents + (3,))
    _close(field_equation_residual_4d(b, p, dt=dt, du=du),
           ref_field_equation_residual_4d(b, p, dt=dt, du=du))


SPEC3 = periodic_spec(12, 2.0 * np.pi / 12, 3)


def _reduced_case(seed: int, layout: str):
    """A random positive field on 12^3, field-valued A at m = 1.3, and a
    random dt, grid-minor or C-ordered."""
    rng = np.random.default_rng(seed)
    b = random_positive_spinor(rng, base_for(SPEC3), max_mode=2).bundle(SPEC3)
    p = ModelParams(m=1.3, A=0.4 * rng.normal(size=SPEC3.extents + (3,)))
    dt = rng.normal(size=SPEC3.extents + (3,))
    if layout == "grid-minor":
        g = grid_minor(dt.shape, 3, float)
        g[...] = dt
        dt = g
    return b, p, dt


@pytest.mark.parametrize("layout", ("grid-minor", "C"))
@pytest.mark.parametrize("r", (1, -1))
def test_residual_reduced_is_bit_identical_to_reference(r, layout):
    b, p, dt = _reduced_case(11, layout)
    assert np.array_equal(field_equation_residual_reduced(b, p, r, dt),
                          ref_field_equation_residual_reduced(b, p, r, dt))


@pytest.mark.parametrize("layout", ("grid-minor", "C"))
def test_residual_reduced_is_grid_minor(layout):
    # each spinor component is one contiguous block, for any layout of dt
    b, p, dt = _reduced_case(12, layout)
    res = field_equation_residual_reduced(b, p, 1, dt)
    for j in range(2):
        assert res[..., j].flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("a_kind", A_KINDS)
def test_lagrangian_4d_matches_reference(a_kind):
    for seed in range(3):
        b = _bundle4(seed, sampled="stencil4" if seed else "analytic")
        p = _params(a_kind, seed)
        _close(lagrangian_4d(b, spinor_contractions(b, p)), ref_lagrangian_4d(b, p))


@pytest.mark.parametrize("a_kind", A_KINDS)
def test_axial_torsion_4d_matches_reference(a_kind):
    for seed in range(3):
        b = _bundle4(seed)
        p = _params(a_kind, seed)
        _close(spinor_contractions(b, p).t,
               ref_axial_torsion_spinor(b, p, with_A=True))


def test_unmixed_torsion_and_rotation_are_bit_identical():
    # the kk and torsion-route checks read these; they keep the reference's
    # summation order exactly
    for seed in range(3):
        b = _bundle4(seed)
        assert np.array_equal(axial_torsion_spinor(b), ref_axial_torsion_spinor(b))
        assert np.array_equal(spinor_contractions(b).u, ref_d3_rotation_spinor(b))


@pytest.mark.parametrize("backend", ("analytic", "stencil", "spectral"))
def test_axial_torsion_3d_matches_reference(backend):
    spec = periodic_spec((8, 7, 6), (0.8, 0.9, 1.05), 3)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        b = random_positive_spinor(rng, base_for(spec), max_mode=2).bundle(spec)
        if backend != "analytic":
            b = SpinorBundle(spec, b.values, derivatives(b.values, spec, backend))
        new = axial_torsion_spinor(b)
        _close(new, ref_axial_torsion_spinor(b))
        assert np.array_equal(new, ref_axial_torsion_spinor(b))


def test_contractions_follow_the_bundle_dimension():
    # no flags: t always, y and u on a 4D bundle only, A only on a 4D bundle
    spec = periodic_spec(6, 1.0, 3)
    b3 = random_positive_spinor(np.random.default_rng(0), base_for(spec),
                                max_mode=2).bundle(spec)
    c3 = spinor_contractions(b3)
    assert c3.y is None and c3.u is None
    assert np.array_equal(c3.t, ref_axial_torsion_spinor(b3))
    with pytest.raises(ValueError):
        spinor_contractions(b3, ModelParams(m=1.0))
    b4 = _bundle4(0)
    c4 = spinor_contractions(b4)
    assert np.array_equal(c4.u, ref_d3_rotation_spinor(b4))
    assert len(c4.y) == 3


def test_mixed_derivative_forms_a_product_only_for_a_nonzero_A():
    b = _bundle4(1)
    for params in (None, _params("zero", 1)):
        for alpha in range(3):
            assert np.shares_memory(mixed_derivative(b, params, alpha), b.derivs)
    p = _params("field", 1)
    want = b.derivs[..., 1, :] + (p.A[..., 1] / p.m)[..., None] * b.derivs[..., 3, :]
    assert np.array_equal(mixed_derivative(b, p, 1), want)


def test_cross_assert_guards_the_fused_residual(monkeypatch):
    """A broken compact route must still fail the 4D residual.

    Flipping the sign of the un-Hodged covector would not do: the norm form
    is quadratic in it.  Doubling it breaks the identity wherever u != 0.
    """
    b = _bundle4(0)
    p = _params("constant", 0)
    dt, du = _torsion_derivatives(b, p, "spectral", x3_flat=False)
    field_equation_residual_4d(b, p, dt, du)  # passes unbroken

    def doubled(spec3, u):
        form = unhodge_covector(spec3, u)
        form.values = 2.0 * form.values
        return form

    monkeypatch.setattr(lagrangians, "unhodge_covector", doubled)
    with pytest.raises(AssertionError, match="lagrangian_4d"):
        field_equation_residual_4d(b, p, dt, du)
