import math

import numpy as np
import pytest
from scipy.linalg import expm

from spinframe.errors import (
    DegenerateDenominator,
    DimensionMismatch,
    NotHermitian,
    ProbeOutsideInterior,
    SpinframeError,
    VanishingU,
)
from spinframe.field_equations import Verdict
from spinframe.grids import LatticeSpec, derivatives, periodic_spec
from spinframe.lagrangians import combine_densities
from spinframe.sampling import base_for, random_trig_poly
from spinframe.variational import (
    FirstOrderOperator,
    combined_action_gradient,
    combined_lagrangian,
    example_ode_residual,
    example_operators,
    first_order_lagrangian,
    lemma_check,
    op_apply,
)


@pytest.fixture
def spec():
    return periodic_spec(64, 2.0 * np.pi / 64, 1)


@pytest.fixture
def solvable_operator():
    """A random constant-coefficient 1D operator A = i B d + C whose
    solutions are exact integer Fourier modes of the periodic grid.

    With B = W W* and C = W diag(k) W* (k integers), B^{-1} C has spectrum
    k, so every solution u(x) = exp(i x B^{-1} C) u(0) of A u = 0 is band
    limited.  Returns a function of (rng, spec, mdim) giving the operator.
    """
    def make(rng, spec, mdim):
        w = rng.normal(size=(mdim, mdim)) + 1j * rng.normal(size=(mdim, mdim))
        w += 2.0 * np.eye(mdim)  # keep it comfortably invertible
        modes = rng.integers(-3, 4, size=mdim)
        b = (w @ w.conj().T)[None, :, :]
        c = w @ np.diag(modes.astype(float)) @ w.conj().T
        return FirstOrderOperator(spec, b, c)
    return make


def test_operator_validates_hermiticity(spec):
    with pytest.raises(ValueError):
        FirstOrderOperator(spec, np.ones((1, 1, 1)), np.array([[1j]]))
    with pytest.raises(ValueError):
        FirstOrderOperator(spec, np.array([[[1j]]]), np.array([[1.0]]))


def test_operator_validates_shapes(spec):
    # the coefficients are constant matrices: grid-shaped b or c is rejected
    n = spec.extents[0]
    b, c = np.ones((1, 1, 1)), np.array([[1.0]])
    for bad_b, bad_c in ((np.ones((2, 1, 1)), c), (np.ones((n, 1, 1, 1)), c),
                         (b, np.ones((n, 1, 1))), (np.ones(()), c), (b, np.ones(1))):
        with pytest.raises(DimensionMismatch):
            FirstOrderOperator(spec, bad_b, bad_c)


def test_hermitian_check_fails_closed(spec):
    nan = float("nan")
    for b, c in ((np.full((1, 1, 1), nan), np.array([[1.0]])),
                 (np.ones((1, 1, 1)), np.array([[nan]])),
                 (np.ones((1, 1, 1)), np.array([[1j]]))):
        with pytest.raises(NotHermitian) as info:
            FirstOrderOperator(spec, b, c)
        assert isinstance(info.value, SpinframeError)


def test_identity_operator(spec):
    # B = 0, C = I acts as the identity
    op = FirstOrderOperator(spec, np.zeros((1, 2, 2)), np.eye(2))
    rng = np.random.default_rng(0)
    u = rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))
    assert np.allclose(op_apply(op, u, np.zeros((64, 1, 2))), u)


def test_example_operator_action(spec):
    ap, am = example_operators(spec)
    x = spec.axis_coords(0)
    u = np.exp(2j * x)[:, None]
    du = (2j * np.exp(2j * x))[:, None, None]
    # A_+- u = i u' +- u = (-2 +- 1) u
    assert np.allclose(op_apply(ap, u, du), -u)
    assert np.allclose(op_apply(am, u, du), -3.0 * u)


def test_formal_self_adjointness_periodic(spec, solvable_operator):
    # <Au, v> = <u, Av> on a periodic grid with spectral derivatives
    rng = np.random.default_rng(1)
    op = solvable_operator(rng, spec, mdim=3)
    u = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
    v = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
    au = op_apply(op, u, derivatives(u, spec, "spectral"))
    av = op_apply(op, v, derivatives(v, spec, "spectral"))
    lhs = np.sum(np.conj(v) * au)
    rhs = np.sum(np.conj(av) * u)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_lagrangian_constant_and_combined(spec):
    ap, am = example_operators(spec)
    u = np.full((64, 1), 2.0, complex)
    du = np.zeros((64, 1, 1), complex)
    assert np.allclose(first_order_lagrangian(ap, u, du), 4.0)
    assert np.allclose(first_order_lagrangian(am, u, du), -4.0)
    assert np.allclose(combined_lagrangian(ap, am, u, du), -2.0)


def test_combined_degenerate_denominator(spec):
    ap, _ = example_operators(spec)
    u = np.ones((64, 1), complex)
    du = np.zeros((64, 1, 1), complex)
    with pytest.raises(DegenerateDenominator):
        combined_lagrangian(ap, ap, u, du)


def test_example_residual_on_solutions(spec):
    x = spec.axis_coords(0)
    for sgn in (1, -1):
        u = np.exp(sgn * 1j * x)
        res = example_ode_residual(u, sgn * 1j * u, -u)
        assert np.max(np.abs(res)) < 1e-12


def test_example_residual_regression_nonsolution(spec):
    # u = e^{-2ix}: residual works out to -3u; frozen as a regression value
    x = spec.axis_coords(0)
    u = np.exp(-2j * x)
    res = example_ode_residual(u, -2j * u, -4.0 * u)
    assert np.max(np.abs(res + 3.0 * u)) < 1e-12


def test_example_residual_rejects_vanishing_u(spec):
    u = np.zeros(64, complex)
    with pytest.raises(VanishingU):
        example_ode_residual(u, u, u)


def test_scaling_covariance_all_densities(spec):
    ap, am = example_operators(spec)
    base = base_for(spec)
    x = spec.meshgrid()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        up = random_trig_poly(rng, base, max_mode=2, amplitude=0.4)
        h = random_trig_poly(rng, base, max_mode=2, amplitude=0.3, real=True)
        uv = (1.0 + up(x))[:, None]
        duv = up.derivative(0)(x)[:, None, None]
        hv = h(x).real
        dhv = h.derivative(0)(x).real
        sv = (np.exp(hv) * (1.0 + up(x)))[:, None]
        dsv = (np.exp(hv) * (up.derivative(0)(x) + dhv * (1.0 + up(x))))[:, None, None]
        e2h = np.exp(2.0 * hv)
        for op in (ap, am):
            dev = np.max(np.abs(first_order_lagrangian(op, sv, dsv)
                                - e2h * first_order_lagrangian(op, uv, duv)))
            assert dev < 1e-12
        dev = np.max(np.abs(combined_lagrangian(ap, am, sv, dsv)
                            - e2h * combined_lagrangian(ap, am, uv, duv)))
        assert dev < 1e-12


def test_hierarchy_preserves_scaling_covariance(spec):
    # feeding the combined density together with a third one back into the
    # same combination rule keeps the e^{2h} scaling law
    ap, am = example_operators(spec)
    a3 = FirstOrderOperator(spec, np.ones((1, 1, 1)), np.array([[3.0]]))
    base = base_for(spec)
    x = spec.meshgrid()
    rng = np.random.default_rng(42)
    up = random_trig_poly(rng, base, max_mode=2, amplitude=0.4)
    h = random_trig_poly(rng, base, max_mode=2, amplitude=0.3, real=True)
    uv = (1.0 + up(x))[:, None]
    duv = up.derivative(0)(x)[:, None, None]
    hv = h(x).real
    dhv = h.derivative(0)(x).real
    sv = (np.exp(hv) * (1.0 + up(x)))[:, None]
    dsv = (np.exp(hv) * (up.derivative(0)(x) + dhv * (1.0 + up(x))))[:, None, None]
    e2h = np.exp(2.0 * hv)
    tier1 = combine_densities(combined_lagrangian(ap, am, uv, duv),
                              first_order_lagrangian(a3, uv, duv))
    tier1_scaled = combine_densities(combined_lagrangian(ap, am, sv, dsv),
                                     first_order_lagrangian(a3, sv, dsv))
    assert np.max(np.abs(tier1_scaled - e2h * tier1)) < 1e-11


def test_lemma_branches_on_example(spec):
    ap, am = example_operators(spec)
    x = spec.axis_coords(0)
    for sgn, expect in ((1, Verdict.SOLVES_PLUS), (-1, Verdict.SOLVES_MINUS)):
        res = lemma_check(ap, am, np.exp(sgn * 1j * x)[:, None])
        assert res.verdict is expect
        assert res.nonlinear_residual < 1e-6


def test_lemma_neither_on_random_field(spec):
    ap, am = example_operators(spec)
    rng = np.random.default_rng(3)
    u = (1.0 + random_trig_poly(rng, base_for(spec), max_mode=3,
                                amplitude=0.4)(spec.meshgrid()))[:, None]
    res = lemma_check(ap, am, u)
    assert res.verdict is Verdict.SOLVES_NEITHER
    assert res.nonlinear_residual > 1e-4


def test_integrated_solutions_satisfy_lemma(spec, solvable_operator):
    # A u = 0 is the linear ODE u' = i B^{-1} C u, integrated exactly by
    # the matrix exponential
    x = spec.axis_coords(0)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        op = solvable_operator(rng, spec, mdim=3)
        # a genuinely different second operator, Hermitian by construction
        op2 = FirstOrderOperator(spec, op.b, op.c - 7.0 * op.b[0])
        u0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        gen = 1j * np.linalg.solve(op.b[0], op.c)
        u = np.stack([expm(gen * t) @ u0.astype(complex) for t in x])
        du = np.einsum("mk,...k->...m", gen, u)[..., None, :]
        assert np.max(np.abs(op_apply(op, u, du))) < 1e-10
        res = lemma_check(op, op2, u)
        assert res.verdict is Verdict.SOLVES_PLUS
        assert res.nonlinear_residual < 1e-6 * res.scale


def test_combined_gradient_rejects_probe_off_the_grid(spec):
    op_p, op_m = example_operators(spec)
    u = np.exp(1j * spec.axis_coords(0))[:, None]
    n = spec.extents[0]
    g = combined_action_gradient(op_p, op_m, u, [(0,), (n - 1,)])
    assert g.shape == (2, 1, 2)
    for probe in ((n,), (-1,), (0, 0), ()):
        with pytest.raises(ProbeOutsideInterior):
            combined_action_gradient(op_p, op_m, u, [probe])


def _fsum_integrate(spec, density):
    """The fsum rule the extraction sum in LatticeSpec.integrate reproduces."""
    return math.fsum(np.ravel(density).tolist()) * spec.cell_volume


def test_combined_gradient_is_bit_identical_under_the_fsum_rule(spec, monkeypatch):
    # appendix-b's lemma operators on its solutions and on a non-solution
    op_p, op_m = example_operators(spec)
    x = spec.axis_coords(0)
    rng = np.random.default_rng(3)
    fields = [np.exp(1j * x)[:, None], np.exp(-1j * x)[:, None],
              (1.0 + random_trig_poly(rng, base_for(spec), max_mode=3,
                                      amplitude=0.4)(spec.meshgrid()))[:, None]]
    probes = [(0,), (17,), (63,)]
    for u in fields:
        got = combined_action_gradient(op_p, op_m, u, probes)
        with monkeypatch.context() as mp:
            mp.setattr(LatticeSpec, "integrate", _fsum_integrate)
            want = combined_action_gradient(op_p, op_m, u, probes)
        assert got.tobytes() == want.tobytes()
