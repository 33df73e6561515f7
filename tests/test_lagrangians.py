import numpy as np
import pytest

from spinframe.errors import DegenerateDenominator, NonPositiveDensity
from spinframe.grids import ModelParams, periodic_spec
from spinframe.lagrangians import (
    dirac_lagrangian,
    factorization_residual,
    lagrangian_4d,
    lagrangian_reduced,
)
from spinframe.sampling import (
    ScaledSpinor,
    SpinorPoly,
    base_for,
    constant_poly,
    covector_on,
    random_covector_polys,
    random_positive_spinor,
    random_positive_spinor_4d,
    random_trig_poly,
)


@pytest.fixture
def spec():
    return periodic_spec(12, 2.0 * np.pi / 12, 3)


def _const_bundle(spec):
    base = base_for(spec)
    return SpinorPoly(constant_poly(1.0, base), constant_poly(0.0, base)).bundle(spec)


def test_constant_spinor_hand_values(spec):
    b = _const_bundle(spec)
    p = ModelParams(m=1.0)
    assert np.allclose(lagrangian_reduced(b, p, 1), 16.0 / 9.0)
    assert np.allclose(dirac_lagrangian(b, p, 1, +1), 1.0)
    assert np.allclose(dirac_lagrangian(b, p, 1, -1), -1.0)


def test_factorization_exact_on_constants(spec):
    b = _const_bundle(spec)
    res = factorization_residual(b, ModelParams(m=1.0), 1)
    assert np.max(np.abs(res)) == 0.0


def test_factorization_on_random_fields_with_potential(spec):
    base = base_for(spec)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sp = random_positive_spinor(rng, base, max_mode=2)
        A = covector_on(random_covector_polys(rng, base), spec)
        p = ModelParams(m=1.3, A=A)
        b = sp.bundle(spec)
        for r in (1, -1):
            res = factorization_residual(b, p, r)
            assert np.max(np.abs(res)) < 1e-12


def test_dirac_difference_is_twice_m_rho(spec):
    rng = np.random.default_rng(4)
    b = random_positive_spinor(rng, base_for(spec), max_mode=2).bundle(spec)
    p = ModelParams(m=1.7)
    lp = dirac_lagrangian(b, p, 1, +1)
    lm = dirac_lagrangian(b, p, 1, -1)
    assert np.max(np.abs(lp - lm - 2.0 * p.m * b.rho)) < 1e-13


def test_lagrangian_4d_spelled_equals_norm_form():
    spec4 = periodic_spec(8, 2.0 * np.pi / 8, 4)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        b = random_positive_spinor_4d(rng, spec4, max_mode=2).bundle(spec4)
        # the cross-assert inside raises on disagreement
        L = lagrangian_4d(b, ModelParams(m=1.0))
        assert np.all(np.isfinite(L))


def test_reduced_lagrangian_rejects_negative_class(spec):
    base = base_for(spec)
    b = SpinorPoly(constant_poly(0.2, base), constant_poly(1.0, base)).bundle(spec)
    with pytest.raises(NonPositiveDensity):
        lagrangian_reduced(b, ModelParams(m=1.0), 1)


def test_factorization_degenerate_denominator(spec):
    # rho > 0 but tiny makes L+ - L- = 2 m rho vanish relative to max rho
    base = base_for(spec)
    c1 = constant_poly(1.0, base)
    b = SpinorPoly(c1, constant_poly(0.0, base)).bundle(spec)
    b.values = b.values.copy()
    b.values[0, 0, 0, 0] = 1e-9  # one near-degenerate point
    with pytest.raises(DegenerateDenominator):
        factorization_residual(b, ModelParams(m=1.0), 1, denom_tol=1e-12)


def test_scaling_covariance_reduced_and_dirac(spec):
    base = base_for(spec)
    p = ModelParams(m=1.0)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        sp = random_positive_spinor(rng, base, max_mode=2)
        h = random_trig_poly(rng, base, max_mode=2, amplitude=0.4, real=True)
        plain = sp.bundle(spec)
        scaled = ScaledSpinor(sp, h).bundle(spec)
        e2h = np.exp(2.0 * h(spec.meshgrid()).real)
        for fn in (lambda b: lagrangian_reduced(b, p, 1),
                   lambda b: dirac_lagrangian(b, p, 1, +1),
                   lambda b: dirac_lagrangian(b, p, -1, -1)):
            dev = np.max(np.abs(fn(scaled) - e2h * fn(plain)))
            assert dev < 1e-12 * max(1.0, np.max(np.abs(fn(plain) * e2h)))


def test_discrete_action_of_constant(spec):
    b = _const_bundle(spec)
    L = lagrangian_reduced(b, ModelParams(m=1.0), 1)
    a = spec.integrate(L)
    vol = spec.cell_volume * np.prod(spec.extents)
    assert a == pytest.approx(16.0 / 9.0 * vol, rel=1e-14)
