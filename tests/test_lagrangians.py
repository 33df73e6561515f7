import numpy as np
import pytest

from spinframe import lagrangians, torsion
from spinframe.errors import (
    DegenerateDenominator,
    NonFiniteTorsion,
    NonPositiveDensity,
    UnknownOption,
    VanishingDensity,
)
from spinframe.field_equations import dirac_apply, field_equation_residual_reduced, theorem1_check
from spinframe.grids import ModelParams, SpinorBundle, periodic_spec
from spinframe.lagrangians import (
    dirac_contraction,
    dirac_lagrangian,
    factorization_residual,
    lagrangian_4d,
    lagrangian_reduced,
)
from spinframe.sampling import (
    ScaledSpinor,
    SpinorPoly,
    base_for,
    covector_on,
    mode_bundle,
    random_covector_polys,
    random_positive_spinor,
    random_trig_poly,
)
from spinframe.torsion import axial_torsion_spinor, reduced_axial_torsion, spinor_contractions
from spinframe.variational import example_operators, first_order_lagrangian


@pytest.fixture
def spec():
    return periodic_spec(12, 2.0 * np.pi / 12, 3)


def _const_bundle(spec):
    return mode_bundle((1.0, 0.0), (0,) * 3, spec)


def test_constant_spinor_hand_values(spec):
    b = _const_bundle(spec)
    p = ModelParams(m=1.0)
    assert np.allclose(lagrangian_reduced(b, p, 1), 16.0 / 9.0)
    assert np.allclose(dirac_lagrangian(b, p, 1, +1), 1.0)
    assert np.allclose(dirac_lagrangian(b, p, 1, -1), -1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dirac_lagrangian_is_eta_dag_dirac_eta(seed):
    # L_rs = Re eta^dag D_rs eta, since eta^dag sigma^3 eta = rho: the
    # density's r A (torsion.dirac_term) against the operator's
    # (field_equations), with A varying over the grid
    spec = periodic_spec(8, 2.0 * np.pi / 8, 3)
    base = base_for(spec)
    rng = np.random.default_rng(seed)
    b = random_positive_spinor(rng, base, max_mode=2).bundle(spec)
    p = ModelParams(m=1.3, A=covector_on(random_covector_polys(rng, base), spec))
    for r in (1, -1):
        for s in (1, -1):
            want = np.sum(np.conj(b.values) * dirac_apply(b, p, r, s), axis=-1).real
            dev = np.max(np.abs(dirac_lagrangian(b, p, r, s) - want))
            assert dev <= 1e-13 * np.max(np.abs(want))


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
        b = random_positive_spinor(rng, base_for(spec4), max_mode=2).bundle(spec4)
        # the cross-assert inside raises on disagreement
        L = lagrangian_4d(b, spinor_contractions(b, ModelParams(m=1.0)))
        assert np.all(np.isfinite(L))


def test_reduced_lagrangian_rejects_negative_class(spec):
    b = mode_bundle((0.2, 1.0), (0,) * 3, spec)
    with pytest.raises(NonPositiveDensity):
        lagrangian_reduced(b, ModelParams(m=1.0), 1)


def test_factorization_degenerate_denominator(spec):
    # rho > 0 but tiny makes L+ - L- = 2 m rho vanish relative to max rho
    b = _const_bundle(spec)
    b.values[0, 0, 0, 0] = 1e-9  # one near-degenerate point
    with pytest.raises(DegenerateDenominator):
        factorization_residual(b, ModelParams(m=1.0), 1)


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


def _with_nan(dims: int, where: str) -> SpinorBundle:
    """A random positive 8^dims bundle with one NaN, in a spinor value (so
    rho is NaN there) or in a derivative (rho stays finite)."""
    spec = periodic_spec(8, 2.0 * np.pi / 8, dims)
    rng = np.random.default_rng(2)
    if dims == 3:
        b = random_positive_spinor(rng, base_for(spec), max_mode=2).bundle(spec)
    else:
        b = random_positive_spinor(rng, base_for(spec), max_mode=1).bundle(spec)
    values, derivs = b.values.copy(), b.derivs.copy()
    if where == "value":
        values[1, 2, 3, 0] = np.nan
    else:
        derivs[1, 2, 3, 1, 0] = np.nan
    return SpinorBundle(spec, values, derivs)


def _mixed_sign_with_nan_derivative() -> SpinorBundle:
    """An 8^3 bundle with c2 = 1 and c1 = 1 + a random amplitude-0.5 field,
    so rho runs from about -0.63 to 1.10, and one NaN derivative entry."""
    spec = periodic_spec(8, 2.0 * np.pi / 8, 3)
    q = random_trig_poly(np.random.default_rng(2), base_for(spec), max_mode=2, amplitude=0.5)
    wave = SpinorPoly(q, q.scale(0.0)).bundle(spec)
    b = mode_bundle((1.0, 1.0), (0,) * 3, spec)
    b = SpinorBundle(spec, b.values + wave.values, b.derivs + wave.derivs)
    assert np.min(b.rho) < 0.0 < np.max(b.rho)
    b.derivs[1, 2, 3, 1, 0] = np.nan
    return b


def _first_order_lagrangian_with_nan_derivative():
    spec1 = periodic_spec(16, 2.0 * np.pi / 16, 1)
    du = np.zeros((16, 1, 1), complex)
    du[5] = np.nan
    return first_order_lagrangian(example_operators(spec1)[0], np.ones((16, 1), complex), du)


_P = ModelParams(m=1.3)


def _reduced_torsion(b: SpinorBundle) -> np.ndarray:
    return reduced_axial_torsion(b, dirac_contraction(b, _P, 1).real)



def _lagrangian_4d(b):
    return lagrangian_4d(b, spinor_contractions(b, _P))


_NAN_CASES = {
    "value-lagrangian_reduced":
        (NonPositiveDensity, lambda: lagrangian_reduced(_with_nan(3, "value"), _P, 1)),
    "value-factorization_residual":
        (NonPositiveDensity, lambda: factorization_residual(_with_nan(3, "value"), _P, 1)),
    "value-reduced_axial_torsion":
        (NonPositiveDensity, lambda: _reduced_torsion(_with_nan(3, "value"))),
    "value-field_equation_residual_reduced":
        (NonPositiveDensity, lambda: field_equation_residual_reduced(
            _with_nan(3, "value"), _P, 1, np.zeros((8, 8, 8, 3)))),
    "value-theorem1_check":
        (NonPositiveDensity, lambda: theorem1_check(_with_nan(3, "value"), _P, 1)),
    "value-spinor_contractions":
        (VanishingDensity, lambda: spinor_contractions(_with_nan(4, "value"))),
    "value-dirac_lagrangian":
        (NonPositiveDensity, lambda: dirac_lagrangian(_with_nan(3, "value"), _P, 1, 1)),
    # a NaN derivative leaves rho finite; the torsion it reaches is NaN there
    "derivative-reduced_axial_torsion":
        (NonFiniteTorsion, lambda: _reduced_torsion(_with_nan(3, "derivative"))),
    "derivative-axial_torsion_spinor":
        (NonFiniteTorsion, lambda: axial_torsion_spinor(_with_nan(3, "derivative"))),
    # the densities compute their compact form from that torsion, so its
    # guard fires before the spelled/compact cross-assert
    "derivative-lagrangian_reduced":
        (NonFiniteTorsion, lambda: lagrangian_reduced(_with_nan(3, "derivative"), _P, 1)),
    "derivative-dirac_lagrangian":
        (NonFiniteTorsion, lambda: dirac_lagrangian(_with_nan(3, "derivative"), _P, 1, 1)),
    # where rho <= 0 somewhere the torsion is skipped; L_rs itself is guarded
    "derivative-dirac_lagrangian-mixed-sign-density":
        (NonFiniteTorsion, lambda: dirac_lagrangian(_mixed_sign_with_nan_derivative(), _P, 1, 1)),
    "derivative-lagrangian_4d":
        (NonFiniteTorsion, lambda: _lagrangian_4d(_with_nan(4, "derivative"))),
    "derivative-first_order_lagrangian":
        (AssertionError, _first_order_lagrangian_with_nan_derivative),
}


@pytest.mark.parametrize("error,call", list(_NAN_CASES.values()), ids=list(_NAN_CASES))
def test_a_nan_fails_the_density_guard_or_the_cross_assert(error, call):
    # NaN compares false with everything, so a guard written as
    # "raise if rho <= 0", "raise if dev > tol" or "check where rho > 0"
    # would let it through; the torsion guard is np.isfinite
    with pytest.raises(error):
        call()


def _bundle_with_field_A():
    spec = periodic_spec(8, 2.0 * np.pi / 8, 3)
    base = base_for(spec)
    rng = np.random.default_rng(9)
    b = random_positive_spinor(rng, base, max_mode=2).bundle(spec)
    return b, ModelParams(m=1.3, A=covector_on(random_covector_polys(rng, base), spec))


def test_each_density_sums_w_once(monkeypatch):
    # the compact form reads the spelled form's Re w instead of summing the
    # three dirac_term contractions again
    b, p = _bundle_with_field_A()
    calls = []
    original = torsion.dirac_term

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lagrangians, "dirac_term", counting)
    for expected, density in ((3, lambda r: lagrangian_reduced(b, p, r)),
                              (3, lambda r: dirac_lagrangian(b, p, r, 1)),
                              (9, lambda r: factorization_residual(b, p, r))):
        for r in (1, -1):
            calls.clear()
            density(r)
            assert len(calls) == expected
    # w is the sum of the three contractions, taken in order
    for r in (1, -1):
        np.testing.assert_array_equal(dirac_contraction(b, p, r),
                                      sum(original(b, p, r, alpha) for alpha in range(3)))


@pytest.mark.parametrize("call", [
    lambda b, p: dirac_contraction(b, p, 2),
    lambda b, p: dirac_lagrangian(b, p, 2, 1),
    lambda b, p: lagrangian_reduced(b, p, 2),
], ids=["dirac_contraction", "dirac_lagrangian", "lagrangian_reduced"])
def test_a_sign_r_other_than_plus_or_minus_one_is_rejected(call):
    b, p = _bundle_with_field_A()
    with pytest.raises(UnknownOption):
        call(b, p)
