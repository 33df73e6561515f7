"""The closed-form x3 lift xi = eta e^{-i k x3} against the product of
trigonometric polynomials it replaces, and its values-only form."""

import numpy as np
import pytest

from spinframe.grids import SpinorBundle, periodic_spec
from spinframe.sampling import (
    SpinorPoly,
    TrigPoly,
    base_for,
    lift_values_x3,
    lift_x3,
    random_positive_spinor,
)


def _separated_specs(m):
    n = 12
    spec3 = periodic_spec(n, 2.0 * np.pi / n, 3)
    spec4 = periodic_spec((n, n, n, 8), (2.0 * np.pi / n,) * 3 + (np.pi / m / 8,), 4)
    return spec3, spec4


def _lifted_poly(q: TrigPoly, k: float, base4) -> TrigPoly:
    """q(x0, x1, x2) e^{-i k x3} as one 4D polynomial: the frequency
    convolution of q, padded with an x3 column, and the one-mode phase."""
    phase = TrigPoly(np.array([[0.0, 0.0, 0.0, -k / base4[3]]]), np.array([1.0 + 0j]), base4)
    padded = np.hstack([q.freqs, np.zeros((len(q.freqs), 1))])
    freqs = (padded[:, None, :] + phase.freqs[None, :, :]).reshape(-1, 4)
    coeffs = (q.coeffs[:, None] * phase.coeffs[None, :]).ravel()
    return TrigPoly(freqs, coeffs, base4)


@pytest.mark.parametrize("m", [1.0, 1.3])
@pytest.mark.parametrize("seed", [0, 7])
def test_lift_matches_the_polynomial_product(m, seed):
    spec3, spec4 = _separated_specs(m)
    eta = random_positive_spinor(np.random.default_rng(seed), base_for(spec3), max_mode=2)
    base4 = base_for(spec4)
    ref = SpinorPoly(_lifted_poly(eta.c1, m, base4), _lifted_poly(eta.c2, m, base4)).bundle(spec4)
    xi = lift_x3(eta.bundle(spec3), spec4, m)
    assert xi.spec == spec4
    assert xi.values.shape == spec4.extents + (2,)
    assert xi.derivs.shape == spec4.extents + (4, 2)
    for got, want in [(xi.values, ref.values)] \
            + [(xi.derivs[..., a, :], ref.derivs[..., a, :]) for a in range(4)]:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # grid-minor: every component slice is one contiguous block
    for k in range(2):
        assert xi.values[..., k].flags.c_contiguous
        for a in range(4):
            assert xi.derivs[..., a, k].flags.c_contiguous


@pytest.mark.parametrize("m", [1.0, 1.3])
def test_values_only_lift_is_bit_identical_to_the_bundle_lift(m):
    spec3, spec4 = _separated_specs(m)
    rng = np.random.default_rng(3)
    b3 = random_positive_spinor(rng, base_for(spec3), max_mode=2).bundle(spec3)
    # a bundle's own values, and a residual wrapped in a bundle whose
    # derivative slots nobody reads
    residual = rng.normal(size=spec3.extents + (2,)) + 1j * rng.normal(size=spec3.extents + (2,))
    for values, bundle in ((b3.values, b3),
                           (residual, SpinorBundle(spec3, residual, np.zeros_like(b3.derivs)))):
        got = lift_values_x3(values, spec4, m)
        assert got.shape == spec4.extents + (2,)
        assert got.tobytes() == lift_x3(bundle, spec4, m).values.tobytes()
        for k in range(2):
            assert got[..., k].flags.c_contiguous
