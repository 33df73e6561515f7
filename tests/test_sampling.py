"""The closed-form x3 lift xi = eta e^{-i k x3} against a per-mode sum of
the lifted field, and its values-only form."""

import numpy as np
import pytest

from spinframe.grids import SpinorBundle, periodic_spec
from spinframe.sampling import (
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


def _lifted_mode_sum(q: TrigPoly, k: float, spec4) -> tuple[np.ndarray, np.ndarray]:
    """q(x0, x1, x2) e^{-i k x3} on spec4 and its four derivatives, (*n4,)
    and (*n4, 4): one full-grid exp per mode of q, with the x3 phase folded
    into each mode's wave vector."""
    x = spec4.meshgrid()
    vals = np.zeros(spec4.extents, complex)
    derivs = np.zeros(spec4.extents + (4,), complex)
    for freq, c in zip(q.freqs, q.coeffs):
        kw = np.append(freq * q.base, -k)
        term = c * np.exp(1j * sum(kw[a] * x[a] for a in range(4)))
        vals += term
        derivs += 1j * kw * term[..., None]
    return vals, derivs


@pytest.mark.parametrize("m", [1.0, 1.3])
@pytest.mark.parametrize("seed", [0, 7])
def test_lift_matches_the_polynomial_product(m, seed):
    spec3, spec4 = _separated_specs(m)
    eta = random_positive_spinor(np.random.default_rng(seed), base_for(spec3), max_mode=2)
    xi = lift_x3(eta.bundle(spec3), spec4, m)
    assert xi.spec == spec4
    assert xi.values.shape == spec4.extents + (2,)
    assert xi.derivs.shape == spec4.extents + (4, 2)
    for comp, q in enumerate((eta.c1, eta.c2)):
        vals, derivs = _lifted_mode_sum(q, m, spec4)
        for got, want in [(xi.values[..., comp], vals)] \
                + [(xi.derivs[..., a, comp], derivs[..., a]) for a in range(4)]:
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
