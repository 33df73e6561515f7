import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinframe.algebra import (
    METRIC3,
    O3,
    SIGMA_LOWER,
    SIGMA_UPPER,
    coframe_map,
    verify_coframe,
)


def test_pauli_matrices_pinned():
    assert np.array_equal(SIGMA_LOWER[0], np.eye(2))
    assert np.array_equal(SIGMA_LOWER[1], np.array([[0, 1], [1, 0]]))
    assert np.array_equal(SIGMA_LOWER[2], np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(SIGMA_LOWER[3], np.diag([1, -1]))
    # raising with diag(-1,1,1,1): only the temporal one flips
    assert np.array_equal(SIGMA_UPPER[0], -np.eye(2))
    for k in (1, 2, 3):
        assert np.array_equal(SIGMA_UPPER[k], SIGMA_LOWER[k])


def test_density_values():
    # the coframe map's rho, |c1|^2 - |c2|^2, whose sign is the class
    _, rho = coframe_map(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]]))
    assert np.array_equal(rho, [1.0, -1.0, 3.0])


def test_unit_spinor_gives_identity_coframe():
    theta, rho = coframe_map(np.array([1.0 + 0j, 0.0]))
    assert rho == pytest.approx(1.0)
    assert np.allclose(theta, np.eye(3), atol=1e-15)


def _sigma_coframe(xi):
    """The per-alpha formula: theta^0_alpha = Re(xi^dag sigma_alpha xi) / rho
    and theta^1_alpha + i theta^2_alpha = xi^T sigma_1 sigma_alpha xi / rho,
    with rho = |xi_0|^2 - |xi_1|^2."""
    rho = np.abs(xi[..., 0]) ** 2 - np.abs(xi[..., 1]) ** 2
    theta = np.empty(xi.shape[:-1] + (3, 3))
    for alpha in range(3):
        s_xi = xi @ SIGMA_LOWER[alpha].T
        theta[..., 0, alpha] = np.einsum("...a,...a->...", xi.conj(), s_xi).real / rho
        w = np.einsum("...a,...a->...", xi @ SIGMA_LOWER[1].T, s_xi) / rho
        theta[..., 1, alpha] = w.real
        theta[..., 2, alpha] = w.imag
    return theta, rho


def test_coframe_map_matches_the_per_alpha_sigma_formula():
    rng = np.random.default_rng(23)
    xi = rng.normal(size=(10_000, 2)) + 1j * rng.normal(size=(10_000, 2))
    # a thousand spinors of either class with |xi_1| within 1e-3..1e-8 of |xi_0|
    near = slice(0, 1000)
    xi[near, 1] = (xi[near, 0] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 1000))
                   * (1.0 + rng.choice([-1.0, 1.0], 1000) * 10.0 ** -rng.uniform(3, 8, 1000)))
    theta, rho = coframe_map(xi)
    ref, ref_rho = _sigma_coframe(xi)
    np.testing.assert_array_equal(rho, ref_rho)
    # relative to |theta^0_0|, the largest entry of each Lorentz matrix
    scale = np.abs(ref[..., 0, 0])[:, None, None]
    assert np.max(np.abs(theta - ref) / scale) <= 1e-13
    assert np.max(scale[near]) > 1e7


def test_coframe_map_of_a_null_spinor_is_not_finite_and_silent():
    xi = np.array([[1.0, 1.0], [0.0, 0.0], [1j, 1.0], [2.0, 0.5j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta, rho = coframe_map(xi)
    assert np.array_equal(rho, [0.0, 0.0, 0.0, 3.75])
    assert not np.any(np.isfinite(theta[:3, 0, 0]))
    assert np.all(np.isfinite(theta[3]))


def test_coframe_scale_invariance():
    # theta depends only on the projective class: xi and c*xi give the same
    # coframe for real c
    xi = np.array([1.3 + 0.4j, 0.2 - 0.1j])
    t1, r1 = coframe_map(xi)
    t2, r2 = coframe_map(2.5 * xi)
    assert np.allclose(t1, t2, atol=1e-14)
    assert r2 == pytest.approx(2.5 ** 2 * r1)


def test_verify_coframe_on_random_batch():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2))
    a[:, 0] += np.sign(a[:, 0].real + 1e-300) * (np.abs(a[:, 1]) + 0.1)
    theta, rho = coframe_map(a)
    rep = verify_coframe(theta, rho)
    assert rep.oriented
    assert rep.max_orthonormality_deviation < 1e-12
    assert rep.det_deviation < 1e-12


def test_verify_coframe_flags_bad_input():
    theta = np.eye(3) * 1.01
    rep = verify_coframe(theta, 1.0)
    # 1.01^2 - 1 off the metric, 1.01^3 - 1 off det = 1; the frame is oriented
    assert rep.max_orthonormality_deviation == pytest.approx(1.01 ** 2 - 1.0, rel=1e-12)
    assert rep.det_deviation == pytest.approx(1.01 ** 3 - 1.0, rel=1e-12)
    assert rep.oriented
    assert not verify_coframe(theta, -1.0).oriented
    assert not verify_coframe(-theta, 1.0).oriented


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_coframe_constraints_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    a[0] += np.sign(a[0].real + 1e-300) * (abs(a[1]) + 0.1)
    theta, rho = coframe_map(a)
    gram = np.einsum("ja,j,jb->ab", theta, O3, theta)
    assert np.allclose(gram, np.diag(METRIC3), atol=1e-12)
    assert np.linalg.det(theta) == pytest.approx(1.0, abs=1e-12)
    assert theta[0, 0] > 0
    assert rho > 0
