"""The fast pointwise kernels against the formulas they replace.

TrigPoly's phase-table path is compared with its per-mode loop, the Pauli
kernels with numpy's einsum and matmul, and LatticeSpec.meshgrid's views
with numpy's copied meshgrid.
"""

import numpy as np
import pytest

from spinframe import pauli
from spinframe.algebra import SIGMA_LOWER, SIGMA_UPPER
from spinframe.grids import LatticeSpec, periodic_spec
from spinframe.sampling import TrigPoly, base_for, random_trig_poly
from spinframe.torsion import sigma_contract

EPS = np.finfo(float).eps

GRIDS = {
    1: periodic_spec(24, 2.0 * np.pi / 24, 1),
    3: LatticeSpec((8, 6, 5), (0.7, 0.3, 1.1), (True, True, False)),
    4: periodic_spec((6, 5, 4, 3), (0.5, 0.4, 0.9, 1.3), 4),
}


def _poly(dims: int, integer: bool, seed: int = 0) -> TrigPoly:
    rng = np.random.default_rng(seed)
    p = random_trig_poly(rng, base_for(GRIDS[dims]), max_mode=3, n_modes=7)
    if integer:
        return p
    return TrigPoly(p.freqs + rng.uniform(-0.5, 0.5, size=p.freqs.shape), p.coeffs, p.base)


def _coords(spec: LatticeSpec, layout: str):
    axes = [spec.axis_coords(a) for a in range(spec.dims)]
    if layout == "view":
        return spec.meshgrid()
    if layout == "sparse":
        return np.meshgrid(*axes, indexing="ij", sparse=True)
    return [c.copy() for c in np.meshgrid(*axes, indexing="ij")]


@pytest.mark.parametrize("dims", sorted(GRIDS))
@pytest.mark.parametrize("integer", [True, False])
@pytest.mark.parametrize("layout", ["view", "copy", "sparse"])
def test_table_path_matches_per_mode_loop(dims, integer, layout):
    spec = GRIDS[dims]
    p = _poly(dims, integer, seed=dims)
    coords = _coords(spec, layout)
    reference = p._mode_sum(_coords(spec, "copy"))
    got = p(coords)
    assert got.shape == spec.extents
    assert got.dtype == complex
    assert np.max(np.abs(got - reference)) <= 1e-14


@pytest.mark.parametrize("dims", sorted(GRIDS))
def test_table_path_taken_only_for_axis_aligned_coordinates(dims):
    spec = GRIDS[dims]
    p = _poly(dims, True)
    assert p._axis_vectors(_coords(spec, "view")) is not None
    assert p._axis_vectors(_coords(spec, "sparse")) is not None
    # a full copy varies along every axis in memory; only 1-D qualifies
    assert (p._axis_vectors(_coords(spec, "copy")) is not None) == (dims == 1)


def test_per_mode_fallback_for_mismatched_coordinates():
    spec = GRIDS[3]
    p = _poly(3, True)
    x = spec.meshgrid()
    # coordinates of a 4D grid for a 3D polynomial, and a scalar coordinate
    four = periodic_spec((8, 6, 5, 2), (0.7, 0.3, 1.1, 1.0), 4).meshgrid()
    assert p._axis_vectors(four) is None
    np.testing.assert_array_equal(p(four), p._mode_sum(four))
    mixed = (x[0], 0.5, x[2])
    assert p._axis_vectors(mixed) is None
    np.testing.assert_array_equal(p(mixed), p._mode_sum(mixed))


def test_meshgrid_views_equal_copied_meshgrid():
    for spec in GRIDS.values():
        axes = [spec.axis_coords(a) for a in range(spec.dims)]
        old = np.meshgrid(*axes, indexing="ij")
        new = spec.meshgrid()
        assert len(new) == len(old)
        for o, n in zip(old, new):
            assert n.shape == o.shape
            np.testing.assert_array_equal(n, o)
            assert not n.flags.writeable


def _matrices():
    rng = np.random.default_rng(5)
    random = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    named = [(f"lower{k}", SIGMA_LOWER[k]) for k in range(4)]
    named += [(f"upper{k}", SIGMA_UPPER[k]) for k in range(4)]
    return named + [("random", random)]


@pytest.mark.parametrize("name,sig", _matrices())
def test_sigma_contract_matches_einsum(name, sig):
    rng = np.random.default_rng(6)
    shape = (5, 4, 3, 2)
    xi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    other = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = np.einsum("...a,ab,...b->...", np.conj(xi), sig, other)
    got = sigma_contract(sig, xi, other)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 8 * EPS * np.max(np.abs(want))


@pytest.mark.parametrize("name,sig", _matrices())
def test_pauli_apply_matches_matmul(name, sig):
    rng = np.random.default_rng(7)
    v = rng.normal(size=(6, 5, 2)) + 1j * rng.normal(size=(6, 5, 2))
    want = v @ sig.T
    got = pauli.apply(sig, v)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 8 * EPS * np.max(np.abs(want))
    c0, c1 = pauli.components(sig, v)
    np.testing.assert_array_equal(np.stack([c0, c1], axis=-1), got)


def test_component_major_keeps_values_and_makes_components_contiguous():
    rng = np.random.default_rng(9)
    derivs = rng.normal(size=(5, 4, 3, 4, 2)) + 1j * rng.normal(size=(5, 4, 3, 4, 2))
    v = derivs[..., 3, :]
    assert not v[..., 0].flags.c_contiguous
    got = pauli.component_major(v)
    assert got.shape == v.shape
    np.testing.assert_array_equal(got, v)
    assert got[..., 0].flags.c_contiguous and got[..., 1].flags.c_contiguous
    assert not np.shares_memory(got, derivs)
