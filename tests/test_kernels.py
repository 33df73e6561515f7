"""The fast pointwise kernels against the formulas they replace.

TrigPoly's phase-table evaluation is compared with a per-mode sum written
here, the Pauli kernels with numpy's einsum and matmul, and
LatticeSpec.meshgrid with numpy's sparse meshgrid.  The producers
build grid-minor arrays (contiguous component slices), and the kernels
give the same numbers on any layout and with the product by a zero A left
out.
"""

import numpy as np
import pytest

from spinframe import field_equations, pauli
from spinframe.algebra import SIGMA3, SIGMA_LOWER, SIGMA_UPPER, coframe_map
from spinframe.errors import ConfigInvalid, InvalidGrid
from spinframe.field_equations import dirac_apply, field_equation_residual_4d
from spinframe.grids import (
    BACKENDS,
    CoframeBundle,
    LatticeField,
    LatticeSpec,
    ModelParams,
    SpinorBundle,
    derivatives,
    periodic_spec,
    wedge,
)
from spinframe.lagrangians import dirac_contraction, dirac_lagrangian
from spinframe.plane_waves import PlaneWaveLabel, boosted_wave, plane_wave_spinor
from spinframe.sampling import (
    ScaledSpinor,
    TrigPoly,
    base_for,
    covector_on,
    random_covector_polys,
    random_positive_spinor,
    random_trig_poly,
)
from spinframe.torsion import (
    _coframe_chain_derivs,
    _row_forms,
    reduced_axial_torsion,
    spinor_contractions,
)

EPS = np.finfo(float).eps

GRIDS = {
    1: periodic_spec(24, 2.0 * np.pi / 24, 1),
    3: periodic_spec((8, 6, 5), (0.7, 0.3, 1.1), 3),
    4: periodic_spec((6, 5, 4, 3), (0.5, 0.4, 0.9, 1.3), 4),
}


def _poly(dims: int, real: bool, seed: int = 0) -> TrigPoly:
    rng = np.random.default_rng(seed)
    return random_trig_poly(rng, base_for(GRIDS[dims]), 3, 1.0, real=real)


def _coords(spec: LatticeSpec, layout: str):
    axes = [spec.axis_coords(a) for a in range(spec.dims)]
    if layout == "view":
        return spec.meshgrid()
    if layout == "sparse":
        return np.meshgrid(*axes, indexing="ij", sparse=True)
    return [c.copy() for c in np.meshgrid(*axes, indexing="ij")]


def _mode_sum(p: TrigPoly, coords) -> np.ndarray:
    """The reference: one full-grid exp per mode, on any coordinates that
    broadcast."""
    out = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in coords)), dtype=complex)
    for k, c in zip(p.freqs, p.coeffs):
        phase = sum(k[a] * p.base[a] * np.asarray(coords[a]) for a in range(p.dims))
        out += c * np.exp(1j * phase)
    return out


# a dense copy of the coordinates is a sparse axis only on a 1D grid; a
# complex and a hermitized (real) polynomial per layout and grid
@pytest.mark.parametrize("layout,real,dims", [
    (layout, real, dims) for layout in ("view", "sparse", "copy")
    for real in (True, False) for dims in sorted(GRIDS)
    if layout != "copy" or dims == 1])
def test_table_path_matches_per_mode_loop(layout, real, dims):
    spec = GRIDS[dims]
    p = _poly(dims, real, seed=dims)
    coords = _coords(spec, layout)
    reference = _mode_sum(p, _coords(spec, "copy"))
    got = p(coords)
    assert got.shape == spec.extents
    assert got.dtype == complex
    assert np.max(np.abs(got - reference)) <= 1e-14


def test_non_integer_modes_raise_invalid_grid():
    p = _poly(3, False)
    for freqs in (p.freqs + 0.25, p.freqs.astype(float)):
        with pytest.raises(InvalidGrid, match="integers"):
            TrigPoly(freqs, p.coeffs, p.base)


@pytest.mark.parametrize("dims", sorted(GRIDS))
def test_table_path_taken_only_for_axis_aligned_coordinates(dims):
    spec = GRIDS[dims]
    p = _poly(dims, False)
    assert len(p._axis_vectors(_coords(spec, "view"))) == dims
    assert len(p._axis_vectors(_coords(spec, "sparse"))) == dims
    # a dense copy is a sparse axis only on a 1D grid
    copy = _coords(spec, "copy")
    if dims == 1:
        assert len(p._axis_vectors(copy)) == 1
    else:
        with pytest.raises(InvalidGrid):
            p(copy)


def test_mismatched_coordinates_raise_invalid_grid():
    spec = GRIDS[3]
    p = _poly(3, False)
    x = spec.meshgrid()
    # coordinates of a 4D grid for a 3D polynomial, a scalar coordinate, an
    # empty grid, a 1-D axis on a 3D grid, an axis in another axis's slot,
    # an array varying along two axes and a dense copy of an axis
    four = periodic_spec((8, 6, 5, 2), (0.7, 0.3, 1.1, 1.0), 4).meshgrid()
    empty = tuple(np.empty((0, 1, 1)) for _ in range(3))
    for coords in (four, (x[0], 0.5, x[2]), empty, (spec.axis_coords(0), x[1], x[2]),
                   (x[1], x[0], x[2]), (x[0] + x[1], x[1], x[2]),
                   (np.broadcast_to(x[0], spec.extents), x[1], x[2])):
        with pytest.raises(InvalidGrid):
            p(coords)


def test_meshgrid_is_numpy_sparse_meshgrid():
    for spec in GRIDS.values():
        axes = [spec.axis_coords(a) for a in range(spec.dims)]
        want = np.meshgrid(*axes, indexing="ij", sparse=True)
        got = spec.meshgrid()
        assert len(got) == len(want)
        for w, g in zip(want, got):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)


def _matrices():
    named = [(f"lower{k}", SIGMA_LOWER[k]) for k in range(4)]
    named += [(f"upper{k}", SIGMA_UPPER[k]) for k in range(4)]
    # a random complex entry in the anti-diagonal b = -a pattern, so the
    # scaling is by neither +-1 nor +-i
    rng = np.random.default_rng(5)
    a = rng.normal() + 1j * rng.normal()
    return named + [("random", np.array([[0.0, a], [-a, 0.0]]))]


@pytest.mark.parametrize("name,sig", _matrices())
def test_sigma_contract_matches_einsum(name, sig):
    rng = np.random.default_rng(6)
    shape = (5, 4, 3, 2)
    xi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    other = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = np.einsum("...a,ab,...b->...", np.conj(xi), sig, other)
    got = pauli.contract(sig, xi, other)
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


def _off_pattern():
    rng = np.random.default_rng(5)
    random = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return [("random", random), ("diagonal", np.diag([1.0, 2.0])),
            ("anti-diagonal", np.array([[0.0, 1.0], [1j, 0.0]]))]


@pytest.mark.parametrize("name,sig", _off_pattern())
def test_kernels_reject_a_matrix_outside_the_pauli_pattern(name, sig):
    # only a diagonal or anti-diagonal matrix with entries b = +-a has a kernel
    v = np.random.default_rng(7).normal(size=(6, 5, 2)) + 0j
    for kernel in (lambda: pauli.contract(sig, v, v), lambda: pauli.apply(sig, v),
                   lambda: pauli.components(sig, v)):
        with pytest.raises(ConfigInvalid):
            kernel()


def _grid_minor_slices(a: np.ndarray, dims: int) -> bool:
    """Every slice of a that fixes all tail indices is C-contiguous."""
    return all(a[(Ellipsis,) + idx].flags.c_contiguous
               for idx in np.ndindex(a.shape[dims:]))


@pytest.mark.parametrize("shape,dims", [((5, 4, 3, 2), 3), ((5, 4, 3, 6, 4, 2), 4),
                                        ((7, 3), 1), ((4, 5), 2)])
def test_grid_minor_has_requested_shape_and_contiguous_slices(shape, dims):
    a = pauli.grid_minor(shape, dims, complex)
    assert a.shape == shape and a.dtype == complex
    assert _grid_minor_slices(a, dims)
    b = pauli.grid_minor(shape, dims, float)
    assert b.dtype == float and _grid_minor_slices(b, dims)


def _layout_spinor(spec):
    rng = np.random.default_rng(11)
    return random_positive_spinor(rng, base_for(spec), max_mode=2)


@pytest.mark.parametrize("dims", (3, 4))
def test_spinor_poly_bundles_are_grid_minor(dims):
    spec = GRIDS[dims]
    sp = _layout_spinor(spec)
    h = random_trig_poly(np.random.default_rng(15), base_for(spec), 3, 1.0, real=True)
    for b in (sp.bundle(spec), ScaledSpinor(sp, h).bundle(spec)):
        assert b.values.shape == spec.extents + (2,)
        assert b.derivs.shape == spec.extents + (dims, 2)
        assert _grid_minor_slices(b.values, dims)
        assert _grid_minor_slices(b.derivs, dims)


@pytest.mark.parametrize("backend", BACKENDS)
def test_from_grid_bundle_is_grid_minor(backend):
    spec = periodic_spec((6, 5, 4), (0.5, 0.4, 0.9), 3)
    values = _layout_spinor(spec).bundle(spec).values
    b = SpinorBundle.from_grid(spec, values) if backend == "spectral" \
        else SpinorBundle(spec, values, derivatives(values, spec, backend))
    assert b.derivs.shape == spec.extents + (3, 2)
    assert _grid_minor_slices(b.values, 3) and _grid_minor_slices(b.derivs, 3)


def test_covector_on_is_grid_minor():
    spec = GRIDS[3]
    rng = np.random.default_rng(13)
    polys = random_covector_polys(rng, base_for(spec))
    A = covector_on(polys, spec)
    assert A.shape == spec.extents + (3,) and A.dtype == float
    assert _grid_minor_slices(A, 3)
    for i, p in enumerate(polys):
        np.testing.assert_array_equal(A[..., i], p(spec.meshgrid()).real)


def test_plane_and_boosted_waves_are_grid_minor():
    spec = periodic_spec(8, 2.0 * np.pi / 8, 3)
    for b in (plane_wave_spinor(PlaneWaveLabel(1, -1, 1.0, 0.0), spec),
              boosted_wave((3, 2, -2), 1, 1.0, spec)):
        assert _grid_minor_slices(b.values, 3) and _grid_minor_slices(b.derivs, 3)


def test_coframe_map_theta_is_grid_minor():
    rng = np.random.default_rng(17)
    # the coframe suite's (n, 2) input, a 4D bundle's values and one spinor
    for xi, dims in ((rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2)), 1),
                     (_layout_spinor(GRIDS[4]).bundle(GRIDS[4]).values, 4),
                     (np.array([1.0 + 0.5j, 0.25j]), 0)):
        theta, rho = coframe_map(xi)
        assert theta.shape == xi.shape[:-1] + (3, 3) and rho.shape == xi.shape[:-1]
        assert _grid_minor_slices(theta, dims)


@pytest.mark.parametrize("dims", (3, 4))
def test_chain_dtheta_row_forms_and_wedge_are_grid_minor(dims):
    spec = GRIDS[dims]
    b = _layout_spinor(spec).bundle(spec)
    theta, rho = coframe_map(b.values)
    dtheta = _coframe_chain_derivs(b, theta, rho)
    assert dtheta.shape == spec.extents + (dims, 3, 3)
    assert _grid_minor_slices(dtheta, dims)
    for cb in (CoframeBundle(spec, theta, lambda j, p: dtheta[..., j, p]),
               CoframeBundle.from_grid(spec, theta, "stencil")):
        for j in range(3):
            row, drow = _row_forms(cb, j)
            assert row.values.shape == spec.extents + (dims,)
            assert _grid_minor_slices(row.values, dims)
            assert _grid_minor_slices(drow.values, dims)
            term = wedge(row, drow)
            assert term.values.shape == spec.extents + (1 if dims == 3 else 4,)
            assert _grid_minor_slices(term.values, dims)
    # a C-ordered operand gives a grid-minor wedge all the same
    c = LatticeField(spec, 1, np.ascontiguousarray(_row_forms(cb, 0)[0].values))
    assert _grid_minor_slices(wedge(c, c).values, dims)


def test_rotation_covector_and_4d_residual_are_grid_minor():
    spec = GRIDS[4]
    b = _layout_spinor(spec).bundle(spec)
    p = ModelParams(m=1.2, A=0.3 * np.random.default_rng(18).normal(size=spec.extents + (3,)))
    con = spinor_contractions(b, p)
    assert con.u.shape == spec.extents + (3,) and _grid_minor_slices(con.u, 4)
    dt = derivatives(con.t, spec, "spectral")
    du = derivatives(con.u, spec, "spectral")[..., 3, :]
    res = field_equation_residual_4d(b, p, dt, du)
    assert res.shape == spec.extents + (2,) and _grid_minor_slices(res, 4)
    # C-ordered gradients give the same numbers
    np.testing.assert_array_equal(
        field_equation_residual_4d(b, p, np.ascontiguousarray(dt), np.ascontiguousarray(du)),
        res)


def test_hand_built_bundle_gives_the_same_theta_and_dtheta():
    spec = GRIDS[4]
    b = _layout_spinor(spec).bundle(spec)
    c = _hand_built(b)
    theta, rho = coframe_map(b.values)
    theta_c, rho_c = coframe_map(c.values)
    np.testing.assert_array_equal(theta_c, theta)
    np.testing.assert_array_equal(rho_c, rho)
    np.testing.assert_array_equal(_coframe_chain_derivs(c, theta_c, rho_c),
                                  _coframe_chain_derivs(b, theta, rho))


def test_variational_probe_copy_keeps_the_grid_minor_layout(monkeypatch):
    spec = periodic_spec(4, 2.0 * np.pi / 4, 3)
    values = plane_wave_spinor(PlaneWaveLabel(1, 1, 1.0, 0.0), spec).values
    seen = []
    original = field_equations._action_from_values

    def spy(v, *args):
        seen.append(_grid_minor_slices(v, 3) and not np.shares_memory(v, values))
        return original(v, *args)

    monkeypatch.setattr(field_equations, "_action_from_values", spy)
    field_equations.discrete_variational_derivative("reduced", values, spec,
                                                    ModelParams(m=1.0), [(1, 2, 3)])
    assert seen and all(seen)


def _hand_built(b: SpinorBundle) -> SpinorBundle:
    """The same bundle with C-ordered arrays: components next to each other."""
    return SpinorBundle(b.spec, np.ascontiguousarray(b.values), np.ascontiguousarray(b.derivs))


def _operator_terms(b: SpinorBundle, A, r: int):
    """sigma^alpha (i d + r A)_alpha eta per alpha, with the A term always
    added, as the kernels did before they skipped a zero component of A."""
    A = np.asarray(A, dtype=float)
    return [1j * b.derivs[..., alpha, :] + (r * A[..., alpha])[..., None] * b.values
            for alpha in range(3)]


def test_zero_A_kernels_are_bit_identical_to_the_full_products():
    spec = periodic_spec((6, 5, 4), (0.5, 0.4, 0.9), 3)
    b = _layout_spinor(spec).bundle(spec)
    rho = b.rho
    for A in (np.zeros(3), np.zeros(spec.extents + (3,))):
        p = ModelParams(m=1.3, A=A)
        for r, s in ((1, 1), (-1, 1), (1, -1)):
            ops = _operator_terms(b, A, r)
            w = 0.0
            for alpha, op in enumerate(ops):
                w = w + pauli.contract(SIGMA_UPPER[alpha], b.values, op)
            first = sum(pauli.apply(SIGMA_UPPER[alpha], op) for alpha, op in enumerate(ops))
            for bundle in (b, _hand_built(b)):
                np.testing.assert_array_equal(
                    reduced_axial_torsion(bundle, dirac_contraction(bundle, p, r).real),
                    -4.0 * w.real / (3.0 * rho))
                np.testing.assert_array_equal(
                    dirac_lagrangian(bundle, p, r, s), w.real + s * p.m * rho)
                np.testing.assert_array_equal(
                    dirac_apply(bundle, p, r, s),
                    first + s * p.m * pauli.apply(SIGMA3, b.values))


def test_kernels_give_the_same_numbers_on_a_hand_built_bundle():
    spec = GRIDS[4]
    rng = np.random.default_rng(14)
    b = random_positive_spinor(rng, base_for(spec), max_mode=2).bundle(spec)
    p = ModelParams(m=1.1, A=0.2 * rng.normal(size=spec.extents + (3,)))
    c = _hand_built(b)
    con = spinor_contractions(b, p)
    dt = derivatives(con.t, spec, "spectral")
    du = derivatives(con.u, spec, "spectral")[..., 3, :]
    np.testing.assert_array_equal(field_equation_residual_4d(c, p, dt, du),
                                  field_equation_residual_4d(b, p, dt, du))
