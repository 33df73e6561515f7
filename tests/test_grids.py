import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinframe.errors import (
    InvalidGrid,
    SpinframeError,
    RankMismatch,
    RankOverflow,
    UnsupportedRank,
)
from spinframe.grids import (
    BACKENDS,
    CoframeBundle,
    LatticeField,
    LatticeSpec,
    SpinorBundle,
    _axis_derivative,
    _fourier_matrix,
    derivatives,
    form_components,
    hodge_dual,
    lorentz_dot,
    periodic_spec,
    spectral_derivative,
    wedge,
)
from spinframe import torsion
from spinframe.algebra import coframe_map
from spinframe.pauli import grid_minor
from spinframe.sampling import base_for, lift_values_x3, lift_x3, random_positive_spinor
from spinframe.torsion import _coframe_chain_derivs, axial_torsion_coframe, kk_decomposition_check


@pytest.fixture
def spec3():
    return periodic_spec(16, 2.0 * np.pi / 16, 3)


def _coords(spec):
    return spec.meshgrid()


def test_form_components_order():
    assert form_components(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert form_components(4, 3) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_stencil_derivative_orders(spec3):
    x = np.broadcast_arrays(*_coords(spec3))
    f = np.sin(2.0 * x[1])
    exact = 2.0 * np.cos(2.0 * x[1])
    e2 = np.max(np.abs(derivatives(f, spec3, "stencil")[..., 1] - exact))
    e4 = np.max(np.abs(derivatives(f, spec3, "stencil4")[..., 1] - exact))
    # second-order truncation bound k^3 h^2 / 6
    h = spec3.spacing[1]
    assert e2 <= 8.0 * h ** 2 / 6.0 * 1.0001
    assert e4 < e2 / 3.0


# the central differences as offsets and weights
_ROLL_STENCILS = {"stencil": ([1], [0.5]), "stencil4": ([1, 2], [2.0 / 3.0, -1.0 / 12.0])}


def _rolled_derivative(values, spec, axis, backend):
    """The reference stencil: ((roll(v, -k) - roll(v, k)) * w / h) summed
    over the offsets k, built in the promoted dtype."""
    out = None
    for k, w in zip(*_ROLL_STENCILS[backend]):
        term = np.roll(values, -k, axis=axis).astype(np.promote_types(values.dtype, float))
        term -= np.roll(values, k, axis=axis)
        term *= w
        term /= spec.spacing[axis]
        out = term if out is None else out + term
    return out


# every length 1-6 on every axis position of 1D-4D grids, so the
# stencils wrap on axes shorter than their reach (n < 2k)
_STENCIL_EXTENTS = ([(n,) for n in range(1, 7)]
                    + [(1, 6), (6, 1), (2, 5), (5, 2), (3, 4), (4, 3)]
                    + [(1, 2, 3), (4, 5, 6), (6, 1, 5), (2, 3, 4), (5, 6, 1), (3, 4, 2)]
                    + [(1, 2, 3, 4), (5, 6, 1, 2), (3, 4, 5, 6), (6, 5, 4, 3), (2, 1, 6, 5),
                       (4, 3, 2, 1)])


@pytest.mark.parametrize("backend", ("stencil", "stencil4"))
@pytest.mark.parametrize("kind", ("real", "complex", "integer"))
@pytest.mark.parametrize("extents", _STENCIL_EXTENTS, ids=str)
def test_stencils_are_bit_identical_to_the_roll_formula(extents, kind, backend):
    dims = len(extents)
    spec = periodic_spec(extents, [0.7 + 0.3 * a for a in range(dims)], dims)
    rng = np.random.default_rng(sum(extents))
    for tail in ((), (2,)):
        shape = spec.extents + tail
        if kind == "integer":
            values = rng.integers(-1000, 1000, size=shape)
        else:
            values = rng.normal(size=shape)
            if kind == "complex":
                values = values + 1j * rng.normal(size=shape)
        got = derivatives(values, spec, backend)
        assert got.dtype == (complex if kind == "complex" else float)
        for a in range(dims):
            ref = _rolled_derivative(values, spec, a, backend)
            slot = got[(slice(None),) * dims + (a,)]
            assert np.ascontiguousarray(slot).tobytes() == ref.tobytes()


def _spectral(values, spec, axis):
    """spectral_derivative into a new grid-minor array of the values' shape."""
    out = grid_minor(values.shape, spec.dims, np.promote_types(values.dtype, float))
    return spectral_derivative(values, spec, axis, out)


def test_spectral_derivative_exact_on_modes(spec3):
    x = _coords(spec3)
    f = np.exp(1j * (2 * x[0] - 3 * x[2]))
    d = _spectral(f, spec3, 2)
    assert np.max(np.abs(d - (-3j) * f)) < 1e-12


def _fft_derivative(values, spec, axis):
    """The rule as an FFT: transform, times i k, inverse transform."""
    k = 2.0 * np.pi * np.fft.fftfreq(spec.extents[axis], d=spec.spacing[axis])
    out = np.fft.ifft(np.fft.fft(values, axis=axis) * np.expand_dims(
        1j * k, tuple(range(1, values.ndim - axis))), axis=axis)
    return out if np.iscomplexobj(values) else out.real


_OTHER_EXTENTS = (3, 4, 2)


@pytest.mark.parametrize("dims", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 20])
def test_spectral_derivative_matches_the_fft_rule(n, dims):
    rng = np.random.default_rng(10 * n + dims)
    for axis in range(dims):
        extents = [_OTHER_EXTENTS[(axis + j) % 3] for j in range(dims)]
        extents[axis] = n
        spec = periodic_spec(extents, [0.3 + 0.2 * a for a in range(dims)], dims)
        for tail in ((), (2,), (3, 3)):
            for complex_ in (False, True):
                shape = spec.extents + tail
                c_ordered = rng.normal(size=shape)
                if complex_:
                    c_ordered = c_ordered + 1j * rng.normal(size=shape)
                grid_minor_ = grid_minor(shape, dims, c_ordered.dtype)
                grid_minor_[...] = c_ordered
                ref = _fft_derivative(c_ordered, spec, axis)
                for values in (c_ordered, grid_minor_):
                    got = _spectral(values, spec, axis)
                    assert got.dtype == (complex if complex_ else float)
                    np.testing.assert_allclose(got, ref, rtol=0,
                                               atol=1e-13 * max(1.0, np.max(np.abs(ref))))


def test_spectral_derivative_rejects_an_out_array_that_is_not_grid_minor(spec3):
    values = np.ones(spec3.extents + (2,), dtype=complex)
    with pytest.raises(InvalidGrid):
        spectral_derivative(values, spec3, 1, np.empty_like(values))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 20])
def test_fourier_matrix_is_anti_hermitian_and_read_only(n):
    h = 2.0 * np.pi / (7 * n)
    d = _fourier_matrix(n, h, False)
    scale = max(1.0, np.max(np.abs(d)))
    assert np.max(np.abs(d + d.conj().T)) <= 1e-14 * scale
    real = _fourier_matrix(n, h, True)
    np.testing.assert_array_equal(real, d.real)
    assert _fourier_matrix(n, h, False) is d
    for m in (d, real):
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


_SPEC1 = periodic_spec(12, 0.5, 1)
_SPEC3 = periodic_spec((6, 5, 4), (0.9, 1.1, 1.4), 3)
_SPEC4 = periodic_spec((6, 5, 4, 6), (0.9, 1.1, 1.4, 0.7), 4)
# axes shorter than the 5-point stencil4: the stencil wraps around them
_SPEC2_SHORT = periodic_spec((4, 3), (0.8, 1.2), 2)


def _grid_array(spec, tail, complex_=True):
    rng = np.random.default_rng(len(tail) + spec.dims)
    shape = spec.extents + tail
    a = rng.normal(size=shape)
    return a + 1j * rng.normal(size=shape) if complex_ else a


# (spec, trailing value shape, the axes compared (None: all), the axis the
# per-axis results used to be stacked on): scalars and covectors stacked
# last, spinors on -2 and coframes on -3
_DERIVATIVE_CASES = [
    (_SPEC3, (), [0, 2], -1),
    (_SPEC3, (), None, -1),
    (_SPEC4, (), [1, 3], -1),
    (_SPEC4, (), None, -1),
    (_SPEC4, (3,), [3], -1),
    (_SPEC3, (2,), None, -2),
    (_SPEC4, (2,), None, -2),
    (_SPEC3, (3, 3), None, -3),
    (_SPEC1, (), None, -1),
    (_SPEC2_SHORT, (), None, -1),
]


# the ids keep the (backend, order) labels these cases had before the
# stencil order became part of the backend name
@pytest.mark.parametrize("backend", [pytest.param("stencil", id="stencil-2"),
                                     pytest.param("stencil4", id="stencil-4"),
                                     pytest.param("spectral", id="spectral-2")])
@pytest.mark.parametrize("spec,tail,axes,old_axis", _DERIVATIVE_CASES)
def test_derivatives_match_per_axis_stack(spec, tail, axes, old_axis, backend):
    values = _grid_array(spec, tail, complex_=tail != (3, 3))
    per_axis = range(spec.dims) if axes is None else axes
    if backend == "spectral":
        ds = [_spectral(values, spec, a) for a in per_axis]
    else:
        ds = [_axis_derivative(values, spec, a, backend,
                               np.empty(values.shape, np.promote_types(values.dtype, float)))
              for a in per_axis]
    old = np.stack(ds, axis=old_axis)
    full = derivatives(values, spec, backend)
    assert full.shape[spec.dims] == spec.dims
    # grid-minor: every slice that fixes the axis and tail indices is one block
    for idx in np.ndindex(full.shape[spec.dims:]):
        assert full[(Ellipsis,) + idx].flags.c_contiguous
    got = np.take(full, list(per_axis), axis=spec.dims)
    if tail and old_axis == -1:
        # one axis of a covector: callers read the single derivative
        np.testing.assert_array_equal(got[..., 0, :], old[..., 0])
    else:
        np.testing.assert_array_equal(got, old)


def test_coframe_torsion_holds_one_row_of_derivatives_at_a_time():
    # building a grid bundle differentiates nothing; the torsion reads one
    # component's gradient at a time into one row's 2-form, less than one
    # row's (*n, 3, 3) derivative stack.  A whole (*n, 3, 3, 3) stack of
    # every row would not fit.
    spec = periodic_spec(32, 2.0 * np.pi / 32, 3)
    theta = np.random.default_rng(3).normal(size=spec.extents + (3, 3))
    row_stack = theta.nbytes
    per_axis = theta.nbytes // 3
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cb = CoframeBundle.from_grid(spec, theta, "stencil")
        axial_torsion_coframe(cb)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= row_stack + 3 * per_axis + 2 ** 20


# a field on a 6^3 grid, for lifts onto 4D grids whose spatial part differs
_ETA6 = SpinorBundle(periodic_spec(6, 1.0, 3), np.zeros((6, 6, 6, 2), complex),
                     np.zeros((6, 6, 6, 3, 2), complex))


@pytest.mark.parametrize("misuse", [
    lambda: LatticeSpec((4,) * 5, (1.0,) * 5),
    lambda: LatticeSpec((4, 4), (1.0,)),
    lambda: LatticeSpec((4, 0), (1.0, 1.0)),
    lambda: LatticeSpec((4, 4), (1.0, float("nan"))),
    lambda: LatticeSpec((), ()),
    lambda: lift_x3(_ETA6, periodic_spec(5, 1.0, 4), 1.0),
    lambda: LatticeSpec((4,), (float("inf"),)),
    lambda: lift_x3(_ETA6, periodic_spec(6, 1.0, 3), 1.0),
    lambda: lift_x3(_ETA6, periodic_spec(6, (1.0, 1.0, 0.5, 1.0), 4), 1.0),
    lambda: lift_values_x3(_ETA6.values, periodic_spec(6, 1.0, 3), 1.0),
    lambda: lift_values_x3(_ETA6.values, periodic_spec(5, 1.0, 4), 1.0),
    lambda: lift_values_x3(_ETA6.derivs, periodic_spec(6, 1.0, 4), 1.0),
    # a float extent, and 6^3 values handed with an 8^3 grid
    lambda: LatticeSpec((8.0, 8, 8), (1.0,) * 3),
    *(lambda backend=backend: derivatives(_ETA6.values, periodic_spec(8, 1.0, 3), backend)
      for backend in BACKENDS),
    lambda: SpinorBundle.from_grid(periodic_spec(8, 1.0, 3), _ETA6.values),
    lambda: derivatives(_ETA6.values[0], periodic_spec(6, 1.0, 3), "stencil"),
])
def test_grid_misuse_raises_a_package_value_error(misuse):
    with pytest.raises(InvalidGrid) as info:
        misuse()
    assert isinstance(info.value, SpinframeError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("n,h,dims", [((8, 8, 8, 8), (1, 1, 1, 1), 3), ((8, 8), (1, 1), 4)],
                         ids=["4-axes-as-3", "2-axes-as-4"])
def test_periodic_spec_rejects_sequences_of_another_length_than_dims(n, h, dims):
    # these used to build a 4D and a 2D grid, ignoring dims
    with pytest.raises(InvalidGrid):
        periodic_spec(n, h, dims)
    with pytest.raises(InvalidGrid):
        periodic_spec(n[0], h, dims)
    assert periodic_spec(n, h, len(n)).extents == n


def test_integrate_is_fsum_times_cell_volume():
    spec = periodic_spec((2, 2), (0.5, 0.25), 2)
    density = np.array([[1e16, 1.0], [-1e16, 1.0]])
    # a float64 running sum loses both 1.0s against 1e16; fsum keeps them
    assert spec.integrate(density) == 2.0 * 0.125


def _fsum_integrate(spec, density):
    """The reference rule: fsum of the density as a list, times the cell
    volume."""
    return math.fsum(np.ravel(density).tolist()) * spec.cell_volume


def _assert_integrates_like_fsum(spec, density):
    """spec.integrate gives the reference's float bit for bit, or raises
    the same exception type."""
    try:
        expected = _fsum_integrate(spec, density)
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        with pytest.raises(type(e)):
            spec.integrate(density)
        return
    got = spec.integrate(density)
    assert type(got) is float
    assert struct.pack("<d", got) == struct.pack("<d", expected), (got, expected)


_SPEC_1D = periodic_spec(7, 0.3, 1)


@st.composite
def _spread_arrays(draw):
    """float64 arrays of 1 to 10,000 entries (8000, a 20^3 grid, drawn
    often) whose exponents cover a drawn window of the whole subnormal and
    normal range, with some entries cancelled exactly."""
    n = draw(st.one_of(st.just(8000), st.integers(1, 10_000)))
    lo = draw(st.integers(-1100, 1023))
    hi = draw(st.integers(lo, 1023))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, hi + 1, n))
    cancel = draw(st.integers(0, n // 2))
    x[n - cancel:] = -x[:cancel]
    return x


@settings(max_examples=300, deadline=None)
@given(_spread_arrays())
def test_integrate_matches_fsum_bit_for_bit(density):
    _assert_integrates_like_fsum(_SPEC_1D, density)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1, max_size=50))
def test_integrate_matches_fsum_on_drawn_floats(values):
    _assert_integrates_like_fsum(_SPEC_1D, np.array(values))


_TINY = 5e-324
_EDGE_DENSITIES = {
    "cancelling-pairs": np.array([1e300, 3.5, -1e300, 1e-300, -3.5, -1e-300]),
    "cancel-to-zero": np.array([0.1, 0.2, -0.1, -0.2]),
    "all-zero": np.zeros(8000),
    "all-negative-zero": np.full(5, -0.0),
    "negative-zero-entries": np.array([-0.0, 1.0, -0.0, 2.0 ** -60]),
    "single": np.array([-2.5e-310]),
    "single-large": np.array([1.5e300]),
    "smallest-subnormals": np.array([_TINY, _TINY, -_TINY, _TINY]),
    "ties-to-even": np.array([1.0, 2.0 ** -53, 2.0 ** -106]),
    "near-guard": np.array([2.0 ** 959, -(2.0 ** 959), 1.0, 2.0 ** -1000]),
    "at-guard": np.array([2.0 ** 960, 1.0, -(2.0 ** 960)]),
    "nan": np.array([1.0, math.nan, 2.0]),
    "inf": np.array([1.0, math.inf]),
    "minus-inf": np.array([-math.inf, 1.0]),
    "inf-minus-inf": np.array([math.inf, -math.inf]),
    "overflow": np.array([1e308, 1e308]),
    "complex": np.array([1.0 + 2.0j, 3.0]),
    "float32": np.array([1e8, 1.0, -1e8, 0.1], dtype=np.float32),
    "integer": np.array([2 ** 62, 3, -(2 ** 62)], dtype=np.int64),
    "empty": np.zeros(0),
    "list": [1e16, 1.0, -1e16],
}


@pytest.mark.parametrize("density", _EDGE_DENSITIES.values(), ids=_EDGE_DENSITIES.keys())
def test_integrate_matches_fsum_on_edge_cases(density):
    _assert_integrates_like_fsum(_SPEC_1D, density)


def test_integrate_matches_fsum_on_grids_and_layouts():
    rng = np.random.default_rng(3)
    spec2 = periodic_spec((12, 9), (0.4, 0.7), 2)
    spec3 = periodic_spec(20, 2.0 * np.pi / 20, 3)
    wide = np.ldexp(rng.normal(size=(20, 20, 20, 2)), rng.integers(-40, 40, (20, 20, 20, 2)))
    minor = grid_minor(wide.shape, 3, float)
    minor[...] = wide
    for spec, density in (
            (spec2, rng.normal(size=(12, 9)) * 1e10),
            (spec3, wide[..., 0]),                 # 3-D, C-contiguous
            (spec3, minor[..., 1]),                # a grid-minor component
            (spec3, minor),                        # grid-minor, raveled in C order
            (spec3, wide[..., 0].transpose(2, 0, 1)),
            (spec3, wide[::2, :, 1:, 0])):         # strided
        _assert_integrates_like_fsum(spec, density)


def test_lorentz_dot_signature(spec3):
    shape = spec3.extents
    for axis, sign in ((0, -1.0), (1, 1.0), (2, 1.0)):
        v = np.zeros(shape + (3,))
        v[..., axis] = 1.0
        u = LatticeField(spec3, 1, v)
        assert np.allclose(lorentz_dot(u, u).values, sign)


def test_lorentz_dot_rank_mismatch(spec3):
    u = LatticeField(spec3, 1, np.zeros(spec3.extents + (3,)))
    w = LatticeField(spec3, 2, np.zeros(spec3.extents + (3,)))
    with pytest.raises(RankMismatch):
        lorentz_dot(u, w)


def test_hodge_of_volume_form(spec3):
    # T_{012} = 1 maps to the scalar -1 (one index raised across the metric)
    t = LatticeField(spec3, 3, np.ones(spec3.extents + (1,)))
    assert np.allclose(hodge_dual(t).values, -1.0)


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_double_hodge_sign(spec3, rank):
    # ** = (-1)^{r(3-r)} sign(det g) = -(-1)^{r(3-r)} in signature -++
    ncomp = len(form_components(3, rank))
    rng = np.random.default_rng(rank)
    vals = rng.normal(size=spec3.extents + (ncomp,))
    if rank == 0:
        vals = vals[..., 0]
    f = LatticeField(spec3, rank, vals)
    twice = hodge_dual(hodge_dual(f))
    sign = -((-1.0) ** (rank * (3 - rank)))
    assert np.allclose(twice.values, sign * f.values, atol=1e-13)


def _hodge_by_hand(vals: np.ndarray, rank: int) -> np.ndarray:
    """*R component by component, g = diag(-1, 1, 1), epsilon_{012} = +1."""
    if rank == 0:
        return vals[..., None]                          # T_{012} = f
    if rank == 1:
        v0, v1, v2 = (vals[..., a] for a in range(3))
        return np.stack([v2, -v1, -v0], axis=-1)        # F_{01}, F_{02}, F_{12}
    if rank == 2:
        f01, f02, f12 = (vals[..., a] for a in range(3))
        return np.stack([f12, f02, -f01], axis=-1)      # v_0, v_1, v_2
    return -vals[..., 0]                                 # the scalar


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
@pytest.mark.parametrize("batch", [(), (4,)])
def test_hodge_dual_is_grid_minor_and_matches_the_hand_formula(spec3, rank, batch):
    # batch: a 4D grid's x3 axis riding as an extra leading axis, as the 4D
    # density passes it on the spatial spec
    ncomp = len(form_components(3, rank))
    rng = np.random.default_rng(40 + rank)
    shape = spec3.extents + batch + ((ncomp,) if rank else ())
    c_ordered = rng.normal(size=shape)
    minor = grid_minor(shape, 3 + len(batch), float) if rank else c_ordered.copy()
    minor[...] = c_ordered
    want = _hodge_by_hand(c_ordered, rank)
    for vals in (c_ordered, minor):
        got = hodge_dual(LatticeField(spec3, rank, vals)).values
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        if rank < 3:
            assert _grid_minor_slices(got, 3 + len(batch))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_lorentz_dot_matches_the_metric_einsum_in_any_layout(spec3, rank):
    ncomp = len(form_components(3, rank))
    rng = np.random.default_rng(50 + rank)
    p, q = (rng.normal(size=spec3.extents + (ncomp,)) for _ in range(2))
    signs = np.array([np.prod(spec3.metric[list(c)]) for c in form_components(3, rank)])
    want = np.einsum("...c,c,...c->...", p, signs, q)
    got = lorentz_dot(LatticeField(spec3, rank, p), LatticeField(spec3, rank, q)).values
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))
    pm, qm = grid_minor(p.shape, 3, float), grid_minor(q.shape, 3, float)
    pm[...], qm[...] = p, q
    minor = lorentz_dot(LatticeField(spec3, rank, pm), LatticeField(spec3, rank, qm)).values
    assert minor.tobytes() == got.tobytes()


def _grid_minor_slices(a: np.ndarray, dims: int) -> bool:
    """Every slice of a that fixes all tail indices is C-contiguous."""
    return all(a[(Ellipsis,) + idx].flags.c_contiguous
               for idx in np.ndindex(a.shape[dims:]))


def test_hodge_unsupported_in_4d():
    spec4 = periodic_spec(4, 1.0, 4)
    f = LatticeField(spec4, 2, np.zeros(spec4.extents + (6,)))
    with pytest.raises(UnsupportedRank):
        hodge_dual(f)


def test_wedge_basis_and_overflow(spec3):
    e = {}
    for axis in range(3):
        v = np.zeros(spec3.extents + (3,))
        v[..., axis] = 1.0
        e[axis] = LatticeField(spec3, 1, v)
    w01 = wedge(e[0], e[1])
    assert np.allclose(w01.values[..., 0], 1.0)  # (dx0 ^ dx1)_{01}
    assert np.allclose(w01.values[..., 1:], 0.0)
    vol = wedge(w01, e[2])
    assert np.allclose(vol.values[..., 0], 1.0)
    with pytest.raises(RankOverflow):
        wedge(vol, e[0])


def test_malformed_forms_raise_instead_of_reading_component_zero(spec3):
    spec4 = periodic_spec(4, 1.0, 4)
    # a 3-column coframe row on a 4D grid must be padded explicitly
    with pytest.raises(RankMismatch):
        LatticeField(spec4, 1, np.ones(spec4.extents + (3,)))
    with pytest.raises(RankMismatch):
        LatticeField(spec3, 2, np.ones(spec3.extents + (1,)))
    # a 4D 1-form wedged with a 3D one: a rest index tuple of the 4D result
    # is no component of the 3D form
    u4 = LatticeField(spec4, 1, np.ones(spec4.extents + (4,)))
    u3 = LatticeField(spec3, 1, np.ones(spec3.extents + (3,)))
    with pytest.raises(RankMismatch):
        wedge(u4, u3)


@pytest.mark.parametrize("dims", [3, 4])
def test_a_rank_outside_zero_to_dims_raises_rank_overflow(dims):
    spec = periodic_spec(4, 1.0, dims)
    for rank in (-1, dims + 1):
        with pytest.raises(RankOverflow):
            LatticeField(spec, rank, np.ones(spec.extents + (1,)))


def test_4d_wedge_of_a_1_form_and_a_3_form_is_a_4_form():
    spec4 = periodic_spec(4, 1.0, 4)
    dx3 = np.zeros(spec4.extents + (4,))
    dx3[..., 3] = 1.0
    dx012 = np.zeros(spec4.extents + (4,))
    dx012[..., 0] = 1.0
    top = wedge(LatticeField(spec4, 1, dx3), LatticeField(spec4, 3, dx012))
    assert top.rank == 4 and top.values.shape == spec4.extents + (1,)
    # dx^3 ^ dx^0 ^ dx^1 ^ dx^2 = -dx^0 ^ dx^1 ^ dx^2 ^ dx^3
    assert np.all(top.values == -1.0)


def test_wedge_antisymmetry(spec3):
    rng = np.random.default_rng(1)
    u = LatticeField(spec3, 1, rng.normal(size=spec3.extents + (3,)))
    v = LatticeField(spec3, 1, rng.normal(size=spec3.extents + (3,)))
    assert np.allclose(wedge(u, v).values, -wedge(v, u).values)


def exterior_derivative(P: LatticeField, backend: str = "stencil") -> LatticeField:
    """Discrete d on an antisymmetric field, from the whole ``derivatives``
    stack of its components: the reference for the coframe rows' 2-forms."""
    d = P.spec.dims
    r = P.rank
    comps_in = {c: i for i, c in enumerate(P.components)}
    comps_out = form_components(d, r + 1)
    pv = P.values if r > 0 else P.values[..., None]
    derivs = derivatives(pv, P.spec, backend)
    out = np.zeros(pv.shape[:-1] + (len(comps_out),), dtype=np.promote_types(pv.dtype, float))
    for j, c in enumerate(comps_out):
        for pos, a in enumerate(c):
            rest = tuple(b for b in c if b != a)
            out[..., j] += (-1) ** pos * derivs[..., a, comps_in[rest]]
    return LatticeField(P.spec, r + 1, out)


@pytest.mark.parametrize("dims", (3, 4))
def test_row_differentials_equal_the_antisymmetrized_derivative_stack(dims, monkeypatch):
    # one component's gradient at a time gives, bit for bit, d of the whole
    # row (padded with theta^j_3 = 0 on a 4D grid) from its full derivatives
    # stack, under every rule; the kk check's closed-form rule gives its
    # chain slots d_a theta^j_b - d_b theta^j_a
    spec = periodic_spec((6, 5, 4, 6)[:dims], (0.9, 1.1, 1.4, 0.7)[:dims], dims)
    b = random_positive_spinor(np.random.default_rng(4), base_for(spec), max_mode=2).bundle(spec)
    theta, rho = coframe_map(b.values)
    comps = form_components(dims, 2)
    for backend in BACKENDS:
        cb = CoframeBundle.from_grid(spec, theta, backend)
        for j in range(3):
            row = np.zeros(spec.extents + (dims,))
            row[..., :3] = theta[..., j, :]
            ref = exterior_derivative(LatticeField(spec, 1, row), backend)
            got = cb.row_differential(j)
            assert got.rank == 2
            np.testing.assert_array_equal(got.values, ref.values)
    if dims == 3:
        return
    built = []
    monkeypatch.setattr(torsion, "axial_torsion_coframe",
                        lambda cb: built.append(cb) or axial_torsion_coframe(cb))
    kk_decomposition_check(b, "chain")
    (chain,) = built
    dtheta = _coframe_chain_derivs(b, theta, rho)
    for j in range(3):
        slots = np.zeros(spec.extents + (dims, dims))
        slots[..., :3] = dtheta[..., j, :]
        slots = slots - np.swapaxes(slots, -1, -2)
        ref = np.stack([slots[..., a, c] for a, c in comps], axis=-1)
        np.testing.assert_array_equal(chain.row_differential(j).values, ref)


def test_exterior_derivative_nilpotent(spec3):
    x = _coords(spec3)
    f = LatticeField(spec3, 0, np.sin(x[0]) * np.cos(2 * x[1]) + np.sin(x[2]))
    ddf = exterior_derivative(exterior_derivative(f))
    assert np.max(np.abs(ddf.values)) < 1e-12
