import tracemalloc
import warnings
from itertools import permutations

import numpy as np
import pytest

from spinframe.algebra import O3, coframe_map
from spinframe.errors import NonPositiveDensity, VanishingDensity
from spinframe.grids import (
    CoframeBundle,
    LatticeField,
    LatticeSpec,
    ModelParams,
    SpinorBundle,
    derivatives,
    form_components,
    hodge_dual,
    perm_sign,
    periodic_spec,
    wedge,
)
from spinframe.lagrangians import dirac_contraction
from spinframe.plane_waves import PlaneWaveLabel, plane_wave_spinor
from spinframe.sampling import (
    base_for,
    coframe_bundle_from_spinor,
    covector_on,
    lift_x3,
    mode_bundle,
    random_covector_polys,
    random_positive_spinor,
)
from spinframe.suites import _BLOCK_PLANES, _refinement_rms, _routes_rms, run_suite
from spinframe.torsion import (
    _coframe_chain_derivs,
    axial_torsion_coframe,
    axial_torsion_spinor,
    dual_axial_torsion_coframe,
    kk_decomposition_check,
    reduced_axial_torsion,
    spinor_contractions,
    spinor_vs_coframe_residual,
)


def test_constant_spinor_has_no_torsion():
    spec = periodic_spec(8, 2.0 * np.pi / 8, 3)
    b = mode_bundle((1.0, 0.0), (0,) * 3, spec)
    assert np.allclose(axial_torsion_spinor(b), 0.0)
    t = reduced_axial_torsion(b, dirac_contraction(b, ModelParams(m=1.0), 1).real)
    assert np.allclose(t, 0.0)


def test_two_routes_agree_analytically():
    spec = periodic_spec(16, 2.0 * np.pi / 16, 3)
    for r in (1, -1):
        for s in (1, -1):
            b = plane_wave_spinor(PlaneWaveLabel(r, s, 1.0, 0.0), spec)
            cb = coframe_bundle_from_spinor(b.values, spec, backend="spectral")
            assert spinor_vs_coframe_residual(axial_torsion_spinor(b), cb) < 1e-10


def test_two_routes_residual_shrinks_second_order():
    # the torsion-routes suite's own refinement, spinor route first
    rms = _refinement_rms(7)
    ratio = rms[0] / rms[1]
    assert 3.7 <= ratio <= 4.3


def _whole_grid_rms(sp, spec) -> float:
    b = sp.bundle(spec)
    cb = coframe_bundle_from_spinor(b.values, spec)
    d = axial_torsion_spinor(b) - hodge_dual(axial_torsion_coframe(cb)).values
    return float(np.sqrt(np.mean(d ** 2)))


@pytest.mark.parametrize("seed", range(4))
def test_blockwise_refinement_equals_the_whole_grid_at_32_cubed(seed):
    spec = periodic_spec(32, 2.0 * np.pi / 32, 3)
    sp = random_positive_spinor(np.random.default_rng(seed), base_for(spec), max_mode=2)
    assert _refinement_rms(seed)[0] == _whole_grid_rms(sp, spec)


@pytest.mark.parametrize("n", (20, 6))
def test_blockwise_rms_equals_the_whole_grid_off_the_block_size(n):
    # 20 planes end in a part block; 6 are fewer than one block, so both
    # halo indices wrap onto the block itself
    assert n % _BLOCK_PLANES != 0
    spec = periodic_spec(n, 2.0 * np.pi / n, 3)
    sp = random_positive_spinor(np.random.default_rng(5), base_for(spec), max_mode=2)
    assert _routes_rms(sp, spec) == _whole_grid_rms(sp, spec)


def test_torsion_routes_peaks_below_0_3_times_the_64_cubed_bundle():
    # the 64^3 spinor bundle (values and three derivative slots, complex) is
    # 33.5 MB.  The refinement samples 8 x0-planes and two halo planes at a
    # time, so the peak is one block's bundle (5.2 MB), the spinor route's
    # arrays on its interior planes and the 64^3 difference (2.1 MB): near
    # 0.25 of it.  Run on the whole grid at once it was near 1.25
    bundle_bytes = 64 ** 3 * (2 + 3 * 2) * 16
    tracemalloc.start()
    try:
        run_suite("torsion-routes")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * bundle_bytes


def test_torsion_route_stages_hold_their_arrays_at_32_cubed():
    # Peaks of one block of the 32^3 refinement in block arrays (one float64
    # over the block's 10 x0-planes, halos included), the stage's inputs
    # included, each stage as _routes_rms runs it.  The spinor stage holds
    # the block's bundle (16: values and three derivative slots, complex)
    # and, on the 8 interior planes (0.8 of a block array each), at most
    # five arrays: Im z, rho, t and the two temporaries of 4 Im z / (3 rho),
    # which numpy does not elide below 256 KiB: 20.  The coframe stage
    # holds theta (9), t (0.8), the running total, one row's d theta^j (3)
    # and one component's gradient (3): 16.8.  Half an array covers the
    # small objects.  The coframe stage's stencil slices along axes 1 and 2
    # are not contiguous, so numpy also allocates one iteration buffer for
    # each operand of the subtraction: 3 x 8192 floats.
    spec = periodic_spec(32, 2.0 * np.pi / 32, 3)
    sp = random_positive_spinor(np.random.default_rng(0), base_for(spec), max_mode=2)
    array = (_BLOCK_PLANES + 2) * 32 ** 2 * 8
    iteration_buffers = 3 * np.getbufsize() * 8
    inner = LatticeSpec((_BLOCK_PLANES,) + spec.extents[1:], spec.spacing)
    tracemalloc.start()
    try:
        b = sp.bundle(spec, np.arange(-1, _BLOCK_PLANES + 1))
        tracemalloc.reset_peak()
        t = axial_torsion_spinor(SpinorBundle(inner, b.values[1:-1], b.derivs[1:-1]))
        spinor_peak = tracemalloc.get_traced_memory()[1]
        block, values = b.spec, b.values
        del b
        cb = coframe_bundle_from_spinor(values, block)
        del values
        tracemalloc.reset_peak()
        dual_axial_torsion_coframe(cb)
        coframe_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spinor_peak <= 20.5 * array
    assert coframe_peak <= 17.3 * array + iteration_buffers


def test_wedge_route_equals_antisymmetrized_tensor():
    # (1/3) o_jj theta^j ^ d theta^j = Alt(o_jj theta^j (x) d theta^j) under
    # the determinant convention; the tensor is built here from the row
    # derivatives alone, with neither the wedge nor the torsion's row forms
    rng = np.random.default_rng(3)
    spec = periodic_spec(12, 2.0 * np.pi / 12, 3)
    sp = random_positive_spinor(rng, base_for(spec), max_mode=2)
    cb = coframe_bundle_from_spinor(sp.bundle(spec).values, spec)
    via_wedge = axial_torsion_coframe(cb).values[..., 0]
    tensor = 0.0
    for j in range(3):
        d = derivatives(cb.theta[..., j, :], spec, "stencil")
        dtheta = d - np.swapaxes(d, -1, -2)   # (d theta^j)_{bc}
        tensor = tensor + O3[j] * np.einsum("...a,...bc->...abc", cb.theta[..., j, :], dtheta)
    (c,) = form_components(3, 3)
    via_tensor = sum(perm_sign(p) * tensor[(Ellipsis,) + tuple(c[k] for k in p)]
                     for p in permutations(range(3))) / 6.0
    assert np.max(np.abs(via_wedge - via_tensor)) < 1e-13


def test_reduced_torsion_requires_positive_class():
    spec = periodic_spec(8, 2.0 * np.pi / 8, 3)
    b = mode_bundle((0.0, 1.0), (0,) * 3, spec)
    with pytest.raises(NonPositiveDensity):
        reduced_axial_torsion(b, dirac_contraction(b, ModelParams(m=1.0), 1).real)


def test_reduced_quantities_plane_wave():
    # eta = (1,0) e^{-i m x0}: t = +4m/3 (so the s=+1 density vanishes) and,
    # from its 4D lift xi = eta e^{-i m x3}, u = (4m/3, 0, 0) for r = +1
    m = 1.0
    label = PlaneWaveLabel(1, 1, m, 0.0)
    eta = plane_wave_spinor(label, periodic_spec(8, 2.0 * np.pi / 8, 3))
    t = reduced_axial_torsion(eta, dirac_contraction(eta, ModelParams(m=m), 1).real)
    assert np.allclose(t, 4.0 * m / 3.0)
    spec4 = periodic_spec(8, 2.0 * np.pi / 8, 4)
    c = spinor_contractions(lift_x3(plane_wave_spinor(label, spec4.spatial), spec4, m))
    assert np.allclose(c.t, 4.0 * m / 3.0)
    assert np.allclose(c.u[..., 0], 4.0 * m / 3.0)
    assert np.allclose(c.u[..., 1:], 0.0)
    assert np.allclose(c.rho, 1.0)


def test_kk_decomposition_analytic():
    spec = periodic_spec(8, 2.0 * np.pi / 8, 4)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        b = random_positive_spinor(rng, base_for(spec), max_mode=2).bundle(spec)
        rep = kk_decomposition_check(b, coframe_derivs="chain")
        assert rep.max_residual < 1e-10


def _kk_field(seed: int = 1):
    spec = periodic_spec(8, 2.0 * np.pi / 8, 4)
    return spec, random_positive_spinor(np.random.default_rng(seed), base_for(spec), max_mode=2)


def test_chain_dtheta_matches_a_central_difference_of_the_coframe_map():
    # the closed-form d theta against (theta(x + eps e_a) - theta(x - eps
    # e_a)) / 2 eps, theta from coframe_map of the same SpinorPoly evaluated
    # at the shifted points: no derivative of the chain rule enters
    spec, sp = _kk_field()
    b = sp.bundle(spec)
    dtheta = _coframe_chain_derivs(b, *coframe_map(b.values))
    eps = 1e-5
    for a in range(4):
        theta = []
        for sign in (1.0, -1.0):
            x = np.meshgrid(*(spec.axis_coords(c) + (sign * eps if c == a else 0.0)
                              for c in range(4)), indexing="ij", sparse=True)
            theta.append(coframe_map(np.stack([sp.c1(x), sp.c2(x)], axis=-1))[0])
        fd = (theta[0] - theta[1]) / (2.0 * eps)
        assert np.max(np.abs(dtheta[..., a, :, :] - fd)) <= 1e-8


def test_kk_check_fails_closed_on_a_vanishing_density():
    spec, sp = _kk_field()
    b = sp.bundle(spec)
    b.values[1, 2, 0, 3] = [0.5 + 0.5j, 0.5 - 0.5j]
    assert b.rho[1, 2, 0, 3] == 0.0
    # the density guard runs before any division by rho
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VanishingDensity):
            kk_decomposition_check(b, "chain")


def test_one_kk_check_peaks_below_the_per_axis_chain():
    # 2.85 MiB is the peak of a chain rule taken one axis at a time on this
    # field (tracemalloc).  Temporaries of more than about twice the largest
    # block freed (the 1.18 MB d theta) make glibc hand the heap top back to
    # the kernel after a seed and fault it back in on the next, so the peak
    # may not grow.
    spec, sp = _kk_field()
    b = sp.bundle(spec)
    kk_decomposition_check(b, "chain")
    tracemalloc.start()
    try:
        kk_decomposition_check(b, "chain")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.85 * 2 ** 20


def test_coframe_torsion_of_an_extended_frame_checks_its_spatial_block():
    spec = periodic_spec(6, 2.0 * np.pi / 6, 4)
    rng = np.random.default_rng(3)
    b = random_positive_spinor(rng, base_for(spec), max_mode=1).bundle(spec)
    theta, _ = coframe_map(b.values)
    cb = CoframeBundle.from_grid(spec, theta, "stencil")
    assert cb.row_differential(0).values.shape == spec.extents + (6,)
    checked = axial_torsion_coframe(cb)
    assert checked.values.shape == spec.extents + (4,)
    # reference: the four rows of the extended coframe, theta^3 = dx^3
    # included, each differentiated as a whole 1-form on the 4D grid and
    # its derivative stack antisymmetrised
    theta4 = np.zeros(spec.extents + (4, 4))
    theta4[..., :3, :3] = theta
    theta4[..., 3, 3] = 1.0
    ref = 0.0
    # o_jj of the extended frame metric diag(-1, 1, 1, 1)
    for j, o in enumerate((-1.0, 1.0, 1.0, 1.0)):
        d = derivatives(theta4[..., j, :], spec, "stencil")
        d = d - np.swapaxes(d, -1, -2)
        drow = LatticeField(spec, 2, np.stack([d[..., a, c] for a, c in form_components(4, 2)],
                                              axis=-1))
        ref = ref + o / 3.0 * wedge(LatticeField(spec, 1, theta4[..., j, :]), drow).values
    assert np.array_equal(checked.values, ref)


def test_reduced_fields_are_x3_independent():
    # xi = eta e^{-i m x3}: t, u, rho computed from the 4D field at two x3
    # slices coincide with the reduced formulas on eta
    n = 8
    spec4 = periodic_spec((n, n, n, 8), (2.0 * np.pi / n,) * 3 + (np.pi / 8,), 4)
    spec3 = periodic_spec(n, 2.0 * np.pi / n, 3)
    rng = np.random.default_rng(5)
    b3 = random_positive_spinor(rng, base_for(spec3), max_mode=2).bundle(spec3)
    t4 = axial_torsion_spinor(lift_x3(b3, spec4, 1.0))
    t3 = reduced_axial_torsion(b3, dirac_contraction(b3, ModelParams(m=1.0), 1).real)
    assert np.max(np.abs(t4 - t3[..., None])) < 1e-12
