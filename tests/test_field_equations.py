import math
import tracemalloc

import numpy as np
import pytest

from spinframe import field_equations
from spinframe.errors import InvalidGrid, NonPositiveDensity, ProbeOutsideInterior
from spinframe.field_equations import (
    Verdict,
    dirac_apply,
    discrete_variational_derivative,
    equivalence_verdict,
    field_equation_residual_4d,
    field_equation_residual_reduced,
    theorem1_check,
)
from spinframe.grids import LatticeSpec, ModelParams, derivatives, periodic_spec
from spinframe.lagrangians import dirac_contraction
from spinframe.pauli import grid_minor
from spinframe.plane_waves import (
    PlaneWaveLabel,
    boosted_wave,
    grid_mode_momenta,
    plane_wave_params,
    plane_wave_spinor,
)
from spinframe.sampling import (
    base_for,
    covector_on,
    lift_x3,
    mode_bundle,
    random_covector_polys,
    random_positive_spinor,
)
from spinframe.torsion import reduced_axial_torsion


@pytest.fixture
def spec():
    return periodic_spec(16, 2.0 * np.pi / 16, 3)


def _zeros_dt(spec):
    return np.zeros(spec.extents + (3,))


def test_dirac_apply_plane_waves(spec):
    for r in (1, -1):
        for s in (1, -1):
            lab = PlaneWaveLabel(r, s, 1.0, 0.0)
            b = plane_wave_spinor(lab, spec)
            p = plane_wave_params(lab)
            assert np.max(np.abs(dirac_apply(b, p, r, s))) < 1e-14
            # the opposite spin sign does not annihilate the wave
            assert np.max(np.abs(dirac_apply(b, p, r, -s))) > 1.0


def test_dirac_apply_with_potential(spec):
    for r in (1, -1):
        for s in (1, -1):
            lab = PlaneWaveLabel(r, s, 1.0, 0.25)
            b = plane_wave_spinor(lab, spec)
            p = plane_wave_params(lab)
            assert np.max(np.abs(dirac_apply(b, p, r, s))) < 1e-14


def test_constant_field_reduced_residual(spec):
    b = mode_bundle((1.0, 0.0), (0,) * 3, spec)
    res = field_equation_residual_reduced(b, ModelParams(m=1.0), 1, dt=_zeros_dt(spec))
    # constants are not critical points of the reduced action
    assert np.allclose(res[..., 0], 16.0 / 9.0)
    assert np.allclose(res[..., 1], 0.0)


def test_plane_waves_solve_reduced_equation(spec):
    p = ModelParams(m=1.0)
    for r in (1, -1):
        for s in (1, -1):
            b = plane_wave_spinor(PlaneWaveLabel(r, s, 1.0, 0.0), spec)
            res = field_equation_residual_reduced(b, p, r, dt=_zeros_dt(spec))
            assert np.max(np.abs(res)) < 1e-13


def test_boosted_waves_solve_reduced_equation():
    spec = periodic_spec(20, 2.0 * np.pi / 20, 3)
    p = ModelParams(m=1.0)
    momenta = grid_mode_momenta()
    assert len(momenta) >= 20
    for mom in momenta:
        s = 1 if mom[0] > 0 else -1
        b = boosted_wave(mom, s, 1.0, spec)
        res = field_equation_residual_reduced(b, p, 1, dt=_zeros_dt(spec))
        scale = p.m ** 2 * float(np.sqrt(np.max(b.rho)))
        assert np.max(np.abs(res)) < 1e-9 * scale


def test_4d_plane_waves_solve_4d_equation():
    spec4 = periodic_spec(8, 2.0 * np.pi / 8, 4)
    p = ModelParams(m=1.0)
    for r in (1, -1):
        for s in (1, -1):
            b = lift_x3(plane_wave_spinor(PlaneWaveLabel(r, s, 1.0, 0.0), spec4.spatial),
                        spec4, r * 1.0)
            res = field_equation_residual_4d(b, p, dt=np.zeros(spec4.extents + (4,)),
                                             du=np.zeros(spec4.extents + (3,)))
            assert np.max(np.abs(res)) < 1e-13


def _wave3(spec):
    return plane_wave_spinor(PlaneWaveLabel(1, 1, 1.0, 0.0), spec)


_SPEC4 = periodic_spec(6, 2.0 * np.pi / 6, 4)


def _wave4():
    return lift_x3(plane_wave_spinor(PlaneWaveLabel(1, 1, 1.0, 0.0), _SPEC4.spatial), _SPEC4, 1.0)


_P1 = ModelParams(m=1.0)
_N4 = _SPEC4.extents

# Gradients that numpy would broadcast against the grid, or slice short,
# where each function needs (*n, dims) and the 4D du (*n, 3).
_MALFORMED_GRADIENTS = {
    "reduced-dt-one-point": lambda s: field_equation_residual_reduced(
        _wave3(s), _P1, 1, np.zeros(3)),
    "reduced-dt-one-row": lambda s: field_equation_residual_reduced(
        _wave3(s), _P1, 1, np.zeros((16, 3))),
    "reduced-dt-four-slots": lambda s: field_equation_residual_reduced(
        _wave3(s), _P1, 1, np.zeros(s.extents + (4,))),
    "theorem1-dt-one-point": lambda s: theorem1_check(_wave3(s), _P1, 1, dt=np.zeros(3)),
    "4d-dt-three-slots": lambda s: field_equation_residual_4d(
        _wave4(), _P1, np.zeros(_N4 + (3,)), np.zeros(_N4 + (3,))),
    "4d-du-four-slots": lambda s: field_equation_residual_4d(
        _wave4(), _P1, np.zeros(_N4 + (4,)), np.zeros(_N4 + (4,))),
    "4d-du-one-point": lambda s: field_equation_residual_4d(
        _wave4(), _P1, np.zeros(_N4 + (4,)), np.zeros(3)),
}


# every case raises from the residual's own shape check, so a wave that
# failed to build cannot pass it
@pytest.mark.parametrize("case", sorted(_MALFORMED_GRADIENTS))
def test_malformed_gradients_raise_invalid_grid(case, spec):
    with pytest.raises(InvalidGrid, match=r"^d[tu] has shape .*, expected "):
        _MALFORMED_GRADIENTS[case](spec)


# tracemalloc peak of one field_equation_residual_4d call on separation's
# first lifted field, at the commit before the residual was written out on
# the two spinor components (u stacked, Hodge dual through a copy, sigma
# applied per alpha)
_RESIDUAL_4D_PEAK_BEFORE = 4_981_744


def test_one_4d_residual_peaks_no_higher_than_before():
    # separation's configuration at seed 0: 12^3 field lifted onto 12^3 x 8
    n, m = 12, 1.0
    spec3 = periodic_spec(n, 2.0 * np.pi / n, 3)
    spec4 = periodic_spec((n, n, n, 8), (2.0 * np.pi / n,) * 3 + (np.pi / m / 8,), 4)
    p = ModelParams(m=m)
    b3 = random_positive_spinor(np.random.default_rng(0), base_for(spec3),
                                max_mode=2).bundle(spec3)
    dt3 = derivatives(reduced_axial_torsion(b3, dirac_contraction(b3, p, 1).real),
                      spec3, "spectral")
    b4 = lift_x3(b3, spec4, m)
    dt4 = grid_minor(spec4.extents + (4,), 4, float)
    dt4[..., :3] = dt3[..., None, :]
    dt4[..., 3] = 0.0
    du4 = grid_minor(spec4.extents + (3,), 4, float)
    du4[...] = 0.0
    field_equation_residual_4d(b4, p, dt4, du4)
    tracemalloc.start()
    try:
        field_equation_residual_4d(b4, p, dt4, du4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _RESIDUAL_4D_PEAK_BEFORE


def test_theorem1_verdicts(spec):
    p = ModelParams(m=1.0)
    for s, expect in ((1, Verdict.SOLVES_PLUS), (-1, Verdict.SOLVES_MINUS)):
        b = plane_wave_spinor(PlaneWaveLabel(1, s, 1.0, 0.0), spec)
        res = theorem1_check(b, p, 1, dt=_zeros_dt(spec))
        assert res.verdict is expect


# (nonlinear, plus, minus) vanishing -> verdict; the linear scale is 10
# times the nonlinear one, so each residual is measured against its own
_VERDICTS = [
    ((True, True, True), Verdict.SOLVES_PLUS),
    ((True, True, False), Verdict.SOLVES_PLUS),
    ((True, False, True), Verdict.SOLVES_MINUS),
    ((True, False, False), Verdict.INCONSISTENT),
    ((False, True, True), Verdict.INCONSISTENT),
    ((False, True, False), Verdict.INCONSISTENT),
    ((False, False, True), Verdict.INCONSISTENT),
    ((False, False, False), Verdict.SOLVES_NEITHER),
]


@pytest.mark.parametrize("vanishing,expect", _VERDICTS,
                         ids=["".join("0" if v else "x" for v in case[0]) for case in _VERDICTS])
def test_equivalence_verdict_rule(vanishing, expect):
    scale, linear_scale = 2.0, 20.0
    bounds = (1e-6 * scale, 1e-6 * linear_scale, 1e-6 * linear_scale)
    # a vanishing residual sits exactly on its bound, a non-vanishing one
    # just above it or NaN
    for above in (lambda b: b * (1.0 + 1e-9), lambda b: math.nan):
        residuals = [b if v else above(b) for v, b in zip(vanishing, bounds)]
        res = equivalence_verdict(*residuals, scale, linear_scale)
        assert res.verdict is expect
        assert (res.nonlinear_residual, res.plus_residual, res.minus_residual,
                res.scale) == pytest.approx((*residuals, scale), nan_ok=True)


def test_theorem1_nonsolution_is_neither(spec):
    rng = np.random.default_rng(9)
    b = random_positive_spinor(rng, base_for(spec), max_mode=2).bundle(spec)
    res = theorem1_check(b, ModelParams(m=1.0), 1)
    assert res.verdict is Verdict.SOLVES_NEITHER


def test_theorem1_rejects_negative_class(spec):
    b = mode_bundle((0.0, 1.0), (0,) * 3, spec)
    with pytest.raises(NonPositiveDensity):
        theorem1_check(b, ModelParams(m=1.0), 1)


def test_variational_gradient_vanishes_at_solutions(spec):
    p = ModelParams(m=1.0)
    vol = spec.cell_volume * np.prod(spec.extents)
    for s in (1, -1):
        b = plane_wave_spinor(PlaneWaveLabel(1, s, 1.0, 0.0), spec)
        for kind in ("reduced", "dirac"):
            g = discrete_variational_derivative(kind, b.values, spec, p,
                                                [(0, 0, 0), (3, 7, 11)], r=1, s=s)
            assert np.max(np.abs(g)) < 1e-6 * vol


def test_variational_gradient_nonzero_off_solution(spec):
    rng = np.random.default_rng(2)
    b = random_positive_spinor(rng, base_for(spec), max_mode=2).bundle(spec)
    p = ModelParams(m=1.0)
    g = discrete_variational_derivative("reduced", b.values, spec, p,
                                        [(1, 2, 3)], r=1, s=1)
    assert np.max(np.abs(g)) > 1e-4


def test_probe_must_be_a_grid_point():
    spec = periodic_spec(6, 2.0 * np.pi / 6, 3)
    vals = plane_wave_spinor(PlaneWaveLabel(1, 1, 1.0, 0.0), spec).values
    p = ModelParams(m=1.0)
    # every axis is periodic, so the edge points are probes like any other
    g = discrete_variational_derivative("dirac", vals, spec, p, [(0, 0, 0), (5, 5, 5)])
    assert g.shape == (2, 2, 2)
    # too few or too many indices, past the end, a negative index that numpy
    # would wrap to the far edge, and a fractional one int() would truncate
    for probe in ((1, 2), (1, 2, 3, 0), (6, 0, 0), (0, 0, 6), (-1, 0, 0), (1.5, 0, 0)):
        with pytest.raises(ProbeOutsideInterior):
            discrete_variational_derivative("dirac", vals, spec, p, [probe])
    # every probe is checked before the first action evaluation
    calls = []
    with pytest.raises(ProbeOutsideInterior):
        field_equations.action_gradient(lambda v: calls.append(None) or 0.0, vals, spec,
                                        [(0, 0, 0), (1, 2)])
    assert calls == []


@pytest.mark.parametrize("kind", field_equations.DENSITIES)
def test_one_action_evaluation_peaks_below_two_derivative_stacks(kind):
    # theorem1's configuration: a plane wave on 20^3, spectral derivatives.
    # Temporaries of more than about twice the largest block freed make
    # glibc hand the heap top back to the kernel after every evaluation and
    # fault it back in on the next; this peak is the deterministic stand-in
    # for that fault count.
    spec = periodic_spec(20, 2.0 * np.pi / 20, 3)
    values = plane_wave_spinor(PlaneWaveLabel(1, 1, 1.0, 0.0), spec).values.copy(order="K")
    p = ModelParams(m=1.0)
    stack_nbytes = 3 * values.nbytes

    def evaluate():
        return field_equations._action_from_values(values, spec, p, kind, 1, 1)

    evaluate()
    tracemalloc.start()
    try:
        evaluate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * stack_nbytes


def _copy_per_evaluation_gradient(kind, values, spec, p, probes, r, s):
    """The perturbation loop with a fresh copy per action evaluation."""
    step = field_equations._STEP
    out = np.empty((len(probes), values.shape[-1], 2))
    for i, probe in enumerate(probes):
        for comp in range(values.shape[-1]):
            for k, delta in enumerate((1.0, 1.0j)):
                both = []
                for sign in (1.0, -1.0):
                    v = values.copy(order="K")
                    v[tuple(probe) + (comp,)] += sign * step * delta
                    both.append(field_equations._action_from_values(
                        v, spec, p, kind, r, s))
                out[i, comp, k] = (both[0] - both[1]) / (2.0 * step)
    return out


@pytest.mark.parametrize("kind", field_equations.DENSITIES)
def test_perturbation_loop_restores_its_copy_and_matches_fresh_copies(kind):
    spec = periodic_spec(8, 2.0 * np.pi / 8, 3)
    base = base_for(spec)
    rng = np.random.default_rng(21)
    values = random_positive_spinor(rng, base, max_mode=2).bundle(spec).values
    p = ModelParams(m=1.3, A=covector_on(random_covector_polys(rng, base), spec))
    assert np.all(np.any(p.A != 0.0, axis=(0, 1, 2)))
    # two neighbouring probes and one far away
    probes = [(1, 2, 3), (1, 2, 4), (6, 0, 5)]
    before = values.copy()
    for r, s in ((1, 1), (-1, -1)):
        g = discrete_variational_derivative(kind, values, spec, p, probes, r=r, s=s)
        assert values.tobytes() == before.tobytes()
        want = _copy_per_evaluation_gradient(kind, values, spec, p, probes, r, s)
        np.testing.assert_array_equal(g, want)
        assert np.max(np.abs(g)) > 1e-4


def test_theorem1_passes_its_residuals_and_both_scales(monkeypatch):
    # the field equation is quadratic in m, the Dirac residuals linear: the
    # check hands m^2 sqrt(max rho) and m sqrt(max rho) to the verdict, and
    # its Dirac residuals are dirac_apply's for s = +1 and s = -1
    spec = periodic_spec(8, 2.0 * np.pi / 8, 3)
    base = base_for(spec)
    rng = np.random.default_rng(23)
    b = random_positive_spinor(rng, base, max_mode=2).bundle(spec)
    p = ModelParams(m=1.3, A=covector_on(random_covector_polys(rng, base), spec))
    seen = []
    real_verdict = field_equations.equivalence_verdict

    def spy(*args):
        seen.append(args)
        return real_verdict(*args)

    monkeypatch.setattr(field_equations, "equivalence_verdict", spy)
    theorem1_check(b, p, 1)
    [(_, plus, minus, scale, linear_scale)] = seen
    root_rho = float(np.sqrt(np.max(b.rho)))
    assert scale == pytest.approx(1.3 ** 2 * root_rho, rel=1e-14)
    assert linear_scale == pytest.approx(1.3 * root_rho, rel=1e-14)
    assert plus == float(np.max(np.abs(dirac_apply(b, p, 1, +1))))
    assert minus == float(np.max(np.abs(dirac_apply(b, p, 1, -1))))


def test_each_action_evaluation_sees_exactly_one_perturbed_entry():
    spec = periodic_spec(6, 1.0, 3)
    rng = np.random.default_rng(22)
    values = rng.normal(size=spec.extents + (2,)) + 1j * rng.normal(size=spec.extents + (2,))
    # an entry below the step: undoing a perturbation by subtracting it
    # again would leave it a few units in the last place off
    values[(1, 2, 3, 1)] = 1.2345678e-7 + 3.3e-8j
    probes = [(1, 2, 3), (1, 2, 4), (5, 0, 1)]
    step = field_equations._STEP
    seen = []

    def action(v):
        seen.append(v.copy())
        return float(np.sum(np.abs(v) ** 2))

    field_equations.action_gradient(action, values, spec, probes)
    want = []
    for probe in probes:
        for comp in range(2):
            for delta in (1.0, 1.0j):
                for sign in (1.0, -1.0):
                    v = values.copy()
                    v[probe + (comp,)] += sign * step * delta
                    want.append(v)
    assert len(seen) == len(want)
    for got, expected in zip(seen, want):
        assert got.tobytes() == expected.tobytes()


def _fsum_integrate(spec, density):
    """The fsum rule the extraction sum in LatticeSpec.integrate reproduces."""
    return math.fsum(np.ravel(density).tolist()) * spec.cell_volume


def _gradient_cases():
    spec20 = periodic_spec(20, 2.0 * np.pi / 20, 3)
    wave = plane_wave_spinor(PlaneWaveLabel(1, 1, 1.0, 0.0), spec20).values
    yield spec20, wave, ModelParams(m=1.0), [(0, 0, 0), (3, 7, 11)]
    spec8 = periodic_spec(8, 2.0 * np.pi / 8, 3)
    base = base_for(spec8)
    rng = np.random.default_rng(31)
    values = random_positive_spinor(rng, base, max_mode=2).bundle(spec8).values
    p = ModelParams(m=1.3, A=covector_on(random_covector_polys(rng, base), spec8))
    yield spec8, values, p, [(1, 2, 3), (6, 0, 5)]


@pytest.mark.parametrize("kind", field_equations.DENSITIES)
def test_variational_derivative_is_bit_identical_under_the_fsum_rule(kind, monkeypatch):
    for spec, values, p, probes in _gradient_cases():
        got = discrete_variational_derivative(kind, values, spec, p, probes)
        with monkeypatch.context() as mp:
            mp.setattr(LatticeSpec, "integrate", _fsum_integrate)
            want = discrete_variational_derivative(kind, values, spec, p, probes)
        assert np.max(np.abs(want)) > 0.0
        assert got.tobytes() == want.tobytes()
