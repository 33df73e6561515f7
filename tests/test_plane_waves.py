import numpy as np
import pytest

from spinframe.algebra import coframe_map
from spinframe.errors import InvalidGrid, InvalidProbeField, WrongDensitySign
from spinframe.grids import periodic_spec
from spinframe.plane_waves import (
    Classification,
    PlaneWaveLabel,
    boosted_amplitude,
    boosted_wave,
    classify,
    grid_mode_momenta,
    measured_rotation_rate,
    plane_wave_spinor,
    symbol_matrix,
    table_of_states,
)
from spinframe.sampling import lift_x3, mode_bundle
from spinframe.torsion import spinor_contractions


def _lifted_wave(label, spec4):
    """The 1+3 plane wave xi = eta e^{-i r m x3} on a 4D grid."""
    return lift_x3(plane_wave_spinor(label, spec4.spatial), spec4, label.r * label.m)


def test_label_validation():
    with pytest.raises(ValueError):
        PlaneWaveLabel(0, 1, 1.0, 0.0)
    with pytest.raises(ValueError):
        PlaneWaveLabel(1, 1, 1.0, 1.0)   # A0 must be below m
    with pytest.raises(ValueError):
        PlaneWaveLabel(1, 1, 1.0, -0.1)


def test_energy_values_at_quarter_potential():
    vals = {(r, s): PlaneWaveLabel(r, s, 1.0, 0.25).energy
            for r in (1, -1) for s in (1, -1)}
    assert vals[(1, 1)] == pytest.approx(0.75)
    assert vals[(1, -1)] == pytest.approx(1.25)
    assert vals[(-1, 1)] == pytest.approx(1.25)
    assert vals[(-1, -1)] == pytest.approx(0.75)


def test_classification_table():
    rows = table_of_states(1.0, 0.25)
    assert rows == [
        (1, 1, "electron", "up", 0.75),
        (1, -1, "positron", "down", 1.25),
        (-1, 1, "positron", "up", 1.25),
        (-1, -1, "electron", "down", 0.75),
    ]


def test_classification_requires_interior_potential():
    with pytest.raises(InvalidProbeField):
        classify(PlaneWaveLabel(1, 1, 1.0, 0.0))


def test_dispersion_matrix_kernel():
    # on spatially constant fields e^{-i p0 x0} the symbol is
    # diag(-p0 + s m, -p0 - s m): its kernel is nontrivial iff p0 = +-m
    m = symbol_matrix(np.array([1.0, 0.0, 0.0]), 1, 1.0)
    assert np.allclose(m, np.diag([0.0, -2.0]))
    assert np.linalg.det(m) == 0.0
    assert np.linalg.det(symbol_matrix(np.array([0.9, 0.0, 0.0]), 1, 1.0)) != 0.0


def test_measured_rotation_rate_matches_energy():
    for r in (1, -1):
        for s in (1, -1):
            lab = PlaneWaveLabel(r, s, 1.0, 0.25)
            rate = measured_rotation_rate(lab)
            assert rate == pytest.approx(lab.temporal_frequency, abs=1e-8)
            assert abs(rate) == pytest.approx(lab.energy, abs=1e-8)


def test_rotation_rate_matches_the_x0_line_of_a_cubic_wave():
    # the rate samples only the x0 line; the same line cut from the full
    # 64^3 wave gives the same slope
    n = 64
    spec = periodic_spec(n, 2.0 * np.pi / n, 3)
    x0 = spec.axis_coords(0)
    for r in (1, -1):
        for s in (1, -1):
            lab = PlaneWaveLabel(r, s, 1.0, 0.25)
            theta, _ = coframe_map(plane_wave_spinor(lab, spec).values)
            w = theta[:, 0, 0, 1, 1] + 1j * theta[:, 0, 0, 2, 1]
            want = -np.polyfit(x0, np.unwrap(np.angle(w)), 1)[0] / 2.0
            assert measured_rotation_rate(lab) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_coframe_rotation_angle_doubles_phase():
    # the coframe of xi = (1, 0) e^{-i phase} rotates about the third axis by
    # 2 phase, phase = (s m - r A0) x0 + r m x3: theta^1_1 + i theta^2_1 =
    # e^{-2 i phase}
    spec = periodic_spec(8, 2.0 * np.pi / 8, 4)
    x0 = spec.axis_coords(0)[:, None]
    x3 = spec.axis_coords(3)[None, :]
    for r in (1, -1):
        lab = PlaneWaveLabel(r, 1, 1.0, 0.25)
        theta, _ = coframe_map(_lifted_wave(lab, spec).values[:, 0, 0, :])
        angle = 2.0 * (lab.temporal_frequency * x0 + r * lab.m * x3)
        w = theta[..., 1, 1] + 1j * theta[..., 2, 1]
        assert np.max(np.abs(w - np.exp(-1j * angle))) < 1e-13


def test_grid_mode_momenta_on_shell():
    moms = grid_mode_momenta()
    assert len(moms) >= 20
    assert (1, 0, 0) in moms and (-1, 0, 0) in moms
    for p0, p1, p2 in moms:
        assert p0 ** 2 - p1 ** 2 - p2 ** 2 == 1


def test_boosted_amplitude_unit_density_and_kernel():
    for mom in [(3, 2, 2), (-3, 2, -2), (9, 4, 8)]:
        s = 1 if mom[0] > 0 else -1
        z = boosted_amplitude(np.array(mom, float), s, 1.0)
        assert abs(z[0]) ** 2 - abs(z[1]) ** 2 == pytest.approx(1.0)
        assert np.max(np.abs(symbol_matrix(np.array(mom, float), s, 1.0) @ z)) < 1e-12


def test_boosted_amplitude_wrong_branch():
    with pytest.raises(WrongDensitySign):
        boosted_amplitude(np.array([3.0, 2.0, 2.0]), -1, 1.0)


def test_boosted_amplitude_off_shell():
    with pytest.raises(ValueError):
        boosted_amplitude(np.array([2.0, 0.0, 0.0]), 1, 1.0)


def test_plane_wave_spinor_shapes():
    spec3 = periodic_spec(8, 2.0 * np.pi / 8, 3)
    spec4 = periodic_spec(8, 2.0 * np.pi / 8, 4)
    lab = PlaneWaveLabel(1, 1, 1.0, 0.0)
    b3 = plane_wave_spinor(lab, spec3)
    assert b3.values.shape == (8, 8, 8, 2)
    b4 = _lifted_wave(lab, spec4)
    assert b4.values.shape == (8, 8, 8, 8, 2)
    # the bilinears of the separated 4D wave do not depend on x3, which is
    # why its residual is handed zero x3 derivatives
    c = spinor_contractions(b4)
    for q in (c.rho, c.t, c.u):
        assert np.max(np.abs(q - q[:, :, :, :1])) <= 1e-13


def _axis_product(zeta, p, spec):
    """zeta e^{-i p.x} and its derivatives, (*n, 2) and (*n, dims, 2), with
    the phase a product of one exp per axis: the per-mode reference for
    the single-exp closed form."""
    phase = np.ones(spec.extents, complex)
    for p_a, x in zip(p, spec.meshgrid()):
        phase = phase * np.exp(-1j * p_a * x)
    vals = phase[..., None] * np.asarray(zeta)
    return vals, -1j * np.asarray(p, float)[:, None] * vals[..., None, :]


@pytest.mark.parametrize("m", [0.5, 1.0, 1.3])
def test_waves_match_a_per_axis_phase_product(m):
    # every axis 2 pi / m long, as in theorem1: the boosted momenta m q are
    # grid modes
    specs = {dims: periodic_spec(8, 2.0 * np.pi / (8 * m), dims) for dims in (3, 4)}
    cases = []
    for r in (1, -1):
        for s in (1, -1):
            lab = PlaneWaveLabel(r, s, m, 0.25 * m)
            w = lab.temporal_frequency
            cases.append((plane_wave_spinor(lab, specs[3]), (1.0, 0.0), (w, 0.0, 0.0)))
            cases.append((_lifted_wave(lab, specs[4]), (1.0, 0.0), (w, 0.0, 0.0, r * m)))
    for q in ((1, 0, 0), (-3, 2, -2), (9, 4, 8), (-9, -8, 4)):
        s = 1 if q[0] > 0 else -1
        p = m * np.asarray(q, float)
        cases.append((boosted_wave(p, s, m, specs[3]), boosted_amplitude(p, s, m), p))
    for b, zeta, p in cases:
        vals, derivs = _axis_product(zeta, p, b.spec)
        assert b.values.shape == vals.shape and b.derivs.shape == derivs.shape
        assert np.max(np.abs(b.values - vals)) <= 1e-13
        assert np.max(np.abs(b.derivs - derivs)) <= 1e-13 * max(1.0, float(np.max(np.abs(p))))


def test_mode_bundle_rejects_a_momentum_of_another_length():
    with pytest.raises(InvalidGrid):
        mode_bundle((1.0, 0.0), (1.0, 0.0, 0.0), periodic_spec(4, 1.0, 4))
    with pytest.raises(InvalidGrid):
        boosted_wave((3.0, 2.0, 2.0), 1, 1.0, periodic_spec(4, 1.0, 4))
