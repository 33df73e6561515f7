"""Closed-form plane-wave solutions, their coframe picture, classification
into particle/antiparticle and spin states, and discrete grid-mode momenta
for exact lattice checks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import coframe_map
from .errors import (
    ConfigInvalid,
    InvalidGrid,
    InvalidProbeField,
    WrongDensitySign,
    require_choice,
    require_mass,
)
from .grids import LatticeSpec, ModelParams, SpinorBundle, periodic_spec
from .sampling import mode_bundle


@dataclass(frozen=True)
class PlaneWaveLabel:
    """Sign pair (r, s) and a constant electric potential A0 in [0, m)."""

    r: int
    s: int
    m: float
    a0: float

    def __post_init__(self):
        require_choice("sign r", self.r, (-1, 1))
        require_choice("sign s", self.s, (-1, 1))
        require_mass(self.m)
        if not (isinstance(self.a0, numbers.Real) and 0.0 <= self.a0 < self.m):
            raise ConfigInvalid("constant potential must satisfy 0 <= A0 < m")

    @property
    def energy(self) -> float:
        """Quantum-mechanical energy |s m - r A0| of the wave."""
        return abs(self.s * self.m - self.r * self.a0)

    @property
    def temporal_frequency(self) -> float:
        """Coefficient of x0 in the phase, s m - r A0 (signed)."""
        return self.s * self.m - self.r * self.a0


def plane_wave_spinor(label: PlaneWaveLabel, spec: LatticeSpec) -> SpinorBundle:
    """eta = (1, 0) exp(-i (s m - r A0) x0) on a 3D grid, else InvalidGrid:
    one ``mode_bundle`` with closed-form derivatives.  Its 1+3 lift is
    ``lift_x3(plane_wave_spinor(label, spec4.spatial), spec4, r m)``."""
    if spec.dims != 3:
        raise InvalidGrid("plane waves live on 3D grids")
    return mode_bundle(np.array([1.0, 0.0]), (label.temporal_frequency, 0.0, 0.0), spec)


def plane_wave_params(label: PlaneWaveLabel) -> ModelParams:
    return ModelParams(m=label.m, A=np.array([label.a0, 0.0, 0.0]))


@dataclass(frozen=True)
class Classification:
    kind: str        # "electron" or "positron"
    spin: str        # "up" or "down"
    energy: float


def classify(label: PlaneWaveLabel) -> Classification:
    """Particle/antiparticle and spin labels of the wave.

    The split needs a nonzero constant potential to be observable, since at
    A0 = 0 the four energies degenerate pairwise; a strictly interior
    0 < A0 < m is required.
    """
    if not 0.0 < label.a0 < label.m:
        raise InvalidProbeField("classification requires 0 < A0 < m")
    kind = "electron" if label.r == label.s else "positron"
    spin = "up" if label.s == +1 else "down"
    return Classification(kind, spin, label.energy)


def table_of_states(m: float, a0: float):
    """All four (r, s) waves with their labels and energies, sorted the way
    the four-row state table is conventionally presented."""
    rows = []
    for r, s in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        lab = PlaneWaveLabel(r, s, m, a0)
        c = classify(lab)
        rows.append((r, s, c.kind, c.spin, c.energy))
    return rows


def measured_rotation_rate(label: PlaneWaveLabel) -> float:
    """Slope of the unwrapped coframe rotation angle along x0, measured from
    the sampled coframe itself (independent of the closed form).

    The wave is sampled on 64 points of the x0 line at x1 = x2 = 0 only, a
    (64, 1, 1) grid: the slope reads nothing else.
    """
    spec = periodic_spec((64, 1, 1), 2.0 * np.pi / 64, 3)
    b = plane_wave_spinor(label, spec)
    theta, rho = coframe_map(b.values)
    # theta^1_1 + i theta^2_1 = e^{-2 i phase(x0)} for this wave
    w = theta[:, 0, 0, 1, 1] + 1j * theta[:, 0, 0, 2, 1]
    ang = np.unwrap(np.angle(w))
    x0 = spec.axis_coords(0)
    slope = np.polyfit(x0, ang, 1)[0]
    return -slope / 2.0


# ---------------------------------------------------------------------------
# Boosted solutions: null spinor of the symbol matrix at momentum p
# ---------------------------------------------------------------------------


def symbol_matrix(p: np.ndarray, s: int, m: float) -> np.ndarray:
    """sigma^alpha p_alpha + s m sigma^3 acting on e^{-i p.x} amplitudes."""
    p0, p1, p2 = p
    return np.array([[-p0 + s * m, p1 - 1j * p2],
                     [p1 + 1j * p2, -p0 - s * m]])


def boosted_amplitude(p: np.ndarray, s: int, m: float) -> np.ndarray:
    """Unit-density amplitude zeta with symbol_matrix(p) zeta = 0.

    Exists for on-shell p (p0^2 - p1^2 - p2^2 = m^2) on the branch where the
    kernel vector has positive density; raises ConfigInvalid for an
    off-shell p and WrongDensitySign on the other branch.
    """
    M = symbol_matrix(np.asarray(p, float), s, m)
    _, sv, vh = np.linalg.svd(M)
    if sv[-1] > 1e-9 * max(1.0, sv[0]):
        raise ConfigInvalid(f"momentum {p} is not on shell (smallest singular value {sv[-1]:.3g})")
    z = vh[-1].conj()
    rho = abs(z[0]) ** 2 - abs(z[1]) ** 2
    if rho <= 1e-12:
        raise WrongDensitySign("kernel spinor has non-positive density on this branch")
    return z / np.sqrt(rho)


def boosted_wave(p, s: int, m: float, spec: LatticeSpec) -> SpinorBundle:
    """eta = zeta e^{-i p.x}, zeta = ``boosted_amplitude``, by ``mode_bundle``;
    periodic on a 3D spec where p is a grid mode."""
    return mode_bundle(boosted_amplitude(p, s, m), p, spec)


def grid_mode_momenta() -> list[tuple[int, int, int]]:
    """Integer on-shell momenta for unit mass: the rest modes (+-1, 0, 0) and
    the Pythagorean-type families 9 - 4 - 4 = 1 and 81 - 16 - 64 = 1, with all
    sign and axis permutations.  Exact lattice Fourier modes on 2 pi grids."""
    out = set()
    for p0 in (1, -1):
        out.add((p0, 0, 0))
    for p0 in (3, -3):
        for s1 in (2, -2):
            for s2 in (2, -2):
                out.add((p0, s1, s2))
    for p0 in (9, -9):
        for a, b in ((4, 8), (8, 4)):
            for s1 in (1, -1):
                for s2 in (1, -1):
                    out.add((p0, s1 * a, s2 * b))
    return sorted(out)
