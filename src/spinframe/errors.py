"""Exception hierarchy shared by all spinframe modules, and the guards that
raise them.

Each guard is written so that a NaN fails it: an option outside its
choices (``require_choice``), a mass that is not a finite positive real
(``require_mass``), a density that is not strictly positive or vanishes
somewhere (``require_density``), a torsion scalar or covector that is not
finite everywhere (``require_finite``), and a spelled-out density that
differs from its compact form (``require_agreement``).
``require_shape`` rejects an array handed in on the wrong grid, such as a
gradient that numpy would only broadcast against it.
"""

import math
import numbers

import numpy as np


class SpinframeError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveDensity(SpinframeError):
    """Spinor density |c1|^2 - |c2|^2 is not strictly positive."""


class NonFiniteTorsion(SpinframeError):
    """A torsion scalar or covector, or a Dirac Lagrangian where the torsion
    is undefined (rho <= 0), is NaN or infinite somewhere, as from a
    non-finite spinor derivative."""


class WrongDensitySign(SpinframeError):
    """A plane-wave amplitude has no positive-density kernel spinor: for an
    on-shell momentum, ``plane_waves.boosted_amplitude`` raises it on the
    branch whose kernel vector has non-positive density."""


class VanishingDensity(SpinframeError):
    """Spinor density vanishes somewhere on the grid."""


class RankMismatch(SpinframeError):
    """Operands have incompatible antisymmetric ranks."""


class RankOverflow(SpinframeError, ValueError):
    """A form rank outside 0..dims of its grid, as of a wedge product that
    would exceed the grid dimension."""


class UnsupportedRank(SpinframeError):
    """Hodge dual requested for a rank/dimension it is not defined for."""


class InvalidGrid(SpinframeError, ValueError):
    """A grid the lattice code cannot honour: bad extents or spacing, an
    ``out`` array that is not grid-minor, a field on the wrong grid, or
    non-integer modes or coordinates that are not axis-aligned for
    ``TrigPoly``."""


class DegenerateDenominator(SpinframeError):
    """L_plus - L_minus too close to zero for the factorized Lagrangian."""


class DimensionMismatch(SpinframeError):
    """Operator and field dimensions disagree."""


class NotHermitian(SpinframeError, ValueError):
    """An operator coefficient is not Hermitian, or is not finite."""


class VanishingU(SpinframeError):
    """Scalar function u vanishes somewhere on the grid."""


class ProbeOutsideInterior(SpinframeError):
    """Variational probe that is not a grid point: not one integer index per
    axis, or an index outside 0..n-1 on its axis."""


class InvalidProbeField(SpinframeError):
    """Probe potential A0 outside the open interval (0, m)."""


class UnknownSuite(SpinframeError):
    """Requested verification suite does not exist."""


class ConfigInvalid(SpinframeError, ValueError):
    """A configuration violates a precondition: a suite option, a mass that
    is not finite and positive, a plane-wave potential outside [0, m), an
    off-shell momentum, or a 2x2 matrix outside the Pauli kernels' pattern."""


class IoError(SpinframeError):
    """A report file could not be written."""


class UnknownOption(SpinframeError, ValueError):
    """An option string names none of the supported choices."""


def require_choice(what: str, value, choices) -> None:
    """Raise UnknownOption unless value is one of choices.

    Options are checked where they enter, so a misspelt value fails instead
    of falling back to a default.
    """
    if value not in choices:
        raise UnknownOption(f"unknown {what} {value!r}; choose from {tuple(choices)}")


def require_mass(m) -> None:
    """Raise ConfigInvalid unless m is a finite, positive real number; a bool
    is not one, although Python counts it as an int."""
    if isinstance(m, bool) or not (isinstance(m, numbers.Real) and math.isfinite(m) and m > 0):
        raise ConfigInvalid(f"mass must be finite and positive, got {m!r}")


def require_density(rho: np.ndarray, positive: bool = True) -> None:
    """Raise NonPositiveDensity unless rho > 0 everywhere, or, with positive
    False, VanishingDensity unless rho != 0 everywhere.  A NaN raises."""
    if positive:
        if not np.all(rho > 0.0):
            raise NonPositiveDensity(f"min density {np.min(rho):.3g} <= 0")
    elif np.any(rho == 0.0) or np.any(np.isnan(rho)):
        raise VanishingDensity("density vanishes on the grid")


def require_finite(x: np.ndarray, what: str) -> None:
    """Raise NonFiniteTorsion unless every entry of x is finite."""
    if not np.isfinite(x).all():
        raise NonFiniteTorsion(f"{what} is not finite everywhere on the grid")


def require_shape(x: np.ndarray, shape: tuple[int, ...], what: str) -> None:
    """Raise InvalidGrid unless x has exactly this shape."""
    if np.shape(x) != tuple(shape):
        raise InvalidGrid(f"{what} has shape {np.shape(x)}, expected {tuple(shape)}")


# Relative bound on the spelled-out/compact mismatch of a density; both
# forms are exact algebra, so any larger deviation is a bug, not roundoff.
_CROSS_TOL = 1e-12


def require_agreement(spelled: np.ndarray, compact: np.ndarray, what: str) -> None:
    """Raise AssertionError unless the two forms of a density agree pointwise
    to _CROSS_TOL times max(1, max |spelled|).  A NaN in either raises."""
    scale = max(1.0, float(np.max(np.abs(spelled))))
    dev = float(np.max(np.abs(spelled - compact)))
    if not dev <= _CROSS_TOL * scale:
        raise AssertionError(f"{what}: spelled-out and compact forms differ by {dev:.3g}")
