"""Option strings are checked where they enter: a misspelt backend, norm or
derivative route raises instead of falling back to a default.  A wrong
option, rank, format or grid from the caller raises a package error, and a
configuration that cannot be honoured raises ConfigInvalid."""

import numpy as np
import pytest

from spinframe.errors import (
    ConfigInvalid,
    InvalidGrid,
    RankOverflow,
    SpinframeError,
    UnknownOption,
)
from spinframe.field_equations import discrete_variational_derivative
from spinframe.grids import (
    CoframeBundle,
    LatticeField,
    ModelParams,
    derivatives,
    periodic_spec,
)
from spinframe.plane_waves import PlaneWaveLabel, plane_wave_spinor
from spinframe.reports import make_report, render
from spinframe.sampling import (
    base_for,
    coframe_bundle_from_spinor,
    random_positive_spinor,
)
from spinframe.suites import SuiteConfig
from spinframe.torsion import (
    axial_torsion_spinor,
    kk_decomposition_check,
    spinor_contractions,
    spinor_vs_coframe_residual,
)

SPEC3 = periodic_spec(6, 2.0 * np.pi / 6, 3)
SPEC4 = periodic_spec(6, 2.0 * np.pi / 6, 4)


def _bundle3():
    rng = np.random.default_rng(0)
    return random_positive_spinor(rng, base_for(SPEC3), max_mode=2).bundle(SPEC3)


def _bundle4():
    rng = np.random.default_rng(0)
    return random_positive_spinor(rng, base_for(SPEC4), max_mode=2).bundle(SPEC4)


def test_unknown_option_is_a_value_error_and_a_package_error():
    assert issubclass(UnknownOption, ValueError)
    assert issubclass(UnknownOption, SpinframeError)


def test_coframe_bundle_rejects_unknown_backend():
    with pytest.raises(ValueError, match="'fft'"):
        coframe_bundle_from_spinor(_bundle3().values, SPEC3, backend="fft")


def test_derivatives_rejects_unknown_backend():
    with pytest.raises(ValueError, match="'fft'"):
        derivatives(np.zeros(SPEC3.extents), SPEC3, "fft")
    with pytest.raises(UnknownOption, match="'stencil3'"):
        derivatives(np.zeros(SPEC3.extents), SPEC3, "stencil3")
    with pytest.raises(UnknownOption, match="'stencil3'"):
        CoframeBundle.from_grid(SPEC3, np.zeros(SPEC3.extents + (3, 3)), "stencil3")


def test_backend_is_checked_even_where_no_derivative_is_taken():
    # a bundle whose rows are never read never reaches grids.derivatives,
    # so the name is checked at entry
    theta = np.zeros(SPEC3.extents + (3, 3))
    with pytest.raises(UnknownOption, match="'fft'"):
        CoframeBundle.from_grid(SPEC3, theta, backend="fft")


@pytest.mark.parametrize("probes", ([], [(1, 2, 3)]))
def test_variational_derivative_rejects_unknown_density_kind(probes):
    # checked at entry: without probes it used to return an empty array
    with pytest.raises(UnknownOption, match="'bogus'"):
        discrete_variational_derivative("bogus", _bundle3().values, SPEC3,
                                        ModelParams(m=1.0), probes)


def test_torsion_residual_rejects_unknown_norm():
    b = _bundle3()
    cb = coframe_bundle_from_spinor(b.values, SPEC3)
    with pytest.raises(ValueError, match="'l2'"):
        spinor_vs_coframe_residual(axial_torsion_spinor(b), cb, norm="l2")


def test_kk_check_rejects_unknown_coframe_route():
    with pytest.raises(ValueError, match="'stencil'"):
        kk_decomposition_check(_bundle4(), coframe_derivs="stencil")


@pytest.mark.parametrize("backend", ("stencil", "stencil4", "spectral"))
def test_known_backends_still_accepted(backend):
    b = _bundle3()
    derivatives(b.values, SPEC3, backend)
    coframe_bundle_from_spinor(b.values, SPEC3, backend=backend)


_CALLER_ERRORS = {
    "report-format": (UnknownOption, lambda: render([make_report("c", {}, 0.0, 0.0, 1.0, 0)],
                                                    "xml")),
    "rank-range": (RankOverflow, lambda: LatticeField(SPEC3, 4, np.zeros(SPEC3.extents + (1,)))),
    "mixing-on-3d": (InvalidGrid, lambda: spinor_contractions(_bundle3(), ModelParams(m=1.0))),
    "kk-on-3d": (InvalidGrid, lambda: kk_decomposition_check(_bundle3(), "chain")),
    "plane-wave-on-2d": (InvalidGrid, lambda: plane_wave_spinor(PlaneWaveLabel(1, 1, 1.0, 0.0),
                                                                periodic_spec(4, 1.0, 2))),
    "plane-wave-on-4d": (InvalidGrid, lambda: plane_wave_spinor(PlaneWaveLabel(1, 1, 1.0, 0.0),
                                                                periodic_spec(4, 1.0, 4))),
}


@pytest.mark.parametrize("error,call", list(_CALLER_ERRORS.values()), ids=list(_CALLER_ERRORS))
def test_a_wrong_kind_format_or_grid_raises_a_package_value_error(error, call):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, SpinframeError)
    assert isinstance(info.value, ValueError)


_UNHONOURABLE_CONFIGS = {
    "fractional-seed-count": lambda: SuiteConfig(seeds=2.5),
    "fractional-seed": lambda: SuiteConfig(seed=1.5),
    "A-of-two-components": lambda: ModelParams(m=1, A=(1.0, 2.0)),
    "A-field-of-two-components": lambda: ModelParams(m=1, A=np.zeros(SPEC3.extents + (2,))),
    "nan-A": lambda: ModelParams(m=1, A=(np.nan, 0.0, 0.0)),
    "inf-A-field": lambda: ModelParams(m=1, A=np.full(SPEC3.extents + (3,), np.inf)),
}


@pytest.mark.parametrize("make", list(_UNHONOURABLE_CONFIGS.values()),
                         ids=list(_UNHONOURABLE_CONFIGS))
def test_a_config_that_cannot_be_honoured_raises_config_invalid(make):
    # a seed or seed count that is not an int used to end in a TypeError
    # from range or SeedSequence, a short A in an IndexError, and a NaN A
    # in a NaN residual everywhere
    with pytest.raises(ConfigInvalid):
        make()
