"""Suite verdicts fail closed on non-finite residuals and on a
time-reversed coframe, hold at masses other than 1, and time each report
on the calls behind it."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from spinframe import suites
from spinframe.suites import SuiteConfig, run_suite
from spinframe.torsion import KKReport


def _nan_on_call(monkeypatch, name, nan_call, make_nan):
    """Replace suites.<name> so that its nan_call-th call returns NaN."""
    original = getattr(suites, name)
    calls = []

    def patched(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(None)
        return make_nan(out) if len(calls) == nan_call else out

    monkeypatch.setattr(suites, name, patched)
    return calls


@pytest.mark.parametrize("suite,name,nan_call,make_nan", [
    # two factorization_residual calls per seed: call 3 is the second seed
    ("factorization", "factorization_residual", 3, lambda res: np.full_like(res, np.nan)),
    ("kk-decomposition", "kk_decomposition_check", 2,
     lambda rep: KKReport(rep.lhs_norm_sq, rep.rhs_norm_sq, math.nan)),
])
def test_nan_from_a_later_seed_fails_the_report(monkeypatch, suite, name, nan_call, make_nan):
    calls = _nan_on_call(monkeypatch, name, nan_call, make_nan)
    rep, = run_suite(suite, SuiteConfig(seeds=3))
    assert len(calls) >= nan_call
    assert not math.isfinite(rep.max_abs_residual)
    assert not rep.passed


def test_a_time_reversed_coframe_fails_its_report(monkeypatch):
    # negating frame rows 0 and 1 keeps the Gram matrix and the determinant,
    # so only theta^0_0 > 0 can catch it
    original = suites.coframe_map

    def reversed_rows(xi):
        theta, rho = original(xi)
        theta[..., :2, :] *= -1.0
        return theta, rho

    monkeypatch.setattr(suites, "coframe_map", reversed_rows)
    rep, = run_suite("coframe", SuiteConfig(seeds=100))
    assert not math.isfinite(rep.max_abs_residual)
    assert not rep.passed


def test_worst_keeps_nan_and_matches_max_on_finite_values():
    assert math.isnan(suites._worst(0.0, math.nan))
    assert math.isnan(suites._worst(math.nan, 1.0))
    for a, b in ((0.0, 1e-16), (2.0, 1.0), (1.0, 1.0), (0.0, -0.0)):
        assert repr(suites._worst(a, b)) == repr(max(a, b))


def test_theorem1_checks_all_thirty_waves_at_a_non_unit_mass(monkeypatch):
    # 4 rest waves and one boosted wave per momentum m q, q in
    # grid_mode_momenta(), on a grid whose axes are 2 pi / m long
    original = suites.theorem1_check
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(suites, "theorem1_check", counted)
    reps = run_suite("theorem1", SuiteConfig(m=1.3))
    assert len(calls) == 30
    assert all(r.passed for r in reps)


def test_theorem1_holds_one_wave_at_a_time():
    # a 20^3 bundle (values and three derivative slots, complex) is 1.02 MB.
    # Each wave is built when it is checked, so the suite holds at most the
    # wave checked and the next one; with all 30 built first it peaks near
    # 33 MB.  numpy imports its random module on first use, so it is
    # imported here, outside the traced window.
    bundle_bytes = 20 ** 3 * (2 + 3 * 2) * 16
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        run_suite("theorem1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * bundle_bytes


def test_theorem1_times_each_report_on_its_own_calls(monkeypatch):
    # a clock that moves only inside the two timed calls: 2^-6 s per
    # theorem1_check and 2^-8 s per oracle call, exact in binary
    clock = [0.0]

    def ticking(fn, step):
        def timed(*args, **kwargs):
            clock[0] += step
            return fn(*args, **kwargs)
        return timed

    monkeypatch.setattr(suites, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(suites, "theorem1_check", ticking(suites.theorem1_check, 2.0 ** -6))
    monkeypatch.setattr(suites, "discrete_variational_derivative",
                        ticking(suites.discrete_variational_derivative, 2.0 ** -8))
    reps = {r.check_name: r for r in run_suite("theorem1")}
    # 30 waves: 30 / 64 s and 30 / 256 s
    assert reps["theorem1-field-equation"].runtime_ms == 468
    assert reps["theorem1-never-inconsistent"].runtime_ms == 468
    assert reps["theorem1-variational-gradient"].runtime_ms == 117


def test_plane_wave_suites_pass_at_a_non_unit_mass():
    # the plane waves' x0 phase e^{-i s m x0} must be one Fourier mode of
    # the x0 axis, or the grid derivatives see a jump at the seam
    reps = run_suite("theorem1", SuiteConfig(m=1.3)) \
        + run_suite("torsion-routes", SuiteConfig(m=1.3))
    assert len(reps) == 5
    assert all(r.passed for r in reps), [(r.check_name, r.max_abs_residual) for r in reps]


def test_separation_passes_at_a_non_unit_mass():
    # both the lift's factor e^{-i m x3} and the pi/m long x3 axis depend
    # on the mass
    rep, = run_suite("separation", SuiteConfig(m=1.3, seeds=4))
    assert rep.params["m"] == 1.3
    assert rep.passed
