"""Acceptance gate: one check per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here and intentionally duplicated from the library
defaults, so a silent change of a default cannot weaken the gate.
"""

import time

import numpy as np
import pytest

from spinframe.field_equations import Verdict, theorem1_check
from spinframe.grids import ModelParams, periodic_spec
from spinframe.plane_waves import PlaneWaveLabel, plane_wave_spinor, table_of_states
from spinframe.reports import render
from spinframe.sampling import (
    ScaledSpinor,
    base_for,
    random_positive_spinor,
    random_trig_poly,
)
from spinframe.suites import SuiteConfig, run_suite
from spinframe.variational import (
    LemmaVerdict,
    example_operators,
    lemma_check,
)


def _announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {number:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_coframe_correspondence(capsys):
    rep, = run_suite("coframe", SuiteConfig(seed=0))
    ok = rep.passed and rep.max_abs_residual < 1e-12 and rep.runtime_ms < 1000
    _announce(capsys, 1, "coframe correspondence (1e4 spinors, <1s, 1e-12)", ok,
              f"max dev {rep.max_abs_residual:.3g}, {rep.runtime_ms} ms")


def test_criterion_02_two_route_torsion(capsys):
    analytic, refine = run_suite("torsion-routes", SuiteConfig(seed=7))
    ok = analytic.max_abs_residual < 1e-10 and refine.max_abs_residual <= 0.3 \
        and analytic.runtime_ms + refine.runtime_ms < 10_000
    _announce(capsys, 2, "two-route torsion (1e-10 analytic, ratio 4.0+-0.3)", ok,
              f"analytic {analytic.max_abs_residual:.3g}, "
              f"ratio offset {refine.max_abs_residual:.3g}")


def test_criterion_03_kk_decomposition(capsys):
    rep, = run_suite("kk-decomposition", SuiteConfig(seed=0, seeds=100))
    # stencil route is second order: residual ratio ~4 under h -> h/2
    from spinframe.torsion import kk_decomposition_check
    rng = np.random.default_rng(11)
    res = []
    sp = None
    for n in (16, 32):
        spec = periodic_spec(n, 2.0 * np.pi / n, 4)
        if sp is None:
            sp = random_positive_spinor(rng, base_for(spec), max_mode=1)
        r = kk_decomposition_check(sp.bundle(spec), coframe_derivs="grid")
        res.append(r.max_residual)
    ratio = res[0] / res[1]
    ok = rep.max_abs_residual < 1e-10 and 2.5 <= ratio <= 5.5
    _announce(capsys, 3, "KK decomposition (1e-10 analytic, O(h^2) stencil)", ok,
              f"analytic {rep.max_abs_residual:.3g}, stencil ratio {ratio:.2f}")


def test_criterion_04_factorization(capsys):
    rep, = run_suite("factorization", SuiteConfig(seed=0, seeds=1000))
    ok = rep.max_abs_residual < 1e-10 and rep.runtime_ms < 10_000
    _announce(capsys, 4, "factorization identity (1e3 seeds, both r, 1e-10 rel)", ok,
              f"max rel residual {rep.max_abs_residual:.3g}, {rep.runtime_ms} ms")


def test_criterion_05_theorem1_forward(capsys):
    fe, grad, inc = run_suite("theorem1", SuiteConfig(seed=0))
    ok = fe.max_abs_residual < 1e-9 and grad.max_abs_residual < 1e-6 \
        and inc.max_abs_residual == 0.0
    _announce(capsys, 5, "Theorem-1 forward (4 waves + 26 boosted)", ok,
              f"field-eq {fe.max_abs_residual:.3g}, gradient {grad.max_abs_residual:.3g}")


def test_criterion_06_never_inconsistent(capsys):
    spec3 = periodic_spec(6, 2.0 * np.pi / 6, 3)
    base3 = base_for(spec3)
    spec1 = periodic_spec(32, 2.0 * np.pi / 32, 1)
    x = spec1.axis_coords(0)
    op_p, op_m = example_operators(spec1)
    p = ModelParams(m=1.0)
    dt0 = np.zeros(spec3.extents + (3,))
    bad = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        if seed % 4 == 0:
            s = 1 if seed % 8 == 0 else -1
            b = plane_wave_spinor(PlaneWaveLabel(1, s, 1.0, 0.0), spec3)
            r1 = theorem1_check(b, p, 1, dt=dt0)
            c = complex(rng.normal() + 1j * rng.normal()) + 2.0
            u = (c * np.exp(1j * s * x))[:, None]
            r2 = lemma_check(op_p, op_m, u, probes=[(3,)])
        else:
            b = random_positive_spinor(rng, base3, max_mode=1).bundle(spec3)
            r1 = theorem1_check(b, p, 1)
            u = (1.0 + random_trig_poly(rng, base_for(spec1), max_mode=2,
                                        amplitude=0.4)(spec1.meshgrid()))[:, None]
            r2 = lemma_check(op_p, op_m, u, probes=[(3,)])
        if r1.verdict is Verdict.INCONSISTENT or r2.verdict is LemmaVerdict.INCONSISTENT:
            bad += 1
    _announce(capsys, 6, "never Inconsistent over 1e3 seeds", bad == 0,
              f"{bad} inconsistent verdicts")


def test_criterion_07_separation_of_variables(capsys):
    rep, = run_suite("separation", SuiteConfig(seed=0, seeds=100))
    ok = rep.max_abs_residual < 1e-9
    _announce(capsys, 7, "separation of variables (100 seeds, 1e-9)", ok,
              f"max residual {rep.max_abs_residual:.3g}")


def test_criterion_08_state_table(capsys):
    rep, = run_suite("table1", SuiteConfig(seed=0, a0=0.25))
    rows = table_of_states(1.0, 0.25)
    energies = [r[4] for r in rows]
    ok = rep.passed and rep.max_abs_residual < 1e-8 \
        and energies == [0.75, 1.25, 1.25, 0.75]
    _announce(capsys, 8, "state-table labels + measured energies", ok,
              f"energies {energies}, rotation dev {rep.max_abs_residual:.3g}")


def test_criterion_09_ode_example(capsys):
    analytic, stencil, branches = run_suite("appendix-b", SuiteConfig(seed=0))
    ok = analytic.max_abs_residual < 1e-12 and stencil.max_abs_residual < 1e-6 \
        and branches.max_abs_residual == 0.0
    _announce(capsys, 9, "ODE example residuals + lemma branches", ok,
              f"analytic {analytic.max_abs_residual:.3g}, "
              f"stencil {stencil.max_abs_residual:.3g}")


def test_criterion_10_scaling_covariance(capsys):
    from spinframe.lagrangians import dirac_lagrangian, lagrangian_reduced
    from spinframe.variational import combined_lagrangian, first_order_lagrangian
    spec3 = periodic_spec(8, 2.0 * np.pi / 8, 3)
    base3 = base_for(spec3)
    spec1 = periodic_spec(32, 2.0 * np.pi / 32, 1)
    base1 = base_for(spec1)
    op_p, op_m = example_operators(spec1)
    p = ModelParams(m=1.0)
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        sp = random_positive_spinor(rng, base3, max_mode=2)
        h3 = random_trig_poly(rng, base3, max_mode=2, amplitude=0.3, real=True)
        plain = sp.bundle(spec3)
        scaled = ScaledSpinor(sp, h3).bundle(spec3)
        e2h = np.exp(2.0 * h3(spec3.meshgrid()).real)
        for fn in (lambda b: lagrangian_reduced(b, p, 1),
                   lambda b: dirac_lagrangian(b, p, 1, +1),
                   lambda b: dirac_lagrangian(b, p, 1, -1)):
            worst = max(worst, float(np.max(np.abs(fn(scaled) - e2h * fn(plain)))))
        up = random_trig_poly(rng, base1, max_mode=2, amplitude=0.4)
        h1 = random_trig_poly(rng, base1, max_mode=2, amplitude=0.3, real=True)
        x = spec1.meshgrid()
        uv = (1.0 + up(x))[:, None]
        duv = up.derivative(0)(x)[:, None, None]
        hv = h1(x).real
        sv = (np.exp(hv) * (1.0 + up(x)))[:, None]
        dsv = (np.exp(hv) * (up.derivative(0)(x)
                             + h1.derivative(0)(x).real * (1.0 + up(x))))[:, None, None]
        e2h1 = np.exp(2.0 * hv)
        for op in (op_p, op_m):
            worst = max(worst, float(np.max(np.abs(
                first_order_lagrangian(op, sv, dsv)
                - e2h1 * first_order_lagrangian(op, uv, duv)))))
        worst = max(worst, float(np.max(np.abs(
            combined_lagrangian(op_p, op_m, sv, dsv)
            - e2h1 * combined_lagrangian(op_p, op_m, uv, duv)))))
    _announce(capsys, 10, "scaling covariance of all five densities (100 seeds)",
              worst < 1e-12, f"max deviation {worst:.3g}")


def test_criterion_11_determinism_and_runtime(capsys):
    cfg = SuiteConfig(seed=7, seeds=25)
    t0 = time.perf_counter()
    a = render(run_suite("all", cfg), "json")
    b = render(run_suite("all", cfg), "json")
    elapsed = time.perf_counter() - t0
    ok = a == b and elapsed < 120.0
    _announce(capsys, 11, "byte-identical reports, full run < 2 min", ok,
              f"identical={a == b}, two runs took {elapsed:.1f}s")
