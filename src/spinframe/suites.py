"""Named verification suites.

Each suite runs a deterministic set of checks under a single seed and
returns CheckReports; the exit-code contract is zero iff every report
passes.  The random generator is numpy's default_rng (PCG64) throughout,
so identical configuration and seed reproduce every drawn field exactly.

``TABLE`` gives each suite's function, whether it reports its seed, and
the optional ``SuiteConfig`` fields it reads with their defaults.  The
runner (``run_suite``) calls the function with exactly those fields, and the
seed if reported, as keyword arguments, so no suite can read an option it
does not declare; it fills each report's m and seed params (null where not
read) and rejects an option given to a single suite that does not read it.
The CLI's help text comes from the same table (``readers``).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .algebra import coframe_map, verify_coframe
from .errors import ConfigInvalid, UnknownSuite, require_mass
from .field_equations import (
    Verdict,
    dirac_apply,
    discrete_variational_derivative,
    field_equation_residual_4d,
    field_equation_residual_reduced,
    theorem1_check,
)
from .grids import ModelParams, derivatives, periodic_spec
from .lagrangians import dirac_contraction, factorization_residual, lagrangian_reduced
from .pauli import grid_minor
from .plane_waves import (
    PlaneWaveLabel,
    boosted_wave,
    grid_mode_momenta,
    measured_rotation_rate,
    plane_wave_params,
    plane_wave_spinor,
    table_of_states,
)
from .reports import CheckReport, make_report
from .sampling import (
    base_for,
    coframe_bundle_from_spinor,
    covector_on,
    lift_values_x3,
    lift_x3,
    random_covector_polys,
    random_positive_spinor,
)
from .torsion import (
    axial_torsion_spinor,
    kk_decomposition_check,
    reduced_axial_torsion,
    spinor_vs_coframe_residual,
)
from .variational import example_operators, example_ode_residual, lemma_check


@dataclass(frozen=True)
class SuiteConfig:
    # m, a0 and seeds left None take each reading suite's default in TABLE
    m: float | None = None      # mass
    seed: int = 0
    a0: float | None = None     # constant electric potential
    seeds: int | None = None    # sample count

    def __post_init__(self):
        # a bool is no mass, A0, seed or count, although Python counts it
        # as an int
        if self.m is not None:
            require_mass(self.m)
        if self.a0 is not None and (isinstance(self.a0, bool) or not (
                isinstance(self.a0, numbers.Real) and math.isfinite(self.a0))):
            raise ConfigInvalid(f"A0 must be finite, got {self.a0!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigInvalid(f"seed must be a non-negative int, got {self.seed!r}")
        if self.seeds is not None and (not _is_int(self.seeds) or self.seeds < 1):
            raise ConfigInvalid(f"seed count must be an int of at least 1, got {self.seeds!r}")


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _worst(worst: float, x: float) -> float:
    """max(worst, x) that keeps a NaN: the builtin max(0.0, nan) is 0.0,
    which would let a NaN residual from a later seed pass."""
    return x if x > worst or math.isnan(x) else worst


def _field_rngs(seed: int, seeds: int):
    """One generator per drawn field of a seeded property suite: field k of
    seed draws from default_rng(seed * 100_003 + k)."""
    return (np.random.default_rng(seed * 100_003 + k) for k in range(seeds))


def _timed_report(name: str, params: dict, bound: float, residual) -> CheckReport:
    """The report of one check: residual() against bound, timed."""
    t0 = time.perf_counter()
    dev = residual()
    return make_report(name, params, dev, dev, bound, int(1000 * (time.perf_counter() - t0)))


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def _suite_coframe(params: dict, seed: int, seeds: int):
    def run():
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(seeds, 2)) + 1j * rng.normal(size=(seeds, 2))
        # force positive class: make the first component dominate
        a[:, 0] += np.sign(a[:, 0].real + 1e-300) * (np.abs(a[:, 1]) + 0.1)
        theta, rho = coframe_map(a)
        rep = verify_coframe(theta, rho)
        # Gram and det do not see a time-reversed frame or a negative
        # density: either fails the report with a non-finite residual
        worst = _worst(rep.max_orthonormality_deviation, rep.det_deviation)
        return worst if rep.oriented else math.nan

    return [_timed_report("coframe-correspondence", params, 1e-12, run)]


def _suite_torsion_routes(params: dict, seed: int, m: float):
    # analytic-mode agreement on plane waves (exact x-dependence)
    def analytic():
        worst = 0.0
        # a 2 pi / m long x0 axis, on which the x0 phase e^{-i s m x0} of a
        # plane wave at A0 = 0 is one Fourier mode: no jump at the seam
        spec = periodic_spec(16, (2.0 * np.pi / (16 * m),) + (2.0 * np.pi / 16,) * 2, 3)
        for r in (1, -1):
            for s in (1, -1):
                lab = PlaneWaveLabel(r, s, m, 0.0)
                b = plane_wave_spinor(lab, spec)
                cb = coframe_bundle_from_spinor(b.values, spec, backend="spectral")
                worst = _worst(worst, spinor_vs_coframe_residual(axial_torsion_spinor(b), cb))
        return worst

    # stencil refinement: residual is O(h^2), RMS shrinking by ~4 under h -> h/2
    def refinement():
        rms = _refinement_rms(seed)
        return abs(rms[0] / rms[1] - 4.0)

    return [_timed_report("torsion-two-routes-analytic", params, 1e-10, analytic),
            _timed_report("torsion-two-routes-refinement", params, 0.3, refinement)]


def _refinement_rms(seed: int) -> list[float]:
    """RMS mismatch of the two torsion routes for one random field of the
    seed, sampled on 32^3 and then on 64^3 with the order-2 stencil.

    On each grid the spinor route runs first; the bundle is then dropped,
    its values kept until theta is built, so the derivative stack and the
    values are gone before the coframe route differentiates theta.  The
    spinor stage holds the bundle (16 grid-sized float arrays), Im z, rho,
    t and one temporary; the coframe stage theta (9), t, the running
    total, one row's d theta^j (3) and one component's gradient (3).
    """
    specs = [periodic_spec(n, 2.0 * np.pi / n, 3) for n in (32, 64)]
    sp = random_positive_spinor(np.random.default_rng(seed), base_for(specs[0]), max_mode=2)
    rms = []
    for spec in specs:
        b = sp.bundle(spec)
        t = axial_torsion_spinor(b)
        values = b.values
        del b
        cb = coframe_bundle_from_spinor(values, spec)
        del values
        rms.append(spinor_vs_coframe_residual(t, cb, norm="rms"))
        # the 32^3 fields must not be alive while the 64^3 ones are built
        del t, cb
    return rms


def _suite_kk(params: dict, seed: int, seeds: int):
    def run():
        worst = 0.0
        spec = periodic_spec(8, 2.0 * np.pi / 8, 4)
        base = base_for(spec)
        for rng in _field_rngs(seed, seeds):
            sp = random_positive_spinor(rng, base, max_mode=2)
            rep = kk_decomposition_check(sp.bundle(spec), coframe_derivs="chain")
            worst = _worst(worst, rep.max_residual)
        return worst

    return [_timed_report("kk-decomposition-analytic", params, 1e-10, run)]


def _suite_factorization(params: dict, seed: int, m: float, seeds: int):
    def run():
        worst = 0.0
        spec = periodic_spec(8, 2.0 * np.pi / 8, 3)
        base = base_for(spec)
        for rng in _field_rngs(seed, seeds):
            sp = random_positive_spinor(rng, base, max_mode=2)
            A = covector_on(random_covector_polys(rng, base), spec)
            p = ModelParams(m=m, A=A)
            b = sp.bundle(spec)
            scale = float(np.max(np.abs(lagrangian_reduced(b, p, 1)))) + m ** 2
            for r in (1, -1):
                res = factorization_residual(b, p, r)
                worst = _worst(worst, float(np.max(np.abs(res))) / scale)
        return worst

    return [_timed_report("factorization-identity", params, 1e-10, run)]


def _suite_separation(params: dict, seed: int, m: float, seeds: int):
    def run():
        worst = 0.0
        n = 12
        spec3 = periodic_spec(n, 2.0 * np.pi / n, 3)
        # the x3 axis is pi/m long, so the lift is anti-periodic on it: only
        # its closed-form x3 derivative is used, never a grid one
        spec4 = periodic_spec((n, n, n, 8), (2.0 * np.pi / n,) * 3 + (np.pi / m / 8,), 4)
        base3 = base_for(spec3)
        p = ModelParams(m=m)
        # grid-minor gradients; their x3 slots stay zero
        dt4 = grid_minor(spec4.extents + (4,), 4, float)
        dt4[..., 3] = 0.0
        du4 = grid_minor(spec4.extents + (3,), 4, float)
        du4[...] = 0.0
        for rng in _field_rngs(seed, seeds):
            b3 = random_positive_spinor(rng, base3, max_mode=2).bundle(spec3)
            # one shared in-plane gradient of the torsion scalar for both
            # routes; its x3 derivative, and that of u, vanish
            t3 = reduced_axial_torsion(b3, dirac_contraction(b3, p, 1).real)
            dt3 = derivatives(t3, spec3, "spectral")
            res3 = field_equation_residual_reduced(b3, p, 1, dt3)
            # xi = eta e^{-i m x3}, the r = +1 branch
            b4 = lift_x3(b3, spec4, m)
            for a in range(3):
                dt4[..., a] = dt3[..., a, None]
            res4 = field_equation_residual_4d(b4, p, dt4, du4)
            # res3 lifted by the same factor
            res4 -= lift_values_x3(res3, spec4, m)
            worst = _worst(worst, float(np.max(np.abs(res4))))
        return worst

    return [_timed_report("separation-of-variables", params, 1e-9, run)]


def _suite_theorem1(params: dict, seed: int, m: float):
    worst_fe, worst_grad, inconsistent = 0.0, 0.0, 0
    # the field-equation reports are timed on the theorem1_check calls, the
    # gradient report on the oracle calls
    check_s, oracle_s = 0.0, 0.0
    n = 20
    # every axis 2 pi / m long: the rest waves' x0 phase and the boosted
    # waves' momenta m q, q in grid_mode_momenta(), are its Fourier modes
    spec = periodic_spec(n, 2.0 * np.pi / (n * m), 3)
    dt0 = grid_minor(spec.extents + (3,), 3, float)
    dt0[...] = 0.0

    def waves():
        # each wave is built when it is checked, so at most two bundles
        # (the one checked and the next one built) are alive at a time
        for r in (1, -1):
            for s in (1, -1):
                yield plane_wave_spinor(PlaneWaveLabel(r, s, m, 0.0), spec), r, s
        for q in grid_mode_momenta():
            s = 1 if q[0] > 0 else -1
            yield boosted_wave(m * np.asarray(q, float), s, m, spec), 1, s

    p = ModelParams(m=m)
    rng = np.random.default_rng(seed)
    for b, r, s in waves():
        t0 = time.perf_counter()
        res = theorem1_check(b, p, r, dt=dt0)
        check_s += time.perf_counter() - t0
        worst_fe = _worst(worst_fe, res.nonlinear_residual / res.scale)
        if res.verdict is Verdict.INCONSISTENT:
            inconsistent += 1
        probes = [tuple(rng.integers(0, n, size=3)) for _ in range(2)]
        t0 = time.perf_counter()
        g = discrete_variational_derivative("reduced", b.values, spec, p,
                                            probes, r=r, s=s)
        oracle_s += time.perf_counter() - t0
        vol = spec.cell_volume * float(np.prod(spec.extents))
        gscale = max(vol * m ** 2 * float(np.max(b.rho)), 1.0)
        worst_grad = _worst(worst_grad, float(np.max(np.abs(g))) / gscale)

    check_ms, oracle_ms = int(1000 * check_s), int(1000 * oracle_s)
    return [make_report("theorem1-field-equation", params,
                        worst_fe, worst_fe, 1e-9, check_ms),
            make_report("theorem1-variational-gradient", params,
                        worst_grad, worst_grad, 1e-6, oracle_ms),
            make_report("theorem1-never-inconsistent", params,
                        float(inconsistent), float(inconsistent), 0.5, check_ms)]


def _suite_plane_waves(params: dict, m: float, a0: float):
    if not 0.0 <= a0 < m:
        raise ConfigInvalid("plane-waves needs 0 <= A0 < m")

    def run():
        worst = 0.0
        spec = periodic_spec(16, 2.0 * np.pi / 16, 3)
        for r in (1, -1):
            for s in (1, -1):
                lab = PlaneWaveLabel(r, s, m, a0)
                b = plane_wave_spinor(lab, spec)
                p = plane_wave_params(lab)
                worst = _worst(worst, float(np.max(np.abs(dirac_apply(b, p, r, s)))))
        return worst

    return [_timed_report("plane-wave-dirac-solutions", params, 1e-12, run)]


_EXPECTED_TABLE = [
    (1, 1, "electron", "up"),
    (1, -1, "positron", "down"),
    (-1, 1, "positron", "up"),
    (-1, -1, "electron", "down"),
]


def _suite_table1(params: dict, m: float, a0: float):
    if not 0.0 < a0 < m:
        raise ConfigInvalid("table1 needs 0 < A0 < m")

    def run():
        rows = table_of_states(m, a0)
        label_errors = 0
        worst = 0.0
        for (r, s, kind, spin, energy), (er, es, ekind, espin) in zip(rows, _EXPECTED_TABLE):
            if (r, s, kind, spin) != (er, es, ekind, espin):
                label_errors += 1
            lab = PlaneWaveLabel(r, s, m, a0)
            rate = measured_rotation_rate(lab)
            worst = _worst(worst, abs(abs(rate) - energy))
        return worst + label_errors

    return [_timed_report("state-table-classification", params, 1e-8, run)]


def _suite_appendix_b(params: dict):
    def analytic():
        n = 64
        spec = periodic_spec(n, 2.0 * np.pi / n, 1)
        x = spec.axis_coords(0)
        worst = 0.0
        for sgn in (1, -1):
            u = np.exp(sgn * 1j * x)
            worst = _worst(worst, float(np.max(np.abs(
                example_ode_residual(u, sgn * 1j * u, -u)))))
        return worst

    def stencil():
        n = 512
        spec = periodic_spec(n, 2.0 * np.pi / n, 1)
        x = spec.axis_coords(0)
        worst = 0.0
        for sgn in (1, -1):
            u = np.exp(sgn * 1j * x)
            du = derivatives(u, spec, "stencil4")[:, 0]
            ddu = derivatives(du, spec, "stencil4")[:, 0]
            worst = _worst(worst, float(np.max(np.abs(example_ode_residual(u, du, ddu)))))
        return worst

    def lemma():
        n = 64
        spec = periodic_spec(n, 2.0 * np.pi / n, 1)
        x = spec.axis_coords(0)
        op_p, op_m = example_operators(spec)
        bad = 0
        for sgn, expect in ((1, Verdict.SOLVES_PLUS), (-1, Verdict.SOLVES_MINUS)):
            res = lemma_check(op_p, op_m, np.exp(sgn * 1j * x)[:, None])
            if res.verdict is not expect:
                bad += 1
        return float(bad)

    return [_timed_report("ode-example-analytic", params, 1e-12, analytic),
            _timed_report("ode-example-stencil", params, 1e-6, stencil),
            _timed_report("ode-example-lemma-branches", params, 0.5, lemma)]


class Suite(NamedTuple):
    """A suite's function, whether it reports its seed, and the optional
    SuiteConfig fields it reads, each with its default."""
    run: Callable[..., list[CheckReport]]
    seeded: bool
    reads: dict


_MASS = {"m": 1.0}
_WAVE = {**_MASS, "a0": 0.25}

TABLE = {
    "coframe": Suite(_suite_coframe, True, {"seeds": 10_000}),
    "torsion-routes": Suite(_suite_torsion_routes, True, _MASS),
    "kk-decomposition": Suite(_suite_kk, True, {"seeds": 100}),
    "factorization": Suite(_suite_factorization, True, {**_MASS, "seeds": 1000}),
    "separation": Suite(_suite_separation, True, {**_MASS, "seeds": 100}),
    "theorem1": Suite(_suite_theorem1, True, _MASS),
    "plane-waves": Suite(_suite_plane_waves, False, _WAVE),
    "table1": Suite(_suite_table1, False, _WAVE),
    "appendix-b": Suite(_suite_appendix_b, False, {}),
}

SUITES = (*TABLE, "all")

# What each optional SuiteConfig field is, and its flag.
OPTIONS = {"m": ("mass", "--m"), "seeds": ("seed count", "--seeds"), "a0": ("A0", "--A0")}


def readers(field: str) -> dict:
    """Suite name -> default, over the suites that read an optional field."""
    return {name: suite.reads[field] for name, suite in TABLE.items() if field in suite.reads}


def _run(name: str, config: SuiteConfig) -> list[CheckReport]:
    suite = TABLE[name]
    kwargs = {field: default if getattr(config, field) is None else getattr(config, field)
              for field, default in suite.reads.items()}
    seed = {"seed": config.seed} if suite.seeded else {}
    return suite.run({"m": kwargs.get("m"), "seed": seed.get("seed")}, **kwargs, **seed)


def run_suite(suite_name: str, config: SuiteConfig | None = None) -> list[CheckReport]:
    """Run one suite, or every suite for "all".

    An optional field (mass, seed count or A0) given to a single suite that
    does not read it raises ConfigInvalid; "all" hands it to the suites that do.
    """
    config = config or SuiteConfig()
    if suite_name == "all":
        return [report for name in TABLE for report in _run(name, config)]
    if suite_name not in TABLE:
        raise UnknownSuite(f"unknown suite {suite_name!r}; choose from {SUITES}")
    for field, (what, flag) in OPTIONS.items():
        names = readers(field)
        if getattr(config, field) is not None and suite_name not in names:
            raise ConfigInvalid(f"{suite_name} reads no {what}; {flag} applies to "
                                f"{', '.join(names)} and all")
    return _run(suite_name, config)
