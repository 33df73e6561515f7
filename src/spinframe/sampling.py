"""Band-limited trigonometric test fields with exact derivatives.

Everything random in the package is drawn from numpy's default_rng
(PCG64), seeded explicitly, so identical seeds reproduce fields exactly.
A TrigPoly is a finite Fourier sum sum_k c_k exp(i k . w x); derivatives
are again TrigPolys, which is what "analytic mode" means throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import coframe_map
from .errors import InvalidGrid, require_shape
from .grids import LatticeSpec, SpinorBundle, CoframeBundle
from .pauli import grid_minor


@dataclass(frozen=True)
class TrigPoly:
    """f(x) = sum_M coeffs[M] * exp(i sum_a freqs[M,a] * base[a] * x_a), integer
    modes only (periodic for base_for(spec)); one mode at any p: ``mode_bundle``."""

    freqs: np.ndarray     # (M, dims) integers
    coeffs: np.ndarray    # (M,) complex
    base: np.ndarray      # (dims,) base angular frequencies

    def __post_init__(self):
        if np.asarray(self.freqs).dtype.kind not in "iu":
            raise InvalidGrid("TrigPoly modes must be integers")

    @property
    def dims(self) -> int:
        return self.freqs.shape[1]

    def derivative(self, axis: int) -> "TrigPoly":
        return TrigPoly(self.freqs, self.coeffs * 1j * self.freqs[:, axis] * self.base[axis], self.base)

    def scale(self, c) -> "TrigPoly":
        return TrigPoly(self.freqs, self.coeffs * c, self.base)

    def sup_bound(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    def __call__(self, coords) -> np.ndarray:
        """Evaluate on sparse "ij" coordinates, one array per axis, as
        ``LatticeSpec.meshgrid`` returns them: ``coords[a]`` has one axis per
        dimension and length 1 on every axis but ``a``.  Other coordinates
        (dense copies, scalars, another grid's dimension) raise InvalidGrid.
        The sum goes through a phase table ``exp(i k_a w_a x_a)`` of shape
        (modes, n_a) per axis.  All the tables come from one ``exp`` over
        the axis coordinates laid end to end, each table a column block of
        it.  The coefficients are contracted with the tables one axis at a
        time and the last table enters through a single matmul, so no
        (modes, points) array is formed.
        """
        axes = self._axis_vectors(coords)
        lengths = [len(x) for x in axes]
        kw = np.repeat(self.freqs * self.base, lengths, axis=1)
        tables = np.exp(1j * (kw * np.concatenate(axes)))
        acc = self.coeffs[:, None]
        start = 0
        for n in lengths[:-1]:
            table = tables[:, start:start + n]
            start += n
            acc = (acc[:, :, None] * table[:, None, :]).reshape(len(acc), acc.shape[1] * n)
        return (acc.T @ tables[:, start:]).reshape(tuple(lengths))

    def _axis_vectors(self, coords) -> list[np.ndarray]:
        """The 1-D coordinate vector of each axis; InvalidGrid unless coords
        are sparse axes as ``__call__`` requires."""
        dims = self.dims
        if len(coords) != dims:
            raise InvalidGrid(f"{len(coords)} coordinate arrays for a {dims}D polynomial")
        axes = []
        for a, c in enumerate(coords):
            if not isinstance(c, np.ndarray) or c.size == 0 \
                    or c.shape != (1,) * a + (c.size,) + (1,) * (dims - 1 - a):
                raise InvalidGrid(f"coordinate array {a} is not a non-empty sparse {dims}D axis")
            axes.append(c.reshape(-1))
        return axes

    def on(self, spec: LatticeSpec) -> np.ndarray:
        return self(spec.meshgrid())


def random_trig_poly(rng: np.random.Generator, base, max_mode: int,
                     amplitude: float, real: bool = False) -> TrigPoly:
    """Random band-limited field of 6 modes, <= max_mode per axis, scaled to
    sup bound amplitude; real=True hermitizes."""
    dims = len(base)
    freqs = rng.integers(-max_mode, max_mode + 1, size=(6, dims))
    coeffs = (rng.normal(size=6) + 1j * rng.normal(size=6))
    p = TrigPoly(freqs, coeffs, np.asarray(base, float))
    if real:
        p = TrigPoly(
            np.concatenate([freqs, -freqs]),
            np.concatenate([coeffs, np.conj(coeffs)]) / 2.0,
            p.base,
        )
    s = p.sup_bound()
    return p.scale(amplitude / s if s > 0 else 1.0)


@dataclass(frozen=True)
class SpinorPoly:
    """Pair of TrigPolys forming a spinor field."""

    c1: TrigPoly
    c2: TrigPoly

    def bundle(self, spec: LatticeSpec, planes=None) -> SpinorBundle:
        """Values and analytic derivatives, filled slot by slot into
        grid-minor arrays (the ``SpinorBundle`` layout contract).

        Given ``planes``, x0-plane indices of spec taken modulo its x0
        extent, the bundle lives on those planes alone: at spec's own x0
        coordinates, on a grid of len(planes) x0-planes and spec's spacing.
        """
        coords = spec.meshgrid()
        if planes is not None:
            coords = (coords[0][np.asarray(planes) % spec.extents[0]],) + coords[1:]
            spec = LatticeSpec((len(planes),) + spec.extents[1:], spec.spacing)
        vals = grid_minor(spec.extents + (2,), spec.dims)
        derivs = grid_minor(spec.extents + (spec.dims, 2), spec.dims)
        for k, c in enumerate((self.c1, self.c2)):
            vals[..., k] = c(coords)
            for a in range(spec.dims):
                derivs[..., a, k] = c.derivative(a)(coords)
        return SpinorBundle(spec, vals, derivs)


@dataclass(frozen=True)
class ScaledSpinor:
    """e^h eta for a real scalar TrigPoly h, with product-rule derivatives."""

    eta: SpinorPoly
    h: TrigPoly

    def bundle(self, spec: LatticeSpec) -> SpinorBundle:
        b = self.eta.bundle(spec)
        coords = spec.meshgrid()
        eh = np.exp(self.h(coords).real)
        dh = np.stack([self.h.derivative(a)(coords).real for a in range(spec.dims)], axis=-1)
        vals = np.multiply(eh[..., None], b.values,
                           out=grid_minor(b.values.shape, spec.dims))
        product_rule = b.derivs + dh[..., :, None] * b.values[..., None, :]
        derivs = np.multiply(eh[..., None, None], product_rule,
                             out=grid_minor(b.derivs.shape, spec.dims))
        return SpinorBundle(spec, vals, derivs)


def _times_x3_phase(a: np.ndarray, spec4: LatticeSpec, k: float,
                    out: np.ndarray) -> np.ndarray:
    """out = a e^{-i k x3} for a (*n3, *tail) and out (*n4, *tail): the one
    place the separation factor is formed, one ``exp`` over the x3 axis."""
    phase = np.exp(-1j * k * spec4.axis_coords(3))
    np.multiply(a[:, :, :, None], phase.reshape((-1,) + (1,) * (a.ndim - 3)), out=out)
    return out


def lift_values_x3(values: np.ndarray, spec4: LatticeSpec, k: float) -> np.ndarray:
    """Spinor values (*n3, 2) on ``spec4.spatial`` times e^{-i k x3}, as a
    grid-minor (*n4, 2) array: the values of ``lift_x3``, which calls this,
    without the derivative slots.  A spec4 that is not 4D, or values of
    another shape, raise InvalidGrid.
    """
    if spec4.dims != 4:
        raise InvalidGrid("lift_values_x3 lifts onto a 4D grid")
    require_shape(values, spec4.extents[:3] + (2,), "lifted values")
    return _times_x3_phase(values, spec4, k, grid_minor(spec4.extents + (2,), 4))


def lift_x3(eta: SpinorBundle, spec4: LatticeSpec, k: float) -> SpinorBundle:
    """xi = eta e^{-i k x3} on spec4, with closed-form derivatives
    d_alpha eta e^{-i k x3} along x0..x2 and -i k xi along x3; the values
    are ``lift_values_x3``'s and both arrays are grid-minor.  eta must live
    on ``spec4.spatial``, else InvalidGrid.

    The factor need not be periodic on the x3 axis.  Separation's axis is
    pi/m long, so e^{-i m x3} is anti-periodic on it and the lifted field
    jumps at the seam: no grid derivative may be taken along x3 of it.
    """
    if spec4.dims != 4 or spec4.spatial != eta.spec:
        raise InvalidGrid("lift_x3 takes a field on the spatial part of a 4D grid")
    vals = lift_values_x3(eta.values, spec4, k)
    derivs = grid_minor(spec4.extents + (4, 2), 4)
    _times_x3_phase(eta.derivs, spec4, k, derivs[..., :3, :])
    np.multiply(vals, -1j * k, out=derivs[..., 3, :])
    return SpinorBundle(spec4, vals, derivs)


def mode_bundle(zeta, p, spec: LatticeSpec) -> SpinorBundle:
    """The single Fourier mode zeta e^{-i p.x} for a constant spinor zeta
    (2,) and a momentum p (dims,), else InvalidGrid: the values from one
    ``exp`` over the grid, the derivatives -i p_a times them, both
    grid-minor.  It is periodic on spec where each p_a is a multiple of
    ``base_for(spec)[a]``."""
    p = np.asarray(p, float)
    require_shape(p, (spec.dims,), "momentum")
    phase = np.exp(-1j * sum(p_a * x for p_a, x in zip(p, spec.meshgrid())))
    vals = np.multiply(phase[..., None], zeta, out=grid_minor(spec.extents + (2,), spec.dims))
    derivs = grid_minor(spec.extents + (spec.dims, 2), spec.dims)
    np.multiply(vals[..., None, :], -1j * p[:, None], out=derivs)
    return SpinorBundle(spec, vals, derivs)


def base_for(spec: LatticeSpec) -> np.ndarray:
    """Fundamental angular frequencies matching the grid periods."""
    return np.array([2.0 * np.pi / (n * h) for n, h in zip(spec.extents, spec.spacing)])


def random_positive_spinor(rng: np.random.Generator, base, max_mode: int) -> SpinorPoly:
    """eta = (1 + da, db) with sup|da|, sup|db| <= 0.3, so rho > 0 pointwise."""
    da = random_trig_poly(rng, base, max_mode, amplitude=0.3)
    db = random_trig_poly(rng, base, max_mode, amplitude=0.3)
    c1 = TrigPoly(np.concatenate([np.zeros((1, da.dims), int), da.freqs]),
                  np.concatenate([[1.0 + 0j], da.coeffs]), da.base)
    return SpinorPoly(c1, db)


def random_covector_polys(rng: np.random.Generator, base) -> list[TrigPoly]:
    """Three real band-limited components for an electromagnetic covector,
    modes <= 2 per axis, sup bound 0.5 each."""
    return [random_trig_poly(rng, base, 2, amplitude=0.5, real=True) for _ in range(3)]


def covector_on(polys, spec: LatticeSpec) -> np.ndarray:
    """The real parts of the polys on the grid, as a grid-minor covector
    field (*n, len(polys))."""
    coords = spec.meshgrid()
    out = grid_minor(spec.extents + (len(polys),), spec.dims, float)
    for i, p in enumerate(polys):
        out[..., i] = p(coords).real
    return out


def coframe_bundle_from_spinor(values: np.ndarray, spec: LatticeSpec,
                               backend: str = "stencil") -> CoframeBundle:
    """Coframe route: theta from the pointwise map of the spinor values
    (*n, 2) on spec, each component's gradient by grid derivative of that
    component when ``axial_torsion_coframe`` reads it.

    The derivative deliberately goes through the sampled theta grid (not the
    chain rule), which is what makes the coframe route independent of the
    spinor route.  Only the values are read, so a caller can release a
    spinor bundle's derivatives before theta is built.  The bundle holds no
    derivative stack; the backend name is checked here.
    """
    theta, _ = coframe_map(values)
    return CoframeBundle.from_grid(spec, theta, backend=backend)
