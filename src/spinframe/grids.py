"""Lattice containers and the discrete exterior calculus.

Fields live on uniform grids over (x0, x1, x2[, x3]).  Antisymmetric
fields store independent components only, in lexicographic order of the
index tuples returned by :func:`form_components`.  The wedge convention is
(P ^ Q) = ((p+q)!/(p! q!)) Alt(P (x) Q), i.e. the determinant convention,
so that d(dx^0) ^ dx^1 etc. have unit components and
(1/3) theta ^ d theta = Alt(theta (x) d theta) exactly.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .algebra import METRIC3, METRIC4
from .errors import (
    ConfigInvalid,
    InvalidGrid,
    RankMismatch,
    RankOverflow,
    UnsupportedRank,
    require_choice,
    require_mass,
)
from .pauli import grid_minor

# Derivative rules, one name each: the order-2 and order-4 central-difference
# stencils and the trigonometric-interpolation ("spectral") derivative.
BACKENDS = ("stencil", "stencil4", "spectral")


@dataclass(frozen=True)
class LatticeSpec:
    """Uniform grid over 1 to 4 coordinates, periodic along every axis."""

    extents: tuple[int, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= len(self.extents) <= 4:
            raise InvalidGrid("only 1D through 4D grids are supported")
        if len(self.spacing) != self.dims:
            raise InvalidGrid("extents and spacing must have equal length")
        if not all(isinstance(n, (int, np.integer)) and n > 0 for n in self.extents) \
                or not all(0.0 < h < math.inf for h in self.spacing):
            raise InvalidGrid("extents must be positive integers, spacing positive and finite")

    @property
    def dims(self) -> int:
        return len(self.extents)

    @property
    def metric(self) -> np.ndarray:
        """Lorentzian metric; only the 3D and 4D model grids carry one."""
        if self.dims == 3:
            return METRIC3
        if self.dims == 4:
            return METRIC4
        raise UnsupportedRank("no Lorentzian metric on a Euclidean domain grid")

    @property
    def spatial(self) -> "LatticeSpec":
        """The (x0, x1, x2) grid: a 4D grid's spatial part, a 3D grid itself."""
        return LatticeSpec(self.extents[:3], self.spacing[:3])

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def integrate(self, density: np.ndarray) -> float:
        """Discrete action: the exactly rounded sum of the density over the
        grid times the cell volume, the float ``math.fsum`` gives.

        A float64 density with 0 < max|x| < 2^960 is summed by Rump, Ogita
        and Oishi's ExtractVector ("Accurate floating-point summation, part
        I", SIAM J. Sci. Comput. 31, 2008).  With n points, k = ceil(log2(n +
        2)) and sigma = 2^(e + k) > 2^k max|x|, each level splits x into
        q = (sigma + x) - sigma and x - q, both exact: every q is a multiple
        of 2^-53 sigma and |sum q| < sigma, so np.sum adds them without
        rounding in any order.  fsum of these exact parts is the exactly
        rounded total, i.e. fsum of the density.  Each level takes about
        53 - k bits off max|x|.  Any other input (all zeros, NaN, inf, a
        max|x| where sigma could overflow, non-float64 dtypes) is fsum-ed
        as a list, so its result or exception is fsum's.
        """
        x = np.ravel(density)
        amax = float(np.max(np.abs(x), initial=0.0)) if x.dtype == np.float64 else math.nan
        if not 0.0 < amax < 2.0 ** 960:
            return math.fsum(x.tolist()) * self.cell_volume
        k = (x.size + 1).bit_length()
        parts = []
        while amax > 0.0:
            sigma = math.ldexp(1.0, math.frexp(amax)[1] + k)
            q = x + sigma
            q -= sigma
            parts.append(float(np.sum(q)))
            x = x - q
            amax = float(np.max(np.abs(x)))
        return math.fsum(parts) * self.cell_volume

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.arange(self.extents[axis]) * self.spacing[axis]

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Sparse "ij" coordinate arrays of the grid, one per axis: array
        ``a`` holds ``axis_coords(a)`` along axis ``a`` and has length 1 on
        every other axis, so the arrays broadcast to the grid."""
        return tuple(np.meshgrid(*(self.axis_coords(a) for a in range(self.dims)),
                                 indexing="ij", sparse=True))


def periodic_spec(n, h, dims: int) -> LatticeSpec:
    """Cubic-ish grid of dims axes; n and h may be scalars or sequences of
    dims entries, and a sequence of another length raises InvalidGrid."""
    ns = tuple(int(x) for x in (n if np.iterable(n) else [n] * dims))
    hs = tuple(float(x) for x in (h if np.iterable(h) else [h] * dims))
    if len(ns) != dims or len(hs) != dims:
        raise InvalidGrid(f"{dims} axes need {dims} extents and spacings, got {ns} and {hs}")
    return LatticeSpec(ns, hs)


def form_components(dims: int, rank: int) -> list[tuple[int, ...]]:
    """Lexicographic independent index tuples of an antisymmetric rank-r field."""
    return list(combinations(range(dims), rank))


def perm_sign(perm) -> int:
    sign, seen = 1, list(perm)
    for i in range(len(seen)):
        while seen[i] != i:
            j = seen[i]
            seen[i], seen[j] = seen[j], seen[i]
            sign = -sign
    return sign


@dataclass
class LatticeField:
    """Dense per-point values of one antisymmetric rank-r field on a lattice:
    shape (*n,) for r = 0, else (*n, ncomp) with component order from
    form_components.

    A rank outside 0..dims raises RankOverflow, and for r > 0 a trailing
    length other than the number of independent components RankMismatch.
    The leading axes are not checked against the grid: extra ones act as
    batch axes, as when ``lagrangian_4d`` builds spatial forms on 4D arrays.
    """

    spec: LatticeSpec
    rank: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        dims = self.spec.dims
        if not (isinstance(self.rank, int) and 0 <= self.rank <= dims):
            raise RankOverflow(f"rank {self.rank!r} is outside 0..{dims} on a {dims}D grid")
        if self.rank > 0 and self.values.shape[-1:] != (len(self.components),):
            raise RankMismatch(f"a {self.rank}-form on a {dims}D grid has "
                               f"{len(self.components)} components, got trailing shape "
                               f"{self.values.shape[-1:]}")

    @property
    def components(self) -> list[tuple[int, ...]]:
        return form_components(self.spec.dims, self.rank)


# Central-difference stencils by backend name: offsets and weights.
_STENCILS = {
    "stencil": ([1], [0.5]),
    "stencil4": ([1, 2], [2.0 / 3.0, -1.0 / 12.0]),
}


def _axis_derivative(values: np.ndarray, spec: LatticeSpec, axis: int, backend: str,
                     out: np.ndarray) -> np.ndarray:
    """The stencil derivative along one axis, written into ``out`` (the
    input's shape, dtype ``promote_types(values.dtype, float)``).

    Each offset's difference v[i + k] - v[i - k], indices taken modulo the
    axis length n, is formed from slices: the output range splits where
    i + k or i - k wraps, into at most three runs that each read two
    contiguous source runs.  This holds for any n >= 1, also n < 2k, and
    every operand is cast to the output dtype before the subtraction, so
    the result is bit for bit ``(roll(v, -k) - roll(v, k)) * w / h`` summed
    over the offsets.  The first offset is built in ``out`` itself, a
    later one in a single scratch array.
    """
    offsets, weights = _STENCILS[backend]
    h = spec.spacing[axis]
    n = values.shape[axis]

    def run(start: int, length: int) -> tuple[slice, ...]:
        return (slice(None),) * axis + (slice(start, start + length),)

    for i, (k, w) in enumerate(zip(offsets, weights)):
        term = out if i == 0 else np.empty_like(out)
        up, down = k % n, -k % n
        cuts = sorted({0, n - up, n - down, n})
        for a, b in zip(cuts, cuts[1:]):
            np.subtract(values[run((a + up) % n, b - a)], values[run((a + down) % n, b - a)],
                        out=term[run(a, b - a)], dtype=out.dtype)
        term *= w
        term /= h
        if i > 0:
            out += term
    return out


@functools.lru_cache(maxsize=32)
def _fourier_matrix(n: int, h: float, real: bool) -> np.ndarray:
    """The n x n Fourier differentiation matrix D = F^-1 diag(i k) F of an
    axis with n points at spacing h, read-only.

    It is built from numpy's ``fft``/``ifft`` of the identity, so it is the
    same operator as that transform pair, Nyquist convention (k = -n/2 at
    even n) included, and D is anti-Hermitian.  ``real`` gives Re D, whose
    product with real values is the real part of D's: Im D is the Nyquist
    term alone.  The table is keyed on (n, h, real) only.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    d = np.fft.ifft(1j * k[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    if real:
        d = np.ascontiguousarray(d.real)
    d.flags.writeable = False
    return d


def spectral_derivative(values: np.ndarray, spec: LatticeSpec, axis: int,
                        out: np.ndarray) -> np.ndarray:
    """Trigonometric-interpolation derivative along one axis: the product by
    the axis's Fourier differentiation matrix, exact on resolved Fourier
    modes.  A real input gives a real result.

    The trailing (component) axes are moved first, so a grid-minor input is
    read in place and a C-ordered one is copied once.  The product is one
    matrix product per block of the other axes, written into ``out``, a
    grid-minor array of the input's shape and of dtype
    ``promote_types(values.dtype, float)`` (``derivatives`` hands it a slot
    of its stack), which is returned.
    """
    dims = spec.dims
    n = spec.extents[axis]
    d = _fourier_matrix(n, spec.spacing[axis], not np.iscomplexobj(values))
    tail = tuple(range(dims, values.ndim))
    front = tuple(range(len(tail)))
    x = np.moveaxis(values, tail, front)
    y = np.moveaxis(out, tail, front)
    if not y.flags.c_contiguous:
        raise InvalidGrid("out must be a grid-minor array")
    inner = math.prod(spec.extents[axis + 1:])
    if inner == 1:
        np.matmul(x.reshape(-1, n), d.T, out=y.reshape(-1, n))
    else:
        np.matmul(d, x.reshape(-1, n, inner), out=y.reshape(-1, n, inner))
    return out


def derivatives(values: np.ndarray, spec: LatticeSpec, backend: str) -> np.ndarray:
    """First derivatives of a grid array along every axis, stacked on a new
    axis right after the grid axes.

    ``backend`` is the whole derivative rule, and this is the only function
    that reads it: "stencil" is the order-2 central difference, "stencil4"
    the order-4 one, "spectral" the trigonometric-interpolation derivative
    (``spectral_derivative``).  Every rule wraps around each axis, so the
    values must be periodic on the grid: a jump at the seam gives wrong
    derivatives, near the seam for a stencil and everywhere for the
    spectral rule.  Values whose leading axes are not the grid's extents
    raise InvalidGrid.

    The stack is grid-minor (``pauli.grid_minor``), and each per-axis
    result is written straight into its slot: the spectral rule's product,
    or a stencil's differences of slices of the values (no shifted copy of
    the values is made; "stencil4" needs one scratch array of one slot's
    size for its second offset).
    """
    require_choice("backend", backend, BACKENDS)
    if values.shape[:spec.dims] != spec.extents:
        raise InvalidGrid(f"values of shape {values.shape} are not on the {spec.extents} grid")
    shape = spec.extents + (spec.dims,) + values.shape[spec.dims:]
    out = grid_minor(shape, spec.dims, np.promote_types(values.dtype, float))
    for a in range(spec.dims):
        slot = out[(slice(None),) * spec.dims + (a,)]
        if backend == "spectral":
            spectral_derivative(values, spec, a, slot)
        else:
            _axis_derivative(values, spec, a, backend, slot)
    return out


def _metric_signs(field: LatticeField) -> list[float]:
    """g^{c_1 c_1} ... g^{c_r c_r} for each independent component c of the
    field: the sign, +-1, that raising all of its indices multiplies it by."""
    g = field.spec.metric
    return [float(np.prod(g[list(c)])) for c in field.components]


def lorentz_dot(P: LatticeField, Q: LatticeField) -> LatticeField:
    """Pointwise (1/r!) P.Q contraction with the Lorentzian metric; signed.

    The sum runs one component at a time: each product P_c Q_c is formed in
    one reused buffer and added or subtracted by its metric sign, so on
    grid-minor operands (``pauli.grid_minor``) every read is one contiguous
    block.  Any other layout gives the same numbers, only slower.
    """
    if P.rank != Q.rank or P.spec.dims != Q.spec.dims:
        raise RankMismatch("operands must share rank and dimension")
    if P.rank == 0:
        return LatticeField(P.spec, 0, P.values * Q.values)
    signs = _metric_signs(P)
    vals = P.values[..., 0] * Q.values[..., 0]
    if signs[0] < 0:
        np.negative(vals, out=vals)
    term = np.empty_like(vals)
    for i in range(1, len(signs)):
        np.multiply(P.values[..., i], Q.values[..., i], out=term)
        if signs[i] > 0:
            vals += term
        else:
            vals -= term
    return LatticeField(P.spec, 0, vals)


def hodge_dual(R: LatticeField) -> LatticeField:
    """Hodge star on a 3D lattice, epsilon_{012} = +1, indices raised with g.

    Each output component is one input component times a sign, that of the
    permutation times the metric sign of the raised indices, so each is
    written in one pass into its own slot of a grid-minor output
    (``pauli.grid_minor``; every axis but the component one counts as a
    grid axis).  Any input layout is read; a grid-minor one contiguously.
    """
    if R.spec.dims != 3:
        raise UnsupportedRank("hodge_dual is defined on 3D grids only")
    r = R.rank
    vals = R.values if r > 0 else R.values[..., None]
    comps_out = form_components(3, 3 - r)
    out = grid_minor(vals.shape[:-1] + (len(comps_out),), vals.ndim - 1,
                     np.promote_types(vals.dtype, float))
    for i, (ci, sign) in enumerate(zip(R.components, _metric_signs(R))):
        rest = tuple(a for a in range(3) if a not in ci)
        np.multiply(vals[..., i], perm_sign(ci + rest) * sign,
                    out=out[..., comps_out.index(rest)])
    return LatticeField(R.spec, 3 - r, out if r < 3 else out[..., 0])


def wedge(P: LatticeField, Q: LatticeField) -> LatticeField:
    """Wedge product under the determinant convention, grid-minor: each
    component is summed in its own contiguous block."""
    d = P.spec.dims
    p, q = P.rank, Q.rank
    if Q.spec.dims != d:
        raise RankMismatch("operands must share dimension")
    if p + q > d:
        raise RankOverflow(f"rank {p}+{q} exceeds dimension {d}")
    comps_p = {c: i for i, c in enumerate(P.components)}
    comps_q = {c: i for i, c in enumerate(Q.components)}
    comps_out = form_components(d, p + q)
    pv = P.values if p > 0 else P.values[..., None]
    qv = Q.values if q > 0 else Q.values[..., None]
    dtype = np.promote_types(pv.dtype, qv.dtype)
    out = grid_minor(pv.shape[:-1] + (len(comps_out),), pv.ndim - 1, dtype)
    term = np.empty(pv.shape[:-1], dtype)
    for j, c in enumerate(comps_out):
        slot = out[..., j]
        for i, sub in enumerate(combinations(c, p)):
            rest = tuple(a for a in c if a not in sub)
            # sign of the shuffle (sub, rest) relative to sorted c
            sign = perm_sign([c.index(a) for a in sub + rest])
            # the first term is written into the slot, the others added in
            np.multiply(pv[..., comps_p[sub]], qv[..., comps_q[rest]],
                        out=slot if i == 0 else term)
            if i == 0:
                if sign < 0:
                    np.negative(slot, out=slot)
            elif sign > 0:
                slot += term
            else:
                slot -= term
    return LatticeField(P.spec, p + q, out if p + q else out[..., 0])


@dataclass
class ModelParams:
    """Mass and electromagnetic covector.

    A may be a constant length-3 covector or a grid field of shape (*n, 3);
    it is stored as a float array broadcastable against the grid.  An A
    whose last axis is not 3 long, or that is not finite everywhere, raises
    ConfigInvalid.  The sign pair (r, s) is not a model parameter: every
    function that needs it takes r and s as arguments.
    """

    m: float
    A: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        require_mass(self.m)
        self.A = np.asarray(self.A, dtype=float)
        if self.A.shape[-1:] != (3,) or not np.isfinite(self.A).all():
            raise ConfigInvalid(f"A must be a finite covector with a last axis of 3, "
                                f"got shape {self.A.shape}")


# ---------------------------------------------------------------------------
# Field bundles: values plus per-axis first derivatives.  Analytic
# constructors fill the derivative slots in closed form, stencil/spectral
# constructors differentiate the sampled values.
# ---------------------------------------------------------------------------


@dataclass
class SpinorBundle:
    """Spinor values (*n, 2) with derivatives (*n, dims, 2), and nothing
    more: a caller that knows a bilinear is constant along an axis hands
    the residual that zero derivative itself.

    Layout contract: the producers (``SpinorPoly.bundle``,
    ``ScaledSpinor.bundle``, ``sampling.lift_x3``, ``sampling.mode_bundle``,
    ``from_grid`` through ``derivatives``) build both arrays grid-minor
    (``pauli.grid_minor``), so each component slice ``values[..., k]`` and
    ``derivs[..., a, k]`` is one contiguous block.  The kernels accept any
    layout: a C-ordered bundle built by hand gives the same numbers, only
    slower.
    """

    spec: LatticeSpec
    values: np.ndarray
    derivs: np.ndarray

    @property
    def rho(self) -> np.ndarray:
        return np.abs(self.values[..., 0]) ** 2 - np.abs(self.values[..., 1]) ** 2

    @classmethod
    def from_grid(cls, spec: LatticeSpec, values: np.ndarray) -> "SpinorBundle":
        """The values with their spectral derivatives, the variational
        oracle's rule.  A bundle under another rule is
        ``SpinorBundle(spec, values, derivatives(values, spec, rule))``."""
        return cls(spec, values, derivatives(values, spec, "spectral"))


@dataclass
class CoframeBundle:
    """Coframe rows theta (*n, 3, 3) and the rule that gives the gradient of
    one coframe component.

    ``component_gradient(j, p)`` returns d_a theta^j_p over every axis a,
    shape (*n, dims).  Consumers read the rows' exterior derivatives through
    ``row_differential``, which asks for one component's gradient at a
    time, so neither a (*n, dims, 3) row stack nor a (*n, dims, 3, 3) stack
    need exist: ``from_grid`` differentiates one component by
    ``derivatives`` on each call, so one (*n, dims) gradient is all it
    allocates, and a caller with closed-form derivatives hands a rule that
    slices them.  The bundle holds no spinor: built from spinor values
    (``sampling.coframe_bundle_from_spinor``), it lets the spinor bundle's
    derivative stack be released first.  On a 4D grid the rows are the
    spatial coframe, with theta^j_3 = 0.

    Layout: theta as ``algebra.coframe_map`` returns it is grid-minor
    (``pauli.grid_minor``), so a component ``theta[..., j, p]`` is one
    contiguous block that ``derivatives`` reads in place.  The gradients
    ``from_grid`` computes and the slices of the kk check's closed-form
    d theta are grid-minor too.  Any other layout gives the same numbers,
    only slower.
    """

    spec: LatticeSpec
    theta: np.ndarray
    component_gradient: Callable[[int, int], np.ndarray]

    def row_differential(self, j: int) -> LatticeField:
        """d theta^j as a grid-minor 2-form, with slots
        (d theta^j)_{ab} = d_a theta^j_b - d_b theta^j_a, and on a 4D grid
        (d theta^j)_{a3} = -d_3 theta^j_a.

        Components are read in order, each gradient dropped before the next
        is asked for.  Component p writes -d_b theta^j_p into each slot
        (p, b), then adds d_a theta^j_p into each slot (a, p); since a < p,
        every slot is written before it is added to, and -x + y is y - x
        exactly.  The diagonal d_p theta^j_p is computed by the rule but
        not read.
        """
        spec = self.spec
        comps = form_components(spec.dims, 2)
        vals = grid_minor(spec.extents + (len(comps),), spec.dims, float)
        for p in range(3):
            grad = self.component_gradient(j, p)
            for i, (a, b) in enumerate(comps):
                if a == p:
                    np.negative(grad[..., b], out=vals[..., i])
                elif b == p:
                    vals[..., i] += grad[..., a]
            del grad
        return LatticeField(spec, 2, vals)

    @classmethod
    def from_grid(cls, spec: LatticeSpec, theta: np.ndarray,
                  backend: str) -> "CoframeBundle":
        require_choice("backend", backend, BACKENDS)

        def component_gradient(j: int, p: int) -> np.ndarray:
            return derivatives(theta[..., j, p], spec, backend)

        return cls(spec, theta, component_gradient)
