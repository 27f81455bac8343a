"""Convolution kernels that derive their own sup and Lipschitz constant.

A kernel is a sum of radial terms h * p(|x - a| / s), each a library
profile p about a centre a: the origin for every library kernel, +s and -s
for the two tents of the odd ramp.  Each profile is a polynomial in rho on
[0, 1] (:data:`nonlocalflow._accel.PROFILE_POLYNOMIALS`), so a kernel
computes its sup bound and spatial Lipschitz constant from its terms, and
every stability constant reads these two numbers.  A convolution sums term
by term through :mod:`nonlocalflow._accel`: in 1D by a windowed pass from
2^13 pairs on and by the dense pass below that, in 2D by a blocked dense
pass.  That is the only code that sums profiles: ``Kernel.evaluate(t, xs)``,
which maps offsets (M, d) to values (M,), is the convolution with a unit
mass at the origin.  It carries ``t`` for kernels that vary in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _accel
from .measures import ParticleMeasure, dirac, require_positive


class AuditError(ValueError):
    """Declared metadata contradicted by a sampled witness."""


# The library kernels by name, each of sup h: profile code, and Lipschitz
# constant in units of h / s.
#   tent        h * max(0, 1 - |x|/s)
#   bump-poly   h * max(0, 1 - |x|^2/s^2)^2, steepest at |x| = s/sqrt(3)
#   constant    h
KERNEL_LIBRARY = {
    "tent": (_accel.PROFILE_TENT, 1.0),
    "bump-poly": (_accel.PROFILE_BUMP, 8.0 / (3.0 * math.sqrt(3.0))),
    "constant": (_accel.PROFILE_CONSTANT, 0.0),
}
_UNIT_LIPSCHITZ = dict(KERNEL_LIBRARY.values())


@dataclass(frozen=True)
class RadialTerm:
    """One radial profile term h * profile(|x - a| / s) about a centre a in R^d."""

    code: int
    scale: float
    height: float
    center: tuple[float, ...]

    def __post_init__(self):
        if self.code not in _UNIT_LIPSCHITZ:
            raise ValueError(f"term code must be one of {tuple(_UNIT_LIPSCHITZ)}, got {self.code!r}")
        require_positive("term scale", self.scale)
        if not math.isfinite(self.height):
            raise ValueError(f"term height must be finite, got {self.height!r}")
        if not all(math.isfinite(a) for a in self.center):
            raise ValueError(f"term center must be finite, got {self.center!r}")


@dataclass(frozen=True)
class Kernel:
    """A sum of radial terms (the empty sum is zero) with the sup and
    Lipschitz-in-x bounds that :func:`_derived_bounds` derives from them."""

    dim: int
    terms: tuple[RadialTerm, ...]
    sup_bound: float = field(init=False)
    lip_x: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if any(len(term.center) != self.dim for term in self.terms):
            raise ValueError(f"every term centre must be a point of R^{self.dim}")
        for name, value in zip(("sup_bound", "lip_x"), _derived_bounds(self.dim, self.terms)):
            if not math.isfinite(value):
                raise ValueError(f"kernel {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def evaluate(self, t: float, xs: np.ndarray) -> np.ndarray:
        """Values (M,) at offsets ``xs`` (M, d) and time ``t``: the
        convolution with a unit mass at the origin."""
        return convolve_batch(dirac((0.0,) * self.dim), self, t, xs)


def _derived_bounds(dim: int, terms: tuple[RadialTerm, ...]) -> tuple[float, float]:
    """sup |eta| and Lip eta of the sum of ``terms`` in R^dim: |h| and
    |h| Lip(p) / s for one term; :func:`_piecewise_bounds` in 1D and about one
    shared centre (a radial f(|x - a|) has Lipschitz constant sup |f'| in
    any dimension); else the sound subadditive sum |h| and sum |h| Lip(p) / s."""
    if len(terms) == 1:
        (term,) = terms
        return abs(term.height), abs(term.height) * _UNIT_LIPSCHITZ[term.code] / term.scale
    heights = sum(abs(t.height) for t in terms)
    pairs = [(t, t.center[0] if dim == 1 else 0.0) for t in terms]
    # exact while each breakpoint a +- s is finite and apart from a, and every
    # coefficient and value of the analysis (at most 2^8 sum |h|) is finite
    if (dim == 1 or len({t.center for t in terms}) == 1) and math.isfinite(2.0**8 * heights) and all(
        -math.inf < a - t.scale < a < a + t.scale < math.inf for t, a in pairs
    ):
        return _piecewise_bounds(pairs)
    return heights, sum(abs(t.height) * _UNIT_LIPSCHITZ[t.code] / t.scale for t in terms)


def _piecewise_bounds(pairs: list[tuple[RadialTerm, float]]) -> tuple[float, float]:
    """Exact sup |eta| and sup |eta'| of eta(x) = sum h p(|x - a| / s) on the
    line over ``pairs`` (term, a).  On a piece [lo, hi] between breakpoints a
    and a +- s, eta is a polynomial in z = (x - lo) / u, u the smallest scale
    of the terms that reach the piece: |eta| peaks at a breakpoint or a root
    of eta', |eta'| at a breakpoint (from either side) or a root of eta''.
    Values are summed term by term."""
    compact = [(t, a) for t, a in pairs if t.code != _accel.PROFILE_CONSTANT]
    edges = sorted({a + k * t.scale for t, a in compact for k in (-1.0, 0.0, 1.0)})
    points, slopes = edges[:] or [0.0], [0.0]
    for lo, hi in zip(edges, edges[1:]):
        inside = [(t, a) for t, a in compact if a - t.scale <= lo and hi <= a + t.scale]
        unit, poly = min((t.scale for t, _ in inside), default=1.0), np.zeros(1)
        for t, a in inside:  # h p(rho) with rho = |lo - a| / s +- (u / s) z
            rho = np.poly1d([(unit if lo >= a else -unit) / t.scale, abs(lo - a) / t.scale])
            poly = np.polyadd(poly, t.height * np.poly1d(_accel.PROFILE_POLYNOMIALS[t.code][::-1])(rho).coeffs)
        d1, end = np.polyder(poly), (hi - lo) / unit
        points += [lo + unit * z for z in _roots_inside(d1, end)]
        slopes += [abs(v) / unit for v in np.polyval(d1, [0.0, end, *_roots_inside(np.polyder(d1), end)]).tolist()]
    return max(abs(_value(pairs, x)) for x in points), max(slopes)


def _value(pairs: list[tuple[RadialTerm, float]], x: float) -> float:
    """eta(x), correctly rounded: each profile is Horner's rule on its
    polynomial at min(rho, 1), where a tent and a bump vanish."""
    return math.fsum(
        t.height * float(np.polyval(_accel.PROFILE_POLYNOMIALS[t.code][::-1], min(abs(x - a) / t.scale, 1.0)))
        for t, a in pairs
    )


def _roots_inside(poly: np.ndarray, end: float) -> list[float]:
    """Real parts in (0, end) of the roots of ``poly`` (highest power first), its
    coefficients below float64 rounding of the largest zeroed so np.roots cannot overflow."""
    small = np.abs(poly) <= np.finfo(float).eps * np.abs(poly).max(initial=0.0)
    return [z for z in np.roots(np.where(small, 0.0, poly)).real.tolist() if 0.0 < z < end]


def kernel_library(name: str, dim: int = 1, scale: float = 1.0, height: float = 1.0) -> Kernel:
    """The :data:`KERNEL_LIBRARY` kernel ``name``: one term about the origin."""
    require_positive("kernel scale", scale)
    require_positive("kernel height", height)
    if name not in KERNEL_LIBRARY:
        raise ValueError(f"unknown kernel name {name!r}")
    return Kernel(dim, (RadialTerm(KERNEL_LIBRARY[name][0], scale, height, (0.0,) * dim),))


def odd_ramp_kernel(scale: float, height: float) -> Kernel:
    """1D odd coupling kernel: linear through the origin, tapering to zero.

    lambda(x) = h * x/s on |x| <= s, h * sign(x) * (2 - |x|/s) on s < |x| <= 2s,
    zero beyond.  Carries direction information (repulsion/attraction) that
    even radial kernels cannot; sup = h, lip = h/s.  It is exactly two
    shifted tents, h * T(x - s) - h * T(x + s) with T(x) = max(0, 1 - |x|/s).
    """
    require_positive("kernel scale", scale)
    require_positive("kernel height", height)
    tent = _accel.PROFILE_TENT
    return Kernel(1, (RadialTerm(tent, scale, height, (scale,)), RadialTerm(tent, scale, -height, (-scale,))))


def scale_kernel(kernel: Kernel, factor: float) -> Kernel:
    """factor * kernel."""
    return Kernel(kernel.dim, tuple(replace(term, height=term.height * factor) for term in kernel.terms))


def add_kernels(a: Kernel, b: Kernel) -> Kernel:
    """a + b."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return Kernel(a.dim, a.terms + b.terms)


def convolve_batch(
    mu: ParticleMeasure, kernel: Kernel, t: float, points: np.ndarray
) -> np.ndarray:
    """(mu * kernel)(points): sum_m w_m kernel(t, x - x_m) at each point."""
    pts = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
    if pts.shape[1] != mu.dim:
        raise ValueError("evaluation points have wrong dimension")
    out = np.zeros(pts.shape[0])
    for term in kernel.terms:
        # a term about a centre a sums the profile about the shifted centres x_m + a
        centers = mu.positions + term.center if any(term.center) else mu.positions
        out += _accel.radial_sum(pts, centers, mu.weights, term.code, term.scale, term.height)
    return out


@dataclass(frozen=True)
class KernelMatrix:
    """k x k grid of kernels; row i couples species i to every species."""

    entries: tuple[tuple[Kernel, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.entries)
        k = len(rows)
        if k == 0 or any(len(r) != k for r in rows):
            raise ValueError("kernel matrix must be square and nonempty")
        dims = {kn.dim for r in rows for kn in r}
        if len(dims) != 1:
            raise ValueError("all kernels must share one dimension")
        object.__setattr__(self, "entries", rows)

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def dim(self) -> int:
        return self.entries[0][0].dim

    @property
    def lip_x(self) -> float:
        # norm-1 convention on R^k vectors: per-row sums, max over rows
        return max(sum(kn.lip_x for kn in row) for row in self.entries)

    @property
    def sup_bound(self) -> float:
        return max(kn.sup_bound for row in self.entries for kn in row)


def zero_kernel(dim: int) -> Kernel:
    return Kernel(dim, ())


def _halton(n: int, dim: int, seed: int = 0) -> np.ndarray:
    if seed + n > 2**53:
        raise ValueError(f"Halton index {seed + n} is above 2^53, where float64 stops counting")
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    out = np.empty((n, dim))
    for a in range(dim):
        base = primes[(a + seed) % len(primes)]
        idx = np.arange(1 + seed, n + 1 + seed)
        col = np.zeros(n)
        f = 1.0
        i = idx.astype(np.float64)
        while (i > 0).any():
            f /= base
            col += f * (i % base)
            i = np.floor(i / base)
        out[:, a] = col
    return out


def sample_box(low: np.ndarray, high: np.ndarray, n: int, seed: int = 0) -> np.ndarray:
    """Deterministic quasi-random points in an axis-aligned box: the Halton
    points of indices ``seed + 1`` to ``seed + n`` (Halton 1960), with the
    prime bases rotated by ``seed``."""
    low = np.atleast_1d(np.asarray(low, dtype=np.float64))
    high = np.atleast_1d(np.asarray(high, dtype=np.float64))
    return low + _halton(n, low.size, seed) * (high - low)


def sample_normal(n: int, dim: int, seed: int) -> np.ndarray:
    """Deterministic standard normal points in R^dim, read from the
    :func:`sample_box` points of indices ``seed + 1`` to ``seed + n`` in the
    unit box of dimension 2 * dim: coordinate j is the Box-Muller map
    (Box & Muller 1958) sqrt(-2 log u_j) cos(2 pi u_{dim + j}).  A Halton
    coordinate lies in (0, 1), so the log is finite."""
    u = sample_box(np.zeros(2 * dim), np.ones(2 * dim), n, seed)
    return np.sqrt(-2.0 * np.log(u[:, :dim])) * np.cos(2.0 * np.pi * u[:, dim:])
