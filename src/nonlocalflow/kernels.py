"""Convolution kernels with certified sup / Lipschitz metadata.

Every kernel carries its exact sup bound and spatial Lipschitz constant;
all stability constants in the solver and harness are derived from these
numbers, so they are part of the type and never re-estimated.  A kernel is
a sum of radial terms h * p(|x - a| / s), each a library profile p about a
centre a: the origin for every library kernel, +s and -s for the two tents
of the odd ramp.  A convolution sums term by term through
:mod:`nonlocalflow._accel`: in 1D by a windowed pass from 2^13 pairs on and
by the dense pass below that, in 2D by a blocked dense pass.  That is the
only code that sums profiles: ``Kernel.evaluate(t, xs)``, which maps
offsets (M, d) to values (M,), is the convolution with a unit mass at the
origin.  It carries ``t`` for kernels that vary in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
_PROFILE_CODES = tuple(code for code, _ in KERNEL_LIBRARY.values())


@dataclass(frozen=True)
class RadialTerm:
    """One radial profile term h * profile(|x - a| / s) about a centre a in R^d."""

    code: int
    scale: float
    height: float
    center: tuple[float, ...]

    def __post_init__(self):
        if self.code not in _PROFILE_CODES:
            raise ValueError(f"term code must be one of {_PROFILE_CODES}, got {self.code!r}")
        require_positive("term scale", self.scale)
        if not math.isfinite(self.height):
            raise ValueError(f"term height must be finite, got {self.height!r}")
        if not all(math.isfinite(a) for a in self.center):
            raise ValueError(f"term center must be finite, got {self.center!r}")


@dataclass(frozen=True)
class Kernel:
    """A sum of radial terms (the empty sum is zero) with its declared sup and Lipschitz-in-x bounds."""

    dim: int
    terms: tuple[RadialTerm, ...]
    sup_bound: float
    lip_x: float

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if any(len(term.center) != self.dim for term in self.terms):
            raise ValueError(f"every term centre must be a point of R^{self.dim}")
        require_bounds("kernel", self, ("sup_bound", "lip_x"))

    def evaluate(self, t: float, xs: np.ndarray) -> np.ndarray:
        """Values (M,) at offsets ``xs`` (M, d) and time ``t``: the
        convolution with a unit mass at the origin."""
        return convolve_batch(dirac((0.0,) * self.dim), self, t, xs)


def require_bounds(owner: str, obj, names: tuple[str, ...]) -> None:
    """Reject each declared bound of ``obj`` unless it is finite and >= 0 (NaN included)."""
    for name in names:
        value = getattr(obj, name)
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{owner} {name} must be finite and >= 0, got {value!r}")


def kernel_library(name: str, dim: int = 1, scale: float = 1.0, height: float = 1.0) -> Kernel:
    """The :data:`KERNEL_LIBRARY` kernel ``name`` with its analytically
    exact sup_bound and lip_x."""
    require_positive("kernel scale", scale)
    require_positive("kernel height", height)
    if name not in KERNEL_LIBRARY:
        raise ValueError(f"unknown kernel name {name!r}")
    code, lip = KERNEL_LIBRARY[name]
    return Kernel(dim, (RadialTerm(code, scale, height, (0.0,) * dim),), height, lip * height / scale)


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
    terms = (RadialTerm(tent, scale, height, (scale,)), RadialTerm(tent, scale, -height, (-scale,)))
    return Kernel(1, terms, height, height / scale)


def scale_kernel(kernel: Kernel, factor: float) -> Kernel:
    """factor * kernel, metadata scaled exactly."""
    terms = tuple(replace(term, height=term.height * factor) for term in kernel.terms)
    return Kernel(kernel.dim, terms, abs(factor) * kernel.sup_bound, abs(factor) * kernel.lip_x)


def add_kernels(a: Kernel, b: Kernel) -> Kernel:
    """a + b with conservative (subadditive) metadata."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return Kernel(a.dim, a.terms + b.terms, a.sup_bound + b.sup_bound, a.lip_x + b.lip_x)


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
    return Kernel(dim, (), 0.0, 0.0)


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


def steepest_slope(rise: np.ndarray, gaps: np.ndarray) -> tuple[int, float] | None:
    """Index and slope rise/gap of the steepest sample pair more than 1e-12
    apart, or None when no pair is: a slope check has no witness then."""
    apart = np.flatnonzero(gaps > 1e-12)
    if apart.size == 0:
        return None
    ratio = rise[apart] / gaps[apart]
    worst = int(np.argmax(ratio))
    return int(apart[worst]), float(ratio[worst])


# The auditors' sample count, and their tolerance relative to the largest
# declared constant (at least 1): a witness must exceed a declaration by more
# than rounding to fail it.
AUDIT_SAMPLES = 1500
AUDIT_REL_TOL = 1e-8


def audit_kernel(kernel: Kernel, box_radius: float) -> None:
    """Sample-check |eta| <= sup_bound and Lipschitz-in-x <= lip_x at t = 0
    on :data:`AUDIT_SAMPLES` quasi-random pairs of the box.

    Raises :class:`AuditError` with the witnessing sample on violation.
    Sampling only under-estimates the true constants, so a pass never
    certifies more than the declaration and a failure is always genuine.
    """
    lo = -box_radius * np.ones(kernel.dim)
    hi = box_radius * np.ones(kernel.dim)
    xs = sample_box(lo, hi, AUDIT_SAMPLES, 0)
    ys = sample_box(lo, hi, AUDIT_SAMPLES, 3)
    tol = AUDIT_REL_TOL * max(kernel.sup_bound, kernel.lip_x, 1.0)
    vx = kernel.evaluate(0.0, xs)
    vy = kernel.evaluate(0.0, ys)
    worst = np.argmax(np.abs(vx))
    # written so that a NaN witness or a NaN declaration fails
    if not abs(vx[worst]) <= kernel.sup_bound + tol:
        raise AuditError(
            f"kernel sup audit failed: |eta(0.0, {xs[worst]})| = {abs(vx[worst])} "
            f"> declared {kernel.sup_bound}"
        )
    steep = steepest_slope(np.abs(vx - vy), np.linalg.norm(xs - ys, axis=1))
    if steep is not None and not steep[1] <= kernel.lip_x + tol:
        worst, slope = steep
        raise AuditError(
            f"kernel Lipschitz audit failed: slope {slope} between "
            f"{xs[worst]} and {ys[worst]} > declared {kernel.lip_x}"
        )
