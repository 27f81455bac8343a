"""Convolution kernels with certified sup / Lipschitz metadata.

Every kernel carries its exact sup bound and spatial Lipschitz constant;
all stability constants in the solver and harness are derived from these
numbers, so they are part of the type and never re-estimated.  Library
kernels are radial and time-independent, which gives them a fast summation
path through :mod:`nonlocalflow._accel`: in 1D an exact sum over each
point's support window by cell-anchored prefix sums, in O((N + M) log N),
and in 2D a blocked dense pass.  ``Kernel.evaluate(t, xs)`` maps
offsets (M, d) to values (M,) and carries ``t`` so user kernels may vary
in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _accel
from .measures import MeasureVector, ParticleMeasure


class AuditError(ValueError):
    """Declared metadata contradicted by a sampled witness."""


@dataclass(frozen=True)
class RadialTerm:
    """One radial profile term h * profile(|x| / s)."""

    code: int
    scale: float
    height: float


@dataclass(frozen=True)
class Kernel:
    dim: int
    evaluate: Callable[[float, np.ndarray], np.ndarray]  # (t, xs (M, d)) -> (M,)
    sup_bound: float
    lip_x: float
    # Fast path: sum of radial terms, None for opaque user kernels.
    terms: tuple[RadialTerm, ...] | None = None


def _kernel_from_terms(dim: int, terms: Sequence[RadialTerm], sup: float, lip: float) -> Kernel:
    terms = tuple(terms)

    def evaluate(t: float, xs: np.ndarray) -> np.ndarray:
        sq = np.square(np.asarray(xs, dtype=np.float64)).sum(axis=1)
        return sum(tm.height * _accel.unit_profile(sq.copy(), tm.code, tm.scale) for tm in terms)

    return Kernel(dim, evaluate, sup, lip, terms)


# Verified numerically: max |d/dx h(1 - x^2/s^2)^2| is attained at |x| = s/sqrt(3)
# and equals 8h / (3 sqrt(3) s).
_BUMP_LIP_FACTOR = 8.0 / (3.0 * math.sqrt(3.0))


def require_positive(name: str, value: float) -> None:
    """Reject a parameter unless it is finite and positive (NaN included)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def kernel_library(name: str, dim: int = 1, scale: float = 1.0, height: float = 1.0) -> Kernel:
    """Library kernels with analytically exact sup_bound and lip_x.

    tent         h * max(0, 1 - |x|/s)          sup h, lip h/s
    bump-poly    h * max(0, 1 - |x|^2/s^2)^2    sup h, lip 8h/(3*sqrt(3)*s)
    cosine-lobe  h * cos(pi |x| / (2s)) on |x|<=s   sup h, lip pi*h/(2s)
    constant     h                              sup h, lip 0
    """
    require_positive("kernel scale", scale)
    require_positive("kernel height", height)
    if name == "tent":
        term = RadialTerm(_accel.PROFILE_TENT, scale, height)
        return _kernel_from_terms(dim, [term], height, height / scale)
    if name == "bump-poly":
        term = RadialTerm(_accel.PROFILE_BUMP, scale, height)
        return _kernel_from_terms(dim, [term], height, _BUMP_LIP_FACTOR * height / scale)
    if name == "cosine-lobe":
        term = RadialTerm(_accel.PROFILE_COSINE, scale, height)
        return _kernel_from_terms(dim, [term], height, math.pi * height / (2.0 * scale))
    if name == "constant":
        term = RadialTerm(_accel.PROFILE_CONSTANT, 1.0, height)
        return _kernel_from_terms(dim, [term], height, 0.0)
    raise ValueError(f"unknown kernel name {name!r}")


def odd_ramp_kernel(scale: float, height: float) -> Kernel:
    """1D odd coupling kernel: linear through the origin, tapering to zero.

    lambda(x) = h * x/s on |x| <= s, h * sign(x) * (2 - |x|/s) on s < |x| <= 2s,
    zero beyond.  Carries direction information (repulsion/attraction) that
    even radial kernels cannot; sup = h, lip = h/s.
    """
    require_positive("kernel scale", scale)
    require_positive("kernel height", height)

    def evaluate(t: float, xs: np.ndarray) -> np.ndarray:
        u = xs[:, 0] / scale
        a = np.abs(u)
        ramp = np.where(a <= 2.0, height * np.sign(u) * (2.0 - a), 0.0)
        return np.where(a <= 1.0, height * u, ramp)

    return Kernel(1, evaluate, height, height / scale, None)


def scale_kernel(kernel: Kernel, factor: float) -> Kernel:
    """factor * kernel, metadata scaled exactly."""
    if kernel.terms is not None:
        terms = tuple(RadialTerm(t.code, t.scale, t.height * factor) for t in kernel.terms)
        return _kernel_from_terms(
            kernel.dim, terms, abs(factor) * kernel.sup_bound, abs(factor) * kernel.lip_x
        )
    base = kernel.evaluate
    return Kernel(
        kernel.dim,
        lambda t, xs: factor * base(t, xs),
        abs(factor) * kernel.sup_bound,
        abs(factor) * kernel.lip_x,
        None,
    )


def add_kernels(a: Kernel, b: Kernel) -> Kernel:
    """a + b with conservative (subadditive) metadata."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    sup = a.sup_bound + b.sup_bound
    lip = a.lip_x + b.lip_x
    if a.terms is not None and b.terms is not None:
        return _kernel_from_terms(a.dim, a.terms + b.terms, sup, lip)
    ea, eb = a.evaluate, b.evaluate
    return Kernel(a.dim, lambda t, xs: ea(t, xs) + eb(t, xs), sup, lip, None)


def convolve_batch(
    mu: ParticleMeasure, kernel: Kernel, t: float, points: np.ndarray
) -> np.ndarray:
    """(mu * kernel)(points): sum_m w_m kernel(t, x - x_m) at each point."""
    pts = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
    if pts.shape[1] != mu.dim:
        raise ValueError("evaluation points have wrong dimension")
    if kernel.terms is not None:
        out = np.zeros(pts.shape[0])
        for term in kernel.terms:
            out += _accel.radial_sum(
                pts, mu.positions, mu.weights, term.code, term.scale, term.height
            )
        return out
    m, n = pts.shape[0], len(mu)
    out = np.empty(m)
    rows = _accel.block_rows(n)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        diff = pts[lo:hi, None, :] - mu.positions[None, :, :]
        vals = kernel.evaluate(t, diff.reshape(-1, mu.dim))
        out[lo:hi] = vals.reshape(hi - lo, n) @ mu.weights
    return out


def convolve_vector_batch(
    rho: MeasureVector, row: Sequence[Kernel], t: float, points: np.ndarray
) -> np.ndarray:
    """(M, k) matrix of per-species convolutions at M points."""
    pts = np.atleast_2d(points)
    out = np.empty((pts.shape[0], rho.k))
    for j in range(rho.k):
        out[:, j] = convolve_batch(rho.species[j], row[j], t, pts)
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

    def row(self, i: int) -> tuple[Kernel, ...]:
        return self.entries[i]

    @property
    def lip_x(self) -> float:
        # norm-1 convention on R^k vectors: per-row sums, max over rows
        return max(sum(kn.lip_x for kn in row) for row in self.entries)

    @property
    def sup_bound(self) -> float:
        return max(kn.sup_bound for row in self.entries for kn in row)


def zero_kernel(dim: int) -> Kernel:
    return _kernel_from_terms(dim, [RadialTerm(_accel.PROFILE_CONSTANT, 1.0, 0.0)], 0.0, 0.0)


def diagonal_matrix(kernel: Kernel, k: int = 1, off: Kernel | None = None) -> KernelMatrix:
    """Kernel matrix with ``kernel`` on the diagonal and ``off`` (default zero) elsewhere."""
    if off is None:
        off = zero_kernel(kernel.dim)
    rows = tuple(
        tuple(kernel if i == j else off for j in range(k)) for i in range(k)
    )
    return KernelMatrix(rows)


def _halton(n: int, dim: int, seed: int = 0) -> np.ndarray:
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
    """Deterministic quasi-random points in an axis-aligned box."""
    low = np.atleast_1d(np.asarray(low, dtype=np.float64))
    high = np.atleast_1d(np.asarray(high, dtype=np.float64))
    return low + _halton(n, low.size, seed) * (high - low)


def steepest_slope(rise: np.ndarray, gaps: np.ndarray) -> tuple[int, float] | None:
    """Index and slope rise/gap of the steepest sample pair more than 1e-12
    apart, or None when no pair is: a slope check has no witness then."""
    apart = np.flatnonzero(gaps > 1e-12)
    if apart.size == 0:
        return None
    ratio = rise[apart] / gaps[apart]
    worst = int(np.argmax(ratio))
    return int(apart[worst]), float(ratio[worst])


def audit_kernel(
    kernel: Kernel,
    box_radius: float,
    samples: int = 2000,
    seed: int = 0,
    rel_tol: float = 1e-8,
) -> None:
    """Sample-check |eta| <= sup_bound and Lipschitz-in-x <= lip_x at t = 0.

    Raises :class:`AuditError` with the witnessing sample on violation.
    Sampling only under-estimates the true constants, so a pass never
    certifies more than the declaration and a failure is always genuine.
    """
    lo = -box_radius * np.ones(kernel.dim)
    hi = box_radius * np.ones(kernel.dim)
    xs = sample_box(lo, hi, samples, seed)
    ys = sample_box(lo, hi, samples, seed + 3)
    scale = max(kernel.sup_bound, kernel.lip_x, 1.0)
    vx = kernel.evaluate(0.0, xs)
    vy = kernel.evaluate(0.0, ys)
    worst = np.argmax(np.abs(vx))
    if abs(vx[worst]) > kernel.sup_bound + rel_tol * scale:
        raise AuditError(
            f"kernel sup audit failed: |eta(0.0, {xs[worst]})| = {abs(vx[worst])} "
            f"> declared {kernel.sup_bound}"
        )
    steep = steepest_slope(np.abs(vx - vy), np.linalg.norm(xs - ys, axis=1))
    if steep is not None and steep[1] > kernel.lip_x + rel_tol * scale:
        worst, slope = steep
        raise AuditError(
            f"kernel Lipschitz audit failed: slope {slope} between "
            f"{xs[worst]} and {ys[worst]} > declared {kernel.lip_x}"
        )
