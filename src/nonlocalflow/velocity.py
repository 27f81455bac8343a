"""Velocity fields V^i(t, x, r) with certified Lipschitz metadata.

The gallery covers the standard models: congestion-driven pedestrian flow,
1D sedimentation, linear local fields and constant drifts.  Every species
is moved by its own V^i(t, x, r) with r = (rho * eta^i)(x); a
single-particle (Dirac) species, such as a predator, is an ordinary
one-particle species under its own field.  Metadata (sup, Lip_x, Lip_r)
is declared analytically per model and can be cross-checked by the
sampling auditor; every stability constant downstream derives from these
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import (
    AuditError,
    Kernel,
    KernelMatrix,
    audit_kernel,
    convolve_vector_batch,
    diagonal_matrix,
    kernel_library,
    require_positive,
    sample_box,
    steepest_slope,
)
from .measures import MeasureVector


@dataclass(frozen=True)
class VelocityField:
    """One species' velocity law.

    ``evaluate(t, xs, rs)`` maps time, positions (M, d) and the convolution
    vectors rs (M, k) to velocities (M, d).
    """

    dim: int
    k: int
    evaluate: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    sup_bound: float
    lip_x: float
    lip_r: float


@dataclass(frozen=True)
class VelocityModel:
    """The full right-hand side: one field per species plus their kernels."""

    fields: tuple[VelocityField, ...]
    kernels: KernelMatrix

    def __post_init__(self):
        fields = tuple(self.fields)
        if len(fields) != self.kernels.k:
            raise ValueError("one velocity field per species required")
        if any(f.dim != self.kernels.dim or f.k != self.kernels.k for f in fields):
            raise ValueError("field dims must match the kernel matrix")
        object.__setattr__(self, "fields", fields)

    @property
    def k(self) -> int:
        return len(self.fields)

    @property
    def dim(self) -> int:
        return self.kernels.dim

    @property
    def lip_x(self) -> float:
        return max(f.lip_x for f in self.fields)

    @property
    def lip_r(self) -> float:
        return max(f.lip_r for f in self.fields)

    @property
    def sup_bound(self) -> float:
        return max(f.sup_bound for f in self.fields)


def lipschitz_bound_b(model: VelocityModel, mass: float) -> float:
    """Lipschitz constant of the effective field b(t,x) = V(t, x, rho*eta);
    a negative or non-finite bound, from lying metadata, is rejected."""
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    c = model.lip_x + model.lip_r * model.kernels.lip_x * mass
    if not (np.isfinite(c) and c >= 0):
        raise ValueError(f"Lipschitz bound of b must be finite and >= 0, got {c!r}")
    return c


def velocity_batch(
    model: VelocityModel,
    source: MeasureVector,
    i: int,
    t: float,
    points: np.ndarray,
) -> np.ndarray:
    """V^i(t, x, (source * eta^i)(x)) at many points, shape (M, d)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    conv = convolve_vector_batch(source, model.kernels.row(i), t, pts)
    vel = np.asarray(model.fields[i].evaluate(t, pts, conv), dtype=np.float64)
    if vel.shape != pts.shape:
        raise ValueError(f"velocity field {i} returned shape {vel.shape}, expected {pts.shape}")
    return vel


# ---------------------------------------------------------------------------
# scalar speed laws and direction fields for the pedestrian model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpeedLaw:
    """Scalar speed as a function of the averaged density."""

    func: Callable[[np.ndarray], np.ndarray]
    sup_bound: float
    lip: float


def congestion_speed(v_max: float = 1.0, r_crit: float = 1.0) -> SpeedLaw:
    """v(s) = v_max * clip(1 - s / r_crit, 0, 1): full speed when free, stop at congestion."""
    require_positive("v_max", v_max)
    require_positive("r_crit", r_crit)

    def func(s):
        return v_max * np.clip(1.0 - np.asarray(s) / r_crit, 0.0, 1.0)

    return SpeedLaw(func, v_max, v_max / r_crit)


@dataclass(frozen=True)
class DirectionField:
    """Bounded Lipschitz direction field; func acts on (M, d) arrays."""

    func: Callable[[np.ndarray], np.ndarray]
    sup_bound: float
    lip: float


def constant_direction(vec: Sequence[float]) -> DirectionField:
    v = np.asarray(vec, dtype=np.float64)

    def func(x):
        return np.broadcast_to(v, (np.atleast_2d(x).shape[0], v.size)).copy()

    return DirectionField(func, float(np.linalg.norm(v)), 0.0)


def toward_point(target: Sequence[float]) -> DirectionField:
    """Softly normalized pull toward a target: u / sqrt(1 + |u|^2), u = p - x.

    Jacobian norm is bounded by 1 and |dir| < 1, so sup = lip = 1 exactly.
    """
    p = np.asarray(target, dtype=np.float64)

    def func(x):
        u = p - np.atleast_2d(x)
        return u / np.sqrt(1.0 + np.sum(u * u, axis=1, keepdims=True))

    return DirectionField(func, 1.0, 1.0)


def pedestrian_field(speed: SpeedLaw, direction: DirectionField, kernel: Kernel) -> VelocityModel:
    """V(t, x, r) = v(r) * dir(x) for a single species.

    Product metadata is exact for this form: lip_x = sup(v) * Lip(dir),
    lip_r = Lip(v) * sup(dir), sup = sup(v) * sup(dir).
    """
    field = VelocityField(
        kernel.dim,
        1,
        lambda t, xs, rs: np.asarray(speed.func(rs[:, 0]))[:, None] * direction.func(xs),
        sup_bound=speed.sup_bound * direction.sup_bound,
        lip_x=speed.sup_bound * direction.lip,
        lip_r=speed.lip * direction.sup_bound,
    )
    return VelocityModel((field,), diagonal_matrix(kernel, 1))


def sedimentation_field(kernel: Kernel, mass: float = 1.0) -> VelocityModel:
    """1D model with V(t, x, r) = r: particles drift at their averaged density.

    sup_bound is the reachable bound mass * sup(eta) on the ball B_M.
    """
    if kernel.dim != 1:
        raise ValueError("sedimentation model is one-dimensional")

    field = VelocityField(
        1,
        1,
        lambda t, xs, rs: rs[:, :1].copy(),
        sup_bound=mass * kernel.sup_bound,
        lip_x=0.0,
        lip_r=1.0,
    )
    return VelocityModel((field,), diagonal_matrix(kernel, 1))


def linear_local_field(alpha: float, domain_radius: float, dim: int = 1) -> VelocityModel:
    """Local field V = alpha * x paired with a constant kernel (r is ignored).

    Bounded only on the declared domain; sup is certified on the box
    |x_a| <= domain_radius.
    """
    field = VelocityField(
        dim,
        1,
        lambda t, xs, rs: alpha * xs,
        sup_bound=abs(alpha) * domain_radius * np.sqrt(dim),
        lip_x=abs(alpha),
        lip_r=0.0,
    )
    return VelocityModel((field,), diagonal_matrix(kernel_library("constant", dim), 1))


def constant_drift_field(vec: Sequence[float], kernel: Kernel | None = None) -> VelocityModel:
    v = np.asarray(vec, dtype=np.float64)
    if kernel is None:
        kernel = kernel_library("constant", v.size)

    field = VelocityField(
        v.size,
        1,
        lambda t, xs, rs: np.broadcast_to(v, (xs.shape[0], v.size)).copy(),
        sup_bound=float(np.linalg.norm(v)),
        lip_x=0.0,
        lip_r=0.0,
    )
    return VelocityModel((field,), diagonal_matrix(kernel, 1))


# ---------------------------------------------------------------------------
# sampling auditor
# ---------------------------------------------------------------------------


def _l1_ball_samples(k: int, radius: float, n: int, seed: int) -> np.ndarray:
    u = 2.0 * sample_box(np.zeros(k), np.ones(k), n, seed) - 1.0
    norms = np.maximum(np.abs(u).sum(axis=1), 1.0)
    return radius * u / norms[:, None]


def audit_velocity_field(
    field: VelocityField,
    box_radius: float,
    r_radius: float,
    samples: int = 1500,
    seed: int = 0,
    rel_tol: float = 1e-8,
) -> None:
    """Sample-check sup and Lipschitz declarations of one velocity field at
    t = 0.

    r is sampled from the norm-1 ball of radius M = mass * sup(eta); x from
    the declared box.  Raises :class:`AuditError` with the witness on
    violation.  A slope check with no sample pair more than 1e-12 apart is
    skipped.
    """
    lo = -box_radius * np.ones(field.dim)
    hi = box_radius * np.ones(field.dim)
    xs = sample_box(lo, hi, samples, seed)
    ys = sample_box(lo, hi, samples, seed + 5)
    rs = _l1_ball_samples(field.k, r_radius, samples, seed + 9)
    qs = _l1_ball_samples(field.k, r_radius, samples, seed + 13)
    scale = max(field.sup_bound, field.lip_x, field.lip_r, 1.0)
    vx = field.evaluate(0.0, xs, rs)
    speeds = np.linalg.norm(vx, axis=1)
    worst = int(np.argmax(speeds))
    if speeds[worst] > field.sup_bound + rel_tol * scale:
        raise AuditError(
            f"velocity sup audit failed: |V(0.0, {xs[worst]}, {rs[worst]})| = "
            f"{speeds[worst]} > declared {field.sup_bound}"
        )
    vy = field.evaluate(0.0, ys, rs)
    steep = steepest_slope(np.linalg.norm(vx - vy, axis=1), np.linalg.norm(xs - ys, axis=1))
    if steep is not None and steep[1] > field.lip_x + rel_tol * scale:
        worst, slope = steep
        raise AuditError(
            f"velocity Lip_x audit failed: slope {slope} between "
            f"x={xs[worst]} and y={ys[worst]} > declared {field.lip_x}"
        )
    vq = field.evaluate(0.0, xs, qs)
    steep = steepest_slope(np.linalg.norm(vx - vq, axis=1), np.abs(rs - qs).sum(axis=1))
    if steep is not None and steep[1] > field.lip_r + rel_tol * scale:
        worst, slope = steep
        raise AuditError(
            f"velocity Lip_r audit failed: slope {slope} between "
            f"r={rs[worst]} and q={qs[worst]} > declared {field.lip_r}"
        )


def audit_model(
    model: VelocityModel,
    box_radius: float,
    mass: float,
    samples: int = 1500,
    seed: int = 0,
) -> None:
    """Audit every kernel entry and velocity field of a model at t = 0."""
    for row in model.kernels.entries:
        for kn in row:
            audit_kernel(kn, box_radius, samples, seed)
    r_radius = mass * model.kernels.sup_bound
    for field in model.fields:
        audit_velocity_field(field, box_radius, r_radius, samples, seed)
