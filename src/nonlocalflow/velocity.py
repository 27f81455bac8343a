"""Velocity fields V^i(t, x, r) with certified Lipschitz metadata.

The gallery covers the standard models: congestion-driven pedestrian flow,
built by the one builder :func:`pedestrian_field`, 1D sedimentation, linear
local fields and constant drifts.  A field that reads no r carries the zero
kernel, so its convolution sums nothing.  Every species is moved by its own
V^i(t, x, r) with r = (rho * eta^i)(x); a single-particle (Dirac) species,
such as a predator, is an ordinary one-particle species under its own field.
Metadata (sup, Lip_x, Lip_r) is declared analytically per model and
cross-checked by the sampling auditor below, the one sampled check of
declared bounds: kernels derive theirs from their terms.  Every stability
constant downstream derives from these numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import AuditError, Kernel, KernelMatrix, convolve_batch, sample_box, zero_kernel
from .measures import MeasureVector, require_positive

# The auditor's sample count, and its tolerance relative to the largest declared
# constant (at least 1): a witness must exceed a declaration by more than rounding.
AUDIT_SAMPLES = 1500
AUDIT_REL_TOL = 1e-8


def require_bounds(owner: str, obj, names: tuple[str, ...]) -> None:
    """Reject each declared bound of ``obj`` unless it is finite and >= 0 (NaN included)."""
    for name in names:
        value = getattr(obj, name)
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{owner} {name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class VelocityField:
    """One species' velocity law.

    ``evaluate(t, xs, rs)`` maps time, positions (M, d) and the convolution
    vectors rs (M, k) to velocities (M, d).  The bounds hold on the box
    |x_a| <= ``domain_radius``, which is all of space by default.
    """

    dim: int
    k: int
    evaluate: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    sup_bound: float
    lip_x: float
    lip_r: float
    domain_radius: float = math.inf

    def __post_init__(self):
        require_bounds("velocity field", self, ("sup_bound", "lip_x", "lip_r"))
        if not self.domain_radius > 0:
            raise ValueError(f"velocity field domain_radius must be > 0, got {self.domain_radius!r}")


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
    a bound that is not finite, from declarations that overflow, is rejected."""
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
    """V^i(t, x, r) at many points, shape (M, d); column j of r (M, k) is
    species j of ``source`` convolved with eta^i_j by :func:`convolve_batch`."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    row = model.kernels.entries[i]
    conv = np.column_stack([convolve_batch(mu, kn, t, pts) for mu, kn in zip(source.species, row, strict=True)])
    vel = np.asarray(model.fields[i].evaluate(t, pts, conv), dtype=np.float64)
    if vel.shape != pts.shape:
        raise ValueError(f"velocity field {i} returned shape {vel.shape}, expected {pts.shape}")
    return vel


def pedestrian_field(
    kernel: Kernel,
    v_max: float,
    r_crit: float,
    *,
    vector: Sequence[float] | None = None,
    target: Sequence[float] | None = None,
) -> VelocityModel:
    """V(t, x, r) = v(r) * dir(x) for one species: the congestion speed
    v(r) = v_max * clip(1 - r / r_crit, 0, 1), zero at congestion, times the
    constant direction ``vector`` or the soft pull u / sqrt(1 + |u|^2),
    u = ``target`` - x, whose sup and Lipschitz constant are 1 (|dir| < 1 and
    its Jacobian has norm at most 1).  The product bounds are exact:
    sup = sup v * sup dir, lip_x = sup v * Lip dir, lip_r = Lip v * sup dir.
    """
    require_positive("v_max", v_max)
    require_positive("r_crit", r_crit)
    if (vector is None) == (target is None):
        raise ValueError("pedestrian field takes exactly one of vector and target")
    if target is None:
        vec = np.asarray(vector, dtype=np.float64)
        sup_dir, lip_dir = float(np.linalg.norm(vec)), 0.0

        def direction(xs):
            return vec

    else:
        point = np.asarray(target, dtype=np.float64)
        sup_dir, lip_dir = 1.0, 1.0

        def direction(xs):
            u = point - xs
            return u / np.sqrt(1.0 + np.sum(u * u, axis=1, keepdims=True))

    field = VelocityField(
        kernel.dim,
        1,
        lambda t, xs, rs: v_max * np.clip(1.0 - rs[:, :1] / r_crit, 0.0, 1.0) * direction(xs),
        sup_bound=v_max * sup_dir,
        lip_x=v_max * lip_dir,
        lip_r=v_max / r_crit * sup_dir,
    )
    return VelocityModel((field,), KernelMatrix(((kernel,),)))


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
    return VelocityModel((field,), KernelMatrix(((kernel,),)))


def linear_local_field(alpha: float, domain_radius: float, dim: int = 1) -> VelocityModel:
    """Local field V = alpha * x; it reads no r and carries the zero kernel.

    Bounded only on its declared domain, the box |x_a| <= domain_radius.
    """
    field = VelocityField(
        dim,
        1,
        lambda t, xs, rs: alpha * xs,
        sup_bound=abs(alpha) * domain_radius * math.sqrt(dim),
        lip_x=abs(alpha),
        lip_r=0.0,
        domain_radius=domain_radius,
    )
    return VelocityModel((field,), KernelMatrix(((zero_kernel(dim),),)))


def constant_drift_field(vec: Sequence[float]) -> VelocityModel:
    """V = vec; it reads no r and carries the zero kernel."""
    v = np.asarray(vec, dtype=np.float64)
    field = VelocityField(
        v.size,
        1,
        lambda t, xs, rs: np.broadcast_to(v, (xs.shape[0], v.size)).copy(),
        sup_bound=float(np.linalg.norm(v)),
        lip_x=0.0,
        lip_r=0.0,
    )
    return VelocityModel((field,), KernelMatrix(((zero_kernel(v.size),),)))


# ---------------------------------------------------------------------------
# sampling auditor
# ---------------------------------------------------------------------------


def steepest_slope(rise: np.ndarray, gaps: np.ndarray) -> tuple[int, float] | None:
    """Index and slope rise/gap of the steepest sample pair more than 1e-12
    apart, or None when no pair is: a slope check has no witness then."""
    apart = np.flatnonzero(gaps > 1e-12)
    if apart.size == 0:
        return None
    ratio = rise[apart] / gaps[apart]
    worst = int(np.argmax(ratio))
    return int(apart[worst]), float(ratio[worst])


def _l1_ball_samples(k: int, radius: float, n: int, seed: int) -> np.ndarray:
    u = 2.0 * sample_box(np.zeros(k), np.ones(k), n, seed) - 1.0
    norms = np.maximum(np.abs(u).sum(axis=1), 1.0)
    return radius * u / norms[:, None]


def audit_velocity_field(field: VelocityField, box_radius: float, r_radius: float) -> None:
    """Sample-check sup and Lipschitz declarations of one velocity field at
    t = 0 on :data:`AUDIT_SAMPLES` samples.

    r is sampled from the norm-1 ball of radius M = mass * sup(eta); x from
    the box |x_a| <= ``box_radius``, cut to the field's ``domain_radius``.
    Raises :class:`AuditError` with the witness on violation.  A slope
    check with no sample pair more than 1e-12 apart is skipped.
    """
    hi = min(box_radius, field.domain_radius) * np.ones(field.dim)
    lo = -hi
    xs = sample_box(lo, hi, AUDIT_SAMPLES, 0)
    ys = sample_box(lo, hi, AUDIT_SAMPLES, 5)
    rs = _l1_ball_samples(field.k, r_radius, AUDIT_SAMPLES, 9)
    qs = _l1_ball_samples(field.k, r_radius, AUDIT_SAMPLES, 13)
    tol = AUDIT_REL_TOL * max(field.sup_bound, field.lip_x, field.lip_r, 1.0)
    vx = field.evaluate(0.0, xs, rs)
    speeds = np.linalg.norm(vx, axis=1)
    worst = int(np.argmax(speeds))
    # written so that a NaN witness or a NaN declaration fails
    if not speeds[worst] <= field.sup_bound + tol:
        raise AuditError(
            f"velocity sup audit failed: |V(0.0, {xs[worst]}, {rs[worst]})| = "
            f"{speeds[worst]} > declared {field.sup_bound}"
        )
    vy = field.evaluate(0.0, ys, rs)
    steep = steepest_slope(np.linalg.norm(vx - vy, axis=1), np.linalg.norm(xs - ys, axis=1))
    if steep is not None and not steep[1] <= field.lip_x + tol:
        worst, slope = steep
        raise AuditError(
            f"velocity Lip_x audit failed: slope {slope} between "
            f"x={xs[worst]} and y={ys[worst]} > declared {field.lip_x}"
        )
    vq = field.evaluate(0.0, xs, qs)
    steep = steepest_slope(np.linalg.norm(vx - vq, axis=1), np.abs(rs - qs).sum(axis=1))
    if steep is not None and not steep[1] <= field.lip_r + tol:
        worst, slope = steep
        raise AuditError(
            f"velocity Lip_r audit failed: slope {slope} between "
            f"r={rs[worst]} and q={qs[worst]} > declared {field.lip_r}"
        )


def require_in_domain(model: VelocityModel, state: MeasureVector, t: float = 0.0) -> None:
    """Raise :class:`AuditError` naming a particle of species i at time ``t``
    that lies outside field i's ``domain_radius``, where its bounds need not hold."""
    for i, (field, mu) in enumerate(zip(model.fields, state.species)):
        if field.domain_radius == math.inf:
            continue
        far = np.abs(mu.positions).max(axis=1)
        worst = int(np.argmax(far))
        if not far[worst] <= field.domain_radius:
            raise AuditError(
                f"species[{i}] at t = {t!r} has a particle at x = {mu.positions[worst]}, "
                f"outside the domain |x_a| <= {field.domain_radius} of its field's bounds"
            )


def audit_model(model: VelocityModel, box_radius: float, mass: float) -> None:
    """Audit every velocity field of a model at t = 0; its kernels derive their own bounds."""
    r_radius = mass * model.kernels.sup_bound
    for field in model.fields:
        audit_velocity_field(field, box_radius, r_radius)
