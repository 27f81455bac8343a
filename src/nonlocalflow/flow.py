"""Characteristic flow: RK4 particle advection and density transport.

Particles move along dX/dt = V(t, X, (rho * eta)(X)).  In self-consistent
mode the convolution source is the evolving stage ensemble itself (the
coupled particle ODE system); in Picard mode it is a frozen trajectory,
interpolated linearly in time at the RK stage times.  Weights are never
touched, so species masses are conserved bit-exactly.

When density tracking is on, the transported density along each path is
initial value times exp(-integral of div V), with div V approximated by
central differences of the effective velocity and the time integral by the
midpoint rule.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .kernels import require_positive
from .measures import MeasureVector
from .velocity import VelocityModel, lipschitz_bound_b, velocity_batch


class StepControlError(ValueError):
    """dt too large for Lipschitz constant."""


class NonFiniteStateError(ValueError):
    """A step left a non-finite position, tracer or divergence integral."""


@dataclass(frozen=True)
class StepControl:
    dt: float
    courant: float = 0.1

    def __post_init__(self):
        require_positive("dt", self.dt)
        require_positive("courant", self.courant)

    def check(self, lipschitz: float) -> None:
        if self.dt * lipschitz > self.courant * (1.0 + 1e-12):
            raise StepControlError(
                f"dt too large for Lipschitz constant: dt*{lipschitz} = "
                f"{self.dt * lipschitz} > courant {self.courant}"
            )


@dataclass(frozen=True)
class FlowState:
    """Ensemble state along the flow, with optional density tracking.

    ``passive`` holds per-species tracer positions that are advected by the
    species' field but carry no mass and do not act on the dynamics.
    """

    t: float
    rho: MeasureVector
    initial_density: tuple[np.ndarray, ...] | None = None
    div_integral: tuple[np.ndarray, ...] | None = None
    passive: tuple[np.ndarray, ...] | None = None

    def transported_density(self) -> tuple[np.ndarray, ...]:
        if self.initial_density is None or self.div_integral is None:
            raise ValueError("density tracking is not enabled for this state")
        return tuple(
            d0 * np.exp(-acc) for d0, acc in zip(self.initial_density, self.div_integral)
        )


def start_state(
    rho: MeasureVector, density_values: Sequence[np.ndarray] | None = None, t: float = 0.0
) -> FlowState:
    if density_values is None:
        return FlowState(t, rho)
    return FlowState(
        t,
        rho,
        tuple(np.asarray(v, dtype=np.float64) for v in density_values),
        tuple(np.zeros(len(m)) for m in rho.species),
    )


class ParticleTrajectory:
    """Snapshots of one solve; linear interpolation between stored times."""

    def __init__(self, times: Sequence[float], states: Sequence[MeasureVector]):
        self.times = np.asarray(times, dtype=np.float64)
        self.states = list(states)
        if self.times.size != len(self.states) or self.times.size == 0:
            raise ValueError("one state per time required")
        if (np.diff(self.times) <= 0).any():
            raise ValueError("times must be strictly increasing")

    @classmethod
    def frozen(cls, t0: float, t1: float, rho: MeasureVector) -> "ParticleTrajectory":
        return cls([t0, t1], [rho, rho])

    def at(self, t: float) -> MeasureVector:
        times = self.times
        if t <= times[0]:
            return self.states[0]
        if t >= times[-1]:
            return self.states[-1]
        j = bisect.bisect_right(times, t) - 1
        t0, t1 = times[j], times[j + 1]
        theta = (t - t0) / (t1 - t0)
        if theta == 0.0:
            return self.states[j]
        a, b = self.states[j], self.states[j + 1]
        return a.with_positions(
            [
                (1.0 - theta) * pa + theta * pb
                for pa, pb in zip(a.positions(), b.positions())
            ]
        )


def _stage_source(
    frozen_r: ParticleTrajectory | None,
    template: MeasureVector,
    stage_positions: list[np.ndarray],
    t_stage: float,
) -> MeasureVector:
    if frozen_r is None:
        return template.with_positions(stage_positions)
    return frozen_r.at(t_stage)


def _stage_velocities(
    model: VelocityModel,
    source: MeasureVector,
    t: float,
    positions: Sequence[np.ndarray],
    passive: Sequence[np.ndarray] | None,
) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
    vels = [
        velocity_batch(model, source, i, t, positions[i]) for i in range(len(positions))
    ]
    pvels = None
    if passive is not None:
        pvels = [
            velocity_batch(model, source, i, t, passive[i]) if passive[i].size else passive[i]
            for i in range(len(passive))
        ]
    return vels, pvels


def rk4_step(
    model: VelocityModel,
    frozen_r: ParticleTrajectory | None,
    state: FlowState,
    dt: float,
    courant: float = 0.1,
) -> FlowState:
    """Advance every particle of every species, and any passive tracers, by
    one classical RK4 step.

    ``frozen_r is None`` selects self-consistent mode; otherwise the frozen
    trajectory supplies the convolution source at the stage times.
    """
    StepControl(dt, courant).check(
        lipschitz_bound_b(model, state.rho.total_measure())
    )
    t, template, passive = state.t, state.rho, state.passive
    positions = template.positions()

    def shifted(base, vels, factor):
        return [p + factor * v for p, v in zip(base, vels)]

    src1 = _stage_source(frozen_r, template, positions, t)
    k1, pk1 = _stage_velocities(model, src1, t, positions, passive)

    pos2 = shifted(positions, k1, 0.5 * dt)
    pas2 = shifted(passive, pk1, 0.5 * dt) if passive is not None else None
    src2 = _stage_source(frozen_r, template, pos2, t + 0.5 * dt)
    k2, pk2 = _stage_velocities(model, src2, t + 0.5 * dt, pos2, pas2)

    pos3 = shifted(positions, k2, 0.5 * dt)
    pas3 = shifted(passive, pk2, 0.5 * dt) if passive is not None else None
    src3 = _stage_source(frozen_r, template, pos3, t + 0.5 * dt)
    k3, pk3 = _stage_velocities(model, src3, t + 0.5 * dt, pos3, pas3)

    pos4 = shifted(positions, k3, dt)
    pas4 = shifted(passive, pk3, dt) if passive is not None else None
    src4 = _stage_source(frozen_r, template, pos4, t + dt)
    k4, pk4 = _stage_velocities(model, src4, t + dt, pos4, pas4)

    sixth = dt / 6.0
    new_pos = [
        p + sixth * (a + 2.0 * b + 2.0 * c + d)
        for p, a, b, c, d in zip(positions, k1, k2, k3, k4)
    ]
    new_pas = None
    if passive is not None:
        new_pas = tuple(
            p + sixth * (a + 2.0 * b + 2.0 * c + d)
            for p, a, b, c, d in zip(passive, pk1, pk2, pk3, pk4)
        )
    return replace(
        state, t=t + dt, rho=template.with_positions(new_pos), passive=new_pas
    )


def divergence_at(
    model: VelocityModel,
    source: MeasureVector,
    i: int,
    t: float,
    points: np.ndarray,
    h_fd: float,
) -> np.ndarray:
    """Central-difference divergence of the effective field at given points."""
    pts = np.atleast_2d(points)
    n, d = pts.shape
    if n == 0:
        return np.zeros(0)
    stacked = np.empty((2 * d * n, d))
    for a in range(d):
        plus = pts.copy()
        plus[:, a] += h_fd
        minus = pts.copy()
        minus[:, a] -= h_fd
        stacked[2 * a * n : (2 * a + 1) * n] = plus
        stacked[(2 * a + 1) * n : (2 * a + 2) * n] = minus
    vel = velocity_batch(model, source, i, t, stacked)
    div = np.zeros(n)
    for a in range(d):
        vp = vel[2 * a * n : (2 * a + 1) * n, a]
        vm = vel[(2 * a + 1) * n : (2 * a + 2) * n, a]
        div += (vp - vm) / (2.0 * h_fd)
    return div


def accumulate_divergence(
    model: VelocityModel,
    frozen_r: ParticleTrajectory | None,
    state: FlowState,
    next_state: FlowState,
    dt: float,
    h_fd: float = 1e-4,
) -> FlowState:
    """Advance the per-particle divergence integrals across one step.

    Uses the midpoint rule in time: div V is evaluated at t + dt/2 with
    particle positions averaged between the two endpoint states.
    """
    if state.div_integral is None:
        raise ValueError("density tracking is not enabled for this state")
    tm = state.t + 0.5 * dt
    mid_positions = [
        0.5 * (a + b)
        for a, b in zip(state.rho.positions(), next_state.rho.positions())
    ]
    source = _stage_source(frozen_r, state.rho, mid_positions, tm)
    new_acc = []
    for i in range(state.rho.k):
        div = divergence_at(model, source, i, tm, mid_positions[i], h_fd)
        new_acc.append(state.div_integral[i] + dt * div)
    return replace(next_state, initial_density=state.initial_density, div_integral=tuple(new_acc))


def _uniform_steps(t0: float, t1: float, dt: float) -> tuple[int, float]:
    """Fewest steps of at most ``dt`` (up to rounding) that cover [t0, t1]."""
    span = t1 - t0
    steps = max(1, int(math.ceil(span / dt - 1e-12)))
    return steps, span / steps


def integrate(
    model: VelocityModel,
    frozen_r: ParticleTrajectory | None,
    state: FlowState,
    t1: float,
    steps: int,
    courant: float = 0.1,
    h_fd: float = 1e-4,
) -> tuple[np.ndarray, list[FlowState]]:
    """The RK4 loop: ``steps`` uniform steps from ``state.t`` to ``t1``.

    Returns the snapshot times ``t0 + dt*(j+1)`` (prefixed by ``t0``) and
    the state after each step (prefixed by ``state``).  The stage clock of
    each step is the accumulated ``state.t``, not the snapshot time.  States
    that track densities also advance their divergence integrals.  Raises
    :class:`NonFiniteStateError` naming the step and its time when a step
    leaves a non-finite position, tracer or divergence integral.
    """
    t0 = state.t
    dt = (t1 - t0) / steps
    times = [t0]
    states = [state]
    for j in range(steps):
        nxt = rk4_step(model, frozen_r, state, dt, courant)
        if state.div_integral is not None:
            nxt = accumulate_divergence(model, frozen_r, state, nxt, dt, h_fd)
        state = nxt
        times.append(t0 + dt * (j + 1))
        arrays = (*state.rho.positions(), *(state.passive or ()), *(state.div_integral or ()))
        if not all(np.isfinite(a).all() for a in arrays):
            raise NonFiniteStateError(f"non-finite state after step index {j} (t = {times[-1]!r})")
        states.append(state)
    return np.asarray(times), states


def flow_map_lipschitz_probe(
    model: VelocityModel,
    initial: MeasureVector,
    horizon: float,
    dt: float,
    species: int = 0,
    pairs: int = 64,
    separation: float = 1e-3,
    seed: int = 0,
    courant: float = 0.1,
) -> float:
    """Max over probe pairs of |X_T(x) - X_T(y)| / |x - y|.

    Probes are passive tracers advected by the species' field; they carry no
    mass and do not influence the dynamics.  The ratio must stay below
    exp(Lip(b) * T) up to integration error.
    """
    rng = np.random.default_rng(seed)
    pos = initial.species[species].positions
    lo = pos.min(axis=0) if len(pos) else np.zeros(initial.dim)
    hi = pos.max(axis=0) if len(pos) else np.zeros(initial.dim)
    base = rng.uniform(lo - 0.5, hi + 0.5, size=(pairs, initial.dim))
    offsets = rng.normal(size=(pairs, initial.dim))
    offsets *= separation / np.linalg.norm(offsets, axis=1, keepdims=True)
    probes_a = base
    probes_b = base + offsets
    gap0 = np.linalg.norm(probes_a - probes_b, axis=1)

    steps, _ = _uniform_steps(0.0, horizon, dt)
    passive = [np.zeros((0, initial.dim)) for _ in range(initial.k)]
    passive[species] = np.vstack([probes_a, probes_b])
    start = FlowState(0.0, initial, passive=tuple(passive))
    _, states = integrate(model, None, start, horizon, steps, courant)
    moved = states[-1].passive[species]
    gap_t = np.linalg.norm(moved[:pairs] - moved[pairs:], axis=1)
    return float(np.max(gap_t / gap0))
