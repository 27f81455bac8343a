"""Characteristic flow: RK4 particle advection and density transport.

Particles move along dX/dt = V(t, X, (rho * eta)(X)).  In self-consistent
mode the convolution source is the evolving stage ensemble itself (the
coupled particle ODE system); in frozen mode it is a frozen record,
interpolated linearly in time at the RK stage times.  Weights are never
touched, so species masses are conserved bit-exactly.

Transported densities are a post-pass over a finished record's
characteristics: along each path the density is its initial value times
exp(-integral of div V), with div V approximated by central differences of
the effective velocity and the time integral by the midpoint rule.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .kernels import sample_box, sample_normal
from .measures import MeasureVector, ParticleMeasure, require_positive
from .velocity import VelocityModel, lipschitz_bound_b, velocity_batch


class StepControlError(ValueError):
    """dt too large for Lipschitz constant."""


class NonFiniteStateError(ValueError):
    """A step left a non-finite position or divergence integral."""


# the central-difference step of the divergence in transported densities
H_FD = 1e-4
# the flow-map probe's pairs per species and their initial distance
PROBE_PAIRS = 64
PROBE_SEPARATION = 1e-3


@dataclass(frozen=True)
class StepControl:
    """The RK4 step ``dt``; a field of Lipschitz bound C needs dt * C <= ``courant``."""

    dt: float
    courant: ClassVar[float] = 0.1

    def __post_init__(self):
        require_positive("dt", self.dt)

    def check(self, lipschitz: float) -> None:
        if self.dt * lipschitz > self.courant * (1.0 + 1e-12):
            raise StepControlError(
                f"dt too large for Lipschitz constant: dt*{lipschitz} = "
                f"{self.dt * lipschitz} > courant {self.courant}"
            )


@dataclass
class SolutionRecord:
    """Time-indexed snapshots of one solve, plus diagnostics.

    A record is also a frozen convolution source: :meth:`at` interpolates
    its states linearly in time, so its times must strictly increase.
    """

    times: np.ndarray
    states: list[MeasureVector]
    densities: list[tuple[np.ndarray, ...]] | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.size != len(self.states) or self.times.size == 0:
            raise ValueError("one state per time required")
        if not (self.times[1:] > self.times[:-1]).all():
            raise ValueError("times must be strictly increasing")

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

    def masses(self) -> np.ndarray:
        return np.array([s.masses() for s in self.states])

    def final(self) -> MeasureVector:
        return self.states[-1]


def rk4_step(
    model: VelocityModel,
    frozen_r: SolutionRecord | None,
    rho: MeasureVector,
    t: float,
    dt: float,
) -> MeasureVector:
    """Advance every particle of every species by one classical RK4 step
    from time ``t``.

    ``frozen_r is None`` selects self-consistent mode; otherwise the frozen
    record supplies the convolution source at the stage times, and the step
    check uses its mass, on which Lip(b_r) depends.
    """
    source_mass = (rho if frozen_r is None else frozen_r.states[0]).total_measure()
    StepControl(dt).check(lipschitz_bound_b(model, source_mass))
    points = rho.positions()

    def stage(t_stage: float, pts: list[np.ndarray]) -> list[np.ndarray]:
        source = rho.with_positions(pts) if frozen_r is None else frozen_r.at(t_stage)
        return [velocity_batch(model, source, i, t_stage, p) for i, p in enumerate(pts)]

    def shifted(vels: list[np.ndarray], factor: float) -> list[np.ndarray]:
        return [p + factor * v for p, v in zip(points, vels)]

    k1 = stage(t, points)
    k2 = stage(t + 0.5 * dt, shifted(k1, 0.5 * dt))
    k3 = stage(t + 0.5 * dt, shifted(k2, 0.5 * dt))
    k4 = stage(t + dt, shifted(k3, dt))
    sixth = dt / 6.0
    return rho.with_positions([
        p + sixth * (a + 2.0 * b + 2.0 * c + d)
        for p, a, b, c, d in zip(points, k1, k2, k3, k4)
    ])


def divergence_at(
    model: VelocityModel,
    source: MeasureVector,
    i: int,
    t: float,
    points: np.ndarray,
) -> np.ndarray:
    """Central-difference divergence of the effective field at given points."""
    pts = np.atleast_2d(points)
    n, d = pts.shape
    stacked = np.empty((2 * d * n, d))
    for a in range(d):
        plus = pts.copy()
        plus[:, a] += H_FD
        minus = pts.copy()
        minus[:, a] -= H_FD
        stacked[2 * a * n : (2 * a + 1) * n] = plus
        stacked[(2 * a + 1) * n : (2 * a + 2) * n] = minus
    vel = velocity_batch(model, source, i, t, stacked)
    div = np.zeros(n)
    for a in range(d):
        vp = vel[2 * a * n : (2 * a + 1) * n, a]
        vm = vel[(2 * a + 1) * n : (2 * a + 2) * n, a]
        div += (vp - vm) / (2.0 * H_FD)
    return div


def _non_finite(j: int, t: float) -> NonFiniteStateError:
    return NonFiniteStateError(f"non-finite state after step index {j} (t = {float(t)!r})")


def transported_densities(
    model: VelocityModel,
    record: SolutionRecord,
    dt: float,
    rho0: Sequence[np.ndarray],
) -> list[tuple[np.ndarray, ...]]:
    """rho_0 * exp(-integral of div V) along the characteristics of ``record``.

    ``record`` holds the states of one solve, ``dt`` apart; ``rho0`` gives
    rho_0 at each particle of its first state.  Each step's integral uses the
    midpoint rule: div V at the record's time plus dt/2, at positions (and
    a source measure) averaged between the step's two states.  Returns one
    tuple of per-species densities per state.  Raises
    :class:`NonFiniteStateError` naming the first step whose integral is not
    finite.
    """
    initial = [np.asarray(v, dtype=np.float64) for v in rho0]
    acc = [np.zeros(len(m)) for m in record.states[0].species]
    densities = [tuple(d0 * np.exp(-a) for d0, a in zip(initial, acc))]
    for j, (state, nxt) in enumerate(zip(record.states, record.states[1:])):
        tm = record.times[j] + 0.5 * dt
        mid = [0.5 * (a + b) for a, b in zip(state.positions(), nxt.positions())]
        source = state.with_positions(mid)
        acc = [a + dt * divergence_at(model, source, i, tm, mid[i]) for i, a in enumerate(acc)]
        if not all(np.isfinite(a).all() for a in acc):
            raise _non_finite(j, record.times[j + 1])
        densities.append(tuple(d0 * np.exp(-a) for d0, a in zip(initial, acc)))
    return densities


def _uniform_steps(t0: float, t1: float, dt: float) -> tuple[int, float]:
    """Fewest steps of at most ``dt`` (up to rounding) that cover [t0, t1]."""
    span = t1 - t0
    steps = max(1, int(math.ceil(span / dt - 1e-12)))
    return steps, span / steps


def integrate(
    model: VelocityModel,
    frozen_r: SolutionRecord | None,
    initial: MeasureVector,
    t0: float,
    t1: float,
    steps: int,
) -> SolutionRecord:
    """The RK4 loop: ``steps`` uniform steps from ``initial`` at ``t0`` to ``t1``.

    With a ``frozen_r`` record as convolution source this solves the linear
    problem behind the map r -> rho; with None, the self-consistent one.
    Returns the record of the snapshot times ``t0 + dt*j`` and the state at
    each; step j starts at its record time.  Raises
    :class:`NonFiniteStateError` naming the step and its time when a step
    leaves a non-finite position.
    """
    dt = (t1 - t0) / steps
    times = [t0]
    states = [initial]
    for j in range(steps):
        rho = rk4_step(model, frozen_r, states[-1], times[-1], dt)
        times.append(t0 + dt * (j + 1))
        if not all(np.isfinite(p).all() for p in rho.positions()):
            raise _non_finite(j, times[-1])
        states.append(rho)
    return SolutionRecord(times, states)


def _probe_offsets(dim: int, seed: int) -> np.ndarray:
    """:data:`PROBE_PAIRS` vectors :data:`PROBE_SEPARATION` long, along the
    :func:`sample_normal` points of indices ``seed + 1`` to ``seed + PROBE_PAIRS``."""
    offsets = sample_normal(PROBE_PAIRS, dim, seed)
    return offsets * (PROBE_SEPARATION / np.linalg.norm(offsets, axis=1, keepdims=True))


def flow_map_lipschitz_probe(model: VelocityModel, record: SolutionRecord, seed: int = 0) -> float:
    """Max over species and probe pairs of |X_T(x) - X_T(y)| / |x - y|.

    X is each species' flow with ``record`` as frozen source, on the
    record's own step grid.  Around each species' initial cloud, padded by
    0.5, :func:`sample_box` places :data:`PROBE_PAIRS` base points, and each
    pair's second point lies :data:`PROBE_SEPARATION` away along a
    :func:`sample_normal` direction.  Species i of k reads the indices after
    ``(seed * k + i) * 2 * PROBE_PAIRS``: the first PROBE_PAIRS for the base
    points, the next for the directions.  One :func:`integrate` call moves
    them all.  The ratio must stay below exp(Lip(b) * T) up to integration
    error.
    """
    start = record.states[0]
    probes = []
    for i, mu in enumerate(start.species):
        first = (seed * start.k + i) * 2 * PROBE_PAIRS
        base = sample_box(mu.positions.min(axis=0) - 0.5, mu.positions.max(axis=0) + 0.5, PROBE_PAIRS, first)
        offsets = _probe_offsets(start.dim, first + PROBE_PAIRS)
        probes.append(ParticleMeasure(start.dim, np.vstack([base, base + offsets]), np.ones(2 * PROBE_PAIRS)))
    times = record.times
    moved = integrate(model, record, MeasureVector(tuple(probes)), times[0], times[-1], times.size - 1)

    def gaps(mu: ParticleMeasure) -> np.ndarray:
        return np.linalg.norm(mu.positions[:PROBE_PAIRS] - mu.positions[PROBE_PAIRS:], axis=1)

    return max(float(np.max(gaps(after) / gaps(before))) for before, after in zip(probes, moved.final().species))
