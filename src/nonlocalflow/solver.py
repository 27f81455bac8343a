"""Two solution strategies for the nonlocal system.

``solve_direct`` integrates the coupled particle ODE self-consistently with
RK4.  ``solve_picard`` freezes the convolution source, solves the resulting
linear transport problem, and iterates the map r -> rho to its fixed point;
the horizon is covered by chaining time windows short enough that the map
contracts with factor C*T*exp(C*T) <= sigma.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .flow import (
    FlowState,
    NonFiniteStateError,
    ParticleTrajectory,
    StepControl,
    _uniform_steps,
    integrate,
    transported_densities,
)
from .kernels import KernelMatrix, require_positive, scale_kernel
from .measures import GridDensity, MeasureVector, rescale_to_probability
from .velocity import VelocityModel, lipschitz_bound_b, velocity_batch
from .wasserstein import w1_series


@dataclass(frozen=True)
class PicardParams:
    tol: float = 1e-9
    max_iter: int = 60
    sigma: float = 0.5

    def __post_init__(self):
        require_positive("picard.tol", self.tol)
        if self.max_iter < 1 or not (0.0 < self.sigma < 1.0):
            raise ValueError("need picard.max_iter >= 1 and picard.sigma in (0, 1)")


@dataclass(frozen=True)
class Scenario:
    """A Cauchy problem plus everything needed to run and check it."""

    name: str
    model: VelocityModel
    initial: MeasureVector
    horizon: float
    step: StepControl
    mode: str = "direct"
    track_density: bool = False
    picard: PicardParams = field(default_factory=PicardParams)
    initial_densities: tuple[GridDensity | None, ...] | None = None
    h_fd: float = 1e-4
    seed: int = 0
    # the normalized config this scenario was built from, when file-loaded
    config: dict | None = None

    def __post_init__(self):
        require_positive("horizon", self.horizon)
        require_positive("h_fd", self.h_fd)
        if self.mode not in ("direct", "picard"):
            raise ValueError("mode must be 'direct' or 'picard'")
        if self.track_density and self.initial_densities is None:
            raise ValueError("density tracking needs per-species initial densities")

    def fingerprint(self) -> dict:
        """What a report or an error names to replay this scenario."""
        n = sum(len(m) for m in self.initial.species)
        return {"scenario": self.name, "seed": self.seed, "dt": self.step.dt, "T": self.horizon, "N": n}

    def constants(self) -> "StabilityConstants":
        return StabilityConstants.of(self.model, self.initial.total_measure())

    def density_values(self) -> list[np.ndarray] | None:
        if not self.track_density:
            return None
        vals = []
        for mu, dens in zip(self.initial.species, self.initial_densities):
            if dens is None:
                vals.append(np.zeros(len(mu)))
            else:
                vals.append(dens.value_at(mu.positions))
        return vals


@dataclass(frozen=True)
class StabilityConstants:
    """C bounds the effective field's Lipschitz constant; the growth rate K is 2C."""

    C: float
    K: float

    def __post_init__(self):
        if self.C < 0 or abs(self.K - 2.0 * self.C) > 1e-12 * max(1.0, self.C):
            raise ValueError("need C >= 0 and K = 2C")

    @classmethod
    def of(cls, model: VelocityModel, mass: float) -> "StabilityConstants":
        c = lipschitz_bound_b(model, mass)
        return cls(c, 2.0 * c)


class PicardConvergenceError(RuntimeError):
    """Fixed-point iteration hit max_iter; carries the distance sequence."""

    def __init__(self, distances: list[float]):
        super().__init__(
            f"picard iteration did not converge; distances {distances}"
        )
        self.distances = distances


@dataclass
class SolutionRecord:
    """Time-indexed snapshots of one solve, plus diagnostics."""

    times: np.ndarray
    states: list[MeasureVector]
    densities: list[tuple[np.ndarray, ...]] | None
    diagnostics: dict

    def trajectory(self) -> ParticleTrajectory:
        return ParticleTrajectory(self.times, self.states)

    def masses(self) -> np.ndarray:
        return np.array([s.masses() for s in self.states])

    def final(self) -> MeasureVector:
        return self.states[-1]


def solve_direct(scenario: Scenario) -> SolutionRecord:
    """Self-consistent Lagrangian integration over the full horizon."""
    steps, _ = _uniform_steps(0.0, scenario.horizon, scenario.step.dt)
    return solve_frozen(
        scenario.model, scenario.initial, None, 0.0, scenario.horizon, steps,
        scenario.step.courant, scenario.density_values(), scenario.h_fd,
    )


def solve_frozen(
    model: VelocityModel,
    initial: MeasureVector,
    frozen_r: ParticleTrajectory | None,
    t0: float,
    t1: float,
    steps: int,
    courant: float = 0.1,
    density_values: Sequence[np.ndarray] | None = None,
    h_fd: float = 1e-4,
) -> SolutionRecord:
    """Transport of ``initial`` over [t0, t1] in ``steps`` RK4 steps.

    The convolution source is ``frozen_r`` (the linear problem behind the
    map r -> rho), or the solution itself when ``frozen_r`` is None.  Given
    ``density_values`` (rho_0 at each particle), the record carries the
    transported densities.
    """
    times, flow = integrate(model, frozen_r, FlowState(t0, initial), t1, steps, courant)
    densities = None
    if density_values is not None:
        dt = (t1 - t0) / steps
        densities = transported_densities(model, frozen_r, flow, dt, density_values, h_fd)
    mode = "direct" if frozen_r is None else "frozen"
    return SolutionRecord(times, [s.rho for s in flow], densities, {"mode": mode})


def window_length(scenario: Scenario) -> float:
    """Largest window with C * T * exp(C * T) <= sigma, capped by the horizon.

    Found by bisection to 1e-12; the full horizon is covered by chaining
    such windows.
    """
    c = scenario.constants().C
    if c == 0.0:
        return scenario.horizon
    sigma = scenario.picard.sigma

    def f(tw: float) -> float:
        return c * tw * math.exp(c * tw) - sigma

    hi = 1.0
    while f(hi) < 0:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return min(0.5 * (lo + hi), scenario.horizon)


def picard_window(
    scenario: Scenario,
    t0: float,
    t1: float,
    rho0: MeasureVector,
    model: VelocityModel | None = None,
    steps: int | None = None,
) -> tuple[ParticleTrajectory, list[float]]:
    """Iterate the frozen-source map to its fixed point on one window.

    Returns the converged trajectory and the sequence of sup-in-time W1
    distances between successive iterates.
    """
    model = model or scenario.model
    if steps is None:
        steps, _ = _uniform_steps(t0, t1, scenario.step.dt)
    r_prev = ParticleTrajectory.frozen(t0, t1, rho0)
    distances: list[float] = []
    for _ in range(scenario.picard.max_iter):
        rec = solve_frozen(model, rho0, r_prev, t0, t1, steps, scenario.step.courant)
        pairs = zip(rec.states[1:], map(r_prev.at, rec.times[1:]))
        dist = float(w1_series(pairs).max())
        distances.append(dist)
        r_prev = rec.trajectory()
        if dist < scenario.picard.tol:
            return r_prev, distances
    raise PicardConvergenceError(distances)


def solve_picard(scenario: Scenario) -> SolutionRecord:
    """Chain contraction windows over [0, T].

    Species are rescaled to probability around the solve (kernels are
    compensated so the dynamics are unchanged); window lengths use the
    constants computed from the original masses.
    """
    rescaled, scales = rescale_to_probability(scenario.initial)
    k = scenario.model.k
    rows = tuple(
        tuple(
            scale_kernel(scenario.model.kernels.entries[i][j], scales[j])
            for j in range(k)
        )
        for i in range(k)
    )
    scaled_model = VelocityModel(
        scenario.model.fields,
        KernelMatrix(rows),
        scenario.model.dirac_species,
    )
    window = window_length(scenario)
    # snap windows onto the uniform step grid so picard and direct solves
    # share snapshot times exactly
    total_steps, dtu = _uniform_steps(0.0, scenario.horizon, scenario.step.dt)
    window_steps = max(1, int(math.floor(window / dtu + 1e-12)))
    times_all = [0.0]
    states_all = [scenario.initial]
    per_window_distances: list[list[float]] = []
    window_edges = [0.0]
    rho = rescaled
    step0 = 0
    while step0 < total_steps:
        steps = min(window_steps, total_steps - step0)
        t0 = step0 * dtu
        t1 = (step0 + steps) * dtu
        traj, dists = picard_window(
            scenario, t0, t1, rho, model=scaled_model, steps=steps
        )
        per_window_distances.append(dists)
        window_edges.append(t1)
        for tj, sj in zip(traj.times[1:], traj.states[1:]):
            times_all.append(float(tj))
            # restore the original species weights (shared arrays)
            states_all.append(scenario.initial.with_positions(sj.positions()))
        rho = traj.states[-1]
        step0 += steps

    densities = None
    if scenario.track_density:
        # one tracked pass along the converged trajectory per the frozen map
        frozen = ParticleTrajectory(
            np.asarray(times_all),
            [rescaled.with_positions(s.positions()) for s in states_all],
        )
        densities = solve_frozen(
            scaled_model, rescaled, frozen, 0.0, float(times_all[-1]), len(times_all) - 1,
            scenario.step.courant, scenario.density_values(), scenario.h_fd,
        ).densities
    return SolutionRecord(
        np.asarray(times_all),
        states_all,
        densities,
        {
            "mode": "picard",
            "window_edges": window_edges,
            "picard_distances": per_window_distances,
        },
    )


def solve(scenario: Scenario) -> SolutionRecord:
    """Solve in the scenario's mode; a non-finite state is reported with its fingerprint."""
    try:
        return solve_picard(scenario) if scenario.mode == "picard" else solve_direct(scenario)
    except NonFiniteStateError as exc:
        fp = json.dumps(scenario.fingerprint(), sort_keys=True)
        raise NonFiniteStateError(f"{exc} in {fp}") from exc


# ---------------------------------------------------------------------------
# weak-form residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported test function with its derivatives.

    All three callables act on (t, points (M, d)) and return (M,) or (M, d).
    """

    value: callable
    dt_value: callable
    grad: callable


def polynomial_bump_test(
    center: Sequence[float],
    radius: float,
    t_end: float,
    space_power: int = 4,
    time_power: int = 3,
) -> TestFunction:
    """phi(t, x) = (1 - t/t_end)^q * (1 - |x - c|^2 / R^2)_+^p."""
    c = np.asarray(center, dtype=np.float64)
    p, q = space_power, time_power

    def psi(x):
        u = np.sum((np.atleast_2d(x) - c) ** 2, axis=1) / radius**2
        return np.maximum(0.0, 1.0 - u) ** p

    def psi_grad(x):
        x2 = np.atleast_2d(x)
        u = np.sum((x2 - c) ** 2, axis=1) / radius**2
        core = np.maximum(0.0, 1.0 - u) ** (p - 1)
        return (-2.0 * p / radius**2) * core[:, None] * (x2 - c)

    def w(t):
        return (1.0 - t / t_end) ** q

    def w_prime(t):
        return -q / t_end * (1.0 - t / t_end) ** (q - 1)

    return TestFunction(
        value=lambda t, x: w(t) * psi(x),
        dt_value=lambda t, x: w_prime(t) * psi(x),
        grad=lambda t, x: w(t) * psi_grad(x),
    )


def weak_form_residual(
    record: SolutionRecord, model: VelocityModel, phi: TestFunction
) -> float:
    """Discrete residual of the weak formulation, max over species.

    Spatial integrals are exact sums over particles; the time integral uses
    the trapezoid rule over the stored snapshots.  The terminal term
    - integral of phi(T) d rho_T is included so that test functions that do
    not vanish at T may be probed; it is identically zero for admissible
    ones.  The residual shrinks at O(dt^2) under step refinement.
    """
    times = record.times
    worst = 0.0
    t_end = float(times[-1])
    for i in range(record.states[0].k):
        integrand = np.empty(times.size)
        for j, (tj, state) in enumerate(zip(times, record.states)):
            mu = state.species[i]
            if len(mu) == 0:
                integrand[j] = 0.0
                continue
            vel = velocity_batch(model, state, i, float(tj), mu.positions)
            advect = np.sum(vel * phi.grad(float(tj), mu.positions), axis=1)
            integrand[j] = float(
                np.dot(mu.weights, phi.dt_value(float(tj), mu.positions) + advect)
            )
        total = float(np.trapezoid(integrand, times))
        mu0 = record.states[0].species[i]
        muT = record.states[-1].species[i]
        total += float(np.dot(mu0.weights, phi.value(0.0, mu0.positions)))
        total -= float(np.dot(muT.weights, phi.value(t_end, muT.positions)))
        worst = max(worst, abs(total))
    return worst
