"""Two solution strategies for the nonlocal system.

``solve_direct`` integrates the coupled particle ODE self-consistently with
RK4.  ``solve_picard`` freezes the convolution source, solves the resulting
linear transport problem with ``flow.integrate``, and iterates the map
r -> rho to its fixed point; the horizon is covered by chaining time windows
short enough that the map contracts with factor C*T*exp(C*T) <= PICARD_SIGMA.
Both move particles only; ``solve`` adds tracked densities to either record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .flow import (
    NonFiniteStateError,
    SolutionRecord,
    StepControl,
    StepControlError,
    integrate,
    transported_densities,
)
from .measures import GridDensity, MeasureVector, require_positive
from .velocity import VelocityModel, lipschitz_bound_b, require_in_domain, velocity_batch
from .wasserstein import coupling_cost

# the contraction factor C*T*exp(C*T) that a Picard window may reach
PICARD_SIGMA = 0.5


# W(PICARD_SIGMA), the root of w * exp(w) = PICARD_SIGMA on the principal
# branch of the Lambert W function (Corless, Gonnet, Hare, Jeffrey & Knuth
# 1996): C * T * exp(C * T) <= PICARD_SIGMA holds exactly when C * T <= it
_PICARD_CT = 0.35173371124919584

# a seed is an integer from 0 to SEED_LIMIT - 1; it picks Halton indices near
# seed * N, which float64 counts exactly
SEED_LIMIT = 2**32


@dataclass(frozen=True)
class PicardParams:
    tol: float = 1e-9
    max_iter: int = 60

    def __post_init__(self):
        require_positive("picard.tol", self.tol)
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ValueError(f"picard.max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class Scenario:
    """A Cauchy problem plus everything needed to run and check it."""

    name: str
    model: VelocityModel
    initial: MeasureVector
    horizon: float
    step: StepControl
    mode: str = "direct"
    picard: PicardParams = field(default_factory=PicardParams)
    # rho_0 per species; densities are tracked exactly when these are given
    initial_densities: tuple[GridDensity | None, ...] | None = None
    seed: int = 0
    # the solver's grid: the fewest uniform steps of at most step.dt (up to rounding)
    # that cover the horizon, and their length dt, the solver's step, not step.dt
    steps: int = field(init=False)
    dt: float = field(init=False)

    def __post_init__(self):
        require_positive("horizon", self.horizon)
        if not (isinstance(self.seed, int) and 0 <= self.seed < SEED_LIMIT):
            raise ValueError(f"seed must be an integer from 0 to 2^32 - 1, got {self.seed!r}")
        if self.mode not in ("direct", "picard"):
            raise ValueError("mode must be 'direct' or 'picard'")
        if (self.model.k, self.model.dim) != (self.initial.k, self.initial.dim):
            raise ValueError(
                f"model moves {self.model.k} species in dimension {self.model.dim}, "
                f"initial data has {self.initial.k} in dimension {self.initial.dim}"
            )
        dens = self.initial_densities
        if dens is not None and (len(dens) != self.initial.k
                                 or any(d is not None and d.dim != self.initial.dim for d in dens)):
            raise ValueError(
                f"initial_densities has {len(dens)} entries for {self.initial.k} species; "
                f"each must be None or of dimension {self.initial.dim}"
            )
        count = self.horizon / self.step.dt
        if not math.isfinite(count):
            raise StepControlError(f"horizon {self.horizon!r} over dt {self.step.dt!r} overflows the step count")
        object.__setattr__(self, "steps", max(1, math.ceil(count - 1e-12)))
        object.__setattr__(self, "dt", self.horizon / self.steps)
        try:
            c = self.lipschitz_b()
            StepControl(self.dt).check(c)
        except StepControlError:
            raise StepControlError(
                f"dt {self.step.dt!r} gives a step of {self.dt!r}, and step*C with C = {c!r} exceeds "
                f"courant {StepControl.courant}; the largest allowed step is {StepControl.courant / c!r}"
            ) from None
        except ValueError as exc:  # C is not finite, so no step is small enough
            raise StepControlError(str(exc)) from None

    def fingerprint(self) -> dict:
        """What a report or an error names to replay this scenario."""
        n = sum(len(m) for m in self.initial.species)
        return {"scenario": self.name, "seed": self.seed, "dt": self.step.dt, "T": self.horizon, "N": n}

    def lipschitz_b(self) -> float:
        """C, the Lipschitz bound of the effective field at the initial mass."""
        return lipschitz_bound_b(self.model, self.initial.total_measure())


class PicardConvergenceError(RuntimeError):
    """Fixed-point iteration hit max_iter; carries the distance sequence."""

    def __init__(self, distances: list[float]):
        super().__init__(
            f"picard iteration did not converge; distances {distances}"
        )
        self.distances = distances


def solve_direct(scenario: Scenario) -> SolutionRecord:
    """Self-consistent Lagrangian integration over the full horizon; the
    record holds particles only (:func:`solve` adds tracked densities)."""
    return integrate(scenario.model, None, scenario.initial, 0.0, scenario.horizon, scenario.steps)


def window_length(scenario: Scenario) -> float:
    """Largest window with C * T * exp(C * T) <= PICARD_SIGMA, capped by the horizon.

    That is T = W(PICARD_SIGMA) / C, with W the Lambert W function, or the
    horizon when it is shorter or C = 0; a root rounded above the bound steps
    back float by float.  The full horizon is covered by chaining such windows.
    """
    c = scenario.lipschitz_b()
    if c == 0:
        return scenario.horizon
    tw = min(scenario.horizon, _PICARD_CT / c)
    while c * tw * math.exp(c * tw) > PICARD_SIGMA:
        tw = math.nextafter(tw, 0.0)
    return tw


def picard_window(
    scenario: Scenario,
    t0: float,
    t1: float,
    rho0: MeasureVector,
    steps: int,
) -> tuple[SolutionRecord, list[float]]:
    """Iterate the frozen-source map of ``scenario.model`` to its fixed point
    on one window of ``steps`` uniform steps.

    Every iterate pushes the same particles of ``rho0``, so pairing each
    particle with itself couples two successive iterates.  They are compared
    by the cost of that coupling, an upper bound on their W1: each species'
    cost divided by its mass in ``rho0``, summed over species, sup over the
    window's snapshots; iteration stops once it is below ``picard.tol``.
    Returns the converged record and that distance sequence.
    """
    r_prev = SolutionRecord([t0, t1], [rho0, rho0])
    masses = rho0.masses()
    distances: list[float] = []
    for _ in range(scenario.picard.max_iter):
        rec = integrate(scenario.model, r_prev, rho0, t0, t1, steps)
        dist = float(max(
            sum(
                coupling_cost(a.weights, a.positions, b.positions) / mass
                for a, b, mass in zip(state.species, r_prev.at(t).species, masses)
            )
            for t, state in zip(rec.times[1:], rec.states[1:])
        ))
        distances.append(dist)
        r_prev = rec
        if dist < scenario.picard.tol:
            return r_prev, distances
    raise PicardConvergenceError(distances)


def solve_picard(scenario: Scenario) -> SolutionRecord:
    """Chain contraction windows over [0, T].

    Windows are snapped onto the uniform step grid, so picard and direct
    solves share snapshot times.  The record holds particles only
    (:func:`solve` adds tracked densities).
    """
    # C * dt <= courant = 0.1 < W(PICARD_SIGMA): every window but the last holds three steps or more
    window_steps = int(math.floor(window_length(scenario) / scenario.dt + 1e-12))
    times_all = [0.0]
    states_all = [scenario.initial]
    per_window_distances: list[list[float]] = []
    window_edges = [0.0]
    step0 = 0
    while step0 < scenario.steps:
        steps = min(window_steps, scenario.steps - step0)
        t0 = step0 * scenario.dt
        t1 = (step0 + steps) * scenario.dt
        rec, dists = picard_window(scenario, t0, t1, states_all[-1], steps=steps)
        per_window_distances.append(dists)
        window_edges.append(t1)
        times_all.extend(float(t) for t in rec.times[1:])
        states_all.extend(rec.states[1:])
        step0 += steps

    return SolutionRecord(
        times_all,
        states_all,
        diagnostics={
            "window_edges": window_edges,
            "picard_distances": per_window_distances,
        },
    )


def solve(scenario: Scenario) -> SolutionRecord:
    """Solve in the scenario's mode and attach the tracked densities, if any,
    transported from rho_0 at the initial particles; a non-finite state or
    density integral is reported with its fingerprint.  A snapshot with a
    particle outside its field's domain raises :class:`AuditError`."""
    try:
        record = solve_picard(scenario) if scenario.mode == "picard" else solve_direct(scenario)
        for t, state in zip(record.times, record.states):
            require_in_domain(scenario.model, state, float(t))
        if scenario.initial_densities is not None:
            rho0 = [np.zeros(len(mu)) if dens is None else dens.value_at(mu.positions)
                    for mu, dens in zip(scenario.initial.species, scenario.initial_densities)]
            record.densities = transported_densities(scenario.model, record, scenario.dt, rho0)
        return record
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
