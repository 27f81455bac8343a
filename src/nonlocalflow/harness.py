"""Numerical certification of the stability estimates.

Each check compares a measured left-hand side against the closed-form
right-hand side built from certified metadata, with a declared slack
factor.  Sampling only under-estimates sup norms and the transport
distances are exact, so a failing report is a genuine violation beyond the
slack and names its scenario fingerprint for replay.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .flow import ParticleTrajectory, _uniform_steps
from .kernels import sample_box
from .measures import MeasureVector
from .solver import (
    Scenario,
    SolutionRecord,
    StabilityConstants,
    solve_direct,
    solve_frozen,
)
from .velocity import VelocityModel, _l1_ball_samples, velocity_batch
from .wasserstein import w1_series, w1_vector


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    fingerprint: dict

    @classmethod
    def make(cls, name: str, lhs: float, rhs: float, slack: float, fingerprint: dict):
        """A report that passes when lhs <= rhs * slack and both sides are finite."""
        lhs, rhs = float(lhs), float(rhs)
        passed = math.isfinite(lhs) and math.isfinite(rhs) and lhs <= rhs * slack
        return cls(name, lhs, rhs, float(slack), passed, fingerprint)


def worker_count() -> int:
    env = os.environ.get("NONLOCAL_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _ensemble_box(vectors: Sequence[MeasureVector], inflate: float) -> tuple[np.ndarray, np.ndarray]:
    pts = np.vstack([m.positions for v in vectors for m in v.species if len(m)])
    return pts.min(axis=0) - inflate, pts.max(axis=0) + inflate


def check_lemma_stability(
    model: VelocityModel,
    r: MeasureVector,
    s: MeasureVector,
    samples: int = 400,
    times: Sequence[float] = (0.0,),
    seed: int = 0,
    fingerprint: dict | None = None,
) -> BoundReport:
    """Velocity gap under a change of convolution source vs Lip_r * Lip(eta) * W1.

    The bound is exact, so slack is 1.0; sampling can only under-estimate
    the left-hand side.
    """
    lo, hi = _ensemble_box([r, s], inflate=1.0)
    xs = sample_box(lo, hi, samples, seed)
    lhs = 0.0
    for t in times:
        for i in range(model.k):
            vr = velocity_batch(model, r, i, t, xs)
            vs = velocity_batch(model, s, i, t, xs)
            lhs = max(lhs, float(np.linalg.norm(vr - vs, axis=1).max()))
    rhs = model.lip_r * model.kernels.lip_x * w1_vector(r, s)
    fp = {"samples": samples, "seed": seed, **(fingerprint or {})}
    return BoundReport.make("lemma-velocity-stability", lhs, rhs, 1.0, fp)


def perturbed_initial(
    rho: MeasureVector, eps: float, seed: int
) -> MeasureVector:
    """Jitter positions with a seeded normal displacement; weights unchanged."""
    rng = np.random.default_rng(seed)
    moved = [
        p + rng.normal(scale=eps, size=p.shape) for p in rho.positions()
    ]
    return rho.with_positions(moved)


def _untracked(scenario: Scenario, initial: MeasureVector) -> Scenario:
    return replace(scenario, initial=initial, track_density=False, initial_densities=None)


def check_stability_initial(
    scenario: Scenario,
    base: SolutionRecord,
    sigma0: MeasureVector,
    slack: float = 1.05,
    fingerprint: dict | None = None,
    K: float | None = None,
) -> BoundReport:
    """W1(rho_t, sigma_t) <= exp(K t) W1(rho_0, sigma_0) with K = 2C.

    ``base`` is the direct solve from rho_0 = ``base.states[0]``; it can be
    shared by every perturbation of that datum.  ``K`` replaces the certified
    growth rate when given.  Identical initial data degenerates to the
    noise-floor check (distances stay below 1e-9).
    """
    rho0 = base.states[0]
    if K is None:
        K = StabilityConstants.of(scenario.model, rho0.total_measure()).K
    rec_b = solve_direct(_untracked(scenario, sigma0))
    d0 = w1_vector(rho0, sigma0)
    fp = {**scenario.fingerprint(), **(fingerprint or {})}
    dists = w1_series(zip(base.states[1:], rec_b.states[1:]))
    if d0 == 0.0:
        lhs = float(dists.max()) if dists.size else 0.0
        return BoundReport.make("stability-identical-data", lhs, 1e-9, 1.0, fp)
    growth = np.exp(K * base.times[1:])
    ratio = float((dists / (growth * d0)).max()) if dists.size else 0.0
    return BoundReport.make("stability-initial-data", ratio, 1.0, slack, fp)


@dataclass(frozen=True)
class FrozenProblem:
    """One decoupled problem: a model plus the frozen convolution source."""

    model: VelocityModel
    source: ParticleTrajectory


# Dirac position blocks sampled per velocity-gap estimate
_DIRAC_BLOCKS = 4


def _sup_velocity_gap(
    a: VelocityModel,
    b: VelocityModel,
    lo: np.ndarray,
    hi: np.ndarray,
    r_radius: float,
    samples: int,
    seed: int,
    times: Sequence[float],
) -> float:
    xs = sample_box(lo, hi, samples, seed)
    rs = _l1_ball_samples(a.k, r_radius, samples, seed + 7)
    # fields of single-particle species also range over the Dirac positions
    dirac_args = [
        (sample_box(lo, hi, len(a.dirac_species), seed + 21 + j),) for j in range(_DIRAC_BLOCKS)
    ]
    worst = 0.0
    for t in times:
        for fa, fb in zip(a.fields, b.fields):
            for extra in dirac_args if fa.needs_dirac_positions else [()]:
                va = fa.evaluate(t, xs, rs, *extra)
                vb = fb.evaluate(t, xs, rs, *extra)
                worst = max(worst, float(np.linalg.norm(va - vb, axis=1).max()))
    return worst


def _sup_kernel_gap(
    a: VelocityModel,
    b: VelocityModel,
    lo: np.ndarray,
    hi: np.ndarray,
    samples: int,
    seed: int,
    times: Sequence[float],
) -> float:
    span = hi - lo
    radius = 0.5 * float(np.linalg.norm(span))
    xs = sample_box(-radius * np.ones(a.dim), radius * np.ones(a.dim), samples, seed)
    xs = np.vstack([xs, np.zeros((1, a.dim))])
    worst = 0.0
    for t in times:
        for i in range(a.k):
            for j in range(a.k):
                va = a.kernels.entries[i][j].evaluate(t, xs)
                vb = b.kernels.entries[i][j].evaluate(t, xs)
                worst = max(worst, float(np.abs(va - vb).max()))
    return worst


def check_stability_general(
    problem_a: FrozenProblem,
    problem_b: FrozenProblem,
    rho0: MeasureVector,
    sigma0: MeasureVector,
    horizon: float,
    dt: float,
    slack: float = 1.05,
    samples: int = 10_000,
    seed: int = 0,
    courant: float = 0.1,
    fingerprint: dict | None = None,
) -> BoundReport:
    """Full perturbation estimate on the frozen-coefficient problems.

    lhs(t) = W1(rho_t, sigma_t);
    rhs(t) = e^{Ct} W1(rho_0, sigma_0)
             + C t e^{Ct} [sup_t W1(r_t, s_t) + sup|eta - nu| + sup|V - U|].
    C = Lip_x(V) + Lip_r(V) Lip_x(eta) max(masses); reported as the max over
    snapshots of lhs/rhs against 1.0 at the given slack.
    """
    model_a, model_b = problem_a.model, problem_b.model
    mass = max(rho0.total_measure(), sigma0.total_measure())
    c = model_a.lip_x + model_a.lip_r * model_a.kernels.lip_x * mass
    steps, _ = _uniform_steps(0.0, horizon, dt)
    rec_a = solve_frozen(model_a, rho0, problem_a.source, 0.0, horizon, steps, courant)
    rec_b = solve_frozen(model_b, sigma0, problem_b.source, 0.0, horizon, steps, courant)
    sup_rs = float(
        w1_series((problem_a.source.at(t), problem_b.source.at(t)) for t in rec_a.times).max()
    )
    lo, hi = _ensemble_box([rho0, sigma0], inflate=model_a.sup_bound * horizon + 1.0)
    r_radius = mass * max(model_a.kernels.sup_bound, model_b.kernels.sup_bound)
    gap_v = _sup_velocity_gap(model_a, model_b, lo, hi, r_radius, samples, seed, (0.0,))
    gap_k = _sup_kernel_gap(model_a, model_b, lo, hi, samples, seed + 3, (0.0,))
    d0 = w1_vector(rho0, sigma0)
    worst = 0.0
    lhs = w1_series(zip(rec_a.states[1:], rec_b.states[1:]))
    for t, lhs_t in zip(rec_a.times[1:], lhs.tolist()):
        rhs_t = np.exp(c * t) * d0 + c * t * np.exp(c * t) * (sup_rs + gap_k + gap_v)
        if rhs_t > 0:
            worst = max(worst, lhs_t / rhs_t)
        elif lhs_t > 0:
            worst = np.inf
    fp = {
        "T": horizon,
        "dt": dt,
        "seed": seed,
        "sup_rs": sup_rs,
        "gap_kernel": gap_k,
        "gap_velocity": gap_v,
        **(fingerprint or {}),
    }
    return BoundReport.make("stability-general", worst, 1.0, slack, fp)


def check_linfty_growth(
    scenario: Scenario,
    slack: float = 1.05,
    fingerprint: dict | None = None,
    record: SolutionRecord | None = None,
) -> BoundReport:
    """Transported density max vs sup-norm growth exp(C t).

    ``record`` is the tracked direct solve of ``scenario`` when the caller
    already holds it; otherwise the scenario is solved here.
    """
    if not scenario.track_density:
        raise ValueError("scenario must track densities")
    if record is None:
        record = solve_direct(scenario)
    consts = scenario.constants()
    sup0 = max(
        dens.max_value() for dens in scenario.initial_densities if dens is not None
    )
    worst = 0.0
    for t, dens in zip(record.times, record.densities):
        lhs_t = max(float(v.max()) if v.size else 0.0 for v in dens)
        rhs_t = sup0 * np.exp(consts.C * t)
        worst = max(worst, lhs_t / rhs_t)
    fp = {
        "scenario": scenario.name,
        "T": scenario.horizon,
        "dt": scenario.step.dt,
        "seed": scenario.seed,
        **(fingerprint or {}),
    }
    return BoundReport.make("linfty-growth", worst, 1.0, slack, fp)


def stability_battery(
    scenario: Scenario,
    pairs: int,
    eps: float = 0.05,
    seed0: int = 0,
    slack: float = 1.05,
    K: float | None = None,
    base: SolutionRecord | None = None,
) -> list[BoundReport]:
    """Seeded perturbation pairs through check_stability_initial.

    The unperturbed datum is solved once (or ``base``, a direct solve of the
    scenario, is used) and shared by every pair.  A given ``K`` is passed on
    and recorded in each fingerprint as ``k_override``.  Runs pairs
    concurrently; NONLOCAL_THREADS caps the worker count.
    """
    if base is None:
        base = solve_direct(_untracked(scenario, scenario.initial))
    extra = {} if K is None else {"k_override": K}

    def one(seed: int) -> BoundReport:
        sigma0 = perturbed_initial(scenario.initial, eps, seed)
        return check_stability_initial(
            scenario, base, sigma0, slack, fingerprint={"pair_seed": seed, **extra}, K=K
        )

    seeds = [seed0 + i for i in range(pairs)]
    workers = min(worker_count(), pairs)
    if workers <= 1:
        return [one(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, seeds))


def refinement_study(
    scenario_factory: Callable[[int], Scenario],
    n_list: Sequence[int],
    dt_list: Sequence[float],
    reference: Callable[[float], np.ndarray] | None = None,
) -> list[dict]:
    """Particle- and step-refinement table.

    For consecutive N the W1 between terminal states must decrease; for
    consecutive dt the terminal trajectory error (against the closed-form
    reference if given, else a finer solve) shrinks at RK4 order.
    """
    rows: list[dict] = []
    finals = []
    for n in n_list:
        rec = solve_direct(scenario_factory(n))
        finals.append(rec.final())
    for (na, a), (nb, b) in zip(zip(n_list, finals), zip(n_list[1:], finals[1:])):
        rows.append(
            {"kind": "N", "coarse": na, "fine": nb, "w1": w1_vector(a, b)}
        )

    if not dt_list:
        return rows
    base = scenario_factory(n_list[-1] if n_list else 0)
    errors = []
    if reference is None:
        fine = solve_direct(replace(base, step=replace(base.step, dt=min(dt_list) / 4)))
        target = np.vstack(fine.final().positions())
    for dt in dt_list:
        rec = solve_direct(replace(base, step=replace(base.step, dt=dt)))
        got = np.vstack(rec.final().positions())
        if reference is not None:
            target = np.atleast_2d(reference(float(rec.times[-1])))
        err = float(np.linalg.norm(got - target, axis=1).max())
        errors.append(err)
        rows.append({"kind": "dt", "dt": dt, "error": err})
    for i in range(1, len(dt_list)):
        if errors[i] > 0:
            rows.append(
                {
                    "kind": "dt-ratio",
                    "coarse": dt_list[i - 1],
                    "fine": dt_list[i],
                    "ratio": errors[i - 1] / errors[i],
                }
            )
    return rows
