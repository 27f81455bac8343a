"""Numerical certification of the stability estimates.

Each check compares a measured left-hand side against the closed-form
right-hand side built from certified metadata, with a declared slack
factor.  Sampling only under-estimates sup norms and the transport
distances are exact, so a failing report is a genuine violation beyond the
slack and names its scenario fingerprint for replay.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .flow import SolutionRecord, _uniform_steps
from .kernels import sample_box
from .measures import MeasureVector
from .solver import Scenario, solve_direct, solve_frozen
from .velocity import VelocityModel, _l1_ball_samples, lipschitz_bound_b, velocity_batch
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


def _ensemble_box(vectors: Sequence[MeasureVector], inflate: float) -> tuple[np.ndarray, np.ndarray]:
    pts = np.vstack([m.positions for v in vectors for m in v.species if len(m)])
    return pts.min(axis=0) - inflate, pts.max(axis=0) + inflate


def check_lemma_stability(
    model: VelocityModel,
    r: MeasureVector,
    s: MeasureVector,
    samples: int = 400,
    seed: int = 0,
    fingerprint: dict | None = None,
) -> BoundReport:
    """Velocity gap under a change of convolution source vs Lip_r * Lip(eta) * W1,
    sampled at t = 0.

    The bound is exact, so slack is 1.0; sampling can only under-estimate
    the left-hand side.
    """
    lo, hi = _ensemble_box([r, s], inflate=1.0)
    xs = sample_box(lo, hi, samples, seed)
    lhs = 0.0
    for i in range(model.k):
        vr = velocity_batch(model, r, i, 0.0, xs)
        vs = velocity_batch(model, s, i, 0.0, xs)
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
        K = 2.0 * lipschitz_bound_b(scenario.model, rho0.total_measure())
    # d0 first: a pair above the pair cap fails before anything is solved
    d0 = w1_vector(rho0, sigma0)
    rec_b = solve_direct(replace(scenario, initial=sigma0, initial_densities=None))
    fp = {**scenario.fingerprint(), **(fingerprint or {})}
    dists = w1_series(zip(base.states[1:], rec_b.states[1:]))
    if d0 == 0.0:
        lhs = float(dists.max()) if dists.size else 0.0
        return BoundReport.make("stability-identical-data", lhs, 1e-9, 1.0, fp)
    growth = np.exp(K * base.times[1:])
    ratio = float((dists / (growth * d0)).max()) if dists.size else 0.0
    return BoundReport.make("stability-initial-data", ratio, 1.0, slack, fp)


def _sup_velocity_gap(
    a: VelocityModel,
    b: VelocityModel,
    lo: np.ndarray,
    hi: np.ndarray,
    r_radius: float,
    samples: int,
    seed: int,
) -> float:
    """sup over sampled (x, r) at t = 0 of |V(0, x, r) - U(0, x, r)|."""
    xs = sample_box(lo, hi, samples, seed)
    rs = _l1_ball_samples(a.k, r_radius, samples, seed + 7)
    worst = 0.0
    for fa, fb in zip(a.fields, b.fields):
        va = fa.evaluate(0.0, xs, rs)
        vb = fb.evaluate(0.0, xs, rs)
        worst = max(worst, float(np.linalg.norm(va - vb, axis=1).max()))
    return worst


def _sup_kernel_gap(
    a: VelocityModel,
    b: VelocityModel,
    lo: np.ndarray,
    hi: np.ndarray,
    samples: int,
    seed: int,
) -> float:
    """sup over sampled x at t = 0 of |eta(0, x) - nu(0, x)|, entry by entry."""
    span = hi - lo
    radius = 0.5 * float(np.linalg.norm(span))
    xs = sample_box(-radius * np.ones(a.dim), radius * np.ones(a.dim), samples, seed)
    xs = np.vstack([xs, np.zeros((1, a.dim))])
    worst = 0.0
    for i in range(a.k):
        for j in range(a.k):
            va = a.kernels.entries[i][j].evaluate(0.0, xs)
            vb = b.kernels.entries[i][j].evaluate(0.0, xs)
            worst = max(worst, float(np.abs(va - vb).max()))
    return worst


def check_stability_general(
    model_a: VelocityModel,
    source_a: SolutionRecord,
    model_b: VelocityModel,
    source_b: SolutionRecord,
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
    """Full perturbation estimate on the frozen-coefficient problems: model
    ``model_a`` with frozen source ``source_a`` from ``rho0``, against
    ``model_b`` with ``source_b`` from ``sigma0``.

    lhs(t) = W1(rho_t, sigma_t);
    rhs(t) = e^{Ct} W1(rho_0, sigma_0)
             + C t e^{Ct} [sup_t W1(r_t, s_t) + sup|eta - nu| + sup|V - U|].
    C = Lip_x(V) + Lip_r(V) Lip_x(eta) max(masses); reported as the max over
    snapshots of lhs/rhs against 1.0 at the given slack.
    """
    mass = max(rho0.total_measure(), sigma0.total_measure())
    c = lipschitz_bound_b(model_a, mass)
    steps, _ = _uniform_steps(0.0, horizon, dt)
    rec_a = solve_frozen(model_a, rho0, source_a, 0.0, horizon, steps, courant)
    rec_b = solve_frozen(model_b, sigma0, source_b, 0.0, horizon, steps, courant)
    sup_rs = float(w1_series((source_a.at(t), source_b.at(t)) for t in rec_a.times).max())
    lo, hi = _ensemble_box([rho0, sigma0], inflate=model_a.sup_bound * horizon + 1.0)
    r_radius = mass * max(model_a.kernels.sup_bound, model_b.kernels.sup_bound)
    gap_v = _sup_velocity_gap(model_a, model_b, lo, hi, r_radius, samples, seed)
    gap_k = _sup_kernel_gap(model_a, model_b, lo, hi, samples, seed + 3)
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
    record: SolutionRecord,
    slack: float = 1.05,
    fingerprint: dict | None = None,
) -> BoundReport:
    """Transported density max vs sup-norm growth exp(C t), read from the
    densities of ``record``, a tracked solve of ``scenario`` in either mode."""
    if scenario.initial_densities is None:
        raise ValueError("scenario must track densities")
    c = scenario.lipschitz_b()
    sup0 = max(
        dens.max_value() for dens in scenario.initial_densities if dens is not None
    )
    worst = 0.0
    for t, dens in zip(record.times, record.densities):
        lhs_t = max(float(v.max()) if v.size else 0.0 for v in dens)
        rhs_t = sup0 * np.exp(c * t)
        worst = max(worst, lhs_t / rhs_t)
    fp = {**scenario.fingerprint(), **(fingerprint or {})}
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
    and recorded in each fingerprint as ``k_override``.  Runs the pairs one
    after another.
    """
    if base is None:
        base = solve_direct(replace(scenario, initial_densities=None))
    extra = {} if K is None else {"k_override": K}

    def one(seed: int) -> BoundReport:
        sigma0 = perturbed_initial(scenario.initial, eps, seed)
        return check_stability_initial(
            scenario, base, sigma0, slack, fingerprint={"pair_seed": seed, **extra}, K=K
        )

    seeds = [seed0 + i for i in range(pairs)]
    # One worker: the pairs' solves hold the GIL between small numpy calls,
    # so a second thread only contends for it.  perfbench/spans.py traces
    # the pairs by rebinding this module's ThreadPoolExecutor.
    with ThreadPoolExecutor(max_workers=1) as pool:
        return list(pool.map(one, seeds))
