"""Numerical certification of the stability estimates.

Each check compares a measured left-hand side against the closed-form
right-hand side built from certified metadata, with a slack factor fixed
below: a scenario file picks which checks run, not how loosely they pass.
Sampling only under-estimates sup norms and the transport distances are
exact, so a failing report is a genuine violation beyond the slack and
names its scenario fingerprint for replay.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Sequence

import numpy as np

from .flow import SolutionRecord, flow_map_lipschitz_probe, integrate
from .kernels import add_kernels, sample_box, sample_normal, scale_kernel
from .measures import MeasureVector
from .solver import Scenario, solve_direct
from .velocity import VelocityModel, _l1_ball_samples, lipschitz_bound_b, velocity_batch
from .wasserstein import PairCapError, w1_series, w1_vector

# The gates: a report passes when lhs <= rhs * slack.
STABILITY_SLACK = 1.05  # stability-initial, stability-general and linfty-growth
FLOW_LIPSCHITZ_SLACK = 1.01
# the scale of the normal jitter (Box-Muller on Halton points, one index
# range per seed and species) that perturbs a stability pair or the lemma
PERTURBATION = 0.05
# quasi-random sample counts: the lemma's points (seed 0) for its velocity
# gap, and the general check's points for sup|V - U|
LEMMA_SAMPLES = 400
GENERAL_SAMPLES = 10_000


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


def check_mass_conservation(scenario: Scenario, record: SolutionRecord) -> BoundReport:
    """The largest drift of the total mass from its initial value; exact
    conservation is the bound."""
    masses = record.masses()
    drift = float(np.abs(masses - masses[0]).max())
    return BoundReport.make("mass-conservation", drift, 0.0, 1.0, scenario.fingerprint())


def check_flow_lipschitz(scenario: Scenario, record: SolutionRecord) -> BoundReport:
    """The largest stretch of any species' flow with ``record`` as frozen
    source against exp(C T)."""
    ratio = flow_map_lipschitz_probe(scenario.model, record, seed=scenario.seed)
    bound = math.exp(scenario.lipschitz_b() * scenario.horizon)
    return BoundReport.make("flow-map-lipschitz", ratio, bound, FLOW_LIPSCHITZ_SLACK, scenario.fingerprint())


def _ensemble_box(vectors: Sequence[MeasureVector], inflate: float) -> tuple[np.ndarray, np.ndarray]:
    pts = np.vstack([m.positions for v in vectors for m in v.species])
    return pts.min(axis=0) - inflate, pts.max(axis=0) + inflate


def check_lemma_stability(
    model: VelocityModel,
    r: MeasureVector,
    s: MeasureVector,
    fingerprint: dict | None = None,
) -> BoundReport:
    """Velocity gap under a change of convolution source vs Lip_r * Lip(eta) * W1,
    sampled at :data:`LEMMA_SAMPLES` points at t = 0.

    The bound is exact, so slack is 1.0; sampling can only under-estimate
    the left-hand side.
    """
    lo, hi = _ensemble_box([r, s], inflate=1.0)
    xs = sample_box(lo, hi, LEMMA_SAMPLES, 0)
    lhs = 0.0
    for i in range(model.k):
        vr = velocity_batch(model, r, i, 0.0, xs)
        vs = velocity_batch(model, s, i, 0.0, xs)
        lhs = max(lhs, float(np.linalg.norm(vr - vs, axis=1).max()))
    rhs = model.lip_r * model.kernels.lip_x * w1_vector(r, s)
    fp = {"samples": LEMMA_SAMPLES, "seed": 0, **(fingerprint or {})}
    return BoundReport.make("lemma-velocity-stability", lhs, rhs, 1.0, fp)


def check_lemma_perturbed(scenario: Scenario, record: SolutionRecord) -> BoundReport:
    """The lemma between the scenario's datum and its perturbation by
    :data:`PERTURBATION` with the scenario's seed.  ``record`` is not read:
    the lemma holds at t = 0."""
    sigma0 = perturbed_initial(scenario.initial, PERTURBATION, scenario.seed)
    try:
        return check_lemma_stability(scenario.model, scenario.initial, sigma0, fingerprint=scenario.fingerprint())
    except PairCapError as exc:
        fp = {**scenario.fingerprint(), "error": str(exc)}
        return BoundReport.make("lemma-stability", math.nan, math.nan, 1.0, fp)


def perturbed_initial(rho: MeasureVector, scale: float, seed: int) -> MeasureVector:
    """Jitter positions by ``scale`` times :func:`sample_normal`; weights
    unchanged.  With N particles in all, species i reads the Halton indices
    after seed * N plus the particles of species 0 .. i-1, so no two seeds
    and no two species share a draw."""
    sizes = [len(m) for m in rho.species]
    starts = accumulate(sizes[:-1], initial=seed * sum(sizes))
    return rho.with_positions(
        [m.positions + scale * sample_normal(len(m), rho.dim, s) for m, s in zip(rho.species, starts)]
    )


def check_stability_initial(
    scenario: Scenario,
    base: SolutionRecord,
    sigma0: MeasureVector,
    fingerprint: dict | None = None,
    K: float | None = None,
) -> BoundReport:
    """W1(rho_t, sigma_t) <= exp(K t) W1(rho_0, sigma_0) with K = 2C.

    ``base`` is the direct solve from rho_0 = ``base.states[0]``; it can be
    shared by every perturbation of that datum.  ``K`` replaces the certified
    growth rate when given.  The fingerprint adds ``k_observed``, the max over
    t > 0 of log(W1_t / W1_0) / t, and ``horizon_ratio``, the ratio at the
    last snapshot.  Identical initial data degenerates to the noise-floor
    check (distances stay below 1e-9).
    """
    rho0 = base.states[0]
    if K is None:
        K = 2.0 * lipschitz_bound_b(scenario.model, rho0.total_measure())
    # d0 first: a pair above the pair cap fails before anything is solved
    d0 = w1_vector(rho0, sigma0)
    rec_b = solve_direct(replace(scenario, initial=sigma0))
    fp = {**scenario.fingerprint(), **(fingerprint or {})}
    dists = w1_series(zip(base.states[1:], rec_b.states[1:]))
    if d0 == 0.0:
        lhs = float(dists.max()) if dists.size else 0.0
        return BoundReport.make("stability-identical-data", lhs, 1e-9, 1.0, fp)
    times = base.times[1:]
    ratios = dists / (np.exp(K * times) * d0)
    with np.errstate(divide="ignore"):  # a distance of 0 has rate -inf
        k_observed = float((np.log(dists / d0) / times).max())
    fp = {**fp, "k_observed": k_observed, "horizon_ratio": float(ratios[-1])}
    return BoundReport.make("stability-initial-data", float(ratios.max()), 1.0, STABILITY_SLACK, fp)


def _sup_velocity_gap(
    a: VelocityModel,
    b: VelocityModel,
    lo: np.ndarray,
    hi: np.ndarray,
    r_radius: float,
    seed: int,
) -> float:
    """sup over sampled (x, r) at t = 0 of |V(0, x, r) - U(0, x, r)|."""
    xs = sample_box(lo, hi, GENERAL_SAMPLES, seed)
    rs = _l1_ball_samples(a.k, r_radius, GENERAL_SAMPLES, seed + 7)
    worst = 0.0
    for fa, fb in zip(a.fields, b.fields):
        va = fa.evaluate(0.0, xs, rs)
        vb = fb.evaluate(0.0, xs, rs)
        worst = max(worst, float(np.linalg.norm(va - vb, axis=1).max()))
    return worst


def check_stability_general(
    scenario: Scenario,
    source_a: SolutionRecord,
    model_b: VelocityModel,
    source_b: SolutionRecord,
    sigma0: MeasureVector,
    fingerprint: dict | None = None,
) -> BoundReport:
    """Full perturbation estimate on the frozen-coefficient problems on
    ``scenario``'s step grid: its model with frozen source ``source_a`` from
    its datum rho_0, against ``model_b`` with ``source_b`` from ``sigma0``.

    lhs(t) = W1(rho_t, sigma_t);
    rhs(t) = e^{Ct} W1(rho_0, sigma_0)
             + C t e^{Ct} [sup_t W1(r_t, s_t) + sup|eta - nu| + sup|V - U|].
    C = Lip_x(V) + Lip_r(V) Lip_x(eta) max(masses); reported as the max over
    snapshots of lhs/rhs against 1.0.  sup|V - U| is sampled at
    :data:`GENERAL_SAMPLES` points drawn with the scenario's seed; sup|eta - nu|
    is the derived sup bound of each entry's difference.
    """
    model_a, rho0, horizon, seed = scenario.model, scenario.initial, scenario.horizon, scenario.seed
    mass = max(rho0.total_measure(), sigma0.total_measure())
    c = lipschitz_bound_b(model_a, mass)
    rec_a = integrate(model_a, source_a, rho0, 0.0, horizon, scenario.steps)
    rec_b = integrate(model_b, source_b, sigma0, 0.0, horizon, scenario.steps)
    sup_rs = float(w1_series((source_a.at(t), source_b.at(t)) for t in rec_a.times).max())
    lo, hi = _ensemble_box([rho0, sigma0], inflate=model_a.sup_bound * horizon + 1.0)
    r_radius = mass * max(model_a.kernels.sup_bound, model_b.kernels.sup_bound)
    gap_v = _sup_velocity_gap(model_a, model_b, lo, hi, r_radius, seed)
    # sup over all x of |eta - nu|, entry by entry: a derived kernel bound
    entries = zip(sum(model_a.kernels.entries, ()), sum(model_b.kernels.entries, ()))
    gap_k = max(add_kernels(eta, scale_kernel(nu, -1.0)).sup_bound for eta, nu in entries)
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
        **scenario.fingerprint(),
        "sup_rs": sup_rs,
        "gap_kernel": gap_k,
        "gap_velocity": gap_v,
        **(fingerprint or {}),
    }
    return BoundReport.make("stability-general", worst, 1.0, STABILITY_SLACK, fp)


def check_linfty_growth(scenario: Scenario, record: SolutionRecord) -> BoundReport:
    """Transported density max vs sup-norm growth exp(C t), read from the
    densities of ``record``, a tracked :func:`solve` of ``scenario`` in either mode."""
    if scenario.initial_densities is None:
        raise ValueError("scenario must track densities")
    if record.densities is None:
        raise ValueError("the record carries no tracked densities; solve attaches them")
    c = scenario.lipschitz_b()
    sup0 = max(
        dens.max_value() for dens in scenario.initial_densities if dens is not None
    )
    worst = 0.0
    for t, dens in zip(record.times, record.densities):
        lhs_t = max(float(v.max()) for v in dens)
        rhs_t = sup0 * np.exp(c * t)
        worst = max(worst, lhs_t / rhs_t)
    return BoundReport.make("linfty-growth", worst, 1.0, STABILITY_SLACK, scenario.fingerprint())


def stability_battery(
    scenario: Scenario,
    pairs: int,
    base: SolutionRecord | None = None,
) -> list[BoundReport]:
    """``pairs`` perturbation pairs through check_stability_initial at the
    certified rate K = 2C, perturbed by :data:`PERTURBATION` with seeds
    ``scenario.seed``, ``scenario.seed + 1``, ...

    The unperturbed datum is solved once (or ``base``, a direct solve of the
    scenario, is used) and shared by every pair; each report's fingerprint
    names its ``pair_seed``.  Runs the pairs one after another.  A pair over
    the pair cap makes the whole battery one failing report that names the
    cap.
    """
    if base is None:
        base = solve_direct(scenario)

    def one(seed: int) -> BoundReport:
        sigma0 = perturbed_initial(scenario.initial, PERTURBATION, seed)
        return check_stability_initial(scenario, base, sigma0, fingerprint={"pair_seed": seed})

    seeds = [scenario.seed + i for i in range(pairs)]
    # One worker: the pairs' solves hold the GIL between small numpy calls,
    # so a second thread only contends for it.  perfbench/spans.py traces
    # the pairs by rebinding this module's ThreadPoolExecutor.
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            return list(pool.map(one, seeds))
    except PairCapError as exc:
        fp = {**scenario.fingerprint(), "error": str(exc)}
        return [BoundReport.make("stability-initial", math.nan, math.nan, STABILITY_SLACK, fp)]


# check type of a scenario file -> its reports on (scenario, the run's record,
# the check's settings); a direct run's record is the base solve the
# stability pairs share
CHECKS = {
    "mass-conservation": lambda scenario, record, cfg: [check_mass_conservation(scenario, record)],
    "stability-initial": lambda scenario, record, cfg: stability_battery(
        scenario, cfg["pairs"], record if scenario.mode == "direct" else None
    ),
    "linfty-growth": lambda scenario, record, cfg: [check_linfty_growth(scenario, record)],
    "lemma-stability": lambda scenario, record, cfg: [check_lemma_perturbed(scenario, record)],
    "flow-lipschitz": lambda scenario, record, cfg: [check_flow_lipschitz(scenario, record)],
}
