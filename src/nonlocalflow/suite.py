"""Acceptance battery: one runner per criterion, shared by the CLI and tests.

Every criterion measures against an independent oracle (LP solver, closed
forms, enumeration, brute-force references) or a certified bound at its
stated tolerance, and reports one pass/fail line.  The full battery runs in
minutes at desk scale.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.optimize import brentq, linprog

from .scenario import bundled_scenarios, load_raw, load_scenario, scenario_from_config
from .flow import StepControl
from .harness import FrozenProblem, check_stability_general, stability_battery
from .kernels import add_kernels, kernel_library
from .measures import MeasureVector, ParticleMeasure
from .solver import (
    PicardParams,
    Scenario,
    polynomial_bump_test,
    solve,
    solve_direct,
    solve_picard,
    weak_form_residual,
    window_length,
)
from .velocity import VelocityModel, sedimentation_field
from .wasserstein import w1_1d, w1_dual_lower_bound, w1_exact, w1_vector


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime: float


def _result(number: int, name: str, passed: bool, detail: str, t0: float) -> CriterionResult:
    return CriterionResult(number, name, bool(passed), detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def lp_transport_oracle(mu: ParticleMeasure, nu: ParticleMeasure) -> float:
    """Dense transportation LP solved by an off-the-shelf simplex (HiGHS)."""
    n, m = len(mu), len(nu)
    diff = mu.positions[:, None, :] - nu.positions[None, :, :]
    cost = np.sqrt((diff**2).sum(-1)).ravel()
    rows = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        rows.append(row.ravel())
    for j in range(m):
        row = np.zeros((n, m))
        row[:, j] = 1.0
        rows.append(row.ravel())
    res = linprog(
        cost,
        A_eq=np.asarray(rows),
        b_eq=np.concatenate([mu.weights, nu.weights]),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun)


def _random_pair(rng: np.random.Generator, max_pts: int, dim: int | None = None):
    d = dim if dim is not None else int(rng.integers(1, 4))
    n = int(rng.integers(1, max_pts + 1))
    m = int(rng.integers(1, max_pts + 1))
    style = int(rng.integers(0, 3))
    total = float(rng.uniform(0.5, 2.0))
    if style == 0:
        wu = rng.uniform(0.1, 1.0, n)
        wv = rng.uniform(0.1, 1.0, m)
    elif style == 1:
        m = n
        wu = np.ones(n)
        wv = np.ones(m)
    else:
        wu = rng.uniform(0.1, 1.0, n)
        wv = rng.uniform(0.1, 1.0, m)
    wu *= total / wu.sum()
    wv *= total / wv.sum()
    pu = rng.normal(size=(n, d))
    pv = rng.normal(size=(m, d))
    if style == 2 and n > 1:
        pu[1] = pu[0]  # duplicate support points are legal
    return ParticleMeasure(d, pu, wu), ParticleMeasure(d, pv, wv)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1_mass_conservation() -> CriterionResult:
    t0 = time.perf_counter()
    worst = 0.0
    details = []
    for name in bundled_scenarios():
        scenario = load_scenario(name, audit=False)
        record = solve(scenario)
        masses = record.masses()
        drift = float(np.abs(masses - masses[0]).max())
        worst = max(worst, drift)
        details.append(f"{name}:{drift:g}")
    return _result(
        1,
        "mass conservation on bundled scenarios",
        worst == 0.0,
        f"max drift {worst:g} over {len(details)} scenarios",
        t0,
    )


def criterion_2_w1_exactness() -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240 + 2)
    worst_lp = 0.0
    for _ in range(200):
        mu, nu = _random_pair(rng, 6)
        got, _ = w1_exact(mu, nu)
        worst_lp = max(worst_lp, abs(got - lp_transport_oracle(mu, nu)))
    worst_1d = 0.0
    for _ in range(200):
        mu, nu = _random_pair(rng, 30, dim=1)
        worst_1d = max(worst_1d, abs(w1_1d(mu, nu) - w1_exact(mu, nu)[0]))
    passed = worst_lp <= 1e-10 and worst_1d <= 1e-10
    return _result(
        2,
        "W1 exactness vs LP oracle and 1D closed form",
        passed,
        f"max |simplex-LP| {worst_lp:.3g}, max |1d-simplex| {worst_1d:.3g}",
        t0,
    )


def criterion_3_duality() -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240 + 2)  # same instances as criterion 2
    worst_violation = -np.inf
    for _ in range(200):
        mu, nu = _random_pair(rng, 6)
        exact, _ = w1_exact(mu, nu)
        lower = w1_dual_lower_bound(mu, nu)
        worst_violation = max(worst_violation, lower - exact)
    return _result(
        3,
        "duality lower bound never exceeds exact W1",
        worst_violation <= 1e-9,
        f"max (dual - exact) = {worst_violation:.3g}",
        t0,
    )


def criterion_4_initial_stability() -> CriterionResult:
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("sedimentation-1d", "pedestrian-2d"):
        scenario = load_scenario(name, audit=False)
        reports = stability_battery(scenario, pairs=50, eps=0.05, seed0=scenario.seed)
        ratios = [r.lhs for r in reports]
        worst = max(worst, max(ratios))
        if not all(r.passed for r in reports):
            bad = next(r for r in reports if not r.passed)
            return _result(
                4,
                "initial-data stability exp(Kt) bound",
                False,
                f"{name} pair failed: ratio {bad.lhs:.4g}, fingerprint {bad.fingerprint}",
                t0,
            )
    return _result(
        4,
        "initial-data stability exp(Kt) bound (100 seeded pairs)",
        True,
        f"max ratio {worst:.4g} <= 1.05",
        t0,
    )


def _drift_perturbed(model: VelocityModel, eps: float) -> VelocityModel:
    """Add a constant drift of magnitude eps along the first axis."""
    vec = np.zeros(model.dim)
    vec[0] = eps
    fields = tuple(
        replace(
            f,
            evaluate=lambda t, xs, rs, *extra, _b=f.evaluate: _b(t, xs, rs, *extra) + vec,
            sup_bound=f.sup_bound + eps,
        )
        for f in model.fields
    )
    return VelocityModel(fields, model.kernels, model.dirac_species)


def criterion_5_general_stability() -> CriterionResult:
    t0 = time.perf_counter()
    scenario = load_scenario("sedimentation-1d", audit=False)
    base = solve_direct(scenario)
    source = base.trajectory()
    mass = scenario.initial.total_measure()
    problem_a = FrozenProblem(scenario.model, source)
    worst = 0.0
    for eps in (1e-3, 1e-2, 1e-1):
        perturbed_kernel = sedimentation_field(
            add_kernels(
                scenario.model.kernels.entries[0][0],
                kernel_library("tent", 1, scale=0.7, height=eps),
            ),
            mass=mass,
        )
        for tag, model_b in (
            ("kernel", perturbed_kernel),
            ("velocity", _drift_perturbed(scenario.model, eps)),
        ):
            report = check_stability_general(
                problem_a,
                FrozenProblem(model_b, source),
                scenario.initial,
                scenario.initial,
                scenario.horizon,
                scenario.step.dt,
                seed=scenario.seed,
                fingerprint={"perturbation": tag, "eps": eps},
            )
            worst = max(worst, report.lhs)
            if not report.passed:
                return _result(
                    5,
                    "general stability under kernel/velocity perturbations",
                    False,
                    f"{tag} eps={eps}: ratio {report.lhs:.4g} > 1.05",
                    t0,
                )
    return _result(
        5,
        "general stability under kernel/velocity perturbations",
        True,
        f"max ratio {worst:.4g} <= 1.05 over eps in (1e-3, 1e-2, 1e-1)",
        t0,
    )


def criterion_6_contraction() -> CriterionResult:
    t0 = time.perf_counter()
    # window length against an independent root finder and the known value;
    # a linear local field with slope -2 has exactly C = 2
    from .measures import dirac
    from .velocity import linear_local_field

    probe = Scenario(
        name="window-probe",
        model=linear_local_field(-2.0, 4.0, 1),
        initial=MeasureVector((dirac([0.0]),)),
        horizon=10.0,
        step=StepControl(0.01),
        picard=PicardParams(sigma=0.5),
    )
    got = window_length(probe)
    oracle = brentq(lambda tw: 2.0 * tw * math.exp(2.0 * tw) - 0.5, 1e-9, 5.0, xtol=1e-13)
    if abs(got - oracle) > 1e-9 or abs(got - 0.1756) > 1e-3:
        return _result(
            6,
            "picard contraction and window length",
            False,
            f"window_length(C=2, sigma=0.5) = {got:.6f}, oracle {oracle:.6f}",
            t0,
        )
    # contraction ratios window by window
    noise_floor = 1e-9
    worst_margin = -np.inf
    details = []
    for name, dt in (("sedimentation-1d", 0.005), ("pedestrian-2d", 0.02)):
        scenario = load_scenario(name, audit=False)
        scenario = replace(
            scenario,
            step=StepControl(dt),
            mode="picard",
            picard=PicardParams(tol=1e-10, max_iter=80),
        )
        record = solve_picard(scenario)
        c = scenario.constants().C
        edges = record.diagnostics["window_edges"]
        for w, dists in enumerate(record.diagnostics["picard_distances"]):
            span = edges[w + 1] - edges[w]
            bound = c * span * math.exp(c * span) + 0.05
            for a, b in zip(dists, dists[1:]):
                if a <= noise_floor or b <= noise_floor:
                    continue
                ratio = b / a
                worst_margin = max(worst_margin, ratio - bound)
                if ratio > bound:
                    return _result(
                        6,
                        "picard contraction and window length",
                        False,
                        f"{name} window {w}: ratio {ratio:.4g} > bound {bound:.4g}",
                        t0,
                    )
        details.append(f"{name}: {[len(d) for d in record.diagnostics['picard_distances']]} iters")
    return _result(
        6,
        "picard contraction and window length",
        True,
        f"window_length ok ({got:.6f}); worst ratio-bound margin {worst_margin:.3g}; "
        + "; ".join(details),
        t0,
    )


def criterion_7_method_agreement() -> CriterionResult:
    t0 = time.perf_counter()
    cases = (
        ("sedimentation-smooth-1d", 0.004),
        ("predator-prey-1d", 0.005),
        ("pedestrian-2d", 0.01),
    )
    worst = 0.0
    for name, dt in cases:
        scenario = load_scenario(name, audit=False)
        scenario = replace(
            scenario,
            step=StepControl(dt),
            picard=PicardParams(tol=1e-9, max_iter=80),
        )
        direct = solve_direct(scenario)
        picard = solve_picard(replace(scenario, mode="picard"))
        if not np.allclose(direct.times, picard.times):
            return _result(7, "direct/picard agreement", False, f"{name}: snapshot grids differ", t0)
        gap = max(
            w1_vector(a, b) for a, b in zip(direct.states, picard.states)
        )
        worst = max(worst, gap)
        if gap > 1e-6:
            return _result(
                7,
                "direct/picard agreement",
                False,
                f"{name}: sup_t W1 = {gap:.3g} > 1e-6",
                t0,
            )
    return _result(
        7,
        "direct/picard agreement (uniqueness surrogate)",
        True,
        f"max sup_t W1 = {worst:.3g} <= 1e-6 over {len(cases)} scenarios",
        t0,
    )


def _test_battery(scenario: Scenario) -> list:
    T = scenario.horizon
    if scenario.initial.dim == 1:
        shapes = [
            ([0.0], 1.6, 4, 3),
            ([0.3], 1.2, 4, 2),
            ([-0.4], 1.4, 5, 3),
            ([0.7], 1.8, 4, 4),
            ([-0.1], 1.0, 6, 3),
        ]
    else:
        shapes = [
            ([0.5, 0.0], 2.5, 4, 3),
            ([0.0, 0.3], 2.0, 4, 2),
            ([0.8, -0.2], 2.2, 5, 3),
            ([-0.3, 0.1], 1.8, 4, 4),
            ([0.2, -0.4], 2.4, 6, 3),
        ]
    return [polynomial_bump_test(c, r, T, p, q) for c, r, p, q in shapes]


def criterion_8_weak_form() -> CriterionResult:
    t0 = time.perf_counter()
    ratios_all = []
    for name, dt in (("sedimentation-smooth-1d", 0.02), ("pedestrian-2d", 0.02)):
        scenario = load_scenario(name, audit=False)
        battery = _test_battery(scenario)
        coarse = solve_direct(replace(scenario, step=StepControl(dt)))
        fine = solve_direct(replace(scenario, step=StepControl(dt / 2)))
        for idx, phi in enumerate(battery):
            r_coarse = weak_form_residual(coarse, scenario.model, phi)
            r_fine = weak_form_residual(fine, scenario.model, phi)
            ratio = r_coarse / r_fine
            ratios_all.append(ratio)
            if not (3.5 <= ratio <= 4.5):
                return _result(
                    8,
                    "weak-form residual order",
                    False,
                    f"{name} phi[{idx}]: ratio {ratio:.3f} outside [3.5, 4.5]",
                    t0,
                )
    return _result(
        8,
        "weak-form residual order (5 test functions x 2 scenarios)",
        True,
        f"ratios in [{min(ratios_all):.3f}, {max(ratios_all):.3f}]",
        t0,
    )


def criterion_9_linfty_growth() -> CriterionResult:
    t0 = time.perf_counter()
    from .harness import check_linfty_growth

    compressive = load_scenario("linear-local-compressive-1d", audit=False)
    rep = check_linfty_growth(compressive)
    saturation = abs(rep.lhs - 1.0)
    if not rep.passed or saturation > 0.01:
        return _result(
            9,
            "L-infinity growth bound",
            False,
            f"compressive scenario ratio {rep.lhs:.4f} (saturation error {saturation:.3g})",
            t0,
        )
    raw = load_raw("sedimentation-smooth-1d")
    raw["density_tracking"] = True
    tracked = scenario_from_config(raw, audit=False)
    rep2 = check_linfty_growth(tracked)
    passed = rep2.passed
    return _result(
        9,
        "L-infinity growth bound",
        passed,
        f"compressive ratio {rep.lhs:.4f} saturates within 1%; "
        f"sedimentation ratio {rep2.lhs:.4f} <= 1.05",
        t0,
    )


def criterion_10_reduced_ode() -> CriterionResult:
    t0 = time.perf_counter()
    scenario = load_scenario("single-dirac-sedimentation-1d", audit=False)
    record = solve_direct(scenario)
    kernel = scenario.model.kernels.entries[0][0]
    speed = kernel.evaluate(0.0, np.zeros((1, 1)))[0]
    p0 = scenario.initial.species[0].positions[0, 0]
    line = np.array([state.species[0].positions[0, 0] for state in record.states])
    worst_line = float(np.abs(line - (p0 + speed * record.times)).max())
    if worst_line > 1e-8:
        return _result(10, "reduced-ODE exactness", False, f"dirac line error {worst_line:.3g}", t0)

    coupled = load_scenario("predator-decoupled-1d", audit=False)
    rec = solve_direct(coupled)
    # standalone RK4 of the same right-hand side on the same grid
    phi_cfg = load_raw("predator-decoupled-1d")["model"]["phi"]
    rate = float(phi_cfg["rate"])
    target = np.asarray(phi_cfg["target"], dtype=float)

    def f(p):
        return rate * (target - p)

    p = coupled.initial.species[1].positions[0].copy()
    worst_ode = 0.0
    times = rec.times
    for j in range(1, len(times)):
        dt = times[j] - times[j - 1]
        k1 = f(p)
        k2 = f(p + 0.5 * dt * k1)
        k3 = f(p + 0.5 * dt * k2)
        k4 = f(p + dt * k3)
        p = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = rec.states[j].species[1].positions[0]
        worst_ode = max(worst_ode, float(np.abs(got - p).max()))
    passed = worst_ode <= 1e-10
    return _result(
        10,
        "reduced-ODE exactness",
        passed,
        f"dirac line error {worst_line:.3g} <= 1e-8; "
        f"decoupled predator vs standalone RK4 {worst_ode:.3g} <= 1e-10",
        t0,
    )


ALL_CRITERIA = (
    criterion_1_mass_conservation,
    criterion_2_w1_exactness,
    criterion_3_duality,
    criterion_4_initial_stability,
    criterion_5_general_stability,
    criterion_6_contraction,
    criterion_7_method_agreement,
    criterion_8_weak_form,
    criterion_9_linfty_growth,
    criterion_10_reduced_ode,
)


def run_suite(out_dir: Path | None = None) -> list[CriterionResult]:
    """Run every acceptance criterion, printing one line per criterion."""
    results = []
    total0 = time.perf_counter()
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.number}: {res.name} ({res.detail}) [{res.runtime:.1f}s]")
    total = time.perf_counter() - total0
    print(f"suite: {sum(r.passed for r in results)}/{len(results)} criteria passed in {total:.1f}s")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "criterion": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "runtime_s": round(r.runtime, 3),
            }
            for r in results
        ]
        (out_dir / "suite.json").write_text(json.dumps(rows, indent=2) + "\n")
    return results
