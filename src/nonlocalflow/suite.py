"""Acceptance battery: ten criteria, shared by the CLI and the tests.

Each criterion measures against an independent oracle (LP solver, closed
forms, brute-force references) or a certified bound, and returns what it
measured as :class:`BoundReport` rows (lhs <= rhs * slack).
:func:`criterion` registers it once with its number and name; the runner
times it, passes it when every report passes, and writes a one-line detail
naming the failing reports, else the tightest one.  :func:`run_suite` runs
the battery in seconds and can write every report to ``suite.json``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import brentq, linprog

from .scenario import bundled_scenarios, load_raw, load_scenario, scenario_from_config
from .flow import StepControl
from .harness import (
    BoundReport,
    check_linfty_growth,
    check_mass_conservation,
    check_stability_general,
    stability_battery,
)
from .kernels import add_kernels, kernel_library
from .measures import MeasureVector, ParticleMeasure, dirac
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
from .velocity import VelocityModel, linear_local_field, sedimentation_field
from .wasserstein import kantorovich_potential, w1_1d, w1_exact, w1_series


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime: float
    reports: list[BoundReport]


# every registered criterion in the order of its definition
CRITERIA: list[Callable[[], CriterionResult]] = []


def _share(r: BoundReport) -> float:
    """How much of its bound rhs * slack a report uses; 1 at the bound."""
    bound = r.rhs * r.slack
    return r.lhs / bound if bound > 0 else float(r.lhs >= bound)


def _line(r: BoundReport) -> str:
    slack = "" if r.slack == 1.0 else f" x {r.slack:g}"
    return f"{r.name}: {r.lhs:.4g} {'<=' if r.passed else '>'} {r.rhs:.4g}{slack}"


def _detail(reports: list[BoundReport]) -> str:
    failed = [r for r in reports if not r.passed]
    if not reports:
        return "no reports"
    if not failed:
        return f"{len(reports)} pass, tightest {_line(max(reports, key=_share))}"
    lines = [f"{_line(r)} {r.fingerprint}" for r in failed[:3]]
    more = [f"{len(failed) - 3} more"] if len(failed) > 3 else []
    return f"{len(failed)}/{len(reports)} fail: " + "; ".join(lines + more)


def criterion(number: int, name: str):
    """Register a function that returns its reports as criterion ``number``.

    The registered function takes no arguments and returns a timed
    :class:`CriterionResult` that passes iff it has reports and all pass.
    """

    def register(measure: Callable[[], list[BoundReport]]) -> Callable[[], CriterionResult]:
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            reports = list(measure())
            passed = bool(reports) and all(r.passed for r in reports)
            return CriterionResult(number, name, passed, _detail(reports), time.perf_counter() - t0, reports)

        CRITERIA.append(run)
        return run

    return register


def _within(name: str, lhs: float, rhs: float, **fingerprint) -> BoundReport:
    """A report of lhs <= rhs with no slack."""
    return BoundReport.make(name, lhs, rhs, 1.0, fingerprint)


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
    style = int(rng.integers(0, 3))  # 1: equal counts and weights; 2: a repeated point
    total = float(rng.uniform(0.5, 2.0))
    if style == 1:
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


@criterion(1, "mass conservation on bundled scenarios")
def criterion_1_mass_conservation() -> list[BoundReport]:
    scenarios = [load_scenario(name) for name in bundled_scenarios()]
    return [check_mass_conservation(scenario, solve(scenario)) for scenario in scenarios]


@criterion(2, "W1 exactness vs LP oracle and 1D closed form")
def criterion_2_w1_exactness() -> list[BoundReport]:
    rng = np.random.default_rng(20240 + 2)
    pairs = [_random_pair(rng, 6) for _ in range(200)]
    worst_lp = max(abs(w1_exact(mu, nu)[0] - lp_transport_oracle(mu, nu)) for mu, nu in pairs)
    pairs_1d = [_random_pair(rng, 30, dim=1) for _ in range(200)]
    worst_1d = max(abs(w1_1d(mu, nu) - w1_exact(mu, nu)[0]) for mu, nu in pairs_1d)
    return [
        _within("max |simplex - LP|", worst_lp, 1e-10, pairs=len(pairs)),
        _within("max |1d - simplex|", worst_1d, 1e-10, pairs=len(pairs_1d)),
    ]


def _potential_gap(mu: ParticleMeasure, nu: ParticleMeasure) -> float:
    """|integral of the plan's Kantorovich potential d(mu - nu) - exact W1|."""
    exact, plan = w1_exact(mu, nu)
    dual = kantorovich_potential(plan, mu.positions) @ mu.weights
    return abs(dual - kantorovich_potential(plan, nu.positions) @ nu.weights - exact)


@criterion(3, "Kantorovich potential attains exact W1")
def criterion_3_duality() -> list[BoundReport]:
    rng = np.random.default_rng(20240 + 2)  # same instances as criterion 2
    pairs = [_random_pair(rng, 6) for _ in range(200)]
    worst = max(_potential_gap(mu, nu) for mu, nu in pairs)
    return [_within("max |potential - exact|", worst, 1e-9, pairs=len(pairs))]


@criterion(4, "initial-data stability exp(Kt) bound (150 seeded pairs)")
def criterion_4_initial_stability() -> list[BoundReport]:
    reports = []
    for name in ("sedimentation-1d", "pedestrian-2d", "linear-local-expansive-1d"):
        scenario = load_scenario(name)
        reports += stability_battery(scenario, pairs=50)
    return reports


def _drift_perturbed(model: VelocityModel, size: float) -> VelocityModel:
    """Add a constant drift of magnitude ``size`` along the first axis."""
    vec = np.zeros(model.dim)
    vec[0] = size
    fields = tuple(
        replace(
            f,
            evaluate=lambda t, xs, rs, _b=f.evaluate: _b(t, xs, rs) + vec,
            sup_bound=f.sup_bound + size,
        )
        for f in model.fields
    )
    return VelocityModel(fields, model.kernels)


@criterion(5, "general stability under kernel/velocity perturbations")
def criterion_5_general_stability() -> list[BoundReport]:
    scenario = load_scenario("sedimentation-1d")
    source = solve_direct(scenario)
    mass = scenario.initial.total_measure()
    reports = []
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
            reports.append(
                check_stability_general(
                    scenario, source, model_b, source, scenario.initial, fingerprint={"perturbation": tag, "eps": eps}
                )
            )
    return reports


@criterion(6, "picard contraction and window length")
def criterion_6_contraction() -> list[BoundReport]:
    # window length against an independent root finder and the known value;
    # a linear local field with slope -2 has exactly C = 2
    probe = Scenario(
        name="window-probe",
        model=linear_local_field(-2.0, 4.0, 1),
        initial=MeasureVector((dirac([0.0]),)),
        horizon=10.0,
        step=StepControl(0.01),
    )
    got = window_length(probe)
    oracle = brentq(lambda tw: 2.0 * tw * math.exp(2.0 * tw) - 0.5, 1e-9, 5.0, xtol=1e-13)
    reports = [
        _within("|window - brentq root|", abs(got - oracle), 1e-9, window=got, root=oracle),
        _within("|window - 0.1756|", abs(got - 0.1756), 1e-3, window=got),
    ]
    # contraction ratios window by window, above the 1e-9 noise floor
    for name, dt in (("sedimentation-1d", 0.005), ("pedestrian-2d", 0.02)):
        scenario = load_scenario(name)
        scenario = replace(
            scenario,
            step=StepControl(dt),
            mode="picard",
            picard=PicardParams(tol=1e-10, max_iter=80),
        )
        record = solve_picard(scenario)
        c = scenario.lipschitz_b()
        edges = record.diagnostics["window_edges"]
        for w, dists in enumerate(record.diagnostics["picard_distances"]):
            span = edges[w + 1] - edges[w]
            ratios = [b / a for a, b in zip(dists, dists[1:]) if a > 1e-9 and b > 1e-9]
            bound = c * span * math.exp(c * span) + 0.05
            fp = {"scenario": name, "window": w, "iterations": len(dists)}
            reports.append(_within("contraction ratio", max(ratios, default=0.0), bound, **fp))
    return reports


@criterion(7, "direct/picard agreement (uniqueness surrogate)")
def criterion_7_method_agreement() -> list[BoundReport]:
    reports = []
    for name, dt in (
        ("sedimentation-smooth-1d", 0.004),
        ("predator-prey-1d", 0.005),
        ("pedestrian-2d", 0.01),
    ):
        scenario = load_scenario(name)
        scenario = replace(
            scenario,
            step=StepControl(dt),
            picard=PicardParams(tol=1e-9, max_iter=80),
        )
        direct = solve_direct(scenario)
        picard = solve_picard(replace(scenario, mode="picard"))
        # np.allclose's test |a - b| <= 1e-8 + 1e-5 |b|, as the excess over its tolerance
        excess = np.abs(direct.times - picard.times) - (1e-8 + 1e-5 * np.abs(picard.times))
        gap = float(w1_series(zip(direct.states, picard.states)).max())
        reports += [
            _within("snapshot-time excess over np.allclose", float(excess.max()), 0.0, scenario=name),
            _within("sup_t W1(direct, picard)", gap, 1e-6, scenario=name),
        ]
    return reports


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


@criterion(8, "weak-form residual order (5 test functions x 2 scenarios)")
def criterion_8_weak_form() -> list[BoundReport]:
    reports = []
    for name, dt in (("sedimentation-smooth-1d", 0.02), ("pedestrian-2d", 0.02)):
        scenario = load_scenario(name)
        coarse = solve_direct(replace(scenario, step=StepControl(dt)))
        fine = solve_direct(replace(scenario, step=StepControl(dt / 2)))
        for idx, phi in enumerate(_test_battery(scenario)):
            r_coarse = weak_form_residual(coarse, scenario.model, phi)
            ratio = r_coarse / weak_form_residual(fine, scenario.model, phi)
            # 3.5 <= ratio <= 4.5; ratio - 4 is exact for every ratio in [2, 8]
            fp = {"scenario": name, "phi": idx, "ratio": ratio}
            reports.append(_within("|residual ratio - 4|", abs(ratio - 4.0), 0.5, **fp))
    return reports


@criterion(9, "L-infinity growth bound")
def criterion_9_linfty_growth() -> list[BoundReport]:
    scenario = load_scenario("linear-local-compressive-1d")
    compressive = check_linfty_growth(scenario, solve(scenario))
    raw = load_raw("sedimentation-smooth-1d")
    raw["density_tracking"] = True
    smooth = scenario_from_config(raw)
    return [
        compressive,
        # the compressive field saturates its bound
        _within("|compressive ratio - 1|", abs(compressive.lhs - 1.0), 0.01, ratio=compressive.lhs),
        check_linfty_growth(smooth, solve(smooth)),
    ]


@criterion(10, "reduced-ODE exactness")
def criterion_10_reduced_ode() -> list[BoundReport]:
    scenario = load_scenario("single-dirac-sedimentation-1d")
    record = solve_direct(scenario)
    kernel = scenario.model.kernels.entries[0][0]
    speed = kernel.evaluate(0.0, np.zeros((1, 1)))[0]
    p0 = scenario.initial.species[0].positions[0, 0]
    line = np.array([state.species[0].positions[0, 0] for state in record.states])
    worst_line = float(np.abs(line - (p0 + speed * record.times)).max())

    coupled = load_scenario("predator-decoupled-1d")
    rec = solve_direct(coupled)
    # standalone RK4 of the same right-hand side on the same grid
    phi_cfg = load_raw("predator-decoupled-1d")["model"]["phi"]
    rate = float(phi_cfg["rate"])
    target = np.asarray(phi_cfg["target"], dtype=float)

    def f(p):
        return rate * (target - p)

    p = coupled.initial.species[1].positions[0].copy()
    worst_ode = 0.0
    for j in range(1, len(rec.times)):
        dt = rec.times[j] - rec.times[j - 1]
        k1 = f(p)
        k2 = f(p + 0.5 * dt * k1)
        k3 = f(p + 0.5 * dt * k2)
        k4 = f(p + dt * k3)
        p = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = rec.states[j].species[1].positions[0]
        worst_ode = max(worst_ode, float(np.abs(got - p).max()))
    return [
        _within("dirac line error", worst_line, 1e-8, **scenario.fingerprint()),
        _within("decoupled predator vs standalone RK4", worst_ode, 1e-10, **coupled.fingerprint()),
    ]


def run_suite(out_dir: Path | None = None) -> list[CriterionResult]:
    """Run every criterion, printing one line each; with ``out_dir``, write
    ``suite.json``: one row per criterion with every report it measured."""
    results = []
    total0 = time.perf_counter()
    for run in CRITERIA:
        res = run()
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
                "reports": [asdict(rep) for rep in r.reports],
            }
            for r in results
        ]
        (out_dir / "suite.json").write_text(json.dumps(rows, indent=2) + "\n")
    return results
