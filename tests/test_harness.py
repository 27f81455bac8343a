from dataclasses import replace

import numpy as np
import pytest

from nonlocalflow import (
    BoundReport,
    FrozenProblem,
    GridDensity,
    MeasureVector,
    Scenario,
    StepControl,
    check_lemma_stability,
    check_linfty_growth,
    check_stability_general,
    check_stability_initial,
    constant_drift_field,
    dirac,
    kernel_library,
    linear_local_field,
    particles_from_density,
    refinement_study,
    sedimentation_field,
    solve_direct,
    stability_battery,
)
from nonlocalflow import harness, w1_series, w1_vector
from nonlocalflow.harness import perturbed_initial
from nonlocalflow.cli import _cosine_bump_1d, load_scenario, run_checks
from nonlocalflow.solver import solve


def bump_scenario(n=30, horizon=0.3, dt=0.005, mass=1.0, track=False):
    dens = _cosine_bump_1d(-1.0, 1.0, 64)
    dens = GridDensity(1, dens.axes, dens.values * (mass / dens.integral()))
    mu = particles_from_density(dens, n)
    return Scenario(
        "bump",
        sedimentation_field(kernel_library("tent"), mass=mass),
        MeasureVector((mu,)),
        horizon=horizon,
        step=StepControl(dt),
        track_density=track,
        initial_densities=(dens,) if track else None,
    )


def test_bound_report_invariant():
    good = BoundReport.make("x", 1.0, 1.0, 1.05, {})
    assert good.passed
    bad = BoundReport.make("x", 1.2, 1.0, 1.05, {})
    assert not bad.passed


def test_lemma_identical_sources():
    scn = bump_scenario()
    rep = check_lemma_stability(scn.model, scn.initial, scn.initial)
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.passed


def test_lemma_constant_kernels_sees_nothing():
    model = sedimentation_field(kernel_library("constant", 1, height=0.5))
    scn = bump_scenario()
    other = perturbed_initial(scn.initial, 0.1, seed=1)
    rep = check_lemma_stability(model, scn.initial, other)
    assert rep.lhs <= 1e-12
    assert rep.passed


def test_lemma_random_trials():
    scn = bump_scenario()
    for seed in range(20):
        other = perturbed_initial(scn.initial, 0.05, seed=seed)
        rep = check_lemma_stability(scn.model, scn.initial, other, seed=seed)
        assert rep.passed, rep


def test_stability_identical_data_noise_floor():
    scn = bump_scenario()
    rep = check_stability_initial(scn, solve_direct(scn), scn.initial)
    assert rep.name == "stability-identical-data"
    assert rep.lhs <= 1e-9
    assert rep.passed


def test_stability_zero_velocity_distance_constant():
    scn = bump_scenario()
    scn = replace(scn, model=constant_drift_field([0.0]))
    sigma0 = perturbed_initial(scn.initial, 0.05, seed=3)
    rep = check_stability_initial(scn, solve_direct(scn), sigma0)
    # distances stay equal to the initial distance, the ratio decays as e^{-Kt}
    assert rep.lhs <= 1.0 + 1e-12
    assert rep.passed


def test_stability_battery_passes():
    scn = bump_scenario()
    reports = stability_battery(scn, pairs=5, eps=0.05)
    assert len(reports) == 5
    assert all(r.passed for r in reports)
    assert len({json_key(r) for r in reports}) == 5


def json_key(report):
    return report.fingerprint["pair_seed"]


def count_solves(monkeypatch) -> list:
    calls = []
    real = harness.solve_direct
    monkeypatch.setattr(harness, "solve_direct", lambda s: calls.append(s) or real(s))
    return calls


def two_solve_ratio(scn, sigma0, K):
    # the initial-data ratio from two independent solves of rho_0 and sigma_0
    rec_a = solve_direct(replace(scn, track_density=False, initial_densities=None))
    rec_b = solve_direct(replace(scn, initial=sigma0, track_density=False, initial_densities=None))
    d0 = w1_vector(scn.initial, sigma0)
    dists = w1_series(zip(rec_a.states[1:], rec_b.states[1:]))
    return float((dists / (np.exp(K * rec_a.times[1:]) * d0)).max())


def test_battery_shares_one_base_solve(monkeypatch):
    scn = bump_scenario()
    calls = count_solves(monkeypatch)
    reports = stability_battery(scn, pairs=5)
    assert len(calls) == 6
    monkeypatch.undo()
    K = scn.constants().K
    for rep in reports:
        sigma0 = perturbed_initial(scn.initial, 0.05, rep.fingerprint["pair_seed"])
        assert rep.lhs == two_solve_ratio(scn, sigma0, K)


@pytest.mark.parametrize("mode, solves", [("direct", 3), ("picard", 4)])
def test_run_checks_reuses_a_direct_record(monkeypatch, mode, solves):
    scn = load_scenario("sedimentation-1d", {"n": 20, "mode": mode}, audit=False)
    record = solve(scn)
    calls = count_solves(monkeypatch)
    reports = run_checks(scn, record, [{"type": "stability-initial", "pairs": 3}])
    assert len(calls) == solves
    monkeypatch.undo()
    K = scn.constants().K
    for rep in reports:
        sigma0 = perturbed_initial(scn.initial, 0.05, rep.fingerprint["pair_seed"])
        assert rep.lhs == two_solve_ratio(scn, sigma0, K)


def test_default_k_given_explicitly_is_the_default_report():
    scn = bump_scenario()
    base = solve_direct(scn)
    sigma0 = perturbed_initial(scn.initial, 0.05, seed=2)
    default = check_stability_initial(scn, base, sigma0)
    assert check_stability_initial(scn, base, sigma0, K=scn.constants().K) == default


def test_general_stability_identical_problems():
    scn = bump_scenario()
    source = solve_direct(scn).trajectory()
    problem = FrozenProblem(scn.model, source)
    rep = check_stability_general(
        problem, problem, scn.initial, scn.initial, scn.horizon, scn.step.dt
    )
    assert rep.lhs <= 1e-9
    assert rep.passed


def test_general_stability_perturbed_initial_data():
    scn = bump_scenario()
    source = solve_direct(scn).trajectory()
    problem = FrozenProblem(scn.model, source)
    sigma0 = perturbed_initial(scn.initial, 0.03, seed=5)
    rep = check_stability_general(
        problem, problem, scn.initial, sigma0, scn.horizon, scn.step.dt
    )
    assert rep.passed


def test_general_check_degenerates_to_initial_check():
    # frozen sources set to the actual solutions of each datum: the general
    # estimate then covers the same pair the initial-data check measures
    scn = bump_scenario()
    sigma0 = perturbed_initial(scn.initial, 0.05, seed=9)
    rec_rho = solve_direct(scn)
    traj_rho = rec_rho.trajectory()
    traj_sigma = solve_direct(replace(scn, initial=sigma0)).trajectory()
    rep_general = check_stability_general(
        FrozenProblem(scn.model, traj_rho),
        FrozenProblem(scn.model, traj_sigma),
        scn.initial,
        sigma0,
        scn.horizon,
        scn.step.dt,
    )
    rep_initial = check_stability_initial(scn, rec_rho, sigma0)
    assert rep_general.passed and rep_initial.passed


def test_linfty_divergence_free():
    scn = bump_scenario(track=True)
    scn = replace(scn, model=constant_drift_field([0.3]))
    rep = check_linfty_growth(scn)
    assert rep.passed
    assert rep.lhs <= 1.0 + 1e-9


def test_linfty_compressive_saturates():
    dens = _cosine_bump_1d(-1.0, 1.0, 64)
    dens = GridDensity(1, dens.axes, dens.values / dens.integral())
    mu = particles_from_density(dens, 40)
    scn = Scenario(
        "compress",
        linear_local_field(-1.0, 4.0, 1),
        MeasureVector((mu,)),
        horizon=1.0,
        step=StepControl(0.01),
        track_density=True,
        initial_densities=(dens,),
    )
    rep = check_linfty_growth(scn)
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, abs=0.01)


def test_refinement_study():
    def factory(n):
        if n == 1:
            scn = bump_scenario(30)
            return replace(
                scn,
                model=linear_local_field(-1.0, 4.0, 1),
                initial=MeasureVector((dirac([1.0]),)),
                horizon=1.0,
                step=StepControl(0.05),
            )
        return replace(bump_scenario(n), horizon=0.3)

    rows = refinement_study(factory, [10, 20, 40, 80], [])
    w1s = [r["w1"] for r in rows if r["kind"] == "N"]
    assert len(w1s) == 3
    assert all(b < a for a, b in zip(w1s, w1s[1:]))

    # closed-form oracle: single particle in V = -x follows e^{-t}
    rows_dt = refinement_study(
        lambda n: factory(1), [1], [0.05, 0.025, 0.0125],
        reference=lambda t: np.array([[np.exp(-t)]]),
    )
    ratios = [r["ratio"] for r in rows_dt if r["kind"] == "dt-ratio"]
    assert len(ratios) == 2
    assert all(12.0 <= r <= 20.0 for r in ratios), ratios
