import math
from dataclasses import replace

import numpy as np
import pytest

from nonlocalflow import (
    BoundReport,
    GridDensity,
    MeasureVector,
    Scenario,
    StepControl,
    VelocityModel,
    check_lemma_stability,
    check_linfty_growth,
    check_stability_general,
    check_stability_initial,
    constant_drift_field,
    dirac,
    kernel_library,
    linear_local_field,
    particles_from_density,
    sedimentation_field,
    solve_direct,
    stability_battery,
)
from nonlocalflow import harness, solver, w1_series, w1_vector, wasserstein
from nonlocalflow.harness import perturbed_initial
from nonlocalflow.cli import run_checks
from nonlocalflow.scenario import _cosine_bump_1d, load_scenario
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
        initial_densities=(dens,) if track else None,
    )


def test_bound_report_invariant():
    good = BoundReport.make("x", 1.0, 1.0, 1.05, {})
    assert good.passed
    bad = BoundReport.make("x", 1.2, 1.0, 1.05, {})
    assert not bad.passed


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_bound_report_fails_on_a_non_finite_side(side, value):
    # inf rhs would pass lhs <= rhs * slack vacuously, -inf lhs trivially
    lhs, rhs = (value, 1.0) if side == "lhs" else (0.5, value)
    assert not BoundReport.make("x", lhs, rhs, 1.05, {}).passed


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
    reports = stability_battery(scn, pairs=5)
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
    rec_a = solve_direct(replace(scn, initial_densities=None))
    rec_b = solve_direct(replace(scn, initial=sigma0, initial_densities=None))
    d0 = w1_vector(scn.initial, sigma0)
    dists = w1_series(zip(rec_a.states[1:], rec_b.states[1:]))
    return float((dists / (np.exp(K * rec_a.times[1:]) * d0)).max())


def test_battery_shares_one_base_solve(monkeypatch):
    scn = bump_scenario()
    calls = count_solves(monkeypatch)
    reports = stability_battery(scn, pairs=5)
    assert len(calls) == 6
    monkeypatch.undo()
    K = 2.0 * scn.lipschitz_b()
    for rep in reports:
        sigma0 = perturbed_initial(scn.initial, 0.05, rep.fingerprint["pair_seed"])
        assert rep.lhs == two_solve_ratio(scn, sigma0, K)


def test_stability_pair_over_the_pair_cap_solves_nothing(monkeypatch):
    # --n 16 puts 12 particles in the disk: d0 needs 144 pairs, over a cap of 100
    scn = load_scenario("pedestrian-2d", {"n": 16}, audit=False)
    base = solve_direct(scn)
    monkeypatch.setattr(wasserstein, "DEFAULT_PAIR_CAP", 100)
    calls = count_solves(monkeypatch)
    with pytest.raises(wasserstein.PairCapError, match="12x12 pairs exceed the cap 100"):
        check_stability_initial(scn, base, perturbed_initial(scn.initial, 0.05, 1))
    assert calls == []


@pytest.mark.parametrize("mode, solves", [("direct", 3), ("picard", 4)])
def test_run_checks_reuses_a_direct_record(monkeypatch, mode, solves):
    scn = load_scenario("sedimentation-1d", {"n": 20, "mode": mode}, audit=False)
    record = solve(scn)
    calls = count_solves(monkeypatch)
    reports = run_checks(scn, record, [{"type": "stability-initial", "pairs": 3}])
    assert len(calls) == solves
    monkeypatch.undo()
    K = 2.0 * scn.lipschitz_b()
    for rep in reports:
        sigma0 = perturbed_initial(scn.initial, 0.05, rep.fingerprint["pair_seed"])
        assert rep.lhs == two_solve_ratio(scn, sigma0, K)


@pytest.mark.parametrize("mode, own_direct_solves", [("direct", 1), ("picard", 0)])
def test_run_checks_reuses_the_run_record_for_linfty(monkeypatch, mode, own_direct_solves):
    scn = load_scenario("linear-local-compressive-1d", {"mode": mode}, audit=False)
    calls = count_solves(monkeypatch)
    real = solver.solve_direct
    monkeypatch.setattr(solver, "solve_direct", lambda s: calls.append(s) or real(s))
    record = solve(scn)
    (report,) = run_checks(scn, record, [{"type": "linfty-growth"}])
    # no direct solve beyond the run's own: the check reads the run's densities
    assert len(calls) == own_direct_solves
    monkeypatch.undo()
    assert report.lhs == check_linfty_growth(scn, record).lhs


def test_run_checks_measures_the_lemma_on_the_perturbed_datum():
    scn = load_scenario("sedimentation-1d")
    (rep,) = run_checks(scn, solve(scn), [{"type": "lemma-stability"}])
    assert rep.name == "lemma-velocity-stability"
    assert rep.passed
    sigma0 = perturbed_initial(scn.initial, 0.05, scn.seed)
    assert rep.rhs == scn.model.lip_r * scn.model.kernels.lip_x * w1_vector(scn.initial, sigma0)


def test_default_k_given_explicitly_is_the_default_report():
    scn = bump_scenario()
    base = solve_direct(scn)
    sigma0 = perturbed_initial(scn.initial, 0.05, seed=2)
    default = check_stability_initial(scn, base, sigma0)
    assert check_stability_initial(scn, base, sigma0, K=2.0 * scn.lipschitz_b()) == default


def test_stability_check_fails_at_k_zero_on_an_expanding_field():
    # V = x: distances grow like e^t, the certified rate is K = 2C = 2
    scn = load_scenario("linear-local-expansive-1d")
    base = solve_direct(scn)
    sigma0 = perturbed_initial(scn.initial, 0.05, seed=0)
    assert check_stability_initial(scn, base, sigma0).passed
    # the e^{0 t} bound must be violated by distances that grow like e^t
    assert not check_stability_initial(scn, base, sigma0, K=0.0).passed


def test_general_stability_identical_problems():
    scn = bump_scenario()
    source = solve_direct(scn)
    rep = check_stability_general(
        scn.model, source, scn.model, source, scn.initial, scn.initial, scn.horizon, scn.step.dt
    )
    assert rep.lhs <= 1e-9
    assert rep.passed


def test_general_stability_perturbed_initial_data():
    scn = bump_scenario()
    source = solve_direct(scn)
    sigma0 = perturbed_initial(scn.initial, 0.03, seed=5)
    rep = check_stability_general(
        scn.model, source, scn.model, source, scn.initial, sigma0, scn.horizon, scn.step.dt
    )
    assert rep.passed


def test_general_stability_on_a_dirac_coupling_model():
    # the velocity gap hands Dirac position blocks to the predator's field
    scn = load_scenario("predator-prey-1d")
    source = solve_direct(scn)
    rep = check_stability_general(
        scn.model, source, scn.model, source, scn.initial, scn.initial, scn.horizon, scn.step.dt
    )
    assert rep.passed
    assert rep.fingerprint["gap_velocity"] == 0.0


def test_general_check_degenerates_to_initial_check():
    # frozen sources set to the actual solutions of each datum: the general
    # estimate then covers the same pair the initial-data check measures
    scn = bump_scenario()
    sigma0 = perturbed_initial(scn.initial, 0.05, seed=9)
    rec_rho = solve_direct(scn)
    rec_sigma = solve_direct(replace(scn, initial=sigma0))
    rep_general = check_stability_general(
        scn.model,
        rec_rho,
        scn.model,
        rec_sigma,
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
    rep = check_linfty_growth(scn, solve_direct(scn))
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
        initial_densities=(dens,),
    )
    rep = check_linfty_growth(scn, solve_direct(scn))
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, abs=0.01)


# Negative controls: each check on a problem that attains its constant, with
# that constant understated by 10%.  The audit would reject the understated
# metadata, so these models are built directly and never audited.


def _understated(model, **metadata):
    """``model`` with its one field declaring ``metadata`` instead."""
    (field,) = model.fields
    return VelocityModel((replace(field, **metadata),), model.kernels)


def _expansive(lip_x=1.0):
    """linear-local-expansive-1d (V = x, so C = 1) declaring ``lip_x``."""
    scn = load_scenario("linear-local-expansive-1d", audit=False)
    return replace(scn, model=_understated(scn.model, lip_x=lip_x))


def test_expansive_initial_check_passes_at_2c_and_fails_at_k_0_9():
    scn = load_scenario("linear-local-expansive-1d")
    base = solve_direct(scn)
    sigma0 = perturbed_initial(scn.initial, 0.05, seed=0)
    certified = check_stability_initial(scn, base, sigma0)
    assert certified.passed
    # W1 of the pair grows exactly as e^t
    assert abs(certified.fingerprint["k_observed"] - 1.0) <= 1e-6
    assert certified.fingerprint["horizon_ratio"] == pytest.approx(math.exp(-1.0), rel=1e-6)
    control = check_stability_initial(scn, base, sigma0, K=0.9)
    assert control.lhs == pytest.approx(math.exp(0.1), rel=1e-6)
    assert control.fingerprint["horizon_ratio"] == control.lhs
    assert not control.passed


@pytest.mark.parametrize("lip_x, passed", [(1.0, True), (0.9, False)])
def test_general_check_control_on_an_expansive_field(lip_x, passed):
    scn = _expansive(lip_x)
    source = solve_direct(scn)
    sigma0 = perturbed_initial(scn.initial, 0.05, seed=0)
    rep = check_stability_general(
        scn.model, source, scn.model, source, scn.initial, sigma0, scn.horizon, scn.step.dt
    )
    # lhs / rhs = e^{(1 - lip_x) t}: about 1 when honest, e^{0.1} at the horizon when not
    assert rep.lhs == pytest.approx(math.exp(1.0 - lip_x), rel=1e-6)
    assert rep.passed is passed


@pytest.mark.parametrize("lip_x, passed", [(1.0, True), (0.9, False)])
def test_flow_lipschitz_control_on_an_expansive_field(lip_x, passed):
    scn = _expansive(lip_x)
    (rep,) = run_checks(scn, solve(scn), [{"type": "flow-lipschitz"}])
    # the flow stretches every pair by e^T; the bound is e^{lip_x T}
    assert rep.lhs == pytest.approx(math.e, rel=1e-6)
    assert rep.rhs == pytest.approx(math.exp(lip_x))
    assert rep.passed is passed


@pytest.mark.parametrize("lip_x, passed", [(1.0, True), (0.9, False)])
def test_linfty_control_on_the_compressive_field(lip_x, passed):
    scn = load_scenario("linear-local-compressive-1d", audit=False)
    scn = replace(scn, model=_understated(scn.model, lip_x=lip_x))
    (rep,) = run_checks(scn, solve(scn), [{"type": "linfty-growth"}])
    # the peak density grows as e^t; the bound is e^{lip_x t}
    assert rep.lhs == pytest.approx(math.exp(1.0 - lip_x), abs=0.01)
    assert rep.passed is passed


@pytest.mark.parametrize("lip_r, passed", [(1.0, True), (0.9, False)])
def test_lemma_control_between_two_nearby_diracs(lip_r, passed):
    # sedimentation V = eta * rho with the tent of slope 1: between Diracs at
    # 0 and 0.25 the velocity gap is 0.25 wherever both sit on one flank
    model = _understated(sedimentation_field(kernel_library("tent")), lip_r=lip_r)
    r = MeasureVector((dirac([0.0]),))
    s = MeasureVector((dirac([0.25]),))
    rep = check_lemma_stability(model, r, s)
    assert rep.lhs == pytest.approx(0.25, rel=1e-12)
    assert rep.rhs == pytest.approx(0.25 * lip_r)
    assert rep.passed is passed
