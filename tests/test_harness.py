import math
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocalflow import (
    BoundReport,
    GridDensity,
    KernelMatrix,
    MeasureVector,
    ParticleMeasure,
    Scenario,
    StepControl,
    VelocityField,
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
    zero_kernel,
)
from nonlocalflow import harness, solver, w1_series, w1_vector, wasserstein
from nonlocalflow.harness import PERTURBATION, perturbed_initial
from nonlocalflow.kernels import sample_normal
from nonlocalflow.cli import run_checks
from nonlocalflow.scenario import _cosine_bump_1d, load_config, load_scenario, scenario_from_config
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
        rep = check_lemma_stability(scn.model, scn.initial, other)
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
    scn = scenario_from_config(load_config("pedestrian-2d", {"n": 16}))
    base = solve_direct(scn)
    monkeypatch.setattr(wasserstein, "DEFAULT_PAIR_CAP", 100)
    calls = count_solves(monkeypatch)
    with pytest.raises(wasserstein.PairCapError, match="12x12 pairs exceed the cap 100"):
        check_stability_initial(scn, base, perturbed_initial(scn.initial, 0.05, 1))
    assert calls == []


@pytest.mark.parametrize("mode, solves", [("direct", 3), ("picard", 4)])
def test_run_checks_reuses_a_direct_record(monkeypatch, mode, solves):
    scn = scenario_from_config(load_config("sedimentation-1d", {"n": 20, "mode": mode}))
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
    scn = scenario_from_config(load_config("linear-local-compressive-1d", {"mode": mode}))
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
    rep = check_linfty_growth(scn, solve(scn))
    assert rep.passed
    assert rep.lhs <= 1.0 + 1e-9


def test_linfty_growth_rejects_a_record_without_densities():
    # solve_direct moves particles only; solve attaches the tracked densities
    scn = bump_scenario(horizon=0.05, track=True)
    with pytest.raises(ValueError, match="the record carries no tracked densities"):
        check_linfty_growth(scn, solve_direct(scn))


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
    rep = check_linfty_growth(scn, solve(scn))
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
    scn = load_scenario("linear-local-expansive-1d")
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
def test_flow_lipschitz_control_on_the_second_species(lip_x, passed):
    # species 0 rests and species 1 follows V = x, declaring lip_x: only
    # species 1's flow stretches, so a probe of species 0 alone reads 1
    rest = VelocityField(1, 2, lambda t, xs, rs: np.zeros_like(xs), 0.0, 0.0, 0.0)
    expand = VelocityField(1, 2, lambda t, xs, rs: xs.copy(), 2.0, lip_x, 0.0)
    zero = zero_kernel(1)
    model = VelocityModel((rest, expand), KernelMatrix(((zero, zero), (zero, zero))))
    initial = MeasureVector((dirac([0.0]), dirac([0.5])))
    scn = Scenario("rest-and-expand", model, initial, horizon=1.0, step=StepControl(0.01))
    (rep,) = run_checks(scn, solve(scn), [{"type": "flow-lipschitz"}])
    assert rep.lhs == pytest.approx(math.e, rel=1e-6)
    assert rep.rhs == pytest.approx(math.exp(lip_x))
    assert rep.passed is passed


@pytest.mark.parametrize("lip_x, passed", [(1.0, True), (0.9, False)])
def test_linfty_control_on_the_compressive_field(lip_x, passed):
    scn = load_scenario("linear-local-compressive-1d")
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


def _cloud(sizes, dim):
    """One species per entry of ``sizes``, its particles at the origin."""
    return MeasureVector(tuple(ParticleMeasure(dim, np.zeros((n, dim)), np.ones(n)) for n in sizes))


def _record_ranges(mp):
    """Make the harness's normal draws record the Halton indices they read."""
    ranges = []

    def recording(n, dim, seed):
        ranges.append(range(seed + 1, seed + n + 1))
        return sample_normal(n, dim, seed)

    mp.setattr(harness, "sample_normal", recording)
    return ranges


def _disjoint(ranges):
    spans = sorted((r.start, r.stop) for r in ranges)
    return all(stop <= start for (_, stop), (start, _) in zip(spans, spans[1:]))


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 50), min_size=1, max_size=4),
    dim=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_a_perturbation_is_deterministic_and_its_species_read_disjoint_ranges(sizes, dim, seed):
    rho = _cloud(sizes, dim)
    with pytest.MonkeyPatch.context() as mp:
        ranges = _record_ranges(mp)
        sigma = perturbed_initial(rho, PERTURBATION, seed)
    assert [len(r) for r in ranges] == sizes
    assert _disjoint(ranges)
    again = perturbed_initial(rho, PERTURBATION, seed)
    assert all(np.array_equal(a, b) for a, b in zip(sigma.positions(), again.positions()))


@cache
def _predator_prey():
    """A two-species scenario and its direct solve."""
    scn = load_scenario("predator-prey-1d")
    return scn, solve_direct(scn)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1000), pairs=st.integers(1, 6))
def test_the_pairs_of_one_battery_read_disjoint_ranges(seed, pairs):
    scn, base = _predator_prey()
    with pytest.MonkeyPatch.context() as mp:
        ranges = _record_ranges(mp)
        mp.setattr(
            harness,
            "check_stability_initial",
            lambda scenario, base, sigma0, fingerprint: BoundReport.make("pair", 0.0, 1.0, 1.0, fingerprint),
        )
        reports = stability_battery(replace(scn, seed=seed), pairs, base)
    assert [rep.fingerprint["pair_seed"] for rep in reports] == list(range(seed, seed + pairs))
    assert len(ranges) == pairs * scn.initial.k
    assert _disjoint(ranges)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10_000), dim=st.integers(1, 3), seed=st.integers(0, 1000))
def test_every_displacement_is_finite(n, dim, seed):
    # a log of 0 would also raise: a RuntimeWarning fails the test
    (shift,) = perturbed_initial(_cloud([n], dim), PERTURBATION, seed).positions()
    assert np.isfinite(shift).all()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4000, 10_000), dim=st.integers(1, 3), seed=st.integers(0, 1000))
def test_displacements_are_centred_with_the_perturbation_scale(n, dim, seed):
    (shift,) = perturbed_initial(_cloud([n], dim), PERTURBATION, seed).positions()
    assert np.abs(shift.mean(axis=0)).max() <= 0.1 * PERTURBATION
    assert np.abs(shift.std(axis=0) / PERTURBATION - 1.0).max() <= 0.1
