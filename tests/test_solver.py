import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import lambertw

from nonlocalflow import (
    GridDensity,
    MeasureVector,
    ParticleMeasure,
    PicardConvergenceError,
    PicardParams,
    Scenario,
    SolutionRecord,
    StepControl,
    StepControlError,
    check_linfty_growth,
    constant_drift_field,
    coupling_cost,
    dirac,
    kernel_library,
    linear_local_field,
    particles_from_density,
    picard_window,
    polynomial_bump_test,
    sedimentation_field,
    solve,
    solve_direct,
    solve_picard,
    uniform_density_1d,
    w1_series,
    w1_vector,
    weak_form_residual,
    window_length,
)
from nonlocalflow import solver
from nonlocalflow.flow import integrate
from nonlocalflow.kernels import AuditError
from nonlocalflow.scenario import _cosine_bump_1d, load_config, load_raw, load_scenario, scenario_from_config


def bump_particles(n=30, mass=1.0, support=(-1.0, 1.0)):
    dens = _cosine_bump_1d(support[0], support[1], 64)
    dens = GridDensity(1, dens.axes, dens.values * (mass / dens.integral()))
    return particles_from_density(dens, n), dens


def sedimentation_scenario(n=30, horizon=0.4, dt=0.005, kernel=None, **kw):
    kernel = kernel or kernel_library("tent")
    mu, _ = bump_particles(n)
    return Scenario(
        "sed-test",
        sedimentation_field(kernel, mass=1.0),
        MeasureVector((mu,)),
        horizon=horizon,
        step=StepControl(dt),
        **kw,
    )


def test_zero_velocity_snapshots_static():
    model = constant_drift_field([0.0])
    mu, _ = bump_particles(10)
    scn = Scenario("zero", model, MeasureVector((mu,)), horizon=1.0, step=StepControl(0.1))
    rec = solve_direct(scn)
    for state in rec.states:
        assert np.array_equal(state.species[0].positions, mu.positions)


def test_single_dirac_follows_constant_speed_line():
    k = kernel_library("tent")
    scn = Scenario(
        "dirac",
        sedimentation_field(k),
        MeasureVector((dirac([-0.5]),)),
        horizon=1.0,
        step=StepControl(0.01),
    )
    rec = solve_direct(scn)
    eta0 = k.evaluate(0.0, np.zeros((1, 1)))[0]
    for t, state in zip(rec.times, rec.states):
        expected = -0.5 + eta0 * t
        assert abs(state.species[0].positions[0, 0] - expected) <= 1e-8


def test_two_particles_rigid_drift():
    k = kernel_library("tent")
    a = 0.4
    mu = ParticleMeasure(1, np.array([[-a], [a]]), np.array([0.5, 0.5]))
    scn = Scenario(
        "pair", sedimentation_field(k), MeasureVector((mu,)), horizon=0.5,
        step=StepControl(0.01),
    )
    rec = solve_direct(scn)
    pos = rec.final().species[0].positions.ravel()
    assert pos[1] - pos[0] == pytest.approx(2 * a, abs=1e-8)
    speed = 0.5 * k.evaluate(0.0, np.array([[0.0], [2 * a]])).sum()
    assert pos[0] == pytest.approx(-a + speed * 0.5, abs=1e-8)


def test_masses_constant_in_record():
    scn = sedimentation_scenario()
    rec = solve_direct(scn)
    masses = rec.masses()
    assert np.abs(masses - masses[0]).max() == 0.0


def test_scenario_lipschitz_b():
    scn = sedimentation_scenario()
    assert scn.lipschitz_b() == pytest.approx(1.0)  # lip_r=1, lip(eta)=1, mass=1


@pytest.mark.parametrize(
    "initial, message",
    [
        (MeasureVector((dirac([0.0]), dirac([1.0]))),
         "model moves 1 species in dimension 1, initial data has 2 in dimension 1"),
        (MeasureVector((dirac([0.0, 1.0]),)),
         "model moves 1 species in dimension 1, initial data has 1 in dimension 2"),
    ],
    ids=["species-count", "dimension"],
)
def test_scenario_rejects_initial_data_its_model_cannot_move(initial, message):
    with pytest.raises(ValueError, match=message):
        replace(sedimentation_scenario(), initial=initial)


def test_record_needs_one_state_per_time():
    rho = MeasureVector((dirac([0.0]),))
    with pytest.raises(ValueError, match="one state per time"):
        SolutionRecord([0.0, 1.0], [rho])
    with pytest.raises(ValueError, match="one state per time"):
        SolutionRecord([], [])


@pytest.mark.parametrize("times", [[0.0, 0.5, 0.5], [0.0, 0.6, 0.3]])
def test_record_rejects_times_that_do_not_increase(times):
    # every record is a frozen source, which interpolates between its times
    scn = sedimentation_scenario(n=10)
    with pytest.raises(ValueError, match="strictly increasing"):
        SolutionRecord(times, [scn.initial] * len(times))


@pytest.mark.parametrize(
    "params, message",
    [
        ({"tol": float("nan")}, "picard.tol must be finite and positive, got nan"),
        ({"tol": 0.0}, "picard.tol must be finite and positive, got 0.0"),
        ({"max_iter": 0}, "picard.max_iter must be an integer >= 1, got 0"),
        ({"max_iter": 2.5}, "picard.max_iter must be an integer >= 1, got 2.5"),
        ({"max_iter": float("nan")}, "picard.max_iter must be an integer >= 1, got nan"),
    ],
    ids=["tol-nan", "tol-zero", "max_iter-zero", "max_iter-fraction", "max_iter-nan"],
)
def test_picard_params_reject_a_bad_value(params, message):
    with pytest.raises(ValueError, match=message):
        PicardParams(**params)


@pytest.mark.parametrize("seed", [2.5, float("nan"), -1, 2**32], ids=["fraction", "nan", "negative", "2^32"])
def test_scenario_rejects_a_seed_that_is_not_a_32_bit_integer(seed):
    # a negative seed would read the Halton origin, whose log is -inf
    scn = sedimentation_scenario(n=10)
    with pytest.raises(ValueError, match=rf"seed must be an integer from 0 to 2\^32 - 1, got {seed!r}"):
        replace(scn, seed=seed)
    assert replace(scn, seed=2**32 - 1).seed == 2**32 - 1


@pytest.mark.parametrize("t1", [0.0, -0.1])
def test_picard_window_rejects_a_window_whose_times_do_not_increase(t1):
    scn = sedimentation_scenario(n=10)
    with pytest.raises(ValueError, match="strictly increasing"):
        picard_window(scn, 0.0, t1, scn.initial, steps=2)


def test_window_length_examples():
    scn = sedimentation_scenario()

    zero_c = replace(scn, model=constant_drift_field([0.1]))
    assert window_length(zero_c) == pytest.approx(zero_c.horizon)

    c2 = replace(scn, model=linear_local_field(-2.0, 4.0, 1), horizon=10.0,
                 step=StepControl(0.01))
    got = window_length(c2)
    oracle = brentq(lambda t: 2 * t * math.exp(2 * t) - 0.5, 1e-9, 5.0, xtol=1e-13)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(0.1756, abs=1e-3)

    c4 = replace(scn, model=linear_local_field(-4.0, 4.0, 1), horizon=10.0,
                 step=StepControl(0.01))
    # T = W(sigma) / C, so doubling C halves the window
    assert window_length(c4) == pytest.approx(0.5 * window_length(c2), rel=1e-15)


def test_the_window_constant_is_the_lambert_w_of_sigma():
    w = solver._PICARD_CT
    assert w == lambertw(solver.PICARD_SIGMA).real
    assert w * math.exp(w) == pytest.approx(solver.PICARD_SIGMA, rel=1e-15)


def test_window_length_of_a_subnormal_rate_is_the_horizon():
    scn = replace(sedimentation_scenario(), model=linear_local_field(-1e-320, 4.0, 1))
    assert window_length(scn) == scn.horizon


@pytest.mark.parametrize("c", [2.0, 1e-5])
def test_window_length_on_a_long_horizon_matches_the_root(c):
    # exp(C * horizon) overflows, and the window never evaluates it.  At
    # C = 1e-5 the root is near 35173, where adjacent floats are 7.3e-12 apart
    scn = replace(sedimentation_scenario(), model=linear_local_field(-c, 4.0, 1), horizon=1e6,
                  step=StepControl(0.01))
    oracle = brentq(lambda t: c * t * math.exp(c * t) - 0.5, 0.0, 0.5 / c, xtol=1e-13)
    assert window_length(scn) == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize(
    "name", ["sedimentation-1d", "pedestrian-2d", "predator-prey-1d", "sedimentation-smooth-1d"]
)
def test_window_length_keeps_the_contraction_factor_at_or_under_sigma(name):
    scn = scenario_from_config(load_config(name, {"mode": "picard"}))
    c, tw = scn.lipschitz_b(), window_length(scn)
    assert tw < scn.horizon
    assert c * tw * math.exp(c * tw) <= solver.PICARD_SIGMA


def test_window_length_factor_never_exceeds_sigma():
    # W(sigma) / C can round above the root; the window it returns must not
    rng = np.random.default_rng(20)
    scn = replace(sedimentation_scenario(), horizon=1e6)
    for c in 10.0 ** rng.uniform(-3, 3, 300):
        tw = window_length(replace(scn, model=linear_local_field(-c, 4.0, 1), step=StepControl(0.05 / c)))
        assert c * tw * math.exp(c * tw) <= solver.PICARD_SIGMA, (c, tw)


@pytest.mark.parametrize("mode", ["direct", "picard"])
def test_a_scenario_with_a_step_above_the_guard_cannot_be_built(mode):
    # C = 1 and a horizon of 0.5: dt 0.5 is one step of 0.5, where dt * C <= 0.1
    # allows 0.1; in Picard mode it would also be longer than a contracting window
    scn = replace(load_scenario("sedimentation-1d"), mode=mode)
    with pytest.raises(StepControlError) as err:
        replace(scn, step=StepControl(0.5))
    for part in ("dt 0.5", "a step of 0.5", "C = 1.0", "the largest allowed step is 0.1"):
        assert part in str(err.value)
    at_limit = replace(scn, step=StepControl(0.1))
    assert (at_limit.steps, at_limit.dt) == (5, 0.1)
    with pytest.raises(ValueError, match="init=False"):  # the grid is derived, never set
        replace(at_limit, steps=1)


def test_a_scenario_whose_lipschitz_bound_overflows_cannot_be_built():
    # Lip eta = 1e200 at mass 1e150: C overflows while every field bound stays finite
    heavy = MeasureVector((ParticleMeasure(1, np.array([[0.0]]), np.array([1e150])),))
    model = sedimentation_field(kernel_library("tent", scale=1e-200), mass=1e150)
    with pytest.raises(StepControlError, match="Lipschitz bound of b must be finite and >= 0, got inf"):
        Scenario("heavy", model, heavy, horizon=0.5, step=StepControl(0.01))


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.floats(1e-3, 1e3),
    ratio=st.one_of(st.integers(1, 300).map(float), st.floats(1e-3, 300.0)),
)
def test_a_scenario_derives_the_fewest_steps_that_cover_its_horizon(horizon, ratio):
    s = Scenario(
        "grid", constant_drift_field([0.5]), MeasureVector((dirac([0.0]),)), horizon=horizon,
        step=StepControl(horizon / ratio),
    )
    # no step is longer than the requested one, up to rounding, and one step fewer falls short
    assert s.horizon / s.steps <= s.step.dt * (1 + 1e-12)
    assert (s.steps - 1) * s.step.dt < s.horizon
    assert s.dt == s.horizon / s.steps
    times = solve_direct(s).times
    assert len(times) == s.steps + 1
    assert np.array_equal(times, s.dt * np.arange(s.steps + 1))


def test_every_picard_window_but_the_last_holds_three_steps_at_the_guard():
    # dt * C = 0.1 exactly; a window is W(PICARD_SIGMA) / C = 0.3517 long
    scn = replace(load_scenario("sedimentation-1d"), horizon=2.0, step=StepControl(0.1), mode="picard")
    assert scn.dt * scn.lipschitz_b() == 0.1
    edges = np.array(solve(scn).diagnostics["window_edges"])
    spans = np.round(np.diff(edges) / scn.dt)
    assert spans.sum() == scn.steps
    assert (spans[:-1] >= 3).all() and len(spans) > 2


def test_initial_densities_need_one_entry_per_species_of_the_scenario_dimension():
    scn = load_scenario("predator-prey-1d")
    flat = uniform_density_1d(-1.0, 1.0, 8)
    with pytest.raises(ValueError, match="initial_densities has 1 entries for 2 species"):
        replace(scn, initial_densities=(flat,))
    with pytest.raises(ValueError, match="of dimension 2"):
        replace(load_scenario("pedestrian-2d"), initial_densities=(flat,))
    assert replace(scn, initial_densities=(flat, None)).initial_densities == (flat, None)


def test_picard_zero_velocity_single_iteration():
    model = constant_drift_field([0.0])
    mu, _ = bump_particles(8)
    scn = Scenario(
        "zero", model, MeasureVector((mu,)), horizon=0.5, step=StepControl(0.05),
        picard=PicardParams(tol=1e-12),
    )
    traj, dists = picard_window(scn, 0.0, 0.5, scn.initial, steps=scn.steps)
    assert len(dists) == 1
    assert dists[0] <= 1e-15


def test_picard_window_matches_direct():
    scn = sedimentation_scenario(n=50, horizon=0.1, dt=0.002,
                                 picard=PicardParams(tol=1e-10, max_iter=60))
    traj, dists = picard_window(scn, 0.0, 0.1, scn.initial, steps=scn.steps)
    direct = solve_direct(replace(scn, horizon=0.1))
    gap = max(
        w1_vector(a, b)
        for a, b in zip(direct.states, traj.states)
    )
    assert gap <= 1e-6
    assert all(b < a for a, b in zip(dists, dists[1:]))  # decreasing sequence


def test_picard_contraction_ratio_bound():
    scn = sedimentation_scenario(n=40, horizon=0.3, dt=0.003,
                                 picard=PicardParams(tol=1e-10, max_iter=60))
    c = scn.lipschitz_b()
    traj, dists = picard_window(scn, 0.0, 0.3, scn.initial, steps=scn.steps)
    bound = c * 0.3 * math.exp(c * 0.3) + 0.05
    for a, b in zip(dists, dists[1:]):
        if a > 1e-9 and b > 1e-9:
            assert b / a <= bound


def test_picard_max_iter_error_carries_distances():
    scn = sedimentation_scenario(n=20, horizon=0.3, dt=0.003,
                                 picard=PicardParams(tol=1e-16, max_iter=3))
    with pytest.raises(PicardConvergenceError) as err:
        picard_window(scn, 0.0, 0.3, scn.initial, steps=scn.steps)
    assert len(err.value.distances) == 3


@pytest.mark.parametrize("name", ["pedestrian-2d", "predator-prey-1d"])
def test_picard_distance_is_the_identity_coupling_and_exact_w1(name):
    # two successive iterates push the same particles of rho_0, and pairing
    # each particle with itself is their optimal coupling
    scn = scenario_from_config(load_config(name, {"mode": "picard"}))
    steps = 5
    t1 = steps * scn.step.dt
    _, dists = picard_window(scn, 0.0, t1, scn.initial, steps=steps)
    masses = scn.initial.masses()
    frozen = SolutionRecord([0.0, t1], [scn.initial, scn.initial])
    first = integrate(scn.model, frozen, scn.initial, 0.0, t1, steps)
    second = integrate(scn.model, first, scn.initial, 0.0, t1, steps)
    for dist, rec, prev in ((dists[0], first, frozen), (dists[1], second, first)):
        targets = [prev.at(t) for t in rec.times[1:]]
        coupling = max(
            sum(
                coupling_cost(a.weights, a.positions, b.positions) / mass
                for a, b, mass in zip(state.species, target.species, masses)
            )
            for state, target in zip(rec.states[1:], targets)
        )
        exact = sum(
            w1_series(
                (MeasureVector((a.species[i],)), MeasureVector((b.species[i],)))
                for a, b in zip(rec.states[1:], targets)
            ) / mass
            for i, mass in enumerate(masses)
        ).max()
        assert dist == coupling
        assert dist == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_solve_picard_agrees_with_direct():
    scn = sedimentation_scenario(
        n=40, horizon=0.5, dt=0.004, kernel=kernel_library("bump-poly", 1, 1.2, 0.8),
        picard=PicardParams(tol=1e-9, max_iter=80),
    )
    direct = solve_direct(scn)
    picard = solve_picard(replace(scn, mode="picard"))
    assert np.allclose(direct.times, picard.times)
    gap = max(w1_vector(a, b) for a, b in zip(direct.states, picard.states))
    assert gap <= 1e-6
    assert picard.diagnostics["picard_distances"]


def test_solve_picard_zero_field_static():
    model = constant_drift_field([0.0])
    mu, _ = bump_particles(6)
    scn = Scenario(
        "zero", model, MeasureVector((mu,)), horizon=1.0, step=StepControl(0.1),
        mode="picard",
    )
    rec = solve_picard(scn)
    for state in rec.states:
        assert np.allclose(state.species[0].positions, mu.positions)


def test_solve_picard_restores_original_masses():
    # a species of non-unit mass keeps its weight array through every window
    k = kernel_library("tent")
    mu, _ = bump_particles(20, mass=2.5)
    scn = Scenario(
        "mass", sedimentation_field(k, mass=2.5), MeasureVector((mu,)),
        horizon=0.1, step=StepControl(0.002), mode="picard",
        picard=PicardParams(tol=1e-10, max_iter=60),
    )
    rec = solve_picard(scn)
    masses = rec.masses()
    assert np.abs(masses - 2.5).max() == 0.0
    for state in rec.states:
        assert state.species[0].weights is mu.weights
    direct = solve_direct(replace(scn, mode="direct"))
    gap = max(w1_vector(a, b) for a, b in zip(direct.states, rec.states))
    assert gap <= 1e-6


def test_picard_distance_is_mass_normalised():
    # mass 2.5 against the same cloud at unit mass with a 2.5x kernel: one
    # dynamics, so the same iterates and the same normalised distances
    mu, _ = bump_particles(40, mass=2.5)
    unit = ParticleMeasure(1, mu.positions, mu.weights / 2.5)
    common = dict(horizon=0.4, step=StepControl(0.004), mode="picard",
                  picard=PicardParams(tol=1e-10, max_iter=60))
    heavy = Scenario("heavy", sedimentation_field(kernel_library("tent"), mass=2.5),
                     MeasureVector((mu,)), **common)
    light = Scenario("light", sedimentation_field(kernel_library("tent", height=2.5)),
                     MeasureVector((unit,)), **common)
    a, b = solve_picard(heavy), solve_picard(light)
    da, db = a.diagnostics["picard_distances"], b.diagnostics["picard_distances"]
    assert len(da) > 1
    assert [len(d) for d in da] == [len(d) for d in db]
    assert max(abs(x - y) for xs, ys in zip(da, db) for x, y in zip(xs, ys)) <= 1e-14
    gap = max(np.abs(sa.species[0].positions - sb.species[0].positions).max()
              for sa, sb in zip(a.states, b.states))
    assert gap <= 1e-12


@pytest.mark.parametrize("name", ["sedimentation-smooth-1d", "linear-local-compressive-1d"])
def test_solve_picard_tracked_densities_match_direct(name):
    cfg = load_config(name, {"mode": "picard"})
    cfg["density_tracking"] = True
    scn = scenario_from_config(cfg)
    picard = solve(scn)
    direct = solve(replace(scn, mode="direct"))
    assert len(picard.densities) == len(direct.densities) == len(picard.times)
    gap = max(
        np.abs(np.log(p) - np.log(d)).max()
        for dp, dd in zip(picard.densities, direct.densities)
        for p, d in zip(dp, dd)
    )
    assert gap <= 1e-7
    assert check_linfty_growth(scn, record=picard).passed


def test_only_solve_attaches_tracked_densities():
    # the two solvers move particles only; solve adds the density pass in either mode
    _, dens = bump_particles()
    scn = sedimentation_scenario(horizon=0.05, dt=0.01, initial_densities=(dens,))
    for mode, particles_only in (("direct", solve_direct), ("picard", solve_picard)):
        tracked = replace(scn, mode=mode)
        assert particles_only(tracked).densities is None
        record = solve(tracked)
        assert len(record.densities) == len(record.times)
        np.testing.assert_array_equal(record.densities[0][0], dens.value_at(tracked.initial.species[0].positions))


def test_solve_dispatch():
    # only a Picard solve chains windows, and only its record names their edges
    scn = sedimentation_scenario(horizon=0.05, dt=0.005)
    assert "window_edges" not in solve(scn).diagnostics
    assert "window_edges" in solve(replace(scn, mode="picard")).diagnostics


def test_weak_residual_zero_function():
    scn = sedimentation_scenario(horizon=0.1, dt=0.005)
    rec = solve_direct(scn)
    zero = polynomial_bump_test([10.0], 0.5, scn.horizon)  # support misses everything
    assert weak_form_residual(rec, scn.model, zero) == 0.0


def test_weak_residual_static_time_independent():
    model = constant_drift_field([0.0])
    mu, _ = bump_particles(10)
    scn = Scenario("zero", model, MeasureVector((mu,)), horizon=0.5, step=StepControl(0.05))
    rec = solve_direct(scn)

    from nonlocalflow.solver import TestFunction

    def psi(x):
        return np.cos(np.atleast_2d(x)[:, 0])

    phi = TestFunction(
        value=lambda t, x: psi(x),
        dt_value=lambda t, x: np.zeros(np.atleast_2d(x).shape[0]),
        grad=lambda t, x: -np.sin(np.atleast_2d(x)),
    )
    assert weak_form_residual(rec, scn.model, phi) <= 1e-12


def test_weak_residual_second_order_in_dt():
    scn = sedimentation_scenario(
        n=40, horizon=0.4, dt=0.02, kernel=kernel_library("bump-poly", 1, 1.2, 0.8)
    )
    phi = polynomial_bump_test([0.2], 1.5, scn.horizon)
    coarse = weak_form_residual(solve_direct(scn), scn.model, phi)
    fine = weak_form_residual(
        solve_direct(replace(scn, step=StepControl(0.01))), scn.model, phi
    )
    assert 3.5 <= coarse / fine <= 4.5


def test_solve_stops_where_a_particle_leaves_its_field_s_domain():
    # x(t) = x0 e^t leaves |x| <= 4 near t = 1.68 from x0 = 0.75; the
    # bundled horizon of 1 stays inside
    raw = load_raw("linear-local-expansive-1d")
    solve(scenario_from_config(raw))
    raw["horizon"] = 2.0
    with pytest.raises(AuditError, match=r"species\[0\] at t = 1.68 has a particle at x = \[4.02"):
        solve(scenario_from_config(raw))
