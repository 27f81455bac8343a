import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocalflow import (
    GridDensity,
    MeasureVector,
    NonFiniteStateError,
    ParticleMeasure,
    SolutionRecord,
    StepControl,
    StepControlError,
    VelocityModel,
    constant_drift_field,
    dirac,
    flow_map_lipschitz_probe,
    kernel_library,
    linear_local_field,
    lipschitz_bound_b,
    particles_from_density,
    rk4_step,
    sedimentation_field,
    solve_direct,
    transported_densities,
    uniform_density_1d,
    w1_1d,
)
from nonlocalflow import flow
from nonlocalflow.flow import PROBE_SEPARATION, integrate
from nonlocalflow.solver import Scenario, solve, solve_picard
from nonlocalflow.scenario import _cosine_bump_1d, load_scenario
from dataclasses import replace


def unit_bump(n=12):
    dens = _cosine_bump_1d(-0.5, 0.5, 64)
    dens = GridDensity(1, dens.axes, dens.values / dens.integral())
    return particles_from_density(dens, n), dens


def test_zero_field_step_is_identity():
    model = constant_drift_field([0.0])
    rho = MeasureVector((dirac([0.7]),))
    nxt = rk4_step(model, None, rho, 0.0, 0.05)
    assert np.array_equal(nxt.species[0].positions, rho.species[0].positions)


def test_constant_field_exact_shift():
    model = constant_drift_field([0.3, -0.1])
    mu = ParticleMeasure(2, np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([1.0, 1.0]))
    nxt = rk4_step(model, None, MeasureVector((mu,)), 0.0, 0.2)
    assert np.allclose(
        nxt.species[0].positions, mu.positions + 0.2 * np.array([0.3, -0.1]),
        atol=1e-15,
    )


def test_linear_field_one_step_matches_taylor_degree_4():
    alpha, dt, x0 = 0.7, 0.1, 1.3
    model = linear_local_field(alpha, 5.0, 1)
    nxt = rk4_step(model, None, MeasureVector((dirac([x0]),)), 0.0, dt)
    a = alpha * dt
    taylor = x0 * (1 + a + a**2 / 2 + a**3 / 6 + a**4 / 24)
    assert nxt.species[0].positions[0, 0] == pytest.approx(taylor, abs=1e-15)
    # degree-4 truncation of the exponential: error O(dt^5)
    assert abs(taylor - x0 * np.exp(a)) < (abs(alpha) * dt) ** 5


def test_rk4_self_convergence_order():
    # analytic configuration: the bump, separations inside the support
    k = kernel_library("bump-poly", 1, scale=2.0, height=2.0)
    model = sedimentation_field(k, mass=1.0)
    mu, _ = unit_bump()
    scn = Scenario("probe", model, MeasureVector((mu,)), horizon=1.0, step=StepControl(0.05))
    ref = solve_direct(replace(scn, step=StepControl(0.00125)))
    target = np.vstack(ref.final().positions())
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        rec = solve_direct(replace(scn, step=StepControl(dt)))
        errs.append(np.abs(np.vstack(rec.final().positions()) - target).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(3.5 <= o <= 4.5 for o in orders), orders


def test_step_control_violation():
    model = linear_local_field(-4.0, 2.0, 1)  # C = 4
    with pytest.raises(StepControlError, match="dt too large"):
        rk4_step(model, None, MeasureVector((dirac([0.5]),)), 0.0, 0.1)  # 0.4 > courant 0.1


def test_the_step_guard_is_fixed():
    assert StepControl(0.01).courant == 0.1
    with pytest.raises(TypeError):
        StepControl(0.01, 0.5)


def test_mass_conserved_bit_exactly_along_flow():
    k = kernel_library("tent")
    model = sedimentation_field(k)
    mu, _ = unit_bump(20)
    rho = MeasureVector((mu,))
    m0 = float(np.sum(rho.species[0].weights))
    for j in range(50):
        rho = rk4_step(model, None, rho, 0.01 * j, 0.01)
    assert float(np.sum(rho.species[0].weights)) == m0
    assert rho.species[0].weights is mu.weights


def _transported(model, mu, dens, dt, steps):
    """Initial and final transported density of ``steps`` RK4 steps from ``mu``."""
    record = integrate(model, None, MeasureVector((mu,)), 0.0, dt * steps, steps)
    densities = transported_densities(model, record, dt, (dens.value_at(mu.positions),))
    return densities[0][0], densities[-1][0]


def test_divergence_free_transport_keeps_density():
    model = constant_drift_field([0.4])
    mu, dens = unit_bump()
    _, final = _transported(model, mu, dens, 0.01, 20)
    assert np.allclose(final, dens.value_at(mu.positions), rtol=1e-12)


def test_linear_field_density_factor():
    # V = alpha x transports density by the factor exp(-alpha t)
    alpha, t_end, dt = 1.0, 0.5, 1e-3
    model = linear_local_field(alpha, 5.0, 1)
    mu, dens = unit_bump()
    steps = int(round(t_end / dt))
    _, final = _transported(model, mu, dens, dt, steps)
    factor = final / dens.value_at(mu.positions)
    assert np.allclose(factor, np.exp(-alpha * t_end), atol=1e-6)


def test_two_particle_symmetry_divergence_zero():
    # separation beyond the kernel support: only the odd-symmetry self term
    # remains, so div V vanishes at both particles
    k = kernel_library("tent", 1, scale=1.0, height=1.0)
    model = sedimentation_field(k)
    mu = ParticleMeasure(1, np.array([[-0.75], [0.75]]), np.array([0.5, 0.5]))
    dens = GridDensity(
        1,
        (uniform_density_1d(-1.0, 1.0, 16).axes[0],),
        np.ones(16) * 0.5,
    )
    initial, final = _transported(model, mu, dens, 0.01, 30)
    assert np.allclose(final, initial, atol=1e-8)


def test_non_finite_divergence_stops_a_tracked_solve(monkeypatch):
    # positions stay finite; the divergence turns NaN after t = 0.1, and the
    # midpoint clock of step index 2 is 0.125
    divergence = flow.divergence_at

    def broken(model, source, i, t, points):
        return np.full(len(points), np.nan) if t > 0.1 else divergence(model, source, i, t, points)

    monkeypatch.setattr(flow, "divergence_at", broken)
    mu, dens = unit_bump()
    scn = Scenario(
        "nan-div", constant_drift_field([0.3]), MeasureVector((mu,)), horizon=0.5,
        step=StepControl(0.05), initial_densities=(dens,),
    )
    # the particles alone solve; the density pass in solve stops with the fingerprint
    assert solve_direct(scn).times[-1] == 0.5
    fp = re.escape(json.dumps(scn.fingerprint(), sort_keys=True))
    with pytest.raises(NonFiniteStateError, match=r"non-finite state after step index 2 \(t = 0\.15.* in " + fp):
        solve(scn)


def _probe(model, init, horizon, dt):
    """The probe ratio on the record of a direct solve of ``init``."""
    scn = Scenario("probe", model, init, horizon=horizon, step=StepControl(dt))
    return flow_map_lipschitz_probe(model, solve_direct(scn))


def test_lipschitz_probe_zero_field():
    model = constant_drift_field([0.0])
    init = MeasureVector((dirac([0.0]),))
    ratio = _probe(model, init, horizon=1.0, dt=0.1)
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_lipschitz_probe_contracting_field():
    model = linear_local_field(-1.0, 5.0, 1)
    init = MeasureVector((dirac([0.5]),))
    ratio = _probe(model, init, horizon=1.0, dt=0.01)
    assert ratio == pytest.approx(np.exp(-1.0), rel=1e-6)
    assert ratio <= 1.0


def test_lipschitz_probe_uses_the_solver_step_grid():
    # 0.14 / 0.02 rounds to 7.000000000000001: the solver's grid takes 7
    # steps of 0.02, and the gap of a linear field shrinks by the RK4
    # amplification R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 per step.  The
    # tolerance is rounding: an ulp of a tracer near 1 over the 1e-3 gap is
    # 2.2e-13; an 8-step grid misses by 6.8e-11
    model = linear_local_field(-1.0, 5.0, 1)
    init = MeasureVector((dirac([0.5]),))
    ratio = _probe(model, init, horizon=0.14, dt=0.02)
    z = -0.02
    amplification = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    assert abs(ratio - amplification**7) <= 1e-12


def test_lipschitz_probe_within_gronwall_bound():
    k = kernel_library("tent", 1, scale=0.8)
    model = sedimentation_field(k)
    mu, _ = unit_bump(15)
    init = MeasureVector((mu,))
    horizon = 0.4
    ratio = _probe(model, init, horizon, dt=0.005)
    bound = np.exp(lipschitz_bound_b(model, init.total_measure()) * horizon)
    assert ratio <= bound * 1.01


def test_time_continuity_surrogate():
    # particles move at bounded speed: W1(rho_t, rho_s) <= sup|V| |t - s|
    k = kernel_library("tent")
    model = sedimentation_field(k)
    mu, _ = unit_bump(25)
    scn = Scenario("tc", model, MeasureVector((mu,)), horizon=0.5, step=StepControl(0.01))
    rec = solve_direct(scn)
    sup_v = model.sup_bound
    for j in range(0, len(rec.times) - 1, 7):
        for l in range(j + 1, len(rec.times), 11):
            gap = w1_1d(rec.states[j].species[0], rec.states[l].species[0])
            assert gap <= sup_v * (rec.times[l] - rec.times[j]) * (
                rec.states[0].total_measure()
            ) + 1e-9


def test_trajectory_interpolation():
    mu = dirac([0.0])
    a = MeasureVector((mu,))
    b = MeasureVector((mu.with_positions(np.array([[1.0]])),))
    traj = SolutionRecord([0.0, 1.0], [a, b])
    assert traj.at(-1.0).species[0].positions[0, 0] == 0.0
    assert traj.at(0.25).species[0].positions[0, 0] == pytest.approx(0.25)
    assert traj.at(1.0).species[0].positions[0, 0] == 1.0
    assert traj.at(5.0).species[0].positions[0, 0] == 1.0


def test_solve_stops_at_the_first_non_finite_step():
    # stage clocks of step 2 are 0.1, 0.125 and 0.15; the field breaks after 0.1
    def drift(t, xs, rs):
        return np.full_like(xs, np.nan if t > 0.1 else 0.3)

    base = constant_drift_field([0.3])
    model = VelocityModel((replace(base.fields[0], evaluate=drift),), base.kernels)
    scn = Scenario("nan", model, MeasureVector((dirac([0.0]),)), horizon=0.5, step=StepControl(0.05))
    with pytest.raises(ValueError, match=r"non-finite state after step index 2 \(t = 0\.15"):
        solve_direct(scn)


def _clocked_drift():
    """A constant drift whose field records every time it is called at."""
    calls = []

    def drift(t, xs, rs):
        calls.append(t)
        return np.full_like(xs, 0.3)

    base = constant_drift_field([0.3])
    return VelocityModel((replace(base.fields[0], evaluate=drift),), base.kernels), calls


def test_step_j_starts_at_the_record_time():
    # ten steps of 0.1: an accumulated clock reaches 0.7999999999999999 where
    # the record holds 0.1 * 8 = 0.8; each step evaluates four stages
    model, calls = _clocked_drift()
    init = MeasureVector((dirac([0.0]),))
    direct = solve_direct(Scenario("clock", model, init, horizon=1.0, step=StepControl(0.1)))
    assert calls[::4] == list(direct.times[:-1])
    calls.clear()
    frozen = integrate(model, direct, init, 0.3, 1.0, 7)
    assert calls[::4] == list(frozen.times[:-1])
    assert frozen.times[0] == 0.3 and frozen.times[-1] == 1.0


def test_frozen_step_check_uses_the_source_mass():
    # sedimentation with a tent kernel: C = Lip(eta) * mass, and dt = 0.1
    # allows C <= 1 at courant 0.1
    model = sedimentation_field(kernel_library("tent", 1, scale=1.0, height=1.0))
    light = MeasureVector((dirac([0.0], weight=1.0),))
    heavy = MeasureVector((dirac([0.2], weight=10.0),))
    light_source = SolutionRecord([0.0, 1.0], [light, light])
    heavy_source = SolutionRecord([0.0, 1.0], [heavy, heavy])
    moved = rk4_step(model, light_source, heavy, 0.0, 0.1)
    assert np.isfinite(moved.species[0].positions).all()
    with pytest.raises(StepControlError, match="dt too large"):
        rk4_step(model, heavy_source, light, 0.0, 0.1)


def test_sedimentation_probe_rides_the_run_record_in_both_modes():
    # the probe along the direct record reads 1.2567640274165066; along the
    # Picard record it differs at O(dt^2) only (6e-9 relative)
    scn = load_scenario("sedimentation-1d")
    for record in (solve_direct(scn), solve_picard(scn)):
        ratio = flow_map_lipschitz_probe(scn.model, record, seed=scn.seed)
        assert ratio == pytest.approx(1.2567640274165066, rel=1e-7)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), seed=st.integers(0, 10**6))
def test_probe_offsets_are_deterministic_and_probe_separation_long(dim, seed):
    offsets = flow._probe_offsets(dim, seed)
    lengths = np.linalg.norm(offsets, axis=1)
    assert (lengths > 0.0).all()
    np.testing.assert_allclose(lengths, PROBE_SEPARATION, rtol=1e-15, atol=0.0)
    assert np.array_equal(offsets, flow._probe_offsets(dim, seed))


def test_probe_runs_on_a_dirac_species():
    scn = load_scenario("predator-prey-1d")
    record = solve_direct(scn)
    bound = np.exp(scn.lipschitz_b() * scn.horizon)
    ratio = flow_map_lipschitz_probe(scn.model, record)
    assert np.isfinite(ratio) and 0.0 < ratio <= bound * 1.01
