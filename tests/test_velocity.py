import math
import re

import numpy as np
import pytest

from nonlocalflow import (
    AuditError,
    KernelMatrix,
    MeasureVector,
    ParticleMeasure,
    VelocityField,
    VelocityModel,
    _accel,
    audit_model,
    audit_velocity_field,
    constant_drift_field,
    dirac,
    kernel_library,
    linear_local_field,
    lipschitz_bound_b,
    odd_ramp_kernel,
    pedestrian_field,
    scale_kernel,
    sedimentation_field,
    solve_direct,
    velocity_batch,
    zero_kernel,
)
from nonlocalflow.scenario import load_scenario


def velocity_at(model, rho, i, x):
    return velocity_batch(model, rho, i, 0.0, np.array([x], dtype=float))[0]


def test_zero_field_everywhere():
    model = constant_drift_field([0.0, 0.0])
    rho = MeasureVector((dirac([0.3, -0.4]),))
    v = velocity_at(model, rho, 0, [1.0, 2.0])
    assert v.shape == (2,)
    assert np.allclose(v, 0.0)


def test_sedimentation_dirac_velocity_is_kernel_at_zero():
    k = kernel_library("tent", 1, scale=1.0, height=0.8)
    model = sedimentation_field(k)
    p = np.array([0.37])
    rho = MeasureVector((dirac(p),))
    v = velocity_at(model, rho, 0, p)
    assert v[0] == pytest.approx(k.evaluate(0.0, np.zeros((1, 1)))[0])


def test_constant_kernel_reduces_to_local_field():
    # layout-independent at fixed masses
    k = kernel_library("constant", 1, height=0.5)
    model = sedimentation_field(k)
    rng = np.random.default_rng(2)
    w = rng.uniform(0.1, 1.0, 8)
    a = MeasureVector((ParticleMeasure(1, rng.normal(size=(8, 1)), w),))
    b = MeasureVector((ParticleMeasure(1, rng.normal(size=(8, 1)), w),))
    va = velocity_at(model, a, 0, [0.123])
    vb = velocity_at(model, b, 0, [0.123])
    assert va[0] == pytest.approx(vb[0], abs=1e-12)


def test_pedestrian_examples():
    k = kernel_library("tent", 2)
    model = pedestrian_field(k, 1.0, 1.0, vector=[1.0, 0.0])
    field = model.fields[0]
    xs = np.zeros((3, 2))
    rs = np.array([[1.0], [0.0], [0.25]])
    v = field.evaluate(0.0, xs, rs)
    assert np.allclose(v[0], 0.0)  # congestion stop
    assert np.allclose(v[1], [1.0, 0.0])  # free speed
    assert np.allclose(v[2], [0.75, 0.0])


def test_pedestrian_metadata_composition():
    k = kernel_library("bump-poly", 2, scale=0.8, height=0.5)
    model = pedestrian_field(k, 2.0, 0.5, target=[1.0, 1.0])
    audit_model(model, box_radius=2.0, mass=0.5)


# (v_max, r_crit, direction kwargs, sup dir, Lip dir)
PEDESTRIANS = [
    (2.0, 0.5, {"target": [1.0, 1.0]}, 1.0, 1.0),
    (1.5, 0.7, {"vector": [0.3, -0.4]}, 0.5, 0.0),
]


@pytest.mark.parametrize("v_max, r_crit, way, sup_dir, lip_dir", PEDESTRIANS)
def test_pedestrian_field_is_congestion_speed_times_direction_bit_for_bit(v_max, r_crit, way, sup_dir, lip_dir):
    model = pedestrian_field(kernel_library("tent", 2), v_max, r_crit, **way)
    gx, gr = np.meshgrid(np.linspace(-3.0, 3.0, 7), np.linspace(-1.0, 2.0, 13))  # r above r_crit and below 0
    xs = np.column_stack([gx.ravel(), -0.5 * gx.ravel()])
    rs = gr.reshape(-1, 1)
    speed = v_max * np.clip(1.0 - rs[:, 0] / r_crit, 0.0, 1.0)
    if "target" in way:
        u = np.asarray(way["target"]) - xs
        direction = u / np.sqrt(1.0 + np.sum(u * u, axis=1, keepdims=True))
    else:
        direction = np.tile(way["vector"], (len(xs), 1))
    assert np.array_equal(model.fields[0].evaluate(0.0, xs, rs), speed[:, None] * direction)


@pytest.mark.parametrize("v_max, r_crit, way, sup_dir, lip_dir", PEDESTRIANS)
def test_pedestrian_bounds_are_the_exact_products(v_max, r_crit, way, sup_dir, lip_dir):
    (f,) = pedestrian_field(kernel_library("bump-poly", 2), v_max, r_crit, **way).fields
    # sup v = v_max and Lip v = v_max / r_crit
    assert (f.sup_bound, f.lip_x, f.lip_r) == (v_max * sup_dir, v_max * lip_dir, v_max / r_crit * sup_dir)


@pytest.mark.parametrize("way", [{}, {"vector": [1.0, 0.0], "target": [1.0, 1.0]}])
def test_pedestrian_field_takes_exactly_one_direction(way):
    with pytest.raises(ValueError, match="exactly one of vector and target"):
        pedestrian_field(kernel_library("tent", 2), 1.0, 1.0, **way)


def test_lipschitz_bound_b_examples():
    k_half = kernel_library("tent", 1, scale=2.0, height=1.0)  # lip 0.5
    kernels = sedimentation_field(k_half).kernels
    field = VelocityField(1, 1, lambda t, xs, rs: xs, sup_bound=1.0, lip_x=1.0, lip_r=2.0)
    model = VelocityModel((field,), kernels)
    assert lipschitz_bound_b(model, 1.0) == pytest.approx(1.0 + 2.0 * 0.5 * 1.0)

    no_r = VelocityField(1, 1, lambda t, xs, rs: xs, sup_bound=1.0, lip_x=1.0, lip_r=0.0)
    model2 = VelocityModel((no_r,), kernels)
    assert lipschitz_bound_b(model2, 7.0) == pytest.approx(1.0)

    const = kernel_library("constant", 1, height=3.0)
    model3 = sedimentation_field(const)  # lip_x(eta) = 0
    assert lipschitz_bound_b(model3, 5.0) == pytest.approx(model3.lip_x)


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["sup_bound", "lip_x", "lip_r"])
def test_velocity_field_rejects_a_bad_declared_bound(name, value):
    honest = {"sup_bound": 1.0, "lip_x": 1.0, "lip_r": 0.0}
    with pytest.raises(ValueError, match=f"velocity field {name} must be finite and >= 0, got {value!r}"):
        VelocityField(1, 1, lambda t, xs, rs: xs, **{**honest, name: value})


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_velocity_field_rejects_a_bad_domain_radius(radius):
    with pytest.raises(ValueError, match=f"velocity field domain_radius must be > 0, got {radius!r}"):
        VelocityField(1, 1, lambda t, xs, rs: xs, 1.0, 1.0, 0.0, domain_radius=radius)


@pytest.mark.parametrize("lip_x", [-1.0, float("nan")])
def test_lipschitz_bound_b_rejects_a_negative_or_nan_bound(lip_x):
    # construction refuses such a declaration; set past it, the bound refuses it too
    field = VelocityField(1, 1, lambda t, xs, rs: xs, sup_bound=1.0, lip_x=1.0, lip_r=0.0)
    object.__setattr__(field, "lip_x", lip_x)
    model = VelocityModel((field,), sedimentation_field(kernel_library("tent")).kernels)
    with pytest.raises(ValueError, match="finite and >= 0"):
        lipschitz_bound_b(model, 1.0)


def test_lipschitz_bound_b_rejects_an_overflowing_bound():
    # finite declarations whose C = Lip_x + Lip_r * Lip_x(eta) * mass is inf
    field = VelocityField(1, 1, lambda t, xs, rs: xs, sup_bound=1.0, lip_x=1.0, lip_r=1e300)
    model = VelocityModel((field,), sedimentation_field(kernel_library("tent", height=1e300)).kernels)
    with pytest.raises(ValueError, match="finite and >= 0, got inf"):
        lipschitz_bound_b(model, 1.0)


def test_effective_field_lipschitz_within_bound():
    k = kernel_library("tent", 1, scale=0.7, height=0.9)
    model = sedimentation_field(k)
    rng = np.random.default_rng(8)
    rho = MeasureVector(
        (ParticleMeasure(1, rng.normal(size=(25, 1)), np.full(25, 1.0 / 25)),)
    )
    bound = lipschitz_bound_b(model, rho.total_measure())
    xs = rng.uniform(-2, 2, size=(400, 1))
    ys = rng.uniform(-2, 2, size=(400, 1))
    vx = velocity_batch(model, rho, 0, 0.0, xs)
    vy = velocity_batch(model, rho, 0, 0.0, ys)
    gaps = np.abs(xs - ys).ravel()
    ok = gaps > 1e-9
    ratio = np.abs(vx - vy).ravel()[ok] / gaps[ok]
    assert ratio.max() <= bound + 1e-8


def _coupling_model(predator, prey_mass=1.0):
    """Prey species 0 and a one-particle predator species 1 under its own law."""
    repulsion = odd_ramp_kernel(0.5, 0.3)
    attraction = scale_kernel(odd_ramp_kernel(1.0, 0.4), -1.0)
    kernels = KernelMatrix(
        ((zero_kernel(1), repulsion), (attraction, zero_kernel(1)))
    )
    ball = (prey_mass + 1.0) * kernels.sup_bound
    prey = VelocityField(
        1, 2,
        lambda t, xs, rs: (rs[:, 0] + rs[:, 1])[:, None],
        sup_bound=ball, lip_x=0.0, lip_r=1.0,
    )
    return VelocityModel((prey, predator), kernels)


def test_a_predator_whose_lip_x_lies_fails_the_audit():
    # V = 5 x for the predator, declared with Lip_x 0: the audit samples x
    # like any other species' and names the pair that breaks the slope
    liar = VelocityField(1, 2, lambda t, xs, rs: 5.0 * xs, sup_bound=10.0, lip_x=0.0, lip_r=0.0)
    with pytest.raises(AuditError, match=r"velocity Lip_x audit failed: slope 5\.0.* between x=\["):
        audit_model(_coupling_model(liar), box_radius=2.0, mass=2.0)


def test_predator_ignoring_prey_follows_standalone_ode():
    drift = np.array([0.25])
    predator = VelocityField(1, 2, lambda t, xs, rs: np.tile(drift, (len(xs), 1)), 0.25, 0.0, 0.0)
    model = _coupling_model(predator)
    prey = ParticleMeasure(1, np.linspace(0, 1, 9).reshape(-1, 1), np.full(9, 1.0 / 9))
    state = MeasureVector((prey, dirac([2.0])))
    v = velocity_at(model, state, 1, [2.0])
    assert np.allclose(v, drift)


def test_prey_outside_repulsion_support_unaffected():
    predator = VelocityField(1, 2, lambda t, xs, rs: np.zeros_like(xs), 1.0, 0.0, 0.0)
    model = _coupling_model(predator)
    prey = ParticleMeasure(1, np.array([[0.0]]), np.array([1.0]))
    predator_far = dirac([5.0])  # repulsion support is |x - p| <= 1.0
    state = MeasureVector((prey, predator_far))
    v = velocity_at(model, state, 0, [0.0])
    assert np.allclose(v, 0.0)
    predator_near = dirac([0.25])
    state2 = MeasureVector((prey, predator_near))
    v2 = velocity_at(model, state2, 0, [0.0])
    assert v2[0] == pytest.approx(0.3 * (-0.25) / 0.5)  # flees leftward


def test_linear_local_and_drift_metadata():
    model = linear_local_field(-1.5, 2.0, 1)
    assert model.lip_x == pytest.approx(1.5)
    assert model.lip_r == 0.0
    # its sup 3 holds on |x| <= 2: a box of 10 is cut to that domain
    audit_model(model, box_radius=10.0, mass=1.0)

    drift = constant_drift_field([0.3, -0.4])
    assert drift.sup_bound == pytest.approx(0.5)
    audit_model(drift, box_radius=3.0, mass=1.0)


@pytest.mark.parametrize("model", [linear_local_field(-1.5, 2.0, 2), constant_drift_field([0.3, -0.4])])
def test_a_field_that_reads_no_r_carries_the_zero_kernel(model):
    assert model.kernels.entries == ((zero_kernel(2),),)


@pytest.mark.parametrize("name", ["linear-local-expansive-1d", "zero-field-1d"])
def test_a_solve_of_a_field_that_reads_no_r_sums_no_kernel(monkeypatch, name):
    calls = []
    real = _accel.radial_sum

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_accel, "radial_sum", counted)
    solve_direct(load_scenario(name))
    assert calls == []


def test_velocity_audit_catches_false_lipschitz():
    field = VelocityField(
        1, 1, lambda t, xs, rs: 2.0 * xs, sup_bound=10.0, lip_x=1.0, lip_r=0.0
    )
    with pytest.raises(AuditError, match="Lip_x"):
        audit_velocity_field(field, box_radius=2.0, r_radius=1.0)


@pytest.mark.parametrize(
    "declared, message",
    [
        ({"sup_bound": 1.0}, r"velocity sup audit failed: \|V\(0.0, \["),
        ({"lip_x": 0.5}, r"Lip_x audit failed: slope .* between x=\["),
        ({"lip_r": 1.0}, r"Lip_r audit failed: slope .* between r=\["),
        # a comparison with NaN is False, so a check must fail unless it holds
        ({"sup_bound": float("nan")}, r"velocity sup audit failed: \|V\(0.0, \["),
        ({"lip_x": float("nan")}, r"Lip_x audit failed: slope .* between x=\["),
        ({"lip_r": float("nan")}, r"Lip_r audit failed: slope .* between r=\["),
    ],
)
def test_velocity_audit_names_the_witness_of_each_lie(declared, message):
    # V = x + 2 r_0 - 1 on |x| <= 2, |r|_1 <= 1: sup 5, Lip_x 1, Lip_r 2
    honest = {"sup_bound": 5.0, "lip_x": 1.0, "lip_r": 2.0}

    def law(t, xs, rs):
        return xs + 2.0 * rs[:, :1] - 1.0

    audit_velocity_field(VelocityField(1, 2, law, **honest), 2.0, 1.0)
    # construction refuses a NaN declaration; set past it, the audit refuses it too
    lying = VelocityField(1, 2, law, **honest)
    for name, value in declared.items():
        object.__setattr__(lying, name, value)
    with pytest.raises(AuditError, match=message):
        audit_velocity_field(lying, box_radius=2.0, r_radius=1.0)


@pytest.mark.parametrize("call, message", [(0, "velocity sup audit"), (1, "Lip_x audit"), (2, "Lip_r audit")])
def test_velocity_audit_rejects_a_nan_witness(call, message):
    # the audit evaluates at (x, r), (y, r) and (x, q) in that order; one NaN
    # value in the chosen call is the witness of that check
    calls = []

    def law(t, xs, rs):
        v = xs + 2.0 * rs[:, :1] - 1.0
        if len(calls) == call:
            v[7] = np.nan
        calls.append(call)
        return v

    field = VelocityField(1, 2, law, sup_bound=5.0, lip_x=1.0, lip_r=2.0)
    with pytest.raises(AuditError, match=f"{message} failed: .*nan"):
        audit_velocity_field(field, box_radius=2.0, r_radius=1.0)


@pytest.mark.parametrize("share, passed", [(1.0, True), (0.9, False)])
def test_velocity_audit_measures_a_speed_whose_square_overflows(share, passed):
    # |V| = 1e200 * sqrt(2), and each component's square overflows
    speed = math.hypot(1e200, 1e200)
    field = VelocityField(2, 1, lambda t, xs, rs: np.full(xs.shape, 1e200), share * speed, 0.0, 0.0)
    if passed:
        audit_velocity_field(field, box_radius=2.0, r_radius=1.0)
        return
    with pytest.raises(AuditError, match=rf"velocity sup audit failed: .* = {re.escape(repr(speed))} > declared"):
        audit_velocity_field(field, box_radius=2.0, r_radius=1.0)


def test_velocity_batch_rejects_a_field_of_the_wrong_shape():
    # (M,) instead of (M, 1) would broadcast against (M, 1) positions
    flat = VelocityField(1, 1, lambda t, xs, rs: rs[:, 0], sup_bound=1.0, lip_x=0.0, lip_r=1.0)
    model = VelocityModel((flat,), sedimentation_field(kernel_library("tent")).kernels)
    rho = MeasureVector((dirac([0.0]),))
    with pytest.raises(ValueError, match=r"returned shape \(3,\), expected \(3, 1\)"):
        velocity_batch(model, rho, 0, 0.0, np.zeros((3, 1)))
