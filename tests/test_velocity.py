import numpy as np
import pytest

from nonlocalflow import (
    AuditError,
    KernelMatrix,
    MeasureVector,
    ParticleMeasure,
    VelocityField,
    VelocityModel,
    audit_model,
    audit_velocity_field,
    congestion_speed,
    constant_direction,
    constant_drift_field,
    dirac,
    kernel_library,
    linear_local_field,
    lipschitz_bound_b,
    odd_ramp_kernel,
    pedestrian_field,
    scale_kernel,
    sedimentation_field,
    toward_point,
    velocity_batch,
    zero_kernel,
)


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
    model = pedestrian_field(congestion_speed(), constant_direction([1.0, 0.0]), k)
    field = model.fields[0]
    xs = np.zeros((3, 2))
    rs = np.array([[1.0], [0.0], [0.25]])
    v = field.evaluate(0.0, xs, rs)
    assert np.allclose(v[0], 0.0)  # congestion stop
    assert np.allclose(v[1], [1.0, 0.0])  # free speed
    assert np.allclose(v[2], [0.75, 0.0])


def test_pedestrian_metadata_composition():
    k = kernel_library("bump-poly", 2, scale=0.8, height=0.5)
    speed = congestion_speed(v_max=2.0, r_crit=0.5)
    direction = toward_point([1.0, 1.0])
    model = pedestrian_field(speed, direction, k)
    f = model.fields[0]
    assert f.sup_bound == pytest.approx(speed.sup_bound * direction.sup_bound)
    assert f.lip_x == pytest.approx(speed.sup_bound * direction.lip)
    assert f.lip_r == pytest.approx(speed.lip * direction.sup_bound)
    audit_model(model, box_radius=2.0, mass=0.5)


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


@pytest.mark.parametrize("lip_x", [-1.0, float("nan")])
def test_lipschitz_bound_b_rejects_a_negative_or_nan_bound(lip_x):
    field = VelocityField(1, 1, lambda t, xs, rs: xs, sup_bound=1.0, lip_x=lip_x, lip_r=0.0)
    model = VelocityModel((field,), sedimentation_field(kernel_library("tent")).kernels)
    with pytest.raises(ValueError, match="finite and >= 0"):
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
    audit_model(model, box_radius=2.0, mass=1.0)

    drift = constant_drift_field([0.3, -0.4])
    assert drift.sup_bound == pytest.approx(0.5)
    audit_model(drift, box_radius=3.0, mass=1.0)


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
    ],
)
def test_velocity_audit_names_the_witness_of_each_lie(declared, message):
    # V = x + 2 r_0 - 1 on |x| <= 2, |r|_1 <= 1: sup 5, Lip_x 1, Lip_r 2
    honest = {"sup_bound": 5.0, "lip_x": 1.0, "lip_r": 2.0}

    def law(t, xs, rs):
        return xs + 2.0 * rs[:, :1] - 1.0

    audit_velocity_field(VelocityField(1, 2, law, **honest), 2.0, 1.0)
    with pytest.raises(AuditError, match=message):
        audit_velocity_field(VelocityField(1, 2, law, **{**honest, **declared}), box_radius=2.0, r_radius=1.0)


def test_velocity_batch_rejects_a_field_of_the_wrong_shape():
    # (M,) instead of (M, 1) would broadcast against (M, 1) positions
    flat = VelocityField(1, 1, lambda t, xs, rs: rs[:, 0], sup_bound=1.0, lip_x=0.0, lip_r=1.0)
    model = VelocityModel((flat,), sedimentation_field(kernel_library("tent")).kernels)
    rho = MeasureVector((dirac([0.0]),))
    with pytest.raises(ValueError, match=r"returned shape \(3,\), expected \(3, 1\)"):
        velocity_batch(model, rho, 0, 0.0, np.zeros((3, 1)))
