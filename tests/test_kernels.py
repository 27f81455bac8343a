import numpy as np
import pytest

from nonlocalflow import (
    AuditError,
    Kernel,
    KernelMatrix,
    MeasureVector,
    ParticleMeasure,
    add_kernels,
    audit_kernel,
    concat,
    convolve,
    convolve_batch,
    convolve_vector,
    dirac,
    kernel_library,
    odd_ramp_kernel,
    scale_kernel,
    total_mass,
    zero_kernel,
)

LIBRARY = ("tent", "bump-poly", "cosine-lobe", "constant")


def test_tent_values():
    k = kernel_library("tent", 1, scale=1.0, height=1.0)
    assert k(0.0, 0.0) == pytest.approx(1.0)
    assert k(0.0, 1.0) == 0.0
    assert k(0.0, -2.5) == 0.0
    assert k(0.0, 0.25) == pytest.approx(0.75)


def test_constant_kernel_metadata():
    k = kernel_library("constant", 2, height=0.7)
    assert k.lip_x == 0.0
    assert k.sup_bound == pytest.approx(0.7)
    assert k(3.0, np.array([5.0, -2.0])) == pytest.approx(0.7)


def test_unknown_name_and_bad_params():
    with pytest.raises(ValueError):
        kernel_library("boxcar")
    with pytest.raises(ValueError):
        kernel_library("tent", scale=-1.0)
    with pytest.raises(ValueError):
        kernel_library("tent", height=0.0)


@pytest.mark.parametrize("field", ["scale", "height"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_params_rejected_with_field_name(field, bad):
    with pytest.raises(ValueError, match=f"kernel {field} must be finite"):
        kernel_library("tent", **{field: bad})
    with pytest.raises(ValueError, match=f"kernel {field} must be finite"):
        odd_ramp_kernel(**{"scale": 1.0, "height": 1.0, field: bad})


def dense_gradient_sup(kernel, radius=3.0, samples=400001):
    x = np.linspace(-radius, radius, samples)
    vals = np.array([kernel.evaluate(0.0, np.array([xi])) for xi in x])
    return np.abs(np.gradient(vals, x)).max()


def test_bump_poly_lipschitz_matches_dense_gradient_oracle():
    k = kernel_library("bump-poly", 1, scale=1.7, height=2.3)
    assert dense_gradient_sup(k, radius=2.0) == pytest.approx(k.lip_x, abs=1e-6)


@pytest.mark.parametrize("name", LIBRARY)
@pytest.mark.parametrize("params", [(1.0, 1.0), (0.8, 2.5), (3.0, 0.4)])
def test_library_metadata_never_exceeded(name, params):
    scale, height = params
    k = kernel_library(name, 1, scale=scale, height=height)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2 * scale, 2 * scale, size=(4000, 1))
    ys = rng.uniform(-2 * scale, 2 * scale, size=(4000, 1))
    vx = np.array([k.evaluate(0.0, x) for x in xs])
    vy = np.array([k.evaluate(0.0, y) for y in ys])
    assert np.abs(vx).max() <= k.sup_bound + 1e-12
    gaps = np.abs(xs - ys).ravel()
    ok = gaps > 1e-12
    assert (np.abs(vx - vy)[ok] <= k.lip_x * gaps[ok] + 1e-12).all()


def test_audit_accepts_library_and_rejects_false_declaration():
    k = kernel_library("tent", 1, scale=0.5, height=2.0)
    audit_kernel(k, box_radius=2.0)
    lying = Kernel(1, k.evaluate, sup_bound=k.sup_bound, lip_x=0.5 * k.lip_x)
    with pytest.raises(AuditError, match="slope"):
        audit_kernel(lying, box_radius=2.0)
    lying_sup = Kernel(1, k.evaluate, sup_bound=0.5, lip_x=k.lip_x)
    with pytest.raises(AuditError, match="sup"):
        audit_kernel(lying_sup, box_radius=2.0)


def test_convolve_dirac_identity():
    # a unit Dirac turns convolution into a kernel shift
    k = kernel_library("tent")
    mu = dirac([0.5])
    assert convolve(mu, k, 0.0, np.array([1.0])) == pytest.approx(0.5)


def test_convolve_constant_kernel_sees_only_mass():
    k = kernel_library("constant", 1, height=2.0)
    rng = np.random.default_rng(0)
    mu = ParticleMeasure(1, rng.normal(size=(13, 1)), rng.uniform(0.1, 1, 13))
    for x in (-5.0, 0.0, 17.0):
        assert convolve(mu, k, 0.0, np.array([x])) == pytest.approx(
            2.0 * total_mass(mu), rel=1e-14
        )


def test_convolve_two_particle_example():
    k = kernel_library("tent")
    mu = ParticleMeasure(1, np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
    # direct summation oracle
    expected = 0.25 * max(0.0, 1 - 0.5) + 0.75 * max(0.0, 1 - 0.5)
    assert convolve(mu, k, 0.0, np.array([0.5])) == pytest.approx(expected)
    assert expected == 0.5


def test_convolve_linearity():
    k = kernel_library("bump-poly", 1, scale=1.3)
    rng = np.random.default_rng(5)
    mu = ParticleMeasure(1, rng.normal(size=(9, 1)), rng.uniform(0.1, 1, 9))
    nu = ParticleMeasure(1, rng.normal(size=(6, 1)), rng.uniform(0.1, 1, 6))
    alpha, beta = 0.6, 2.25
    combined = concat(
        ParticleMeasure(1, mu.positions, alpha * mu.weights),
        ParticleMeasure(1, nu.positions, beta * nu.weights),
    )
    for x in rng.normal(size=4):
        lhs = convolve(combined, k, 0.0, np.array([x]))
        rhs = alpha * convolve(mu, k, 0.0, np.array([x])) + beta * convolve(
            nu, k, 0.0, np.array([x])
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_lipschitz_propagation_bound():
    # |mu*eta(x) - mu*eta(y)| <= lip(eta) * mass * |x - y|
    k = kernel_library("cosine-lobe", 2, scale=1.5, height=0.8)
    rng = np.random.default_rng(11)
    mu = ParticleMeasure(2, rng.normal(size=(20, 2)), rng.uniform(0.1, 0.5, 20))
    xs = rng.normal(size=(200, 2))
    ys = rng.normal(size=(200, 2))
    vx = convolve_batch(mu, k, 0.0, xs)
    vy = convolve_batch(mu, k, 0.0, ys)
    gaps = np.linalg.norm(xs - ys, axis=1)
    assert (
        np.abs(vx - vy) <= k.lip_x * total_mass(mu) * gaps + 1e-12
    ).all()


def test_convolve_vector_reductions():
    k = kernel_library("tent")
    mu = dirac([0.2])
    rho = MeasureVector((mu,))
    v = convolve_vector(rho, [k], 0.0, np.array([0.5]))
    assert v.shape == (1,)
    assert v[0] == pytest.approx(convolve(mu, k, 0.0, np.array([0.5])))

    zero = zero_kernel(1)
    assert convolve_vector(rho, [zero], 0.0, np.array([0.1]))[0] == 0.0

    c1 = kernel_library("constant", 1, height=0.3)
    c2 = kernel_library("constant", 1, height=0.9)
    two = MeasureVector((dirac([0.0]), dirac([5.0])))
    out = convolve_vector(two, [c1, c2], 0.0, np.array([1.0]))
    assert np.allclose(out, [0.3, 0.9])


def test_kernel_matrix_norm_one_conventions():
    tent = kernel_library("tent", 1, scale=1.0, height=1.0)  # lip 1, sup 1
    bump = kernel_library("bump-poly", 1, scale=1.0, height=1.0)  # lip ~1.54
    mat = KernelMatrix(((tent, bump), (zero_kernel(1), tent)))
    assert mat.k == 2
    # rows sum Lipschitz constants; the matrix takes the max row
    assert mat.lip_x == pytest.approx(tent.lip_x + bump.lip_x)
    assert mat.sup_bound == pytest.approx(1.0)


def test_scale_and_add_kernels():
    tent = kernel_library("tent", 1, scale=2.0, height=1.0)
    scaled = scale_kernel(tent, -0.5)
    assert scaled.sup_bound == pytest.approx(0.5)
    assert scaled.lip_x == pytest.approx(0.25)
    assert scaled.evaluate(0.0, np.array([0.0])) == pytest.approx(-0.5)

    both = add_kernels(tent, scale_kernel(tent, 1.0))
    assert both.evaluate(0.0, np.array([0.0])) == pytest.approx(2.0)
    assert both.sup_bound == pytest.approx(2.0)

    mu = dirac([0.0])
    assert convolve(mu, both, 0.0, np.array([1.0])) == pytest.approx(1.0)


def test_odd_ramp_kernel_shape():
    lam = odd_ramp_kernel(scale=0.5, height=0.3)
    assert lam.evaluate(0.0, np.array([0.25])) == pytest.approx(0.15)
    assert lam.evaluate(0.0, np.array([-0.25])) == pytest.approx(-0.15)
    assert lam.evaluate(0.0, np.array([0.5])) == pytest.approx(0.3)
    assert lam.evaluate(0.0, np.array([0.75])) == pytest.approx(0.15)
    assert lam.evaluate(0.0, np.array([2.0])) == 0.0
    audit_kernel(lam, box_radius=2.0)
