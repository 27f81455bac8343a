import numpy as np
import pytest

from nonlocalflow import (
    GridAxis,
    GridDensity,
    ParticleMeasure,
    dirac,
    particles_from_density,
    total_mass,
    uniform_density_1d,
    w1_1d,
)


def uniform_unit_density(count=64):
    dens = uniform_density_1d(0.0, 1.0, count)
    return GridDensity(1, dens.axes, dens.values / dens.integral())


def test_total_mass_examples():
    assert total_mass(dirac([1.0])) == 1.0
    mu = ParticleMeasure(1, np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
    assert total_mass(mu) == 1.0


@pytest.mark.parametrize("dim", [1, 2])
def test_a_measure_without_particles_is_rejected(dim):
    with pytest.raises(ValueError, match="^a particle measure needs at least one particle$"):
        ParticleMeasure(dim, np.zeros((0, dim)), np.zeros(0))


def test_invalid_weights_rejected():
    with pytest.raises(ValueError):
        ParticleMeasure(1, np.array([[0.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        ParticleMeasure(1, np.array([[0.0]]), np.array([-1.0]))
    with pytest.raises(ValueError):
        ParticleMeasure(1, np.array([[0.0]]), np.array([np.inf]))
    with pytest.raises(ValueError):
        ParticleMeasure(1, np.array([[0.0], [1.0]]), np.array([1.0]))


def test_quantile_discretization_uniform():
    mu = particles_from_density(uniform_unit_density(), 2)
    assert np.allclose(mu.positions.ravel(), [0.25, 0.75])
    assert np.allclose(mu.weights, [0.5, 0.5])


def test_quantile_single_particle_at_median():
    dens = uniform_unit_density()
    mu = particles_from_density(dens, 1)
    assert mu.positions[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert mu.weights[0] == pytest.approx(dens.integral())


def test_quantile_w1_error_against_dense_oracle():
    dens = uniform_unit_density()
    # a much finer quantile discretization stands in for the exact uniform law
    dense = particles_from_density(dens, 4096)
    previous = np.inf
    for n in (4, 8, 16, 32):
        coarse = particles_from_density(dens, n)
        err = w1_1d(coarse, dense)
        assert err <= 1.0 / (2 * n)
        assert err < previous
        previous = err


def test_discretization_mass_exact():
    dens = uniform_unit_density()
    for n in (3, 7, 20):
        mu = particles_from_density(dens, n)
        assert total_mass(mu) == pytest.approx(dens.integral(), abs=1e-15)


def test_cell_midpoint_2d():
    axes = (GridAxis(-0.875, 0.25, 8), GridAxis(-0.875, 0.25, 8))
    gx, gy = np.meshgrid(axes[0].nodes(), axes[1].nodes(), indexing="ij")
    vals = np.maximum(0.0, 1.0 - gx**2 - gy**2)
    dens = GridDensity(2, axes, vals)
    mu = particles_from_density(dens, 6)
    assert mu.dim == 2
    assert total_mass(mu) == pytest.approx(dens.integral(), rel=1e-14)
    assert (mu.weights > 0).all()


def test_grid_density_interpolation():
    dens = uniform_density_1d(0.0, 1.0, 10)
    inside = dens.value_at(np.array([[0.5], [0.21]]))
    assert np.allclose(inside, 1.0)
    outside = dens.value_at(np.array([[3.0], [-1.0]]))
    assert np.allclose(outside, 0.0)


@pytest.mark.parametrize(
    "origin, spacing, count, message",
    [
        (0.0, float("nan"), 4, "grid axis spacing must be finite and positive, got nan"),
        (float("nan"), 1.0, 4, "grid axis origin must be finite, got nan"),
        (0.0, float("inf"), 4, "grid axis spacing must be finite and positive, got inf"),
        (float("-inf"), 1.0, 4, "grid axis origin must be finite, got -inf"),
        (0.0, 0.0, 4, "grid axis spacing must be finite and positive, got 0.0"),
        (0.0, 1.0, 0, "grid axis count must be at least 1, got 0"),
    ],
)
def test_grid_axis_rejects_a_bad_field_by_name(origin, spacing, count, message):
    with pytest.raises(ValueError, match=message):
        GridAxis(origin, spacing, count)


def test_uniform_density_on_a_nan_support_is_rejected():
    with pytest.raises(ValueError, match="grid axis origin must be finite"):
        uniform_density_1d(0.0, float("nan"))
