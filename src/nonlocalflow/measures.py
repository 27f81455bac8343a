"""Discrete measures: weighted particle ensembles and gridded densities.

A bounded positive measure is represented as a finite list of point masses.
Push-forward moves positions and never touches weights, so total mass is
conserved bit-exactly along any flow.  Densities enter through
:class:`GridDensity` and are turned into particle ensembles by
:func:`particles_from_density`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

FloatArray = np.ndarray


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ParticleMeasure:
    """Nonempty finite ensemble of strictly positive point masses in R^d."""

    dim: int
    positions: FloatArray  # (N, dim)
    weights: FloatArray  # (N,)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim == 1:
            pos = pos.reshape(-1, 1) if self.dim == 1 else pos.reshape(1, -1)
        if pos.ndim != 2 or pos.shape[1] != self.dim:
            raise ValueError(f"positions must have shape (N, {self.dim})")
        if pos.shape[0] == 0:
            raise ValueError("a particle measure needs at least one particle")
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if w.shape[0] != pos.shape[0]:
            raise ValueError("positions and weights must have equal length")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise ValueError("weights must be strictly positive and finite")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", _as_readonly(pos))
        object.__setattr__(self, "weights", _as_readonly(w))

    def __len__(self) -> int:
        return self.weights.shape[0]

    def with_positions(self, positions: np.ndarray) -> "ParticleMeasure":
        """Same weights (same array object), new positions."""
        new = object.__new__(ParticleMeasure)
        object.__setattr__(new, "dim", self.dim)
        object.__setattr__(new, "positions", _as_readonly(positions))
        object.__setattr__(new, "weights", self.weights)
        return new


def dirac(point: Sequence[float] | float, weight: float = 1.0) -> ParticleMeasure:
    pos = np.atleast_1d(np.asarray(point, dtype=np.float64))
    return ParticleMeasure(pos.size, pos.reshape(1, -1), np.array([weight]))


@dataclass(frozen=True)
class MeasureVector:
    """State of the k-species system at one time."""

    species: tuple[ParticleMeasure, ...]

    def __post_init__(self):
        sp = tuple(self.species)
        if not sp:
            raise ValueError("at least one species required")
        dims = {m.dim for m in sp}
        if len(dims) != 1:
            raise ValueError("all species must share one spatial dimension")
        object.__setattr__(self, "species", sp)

    @property
    def k(self) -> int:
        return len(self.species)

    @property
    def dim(self) -> int:
        return self.species[0].dim

    def total_measure(self) -> float:
        """Sum of species masses (norm-1 convention over species)."""
        return float(sum(total_mass(m) for m in self.species))

    def masses(self) -> np.ndarray:
        return np.array([total_mass(m) for m in self.species])

    def with_positions(self, positions: Sequence[np.ndarray]) -> "MeasureVector":
        return MeasureVector(
            tuple(m.with_positions(p) for m, p in zip(self.species, positions))
        )

    def positions(self) -> list[np.ndarray]:
        return [m.positions for m in self.species]


def total_mass(mu: ParticleMeasure) -> float:
    return float(np.sum(mu.weights))


def require_positive(name: str, value: float) -> None:
    """Reject a parameter unless it is finite and positive (NaN included)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class GridAxis:
    origin: float
    spacing: float
    count: int

    def __post_init__(self):
        if not math.isfinite(self.origin):
            raise ValueError(f"grid axis origin must be finite, got {self.origin!r}")
        require_positive("grid axis spacing", self.spacing)
        if self.count < 1:
            raise ValueError(f"grid axis count must be at least 1, got {self.count!r}")

    def nodes(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.count)


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative density sampled on a node-centered uniform grid.

    Node i owns the cell [x_i - h/2, x_i + h/2]; integrals use the rectangle
    rule, so the discrete integral is ``values.sum() * cell_volume``.
    """

    dim: int
    axes: tuple[GridAxis, ...]
    values: FloatArray

    def __post_init__(self):
        if len(self.axes) != self.dim:
            raise ValueError("one axis per dimension required")
        vals = np.asarray(self.values, dtype=np.float64)
        expected = tuple(ax.count for ax in self.axes)
        if vals.shape != expected:
            raise ValueError(f"values must have shape {expected}")
        if (vals < 0).any() or not np.isfinite(vals).all():
            raise ValueError("density values must be nonnegative and finite")
        object.__setattr__(self, "values", _as_readonly(vals))
        object.__setattr__(self, "axes", tuple(self.axes))

    @property
    def cell_volume(self) -> float:
        return float(np.prod([ax.spacing for ax in self.axes]))

    def integral(self) -> float:
        return float(self.values.sum() * self.cell_volume)

    def max_value(self) -> float:
        return float(self.values.max())

    def value_at(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation; zero outside the grid."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        frac = np.empty_like(pts)
        base = np.empty(pts.shape, dtype=np.int64)
        inside = np.ones(pts.shape[0], dtype=bool)
        for a, ax in enumerate(self.axes):
            u = (pts[:, a] - ax.origin) / ax.spacing
            inside &= (u >= -0.5) & (u <= ax.count - 0.5)
            u = np.clip(u, 0.0, ax.count - 1.0)
            b = np.minimum(np.floor(u).astype(np.int64), ax.count - 2 if ax.count > 1 else 0)
            base[:, a] = b
            frac[:, a] = u - b if ax.count > 1 else 0.0
        out = np.zeros(pts.shape[0])
        for corner in range(1 << self.dim):
            idx = []
            wgt = np.ones(pts.shape[0])
            for a in range(self.dim):
                hi = (corner >> a) & 1
                idx.append(np.minimum(base[:, a] + hi, self.axes[a].count - 1))
                wgt *= frac[:, a] if hi else (1.0 - frac[:, a])
            out += wgt * self.values[tuple(idx)]
        out[~inside] = 0.0
        return out


def uniform_density_1d(a: float, b: float, count: int = 64) -> GridDensity:
    h = (b - a) / count
    axis = GridAxis(a + 0.5 * h, h, count)
    return GridDensity(1, (axis,), np.ones(count))


def particles_from_density(f: GridDensity, n: int) -> ParticleMeasure:
    """Discretize a density into particles.

    In 1D: n particles at the (m - 1/2)/n quantiles of the piecewise-constant
    density, each carrying mass/n.  In 2D and up: resample onto an
    n-per-axis grid over the support box; one particle per nonempty cell at
    the cell center, weights normalized so the total equals the discrete
    integral of f exactly.
    """
    mass = f.integral()
    if mass <= 0 or n < 1:
        raise ValueError("density must have positive integral and n >= 1")
    if f.dim == 1:
        ax = f.axes[0]
        h = ax.spacing
        cell_mass = f.values * h
        cdf = np.concatenate([[0.0], np.cumsum(cell_mass)])
        targets = (np.arange(n) + 0.5) / n * mass
        cells = np.clip(np.searchsorted(cdf, targets, side="right") - 1, 0, ax.count - 1)
        # invert the piecewise-linear CDF inside each (uniform) cell
        local = targets - cdf[cells]
        with np.errstate(divide="ignore", invalid="ignore"):
            offset = np.where(cell_mass[cells] > 0, local / cell_mass[cells], 0.5)
        x = ax.origin - 0.5 * h + h * (cells + offset)
        weights = np.full(n, mass / n)
        return ParticleMeasure(1, x.reshape(-1, 1), weights)
    lows = np.array([ax.origin - 0.5 * ax.spacing for ax in f.axes])
    highs = np.array([ax.origin + ax.spacing * (ax.count - 0.5) for ax in f.axes])
    spacings = (highs - lows) / n
    grids = [lows[a] + spacings[a] * (np.arange(n) + 0.5) for a in range(f.dim)]
    mesh = np.meshgrid(*grids, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    vals = f.value_at(centers)
    keep = vals > 0
    if not keep.any():
        raise ValueError("resampled density is identically zero")
    weights = vals[keep] * float(np.prod(spacings))
    weights *= mass / weights.sum()
    return ParticleMeasure(f.dim, centers[keep], weights)
