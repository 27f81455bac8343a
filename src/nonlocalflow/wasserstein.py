"""Exact Wasserstein-1 distances between discrete measures.

1D distances use the closed-form quantile coupling.  General dimensions run
a transportation simplex on the complete bipartite graph and return a plan
together with a complementary-slackness certificate.  The plan carries the
simplex's optimal target duals, and :func:`kantorovich_potential` turns them
into a 1-Lipschitz function whose integral against mu - nu attains W1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _accel
from .measures import MeasureVector, ParticleMeasure

MASS_RTOL = 1e-9
CERT_TOL = 1e-9
MARGINAL_TOL = 1e-10
DEFAULT_PAIR_CAP = 4_000_000


class UnequalMassError(ValueError):
    """W1 undefined for unequal masses."""


class PairCapError(ValueError):
    """Instance exceeds the configured N*M cap; use w1_1d or subsample."""


def _check_masses(mu: ParticleMeasure, nu: ParticleMeasure) -> float:
    a, b = float(mu.weights.sum()), float(nu.weights.sum())
    if abs(a - b) > MASS_RTOL * max(a, b, 1.0):
        raise UnequalMassError(
            f"W1 undefined for unequal masses ({a} vs {b})"
        )
    return a


def w1_1d(mu: ParticleMeasure, nu: ParticleMeasure) -> float:
    """Exact 1D transport cost via the quantile-function L1 distance."""
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("w1_1d requires dim = 1")
    _check_masses(mu, nu)
    return _accel.w1_cdf_merge(mu.positions[:, 0], mu.weights, nu.positions[:, 0], nu.weights)


@dataclass(frozen=True)
class TransportPlan:
    """Sparse coupling between two ensembles with its transport cost.

    The cells (``source_index``, ``target_index``) are the N + M - 1 basic
    cells of the simplex solve, zero-flow cells included, and ``mass`` holds
    their flows as the simplex left them.  That spanning basis is primal
    feasible for any pair of measures with the weights ``supply`` and
    ``demand`` it solved, so ``w1_exact`` can start a later solve from it.
    ``target_support`` holds the target points y_j and ``target_dual`` the
    simplex's optimal duals v_j on them, which define the plan's
    :func:`kantorovich_potential`.
    """

    source_index: np.ndarray
    target_index: np.ndarray
    mass: np.ndarray
    cost: float
    target_support: np.ndarray
    target_dual: np.ndarray
    supply: np.ndarray
    demand: np.ndarray

    def fits(self, supply: np.ndarray, demand: np.ndarray) -> bool:
        """True iff both weight vectors are bitwise equal to the plan's."""
        return self.supply.tobytes() == supply.tobytes() and (
            self.demand.tobytes() == demand.tobytes()
        )

    def marginal_residual(self, mu: ParticleMeasure, nu: ParticleMeasure) -> float:
        row = np.zeros(len(mu))
        col = np.zeros(len(nu))
        np.add.at(row, self.source_index, self.mass)
        np.add.at(col, self.target_index, self.mass)
        return float(max(np.abs(row - mu.weights).max(), np.abs(col - nu.weights).max()))


def _distance_blocks(xs: np.ndarray, ys: np.ndarray):
    """Pairs (lo, |x_i - y_j|) for the rows i of ``xs`` from lo, in blocks of
    ``_accel.block_rows(len(ys))`` rows, so that no (N, M, d) array is built."""
    rows = _accel.block_rows(len(ys))
    for lo in range(0, len(xs), rows):
        diff = xs[lo : lo + rows, None, :] - ys[None, :, :]
        yield lo, np.sqrt(np.einsum("nmd,nmd->nm", diff, diff))


def w1_exact(
    mu: ParticleMeasure,
    nu: ParticleMeasure,
    *,
    warm: TransportPlan | None = None,
) -> tuple[float, TransportPlan]:
    """Exact W1 with an optimal plan and optimality certificate.

    Solves the discrete transportation problem with Euclidean costs by a
    primal transportation simplex; dual feasibility and complementary
    slackness are verified to ``CERT_TOL`` before returning.

    ``warm`` is an earlier plan.  Its cells are a basis that is
    primal-feasible for any pair of measures with the same weights
    (push-forwards never change weights), so the simplex starts from it when
    both weight vectors are bitwise equal to the ones it solved
    (:meth:`TransportPlan.fits`), and from the northwest corner otherwise.  The
    certificate is checked either way.  Raises :class:`PairCapError` above
    :data:`DEFAULT_PAIR_CAP` pairs, read at call time.
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    _check_masses(mu, nu)
    n, m = len(mu), len(nu)
    if n * m > DEFAULT_PAIR_CAP:
        raise PairCapError(
            f"{n}x{m} pairs exceed the cap {DEFAULT_PAIR_CAP}; use w1_1d in 1D or subsample"
        )
    cost = np.empty((n, m))
    for lo, dist in _distance_blocks(mu.positions, nu.positions):
        cost[lo : lo + len(dist)] = dist
    start = None
    if warm is not None and warm.fits(mu.weights, nu.weights):
        start = (warm.source_index, warm.target_index, warm.mass)
    src, tgt, flows, u, v = _accel.transport_simplex(
        cost, mu.weights, nu.weights, start=start
    )
    if (flows < -MARGINAL_TOL).any():
        raise RuntimeError("simplex produced a negative flow")
    mass = np.maximum(flows, 0.0)
    total = float(np.sum(mass * cost[src, tgt]))

    scale = max(1.0, float(np.abs(cost).max()))
    reduced = cost - u[:, None] - v[None, :]
    dual_violation = float(max(0.0, -reduced.min()))
    slackness = float(np.max(np.abs(mass * reduced[src, tgt])))
    if dual_violation > CERT_TOL * scale or slackness > CERT_TOL * scale * max(
        1.0, float(mu.weights.sum())
    ):
        raise RuntimeError(
            f"optimality certificate failed: dual violation {dual_violation}, "
            f"slackness {slackness}"
        )
    plan = TransportPlan(src, tgt, flows, total, nu.positions, v, mu.weights, nu.weights)
    res = plan.marginal_residual(mu, nu)
    if res > MARGINAL_TOL * max(1.0, float(mu.weights.max())):
        raise RuntimeError(f"plan marginals off by {res}")
    return total, plan


def kantorovich_potential(plan: TransportPlan, points: np.ndarray) -> np.ndarray:
    """The plan's potential phi(x) = min_j (|x - y_j| - v_j) at ``points`` (P, d).

    phi is 1-Lipschitz, as a minimum of 1-Lipschitz functions.  For a plan
    of ``w1_exact(mu, nu)`` it equals the row duals u_i on mu's support and
    -v_j on nu's, so the integral of phi d(mu - nu) is the dual objective,
    which equals W1.  Points are taken in blocks of rows, so no (P, M)
    array is built.
    """
    points = np.asarray(points, dtype=np.float64)
    out = np.empty(len(points))
    for lo, dist in _distance_blocks(points, plan.target_support):
        out[lo : lo + len(dist)] = (dist - plan.target_dual).min(axis=1)
    return out


def w1_series(pairs: Iterable[tuple[MeasureVector, MeasureVector]]) -> np.ndarray:
    """Vector W1 (the sum over species) for each pair of a series.

    In 2D and up each species' simplex starts from the plan of the same
    species in the previous pair; ``w1_exact`` falls back to a cold
    start wherever the weights differ.  The warm state lives only inside
    one call.  1D pairs use the closed form.  A species whose two masses
    differ raises :class:`UnequalMassError` naming it.
    """
    plans: dict[int, TransportPlan] = {}
    out = []
    for rho, sigma in pairs:
        if rho.k != sigma.k or rho.dim != sigma.dim:
            raise ValueError("species count / dimension mismatch")
        total = 0.0
        for i, (a, b) in enumerate(zip(rho.species, sigma.species)):
            try:
                if rho.dim == 1:
                    total += w1_1d(a, b)
                else:
                    cost, plans[i] = w1_exact(a, b, warm=plans.get(i))
                    total += cost
            except UnequalMassError as exc:
                raise UnequalMassError(f"species {i}: {exc}") from None
        out.append(total)
    return np.array(out, dtype=np.float64)


def w1_vector(rho: MeasureVector, sigma: MeasureVector) -> float:
    """Sum of per-species W1 distances (the vector metric)."""
    return float(w1_series([(rho, sigma)])[0])


def coupling_cost(weights: np.ndarray, xa: np.ndarray, xb: np.ndarray) -> float:
    """Cost of the identity coupling sum_m w_m |X(x_m) - Y(x_m)|.

    Upper-bounds W1 between the two push-forwards of one ensemble, since
    pairing each particle with its own image is one admissible coupling.
    ``solver.picard_window`` measures successive Picard iterates with it.
    """
    return float(np.dot(weights, np.linalg.norm(np.atleast_2d(xa) - np.atleast_2d(xb), axis=1)))
