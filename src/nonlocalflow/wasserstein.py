"""Exact Wasserstein-1 distances between discrete measures.

1D distances use the closed-form quantile coupling.  General dimensions run
a transportation simplex on the complete bipartite graph and return a plan
together with a complementary-slackness certificate.  A family of certified
1-Lipschitz test functions provides duality lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
    xu = mu.positions[:, 0]
    xv = nu.positions[:, 0]
    ou = np.argsort(xu, kind="stable")
    ov = np.argsort(xv, kind="stable")
    return _accel.w1_cdf_merge(xu[ou], mu.weights[ou], xv[ov], nu.weights[ov])


@dataclass(frozen=True)
class SimplexBasis:
    """Optimal spanning basis of one simplex solve and the marginals it solved.

    Holds all N + M - 1 basic cells, zero-flow cells included, with their
    flows as the simplex left them.
    """

    rows: np.ndarray
    cols: np.ndarray
    flows: np.ndarray
    supply: np.ndarray
    demand: np.ndarray

    def fits(self, supply: np.ndarray, demand: np.ndarray) -> bool:
        """True iff both weight vectors are bitwise equal to the basis's."""
        return self.supply.tobytes() == supply.tobytes() and (
            self.demand.tobytes() == demand.tobytes()
        )


@dataclass(frozen=True)
class TransportPlan:
    """Sparse coupling between two ensembles with its transport cost.

    ``basis`` is the simplex basis the plan came from, if any; ``w1_exact``
    can start a later solve with the same weights from it.
    """

    source_index: np.ndarray
    target_index: np.ndarray
    mass: np.ndarray
    cost: float
    basis: SimplexBasis | None = None

    def marginal_residual(self, mu: ParticleMeasure, nu: ParticleMeasure) -> float:
        row = np.zeros(len(mu))
        col = np.zeros(len(nu))
        np.add.at(row, self.source_index, self.mass)
        np.add.at(col, self.target_index, self.mass)
        res_r = np.abs(row - mu.weights).max() if len(mu) else 0.0
        res_c = np.abs(col - nu.weights).max() if len(nu) else 0.0
        return float(max(res_r, res_c))


def w1_exact(
    mu: ParticleMeasure,
    nu: ParticleMeasure,
    pair_cap: int | None = None,
    *,
    warm: TransportPlan | None = None,
) -> tuple[float, TransportPlan]:
    """Exact W1 with an optimal plan and optimality certificate.

    Solves the discrete transportation problem with Euclidean costs by a
    primal transportation simplex; dual feasibility and complementary
    slackness are verified to ``CERT_TOL`` before returning.

    ``warm`` is an earlier plan.  Its basis is primal-feasible for any pair
    of measures with the same weights (push-forwards never change weights),
    so the simplex starts from it when both weight vectors are bitwise equal
    to the ones it solved, and from the northwest corner otherwise.  The
    certificate is checked either way.

    ``pair_cap`` defaults to :data:`DEFAULT_PAIR_CAP` as it is at call time.
    """
    if pair_cap is None:
        pair_cap = DEFAULT_PAIR_CAP
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    _check_masses(mu, nu)
    n, m = len(mu), len(nu)
    if n == 0 or m == 0:
        if n == m == 0:
            return 0.0, TransportPlan(np.zeros(0, int), np.zeros(0, int), np.zeros(0), 0.0)
        raise UnequalMassError("W1 undefined for unequal masses (one side empty)")
    if n * m > pair_cap:
        raise PairCapError(
            f"{n}x{m} pairs exceed the cap {pair_cap}; use w1_1d in 1D or subsample"
        )
    diff = mu.positions[:, None, :] - nu.positions[None, :, :]
    cost = np.sqrt(np.einsum("nmd,nmd->nm", diff, diff))
    start = None
    if warm is not None and warm.basis is not None and warm.basis.fits(mu.weights, nu.weights):
        start = (warm.basis.rows, warm.basis.cols, warm.basis.flows)
    src, tgt, mass, u, v = _accel.transport_simplex(
        cost, mu.weights, nu.weights, start=start
    )
    basis = SimplexBasis(src, tgt, mass, mu.weights, nu.weights)
    if (mass < -MARGINAL_TOL).any():
        raise RuntimeError("simplex produced a negative flow")
    mass = np.maximum(mass, 0.0)
    total = float(np.sum(mass * cost[src, tgt]))

    scale = max(1.0, float(np.abs(cost).max()))
    reduced = cost - u[:, None] - v[None, :]
    dual_violation = float(max(0.0, -reduced.min()))
    slackness = float(np.max(np.abs(mass * reduced[src, tgt]))) if len(mass) else 0.0
    if dual_violation > CERT_TOL * scale or slackness > CERT_TOL * scale * max(
        1.0, float(mu.weights.sum())
    ):
        raise RuntimeError(
            f"optimality certificate failed: dual violation {dual_violation}, "
            f"slackness {slackness}"
        )
    keep = mass > 0
    plan = TransportPlan(src[keep], tgt[keep], mass[keep], total, basis)
    res = plan.marginal_residual(mu, nu)
    if res > MARGINAL_TOL * max(1.0, float(mu.weights.max())):
        raise RuntimeError(f"plan marginals off by {res}")
    return total, plan


def w1_series(pairs: Iterable[tuple[MeasureVector, MeasureVector]]) -> np.ndarray:
    """Vector W1 (the sum over species) for each pair of a series.

    In 2D and up each species' simplex starts from the optimal basis of the
    same species in the previous pair; ``w1_exact`` falls back to a cold
    start wherever the weights differ.  The warm state lives only inside
    one call.  1D pairs use the closed form.
    """
    plans: dict[int, TransportPlan] = {}
    out = []
    for rho, sigma in pairs:
        if rho.k != sigma.k or rho.dim != sigma.dim:
            raise ValueError("species count / dimension mismatch")
        total = 0.0
        for i, (a, b) in enumerate(zip(rho.species, sigma.species)):
            ma, mb = float(a.weights.sum()), float(b.weights.sum())
            if abs(ma - mb) > MASS_RTOL * max(ma, mb, 1.0):
                raise UnequalMassError(f"species {i} mass mismatch ({ma} vs {mb})")
            if rho.dim == 1:
                total += w1_1d(a, b)
            else:
                cost, plans[i] = w1_exact(a, b, warm=plans.get(i))
                total += cost
        out.append(total)
    return np.array(out, dtype=np.float64)


def w1_vector(rho: MeasureVector, sigma: MeasureVector) -> float:
    """Sum of per-species W1 distances (the vector metric)."""
    return float(w1_series([(rho, sigma)])[0])


# ---------------------------------------------------------------------------
# duality lower bounds
# ---------------------------------------------------------------------------

DualFunction = Callable[[np.ndarray], np.ndarray]


def default_dual_family(
    mu: ParticleMeasure, nu: ParticleMeasure, max_affine: int = 8, seed: int = 0
) -> list[DualFunction]:
    """Certified 1-Lipschitz test functions adapted to the two supports.

    Coordinate projections, distance-to-anchor functions, and seeded
    max-of-affine functions with slopes clipped to the unit ball.
    """
    dim = mu.dim
    family: list[DualFunction] = []
    for a in range(dim):
        family.append(lambda x, a=a: np.atleast_2d(x)[:, a])
    anchors = []
    for ens in (mu, nu):
        if len(ens):
            anchors.append(ens.positions[0])
            anchors.append(ens.positions.mean(axis=0))
    for p in anchors:
        family.append(lambda x, p=p: np.linalg.norm(np.atleast_2d(x) - p, axis=1))
    rng = np.random.default_rng(seed)
    support = np.vstack([mu.positions, nu.positions]) if len(mu) + len(nu) else np.zeros((1, dim))
    for _ in range(max_affine):
        slopes = rng.normal(size=(4, dim))
        norms = np.maximum(np.linalg.norm(slopes, axis=1, keepdims=True), 1.0)
        slopes = slopes / norms
        offsets = rng.normal(scale=1.0 + np.abs(support).max(), size=4)
        family.append(
            lambda x, s=slopes, b=offsets: np.max(np.atleast_2d(x) @ s.T + b, axis=1)
        )
    return family


def w1_dual_lower_bound(
    mu: ParticleMeasure,
    nu: ParticleMeasure,
    phi_family: Sequence[DualFunction] | None = None,
) -> float:
    """Max over the family of |integral of phi d(mu - nu)|; never exceeds W1."""
    _check_masses(mu, nu)
    if phi_family is None:
        phi_family = default_dual_family(mu, nu)
    best = 0.0
    for phi in phi_family:
        a = float(np.dot(phi(mu.positions), mu.weights)) if len(mu) else 0.0
        b = float(np.dot(phi(nu.positions), nu.weights)) if len(nu) else 0.0
        best = max(best, abs(a - b))
    return best


def coupling_cost(weights: np.ndarray, xa: np.ndarray, xb: np.ndarray) -> float:
    """Cost of the identity coupling sum_m w_m |X(x_m) - Y(x_m)|.

    Upper-bounds W1 between the two push-forwards of one ensemble; this is
    the harness's workhorse inequality.
    """
    return float(np.dot(weights, np.linalg.norm(np.atleast_2d(xa) - np.atleast_2d(xb), axis=1)))
