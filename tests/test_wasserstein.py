import tracemalloc
from contextlib import contextmanager
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from nonlocalflow import (
    MeasureVector,
    PairCapError,
    ParticleMeasure,
    UnequalMassError,
    coupling_cost,
    dirac,
    kantorovich_potential,
    w1_1d,
    w1_exact,
    w1_series,
    w1_vector,
)
from nonlocalflow import _accel, wasserstein
from nonlocalflow.wasserstein import CERT_TOL


def lp_oracle(mu, nu):
    n, m = len(mu), len(nu)
    diff = mu.positions[:, None, :] - nu.positions[None, :, :]
    cost = np.sqrt((diff**2).sum(-1)).ravel()
    rows = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        rows.append(row.ravel())
    for j in range(m):
        row = np.zeros((n, m))
        row[:, j] = 1.0
        rows.append(row.ravel())
    res = linprog(
        cost,
        A_eq=np.asarray(rows),
        b_eq=np.concatenate([mu.weights, nu.weights]),
        bounds=(0, None),
        method="highs",
    )
    assert res.success
    return float(res.fun)


def potential_value(plan, mu, nu):
    """Integral of the plan's Kantorovich potential against mu - nu."""
    phi_mu = kantorovich_potential(plan, mu.positions) @ mu.weights
    return phi_mu - kantorovich_potential(plan, nu.positions) @ nu.weights


def northwest_flows(supply, demand):
    n, m = len(supply), len(demand)
    a, b = supply.copy(), demand.copy()
    flows = np.zeros((n, m))
    i = j = 0
    while i < n and j < m:
        q = min(a[i], b[j])
        flows[i, j] = q
        a[i] -= q
        b[j] -= q
        if (a[i] <= b[j] and i < n - 1) or j == m - 1:
            i += 1
        else:
            j += 1
    return flows


def vertex_enumeration_oracle(mu, nu):
    """Min cost over all northwest-corner bases of permuted rows/columns.

    Every extreme point of the transportation polytope arises this way, so
    the minimum over the enumeration is the exact optimum.
    """
    n, m = len(mu), len(nu)
    diff = mu.positions[:, None, :] - nu.positions[None, :, :]
    cost = np.sqrt((diff**2).sum(-1))
    best = np.inf
    for rp in permutations(range(n)):
        for cp in permutations(range(m)):
            flows = northwest_flows(mu.weights[list(rp)], nu.weights[list(cp)])
            c = float(np.sum(flows * cost[np.ix_(list(rp), list(cp))]))
            best = min(best, c)
    return best


def random_pair(rng, max_pts=6, dim=None, equal_weights=False):
    d = dim if dim is not None else int(rng.integers(1, 4))
    n = int(rng.integers(1, max_pts + 1))
    m = n if equal_weights else int(rng.integers(1, max_pts + 1))
    total = float(rng.uniform(0.5, 2.0))
    if equal_weights:
        wu = np.full(n, total / n)
        wv = np.full(m, total / m)
    else:
        wu = rng.uniform(0.1, 1.0, n)
        wv = rng.uniform(0.1, 1.0, m)
        wu *= total / wu.sum()
        wv *= total / wv.sum()
    return (
        ParticleMeasure(d, rng.normal(size=(n, d)), wu),
        ParticleMeasure(d, rng.normal(size=(m, d)), wv),
    )


def test_two_diracs_1d():
    assert w1_1d(dirac([0.0]), dirac([3.0])) == pytest.approx(3.0)


def test_half_split_vs_center():
    mu = ParticleMeasure(1, np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
    nu = dirac([1.0])
    # only one feasible plan exists: both halves travel distance 1
    assert w1_1d(mu, nu) == pytest.approx(1.0)
    assert w1_exact(mu, nu)[0] == pytest.approx(1.0)


def test_identity_is_zero():
    rng = np.random.default_rng(0)
    mu = ParticleMeasure(1, rng.normal(size=(9, 1)), rng.uniform(0.1, 1, 9))
    assert w1_1d(mu, mu) == 0.0
    assert w1_exact(mu, mu)[0] == pytest.approx(0.0, abs=1e-12)


def test_euclidean_dirac_pair_2d():
    cost, plan = w1_exact(dirac([0.0, 0.0]), dirac([3.0, 4.0]))
    assert cost == pytest.approx(5.0)
    assert plan.mass[0] == pytest.approx(1.0)


def test_vertical_matching_beats_crossing():
    mu = ParticleMeasure(2, np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    nu = ParticleMeasure(2, np.array([[0.0, 0.5], [1.0, 0.5]]), np.array([0.5, 0.5]))
    vertical = 0.5 * 0.5 + 0.5 * 0.5
    crossing = 0.5 * np.hypot(1.0, 0.5) * 2
    cost, _ = w1_exact(mu, nu)
    assert cost == pytest.approx(min(vertical, crossing))
    assert cost == pytest.approx(0.5)


def test_1d_exact_agrees_with_quantile_form():
    rng = np.random.default_rng(1)
    for _ in range(50):
        mu, nu = random_pair(rng, max_pts=12, dim=1)
        assert abs(w1_1d(mu, nu) - w1_exact(mu, nu)[0]) < 1e-10


def test_matches_lp_oracle():
    rng = np.random.default_rng(2)
    for trial in range(60):
        mu, nu = random_pair(rng, equal_weights=(trial % 2 == 0))
        assert abs(w1_exact(mu, nu)[0] - lp_oracle(mu, nu)) < 1e-10


def test_matches_vertex_enumeration_on_tiny_instances():
    rng = np.random.default_rng(3)
    for trial in range(25):
        mu, nu = random_pair(rng, max_pts=4, equal_weights=(trial % 3 == 0))
        got = w1_exact(mu, nu)[0]
        assert abs(got - vertex_enumeration_oracle(mu, nu)) < 1e-10


@contextmanager
def recorded_simplex():
    """Record (cost, start, result) of every transportation simplex call."""
    calls = []
    real = _accel.transport_simplex

    def record(cost, supply, demand, start=None):
        out = real(cost, supply, demand, start=start)
        calls.append((cost, start, out))
        return out

    with mock.patch.object(_accel, "transport_simplex", record):
        yield calls


def assert_certified(call):
    cost, _, (bi, bj, flows, u, v) = call
    reduced = cost - u[:, None] - v[None, :]
    scale = max(1.0, float(cost.max()))
    assert reduced.min() >= -CERT_TOL * scale
    assert np.abs(flows * reduced[bi, bj]).max() <= CERT_TOL * scale
    assert len(bi) == cost.shape[0] + cost.shape[1] - 1


@st.composite
def transport_pairs(draw):
    """Two 2D measures on a coarse lattice, so coincident points are common."""
    n = draw(st.integers(1, 7))
    weights = draw(st.sampled_from(["random", "equal", "supply-is-demand"]))
    m = n if weights == "supply-is-demand" or draw(st.booleans()) else draw(st.integers(1, 7))
    cell = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    xs = 0.5 * np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
    ys = 0.5 * np.array(draw(st.lists(cell, min_size=m, max_size=m)), dtype=float)
    if draw(st.booleans()):  # the same points on both sides
        k = min(n, m)
        ys[:k] = xs[:k]
    if weights == "equal":
        wu, wv = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    else:
        parts = st.lists(st.integers(1, 5), min_size=n + m, max_size=n + m)
        raw = np.array(draw(parts), dtype=float)
        wu, wv = raw[:n] / raw[:n].sum(), raw[n:] / raw[n:].sum()
        if weights == "supply-is-demand":
            wv = wu
    seed = draw(st.integers(0, 2**32 - 1))
    return ParticleMeasure(2, xs, wu), ParticleMeasure(2, ys, wv), seed


@settings(max_examples=80, deadline=None)
@given(transport_pairs())
def test_simplex_cold_and_warm_match_lp_oracle(case):
    mu, nu, seed = case
    with recorded_simplex() as calls:
        cold, plan = w1_exact(mu, nu)
    assert calls[0][1] is None
    assert_certified(calls[0])
    lp = lp_oracle(mu, nu)
    assert abs(cold - lp) <= 1e-10
    assert abs(potential_value(plan, mu, nu) - lp) <= 1e-10

    # push both measures forward: same weights, so the old basis is feasible
    rng = np.random.default_rng(seed)
    mu2 = mu.with_positions(mu.positions + rng.normal(scale=0.3, size=mu.positions.shape))
    nu2 = nu.with_positions(nu.positions + rng.normal(scale=0.3, size=nu.positions.shape))
    with recorded_simplex() as calls:
        warm, warm_plan = w1_exact(mu2, nu2, warm=plan)
    assert calls[0][1] is not None
    assert_certified(calls[0])
    lp = lp_oracle(mu2, nu2)
    assert abs(warm - lp) <= 1e-10
    assert abs(potential_value(warm_plan, mu2, nu2) - lp) <= 1e-10

    # different weights: the plan's basis does not fit, so the solve is cold
    mu3 = ParticleMeasure(mu2.dim, mu2.positions, 2.0 * mu2.weights)
    nu3 = ParticleMeasure(nu2.dim, nu2.positions, 2.0 * nu2.weights)
    with recorded_simplex() as calls:
        fallback, _ = w1_exact(mu3, nu3, warm=plan)
    assert calls[0][1] is None
    assert_certified(calls[0])
    assert fallback == w1_exact(mu3, nu3)[0]
    assert abs(fallback - lp_oracle(mu3, nu3)) <= 1e-10


def test_w1_series_chains_warm_starts_per_species():
    rng = np.random.default_rng(11)
    base = MeasureVector(
        tuple(
            ParticleMeasure(2, rng.normal(size=(n, 2)), rng.uniform(0.2, 1.0, n))
            for n in (9, 6)
        )
    )
    walk = [base]
    for _ in range(5):
        walk.append(walk[-1].with_positions(
            [p + rng.normal(scale=0.1, size=p.shape) for p in walk[-1].positions()]
        ))
    pairs = list(zip(walk[:-1], walk[1:]))
    with recorded_simplex() as calls:
        series = w1_series(pairs)
    # the first pair starts cold for each species, every later one warm
    assert [start is not None for _, start, _ in calls] == [False, False] + [True] * 8
    for call in calls:
        assert_certified(call)
    for got, (a, b) in zip(series, pairs):
        assert abs(got - w1_vector(a, b)) <= 1e-12
    assert w1_series([]).shape == (0,)


def test_w1_series_uses_the_closed_form_in_1d():
    a = MeasureVector((dirac([0.0]), dirac([1.0])))
    b = MeasureVector((dirac([2.0]), dirac([1.5])))
    with recorded_simplex() as calls:
        assert w1_series([(a, b), (b, a)]) == pytest.approx([2.5, 2.5])
    assert calls == []


def test_plan_marginals_and_certificate():
    rng = np.random.default_rng(4)
    for _ in range(20):
        mu, nu = random_pair(rng, max_pts=15)
        cost, plan = w1_exact(mu, nu)
        assert plan.marginal_residual(mu, nu) < 1e-10
        assert cost == pytest.approx(
            float(
                np.sum(
                    plan.mass
                    * np.linalg.norm(
                        mu.positions[plan.source_index] - nu.positions[plan.target_index],
                        axis=1,
                    )
                )
            )
        )


def test_plan_is_its_own_simplex_basis():
    # the plan keeps every basic cell and the weights it solved; with equal
    # weights the optimum is a matching, so n - 1 of its cells carry no flow,
    # and a weight one ulp away no longer fits its basis
    rng = np.random.default_rng(7)
    n = 8
    mu = ParticleMeasure(2, rng.normal(size=(n, 2)), np.full(n, 0.3 / n))
    nu = ParticleMeasure(2, rng.normal(size=(n, 2)), np.full(n, 0.3 / n))
    _, plan = w1_exact(mu, nu)
    assert len(plan.source_index) == len(plan.target_index) == len(plan.mass) == 2 * n - 1
    assert len(set(zip(plan.source_index.tolist(), plan.target_index.tolist()))) == 2 * n - 1
    assert (plan.mass > 1e-12).sum() == n
    assert plan.mass.sum() == pytest.approx(0.3, rel=1e-12, abs=0.0)
    assert plan.fits(mu.weights, nu.weights)
    for side in (0, 1):
        weights = [mu.weights.copy(), nu.weights.copy()]
        weights[side][-1] = np.nextafter(weights[side][-1], np.inf)
        assert not plan.fits(*weights)


def test_metric_axioms():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(1, 3))
        mk = lambda n: ParticleMeasure(
            d, rng.normal(size=(n, d)), np.full(n, 1.0 / n)
        )
        a, b, c = mk(5), mk(6), mk(4)
        dab = w1_exact(a, b)[0]
        dba = w1_exact(b, a)[0]
        dac = w1_exact(a, c)[0]
        dcb = w1_exact(c, b)[0]
        assert abs(dab - dba) < 1e-10
        assert dab <= dac + dcb + 1e-9
        assert w1_exact(a, a)[0] < 1e-12


def test_zero_iff_equal_after_merging():
    # same measure written with split atoms
    a = ParticleMeasure(1, np.array([[0.0], [0.0], [1.0]]), np.array([0.3, 0.2, 0.5]))
    b = ParticleMeasure(1, np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    assert w1_1d(a, b) == pytest.approx(0.0, abs=1e-15)
    assert w1_exact(a, b)[0] == pytest.approx(0.0, abs=1e-12)
    c = ParticleMeasure(1, np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
    assert w1_1d(b, c) > 1e-3


@st.composite
def pushed_ensembles(draw):
    """One weighted ensemble's images under two smooth maps x A + a sin(x F + c) + b.

    Also says whether both maps are increasing 1D maps: A >= 1 > |a F| then.
    """
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 8))
    increasing = dim == 1 and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-3.0, 3.0, size=(n, dim))
    weights = rng.uniform(0.1, 1.0, size=n)

    def smooth_map():
        lin = rng.uniform(1.0, 2.0, (1, 1)) if increasing else rng.uniform(-2.0, 2.0, (dim, dim))
        freq = rng.uniform(-1.0, 1.0, (dim, dim))
        wave = rng.uniform(0.0, 0.9) * np.sin(x @ freq + rng.uniform(-np.pi, np.pi, dim))
        return x @ lin + wave + rng.uniform(-1.0, 1.0, dim)

    return increasing, weights, smooth_map(), smooth_map()


@settings(max_examples=80, deadline=None)
@given(pushed_ensembles())
def test_coupling_upper_bound(case):
    # pairing each particle with its own image is one coupling of X#rho and
    # Y#rho; for two increasing 1D maps it is the monotone, optimal one
    increasing, weights, xa, xb = case
    dim = xa.shape[1]
    exact = w1_exact(ParticleMeasure(dim, xa, weights), ParticleMeasure(dim, xb, weights))[0]
    cost = coupling_cost(weights, xa, xb)
    assert cost >= exact - 1e-12
    if increasing:
        assert cost == pytest.approx(exact, abs=1e-12)


def test_mass_mismatch_rejected():
    with pytest.raises(UnequalMassError, match="unequal masses"):
        w1_1d(dirac([0.0], weight=1.0), dirac([1.0], weight=2.0))
    with pytest.raises(UnequalMassError):
        w1_exact(dirac([0.0], weight=1.0), dirac([1.0], weight=1.1))
    for dim in (1, 2):
        one = MeasureVector((dirac([0.0] * dim, weight=1.0),))
        two = MeasureVector((dirac([1.0] * dim, weight=2.0),))
        with pytest.raises(UnequalMassError, match="unequal masses"):
            w1_series([(one, one), (one, two)])


def test_pair_cap(monkeypatch):
    monkeypatch.setattr(wasserstein, "DEFAULT_PAIR_CAP", 100)
    rng = np.random.default_rng(7)
    mu = ParticleMeasure(1, rng.normal(size=(40, 1)), np.full(40, 1.0 / 40))
    nu = ParticleMeasure(1, rng.normal(size=(40, 1)), np.full(40, 1.0 / 40))
    with pytest.raises(PairCapError, match="cap"):
        w1_exact(mu, nu)


def test_w1_exact_cost_is_the_full_einsum_built_in_row_blocks(monkeypatch):
    # the simplex is stopped when it is handed the cost matrix
    class Handed(Exception):
        pass

    handed = []

    def capture(cost, *args, **kwargs):
        handed.append(cost)
        raise Handed

    def uniform(points):
        return ParticleMeasure(points.shape[1], points, np.full(len(points), 1.0 / len(points)))

    monkeypatch.setattr(_accel, "transport_simplex", capture)
    rng = np.random.default_rng(5)
    # 65536 // 400 = 163 rows per block, so the larger shapes span several
    for dim in (1, 2, 3):
        for n, m in ((1, 1), (7, 400), (400, 400), (401, 163)):
            mu, nu = uniform(rng.normal(size=(n, dim))), uniform(rng.normal(size=(m, dim)))
            with pytest.raises(Handed):
                w1_exact(mu, nu)
            diff = mu.positions[:, None, :] - nu.positions[None, :, :]
            assert np.array_equal(handed.pop(), np.sqrt(np.einsum("nmd,nmd->nm", diff, diff)))
    # 1500 x 1500 in 2D: the cost is 18 MB, and the (N, M, d) temporaries
    # of the full einsum took the peak to 72 MB
    mu, nu = uniform(rng.normal(size=(1500, 2))), uniform(rng.normal(size=(1500, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(Handed):
            w1_exact(mu, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 1500 * 1500 * 8

def test_kantorovich_potential_matches_dense_and_attains_w1(monkeypatch):
    # a small block puts the 300 points below into many row blocks
    monkeypatch.setattr(_accel, "_BLOCK_ELEMENTS", 32)
    rng = np.random.default_rng(9)
    for dim in (1, 2, 3):
        mu, nu = random_pair(rng, max_pts=8, dim=dim)
        _, plan = w1_exact(mu, nu)
        xs = rng.normal(scale=2.0, size=(300, dim))
        dense = np.linalg.norm(xs[:, None, :] - nu.positions[None, :, :], axis=2)
        expected = (dense - plan.target_dual).min(axis=1)
        assert np.allclose(kantorovich_potential(plan, xs), expected, rtol=0, atol=1e-12)
    for _ in range(50):
        mu, nu = random_pair(rng, max_pts=12, dim=1)
        assert abs(potential_value(w1_exact(mu, nu)[1], mu, nu) - w1_1d(mu, nu)) <= 1e-12


def test_dual_lower_bound_examples():
    # the potential's value is the dual bound, and it is tight
    a, b = dirac([0.0]), dirac([3.0])
    assert potential_value(w1_exact(a, b)[1], a, b) == pytest.approx(3.0, abs=1e-12)
    mu = ParticleMeasure(1, np.array([[0.5], [1.5]]), np.array([0.5, 0.5]))
    assert potential_value(w1_exact(mu, mu)[1], mu, mu) == pytest.approx(0.0, abs=1e-12)


def test_dual_family_functions_are_1_lipschitz(monkeypatch):
    # the dual function of exact W1 is the plan's Kantorovich potential
    monkeypatch.setattr(_accel, "_BLOCK_ELEMENTS", 32)
    rng = np.random.default_rng(9)
    for dim in (1, 2, 3):
        mu, nu = random_pair(rng, max_pts=8, dim=dim)
        _, plan = w1_exact(mu, nu)
        xs, ys = rng.normal(scale=2.0, size=(2, 300, dim))
        gap = np.abs(kantorovich_potential(plan, xs) - kantorovich_potential(plan, ys))
        assert (gap <= np.linalg.norm(xs - ys, axis=1) + 1e-12).all()


def test_w1_vector_examples():
    a = MeasureVector((dirac([0.0]),))
    b = MeasureVector((dirac([1.0]),))
    assert w1_vector(a, b) == pytest.approx(1.0)
    assert w1_vector(a, a) == 0.0

    two_a = MeasureVector((dirac([0.0]), dirac([0.0])))
    two_b = MeasureVector((dirac([1.0]), dirac([2.0])))
    assert w1_vector(two_a, two_b) == pytest.approx(3.0)


def test_w1_vector_names_bad_species():
    a = MeasureVector((dirac([0.0]), dirac([0.0], weight=2.0)))
    b = MeasureVector((dirac([1.0]), dirac([2.0], weight=1.0)))
    with pytest.raises(UnequalMassError, match="species 1"):
        w1_vector(a, b)
