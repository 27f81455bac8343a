import math
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocalflow import _accel


def test_backend_is_numpy():
    assert _accel.BACKEND == "numpy"


# The loops below are the explicit-loop formulation of each sum, kept as the
# oracle for the vectorized kernels.


def _profile_loop(dist, code, scale, height):
    if code == _accel.PROFILE_CONSTANT:
        return height
    u = dist / scale
    if u >= 1.0:
        return 0.0
    if code == _accel.PROFILE_TENT:
        return height * (1.0 - u)
    if code == _accel.PROFILE_BUMP:
        return height * (1.0 - u * u) ** 2
    return height * math.cos(0.5 * math.pi * u)


def _radial_sum_loop(points, centers, weights, code, scale, height):
    out = np.zeros(len(points))
    for m, p in enumerate(points):
        for c, w in zip(centers, weights):
            out[m] += w * _profile_loop(math.dist(p, c), code, scale, height)
    return out


@st.composite
def radial_instances(draw):
    dim = draw(st.sampled_from([1, 2]))
    coord = st.floats(-3.0, 3.0)
    points = np.array(draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), max_size=8)))
    centers = np.array(draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), max_size=8)))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(centers), max_size=len(centers))))
    # scales well below the spread put many points beyond the support
    scale = draw(st.floats(0.1, 2.0))
    height = draw(st.floats(0.1, 3.0))
    return points.reshape(-1, dim), centers.reshape(-1, dim), weights, scale, height


@pytest.mark.parametrize("code", [0, 1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(instance=radial_instances())
def test_radial_sum_backends_agree(code, instance):
    points, centers, weights, scale, height = instance
    fast = _accel.radial_sum(points, centers, weights, code, scale, height)
    slow = _radial_sum_loop(points, centers, weights, code, scale, height)
    # summation order differs; every term is at most height * weight
    tol = 1e-13 * (1.0 + height * float(weights.sum()))
    assert fast.shape == (len(points),)
    assert np.allclose(fast, slow, rtol=0.0, atol=tol)


def test_radial_sum_empty_centers():
    pts = np.zeros((4, 1))
    out = _accel.radial_sum(pts, np.zeros((0, 1)), np.zeros(0), 1, 1.0, 1.0)
    assert np.array_equal(out, np.zeros(4))


@st.composite
def blocked_instances(draw):
    """Shapes on each side of a block edge, for a small block constant.

    ``several``: whole blocks of ``rows`` rows; ``ragged``: a short last
    block; ``narrow``: more centres than the block holds, one row per
    block; ``empty``: no centres.
    """
    case = draw(st.sampled_from(["several", "ragged", "narrow", "empty"]))
    dim = draw(st.sampled_from([1, 2, 3]))
    if case == "narrow":
        block = draw(st.integers(1, 6))
        n = draw(st.integers(block + 1, 12))
        m = draw(st.integers(2, 6))
    elif case == "empty":
        block, n, m = draw(st.integers(1, 6)), 0, draw(st.integers(0, 6))
    else:
        n = draw(st.integers(1, 6))
        rows = draw(st.integers(2, 4))
        block = rows * n + draw(st.integers(0, n - 1))
        m = rows * draw(st.integers(2, 3))
        if case == "ragged":
            m += draw(st.integers(1, rows - 1))
    # dyadic coordinates and scales make |point - centre| == scale exactly
    scale = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    coord = st.one_of(st.integers(-12, 12).map(lambda k: k / 4), st.floats(-3.0, 3.0))
    vec = st.lists(coord, min_size=dim, max_size=dim).map(np.array)
    centers = [draw(vec) for _ in range(n)]
    on_scale = st.builds(
        lambda c, axis, sign: c + sign * scale * np.eye(dim)[axis],
        st.sampled_from(centers) if centers else vec,
        st.integers(0, dim - 1),
        st.sampled_from([-1.0, 1.0]),
    )
    points = [draw(st.one_of(vec, on_scale)) for _ in range(m)]
    weights = np.array([draw(st.floats(0.0, 1.0)) for _ in range(n)])
    height = draw(st.floats(0.1, 3.0))
    return (
        block,
        np.array(points).reshape(m, dim),
        np.array(centers).reshape(n, dim),
        weights,
        scale,
        height,
    )


@pytest.mark.parametrize("code", [0, 1, 2, 3])
@settings(max_examples=80, deadline=None)
@given(instance=blocked_instances())
def test_blocked_radial_sum_matches_the_loop(code, instance):
    block, points, centers, weights, scale, height = instance
    with mock.patch.object(_accel, "_BLOCK_ELEMENTS", block):
        fast = _accel.radial_sum(points, centers, weights, code, scale, height)
    slow = _radial_sum_loop(points, centers, weights, code, scale, height)
    tol = 1e-13 * (1.0 + height * float(weights.sum()))
    assert fast.shape == (len(points),)
    assert np.allclose(fast, slow, rtol=0.0, atol=tol)


@pytest.mark.parametrize("code", [1, 2, 3])
def test_radial_sum_vanishes_at_and_beyond_scale(code):
    # the loop's u >= 1 branch: exactly 0, the cosine lobe included
    centers = np.array([[0.5, -0.25]])
    points = centers + np.array([[0.75, 0.0], [0.0, -0.75], [0.8, 0.0], [3.0, 3.0]])
    out = _accel.radial_sum(points, centers, np.ones(1), code, 0.75, 2.0)
    assert np.array_equal(out, np.zeros(4))


def test_radial_sum_memory_does_not_grow_with_pairs():
    # 2000 x 2000 in 2D: 4M pairs; (M, N, d) temporaries would take 190 MB
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(2000, 2))
    weights = np.full(2000, 1.0 / 2000)
    tracemalloc.start()
    try:
        _accel.radial_sum(pts, pts, weights, _accel.PROFILE_BUMP, 0.5, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@st.composite
def windowed_instances(draw):
    """1D instances for the windowed sum: unsorted centres with duplicates
    and tight clusters, points on the support edges and on the centres,
    possibly no points, and a block size that splits the points."""
    scale = draw(st.one_of(st.sampled_from([0.1, 0.25, 0.5, 1.5]), st.floats(0.1, 2.0)))
    coord = st.one_of(st.floats(-3.0, 3.0), st.integers(-12, 12).map(lambda k: k / 4))
    base = draw(st.lists(coord, min_size=1, max_size=10))
    near = st.sampled_from([0.0, 0.0, 1e-12, -1e-9, 1e-6])
    copies = draw(st.lists(st.tuples(st.sampled_from(base), near), max_size=10))
    centers = draw(st.permutations(base + [b + e for b, e in copies]))
    on_edge = st.builds(lambda c, sign: c + sign * scale, st.sampled_from(centers), st.sampled_from([-1.0, 1.0]))
    points = draw(st.lists(st.one_of(coord, on_edge, st.sampled_from(centers)), max_size=12))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(centers), max_size=len(centers)))
    height = draw(st.floats(0.1, 3.0))
    block = draw(st.integers(1, 40))
    return block, np.reshape(points, (-1, 1)), np.reshape(centers, (-1, 1)), np.array(weights), scale, height


@pytest.mark.parametrize("code", [1, 2, 3])
@settings(max_examples=150, deadline=None)
@given(instance=windowed_instances())
def test_windowed_1d_sum_matches_the_loop(code, instance):
    block, points, centers, weights, scale, height = instance
    with mock.patch.object(_accel, "_WINDOW_BLOCK_ELEMENTS", block):
        fast = _accel.radial_sum(points, centers, weights, code, scale, height)
    slow = _radial_sum_loop(points, centers, weights, code, scale, height)
    tol = 1e-13 * (1.0 + height * float(weights.sum()))
    assert fast.shape == (len(points),)
    assert np.allclose(fast, slow, rtol=0.0, atol=tol)


@pytest.mark.parametrize("code", [1, 2, 3])
def test_windowed_1d_sum_at_the_support_edges(code):
    # points exactly one scale from a centre get nothing from it
    centers = np.array([[0.5], [-0.25], [-0.25], [2.0]])
    weights = np.array([0.5, 0.25, 1.0, 0.75])
    points = np.array([[1.25], [-0.25], [-1.0], [0.5], [2.75], [1.25 + 1e-12], [0.5 - 0.75]])
    fast = _accel.radial_sum(points, centers, weights, code, 0.75, 2.0)
    slow = _radial_sum_loop(points, centers, weights, code, 0.75, 2.0)
    assert np.allclose(fast, slow, rtol=0.0, atol=1e-13 * (1.0 + 2.0 * weights.sum()))


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_radial_sum_with_no_points(code):
    out = _accel.radial_sum(np.zeros((0, 1)), np.ones((3, 1)), np.ones(3), code, 0.5, 1.0)
    assert out.shape == (0,)


def _on_x_axis(xs):
    """1D coordinates as the points (x, 0) of the plane, which take the dense pass."""
    return np.column_stack([xs, np.zeros(len(xs))])


@pytest.mark.parametrize("code", [1, 2, 3])
def test_windowed_1d_sum_matches_the_dense_pass_at_2000(code):
    rng = np.random.default_rng(11)
    centers = np.concatenate([rng.uniform(-2.0, 2.0, 1500), rng.normal(0.3, 0.01, 500)])
    points = np.concatenate([rng.uniform(-2.5, 2.5, 1000), centers[::2]])
    weights = rng.uniform(0.0, 1.0, 2000) / 1000.0
    fast = _accel.radial_sum(points[:, None], centers[:, None], weights, code, 0.3, 1.5)
    dense = _accel.radial_sum(_on_x_axis(points), _on_x_axis(centers), weights, code, 0.3, 1.5)
    assert np.allclose(fast, dense, rtol=0.0, atol=1e-13 * (1.0 + 1.5 * weights.sum()))


@pytest.mark.parametrize("code", [1, 2, 3])
def test_windowed_1d_sum_memory_is_linear(code):
    # 20 000 x 20 000 in 1D: an (M, N) buffer alone would take 3.2 GB
    rng = np.random.default_rng(4)
    points = rng.uniform(-1.0, 1.0, size=(20000, 1))
    centers = rng.uniform(-1.0, 1.0, size=(20000, 1))
    weights = np.full(20000, 1.0 / 20000)
    tracemalloc.start()
    try:
        _accel.radial_sum(points, centers, weights, code, 0.1, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("code", [1, 2, 3])
@pytest.mark.parametrize(
    "where, value",
    [("point", math.nan), ("point", math.inf), ("centre", math.nan), ("centre", -math.inf), ("weight", math.nan)],
)
def test_windowed_1d_sum_keeps_the_dense_non_finite_results(code, where, value):
    # the far NaN centre sorts past every window and still poisons every point
    points = np.array([0.0, 0.4, -3.0])
    centers = np.array([0.1, 0.5, -0.2, 40.0])
    weights = np.array([0.5, 0.25, 1.0, 0.75])
    {"point": points, "centre": centers, "weight": weights}[where][-1] = value
    one_d = _accel.radial_sum(points[:, None], centers[:, None], weights, code, 0.5, 1.0)
    dense = _accel.radial_sum(_on_x_axis(points), _on_x_axis(centers), weights, code, 0.5, 1.0)
    np.testing.assert_array_equal(one_d, dense)
    if where == "point" and math.isnan(value):
        assert np.isnan(one_d[-1]) and np.isfinite(one_d[:-1]).all()
    elif math.isnan(value):
        assert np.isnan(one_d).all()


def _w1_merge_loop(xu, wu, xv, wv):
    # two pointers over both sorted sequences, integrating |F_u - F_v|
    i = j = 0
    cdf = cost = 0.0
    prev = None
    while i < len(xu) or j < len(xv):
        if j >= len(xv) or (i < len(xu) and xu[i] <= xv[j]):
            x, step = xu[i], wu[i]
            i += 1
        else:
            x, step = xv[j], -wv[j]
            j += 1
        if prev is not None:
            cost += abs(cdf) * (x - prev)
        cdf += step
        prev = x
    return cost


def _sorted_weighted(draw):
    xs = np.sort(np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=30))))
    ws = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(xs), max_size=len(xs))))
    return xs, ws / ws.sum()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_w1_merge_backends_agree(data):
    xu, wu = _sorted_weighted(data.draw)
    xv, wv = _sorted_weighted(data.draw)
    fast = _accel.w1_cdf_merge(xu, wu, xv, wv)
    assert fast == pytest.approx(_w1_merge_loop(xu, wu, xv, wv), abs=1e-12)


def test_simplex_potentials_match_a_full_rebuild():
    # potentials kept across pivots must equal the ones a rebuild of the
    # final tree computes, bit for bit; restarting from the optimum is a no-op
    rng = np.random.default_rng(6)
    for _ in range(20):
        n, m = (int(k) for k in rng.integers(2, 25, size=2))
        cost = np.abs(rng.normal(size=(n, m)))
        supply = rng.uniform(0.1, 1.0, n)
        demand = rng.uniform(0.1, 1.0, m)
        demand *= supply.sum() / demand.sum()
        bi, bj, flows, u, v = _accel.transport_simplex(cost, supply, demand)
        pi = _accel._tree_duals_py(n, m, list(zip(bi.tolist(), bj.tolist())), cost)[-1]
        assert np.array_equal(u, pi[:n])
        assert np.array_equal(v, -np.asarray(pi[n:]))
        again = _accel.transport_simplex(cost, supply, demand, start=(bi, bj, flows))
        for a, b in zip((bi, bj, flows, u, v), again):
            assert np.array_equal(a, b)


def test_simplex_rejects_a_start_that_is_not_a_spanning_tree():
    cost = np.ones((2, 2))
    w = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="3 cells"):
        _accel.transport_simplex(cost, w, w, start=(np.zeros(2, int), np.arange(2), w))
    # (0,0), (0,1), (1,1) span; (0,0), (0,1), (0,0) leave row 1 out
    rows, cols = np.array([0, 0, 0]), np.array([0, 1, 0])
    with pytest.raises(RuntimeError):
        _accel.transport_simplex(cost, w, w, start=(rows, cols, np.array([0.5, 0.0, 0.0])))


def test_numpy_backend_full_stack_smoke():
    # a tiny end-to-end solve and exact W1 in a fresh interpreter
    code = (
        "import numpy as np, nonlocalflow as nf\n"
        "from dataclasses import replace\n"
        "k = nf.kernel_library('tent')\n"
        "model = nf.sedimentation_field(k)\n"
        "init = nf.MeasureVector((nf.dirac([-0.5]),))\n"
        "scn = nf.Scenario('s', model, init, horizon=0.5, step=nf.StepControl(0.01))\n"
        "rec = nf.solve_direct(scn)\n"
        "p = rec.final().species[0].positions[0,0]\n"
        "assert abs(p - 0.0) < 1e-12, p\n"
        "a = nf.ParticleMeasure(2, np.random.default_rng(0).normal(size=(6,2)), np.full(6,1/6))\n"
        "b = nf.ParticleMeasure(2, np.random.default_rng(1).normal(size=(6,2)), np.full(6,1/6))\n"
        "print(nf.w1_exact(a,b)[0])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    assert float(out.stdout.strip()) > 0
