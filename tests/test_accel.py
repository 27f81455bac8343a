import math
import subprocess
import sys

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
