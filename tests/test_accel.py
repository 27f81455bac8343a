import os
import subprocess
import sys

import numpy as np
import pytest

from nonlocalflow import _accel


def test_backend_reports_numba_when_available():
    assert _accel.BACKEND in ("numba", "numpy")
    if _accel._HAVE_NUMBA:
        assert _accel.BACKEND == "numba"


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_radial_sum_backends_agree(code):
    rng = np.random.default_rng(code)
    pts = rng.normal(size=(37, 2))
    centers = rng.normal(size=(23, 2))
    weights = rng.uniform(0.1, 1.0, 23)
    fast = _accel.radial_sum(pts, centers, weights, code, 0.8, 1.7)
    slow = _accel._radial_sum_numpy(pts, centers, weights, code, 0.8, 1.7)
    assert np.allclose(fast, slow, rtol=1e-13, atol=1e-13)


def test_radial_sum_empty_centers():
    pts = np.zeros((4, 1))
    out = _accel.radial_sum(pts, np.zeros((0, 1)), np.zeros(0), 1, 1.0, 1.0)
    assert np.array_equal(out, np.zeros(4))


def test_w1_merge_backends_agree():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n, m = rng.integers(1, 40, size=2)
        xu = np.sort(rng.normal(size=n))
        xv = np.sort(rng.normal(size=m))
        wu = rng.uniform(0.1, 1.0, n)
        wv = rng.uniform(0.1, 1.0, m)
        wu /= wu.sum()
        wv /= wv.sum()
        fast = _accel.w1_cdf_merge(xu, wu, xv, wv)
        slow = _accel._w1_cdf_merge_numpy(xu, wu, xv, wv)
        assert fast == pytest.approx(slow, abs=1e-13)


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


def test_env_flag_forces_numpy_backend():
    env = dict(os.environ, NONLOCAL_NUMBA="0")
    out = subprocess.run(
        [sys.executable, "-c", "import nonlocalflow; print(nonlocalflow.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "numpy"


def test_numpy_backend_full_stack_smoke():
    # a tiny end-to-end solve with the fallback backend
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
        env=dict(os.environ, NONLOCAL_NUMBA="0"),
        check=True,
    )
    assert float(out.stdout.strip()) > 0
