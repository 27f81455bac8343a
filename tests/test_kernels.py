import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocalflow import (
    Kernel,
    KernelMatrix,
    MeasureVector,
    ParticleMeasure,
    RadialTerm,
    VelocityField,
    VelocityModel,
    add_kernels,
    convolve_batch,
    dirac,
    kernel_library,
    odd_ramp_kernel,
    scale_kernel,
    total_mass,
    velocity_batch,
    zero_kernel,
)
from nonlocalflow import _accel
from nonlocalflow.kernels import KERNEL_LIBRARY, sample_normal

LIBRARY = ("tent", "bump-poly", "constant")


def conv_at(mu, kernel, x):
    return convolve_batch(mu, kernel, 0.0, np.array([[x]]))[0]


def test_tent_values():
    k = kernel_library("tent", 1, scale=1.0, height=1.0)
    vals = k.evaluate(0.0, np.array([[0.0], [1.0], [-2.5], [0.25]]))
    assert vals.shape == (4,)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == 0.0
    assert vals[2] == 0.0
    assert vals[3] == pytest.approx(0.75)


def test_constant_kernel_metadata():
    k = kernel_library("constant", 2, height=0.7)
    assert k.lip_x == 0.0
    assert k.sup_bound == pytest.approx(0.7)
    assert k.evaluate(3.0, np.array([[5.0, -2.0]]))[0] == pytest.approx(0.7)


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
    vals = kernel.evaluate(0.0, x[:, None])
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
    vx = k.evaluate(0.0, xs)
    vy = k.evaluate(0.0, ys)
    assert np.abs(vx).max() <= k.sup_bound + 1e-12
    gaps = np.abs(xs - ys).ravel()
    ok = gaps > 1e-12
    assert (np.abs(vx - vy)[ok] <= k.lip_x * gaps[ok] + 1e-12).all()


def test_a_kernel_takes_no_declared_bounds():
    k = kernel_library("tent", 1, scale=0.5, height=2.0)
    with pytest.raises(TypeError):
        Kernel(1, k.terms, 2.0, 4.0)
    for name in ("sup_bound", "lip_x"):
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            replace(k, **{name: 1.0})


def test_convolve_dirac_identity():
    # a unit Dirac turns convolution into a kernel shift
    k = kernel_library("tent")
    mu = dirac([0.5])
    assert conv_at(mu, k, 1.0) == pytest.approx(0.5)


def test_convolve_constant_kernel_sees_only_mass():
    k = kernel_library("constant", 1, height=2.0)
    rng = np.random.default_rng(0)
    mu = ParticleMeasure(1, rng.normal(size=(13, 1)), rng.uniform(0.1, 1, 13))
    for x in (-5.0, 0.0, 17.0):
        assert conv_at(mu, k, x) == pytest.approx(
            2.0 * total_mass(mu), rel=1e-14
        )


def test_convolve_two_particle_example():
    k = kernel_library("tent")
    mu = ParticleMeasure(1, np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
    # direct summation oracle
    expected = 0.25 * max(0.0, 1 - 0.5) + 0.75 * max(0.0, 1 - 0.5)
    assert conv_at(mu, k, 0.5) == pytest.approx(expected)
    assert expected == 0.5


def test_convolve_linearity():
    k = kernel_library("bump-poly", 1, scale=1.3)
    rng = np.random.default_rng(5)
    mu = ParticleMeasure(1, rng.normal(size=(9, 1)), rng.uniform(0.1, 1, 9))
    nu = ParticleMeasure(1, rng.normal(size=(6, 1)), rng.uniform(0.1, 1, 6))
    alpha, beta = 0.6, 2.25
    combined = ParticleMeasure(
        1,
        np.vstack([mu.positions, nu.positions]),
        np.concatenate([alpha * mu.weights, beta * nu.weights]),
    )
    for x in rng.normal(size=4):
        lhs = conv_at(combined, k, x)
        rhs = alpha * conv_at(mu, k, x) + beta * conv_at(nu, k, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_lipschitz_propagation_bound():
    # |mu*eta(x) - mu*eta(y)| <= lip(eta) * mass * |x - y|
    k = kernel_library("bump-poly", 2, scale=1.5, height=0.8)
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


def _convolutions(rho, rows, i, points):
    """The (M, k) vector r that velocity_batch hands the field of species i."""
    seen = []

    def record(t, xs, rs):
        seen.append(rs)
        return np.zeros_like(xs)

    fields = tuple(VelocityField(rho.dim, rho.k, record, 0.0, 0.0, 0.0) for _ in rows)
    velocity_batch(VelocityModel(fields, KernelMatrix(rows)), rho, i, 0.0, points)
    return seen[0]


def test_convolve_vector_reductions():
    k = kernel_library("tent")
    mu = dirac([0.2])
    rho = MeasureVector((mu,))
    v = _convolutions(rho, ((k,),), 0, np.array([[0.5]]))
    assert v.shape == (1, 1)
    assert v[0, 0] == pytest.approx(conv_at(mu, k, 0.5))

    zero = zero_kernel(1)
    assert _convolutions(rho, ((zero,),), 0, np.array([[0.1]]))[0, 0] == 0.0

    c1 = kernel_library("constant", 1, height=0.3)
    c2 = kernel_library("constant", 1, height=0.9)
    two = MeasureVector((dirac([0.0]), dirac([5.0])))
    # species i sees row i of the kernel matrix, column j convolving species j
    rows = ((c1, c2), (zero, c2))
    assert np.allclose(_convolutions(two, rows, 0, np.array([[1.0]])), [[0.3, 0.9]])
    assert np.allclose(_convolutions(two, rows, 1, np.array([[1.0]])), [[0.0, 0.9]])


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
    assert scaled.evaluate(0.0, np.zeros((1, 1)))[0] == pytest.approx(-0.5)

    both = add_kernels(tent, scale_kernel(tent, 1.0))
    assert both.evaluate(0.0, np.zeros((1, 1)))[0] == pytest.approx(2.0)
    assert both.sup_bound == pytest.approx(2.0)

    mu = dirac([0.0])
    assert conv_at(mu, both, 1.0) == pytest.approx(1.0)


def test_a_term_centre_must_be_a_point_of_the_kernel_dimension():
    term = RadialTerm(_accel.PROFILE_TENT, 1.0, 1.0, (0.0,))
    with pytest.raises(ValueError, match="R\\^2"):
        Kernel(2, (term,))
    assert Kernel(1, [term]).terms == (term,)


def _term(**change):
    return RadialTerm(**{"code": _accel.PROFILE_TENT, "scale": 1.0, "height": 1.0, "center": (0.0,), **change})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("field", ["scale", "height", "center"])
def test_a_term_rejects_a_bad_field_by_name(field, value):
    change = {field: (0.0, value) if field == "center" else value}
    if field == "scale" or not math.isfinite(value):
        with pytest.raises(ValueError, match=f"term {field} must be finite"):
            _term(**change)
    else:
        # a zero or negative height and any finite centre are a term
        _term(**change)


@pytest.mark.parametrize("code", [-1, 3, 4, None])
def test_a_term_rejects_an_unknown_profile_code(code):
    with pytest.raises(ValueError, match="term code must be one of"):
        _term(code=code)


def test_odd_ramp_kernel_shape():
    lam = odd_ramp_kernel(scale=0.5, height=0.3)
    vals = lam.evaluate(0.0, np.array([[0.25], [-0.25], [0.5], [0.75], [2.0]]))
    assert vals == pytest.approx([0.15, -0.15, 0.3, 0.15, 0.0])
    assert vals[4] == 0.0
    # the derived bounds are the closed form h and h/s, bit for bit
    assert (lam.sup_bound, lam.lip_x) == (0.3, 0.3 / 0.5)


# Scalar per-point formulas and a point-by-centre double loop: the oracle
# for the odd ramp's two offset tents in convolve_batch.


def _odd_ramp_point(x, scale, height):
    u = x / scale
    a = abs(u)
    if a <= 1.0:
        return height * u
    if a <= 2.0:
        return height * np.sign(u) * (2.0 - a)
    return 0.0


def _tent_point(x, scale, height):
    return height * max(0.0, 1.0 - abs(x) / scale)


def _convolve_loop(points, centers, weights, kernel_at):
    out = np.zeros(len(points))
    for m, x in enumerate(points):
        for c, w in zip(centers, weights):
            out[m] += w * kernel_at(x - c)
    return out


# Each ramp instance runs through the windowed 1D sum (threshold 0) and
# through the pass its size picks, the dense one for these small instances.
_BOTH_1D_PASSES = (0, _accel._FAST_MIN_ELEMENTS)


@st.composite
def ramp_instances(draw):
    scale = draw(st.floats(0.1, 2.0))
    height = draw(st.floats(0.1, 3.0))
    centers = draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(centers), max_size=len(centers)))
    # offsets just inside, at and just outside s and 2s put points on both
    # sides of each kink of the ramp
    kink = st.builds(
        lambda k, f: k * f * scale,
        st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
        st.sampled_from([1.0 - 1e-9, 1.0, 1.0 + 1e-9]),
    )
    offset = st.one_of(kink, st.floats(-3.0 * scale, 3.0 * scale))
    points = draw(st.lists(st.builds(lambda b, o: b + o, st.sampled_from(centers), offset), max_size=8))
    return scale, height, np.array(points), np.array(centers), np.array(weights)


@pytest.mark.parametrize("form", ["ramp", "negated", "plus-tent"])
@settings(max_examples=60, deadline=None)
@given(instance=ramp_instances())
def test_ramp_convolve_batch_matches_double_loop(form, instance):
    scale, height, points, centers, weights = instance
    ramp = odd_ramp_kernel(scale, height)
    tent = kernel_library("tent", 1, scale=0.7, height=0.4)
    kernel, kernel_at = {
        "ramp": (ramp, lambda x: _odd_ramp_point(x, scale, height)),
        "negated": (scale_kernel(ramp, -1.0), lambda x: -_odd_ramp_point(x, scale, height)),
        "plus-tent": (
            add_kernels(ramp, tent),
            lambda x: _odd_ramp_point(x, scale, height) + _tent_point(x, 0.7, 0.4),
        ),
    }[form]
    tent_code = _accel.PROFILE_TENT
    assert ramp.terms == (
        RadialTerm(tent_code, scale, height, (scale,)),
        RadialTerm(tent_code, scale, -height, (-scale,)),
    )
    mu = ParticleMeasure(1, centers.reshape(-1, 1), weights)
    slow = _convolve_loop(points, centers, weights, kernel_at)
    # summation order differs; every term is at most sup_bound * weight
    tol = 1e-13 * (1.0 + kernel.sup_bound * float(weights.sum()))
    for threshold in _BOTH_1D_PASSES:
        with mock.patch.object(_accel, "_FAST_MIN_ELEMENTS", threshold):
            fast = convolve_batch(mu, kernel, 0.0, points.reshape(-1, 1))
        assert fast.shape == (len(points),)
        assert np.allclose(fast, slow, rtol=0.0, atol=tol)


@settings(max_examples=60, deadline=None)
@given(instance=ramp_instances(), block=st.integers(1, 10))
def test_ramp_convolve_batch_in_small_blocks_matches_double_loop(instance, block):
    # a small block constant splits the points into several blocks, down to
    # one row each when there are more centres than the block holds
    scale, height, points, centers, weights = instance
    ramp = odd_ramp_kernel(scale, height)
    mu = ParticleMeasure(1, centers.reshape(-1, 1), weights)
    slow = _convolve_loop(points, centers, weights, lambda x: _odd_ramp_point(x, scale, height))
    tol = 1e-13 * (1.0 + ramp.sup_bound * float(weights.sum()))
    for threshold in _BOTH_1D_PASSES:
        with (
            mock.patch.object(_accel, "_FAST_MIN_ELEMENTS", threshold),
            mock.patch.object(_accel, "_BLOCK_ELEMENTS", block),
            mock.patch.object(_accel, "_WINDOW_BLOCK_ELEMENTS", block),
        ):
            fast = convolve_batch(mu, ramp, 0.0, points.reshape(-1, 1))
        assert np.allclose(fast, slow, rtol=0.0, atol=tol)


def test_normal_draws_stay_distinct_up_to_the_largest_seed():
    # the largest run seed times a million particles reads exact Halton
    # indices; past 2^53 float64 would give neighbouring indices one point
    z = sample_normal(1000, 2, (2**32 - 1) * 10**6)
    assert np.unique(z, axis=0).shape == (1000, 2)
    with pytest.raises(ValueError, match="above 2\\^53"):
        sample_normal(1000, 2, 2**53)


# Kernel.evaluate is convolve_batch against a unit mass at the origin; the
# explicit per-term formula h * p(|x - a| / s) is its oracle.


def _profile_formula(code, u):
    if code == _accel.PROFILE_CONSTANT:
        return np.ones_like(u)
    if code == _accel.PROFILE_TENT:
        return np.maximum(0.0, 1.0 - u)
    return np.maximum(0.0, 1.0 - u * u) ** 2


_CODES = (_accel.PROFILE_TENT, _accel.PROFILE_BUMP, _accel.PROFILE_CONSTANT)


def _terms(dim):
    return st.builds(
        RadialTerm,
        code=st.sampled_from(_CODES),
        scale=st.floats(0.1, 2.0),
        height=st.floats(-3.0, 3.0),
        center=st.tuples(*[st.floats(-1.0, 1.0)] * dim),
    )


# M = 1500 takes the dense pass; from 2^13 pairs on, the windowed 1D pass
# and the lifted 2D bump take over from it
@pytest.mark.parametrize("m", [1500, 2**13 - 1, 2**13])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("code", _CODES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_evaluate_matches_the_per_term_formula(code, dim, m, data):
    terms = [replace(data.draw(_terms(dim)), code=code)] + data.draw(st.lists(_terms(dim), max_size=3))
    # the lifted bump needs every point within 1.5 scales of the box centre,
    # so the box's half-width is half, one or three of the smallest scales
    half_width = data.draw(st.sampled_from([0.5, 1.0, 3.0])) * min(term.scale for term in terms)
    seed = data.draw(st.integers(0, 2**32 - 1))
    xs = np.random.default_rng(seed).uniform(-half_width, half_width, (m, dim))
    heights = sum(abs(term.height) for term in terms)
    kernel = Kernel(dim, tuple(terms))
    expected = np.zeros(m)
    for term in terms:
        u = np.linalg.norm(xs - term.center, axis=1) / term.scale
        expected += term.height * _profile_formula(term.code, u)
    got = kernel.evaluate(0.0, xs)
    assert got.shape == (m,)
    assert np.allclose(got, expected, rtol=0.0, atol=1e-13 * (1.0 + heights))


# Derived bounds.  Every profile is a polynomial in rho = |x - a| / s, so a
# kernel computes its sup and Lipschitz constant from its terms; the oracles
# below are a dense grid through every breakpoint and the closed-form slope.


def test_the_kernels_that_passed_the_sampled_audit_derive_their_true_lipschitz_constants():
    # a unit tent plus a tent of scale 1e-3 and height 0.01 at 0.37 climbs at
    # 1 + 10; the 2D bump of scale 0.05 at 8 / (3 sqrt 3) / 0.05.  Both passed
    # the old sampled audit declaring Lip 1.
    narrow = add_kernels(kernel_library("tent"), Kernel(1, (RadialTerm(_accel.PROFILE_TENT, 1e-3, 0.01, (0.37,)),)))
    assert narrow.lip_x == pytest.approx(11.0, rel=1e-12)
    assert narrow.sup_bound == 1.0
    bump = kernel_library("bump-poly", 2, scale=0.05, height=1.0)
    assert bump.lip_x == pytest.approx(30.79201435678004, rel=1e-12)
    assert bump.lip_x == pytest.approx(8.0 / (3.0 * math.sqrt(3.0)) / 0.05, rel=1e-12)
    with pytest.raises(TypeError):
        Kernel(1, narrow.terms, 1.0, 1.0)


def _profile_slope(code, u):
    """d/du of the height-1 profile at 0 <= u < 1."""
    if code == _accel.PROFILE_TENT:
        return -np.ones_like(u)
    if code == _accel.PROFILE_BUMP:
        return -4.0 * u * (1.0 - u * u)
    return np.zeros_like(u)


def _slope_on_line(pairs, t, side):
    """The closed-form derivative of sum h p(|t - a| / s) over ``pairs``
    (term, a) at ``t``: the limit from ``side`` (+1 or -1) at a kink."""
    out = np.zeros_like(t)
    for term, a in pairs:
        y = t - a
        direction = np.where(y != 0.0, np.sign(y), side)
        rho = np.abs(y) / term.scale
        inside = (rho < 1.0) | ((rho == 1.0) & (side * direction < 0.0))
        slope = term.height * _profile_slope(term.code, np.minimum(rho, 1.0)) * direction / term.scale
        out += np.where(inside, slope, 0.0)
    return out


def _refined(t, values, more):
    """``t`` and ``values`` with 2001 more points between the neighbours of
    the largest |value|, where ``more`` gives the values."""
    i = int(np.argmax(np.abs(values)))
    fine = np.linspace(t[max(i - 1, 0)], t[min(i + 1, t.size - 1)], 2001)
    return np.concatenate([t, fine]), np.concatenate([values, more(fine)])


def _check_bounds_on_a_line(kernel, pairs, center, direction):
    """The kernel on the line center + t direction is sum h p(|t - a| / s)
    over ``pairs``: check its derived bounds against a grid of 2000 points
    per piece between the breakpoints a and a +- s, plus a margin of 1."""
    compact = [(term, a) for term, a in pairs if term.code != _accel.PROFILE_CONSTANT]
    edges = sorted({a + k * term.scale for term, a in compact for k in (-1, 0, 1)})
    edges = [min(edges, default=0.0) - 1.0, *edges, max(edges, default=0.0) + 1.0]
    t = np.unique(np.concatenate([np.linspace(lo, hi, 2000) for lo, hi in zip(edges, edges[1:])]))

    def values(t):
        return kernel.evaluate(0.0, center + t[:, None] * direction)

    heights = sum(abs(term.height) for term, _ in pairs)
    v = values(t)
    # soundness: every value, and every difference quotient up to the radial
    # sums' rounding 2e-13 (1 + sum |h|) / gap, written without a division
    assert np.abs(v).max() <= kernel.sup_bound * (1.0 + 1e-12)
    assert (np.abs(np.diff(v)) <= kernel.lip_x * np.diff(t) + 2e-13 * (1.0 + heights)).all()
    # tightness: the grid, refined about its largest |value| and |slope|,
    # with each breakpoint's one-sided limits in the slopes
    assert kernel.sup_bound == pytest.approx(np.abs(_refined(t, v, values)[1]).max(), rel=1e-9, abs=0.0)
    slopes = np.maximum(np.abs(_slope_on_line(pairs, t, 1.0)), np.abs(_slope_on_line(pairs, t, -1.0)))
    steepest = np.abs(_refined(t, slopes, lambda t: _slope_on_line(pairs, t, 1.0))[1]).max()
    assert kernel.lip_x == pytest.approx(steepest, rel=1e-6, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(terms=st.lists(_terms(1), min_size=1, max_size=4))
def test_derived_bounds_of_a_1d_kernel_are_sound_and_tight(terms):
    kernel = Kernel(1, tuple(terms))
    _check_bounds_on_a_line(kernel, [(term, term.center[0]) for term in terms], np.zeros(1), np.ones(1))


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_derived_bounds_of_a_kernel_about_one_centre_are_sound_and_tight(dim, data):
    # a sum about one centre is radial, so its line through the centre in
    # any direction carries its sup and its Lipschitz constant
    center = data.draw(st.tuples(*[st.floats(-1.0, 1.0)] * dim))
    terms = [replace(term, center=center) for term in data.draw(st.lists(_terms(dim), min_size=1, max_size=4))]
    kernel = Kernel(dim, tuple(terms))
    direction = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=dim)
    direction /= np.linalg.norm(direction)
    _check_bounds_on_a_line(kernel, [(term, 0.0) for term in terms], np.array(center), direction)


@pytest.mark.parametrize("code", [_accel.PROFILE_TENT, _accel.PROFILE_BUMP])
def test_unit_profile_is_horners_rule_on_its_polynomial(code):
    scale = 0.7
    rho = np.linspace(0.0, 1.5, 3001)
    horner = np.zeros_like(rho)
    for coefficient in reversed(_accel.PROFILE_POLYNOMIALS[code]):
        horner = horner * rho + coefficient
    got = _accel.unit_profile((rho * scale) ** 2, code, scale)
    assert np.allclose(got, np.where(rho < 1.0, horner, 0.0), rtol=0.0, atol=1e-15)


def test_the_constant_profile_is_one_everywhere():
    assert _accel.PROFILE_POLYNOMIALS[_accel.PROFILE_CONSTANT] == (1.0,)
    assert (kernel_library("constant").evaluate(0.0, np.array([[0.0], [0.5], [7.0]])) == 1.0).all()


@pytest.mark.parametrize("name", LIBRARY)
def test_each_library_lipschitz_constant_is_the_analysis_of_its_profile(name):
    code, lip = KERNEL_LIBRARY[name]
    # two half-height terms about one centre take the piecewise analysis,
    # where one term would take the closed form that reads this column
    half = RadialTerm(code, 1.0, 0.5, (0.0,))
    kernel = Kernel(1, (half, half))
    assert kernel.lip_x == pytest.approx(lip, rel=1e-15, abs=0.0)
    assert kernel.sup_bound == 1.0


def test_a_kernel_whose_derived_sup_overflows_is_rejected():
    big = RadialTerm(_accel.PROFILE_BUMP, 1.0, 1e308, (0.0,))
    with pytest.raises(ValueError, match="kernel sup_bound must be finite, got inf"):
        Kernel(1, (big, big))
