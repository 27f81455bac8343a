"""Hot numeric kernels.

The particle method spends nearly all of its time summing radial kernel
profiles over particle ensembles (one convolution per velocity evaluation)
and merging sorted weight sequences for 1D transport costs.  Both are
vectorized numpy.

In 1D a radial sum is exact and O((N + M) log N): every compact profile
sums over one window [x - s, x + s] of sorted centres, and each profile
(tent, bump, cosine lobe) is a short sum of coefficients in the point times
weighted moments of the centres, read from prefix sums.  The moments are
anchored at the midpoint of each centre's cell of width s, so a window,
which meets at most three cells, only ever differences O(1) quantities.
Non-finite input takes the dense pass below, which defines its NaN and inf
results.

In 2D and up a radial sum is one fused dense pass over blocks of evaluation
points, finished by one matrix-vector product with the weights, so its
memory is O(block + M·(d + 2)) whatever N and M are.  The bump is a
polynomial in |x - c|^2, and 1 - |x - c|^2 / s^2 is the inner product of
the lifted vectors (x~, 1 - |x~|^2, 1) and (2 c~, 1, -|c~|^2) of the
coordinates taken from the block's box centre in units of s: a block of
at least _LIFT_MIN_ELEMENTS pairs whose points lie within _LIFT_MAX_EXTENT
scales of that centre gets its bump values from one matrix product, a
clamp and a square (see _lifted_bump).  Every other block (small or wide
ones, non-finite or overflowing input, the tent and the cosine lobe, which
need |x - c| itself and cannot take its square root accurately near 0 from
a lifted product) builds its squared distances coordinate by coordinate in
one reused (rows, N) buffer and applies the profile in place.

The transportation simplex behind exact W1 is in Python with numpy
pricing.  It keeps its spanning tree (parents, depths and potentials) from
one pivot to the next and reprices only the subtree that a pivot cuts off,
and it can start from a given basis.
"""

from __future__ import annotations

import math

import numpy as np

# the only backend; recorded alongside benchmark samples
BACKEND = "numpy"

# Radial profile codes.
PROFILE_CONSTANT = 0
PROFILE_TENT = 1
PROFILE_BUMP = 2
PROFILE_COSINE = 3


# A block of rows holds about this many (row, centre) elements, so that its
# two (rows, N) buffers stay in cache.
_BLOCK_ELEMENTS = 1 << 16
# A block of the windowed 1D sum gathers about this many (moment, row) pairs
# at each of its five piece edges.
_WINDOW_BLOCK_ELEMENTS = 1 << 13
# A bump block takes the lifted product while its points lie within this
# many scales of the block's box centre and d <= 3; its certified error per
# value is then at most 6.1e-14 (5.3e-14 at d = 2), inside the 1e-13 per
# unit weight that radial sums are held to.  See _lifted_bump.
_LIFT_MAX_EXTENT = 1.5
_LIFT_MAX_DIM = 3
# The lifted product makes about two dozen small numpy calls per block, the
# coordinate pass one dozen, so the product pays only on blocks of about
# 2^13 (row, centre) elements or more: in 2D the coordinate pass is faster
# at 52 x 52, and the product from about 90 x 90 on.
_LIFT_MIN_ELEMENTS = 1 << 13
# unit roundoff of float64
_U = 2.0**-53


def block_rows(n: int) -> int:
    """Rows per block of a pairwise pass against ``n`` centres."""
    return max(1, _BLOCK_ELEMENTS // max(n, 1))


def unit_profile(sq: np.ndarray, code: int, scale: float) -> np.ndarray:
    """Overwrite squared distances ``sq`` with the height-1 profile values.

    Every profile but the constant vanishes at and beyond ``scale``; the
    cosine lobe is written as sin(pi/2 * max(0, 1 - u)) so that it is
    exactly 0 there.
    """
    if code == PROFILE_CONSTANT:
        sq.fill(1.0)
    elif code == PROFILE_BUMP:
        np.divide(sq, scale * scale, out=sq)
        np.subtract(1.0, sq, out=sq)
        np.maximum(sq, 0.0, out=sq)
        np.square(sq, out=sq)
    elif code in (PROFILE_TENT, PROFILE_COSINE):
        np.sqrt(sq, out=sq)
        np.divide(sq, scale, out=sq)
        np.subtract(1.0, sq, out=sq)
        np.maximum(sq, 0.0, out=sq)
        if code == PROFILE_COSINE:
            np.multiply(sq, 0.5 * np.pi, out=sq)
            np.sin(sq, out=sq)
    else:
        raise ValueError(f"unknown profile code {code}")
    return sq


# The windowed 1D sum.  A point at x in units of the scale lies in cell
# q = floor(x), at offset u = x - q - 1/2 from the cell's midpoint, and its
# support window meets cells q - 1, q and q + 1.  The window is cut into
# four pieces of one cell each, the middle two split at the point, where
# |x - c| has its kink: piece p lies in cell q + _PIECE_CELLS[p], and its
# centres lie left of the point (side +1) or at or right of it (side -1).
# A centre at offset d from its own cell's midpoint is v - d from the point,
# with v = u - delta and delta the piece's cell offset.
_PIECE_CELLS = np.array([-1.0, 0.0, 0.0, 1.0])
_PIECE_SIDES = np.array([1.0, 1.0, -1.0, -1.0])
# Moments per centre of each windowed profile: w d^k for k < K, or w cos
# and w sin for the cosine lobe.
_MOMENTS = {PROFILE_TENT: 2, PROFILE_BUMP: 5, PROFILE_COSINE: 2}
# The pieces' edges are x - 1, q, x, q + 1 and x + 1.
_WINDOW_EDGES = np.array([[-1.0], [0.0], [1.0]])
_CELL_EDGES = np.array([[0.0], [1.0]])


def _in_powers_of_u(expansion) -> np.ndarray:
    """(J, K * 4) matrix from a window's moments sum w d^k of piece p (row
    k * 4 + p) to the coefficients of u^j of the window's sum.

    ``expansion(side)`` lists the coefficients in v of c_k(v), where
    profile(|v - d|) = sum_k c_k(v) d^k on that side of the point.
    """
    rows = max(len(c_k) for c_k in expansion(1.0))
    columns = []
    for k in range(len(expansion(1.0))):
        for delta, side in zip(_PIECE_CELLS, _PIECE_SIDES):
            # c_k(u - delta) by the binomial theorem
            column = np.zeros(rows)
            for i, a in enumerate(expansion(side)[k]):
                for j in range(i + 1):
                    column[j] += a * math.comb(i, j) * (-delta) ** (i - j)
            columns.append(column)
    return np.array(columns).T


# tent 1 - side*(v - d); bump (1 - (v - d)^2)^2 expanded in d
_POLYNOMIAL_PROFILES = {
    PROFILE_TENT: _in_powers_of_u(lambda side: [[1.0, -side], [side]]),
    PROFILE_BUMP: _in_powers_of_u(
        lambda side: [[1.0, 0.0, -2.0, 0.0, 1.0], [0.0, 4.0, 0.0, -4.0], [-2.0, 0.0, 6.0], [0.0, -4.0], [1.0]]
    ),
}
# cos(pi/2 (v - d)) by the angle-sum formula, from the moments sum w cos(pi
# d / 2) and sum w sin(pi d / 2), with cos and sin of pi v / 2 expanded in
# pi u / 2 and pi delta / 2: rows are the coefficients of cos(pi u / 2) and
# sin(pi u / 2)
_COS_DELTA = np.round(np.cos(0.5 * np.pi * _PIECE_CELLS))
_SIN_DELTA = np.round(np.sin(0.5 * np.pi * _PIECE_CELLS))
_COSINE_PIECES = np.array(
    [np.concatenate([_COS_DELTA, -_SIN_DELTA]), np.concatenate([_SIN_DELTA, _COS_DELTA])]
)


def _cell_moments(d: np.ndarray, code: int, out: np.ndarray) -> None:
    """Turn the weights in row 0 of ``out`` (K, N) into the weighted moments
    of the centres' offsets ``d`` from their cells' midpoints."""
    if code == PROFILE_COSINE:
        half_pi_d = 0.5 * np.pi * d
        np.multiply(out[0], np.sin(half_pi_d), out=out[1])
        np.multiply(out[0], np.cos(half_pi_d), out=out[0])
        return
    for k in range(1, out.shape[0]):
        np.multiply(out[k - 1], d, out=out[k])


def _windowed_sum_1d(x: np.ndarray, c: np.ndarray, w: np.ndarray, code: int, scale: float) -> np.ndarray | None:
    """Unit-height ``radial_sum`` in 1D for a profile supported on |x - c| <= scale.

    In units of ``scale``, sorted centres are binned into unit cells and
    each carries its offset d from its cell's midpoint, |d| <= 1/2.  A
    piece's sum is a fixed combination of its centres' weighted moments of
    d, read from prefix sums, with coefficients in the point's offset u:
    every moment and coefficient is O(1), so no sum cancels between
    far-apart coordinates.  One search of five sorted keys per point finds
    its pieces.  O((N + M) log N) time and O(N + M) memory.

    Returns None if an input is not finite (or overflows in units of
    ``scale``), so that the dense pass gives its NaN and inf semantics.
    """
    order = np.argsort(c, kind="stable")
    c_scaled = c[order] / scale
    x_scaled = x / scale
    # sorting puts -inf first and inf and NaN last, and a sum is finite
    # only if every term is (an overflow merely takes the dense pass)
    if not math.isfinite(c_scaled[0] + c_scaled[-1] + x_scaled.sum() + w.sum()):
        return None
    moments = _MOMENTS[code]
    prefix = np.zeros((moments, c.size + 1))
    np.take(w, order, out=prefix[0, 1:])
    _cell_moments(c_scaled - np.floor(c_scaled) - 0.5, code, prefix[:, 1:])
    np.cumsum(prefix[:, 1:], axis=1, out=prefix[:, 1:])
    q = np.floor(x_scaled)
    u = x_scaled - q - 0.5
    out = np.empty(x.size)
    rows = max(1, _WINDOW_BLOCK_ELEMENTS // moments)
    for lo in range(0, x.size, rows):
        hi = min(lo + rows, x.size)
        keys = np.empty((5, hi - lo))
        np.add(x_scaled[lo:hi], _WINDOW_EDGES, out=keys[0::2])
        np.add(q[lo:hi], _CELL_EDGES, out=keys[1::2])
        at_edges = np.take(prefix, np.searchsorted(c_scaled, keys), axis=1)
        pieces = (at_edges[:, 1:] - at_edges[:, :-1]).reshape(4 * moments, hi - lo)
        ub = u[lo:hi]
        if code == PROFILE_COSINE:
            parts = _COSINE_PIECES @ pieces
            half_pi_u = 0.5 * np.pi * ub
            out[lo:hi] = np.cos(half_pi_u) * parts[0] + np.sin(half_pi_u) * parts[1]
            continue
        # Horner's rule in u
        parts = _POLYNOMIAL_PROFILES[code] @ pieces
        value = parts[-1]
        for part in parts[-2::-1]:
            value = value * ub + part
        out[lo:hi] = value
    return out


def _lifted_bump(points: np.ndarray, centers: np.ndarray, scale: float, out: np.ndarray) -> bool:
    """Write the unit bump values of a block of ``points`` (rows, d) against
    every centre into ``out`` (rows, N) by one lifted matrix product.

    Returns False, with ``out`` undefined, if the points lie farther than
    ``_LIFT_MAX_EXTENT`` scales from their box centre r, or if a lifted
    centre is not finite (non-finite or overflowing input).  In units of s
    about r, X = (x - r) / s and C = (c - r) / s, and

        v = 1 - |X - C|^2 = (X, 1 - |X|^2, 1) . (2 C, 1, -|C|^2),

    whose clamped square is the bump.

    Accuracy.  Let E = max |X| over the block, u the unit roundoff and
    g_n = n u / (1 - n u).  Each lifted term (2 X_k C_k, 1, -|X|^2 and
    -|C|^2) meets at most 2d + 8 roundings, from subtracting r through the
    d + 2 term sum of the product, so the computed v' is off by

        |v' - v| <= g_(2d+8) (1 + (|X| + |C|)^2).

    A pair inside the support (v > 0) has |C| <= |X| + |X - C| < E + 1, so
    |v' - v| <= delta = (2d + 10) u (1 + (2E + 1)^2), the constant rounded
    up past 2d + 8 to cover the rounding of E and of delta.  A pair outside
    (v <= 0) has v' <= delta too: for |C| < E + 1 by the same bound, and
    for |C| >= E + 1 because v' <= 1 - (|C| - E)^2 + g (1 + (|C| + E)^2),
    which falls as |C| grows and is g (1 + (2E + 1)^2) at |C| = E + 1.  So
    every v' <= delta is set to exactly 0, as max(v', delta)^2 - delta^2,
    and the support stays exact.  Every other value is v'^2 - delta^2 up to
    rounding, within 2 delta + 4u of the bump v^2.  With E <= 1.5 that is
    (68d + 344) u: 5.3e-14 at d = 2 and 6.1e-14 at d = 3, inside the 1e-13
    per unit weight of the radial-sum tolerance, with the rest left to the
    product with the weights that the coordinate pass spends as well.

    Once E <= 1.5 and every |2C|^2 is finite, no lifted term or sum of them
    can overflow.
    """
    d = points.shape[1]
    low, high = points.min(axis=0), points.max(axis=0)
    # a box side over twice the extent puts a point beyond it; in Python
    # floats, so that a NaN or inf point fails the test without a warning
    if not all(h - l <= 2.0 * _LIFT_MAX_EXTENT * scale for l, h in zip(low.tolist(), high.tolist())):
        return False
    ref = low + 0.5 * (high - low)
    lifted_x = np.empty((len(points), d + 2))
    x = lifted_x[:, :d]
    np.subtract(points, ref, out=x)
    x /= scale
    sq_x = np.einsum("ij,ij->i", x, x)
    extent = math.sqrt(sq_x.max())
    if extent > _LIFT_MAX_EXTENT:
        return False
    np.subtract(1.0, sq_x, out=lifted_x[:, d])
    lifted_x[:, d + 1] = 1.0
    lifted_c = np.empty((d + 2, len(centers)))
    twice_c = lifted_c[:d]
    np.subtract(centers.T, ref[:, None], out=twice_c)
    twice_c *= 2.0 / scale
    np.einsum("ij,ij->j", twice_c, twice_c, out=lifted_c[d + 1])
    if not math.isfinite(lifted_c[d + 1].sum()):
        return False
    lifted_c[d + 1] *= -0.25
    lifted_c[d] = 1.0
    np.matmul(lifted_x, lifted_c, out=out)
    delta = (2 * d + 10) * _U * (1.0 + (2.0 * extent + 1.0) ** 2)
    np.maximum(out, delta, out=out)
    np.square(out, out=out)
    np.subtract(out, delta * delta, out=out)
    return True


def radial_sum(
    points: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
    code: int,
    scale: float,
    height: float,
) -> np.ndarray:
    """Sum of one radial profile over weighted centers, at many points.

    ``out[m] = sum_n weights[n] * profile(|points[m] - centers[n]|)``
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    m, n = points.shape[0], centers.shape[0]
    if n == 0 or m == 0:
        return np.zeros(m)
    if code == PROFILE_CONSTANT:
        return np.full(m, height * float(weights.sum()))
    if points.shape[1] == 1 and code in _MOMENTS:
        out = _windowed_sum_1d(points[:, 0], centers[:, 0], weights, code, scale)
        if out is not None:
            out *= height
            return out
    out = np.empty(m)
    rows = block_rows(n)
    sq_buf = np.empty((min(rows, m), n))
    scratch_buf = None
    # non-finite weights take the coordinate pass, which defines their NaNs
    lift = (
        code == PROFILE_BUMP
        and points.shape[1] <= _LIFT_MAX_DIM
        and sq_buf.size >= _LIFT_MIN_ELEMENTS
        and math.isfinite(weights.sum())
    )
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        sq = sq_buf[: hi - lo]
        if not (lift and _lifted_bump(points[lo:hi], centers, scale, sq)):
            np.subtract.outer(points[lo:hi, 0], centers[:, 0], out=sq)
            np.square(sq, out=sq)
            for k in range(1, points.shape[1]):
                if scratch_buf is None:
                    scratch_buf = np.empty_like(sq_buf)
                scratch = scratch_buf[: hi - lo]
                np.subtract.outer(points[lo:hi, k], centers[:, k], out=scratch)
                np.square(scratch, out=scratch)
                sq += scratch
            unit_profile(sq, code, scale)
        np.dot(sq, weights, out=out[lo:hi])
    out *= height
    return out


def w1_cdf_merge(xu: np.ndarray, wu: np.ndarray, xv: np.ndarray, wv: np.ndarray) -> float:
    """1D transport cost between weighted point sets of equal mass, in any
    order; weights positive."""
    # W1 = integral of |F_mu - F_nu| over the merged breakpoint grid.
    xs = np.concatenate([xu, xv])
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    steps = np.concatenate([wu, -wv])[order]
    cdf_gap = np.abs(np.cumsum(steps)[:-1])
    return float(np.sum(cdf_gap * np.diff(xs)))


def _northwest_corner_py(supply: np.ndarray, demand: np.ndarray):
    """Initial basic solution with exactly N + M - 1 basic cells."""
    n, m = supply.size, demand.size
    a = supply.tolist()
    b = demand.tolist()
    cells = []
    flows = []
    i = j = 0
    for _ in range(n + m - 1):
        q = min(a[i], b[j])
        cells.append((i, j))
        flows.append(q)
        a[i] -= q
        b[j] -= q
        # on ties advance one side only (zero-flow basic cell keeps the tree)
        if (a[i] <= b[j] and i < n - 1) or j == m - 1:
            i += 1
        else:
            j += 1
    return cells, flows


def _hang(root, up, up_edge, n, ends, arc_cost, adj, parent, parent_edge, depth, pi):
    """Hang the subtree at ``root`` below node ``up`` along ``up_edge`` and price it.

    Nodes are rows ``0..n-1`` and columns ``n..n+m-1``; ``ends[e]`` is the
    (row, column) node pair of basic cell ``e`` and ``arc_cost[e]`` its cost.
    Potentials satisfy ``pi[row] - pi[col] = cost`` on every tree arc, with
    ``pi = 0`` at the global root (``up_edge == -1``).  Each potential is
    priced from its parent's along the arc, exactly as a full rebuild from
    the root would price it.  Returns the nodes visited.
    """
    hung = []
    stack = [(root, up, up_edge)]
    while stack:
        node, above, e = stack.pop()
        parent[node] = above
        parent_edge[node] = e
        if e < 0:
            depth[node] = 0
            pi[node] = 0.0
        else:
            depth[node] = depth[above] + 1
            pi[node] = pi[above] - arc_cost[e] if node >= n else pi[above] + arc_cost[e]
        hung.append(node)
        if len(hung) > len(parent):
            raise RuntimeError("basic cells contain a cycle")
        for f in adj[node]:
            if f != e:
                r, c = ends[f]
                stack.append((c if node == r else r, node, f))
    return hung


def _tree_duals_py(n, m, basis_cells, cost):
    """Root the spanning tree of basic cells at row 0 and solve u_i + v_j = c_ij.

    Returns the tree state ``(ends, arc_cost, adj, parent, parent_edge,
    depth, pi)`` that the simplex keeps between pivots; ``u = pi[:n]`` and
    ``v = -pi[n:]``.
    """
    ends = [(i, n + j) for i, j in basis_cells]
    arc_cost = [float(cost[i, j]) for i, j in basis_cells]
    adj: list[list[int]] = [[] for _ in range(n + m)]
    for e, (r, c) in enumerate(ends):
        adj[r].append(e)
        adj[c].append(e)
    parent = [-1] * (n + m)
    parent_edge = [-1] * (n + m)
    depth = [0] * (n + m)
    pi = [0.0] * (n + m)
    if len(_hang(0, -1, -1, n, ends, arc_cost, adj, parent, parent_edge, depth, pi)) != n + m:
        raise RuntimeError("basis does not span the bipartite graph")
    return ends, arc_cost, adj, parent, parent_edge, depth, pi


def transport_simplex(
    cost: np.ndarray,
    supply: np.ndarray,
    demand: np.ndarray,
    start: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
):
    """Primal transportation simplex on the dense cost matrix.

    Returns (basis_i, basis_j, flows, u, v) for the N + M - 1 basic cells,
    zero-flow cells included.  ``start`` is an optional spanning basis
    ``(basis_i, basis_j, flows)`` that is primal-feasible for ``supply`` and
    ``demand`` (for example the basis of an earlier solve with the same
    marginals); without it the solve starts from the northwest corner.
    Dantzig pricing with a Bland-style fallback after a pivot budget; raises
    RuntimeError if the iteration caps are exhausted or the basis does not
    span the bipartite graph.
    """
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    supply = np.ascontiguousarray(supply, dtype=np.float64)
    demand = np.ascontiguousarray(demand, dtype=np.float64)
    n, m = cost.shape
    piv_tol = 1e-12 * max(1.0, float(np.abs(cost).max()))
    dantzig_cap = 60 * (n + m + 1)
    total_cap = dantzig_cap + 600 * (n + m + 1)
    if start is not None and any(len(part) != n + m - 1 for part in start):
        raise ValueError(f"a starting basis needs {n + m - 1} cells")
    if start is None:
        cells, flows = _northwest_corner_py(supply, demand)
    else:
        cells = list(zip(start[0].tolist(), start[1].tolist()))
        flows = start[2].tolist()
    tree = _tree_duals_py(n, m, cells, cost)
    ends, arc_cost, adj, parent, parent_edge, depth, pi = tree
    potentials = np.array(pi)
    pivots = 0
    while True:
        reduced = cost - potentials[:n, None] + potentials[None, n:]
        if pivots < dantzig_cap:
            flat = int(np.argmin(reduced))
            ei, ej = divmod(flat, m)
            if reduced[ei, ej] >= -piv_tol:
                break
        else:
            # Bland-style fallback: first improving cell in index order
            mask = reduced < -piv_tol
            if not mask.any():
                break
            flat = int(np.argmax(mask.ravel()))
            ei, ej = divmod(flat, m)
        # cycle: climb from both ends of the entering arc until they meet
        a, b = ei, n + ej
        head, tail = [], []
        while a != b:
            if depth[a] >= depth[b]:
                head.append(parent_edge[a])
                a = parent[a]
            else:
                tail.append(parent_edge[b])
                b = parent[b]
        path = head + tail[::-1]
        # entering edge is "+"; signs alternate along the path from row ei
        theta = np.inf
        leave_pos = -1
        for pos in range(0, len(path), 2):  # "-" edges
            if flows[path[pos]] < theta:
                theta = flows[path[pos]]
                leave_pos = pos
        theta = max(theta, 0.0)
        for pos, eidx in enumerate(path):
            flows[eidx] += theta if pos % 2 == 1 else -theta
        leaving = path[leave_pos]
        r, c = ends[leaving]
        adj[r].remove(leaving)
        adj[c].remove(leaving)
        ends[leaving] = (ei, n + ej)
        arc_cost[leaving] = float(cost[ei, ej])
        flows[leaving] = theta
        adj[ei].append(leaving)
        adj[n + ej].append(leaving)
        # the endpoint on the leaving arc's side of the cycle was cut off
        # from the root; re-hang its subtree from the entering arc
        low, high = (ei, n + ej) if leave_pos < len(head) else (n + ej, ei)
        hung = _hang(low, high, leaving, n, *tree)
        potentials[hung] = [pi[node] for node in hung]
        pivots += 1
        if pivots > total_cap:
            raise RuntimeError("transportation simplex failed to terminate")
    basis_i = np.array([r for r, _ in ends], dtype=np.int64)
    basis_j = np.array([c - n for _, c in ends], dtype=np.int64)
    return basis_i, basis_j, np.asarray(flows, dtype=np.float64), potentials[:n].copy(), -potentials[n:]
