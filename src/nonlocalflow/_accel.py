"""Hot numeric kernels.

The particle method spends nearly all of its time summing radial kernel
profiles over particle ensembles (one convolution per velocity evaluation)
and merging sorted weight sequences for 1D transport costs.  Both are
vectorized numpy.  The radial sum is one fused dense pass over blocks of
evaluation points: each block builds its squared distances coordinate by
coordinate in one reused (rows, N) buffer, applies the profile in place and
finishes with one matrix-vector product, so its memory is O(block + M)
whatever N, M and d are.

The transportation simplex behind exact W1 is in Python with numpy
pricing.  It keeps its spanning tree (parents, depths and potentials) from
one pivot to the next and reprices only the subtree that a pivot cuts off,
and it can start from a given basis.
"""

from __future__ import annotations

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
    if n == 0:
        return np.zeros(m)
    if code == PROFILE_CONSTANT:
        return np.full(m, height * float(weights.sum()))
    out = np.empty(m)
    rows = block_rows(n)
    sq_buf = np.empty((min(rows, m), n))
    scratch_buf = np.empty_like(sq_buf) if points.shape[1] > 1 else None
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        sq = sq_buf[: hi - lo]
        np.subtract.outer(points[lo:hi, 0], centers[:, 0], out=sq)
        np.square(sq, out=sq)
        for k in range(1, points.shape[1]):
            scratch = scratch_buf[: hi - lo]
            np.subtract.outer(points[lo:hi, k], centers[:, k], out=scratch)
            np.square(scratch, out=scratch)
            sq += scratch
        np.dot(unit_profile(sq, code, scale), weights, out=out[lo:hi])
    out *= height
    return out


def w1_cdf_merge(xu: np.ndarray, wu: np.ndarray, xv: np.ndarray, wv: np.ndarray) -> float:
    """1D transport cost between sorted weighted point sets of equal mass.

    Inputs must be sorted ascending by position; weights positive.
    """
    xu = np.ascontiguousarray(xu, dtype=np.float64)
    wu = np.ascontiguousarray(wu, dtype=np.float64)
    xv = np.ascontiguousarray(xv, dtype=np.float64)
    wv = np.ascontiguousarray(wv, dtype=np.float64)
    if xu.size == 0 and xv.size == 0:
        return 0.0
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
