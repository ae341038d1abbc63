"""Sample-level support/radial operators shared by the body calculus.

Everything below works on plain positive sample vectors over a DirectionGrid.
The two workhorses form a Galois pair:

* support_of_cloud (C):  C(w)_j = max_i w_i <theta_i, theta_j>_+
  is the support function of the point cloud {w_i theta_i} (plus the origin),
  sampled on the grid.  Its image is exactly the set of support vectors the
  discrete engine can certify.

* radial_of_halfspaces (D):  D(g)_j = min over i with <theta_i,theta_j> > 0
  of g_i / <theta_i, theta_j>, the radial function of the intersection of the
  half-spaces {x : <x, theta_i> <= g_i}.  Identically D(g) = 1 / C(1/g).

C(w) <= g holds iff w <= D(g), hence C(D(C(w))) == C(w) exactly: outputs of C
pass the support-consistency certificate at float precision.

hull_radial is the inner companion: radial samples of conv(cloud), used by the
power-map iteration.  Points of an already-convex cloud pass through
unchanged, which keeps fixed-point families (regime polygons) exact.  On
uniform 2D grids it reads one hull pass (_hull_pass: power-of-two rescale,
convex-position test, Graham scan, edge radial); other grids use qhull.
The pass holds x and y as two contiguous rows; its scan pushes each convex
run in one step and tests only the pockets point by point, with the same
float tests throughout, so the hull is that of a point-by-point scan.

On uniform 2D grids C indexes the hull of that same pass
(_support_by_vertices), and hull_radial_and_support takes both from it.
Everywhere else C runs the cone-pruned kernel _support_pruned, and so does
the ND hull radial (1 / C over the facets, whose normals join the cap of
their nearest centre):

* The grid's rays fall into about sqrt(N) caps (DirectionGrid.caps), each
  a centre and an angular radius; for C the points are the rays, so the
  caps group them too.
* Each ray cap takes its own group's products first; the least of their
  per-ray maxima is a floor below every answer in the cap.  A point group
  whose cone bound, max w * cos(angle between centres - both radii), stays
  below the floor is skipped; the rest are gathered.
* A cap that keeps more than half the rows takes them all without
  gathering: the dense max, where caps are wide (4D, 8D).
* No product has one row or one ray (the BLAS would take gemv and round
  otherwise; a lone row or ray is repeated) or more than RAY_BLOCK rays,
  and point sets too small for caps to pay take the dense kernel whole.
  So the result equals the dense max bit for bit.

The two shared dense kernels hold DENSE_BLOCK products at a time and so
need O(N + M) memory:

* _support_blocked, max_i w_i <p_i, theta_j>_+: the small point sets of the
  pruned kernel and, with w = 1, the support of conv(points + {0}), which
  is the radial of their petal flower (flower_from_petals, polytope_body,
  section_radial, global_average).
* _ball_union_radial, the radial of a union of balls that hold the origin
  (projected_radial, minkowski_sum_2d).  It and _row_norms, which gives
  those callers their petal lengths, rescale by a power of two, so petals
  whose squares would overflow stay exact.
"""
from __future__ import annotations

import bisect

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInputError
from .spherecore import DENSE_BLOCK, Caps, DirectionGrid, angle_between, nearest_centre

# the Graham kernel below is plain numpy/Python; the flag stays because the
# benchmark harness reads it to label the 2D hull kernel
_HAVE_NUMBA = False

# radial floor for bodies that touch the origin (segments, petals); keeps
# reciprocals finite while staying far below every certificate tolerance
EPS_FLOOR = 1e-9

# slack of the hull-indexed C on uniform 2D grids, absorbing float ties: a
# ray takes every vertex whose normal cone it meets within NORMAL_ANGLE_TOL
# radians (long flat sides have many), and a point within relative
# NEAR_HULL_TOL of the hull radial at its own ray stays a candidate although
# the scan dropped it
NORMAL_ANGLE_TOL = 1e-9
NEAR_HULL_TOL = 1e-12

# widest span max(w) / min(w), as a power of two, that the 2D hull pass
# takes: rescaled to about 2**-400 .. 2**400, its products of two coordinates
# (down to 2**-54 of a sample) stay in the normal floats
MAX_SPAN_EXP = 800

# largest coordinate exponent, in powers of two, of a cloud that qhull takes as
# it is; products of up to 15 such coordinates, as in its simplex
# determinants, stay in the floats
QHULL_MAX_EXP = 64

# widest block of rays in one product of the pruned kernel.  The BLAS may
# round the last few columns of a wider product with another kernel (OpenBLAS
# does past 192 columns), and a product with one row or one column goes
# through gemv, which rounds differently again; blocks of 2 .. RAY_BLOCK rays
# and at least 2 rows round every entry as the dense blocks at N >= 2048 do
RAY_BLOCK = 128

# absolute slack on the cosine bound of the pruned kernel: it covers the unit
# norms (to UNIT_NORM_TOL), the rounding of the angles and of the products,
# so a dropped point group never holds a product that reaches the own-cap floor
PRUNE_SLACK = 1e-9


def support_of_cloud(grid: DirectionGrid, w: np.ndarray) -> np.ndarray:
    """C(w): support samples of conv({w_i theta_i} + {0})."""
    w = np.asarray(w, dtype=float)
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise DegenerateInputError("cloud values must be finite and positive")
    hull = _hull_pass(grid, w)
    if hull is None:
        caps = grid.caps()
        return _support_pruned(caps, grid.directions, grid.directions, w, caps.order, caps.starts, caps.radius)
    return _support_by_vertices(grid, w, *hull[1:])


def hull_radial_and_support(grid: DirectionGrid, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hull_radial(grid, w) and support_of_cloud(grid, w) of a star body's radial w; one pass on uniform 2D grids."""
    w = np.asarray(w, dtype=float)
    hull = _hull_pass(grid, w)
    if hull is None:
        return hull_radial(grid, w), support_of_cloud(grid, w)
    return hull[0], _support_by_vertices(grid, w, *hull[1:])


def radial_of_halfspaces(grid: DirectionGrid, g: np.ndarray) -> np.ndarray:
    """D(g): radial samples of the half-space intersection of the bounds g."""
    return 1.0 / support_of_cloud(grid, 1.0 / np.asarray(g, dtype=float))


def closure(grid: DirectionGrid, g: np.ndarray) -> np.ndarray:
    """C(D(g)): the largest certified support vector below g."""
    return support_of_cloud(grid, radial_of_halfspaces(grid, g))


def certificate_violation(grid: DirectionGrid, g: np.ndarray) -> float:
    """Max gap g - C(D(g)); zero (to float noise) iff g is support-consistent."""
    return float(np.abs(np.asarray(g, dtype=float) - closure(grid, g)).max())


def _turns(xy: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a_i = p_{i-s}, b_i = p_{i+s} of an angularly sorted 2D cloud, and turn_i >= 0 iff a_i, p_i, b_i turn left.

    xy holds x and y as two rows; a and b are views into one padded copy of
    the ring, and turn_i = (p_i - a_i) x (b_i - p_i) reads both differences
    off one subtraction over it.
    """
    n = xy.shape[1]
    ring = np.concatenate((xy[:, n - s:], xy, xy[:, :s]), axis=1)
    d = ring[:, s:] - ring[:, :-s]  # d_i = p_i - p_{i-s}, then b_i - p_i = d_{i+s}
    return ring[:, :n], ring[:, 2 * s:], d[0, :n] * d[1, s:] - d[1, :n] * d[0, s:]


def is_convex_position(pts: np.ndarray) -> bool:
    """True if the angularly sorted (N, 2) cloud is in convex position (all left turns)."""
    return bool((_turns(pts.T, 1)[2] >= 0.0).all())


def convex_hull(points: np.ndarray, what: str) -> ConvexHull:
    """The package's one qhull call; a failure raises DegenerateInputError("what: qhull's reason"), no run id."""
    try:
        return ConvexHull(points)
    except QhullError as e:
        raise DegenerateInputError(f"{what}: {' '.join(str(e).split('While executing')[0].split())}") from e


def _hull_radial_qhull(grid: DirectionGrid, pts: np.ndarray) -> np.ndarray:
    """Radial of conv(pts) along the grid rays: D over the hull facets <a_k, x> <= -b_k, as 1 / C(-1/b).

    The facet normals join the cap of their nearest centre, so the facet
    support runs through the pruned kernel.  A cloud whose largest coordinate
    lies beyond 2**QHULL_MAX_EXP or below 2**-QHULL_MAX_EXP is scaled by
    2**-k to a largest coordinate in [0.5, 1) first: b scales by 2**-k and a
    does not, so the radial scales back exactly.  Other clouds reach qhull as
    they are, since qhull itself is not exact under scaling.
    """
    k = int(np.frexp(np.abs(pts).max())[1])
    k = k if abs(k) > QHULL_MAX_EXP else 0
    hull = convex_hull(np.ldexp(pts, -k) if k else pts, "degenerate point cloud")
    a, b = hull.equations[:, :-1], hull.equations[:, -1]
    if not (b < 0.0).all():
        raise DegenerateInputError("the hull of the cloud does not hold the origin strictly inside")
    caps = grid.caps()
    label = nearest_centre(a, caps.centres)
    order = np.argsort(label, kind="stable")
    starts = np.searchsorted(label[order], np.arange(len(caps.radius) + 1))
    radius = np.zeros(len(caps.radius))
    np.maximum.at(radius, label, angle_between(a, caps.centres[label]))
    return np.ldexp(1.0 / _support_pruned(caps, grid.directions, a, -1.0 / b, order, starts, radius), k)


def _hull_pass(grid: DirectionGrid, w: np.ndarray) -> tuple | None:
    """(radial, ws, xy, keep, edge): the hull of the cloud on a uniform 2D grid, scanned on ws = w * 2**-k.

    radial is the hull radial (w itself in convex position), xy the (2, N)
    coordinates ws_i cos(theta_i), ws_i sin(theta_i) of the points, keep the
    hull vertices and edge the rescaled edge radial along every ray (both
    None in convex position).  k centres the cloud on 1 to keep its cross
    products in the normal floats.  None on other grids or if w spans more
    than 2**MAX_SPAN_EXP.
    """
    if grid.dim != 2 or grid.uniform_n is None:
        return None
    hi, lo = int(np.frexp(w.max())[1]), int(np.frexp(w.min())[1])
    if hi - lo > MAX_SPAN_EXP:
        return None
    k = (hi + lo) // 2
    ws = np.ldexp(w, -k)
    xy = np.empty((2, len(w)))
    np.multiply(ws, grid.directions[:, 0], out=xy[0])
    np.multiply(ws, grid.directions[:, 1], out=xy[1])
    keep = _graham_vertices(xy)
    if keep is None:
        return w, ws, xy, None, None
    edge = _edge_radial(grid, xy, keep)
    return np.maximum(np.ldexp(edge, k), w), ws, xy, keep, edge


def _graham_vertices(xy: np.ndarray) -> np.ndarray | None:
    """Indices, in angular (CCW) order, of the hull vertices of an angularly sorted 2D cloud; None in convex position.

    xy holds the x and y coordinates as two rows.  The origin must be
    interior.  Convex position is is_convex_position's test, on the turns of
    s = 1.  Otherwise a point lying strictly inside conv{0, p_{i-s}, p_{i+s}}
    is never a hull vertex (the test is valid whenever the bracketing pair
    spans less than pi, which cross(a, b) > 0 certifies); one vectorized pass
    with s in {1, 2} drops most interior points before the scan.  The scan
    starts from the farthest point, which is always a vertex, and pops only
    on a strict right turn, so collinear boundary points stay.

    While the stack's top two entries are consecutive candidates, the scan's
    next test is the candidates' own s = 1 turn, computed once in numpy with
    the same float expression; so a convex run is pushed in one step up to
    the next right turn, and only the pockets behind it are scanned one
    point at a time, until the top two are consecutive again.
    """
    bad = np.zeros(xy.shape[1], dtype=bool)
    for s in (1, 2):
        a, b, turn = _turns(xy, s)
        if s == 1 and (turn >= 0.0).all():
            return None
        span_ok = a[0] * b[1] - a[1] * b[0] > 0.0
        bad |= span_ok & (turn < 0.0)
    cand = np.flatnonzero(~bad)
    m = len(cand)
    x, y = xy
    qx, qy = x[cand], y[cand]
    s0 = int(np.argmax(qx * qx + qy * qy))
    q = xy.take(np.concatenate((cand[s0:], cand[:s0 + 1])), axis=1)  # position t is candidate (s0 + t) % m
    right = [*np.flatnonzero(_turns(q[:, :m], 1)[2] < 0.0).tolist(), m]
    xs, ys = q.tolist()
    stack = [0]
    gone = []  # the popped positions; the stack keeps the rest
    t = 1  # once around, back to s0 at position m; the stack's top is always t - 1
    while t <= m:
        if len(stack) >= 2 and stack[-2] == t - 2:
            # the next tests are the turns at t - 1, t, ...: push up to the first right turn
            r = right[bisect.bisect_left(right, t - 1)]
            stack.extend(range(t, r + 1))
            t = r + 1
            if t > m:
                break
            gone.append(stack.pop())  # the turn at r is right
        bx, by = xs[t], ys[t]
        px, py = xs[stack[-1]], ys[stack[-1]]
        while len(stack) >= 2:
            j = stack[-2]
            ax, ay = xs[j], ys[j]
            if (px - ax) * (by - py) - (py - ay) * (bx - px) < 0.0:
                gone.append(stack.pop())
                px, py = ax, ay
            else:
                break
        stack.append(t)
        t += 1
    kept = np.ones(m, dtype=bool)
    kept[(np.array(gone, dtype=np.intp) + s0) % m] = False
    return cand[kept]


def _edge_radial(grid: DirectionGrid, xy: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each grid ray intersected with the hull edge keep[k] -> keep[k+1] that brackets it.

    Edge vectors and numerators p_k x p_{k+1} are taken once per edge and
    repeated over each edge's rays; the closing edge keep[-1] -> keep[0] is
    taken at both ends, as its rays wrap past ray 0.  A ray with
    |denominator| <= 1e-300 takes the distance to the edge's first vertex.
    """
    x, y = xy
    n = len(x)
    ends = np.concatenate(([0], keep, [n]))
    count = ends[1:] - ends[:-1]
    ring = np.concatenate((keep[-1:], keep, keep[:1]))
    vx, vy = x[ring], y[ring]
    ex = np.repeat(vx[1:] - vx[:-1], count)
    ey = np.repeat(vy[1:] - vy[:-1], count)
    num = np.repeat(vx[:-1] * vy[1:] - vy[:-1] * vx[1:], count)
    d = grid.directions
    denom = d[:, 0] * ey - d[:, 1] * ex
    if np.abs(denom).min() > 1e-300:  # nan fails it too, as the elementwise test would
        return num / denom
    with np.errstate(divide="ignore", invalid="ignore"):
        far = np.hypot(np.repeat(vx[:-1], count), np.repeat(vy[:-1], count))
        return np.where(np.abs(denom) > 1e-300, num / denom, far)


def _support_by_vertices(grid: DirectionGrid, w: np.ndarray, ws: np.ndarray, xy: np.ndarray,
                         keep: np.ndarray | None, edge: np.ndarray | None) -> np.ndarray:
    """C(w) on a uniform 2D grid from the hull pass: the dense max, bit for bit, over an FMA-rounded Gram.

    Each ray's supporting vertex is found by searchsorted over the edges'
    outward-normal angles.  The max of w_i <theta_i, theta_j>_+ then runs over
    the near-hull points between the first and the last vertex whose normal
    cone holds the ray within NORMAL_ANGLE_TOL.  The dot products are batched
    1x2 @ 2x1 matmuls, which round with FMA like the BLAS Gram entries;
    elementwise products would not.
    """
    d = grid.directions
    n = len(w)
    if keep is None:
        keep = near = np.arange(n)
    else:
        is_near = ws >= edge * (1.0 - NEAR_HULL_TOL)
        is_near[keep] = True
        near = np.flatnonzero(is_near)
    m, nn = len(keep), len(near)
    v = xy.take(np.concatenate((keep, keep[:1])), axis=1)
    ex, ey = v[:, 1:] - v[:, :-1]
    nu = np.arctan2(-ex, ey)  # outward normal of edge k, from vertex k to k+1
    turn = np.maximum((np.diff(nu) + np.pi) % (2 * np.pi) - np.pi, 0.0)
    nu = nu[0] + np.concatenate(([0.0], np.cumsum(turn)))
    nu3 = np.concatenate((nu - 2 * np.pi, nu, nu + 2 * np.pi))
    phi = nu[0] + (grid.angles() - nu[0]) % (2 * np.pi)
    # vertex k's normal cone is [nu_{k-1}, nu_k]; lo..hi are the vertices whose
    # cone holds the ray within the tolerance.  Any other candidate lies at
    # least |v| sin(2 pi / N) from the supporting vertex v, along an edge
    # turned more than the tolerance off the ray's normal, so its value falls
    # short by about 1e-12 |v| at N = 8192: far beyond the float error of
    # w_i <theta_i, theta_j>, which is a few ulp of |v| at any aspect ratio
    lo = np.searchsorted(nu3, phi - NORMAL_ANGLE_TOL, side="left")
    hi = np.searchsorted(nu3, phi + NORMAL_ANGLE_TOL, side="right")
    first = np.searchsorted(near, keep[lo % m])
    count = (np.searchsorted(near, keep[hi % m]) - first) % nn + 1
    whole = hi - lo + 1 >= m
    first[whole] = 0
    count[whole] = nn
    ray = np.repeat(np.arange(n), count)
    starts = np.concatenate(([0], np.cumsum(count)[:-1]))
    cand = near[(np.arange(len(ray)) - np.repeat(starts - first, count)) % nn]
    dots = (d[cand][:, None, :] @ d[ray][:, :, None])[:, 0, 0]
    return np.maximum.reduceat(w[cand] * np.maximum(dots, 0.0), starts)


def _support_pruned(caps: Caps, dirs: np.ndarray, pts: np.ndarray, w: np.ndarray,
                    order: np.ndarray, starts: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """max_i w_i <p_i, theta_j>_+ over the point rows p_i for each grid ray theta_j, skipping far point groups.

    Point group g holds the rows order[starts[g]:starts[g + 1]], each within
    radius[g] of the cap centre g; for C they are the caps themselves.  Ray
    cap c first takes its own group's products: the least of their per-ray
    maxima is the floor L_c.  No point of group g makes more on a ray of cap c
    than max_g w * cos(max(0, spread - radius_c - radius_g)), so a group whose
    bound (plus PRUNE_SLACK) stays below L_c cannot change any max and is
    skipped.  A cap that keeps more than half the rows takes them all without
    gathering, in one pass with the other such caps at the end: the dense
    max, where caps are wide (high dimensions).
    Every product is an entry of the dense expression of _support_blocked,
    rounded alike (see RAY_BLOCK), and the max is exact, so the result equals
    the dense one bit for bit.  Point sets whose dense blocks would hold more
    than RAY_BLOCK rays or a single ray, which the BLAS rounds otherwise, take
    the dense kernel whole, and so keep its bits: below DENSE_BLOCK /
    RAY_BLOCK rows the whole product is small, and above DENSE_BLOCK / 2 rows
    they are the facets of high-dimensional hulls, whose qhull run dominates.
    """
    if not 2 <= DENSE_BLOCK // len(pts) <= RAY_BLOCK:
        return _support_blocked(pts, dirs, w)
    sizes = np.diff(starts)
    top = np.zeros(len(sizes))
    filled = sizes > 0
    top[filled] = np.maximum.reduceat(w[order], starts[:-1][filled])
    gap = np.maximum(caps.spread - caps.radius[:, None] - radius[None, :], 0.0)
    reach = top * (np.cos(gap) + PRUNE_SLACK)
    half = len(pts) // 2
    buf = np.empty(max(DENSE_BLOCK, 4 * len(pts)))
    out = np.empty(len(dirs))
    dense = []  # rays of the caps that take every row, taken together at the end
    for c in range(len(caps.radius)):
        rays = caps.order[caps.starts[c]:caps.starts[c + 1]]
        if sizes[reach[c] >= top[c]].sum() > half:  # L_c is at most about top_c: even that floor keeps most rows
            dense.append(rays)
            continue
        theta = dirs[rays]
        own = order[starts[c]:starts[c + 1]]
        best = _block_max(pts[own], theta, w[own], buf) if len(own) else np.zeros(len(rays))
        keep = reach[c] >= best.min()
        keep[c] = False
        if sizes[keep].sum() > half:
            dense.append(rays)
            continue
        if keep.any():
            rows = order[np.repeat(keep, sizes)]
            best = np.maximum(best, _block_max(pts[rows], theta, w[rows], buf))
        out[rays] = best
    if dense:
        rays = np.concatenate(dense)
        out[rays] = _block_max(pts, dirs[rays], w, buf)
    return out


def _block_max(pts: np.ndarray, dirs: np.ndarray, w: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """max_i w_i <p_i, theta_j>_+ by the expression of _support_blocked, in products of 2 .. RAY_BLOCK rays and >= 2 rows.

    A single row or ray is repeated, which leaves every max unchanged.  The
    products are written into buf, so a kernel call allocates its block once.
    """
    if len(pts) == 1:
        pts, w = np.repeat(pts, 2, axis=0), np.repeat(w, 2)
    n = len(dirs)
    if n == 1:
        dirs = np.repeat(dirs, 2, axis=0)
    step = max(4, min(RAY_BLOCK, DENSE_BLOCK // len(pts)))
    parts = -(-len(dirs) // step)
    cuts = [i * len(dirs) // parts for i in range(parts + 1)]  # parts of >= 2 rays, as step >= 4
    out = np.empty(len(dirs))
    for j, k in zip(cuts[:-1], cuts[1:]):
        block = buf[:len(pts) * (k - j)].reshape(len(pts), k - j)
        np.matmul(pts, dirs[j:k].T, out=block)
        np.maximum(block, 0.0, out=block)
        block *= w[:, None]
        out[j:k] = block.max(axis=0)
    return out[:n]


def _support_blocked(pts: np.ndarray, dirs: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """max_i w_i <p_i, theta_j>_+ over the point rows p_i for each ray row theta_j (w = 1 if None)."""
    out = np.empty(len(dirs))
    step = max(1, DENSE_BLOCK // len(pts))
    cuts = [*range(0, len(dirs), step), len(dirs)]
    if step > 1 and len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]  # a lone last ray joins the block before: the BLAS takes gemv for one ray and rounds otherwise
    for j, k in zip(cuts[:-1], cuts[1:]):
        block = np.maximum(pts @ dirs[j:k].T, 0.0)
        if w is not None:
            block *= w[:, None]
        out[j:k] = block.max(axis=0)
    return out


def _row_norms(pts: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows, taken on the rows scaled by a power of two so the squares stay in the floats."""
    k = int(np.frexp(np.abs(pts).max())[1])
    return np.ldexp(np.linalg.norm(np.ldexp(pts, -k), axis=1), k)


def _ball_union_radial(centers: np.ndarray, radii: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """max_i <c_i, theta_j> + sqrt(rho_i^2 - |c_i|^2 + <c_i, theta_j>^2): the union of balls B(c_i, rho_i) holding 0.

    The balls are scaled by 2**-k, with k centring the radii on 1 as in
    _hull_pass, so the squares stay in the floats at any scale; the scaling
    is exact, so in-range results are unchanged bit for bit.
    """
    k = (int(np.frexp(radii.max())[1]) + int(np.frexp(radii.min())[1])) // 2
    centers, radii = np.ldexp(centers, -k), np.ldexp(radii, -k)
    base = radii ** 2 - (centers ** 2).sum(axis=1)
    out = np.empty(len(dirs))
    step = max(1, DENSE_BLOCK // len(centers))
    for j in range(0, len(dirs), step):
        ip = centers @ dirs[j:j + step].T
        out[j:j + step] = (ip + np.sqrt(np.maximum(base[:, None] + ip ** 2, 0.0))).max(axis=0)
    return np.ldexp(out, k)


def hull_radial(grid: DirectionGrid, w: np.ndarray) -> np.ndarray:
    """Radial samples of conv({w_i theta_i}) along the grid rays.

    Exact pass-through for convex-position clouds.  The hull contains every
    cloud point, so the result never dips below w.
    """
    w = np.asarray(w, dtype=float)
    if grid.dim != 2 or grid.uniform_n is None:
        return np.maximum(_hull_radial_qhull(grid, w[:, None] * grid.directions), w)
    hull = _hull_pass(grid, w)
    if hull is None:
        raise DegenerateInputError(f"cloud values span more than 2**{MAX_SPAN_EXP}; the hull kernel would leave the floats")
    return hull[0]
