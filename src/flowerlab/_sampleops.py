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

On uniform 2D grids C indexes the hull of that same pass
(_support_by_vertices), and hull_radial_and_support takes both from it.
Everywhere else C runs the first of two shared dense kernels, which hold
DENSE_BLOCK products at a time and so need O(N + M) memory:

* _support_blocked, max_i w_i <p_i, theta_j>_+: C (p = theta), the ND hull
  radial (1 / C over the facets) and, with w = 1, the support of
  conv(points + {0}), which is the radial of their petal flower
  (flower_from_petals, polytope_body, section_radial, global_average).
* _ball_union_radial, the radial of a union of balls that hold the origin
  (projected_radial, minkowski_sum_2d).  It and _row_norms, which gives
  those callers their petal lengths, rescale by a power of two, so petals
  whose squares would overflow stay exact.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInputError
from .spherecore import DirectionGrid

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

# products the dense kernels hold at once (2 MiB): a block of rays against
# every point, so memory stays O(N + M) at any grid size and point count
DENSE_BLOCK = 2 ** 18


def support_of_cloud(grid: DirectionGrid, w: np.ndarray) -> np.ndarray:
    """C(w): support samples of conv({w_i theta_i} + {0})."""
    w = np.asarray(w, dtype=float)
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise DegenerateInputError("cloud values must be finite and positive")
    hull = _hull_pass(grid, w)
    d = grid.directions
    return _support_blocked(d, d, w) if hull is None else _support_by_vertices(grid, w, *hull[1:])


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


def is_convex_position(pts: np.ndarray) -> bool:
    """True if the angularly sorted cloud is in convex position (all left turns)."""
    a = np.roll(pts, 1, axis=0)
    b = np.roll(pts, -1, axis=0)
    cross = (pts[:, 0] - a[:, 0]) * (b[:, 1] - pts[:, 1]) - (pts[:, 1] - a[:, 1]) * (b[:, 0] - pts[:, 0])
    return bool((cross >= 0.0).all())


def _hull_radial_qhull(dirs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Radial of conv(pts) along dirs: D over the hull facets <a_k, x> <= -b_k, as 1 / C(-1/b)."""
    try:
        hull = ConvexHull(pts)
    except QhullError as e:
        raise DegenerateInputError.from_qhull("degenerate point cloud", e) from e
    a, b = hull.equations[:, :-1], hull.equations[:, -1]
    if not (b < 0.0).all():
        raise DegenerateInputError("the hull of the cloud does not hold the origin strictly inside")
    return 1.0 / _support_blocked(a, dirs, -1.0 / b)


def _hull_pass(grid: DirectionGrid, w: np.ndarray) -> tuple | None:
    """(radial, ws, pts, keep, edge): the hull of the cloud on a uniform 2D grid, scanned on ws = w * 2**-k.

    radial is the hull radial (w itself in convex position), pts the points
    ws_i theta_i, keep the hull vertices and edge the rescaled edge radial
    along every ray (both None in convex position).  k centres the cloud on 1
    to keep its cross products in the normal floats.  None on other grids or
    if w spans more than 2**MAX_SPAN_EXP.
    """
    if grid.dim != 2 or grid.uniform_n is None:
        return None
    hi, lo = int(np.frexp(w.max())[1]), int(np.frexp(w.min())[1])
    if hi - lo > MAX_SPAN_EXP:
        return None
    k = (hi + lo) // 2
    ws = np.ldexp(w, -k)
    pts = ws[:, None] * grid.directions
    if is_convex_position(pts):
        return w, ws, pts, None, None
    keep = _graham_vertices(pts)
    edge = _edge_radial(grid, pts, keep)
    return np.maximum(np.ldexp(edge, k), w), ws, pts, keep, edge


def _graham_vertices(pts: np.ndarray) -> np.ndarray:
    """Indices, in angular (CCW) order, of the hull vertices of an angularly sorted 2D cloud.

    The origin must be interior.  A point lying strictly inside
    conv{0, p_{i-s}, p_{i+s}} is never a hull vertex (the test is valid
    whenever the bracketing pair spans less than pi, which cross(a, b) > 0
    certifies); one vectorized pass with s in {1, 2} drops most interior
    points before the scan.  The scan starts from the farthest point, which is
    always a vertex, and pops only on a strict right turn, so collinear
    boundary points stay.
    """
    n = len(pts)
    idx = np.arange(n)
    bad = np.zeros(n, dtype=bool)
    for s in (1, 2):
        a = pts[(idx - s) % n]
        b = pts[(idx + s) % n]
        span_ok = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] > 0.0
        turn = (pts[:, 0] - a[:, 0]) * (b[:, 1] - pts[:, 1]) - (pts[:, 1] - a[:, 1]) * (b[:, 0] - pts[:, 0])
        bad |= span_ok & (turn < 0.0)
    cand = np.flatnonzero(~bad)
    q = pts[cand]
    s0 = int(np.argmax(q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1]))
    xs = q[:, 0].tolist()
    ys = q[:, 1].tolist()
    stack = [s0]
    for i in [*range(s0 + 1, len(cand)), *range(s0 + 1)]:  # once around, back to s0
        bx, by = xs[i], ys[i]
        while len(stack) >= 2:
            k = stack[-1]
            j = stack[-2]
            px, py = xs[k], ys[k]
            if (px - xs[j]) * (by - py) - (py - ys[j]) * (bx - px) < 0.0:
                stack.pop()
            else:
                break
        stack.append(i)
    return cand[np.sort(stack[:-1])]


def _edge_radial(grid: DirectionGrid, pts: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each grid ray intersected with the hull edge keep[k] -> keep[k+1] that brackets it."""
    p = pts[keep]
    m = len(keep)
    edge = (np.searchsorted(keep, np.arange(len(pts)), side="right") - 1) % m
    pa = p[edge]
    pb = p[(edge + 1) % m]
    d = grid.directions
    denom = d[:, 0] * (pb[:, 1] - pa[:, 1]) - d[:, 1] * (pb[:, 0] - pa[:, 0])
    num = pa[:, 0] * pb[:, 1] - pa[:, 1] * pb[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(np.abs(denom) > 1e-300, num / denom, np.hypot(pa[:, 0], pa[:, 1]))
    return r


def _support_by_vertices(grid: DirectionGrid, w: np.ndarray, ws: np.ndarray, pts: np.ndarray,
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
    e = np.roll(pts[keep], -1, axis=0) - pts[keep]
    nu = np.arctan2(-e[:, 0], e[:, 1])  # outward normal of edge k, from vertex k to k+1
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


def _support_blocked(pts: np.ndarray, dirs: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """max_i w_i <p_i, theta_j>_+ over the point rows p_i for each ray row theta_j (w = 1 if None)."""
    out = np.empty(len(dirs))
    step = max(1, DENSE_BLOCK // len(pts))
    for j in range(0, len(dirs), step):
        block = np.maximum(pts @ dirs[j:j + step].T, 0.0)
        if w is not None:
            block *= w[:, None]
        out[j:j + step] = block.max(axis=0)
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
        return np.maximum(_hull_radial_qhull(grid.directions, w[:, None] * grid.directions), w)
    hull = _hull_pass(grid, w)
    if hull is None:
        raise DegenerateInputError(f"cloud values span more than 2**{MAX_SPAN_EXP}; the hull kernel would leave the floats")
    return hull[0]
