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
power-map iteration.  A cloud in convex position passes through unchanged on
every grid, which keeps fixed-point families (regime polygons) exact.  On
uniform 2D grids it reads one hull pass (_hull_pass: power-of-two rescale,
convex-position test, Graham scan, edge radial).  Other grids use qhull: the
rays whose points it lists as hull vertices take w, and only the other rays
take the facet support.

On uniform 2D grids C takes each ray's candidates from a window of edge
normals (_support_by_vertices): the cloud points between the vertices whose
normal cones meet the ray within NORMAL_ANGLE_TOL.  Its result is the dense
max over the window, so any window that holds every maximiser gives the same
bits.  Every point is a vertex of a cloud that is convex up to float noise
(_normal_envelope), such as a body's radial with its right turns of about
4e-17 among collinear samples; only a cloud that turns back further takes
the Graham scan for its hull vertices, and hull_radial_and_support takes
both from the one scan.  Everywhere else C runs the cone-pruned kernel
_support_pruned, and so does the ND hull radial (1 / C over the facets,
grouped under the cap centres by spherecore.group_rows, as the rays are):

* The grid's rays fall into about sqrt(N) caps (DirectionGrid.caps), each
  a centre and an angular radius; for C the points are the rays, so the
  caps group them too.
* Each ray cap takes its own group's products first; the least of their
  per-ray maxima is a floor below every answer in the cap.  Each other
  point row has a cone bound on the cap, w_i cos(max(0, angle between p_i
  and the centre - the cap's radius)), from spherecore.cap_cosines (for C
  a field of the caps, built with them).  A row whose bound stays below
  the floor is skipped; the rest are gathered.
* A cap that would gather more than half the rows takes the dense max over
  them all where it stands, without gathering: its floor is low.  Point
  sets too small for caps to pay take the dense max whole, and build no
  caps.

Every max over products, the ball union's too, runs through one dense
kernel, _block_max.  It cuts its products by one rule (RAY_BLOCK), so every
entry rounds alike at any shape, and holds DENSE_BLOCK products at a time
where the rows allow it, so it needs O(N + M) memory.  It gives:

* max_i w_i <p_i, theta_j>_+: every max of the pruned kernel, which so
  equals the dense max bit for bit, and, with w = 1, the support of
  conv(points + {0}), the radial of their petal flower
  (flower_from_petals, polytope_body, section_radial, global_average).
* _ball_union_radial, the radial of a union of balls that hold the origin
  (projected_radial, minkowski_sum_2d), by a fold into the balls' reach.
  It and _row_norms, which gives those callers their petal lengths,
  rescale by a power of two, so petals whose squares would overflow stay
  exact.

Row blocks come from spherecore.row_blocks; scipy loads on the first hull.
"""
from __future__ import annotations

import bisect
from collections.abc import Callable
from itertools import pairwise

import numpy as np

from .errors import DegenerateInputError
from .spherecore import DENSE_BLOCK, DirectionGrid, cap_cosines, group_rows, row_blocks

# the Graham kernel below is plain numpy/Python; the flag stays because the
# benchmark harness reads it to label the 2D hull kernel
_HAVE_NUMBA = False

# radial floor for bodies that touch the origin (segments, petals); keeps
# reciprocals finite while staying far below every certificate tolerance
EPS_FLOOR = 1e-9

# slack of C's candidate windows on uniform 2D grids, absorbing float ties: a
# ray takes every vertex whose normal cone it meets within NORMAL_ANGLE_TOL
# radians (long flat sides have many).  Half of it bounds the backswing of a
# cloud whose every point C takes as a vertex, without a scan
NORMAL_ANGLE_TOL = 1e-9

# widest span max(w) / min(w), as a power of two, that the 2D hull pass
# takes: rescaled to about 2**-400 .. 2**400, its products of two coordinates
# (down to 2**-54 of a sample) stay in the normal floats
MAX_SPAN_EXP = 800

# largest coordinate exponent, in powers of two, of a cloud that qhull takes as
# it is; products of up to 15 such coordinates, as in its simplex
# determinants, stay in the floats
QHULL_MAX_EXP = 64

# the unit of ray blocks in the dense kernels (_ray_cuts).  The BLAS may round
# the last columns of a product with another kernel (OpenBLAS does past 192
# columns, unless the width is a multiple of 128) and a product with one row
# or ray by gemv; with at least 2 rows and 2 .. RAY_BLOCK rays or a multiple
# of RAY_BLOCK rays, every entry rounds as in a 2 x 2 product
RAY_BLOCK = 128


def support_of_cloud(grid: DirectionGrid, w: np.ndarray) -> np.ndarray:
    """C(w): support samples of conv({w_i theta_i} + {0})."""
    w = np.asarray(w, dtype=float)
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise DegenerateInputError("cloud values must be finite and positive")
    cloud = _scaled_cloud(grid, w)
    if cloud is None:
        return _support_pruned(grid, grid.directions, w)
    xy = cloud[1]
    normals = _normal_envelope(xy)
    keep = _graham_vertices(xy) if normals[2] > NORMAL_ANGLE_TOL / 2 else None  # the cloud turns back: scan its hull
    return _support_by_vertices(grid, w, xy, keep, normals if keep is None else None)


def hull_radial_and_support(grid: DirectionGrid, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hull_radial(grid, w) and support_of_cloud(grid, w) of a star body's radial w; one pass on uniform 2D grids."""
    w = np.asarray(w, dtype=float)
    hull = _hull_pass(grid, w)
    if hull is None:
        return hull_radial(grid, w), support_of_cloud(grid, w)
    return hull[0], _support_by_vertices(grid, w, *hull[1:])


def radial_of_halfspaces(grid: DirectionGrid, g: np.ndarray) -> np.ndarray:
    """D(g): radial samples of the half-space intersection of the bounds g."""
    return 1.0 / support_of_cloud(grid, reciprocal_bounds(g))


def reciprocal_bounds(g: np.ndarray) -> np.ndarray:
    """1 / g for C; bounds whose reciprocals leave the floats (below about 5.6e-309) raise DegenerateInputError."""
    with np.errstate(divide="ignore", over="ignore"):
        r = 1.0 / np.asarray(g, dtype=float)
    if np.isinf(r).any():
        raise DegenerateInputError(f"bounds down to {np.nanmin(np.abs(g)):.3g} have reciprocals past the floats")
    return r


def closure(grid: DirectionGrid, g: np.ndarray) -> np.ndarray:
    """C(D(g)): the largest certified support vector below g."""
    return support_of_cloud(grid, radial_of_halfspaces(grid, g))


def certificate_violation(grid: DirectionGrid, g: np.ndarray) -> float:
    """Max gap g - C(D(g)); zero (to float noise) iff g is support-consistent."""
    return float(np.abs(np.asarray(g, dtype=float) - closure(grid, g)).max())


def _turns(xy: np.ndarray) -> np.ndarray:
    """turn_i >= 0 iff p_{i-1}, p_i, p_{i+1} of an angularly sorted 2D cloud (x and y as two rows) turn left.

    turn_i = (p_i - p_{i-1}) x (p_{i+1} - p_i) reads both differences off one
    subtraction over the ring padded by one point either side.
    """
    n = xy.shape[1]
    ring = np.concatenate((xy[:, n - 1:], xy, xy[:, :1]), axis=1)
    d = ring[:, 1:] - ring[:, :-1]  # d_i = p_i - p_{i-1}, then p_{i+1} - p_i = d_{i+1}
    return d[0, :n] * d[1, 1:] - d[1, :n] * d[0, 1:]


def convex_hull(points: np.ndarray, what: str):
    """The package's one qhull call, loading scipy on the first; failures raise DegenerateInputError("what: qhull's reason"), no run id."""
    from scipy.spatial import ConvexHull, QhullError
    try:
        return ConvexHull(points)
    except QhullError as e:
        raise DegenerateInputError(f"{what}: {' '.join(str(e).split('While executing')[0].split())}") from e


def _hull_radial_qhull(grid: DirectionGrid, pts: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Radial of conv(pts) along the grid rays: D over the hull facets <a_k, x> <= -b_k, as 1 / C(-1/b).

    The facet normals are grouped under the cap centres, as the rays are, so
    the facet support runs through the pruned kernel.  A cloud whose largest
    coordinate lies beyond 2**QHULL_MAX_EXP or below 2**-QHULL_MAX_EXP is
    scaled by 2**-k to a largest coordinate in [0.5, 1) first: b scales by
    2**-k and a does not, so the radial scales back exactly.  Other clouds
    reach qhull as they are, since qhull itself is not exact under scaling.

    With w (pts the cloud w_i theta_i) the result is hull_radial's: rays
    whose points are hull vertices take w, w itself if every point is one,
    and only the other rays take the facet support, at least w.
    """
    k = int(np.frexp(np.abs(pts).max())[1])
    k = k if abs(k) > QHULL_MAX_EXP else 0
    hull = convex_hull(np.ldexp(pts, -k) if k else pts, "degenerate point cloud")
    a, b = hull.equations[:, :-1], hull.equations[:, -1]
    if not (b < 0.0).all():
        raise DegenerateInputError("the hull of the cloud does not hold the origin strictly inside")
    if w is None:
        return np.ldexp(1.0 / _support_pruned(grid, a, -1.0 / b), k)
    if len(hull.vertices) == len(w):
        return w
    rays = np.setdiff1d(np.arange(len(w)), hull.vertices, assume_unique=True)
    out = w.copy()
    out[rays] = np.maximum(np.ldexp(1.0 / _support_pruned(grid, a, -1.0 / b, rays), k), w[rays])
    return out


def _scaled_cloud(grid: DirectionGrid, w: np.ndarray) -> tuple | None:
    """(k, xy): the cloud of w on a uniform 2D grid, rescaled by 2**-k, with x and y as two contiguous rows.

    k centres the cloud on 1 to keep its cross products in the normal floats.
    None on other grids or if w spans more than 2**MAX_SPAN_EXP.
    """
    if grid.dim != 2 or grid.uniform_n is None:
        return None
    hi, lo = int(np.frexp(w.max())[1]), int(np.frexp(w.min())[1])
    if hi - lo > MAX_SPAN_EXP:
        return None
    k = (hi + lo) // 2
    return k, np.multiply(np.ldexp(w, -k), grid.directions.T, order="C")


def _hull_pass(grid: DirectionGrid, w: np.ndarray) -> tuple | None:
    """(radial, xy, keep): the hull radial and vertices of the cloud xy of _scaled_cloud, or None where it is.

    In convex position radial is w itself and keep None.
    """
    cloud = _scaled_cloud(grid, w)
    if cloud is None:
        return None
    k, xy = cloud
    keep = _graham_vertices(xy)
    if keep is None:
        return w, xy, None
    return np.maximum(np.ldexp(_edge_radial(grid, xy, keep), k), w), xy, keep


def _graham_vertices(xy: np.ndarray) -> np.ndarray | None:
    """Indices, in angular (CCW) order, of the hull vertices of an angularly sorted 2D cloud; None in convex position.

    xy holds the x and y coordinates as two rows.  The origin must be
    interior.  Convex position is all left turns (_turns).  Otherwise the
    candidates are the points that do not turn right: a point that does lies
    strictly inside conv{0, p_{i-1}, p_{i+1}}, so it is never a hull vertex,
    as its neighbours span less than pi (the scan sees only uniform_angle_grid
    clouds, n >= 8, whose neighbours lie 4 pi / n <= pi / 2 apart).  The scan
    starts from the farthest candidate, which is always a vertex, and pops
    only on a strict right turn, so collinear boundary points stay; once
    round, its stack is the hull.

    While the stack's top two entries are consecutive candidates, the scan's
    next test is the candidates' own turn, computed once in numpy with the
    same float expression; so a convex run is pushed in one step up to the
    next right turn, and only the pockets behind it are scanned one point at
    a time, until the top two are consecutive again.
    """
    left = _turns(xy) >= 0.0
    if left.all():
        return None
    cand = np.flatnonzero(left)
    m = len(cand)
    q = xy.take(cand, axis=1)
    s0 = int(np.argmax(q[0] * q[0] + q[1] * q[1]))
    q = np.concatenate((q[:, s0:], q[:, :s0 + 1]), axis=1)  # position t is candidate (s0 + t) % m
    right = [*np.flatnonzero(_turns(q[:, :m]) < 0.0).tolist(), m]
    xs, ys = q.tolist()
    stack = [0]
    t = 1  # once around, back to s0 at position m; the stack's top is always t - 1
    while t <= m:
        if len(stack) >= 2 and stack[-2] == t - 2:
            # the next tests are the turns at t - 1, t, ...: push up to the first right turn
            r = right[bisect.bisect_left(right, t - 1)]
            stack.extend(range(t, r + 1))
            t = r + 1
            if t > m:
                break
            stack.pop()  # the turn at r is right
        bx, by = xs[t], ys[t]
        px, py = xs[stack[-1]], ys[stack[-1]]
        while len(stack) >= 2:
            j = stack[-2]
            ax, ay = xs[j], ys[j]
            if (px - ax) * (by - py) - (py - ay) * (bx - px) < 0.0:
                stack.pop()
                px, py = ax, ay
            else:
                break
        stack.append(t)
        t += 1
    return cand[np.sort((np.array(stack[:-1]) + s0) % m)]  # the top is position m, s0 again


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


def _normal_envelope(v: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(nu, total, backswing) of the closed polygon whose vertices are the columns of v (x and y as two rows), in order.

    Edge k runs from vertex k to k + 1, the last one back to vertex 0.  Its
    outward-normal angles nu' are unwrapped turn by turn, each turn taken
    in [-pi, pi); total is the turning once round, the closing turn at
    vertex 0 included (2 pi for a polygon that winds once round the
    origin).  Over two cycles, (nu' - total, nu'), nu is the running max of
    the second and backswing the most that any normal falls below it: 0 for
    a convex polygon up to float noise, at least the largest right turn
    otherwise.  The running max of the first cycle ends at max(nu') -
    total, so the second one starts from there.
    """
    e = np.diff(v, axis=1, append=v[:, :1])
    raw = np.arctan2(-e[0], e[1])
    turn = np.diff(raw, append=raw[:1])
    turn[turn < -np.pi] += 2 * np.pi
    turn[turn >= np.pi] -= 2 * np.pi
    turned = np.cumsum(turn)
    total = float(turned[-1])
    normal = raw[0] + np.concatenate(([0.0], turned[:-1]))
    nu = normal.copy()
    nu[0] = max(nu[0], nu.max() - total)
    np.maximum.accumulate(nu, out=nu)
    return nu, total, float((nu - normal).max())


def _support_by_vertices(grid: DirectionGrid, w: np.ndarray, xy: np.ndarray, keep: np.ndarray | None,
                         normals: tuple | None = None) -> np.ndarray:
    """C(w) on a uniform 2D grid from candidate windows: the dense max, bit for bit, over an FMA-rounded Gram.

    The vertices are the hull's (keep) or, with keep None, every point of
    the cloud xy (keep = arange(n)); normals is their _normal_envelope if
    the caller has it.
    Each ray phi's window is the vertices lo .. hi whose envelope cone
    [nu_{k-1}, nu_k] meets [phi - NORMAL_ANGLE_TOL, phi + NORMAL_ANGLE_TOL],
    found by searchsorted over the envelope repeated once either side
    (shifted by the total turning); its candidates are the cloud points from
    vertex lo to vertex hi.  The dot products are batched 1x2 @ 2x1 matmuls,
    which round with FMA like the BLAS Gram entries; elementwise products
    would not.

    Why the window holds every maximiser: a point k* that maximises
    <p, theta(phi)> has both its edges turned away from the ray, so its
    unwrapped normals satisfy nu'_{k*-1} <= phi <= nu'_{k*}.  The envelope
    is at least nu', so nu_{k*} >= phi and lo <= k*.  If no normal falls
    more than NORMAL_ANGLE_TOL / 2 below the running max (the backswing,
    float noise on hull vertices), nu_{k*-1} <= nu'_{k*-1} + tol / 2 <=
    phi + tol / 2, so k* <= hi.  The other half of the tolerance absorbs
    float ties: any point outside the window lies at least |v| sin(2 pi /
    N) from the supporting vertex v, along an edge turned more than tol / 2
    off the ray's normal, so its value falls short by about 1e-12 |v| at
    N = 8192, far beyond the float error of w_i <theta_i, theta_j>, a few
    ulp of |v| at any aspect ratio.  So C scans only the clouds whose
    backswing passes tol / 2.  A point between hull vertices v_i and
    v_{i+1} lies in conv{0, v_i, v_{i+1}}: only rounding lifts it to their
    value, and by that margin only on a ray within tol / 2 of the edge's
    normal, whose window holds v_i, v_{i+1} and every point between.  The
    rays lie 2 pi / N apart, far wider than a window, so at most one ray
    per hull edge passes a vertex, and the candidates total about 2 N.
    """
    d = grid.directions
    n = len(w)
    keep = np.arange(n) if keep is None else keep
    nu, total, _ = _normal_envelope(xy.take(keep, axis=1)) if normals is None else normals
    m = len(nu)
    nu3 = np.concatenate((nu - total, nu, nu + total))
    phi = nu[0] + (grid.angles() - nu[0]) % (2 * np.pi)
    lo = np.searchsorted(nu3, phi - NORMAL_ANGLE_TOL, side="left")
    hi = np.searchsorted(nu3, phi + NORMAL_ANGLE_TOL, side="right")
    first = keep[lo % m]
    count = (keep[hi % m] - first) % n + 1
    whole = hi - lo + 1 >= m
    first[whole] = 0
    count[whole] = n
    ends = np.cumsum(count)
    starts = np.concatenate(([0], ends[:-1]))
    cand = (np.arange(ends[-1]) - np.repeat(starts - first, count)) % n
    dots = (d.take(cand, axis=0)[:, None, :] @ np.repeat(d, count, axis=0)[:, :, None])[:, 0, 0]
    return np.maximum.reduceat(w[cand] * np.maximum(dots, 0.0), starts)


def _support_pruned(grid: DirectionGrid, pts: np.ndarray, w: np.ndarray, rays: np.ndarray | None = None) -> np.ndarray:
    """max_i w_i <p_i, theta_j>_+ over the point rows p_i for each grid ray theta_j, skipping rows far from each cap.

    With rays (ray indices), only those rays, in that order; caps
    that hold none of them are skipped, cone bounds and all.  Below
    DENSE_BLOCK / RAY_BLOCK rows the whole product is small: the dense max.
    Other rows are grouped under the cap centres; for C (pts is the grid's
    own rays) the groups and cosines are the caps' own, and facets take
    theirs DENSE_BLOCK at a time.  Ray cap c first takes its own group's
    products: the least of their per-ray maxima is the floor L_c.  No
    product of row i on a ray of cap c exceeds its bound b_i = w_i
    cosines[c, i], so a row with b_i < L_c is skipped; the others are
    gathered.  A cap whose gathered rows are over half of the rows takes
    the dense max over every row where it stands.  _block_max's bits do not
    depend on the rows or rays it is given, so the result equals the dense
    max bit for bit, on any subset of rays: a subset's floor is no lower,
    and still below each of its rays' answers.
    """
    dirs = grid.directions
    if len(pts) < DENSE_BLOCK // RAY_BLOCK:
        return _block_max(pts, dirs if rays is None else dirs[rays], w)
    caps = grid.caps()
    visit = np.arange(len(caps.radius))
    if rays is not None:
        want = np.zeros(len(dirs), dtype=bool)
        want[rays] = True
        visit = np.flatnonzero(np.logical_or.reduceat(want[caps.order], caps.starts[:-1]))
    if pts is dirs:
        order, starts = caps.order, caps.starts
        cosines = (caps.cosines[c] for c in visit)
    else:
        order, starts = group_rows(pts, caps.centres)
        cosines = (row for b in row_blocks(len(visit), len(pts))
                   for row in cap_cosines(caps.centres[visit[b]], caps.radius[visit[b]], pts))
    half = len(pts) // 2
    out = np.empty(len(dirs))
    for c, cos_c in zip(visit, cosines):
        cap = caps.order[caps.starts[c]:caps.starts[c + 1]]
        if rays is not None:
            cap = cap[want[cap]]
        own = order[starts[c]:starts[c + 1]]
        theta = dirs[cap]
        best = _block_max(pts[own], theta, w[own]) if len(own) else np.zeros(len(cap))
        keep = cos_c * w >= best.min()
        keep[own] = False
        rows = np.flatnonzero(keep)
        if len(rows) > half:
            best = _block_max(pts, theta, w)
        elif len(rows):
            best = np.maximum(best, _block_max(pts[rows], theta, w[rows]))
        out[cap] = best
    return out if rays is None else out[rays]


def _pair(a: np.ndarray) -> np.ndarray:
    """a with a lone row repeated: a product with one row or one ray goes through gemv, which rounds otherwise."""
    return np.repeat(a, 2, axis=0) if len(a) == 1 else a


def _ray_cuts(m: int, n: int) -> list[int]:
    """Cuts of n >= 2 rays into the blocks of a product with m >= 2 rows, by the rule of RAY_BLOCK.

    Blocks of a multiple of RAY_BLOCK rays come first, then parts of 2 ..
    RAY_BLOCK rays; a block holds at most max(DENSE_BLOCK, 4 m) products.
    """
    fit = DENSE_BLOCK // m
    step = max(4, min(RAY_BLOCK, fit))
    if n <= step or (n % RAY_BLOCK == 0 and n <= fit):
        return [0, n]
    wide = max(RAY_BLOCK, fit - fit % RAY_BLOCK)
    head = (n - 2) // RAY_BLOCK * RAY_BLOCK if fit >= RAY_BLOCK else 0  # leaves 2 .. RAY_BLOCK + 1 rays over
    parts = -(-(n - head) // step)  # parts of >= 2 rays, as step >= 4
    return [*range(0, head, wide), *(head + i * (n - head) // parts for i in range(parts)), n]


def _block_max(pts: np.ndarray, dirs: np.ndarray, w: np.ndarray | None = None, fold: Callable | None = None) -> np.ndarray:
    """max_i w_i <p_i, theta_j>_+ over the point rows p_i for each ray row theta_j (w = 1 if None): the one dense max.

    The rays go in the blocks of _ray_cuts, a lone row or ray is repeated
    and rays that share memory with the rows (C's own rays) are copied, so
    every product rounds as in a 2 x 2 product, whatever the call's shape;
    one block of at most max(DENSE_BLOCK, 4 len(pts)) products is held at a
    time.  Each ray's max is clipped at 0 once, not each product: as w > 0,
    the max of w_i x_ij clipped equals the max of w_i max(x_ij, 0).  fold
    maps each block, after w, to the values the max takes: the balls' reach.
    """
    n = len(dirs)
    if np.may_share_memory(pts, dirs):
        dirs = dirs.copy()  # numpy takes syrk for a product of rows with their own transpose, which rounds otherwise
    pts, dirs = _pair(pts), _pair(dirs)
    w = None if w is None else _pair(w)[:, None]
    out = np.empty(len(dirs))
    for j, k in pairwise(_ray_cuts(len(pts), len(dirs))):
        block = np.matmul(pts, dirs[j:k].T)
        if w is not None:
            block *= w
        if fold is not None:
            block = fold(block)
        block.max(axis=0, out=out[j:k])
        del block  # before the next block is made
    np.maximum(out, 0.0, out=out)
    return out[:n]


def _row_norms(pts: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows, taken on the rows scaled by a power of two so the squares stay in the floats."""
    k = int(np.frexp(np.abs(pts).max())[1])
    return np.ldexp(np.linalg.norm(np.ldexp(pts, -k), axis=1), k)


def _ball_union_radial(centers: np.ndarray, radii: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """max_i <c_i, theta_j> + sqrt(rho_i^2 - |c_i|^2 + <c_i, theta_j>^2): the union of balls B(c_i, rho_i) holding 0.

    The balls are scaled by 2**-s, with s centring the radii on 1 as in
    _hull_pass, so the squares stay in the floats at any scale; the scaling
    is exact, so in-range results are unchanged bit for bit.  _block_max
    takes the products, so the bits are shape-free too, and its fold the
    reach of each block in place, in one temporary; each ball holds 0, so
    its clip at 0 moves a reach only by rounding, below the callers' floor.
    """
    s = (int(np.frexp(radii.max())[1]) + int(np.frexp(radii.min())[1])) // 2
    centers = np.ldexp(centers, -s)
    base = (np.ldexp(radii, -s) ** 2 - (centers ** 2).sum(axis=1))[:, None]  # broadcasts over _pair's repeated lone row

    def reach(ip: np.ndarray) -> np.ndarray:
        r = np.multiply(ip, ip)
        r += base
        return np.add(np.sqrt(np.maximum(r, 0.0, out=r), out=r), ip, out=r)
    return np.ldexp(_block_max(centers, dirs, fold=reach), s)


def hull_radial(grid: DirectionGrid, w: np.ndarray) -> np.ndarray:
    """Radial samples of conv({w_i theta_i}) along the grid rays.

    Exact pass-through for convex-position clouds: w itself.  The hull
    contains every cloud point, so the result never dips below w.  Off the
    uniform 2D grids a ray whose point qhull lists as a hull vertex takes w,
    so the vertex test is qhull's, made at its own precision: a point within
    float noise of a facet may count either way, and either answer is
    within float noise of the exact radial.
    """
    w = np.asarray(w, dtype=float)
    if grid.dim != 2 or grid.uniform_n is None:
        return _hull_radial_qhull(grid, w[:, None] * grid.directions, w)
    hull = _hull_pass(grid, w)
    if hull is None:
        raise DegenerateInputError(f"cloud values span more than 2**{MAX_SPAN_EXP}; the hull kernel would leave the floats")
    return hull[0]
