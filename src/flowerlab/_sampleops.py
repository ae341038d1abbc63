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
power-map iteration.  On uniform 2D grids it runs a linear Graham scan over the
angular order of the cloud; other grids use qhull.  Sample points of an
already-convex cloud pass through unchanged, which keeps fixed-point families
(regime polygons) exact.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInputError, UnboundedBodyError
from .spherecore import DirectionGrid

# the Graham kernel below is plain numpy/Python; the flag stays because the
# benchmark harness reads it to label the 2D hull kernel
_HAVE_NUMBA = False

# radial floor for bodies that touch the origin (segments, petals); keeps
# reciprocals finite while staying far below every certificate tolerance
EPS_FLOOR = 1e-9


def support_of_cloud(grid: DirectionGrid, w: np.ndarray) -> np.ndarray:
    """C(w): support samples of conv({w_i theta_i} + {0})."""
    gp = grid.gram_plus()
    return (np.asarray(w, dtype=float)[:, None] * gp).max(axis=0)


def radial_of_halfspaces(grid: DirectionGrid, g: np.ndarray) -> np.ndarray:
    """D(g): radial samples of the half-space intersection of the bounds g."""
    g = np.asarray(g, dtype=float)
    c = support_of_cloud(grid, 1.0 / g)
    if (c <= 0).any():
        raise UnboundedBodyError("some direction sees no constraint")
    return 1.0 / c


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
    try:
        hull = ConvexHull(pts)
    except QhullError as e:
        raise DegenerateInputError(f"degenerate point cloud: {e}") from e
    a, b = hull.equations[:, :-1], hull.equations[:, -1]
    ad = a @ dirs.T
    with np.errstate(divide="ignore"):
        tt = np.where(ad > 1e-15, -b[:, None] / ad, np.inf)
    return tt.min(axis=0)


def _hull_radial_graham(grid: DirectionGrid, pts: np.ndarray) -> np.ndarray:
    """Graham scan for an angularly sorted 2D cloud around the interior origin.

    A point lying strictly inside conv{0, p_{i-s}, p_{i+s}} is never a hull
    vertex (the test is valid whenever the bracketing pair spans less than pi,
    which cross(a, b) > 0 certifies); one vectorized pass with s in {1, 2}
    drops most interior points before the scan.  The scan starts from the
    farthest point, which is always a vertex, and pops only on a strict right
    turn, so collinear boundary points stay.  Each grid ray is then
    intersected with the bracketing hull edge.
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
    keep = cand[np.sort(stack[:-1])]
    p = pts[keep]
    m = len(keep)
    edge = (np.searchsorted(keep, idx, side="right") - 1) % m
    pa = p[edge]
    pb = p[(edge + 1) % m]
    d = grid.directions
    denom = d[:, 0] * (pb[:, 1] - pa[:, 1]) - d[:, 1] * (pb[:, 0] - pa[:, 0])
    num = pa[:, 0] * pb[:, 1] - pa[:, 1] * pb[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(np.abs(denom) > 1e-300, num / denom, np.hypot(pa[:, 0], pa[:, 1]))
    return r


def hull_radial(grid: DirectionGrid, w: np.ndarray) -> np.ndarray:
    """Radial samples of conv({w_i theta_i}) along the grid rays.

    Exact pass-through for convex-position clouds.  The hull contains every
    cloud point, so the result never dips below w.
    """
    w = np.asarray(w, dtype=float)
    pts = w[:, None] * grid.directions
    if grid.dim == 2 and grid.uniform_n is not None:
        if is_convex_position(pts):
            return w
        r = _hull_radial_graham(grid, pts)
    else:
        r = _hull_radial_qhull(grid.directions, pts)
    return np.maximum(r, w)
