"""Spherical inversion of convex sets away from the origin.

phi(x) = x / |x|^2.  For a closed convex K with 0 outside, phi(K) is convex
iff every inversion arc (x, y) between in-cone points stays in the in-cone.
is_inversion_convex runs that sampled arc criterion alongside an independent
direct test (invert a dense boundary sample and check convex position of the
image cloud) and insists the two verdicts agree.

Three input shapes are supported: bounded vertex polytopes, balls, and convex
out-cones.  Out-cones are unbounded; they are represented by a base polytope
plus a truncation scale used only for sampling, while membership tests use the
ideal cone semantics (the in-cone of out(P) is the full cone over P).

Membership is array-valued: each shape's ray_intervals takes rows of unit
directions, and cone_membership tests all arc points of a sampled pair at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._sampleops import convex_hull
from .errors import (
    ArcThroughInfinityError,
    DegenerateInputError,
    MethodDisagreementError,
    ParameterError,
    SingularPointError,
)
from .spherecore import DENSE_BLOCK, _read_only

CONVEX_POSITION_TOL = 1e-7
ARC_POINTS_PER_PAIR = 9  # interior arc points tested per sampled pair
DIRECT_SAMPLES = 4000  # boundary points inverted for the direct convex-position test


def invert_point(x: np.ndarray) -> np.ndarray:
    """Spherical inversion x -> x / |x|^2 (involution away from 0)."""
    x = np.asarray(x, dtype=float)
    n2 = float((x ** 2).sum())
    if n2 == 0.0:
        raise SingularPointError("spherical inversion is singular at the origin")
    return x / n2


def invert_points(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    n2 = (pts ** 2).sum(axis=1, keepdims=True)
    if (n2 == 0).any():
        raise SingularPointError("spherical inversion is singular at the origin")
    return pts / n2


def invert_ball(center: np.ndarray, rho: float) -> tuple[np.ndarray, float]:
    """Image of the ball B(center, rho) not containing 0: again a ball."""
    c = np.asarray(center, dtype=float)
    k = float((c ** 2).sum()) - rho ** 2
    if rho <= 0:
        raise ParameterError("ball radius must be positive")
    if k <= 0:
        raise DegenerateInputError("origin inside the ball: image is unbounded")
    return c / k, rho / k


def arc_points(x: np.ndarray, y: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Points on the inversion arc (x, y): phi((1-t) phi(x) + t phi(y)).

    The arc is the piece of the circle through 0, x, y avoiding 0; for x, y, 0
    collinear with 0 outside [x, y] it degenerates to the segment, and (x, x)
    is the singleton {x}.  A chord through the origin (x, y on opposite rays)
    has no bounded arc.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.array_equal(x, y):
        return np.tile(x, (len(ts), 1))
    fx, fy = invert_point(x), invert_point(y)
    cosang = float(fx @ fy) / (np.linalg.norm(fx) * np.linalg.norm(fy))
    if cosang < -1.0 + 1e-14:
        raise ArcThroughInfinityError("x and y lie on opposite rays: arc passes through infinity")
    chord = (1 - ts)[:, None] * fx[None, :] + ts[:, None] * fy[None, :]
    if (np.linalg.norm(chord, axis=1) < 1e-14).any():
        raise ArcThroughInfinityError("chord of inverted endpoints passes through the origin")
    return invert_points(chord)


@dataclass(eq=False)
class OffOriginPolytope:
    """Bounded convex polytope with 0 strictly outside, given by vertices.

    Construction certifies the separation: some hull facet has the origin on
    its outer side, and the outward normal of that facet is stored as the
    separating direction.
    """

    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = v = _read_only(np.atleast_2d(self.vertices))
        if v.ndim != 2 or v.shape[1] < 2 or not np.isfinite(v).all():
            raise DegenerateInputError("polytope vertices must be finite points of dimension >= 2")
        if len(v) < v.shape[1] + 1:
            raise DegenerateInputError("need at least dim+1 vertices (thicken flat inputs)")
        hull = convex_hull(v, "degenerate vertex set")
        offsets = hull.equations[:, -1]
        j = int(np.argmax(offsets))
        if offsets[j] <= 1e-12:
            raise DegenerateInputError("origin is not strictly outside the polytope")
        self._hull = hull
        self.separating_direction = -hull.equations[j, :-1]
        self.separation = float(offsets[j])

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def ray_intervals(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """{t > 0 : t theta in K} as [lo, hi] for each row theta; a missed ray gets [inf, -inf]."""
        eq = self._hull.equations
        # stacked per-ray products round like one matrix-vector product per ray
        a = (eq[None, :, :-1] @ thetas[:, :, None])[..., 0]
        b = eq[:, -1]
        parallel = np.abs(a) < 1e-14
        t = -b / np.where(parallel, 1.0, a)
        lo = np.where(a <= -1e-14, t, 0.0).max(axis=1)
        hi = np.where(a >= 1e-14, t, np.inf).min(axis=1)
        miss = (parallel & (b > 1e-12)).any(axis=1) | (lo > hi * (1 + 1e-12) + 1e-15)
        return np.where(miss, np.inf, lo), np.where(miss, -np.inf, hi)

    def boundary_sample(self, rng: np.random.Generator, nsamp: int) -> np.ndarray:
        simp = self._hull.simplices
        f = rng.integers(0, len(simp), size=nsamp)
        wts = rng.dirichlet(np.ones(self.dim), size=nsamp)
        return np.einsum("nk,nkd->nd", wts, self.vertices[simp[f]])


@dataclass(eq=False)
class OffOriginBall:
    """Ball B(center, radius) with 0 strictly outside."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = c = _read_only(np.atleast_1d(self.center))
        if c.ndim != 1 or len(c) < 2 or not np.isfinite(c).all():
            raise DegenerateInputError("ball center must be a finite vector of dimension >= 2")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ParameterError("radius must be positive and finite")
        if np.linalg.norm(c) <= self.radius:
            raise DegenerateInputError("origin is not strictly outside the ball")

    @property
    def dim(self) -> int:
        return len(self.center)

    def ray_intervals(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ct = (thetas[:, None, :] @ self.center[:, None])[:, 0, 0]
        disc = ct ** 2 - float(self.center @ self.center) + self.radius ** 2
        miss = (disc < 0) | (ct <= 0)
        root = np.sqrt(np.where(miss, 0.0, disc))
        return np.where(miss, np.inf, ct - root), np.where(miss, -np.inf, ct + root)

    def boundary_sample(self, rng: np.random.Generator, nsamp: int) -> np.ndarray:
        u = rng.normal(size=(nsamp, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return self.center[None, :] + self.radius * u


@dataclass(eq=False)
class TruncatedOutCone:
    """The convex out-cone of a base polytope, truncated at scale for sampling.

    The truncation is representational only: membership and the arc criterion
    treat the set as the ideal unbounded out(P), whose in-cone is the full
    cone over P.
    """

    base: OffOriginPolytope
    scale: float = 8.0

    def __post_init__(self):
        if not np.isfinite(self.scale):
            raise ParameterError("truncation scale must be finite")
        if self.scale <= 1:
            raise ParameterError("truncation scale must exceed 1")

    @property
    def dim(self) -> int:
        return self.base.dim

    def ray_intervals(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lo, _ = self.base.ray_intervals(thetas)
        return lo, np.where(lo < np.inf, np.inf, -np.inf)

    def boundary_sample(self, rng: np.random.Generator, nsamp: int) -> np.ndarray:
        """Entry-surface points r_min(theta) * theta over random cone directions."""
        verts = self.base.vertices
        k = min(len(verts), self.dim + 2)
        wts = rng.dirichlet(np.ones(k), size=nsamp)
        cols = np.argsort(rng.random((nsamp, len(verts))), axis=1)[:, :k]
        pts = np.einsum("nk,nkd->nd", wts, verts[cols])
        thetas = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        lo, _ = self.base.ray_intervals(thetas)
        hit = lo < np.inf
        return lo[hit, None] * thetas[hit]


Shape = OffOriginPolytope | OffOriginBall | TruncatedOutCone


def cone_membership(shape: Shape, z: np.ndarray, which: str, tol: float = 1e-9) -> bool | np.ndarray:
    """In-cone or out-cone membership of one point (a bool) or of (Q, dim) rows (a bool array).

    A point whose ray misses the shape is in neither cone, whatever the tol."""
    z = np.asarray(z, dtype=float)
    rows = np.atleast_2d(z)
    t = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    if (t == 0.0).any():
        raise SingularPointError("cones are defined away from the origin")
    if which not in ("in", "out"):
        raise ParameterError("which must be 'in' or 'out'")
    lo, hi = shape.ray_intervals(rows / t[:, None])
    if which == "in":
        inside = t <= hi * (1 + tol) + tol
    else:
        inside = t >= lo * (1 - tol) - tol
    inside &= lo < np.inf
    return inside if z.ndim > 1 else bool(inside[0])


@dataclass(eq=False)
class InversionVerdict:
    convex: bool
    witness: tuple[np.ndarray, np.ndarray, float] | None
    direct_depth: float
    samples: int


def _sample_in_cone_pair(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    bp = shape.boundary_sample(rng, 2)
    lam = np.where(rng.random(2) < 0.5, 1.0, rng.random(2))
    if isinstance(shape, TruncatedOutCone):
        # in-cone of out(P) is the whole cone: allow scales up to the truncation
        lam = lam * np.exp(rng.uniform(0, np.log(shape.scale), size=2))
    return bp * lam[:, None]


def _direct_image_cloud(shape: Shape, rng: np.random.Generator, nsamp: int) -> np.ndarray:
    pts = shape.boundary_sample(rng, nsamp)
    img = invert_points(pts)
    if isinstance(shape, TruncatedOutCone):
        # the image closure contains 0 (lateral rays run to infinity)
        img = np.vstack([img, np.zeros((1, shape.dim))])
    return img


def _convex_position_depth(cloud: np.ndarray) -> float:
    """Max over points of the distance to the nearest hull facet (inside depth); vertices have depth 0.

    The non-vertices are scanned against the facets DENSE_BLOCK products at a
    time, so memory stays O(points + facets).
    """
    hull = convex_hull(cloud, "degenerate image cloud")
    rows = np.delete(cloud, hull.vertices, axis=0)
    a, b = hull.equations[:, :-1], hull.equations[:, -1]
    nearest = np.inf
    step = max(1, DENSE_BLOCK // len(a))
    for i in range(0, len(rows), step):
        dist = rows[i:i + step] @ a.T
        dist += b
        nearest = min(nearest, float(dist.max(axis=1).min()))
    return max(0.0, -nearest)


def is_inversion_convex(
    shape: Shape,
    samples: int = 400,
    seed: int = 0,
    tol: float = CONVEX_POSITION_TOL,
) -> InversionVerdict:
    """Convexity test for phi(shape) by the arc criterion, cross-checked directly.

    The criterion samples pairs x, y from the in-cone and tests arc interior
    points for in-cone membership; a violating (x, y, t) is returned as the
    witness.  The direct method inverts DIRECT_SAMPLES boundary points and
    measures the convex-position depth of the image cloud.  Disagreement raises
    MethodDisagreementError.
    """
    if samples < 100:
        raise ParameterError("need at least 100 sample pairs")
    if seed < 0:
        raise ParameterError("seed must be non-negative")
    if not tol >= 0.0:
        raise ParameterError("tol must be non-negative")
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, ARC_POINTS_PER_PAIR + 2)[1:-1]
    witness = None
    for _ in range(samples):
        x, y = _sample_in_cone_pair(shape, rng)
        try:
            zs = arc_points(x, y, ts)
        except ArcThroughInfinityError:
            continue
        inside = cone_membership(shape, zs, "in", tol=tol)
        if not inside.all():
            witness = (x, y, float(ts[np.argmin(inside)]))
            break
    depth = _convex_position_depth(_direct_image_cloud(shape, rng, DIRECT_SAMPLES))
    criterion_convex = witness is None
    direct_convex = depth <= tol
    if criterion_convex != direct_convex:
        raise MethodDisagreementError(
            f"arc criterion says {'convex' if criterion_convex else 'non-convex'} "
            f"but direct depth is {depth:.3e}"
        )
    return InversionVerdict(criterion_convex, witness, depth, samples)
