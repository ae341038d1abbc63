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

For these three kinds the answer is known in closed form, which the tests
use as an oracle.  phi maps a hyperplane <a, x> = b with b != 0 to a sphere
through 0, and one through 0 to itself; so a half-space that excludes 0 maps
to a ball, convex, and one that holds 0 to that ball's exterior, concave.
A bounded polytope with 0 outside has a far facet, one whose half-space
<a_k, x> <= b_k holds 0 (b_k > 0): its normals span positively, so not
every b_k is <= 0.  That facet's image is a concave patch of the boundary,
so phi(P) is never convex.  An out-cone has only side facets (through 0)
and near facets (half-spaces that exclude 0), so its image is convex, and a
ball that excludes 0 maps to a ball.

Membership is array-valued: each shape's ray_intervals takes rows of unit
directions (a polytope's in blocks of DENSE_BLOCK facet products, so its
memory stays bounded), arc_points takes rows of endpoint pairs, and
cone_membership tests rows of points.  The verdict draws its pairs one by
one from its one generator, in the order a pair-by-pair loop would, and
tests a chunk of pairs at once: their endpoints, arcs and memberships are
computed row by row with the arithmetic of one pair, so the verdict has the
bits of the pair-by-pair loop.
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
from .spherecore import _read_only, row_blocks

CONVEX_POSITION_TOL = 1e-7
ARC_POINTS_PER_PAIR = 9  # interior arc points tested per sampled pair
DIRECT_SAMPLES = 4000  # boundary points inverted for the direct convex-position test


def invert_points(pts: np.ndarray) -> np.ndarray:
    """Spherical inversion x -> x / |x|^2 (involution away from 0) of each point along the last axis."""
    pts = np.asarray(pts, dtype=float)
    n2 = (pts ** 2).sum(axis=-1, keepdims=True)
    if (n2 == 0).any():
        raise SingularPointError("spherical inversion is singular at the origin")
    return pts / n2


invert_point = invert_points  # one point is one row


def invert_ball(center: np.ndarray, rho: float) -> tuple[np.ndarray, float]:
    """Image of the ball B(center, rho) not containing 0: again a ball."""
    c = np.asarray(center, dtype=float)
    k = float((c ** 2).sum()) - rho ** 2
    if rho <= 0:
        raise ParameterError("ball radius must be positive")
    if k <= 0:
        raise DegenerateInputError("origin inside the ball: image is unbounded")
    return c / k, rho / k


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i, b_i> for each row pair, each rounded as one vector dot product."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _chords(pairs: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The chords (1-t) phi(x) + t phi(y), (P, T, dim), of (P, 2, dim) endpoint pairs (x, y), and which arcs pass through infinity.

    An arc does when phi(x) and phi(y) lie on opposite rays or a chord
    point is at the origin.
    """
    f = invert_points(pairs)
    fx, fy = f[:, 0], f[:, 1]
    rows = f.reshape(-1, f.shape[-1])
    norms = np.sqrt(_dots(rows, rows)).reshape(-1, 2)
    cosang = _dots(fx, fy) / (norms[:, 0] * norms[:, 1])
    chord = (1 - ts)[:, None] * fx[:, None, :] + ts[:, None] * fy[:, None, :]
    return chord, (cosang < -1.0 + 1e-14) | (np.sqrt((chord * chord).sum(axis=-1)) < 1e-14).any(axis=1)


def arc_points(x: np.ndarray, y: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Points on the inversion arc (x, y): phi((1-t) phi(x) + t phi(y)).

    x and y are two points, giving (T, dim), or two (P, dim) rows of
    endpoints, giving (P, T, dim).  The arc is the piece of the circle
    through 0, x, y avoiding 0; for x, y, 0 collinear with 0 outside [x, y]
    it degenerates to the segment, and (x, x) is the singleton {x}.  A chord
    through the origin (x, y on opposite rays) has no bounded arc.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise ParameterError(f"arc endpoints must be two points or two rows of one shape, got {x.shape} and {y.shape}")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    pairs = np.stack((np.atleast_2d(x), np.atleast_2d(y)), axis=1)
    out = np.repeat(pairs[:, :1], len(ts), axis=1)
    apart = ~(pairs[:, 0] == pairs[:, 1]).all(axis=1)
    chord, through = _chords(pairs[apart], ts)
    if through.any():
        raise ArcThroughInfinityError("arc passes through infinity: x and y lie on opposite rays")
    out[apart] = invert_points(chord)
    return out if x.ndim == 2 else out[0]


class _Sampled:
    """A shape whose boundary sample maps its _boundary_draws through its _boundary_points."""

    def boundary_sample(self, rng: np.random.Generator, nsamp: int) -> np.ndarray:
        """nsamp boundary points, less the NaN rows: out-cone directions whose rays miss the base."""
        pts = self._boundary_points(*self._boundary_draws(rng, nsamp))
        return pts[~np.isnan(pts[:, 0])]


@dataclass(eq=False)
class OffOriginPolytope(_Sampled):
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
        """{t > 0 : t theta in K} as [lo, hi] for each row theta; a missed ray gets [inf, -inf].

        The rays are taken DENSE_BLOCK // facets at a time, so memory stays
        O(rays + DENSE_BLOCK).
        """
        eq = self._hull.equations
        b = eq[:, -1]
        lo, hi = np.empty(len(thetas)), np.empty(len(thetas))
        for i in row_blocks(len(thetas), len(eq)):
            # stacked per-ray products round like one matrix-vector product per ray
            a = (eq[None, :, :-1] @ thetas[i, :, None])[..., 0]
            parallel = np.abs(a) < 1e-14
            t = -b / np.where(parallel, 1.0, a)
            near = np.where(a <= -1e-14, t, 0.0).max(axis=1)
            far = np.where(a >= 1e-14, t, np.inf).min(axis=1)
            miss = (parallel & (b > 1e-12)).any(axis=1) | (near > far * (1 + 1e-12) + 1e-15)
            lo[i] = np.where(miss, np.inf, near)
            hi[i] = np.where(miss, -np.inf, far)
        return lo, hi

    def _boundary_draws(self, rng: np.random.Generator, nsamp: int) -> tuple[np.ndarray, ...]:
        return rng.integers(0, len(self._hull.simplices), size=nsamp), rng.dirichlet(np.ones(self.dim), size=nsamp)

    def _boundary_points(self, f: np.ndarray, wts: np.ndarray) -> np.ndarray:
        return np.einsum("nk,nkd->nd", wts, self.vertices[self._hull.simplices[f]])


@dataclass(eq=False)
class OffOriginBall(_Sampled):
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

    def _boundary_draws(self, rng: np.random.Generator, nsamp: int) -> tuple[np.ndarray, ...]:
        return (rng.normal(size=(nsamp, self.dim)),)

    def _boundary_points(self, u: np.ndarray) -> np.ndarray:
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return self.center[None, :] + self.radius * u


@dataclass(eq=False)
class TruncatedOutCone(_Sampled):
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

    def _boundary_draws(self, rng: np.random.Generator, nsamp: int) -> tuple[np.ndarray, ...]:
        """Dirichlet weights, and the vertices of each sample's k least uniform keys, drawn DENSE_BLOCK at a time."""
        n = len(self.base.vertices)
        k = min(n, self.dim + 2)
        wts = rng.dirichlet(np.ones(k), size=nsamp)
        cols = np.empty((nsamp, k), dtype=np.intp)
        for b in row_blocks(nsamp, n):  # the keys of one nsamp x n draw, block by block from the same stream
            cols[b] = np.argsort(rng.random((b.stop - b.start, n)), axis=1)[:, :k]
        return wts, cols

    def _boundary_points(self, wts: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entry-surface points r_min(theta) * theta of the drawn cone directions; a missed base gives a NaN row."""
        pts = np.einsum("nk,nkd->nd", wts, self.base.vertices[cols])
        thetas = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        lo, _ = self.base.ray_intervals(thetas)
        lo[lo == np.inf] = np.nan
        return lo[:, None] * thetas


Shape = OffOriginPolytope | OffOriginBall | TruncatedOutCone


def cone_membership(shape: Shape, z: np.ndarray, which: str, tol: float = 1e-9) -> bool | np.ndarray:
    """In-cone or out-cone membership of one point (a bool) or of (Q, dim) rows (a bool array).

    A point whose ray misses the shape is in neither cone, whatever the tol."""
    z = np.asarray(z, dtype=float)
    rows = np.atleast_2d(z)
    if rows.shape[-1] != shape.dim:
        raise ParameterError(f"points must have length {shape.dim}, got {rows.shape[-1]}")
    t = np.sqrt(_dots(rows, rows))
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


def _draw_pair(shape: Shape, rng: np.random.Generator) -> list[np.ndarray]:
    """The draws of one sampled in-cone pair, in the order they are drawn: two boundary points, then their scales."""
    draws = [*shape._boundary_draws(rng, 2), rng.random(2), rng.random(2)]
    if isinstance(shape, TruncatedOutCone):
        # in-cone of out(P) is the whole cone: allow scales up to the truncation
        draws.append(rng.uniform(0, np.log(shape.scale), size=2))
    return draws


def _pair_points(shape: Shape, pairs: list[list[np.ndarray]]) -> np.ndarray:
    """(P, 2, dim): the endpoints of the pairs drawn by _draw_pair, computed at once.

    A scale is 1 or uniform in [0, 1), each with probability 1/2; an
    out-cone's is further multiplied by up to its truncation scale.  An
    out-cone direction whose ray misses the base gives no boundary point,
    so its pair scales the other point twice.
    """
    draws = [np.concatenate(d) for d in zip(*pairs)]
    scales = 3 if isinstance(shape, TruncatedOutCone) else 2
    bp = shape._boundary_points(*draws[:-scales])
    coin, frac, *grow = draws[-scales:]
    lam = np.where(coin < 0.5, 1.0, frac)
    if grow:
        lam = lam * np.exp(grow[0])
    missed = np.flatnonzero(np.isnan(bp[:, 0]))
    if len(missed):
        bp[missed] = bp[missed ^ 1]
        if np.isnan(bp[:, 0]).any():
            raise DegenerateInputError("both directions of a sampled pair miss the out-cone's base")
    return (bp * lam[:, None]).reshape(-1, 2, shape.dim)


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
    for i in row_blocks(len(rows), len(a)):
        dist = rows[i] @ a.T
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
    points for in-cone membership; the first violating (x, y, t) is returned
    as the witness, and pairs whose arc passes through infinity are skipped.
    Pairs are drawn one by one and tested in chunks of 1, 2, 4, ... pairs,
    whose arc points hold at most DENSE_BLOCK floats (ray_intervals bounds
    its own facet products); after a witness the generator is wound back to
    just past its pair, so the verdict equals a pair-by-pair loop's bit for
    bit.  The direct method inverts DIRECT_SAMPLES boundary points and
    measures the convex-position depth of the image cloud.  Disagreement
    raises MethodDisagreementError.
    """
    if samples < 100:
        raise ParameterError("need at least 100 sample pairs")
    if seed < 0:
        raise ParameterError("seed must be non-negative")
    if not tol >= 0.0:
        raise ParameterError("tol must be non-negative")
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, ARC_POINTS_PER_PAIR + 2)[1:-1]
    cap = row_blocks(samples, ARC_POINTS_PER_PAIR * shape.dim)[0].stop  # pairs per chunk, at most
    witness, done, size = None, 0, 1
    while witness is None and done < samples:
        size = min(size, cap, samples - done)
        state = rng.bit_generator.state
        xy = _pair_points(shape, [_draw_pair(shape, rng) for _ in range(size)])
        kept = np.flatnonzero(~_chords(xy, ts)[1])
        zs = arc_points(xy[kept, 0], xy[kept, 1], ts)
        inside = cone_membership(shape, zs.reshape(-1, shape.dim), "in", tol=tol).reshape(len(kept), len(ts))
        bad = np.flatnonzero(~inside.all(axis=1))
        if len(bad):
            i = kept[bad[0]]
            witness = (xy[i, 0].copy(), xy[i, 1].copy(), float(ts[np.argmin(inside[bad[0]])]))
            if i < size - 1:  # the direct test draws on from the witness pair, as a pair-by-pair loop would
                rng.bit_generator.state = state
                for _ in range(i + 1):
                    _draw_pair(shape, rng)
        done += size
        size *= 2
    depth = _convex_position_depth(_direct_image_cloud(shape, rng, DIRECT_SAMPLES))
    criterion_convex = witness is None
    direct_convex = depth <= tol
    if criterion_convex != direct_convex:
        raise MethodDisagreementError(
            f"arc criterion says {'convex' if criterion_convex else 'non-convex'} "
            f"but direct depth is {depth:.3e}"
        )
    return InversionVerdict(criterion_convex, witness, depth, samples)
