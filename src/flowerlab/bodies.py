"""Star bodies, convex bodies, flowers, and the core/flower correspondences.

Conventions used throughout:

* A StarBody stores positive radial samples r(theta_i) on a DirectionGrid.
* A ConvexBody stores positive support samples h(theta_i).  It is *certified*
  when its samples are support-consistent: h equals the support function of
  the half-space body A[h] on the grid (the discrete closure C(D(h)) == h).
* A Flower is a StarBody whose radial samples form a support-consistent
  vector; the correspondence K <-> flower_of(K) is the sample identity
  r_F = h_K.  Spherical-inversion duality is the pointwise reciprocal:
  cof(A) has radial 1/r_A, and cof(flower_of(K)) carries the radial of the
  polar body.

Bodies that touch the origin (segments, petal cores) are represented with the
positivity floor EPS_FLOOR so reciprocals stay finite; tests account for it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._sampleops import (
    EPS_FLOOR,
    _ball_union_radial,
    _block_max,
    _row_norms,
    certificate_violation,
    closure,
    hull_radial,
    hull_radial_and_support,
    radial_of_halfspaces,
    reciprocal_bounds,
    support_of_cloud,
)
from .errors import (
    CertificationRequiredError,
    DegenerateInputError,
    GridMismatchError,
    NotAFlowerError,
    ParameterError,
    UnsupportedDimensionError,
)
from .spherecore import DirectionGrid, Rotation, _read_only, quadrature_mean

CERT_TOL_2D = 1e-9
CERT_TOL_ND = 1e-6


def default_cert_tol(grid: DirectionGrid) -> float:
    return CERT_TOL_2D if grid.dim == 2 else CERT_TOL_ND


def _check_same_grid(a: DirectionGrid, b: DirectionGrid):
    if a is b:
        return
    if (
        a.dim != b.dim
        or a.size != b.size
        or not np.array_equal(a.directions, b.directions)
        or not np.array_equal(a.weights, b.weights)
    ):
        raise GridMismatchError("bodies live on different grids")


def _positive_samples(grid: DirectionGrid, values, what: str) -> np.ndarray:
    """Read-only float copy of `values`: one finite positive sample per grid direction."""
    v = _read_only(values)
    if v.shape != (grid.size,):
        raise GridMismatchError(f"expected {grid.size} {what} values, got {v.shape}")
    if not np.isfinite(v).all():
        raise DegenerateInputError(f"{what} values must be finite")
    if (v <= 0).any():
        raise DegenerateInputError(f"{what} values must be strictly positive")
    return v


@dataclass(eq=False)
class StarBody:
    """Compact star body with 0 in the interior, as radial samples."""

    grid: DirectionGrid
    radial: np.ndarray

    def __post_init__(self):
        self.radial = _positive_samples(self.grid, self.radial, "radial")


@dataclass(eq=False)
class ConvexBody:
    """Convex body with 0 in the interior, as support samples."""

    grid: DirectionGrid
    support: np.ndarray
    certified: bool = False

    def __post_init__(self):
        self.support = _positive_samples(self.grid, self.support, "support")
        self._radial: np.ndarray | None = None

    @classmethod
    def hull_backed(cls, grid: DirectionGrid, radial: np.ndarray, support: np.ndarray | None = None) -> ConvexBody:
        """Certified conv({radial_i theta_i} + {0}) with support `support` (default C(radial)).

        The body keeps the exact radial of the hull polygon (not the outer
        half-space radial), which keeps chained operations on hull-built
        bodies exact on samples; `radial` is frozen in place.
        """
        body = cls(grid, support_of_cloud(grid, radial) if support is None else support, certified=True)
        radial.flags.writeable = False
        body._radial = radial
        return body

    def radial(self) -> np.ndarray:
        """Radial samples of the half-space body A[h], cached."""
        if self._radial is None:
            r = radial_of_halfspaces(self.grid, self.support)
            r.flags.writeable = False
            self._radial = r
        return self._radial


@dataclass(eq=False)
class Flower(StarBody):
    """Star body whose radial samples pass the support-consistency certificate, with an optional petal list."""

    petals: np.ndarray | None = None  # (M, dim) petal points, optional

    def __post_init__(self):
        super().__post_init__()
        if self.petals is not None:
            self.petals = _read_only(np.atleast_2d(self.petals))
            if self.petals.shape[1] != self.grid.dim:
                raise ParameterError("petal points have wrong dimension")
            if not np.isfinite(self.petals).all():
                raise DegenerateInputError("petal points must be finite")


class CertificateReport(NamedTuple):
    ok: bool
    violation: float


def is_support_consistent(grid: DirectionGrid, support: np.ndarray, tol: float | None = None) -> CertificateReport:
    """Discrete support-function certificate: C(D(h)) reproduces h within tol (>= 0)."""
    tol = default_cert_tol(grid) if tol is None else tol
    if tol < 0:
        raise ParameterError("tol must be non-negative")
    v = certificate_violation(grid, support)
    return CertificateReport(v <= tol, v)


def is_flower(s: StarBody, tol: float | None = None) -> CertificateReport:
    """A star body is a flower iff its radial vector is support-consistent."""
    return is_support_consistent(s.grid, s.radial, tol)


def petal_radial(x: np.ndarray, theta: np.ndarray) -> float:
    """Radial function of the petal B_x (ball with diameter [0, x]) at theta."""
    x = np.asarray(x, dtype=float)
    if not (x != 0.0).any():
        raise DegenerateInputError("petal point must be nonzero")
    return float(max(np.dot(x, np.asarray(theta, dtype=float)), 0.0))


def flower_from_petals(points: np.ndarray, grid: DirectionGrid) -> Flower:
    """Union of petals B_x over the given points: radial = max_x <x, theta>_+.

    The radial samples are exact values of the true flower's radial function,
    so the petal list is kept as ground truth; the grid certificate of an
    off-ray petal union carries slack proportional to the petals' angular
    offset from the rays and is not asserted here (core_of enforces it).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != grid.dim:
        raise ParameterError("petal points have wrong dimension")
    nonzero = (pts != 0.0).any(axis=1)
    if not nonzero.any():
        raise DegenerateInputError("all petal points are zero")
    pts = pts[nonzero]
    return Flower(grid, np.maximum(_block_max(pts, grid.directions), EPS_FLOOR), pts)


def flower_of(k: ConvexBody) -> Flower:
    """The flower with radial samples equal to the support samples of K."""
    if not k.certified:
        raise CertificationRequiredError("flower_of needs a certified convex body")
    return Flower(k.grid, k.support)


def core_of(f: Flower, tol: float | None = None) -> ConvexBody:
    """Inverse of flower_of: the convex body with h = r_F (certificate enforced)."""
    rep = is_flower(f, tol)
    if not rep.ok:
        raise NotAFlowerError(f"not a flower: certificate violation {rep.violation:.3e}", rep.violation)
    return ConvexBody(f.grid, f.radial, certified=True)


def cof(a: StarBody) -> StarBody:
    """Co-image of spherical inversion: pointwise reciprocal radial."""
    with np.errstate(over="ignore"):  # a reciprocal past the floats is inf, which StarBody refuses
        r = 1.0 / a.radial
    return StarBody(a.grid, r)


def convexify_support(s: StarBody) -> ConvexBody:
    """Support samples of conv(S + {0}): the inner point-cloud hull.

    In 2D the body also carries the exact radial of the hull polygon (not the
    outer half-space radial), which keeps chained operations on hull-built
    bodies exact on samples.
    """
    if s.grid.dim == 2:
        return ConvexBody.hull_backed(s.grid, *hull_radial_and_support(s.grid, s.radial))
    return ConvexBody(s.grid, support_of_cloud(s.grid, s.radial), certified=True)


def radial_of_halfspace_body(g: np.ndarray, grid: DirectionGrid) -> StarBody:
    """Radial samples of the intersection of half-spaces {<x,theta_i> <= g_i}."""
    return StarBody(grid, radial_of_halfspaces(grid, _positive_samples(grid, g, "bound")))


def alexandrov(g: np.ndarray, grid: DirectionGrid) -> ConvexBody:
    """A[g]: the largest convex body with support below g (h_{A[g]} <= g pointwise)."""
    return ConvexBody(grid, closure(grid, _positive_samples(grid, g, "bound")), certified=True)


def polar(k: ConvexBody) -> ConvexBody:
    """Polar dual C(1/h); the C/D identity D(g) = 1/C(1/g) makes every output of C pass C(D(h)) == h."""
    if not k.certified:
        raise CertificationRequiredError("polar needs a certified convex body")
    return ConvexBody(k.grid, support_of_cloud(k.grid, reciprocal_bounds(k.support)), certified=True)


def _ball_mean(grid: DirectionGrid, values: np.ndarray, e: int, what: str) -> float:
    """kappa_n (the unit ball's volume) times the spherical average of values, times 2**e; refused past the floats."""
    n = grid.dim
    try:
        v = math.ldexp(math.pi ** (n / 2) / math.gamma(n / 2 + 1) * quadrature_mean(grid, values), e)
    except OverflowError:
        v = math.inf
    if not 0.0 < v < math.inf:
        raise DegenerateInputError(f"the {what} leaves the floats (about 2**{e})")
    return v


def volume(a: StarBody | ConvexBody) -> float:
    """kappa_n times the spherical average of r^n (polar-coordinates formula).

    r is always scaled by a power of two to a largest sample in [0.5, 1), so
    r^n stays in the floats; the scaling is exact, so in-range volumes are the
    plain formula's bit for bit.  A volume that leaves the floats is refused.
    """
    r = a.radial() if isinstance(a, ConvexBody) else a.radial
    n = a.grid.dim
    k = int(np.frexp(r.max())[1])
    return _ball_mean(a.grid, np.ldexp(r, -k) ** n, n * k, "volume")


def radial_sum(f1: Flower, f2: Flower) -> Flower:
    """Radial sum: adds radial samples; the flower of K1 + K2 for the cores."""
    _check_same_grid(f1.grid, f2.grid)
    return Flower(f1.grid, f1.radial + f2.radial)


def minkowski_sum_2d(f1: Flower, f2: Flower) -> Flower:
    """Minkowski sum of two 2D flowers given by petal lists.

    B_x + B_y is the ball with center (x+y)/2 and radius (|x|+|y|)/2; the sum
    flower is the union of these over all petal pairs.  Each ball holds the
    origin, so it is a flower and so is the union; as in flower_from_petals,
    the samples are exact and the grid certificate is not asserted here
    (core_of enforces it).  Quadratic in the petal counts.
    """
    _check_same_grid(f1.grid, f2.grid)
    grid = f1.grid
    if grid.dim != 2:
        raise UnsupportedDimensionError("minkowski_sum_2d needs dim 2")
    if f1.petals is None or f2.petals is None:
        raise ParameterError("minkowski_sum_2d needs petal lists on both flowers")
    cx = (f1.petals[:, None, :] + f2.petals[None, :, :]).reshape(-1, 2) / 2.0
    rho = np.add.outer(_row_norms(f1.petals), _row_norms(f2.petals)).reshape(-1) / 2.0
    return Flower(grid, np.maximum(_ball_union_radial(cx, rho, grid.directions), EPS_FLOOR))


def sup_log_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    """Sup-log-radial distance between two positive sample vectors."""
    return float(np.abs(np.log(np.asarray(r1, float)) - np.log(np.asarray(r2, float))).max())


def convex_hull_radial(s: StarBody) -> StarBody:
    """Radial samples of the convex hull conv(S) along the grid rays."""
    return StarBody(s.grid, hull_radial(s.grid, s.radial))


# ---------------------------------------------------------------------------
# constructors for common bodies


def unit_ball(grid: DirectionGrid, radius: float = 1.0) -> ConvexBody:
    if radius <= 0:
        raise ParameterError("radius must be positive")
    return ConvexBody(grid, np.full(grid.size, float(radius)), certified=True)


def _certified_if_consistent(grid: DirectionGrid, support: np.ndarray) -> ConvexBody:
    """Convex body of exact support samples, certified iff they pass the certificate at the default tolerance.

    Exact support samples of a polytope whose vertices lie off the grid rays
    can fail it (by up to about 1e-2 at N = 720): the grid's half-space body
    then cuts the vertex off, so C(D(h)) falls below h near that vertex.
    """
    k = ConvexBody(grid, support)
    k.certified = is_support_consistent(grid, k.support).ok
    return k


def polytope_body(grid: DirectionGrid, vertices: np.ndarray) -> ConvexBody:
    """Convex body conv(vertices + {0}) from its exact support samples, certified iff they pass the certificate.

    Support values that vanish (0 on the boundary, e.g. segments) are floored
    at EPS_FLOOR per the package convention.
    """
    v = np.atleast_2d(np.asarray(vertices, dtype=float))
    if v.shape[1] != grid.dim or not len(v):
        raise ParameterError("vertices must be one or more points of the grid's dimension")
    return _certified_if_consistent(grid, np.maximum(_block_max(v, grid.directions), EPS_FLOOR))


def regular_polygon_vertices(m: int, circumradius: float = 1.0, phase: float = 0.0) -> np.ndarray:
    ang = phase + 2 * np.pi * np.arange(m) / m
    return circumradius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def square_body(grid: DirectionGrid, half_width: float = 1.0) -> ConvexBody:
    """The square [-a, a]^2 from its exact support a(|c| + |s|), certified iff the samples pass the certificate."""
    d = grid.directions
    return _certified_if_consistent(grid, half_width * (np.abs(d[:, 0]) + np.abs(d[:, 1])))


def random_convex_body(grid: DirectionGrid, seed: int, amp: float = 0.35, kmax: int = 6) -> ConvexBody:
    """Random certified 2D body: hull of a log-trigonometric random star body.

    The support vector is produced by the cloud-support operator, so the
    certificate holds at float precision by construction.
    """
    if grid.dim != 2:
        raise UnsupportedDimensionError("random_convex_body generates 2D bodies")
    rng = np.random.default_rng(seed)
    th = grid.angles()
    u = np.zeros(grid.size)
    for k in range(1, kmax + 1):
        u += rng.normal(0, amp / k) * np.cos(k * th) + rng.normal(0, amp / k) * np.sin(k * th)
    return ConvexBody(grid, support_of_cloud(grid, np.exp(u)), certified=True)


def scale_star(a: StarBody, t: float) -> StarBody:
    if t <= 0:
        raise ParameterError("scale factor must be positive")
    return StarBody(a.grid, t * a.radial)


def rotate_star_2d(a: StarBody, rotation: Rotation | float) -> StarBody:
    """Rotate a 2D star body by resampling the radial profile (linear in angle); a Rotation must be 2D."""
    if a.grid.dim != 2:
        raise UnsupportedDimensionError("rotate_star_2d needs a 2D grid")
    if isinstance(rotation, Rotation):
        if rotation.dim != 2:
            raise ParameterError(f"rotate_star_2d needs a 2D rotation, got dimension {rotation.dim}")
        angle = math.atan2(rotation.matrix[1, 0], rotation.matrix[0, 0])
    else:
        angle = float(rotation)
    th = a.grid.angles()
    shifted = np.mod(th - angle, 2 * np.pi)
    order = np.argsort(th)
    return StarBody(a.grid, np.interp(shifted, th[order], a.radial[order], period=2 * np.pi))


def reflect_star_2d(a: StarBody) -> StarBody:
    """Reflect a 2D star body across the x-axis.

    On uniform angle grids this is an exact index permutation (node at theta
    maps to the node at -theta).
    """
    if a.grid.dim != 2:
        raise UnsupportedDimensionError("reflect_star_2d needs a 2D grid")
    if a.grid.uniform_n is not None:
        idx = (-np.arange(a.grid.size)) % a.grid.size
        return StarBody(a.grid, a.radial[idx])
    th = a.grid.angles()
    reflected = np.mod(-th, 2 * np.pi)
    order = np.argsort(th)
    return StarBody(a.grid, np.interp(reflected, th[order], a.radial[order], period=2 * np.pi))
