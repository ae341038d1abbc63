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
    certificate_violation,
    closure,
    hull_radial,
    radial_of_halfspaces,
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
from .spherecore import DirectionGrid, Rotation, quadrature_mean

CERT_TOL_2D = 1e-9
CERT_TOL_ND = 1e-6


def default_cert_tol(grid: DirectionGrid) -> float:
    return CERT_TOL_2D if grid.dim == 2 else CERT_TOL_ND


def grid_tol(grid: DirectionGrid) -> float:
    """Discretization-level certificate tolerance (~5e-4 at N=720, O(1/N^2)).

    Calibrated to the closure gap of hulls and Minkowski sums, whose vertices
    fall between grid rays.
    """
    if grid.dim == 2:
        return 6.0 * (2 * np.pi / grid.size) ** 2
    return 4.0 / np.sqrt(grid.size)


def _check_same_grid(a: DirectionGrid, b: DirectionGrid):
    if a is b:
        return
    if a.dim != b.dim or a.size != b.size or not np.array_equal(a.directions, b.directions):
        raise GridMismatchError("bodies live on different grids")


@dataclass(eq=False)
class StarBody:
    """Compact star body with 0 in the interior, as radial samples."""

    grid: DirectionGrid
    radial: np.ndarray

    def __post_init__(self):
        r = np.array(self.radial, dtype=float, copy=True)
        if r.shape != (self.grid.size,):
            raise GridMismatchError(f"expected {self.grid.size} radial values, got {r.shape}")
        if not np.isfinite(r).all():
            raise DegenerateInputError("radial values must be finite")
        if (r <= 0).any():
            raise DegenerateInputError("radial values must be strictly positive")
        r.flags.writeable = False
        self.radial = r


@dataclass(eq=False)
class ConvexBody:
    """Convex body with 0 in the interior, as support samples."""

    grid: DirectionGrid
    support: np.ndarray
    certified: bool = False

    def __post_init__(self):
        h = np.array(self.support, dtype=float, copy=True)
        if h.shape != (self.grid.size,):
            raise GridMismatchError(f"expected {self.grid.size} support values, got {h.shape}")
        if not np.isfinite(h).all():
            raise DegenerateInputError("support values must be finite")
        if (h <= 0).any():
            raise DegenerateInputError("support values must be strictly positive")
        h.flags.writeable = False
        self.support = h
        self._radial: np.ndarray | None = None

    @classmethod
    def hull_backed(cls, grid: DirectionGrid, radial: np.ndarray, cloud: np.ndarray | None = None) -> ConvexBody:
        """Certified conv({cloud_i theta_i} + {0}) carrying the hull radial `radial`.

        The cloud defaults to `radial` itself.  The body keeps the exact radial
        of the hull polygon (not the outer half-space radial), which keeps
        chained operations on hull-built bodies exact on samples; `radial` is
        frozen in place.
        """
        body = cls(grid, support_of_cloud(grid, radial if cloud is None else cloud), certified=True)
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

    def as_star(self) -> StarBody:
        return StarBody(self.grid, self.radial())


@dataclass(eq=False)
class Flower:
    """Star body whose radial samples pass the support-consistency certificate."""

    body: StarBody
    petals: np.ndarray | None = None  # (M, dim) petal points, optional

    def __post_init__(self):
        if self.petals is not None:
            p = np.array(np.atleast_2d(self.petals), dtype=float, copy=True)
            if p.shape[1] != self.grid.dim:
                raise ParameterError("petal points have wrong dimension")
            p.flags.writeable = False
            self.petals = p

    @property
    def grid(self) -> DirectionGrid:
        return self.body.grid

    @property
    def radial(self) -> np.ndarray:
        return self.body.radial


class CertificateReport(NamedTuple):
    ok: bool
    violation: float


def is_support_consistent(grid: DirectionGrid, support: np.ndarray, tol: float | None = None) -> CertificateReport:
    """Discrete support-function certificate: C(D(h)) reproduces h within tol."""
    tol = default_cert_tol(grid) if tol is None else tol
    v = certificate_violation(grid, support)
    return CertificateReport(v <= tol, v)


def is_flower(s: StarBody | Flower, tol: float | None = None) -> CertificateReport:
    """A star body is a flower iff its radial vector is support-consistent."""
    body = s.body if isinstance(s, Flower) else s
    return is_support_consistent(body.grid, body.radial, tol)


def petal_radial(x: np.ndarray, theta: np.ndarray) -> float:
    """Radial function of the petal B_x (ball with diameter [0, x]) at theta."""
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) == 0.0:
        raise DegenerateInputError("petal point must be nonzero")
    return float(max(np.dot(x, np.asarray(theta, dtype=float)), 0.0))


def flower_from_petals(points: np.ndarray, grid: DirectionGrid) -> Flower:
    """Union of petals B_x over the given points: radial = max_x <x, theta>_+.

    The radial samples are exact values of the true flower's radial function,
    so the petal list is kept as ground truth; the grid certificate of an
    off-ray petal union carries slack proportional to the petals' angular
    offset from the rays and is not asserted here (core_of enforces it).
    """
    pts = np.array(np.atleast_2d(points), dtype=float, copy=True)
    if pts.shape[1] != grid.dim:
        raise ParameterError("petal points have wrong dimension")
    norms = np.linalg.norm(pts, axis=1)
    if (norms == 0).all():
        raise DegenerateInputError("all petal points are zero")
    pts = pts[norms > 0]
    r = np.maximum(pts @ grid.directions.T, 0.0).max(axis=0)
    r = np.maximum(r, EPS_FLOOR)
    return Flower(StarBody(grid, r), petals=pts)


def flower_of(k: ConvexBody) -> Flower:
    """The flower with radial samples equal to the support samples of K."""
    if not k.certified:
        raise CertificationRequiredError("flower_of needs a certified convex body")
    return Flower(StarBody(k.grid, k.support.copy()))


def core_of(f: Flower, tol: float | None = None) -> ConvexBody:
    """Inverse of flower_of: the convex body with h = r_F (certificate enforced)."""
    rep = is_flower(f, tol)
    if not rep.ok:
        raise NotAFlowerError(f"not a flower: certificate violation {rep.violation:.3e}", rep.violation)
    return ConvexBody(f.grid, f.radial.copy(), certified=True)


def cof(a: StarBody) -> StarBody:
    """Co-image of spherical inversion: pointwise reciprocal radial."""
    return StarBody(a.grid, 1.0 / a.radial)


def convexify_support(s: StarBody) -> ConvexBody:
    """Support samples of conv(S + {0}): the inner point-cloud hull.

    In 2D the body also carries the exact radial of the hull polygon (not the
    outer half-space radial), which keeps chained operations on hull-built
    bodies exact on samples.
    """
    if s.grid.dim == 2:
        return ConvexBody.hull_backed(s.grid, hull_radial(s.grid, s.radial), cloud=s.radial)
    return ConvexBody(s.grid, support_of_cloud(s.grid, s.radial), certified=True)


def radial_of_halfspace_body(g: np.ndarray, grid: DirectionGrid) -> StarBody:
    """Radial samples of the intersection of half-spaces {<x,theta_i> <= g_i}."""
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.size,):
        raise GridMismatchError("bound vector length does not match grid")
    if (g <= 0).any():
        raise DegenerateInputError("bounds must be strictly positive")
    return StarBody(grid, radial_of_halfspaces(grid, g))


def alexandrov(g: np.ndarray, grid: DirectionGrid) -> ConvexBody:
    """A[g]: the largest convex body with support below g (h_{A[g]} <= g pointwise)."""
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.size,):
        raise GridMismatchError("bound vector length does not match grid")
    if (g <= 0).any():
        raise DegenerateInputError("bounds must be strictly positive")
    return ConvexBody(grid, closure(grid, g), certified=True)


def polar(k: ConvexBody, tol: float | None = None) -> ConvexBody:
    """Polar dual: support of the convex hull of the star body with radial 1/h."""
    if not k.certified:
        raise CertificationRequiredError("polar needs a certified convex body")
    h = support_of_cloud(k.grid, 1.0 / k.support)
    rep = is_support_consistent(k.grid, h, tol)
    if not rep.ok:
        raise NotAFlowerError(f"polar output failed certification: {rep.violation:.3e}", rep.violation)
    return ConvexBody(k.grid, h, certified=True)


def volume(a: StarBody | Flower | ConvexBody) -> float:
    """kappa_n times the spherical average of r^n (polar-coordinates formula)."""
    if isinstance(a, ConvexBody):
        grid, r = a.grid, a.radial()
    elif isinstance(a, Flower):
        grid, r = a.grid, a.radial
    else:
        grid, r = a.grid, a.radial
    n = grid.dim
    kappa = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    return kappa * quadrature_mean(grid, r ** n)


def radial_sum(f1: Flower, f2: Flower) -> Flower:
    """Radial sum: adds radial samples; the flower of K1 + K2 for the cores."""
    _check_same_grid(f1.grid, f2.grid)
    return Flower(StarBody(f1.grid, f1.radial + f2.radial))


def minkowski_sum_2d(f1: Flower, f2: Flower) -> Flower:
    """Minkowski sum of two 2D flowers given by petal lists.

    B_x + B_y is the ball with center (x+y)/2 and radius (|x|+|y|)/2; the sum
    flower is the union of these over all petal pairs.  Quadratic in the petal
    counts; intended for small petal lists.
    """
    _check_same_grid(f1.grid, f2.grid)
    grid = f1.grid
    if grid.dim != 2:
        raise UnsupportedDimensionError("minkowski_sum_2d needs dim 2")
    if f1.petals is None or f2.petals is None:
        raise ParameterError("minkowski_sum_2d needs petal lists on both flowers")
    cx = (f1.petals[:, None, :] + f2.petals[None, :, :]).reshape(-1, 2) / 2.0
    rho = (
        np.linalg.norm(f1.petals, axis=1)[:, None] + np.linalg.norm(f2.petals, axis=1)[None, :]
    ).reshape(-1) / 2.0
    ip = cx @ grid.directions.T  # (M, N)
    rad = ip + np.sqrt(np.maximum(rho[:, None] ** 2 - (cx ** 2).sum(axis=1)[:, None] + ip ** 2, 0.0))
    r = np.maximum(rad.max(axis=0), EPS_FLOOR)
    f = Flower(StarBody(grid, r))
    rep = is_flower(f, tol=grid_tol(grid))
    if not rep.ok:
        raise NotAFlowerError("minkowski sum failed the flower certificate", rep.violation)
    return f


def sup_log_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    """Sup-log-radial distance between two positive sample vectors."""
    return float(np.abs(np.log(np.asarray(r1, float)) - np.log(np.asarray(r2, float))).max())


def convex_hull_radial(s: StarBody | Flower) -> StarBody:
    """Radial samples of the convex hull conv(S) along the grid rays."""
    body = s.body if isinstance(s, Flower) else s
    return StarBody(body.grid, hull_radial(body.grid, body.radial))


# ---------------------------------------------------------------------------
# constructors for common bodies


def unit_ball(grid: DirectionGrid, radius: float = 1.0) -> ConvexBody:
    if radius <= 0:
        raise ParameterError("radius must be positive")
    return ConvexBody(grid, np.full(grid.size, float(radius)), certified=True)


def polytope_body(grid: DirectionGrid, vertices: np.ndarray) -> ConvexBody:
    """Convex body conv(vertices + {0}) from its exact support samples.

    Support values that vanish (0 on the boundary, e.g. segments) are floored
    at EPS_FLOOR per the package convention.
    """
    v = np.array(np.atleast_2d(vertices), dtype=float, copy=True)
    if v.shape[1] != grid.dim:
        raise ParameterError("vertices have wrong dimension")
    h = np.maximum((v @ grid.directions.T).max(axis=0), EPS_FLOOR)
    return ConvexBody(grid, h, certified=True)


def regular_polygon_vertices(m: int, circumradius: float = 1.0, phase: float = 0.0) -> np.ndarray:
    ang = phase + 2 * np.pi * np.arange(m) / m
    return circumradius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def square_body(grid: DirectionGrid, half_width: float = 1.0) -> ConvexBody:
    """The square [-a, a]^2 as a certified body (exact support |c|+|s| scaled)."""
    d = grid.directions
    return ConvexBody(grid, half_width * (np.abs(d[:, 0]) + np.abs(d[:, 1])), certified=True)


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
    """Rotate a 2D star body by resampling the radial profile (linear in angle)."""
    if a.grid.dim != 2:
        raise UnsupportedDimensionError("rotate_star_2d needs a 2D grid")
    if isinstance(rotation, Rotation):
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
