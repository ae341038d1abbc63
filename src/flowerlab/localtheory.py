"""Local theory of flowers: geometric distance, projections/sections,
the stability bound, Dvoretzky-type projection search, and global averaging.

Projections, sections and rotations act on a petal representation, which is
exact at any direction.  A flower is a union of petals, so every flower has
one: a flower built without a petal list uses its canonical petals, the core
boundary points at the grid nodes, whose petal flower reproduces a certified
flower's samples at the nodes to a few ulp.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from ._sampleops import EPS_FLOOR, _ball_union_radial, _block_max, _row_norms, radial_of_halfspaces
from .bodies import Flower, StarBody, convex_hull_radial, flower_from_petals
from .errors import ParameterError, SymmetryError, UnboundedBodyError, UnsupportedDimensionError
from .spherecore import (
    DirectionGrid,
    SubspaceBasis,
    child_seed,
    random_rotations,
    random_subspaces,
    row_blocks,
    sampled_sphere_grid,
    uniform_angle_grid,
)

SYMMETRY_TOL = 1e-6  # largest relative gap |r(u) - r(-u)| / max(r(u), r(-u)) of an origin-symmetric body


@dataclass(eq=False)
class DistanceReport:
    """Geometric distance to the ball with witness directions."""

    value: float
    argmax_direction: np.ndarray
    argmin_direction: np.ndarray


@dataclass(eq=False)
class ExperimentReport:
    """Deterministic tabular output for CSV emission."""

    header: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def add(self, *values):
        if len(values) != len(self.header):
            raise ParameterError("row length does not match header")
        self.rows.append(tuple(values))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(self.header)
            w.writerows(self.rows)


def distance_to_ball(a: StarBody) -> DistanceReport:
    """d(A, B) for origin-symmetric A: max radial over min radial."""
    grid, r = a.grid, a.radial
    anti = grid.antipode_index()
    rel_asym = np.abs(r - r[anti]) / np.maximum(r, r[anti])
    if rel_asym.max() > SYMMETRY_TOL:
        raise SymmetryError(f"body is not origin-symmetric (relative gap {rel_asym.max():.2e})")
    if r.min() <= EPS_FLOOR:
        raise UnboundedBodyError("degenerate body: distance to the ball is unbounded")
    i, j = int(np.argmax(r)), int(np.argmin(r))
    return DistanceReport(float(r[i] / r[j]), grid.directions[i].copy(), grid.directions[j].copy())


def canonical_petals(f: Flower) -> np.ndarray:
    """The flower's petal list; without one, the core boundary points D(r) theta along the grid rays.

    Their petal flower has radial C(D(r)), which is r itself (to float
    precision) when r passes the certificate, and otherwise the flower of the
    largest convex body whose support lies below r.
    """
    if f.petals is not None:
        return f.petals
    return radial_of_halfspaces(f.grid, f.radial)[:, None] * f.grid.directions


def default_subgrid(k: int, size: int = 720, seed: int = 0) -> DirectionGrid:
    """Working grid inside a k-dimensional subspace (k >= 2)."""
    if k == 2:
        return uniform_angle_grid(size)
    n = max(64, size)
    return sampled_sphere_grid(k, n + (n % 2), seed, symmetric=True)


def sweep_grid(k: int, seed: int, size: int = 720) -> DirectionGrid:
    """A sweep's working grid in dimension k: default_subgrid on the seed's own child stream."""
    return default_subgrid(k, size, child_seed(seed, 2 ** 20))


def _frame_directions(f: Flower, e: SubspaceBasis, directions_k: np.ndarray) -> np.ndarray:
    """directions_k as rows of e.k frame coordinates; ParameterError unless E lies in the flower's space."""
    if e.ambient_dim != f.grid.dim:
        raise ParameterError(f"subspace lives in dimension {e.ambient_dim}, the flower in dimension {f.grid.dim}")
    dk = np.atleast_2d(np.asarray(directions_k, dtype=float))
    if dk.shape[1] != e.k:
        raise ParameterError(f"directions have {dk.shape[1]} coordinates, the subspace has dimension {e.k}")
    return dk


def projected_radial(f: Flower, e: SubspaceBasis, directions_k: np.ndarray) -> np.ndarray:
    """Radial samples of P_E F at unit directions given in frame coordinates.

    Each petal B_x projects to the ball with center P_E x / 2 and radius
    |x| / 2 inside E; the projected flower is the union of those balls.
    """
    dk = _frame_directions(f, e, directions_k)
    pts = canonical_petals(f)
    cents = (pts @ e.frame.T) / 2.0  # (M, k)
    rho = _row_norms(pts) / 2.0  # (M,)
    return np.maximum(_ball_union_radial(cents, rho, dk), EPS_FLOOR)


def project_flower(f: Flower, e: SubspaceBasis, grid: DirectionGrid | None = None) -> Flower:
    """P_E F as a flower on a grid inside E (k >= 2)."""
    if e.k < 2:
        raise UnsupportedDimensionError("project_flower needs k >= 2; use projected_radial for k = 1")
    if grid is None:
        grid = default_subgrid(e.k)
    return Flower(grid, projected_radial(f, e, grid.directions))


def section_radial(f: Flower, e: SubspaceBasis, directions_k: np.ndarray) -> np.ndarray:
    """Radial samples of F cap E at frame-coordinate directions.

    r_F(u) = max_x <x, u>_+ over the petals x (canonical_petals): exact at
    any direction for a petal list; for a certified flower without one, within
    a few ulp of its samples at its grid nodes.
    """
    dk = _frame_directions(f, e, directions_k)
    return np.maximum(_block_max(canonical_petals(f), dk @ e.frame), EPS_FLOOR)


def section_flower(f: Flower, e: SubspaceBasis, grid: DirectionGrid | None = None) -> Flower:
    """F cap E as a flower on a grid inside E (k >= 2)."""
    if e.k < 2:
        raise UnsupportedDimensionError("section_flower needs k >= 2")
    if grid is None:
        grid = default_subgrid(e.k)
    return Flower(grid, section_radial(f, e, grid.directions))


@dataclass(eq=False)
class StabilityReport:
    eps: float
    hull_distance: float
    flower_distance: float
    bound_applies: bool
    bound_holds: bool | None


def stability_check(f: Flower) -> StabilityReport:
    """Check d(F, B) <= 1 + 3 sqrt(eps) where 1 + eps = d(conv F, B).

    The bound is asserted only in its regime eps < 1/10; both distances are
    reported regardless.  Scaling is immaterial: both distances are
    max/min radial ratios.
    """
    hull = convex_hull_radial(f)
    d_hull = distance_to_ball(hull).value
    d_flower = distance_to_ball(f).value
    eps = d_hull - 1.0
    applies = eps < 0.1
    holds = bool(d_flower <= 1.0 + 3.0 * np.sqrt(max(eps, 0.0))) if applies else None
    return StabilityReport(eps, d_hull, d_flower, applies, holds)


def random_symmetric_flower(
    grid: DirectionGrid,
    seed: int,
    num_pairs: int = 48,
    radius_lo: float = 0.9,
    radius_hi: float = 1.0,
) -> Flower:
    """Union of symmetric petal pairs with endpoints near the unit sphere."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(num_pairs, grid.dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(radius_lo, radius_hi, size=(num_pairs, 1))
    return flower_from_petals(np.vstack([x, -x]), grid)


def _seed_stacks(seed: int, trials: int, floats: int):
    """child_seed(seed, i) for i < trials, in the row_blocks of trials by floats: one stack of frames of that many floats each."""
    for b in row_blocks(trials, floats):
        yield [child_seed(seed, i) for i in range(trials)[b]]


@dataclass(eq=False)
class DvoretzkyResult:
    k: int
    trials: int
    best_distance: float
    best_subspace: SubspaceBasis
    distances: np.ndarray
    section_distances: np.ndarray | None

    def quantiles(self) -> dict[float, float]:
        return {q: float(np.quantile(self.distances, q)) for q in (0.1, 0.5, 0.9)}


def dvoretzky_search(
    f: Flower,
    k: int,
    trials: int,
    seed: int,
    subgrid: DirectionGrid | None = None,
    include_sections: bool = False,
) -> DvoretzkyResult:
    """Search random k-subspaces for the roundest projection of the flower.

    Distances are measured on a common working grid inside the subspace, so
    projection and section values are directly comparable per trial.  Trial
    i's subspace draws from its own stream, child_seed(seed, i); the frames
    are built a stack at a time (_seed_stacks), and projected_radial and
    section_radial run per trial, so every output has the bits of building
    and measuring the subspaces one by one.
    """
    if trials < 1:
        raise ParameterError("need at least one trial")
    if not 1 <= k <= f.grid.dim:
        raise ParameterError("k out of range")
    f = replace(f, petals=canonical_petals(f))  # built once for all trials
    if k >= 2:
        kdirs = (subgrid or sweep_grid(k, seed)).directions
    else:
        kdirs = np.array([[1.0], [-1.0]])
    dim = f.grid.dim
    dists = np.empty(trials)
    sects = np.empty(trials) if include_sections else None
    best = (np.inf, None)
    frames = (frame for seeds in _seed_stacks(seed, trials, dim * k) for frame in random_subspaces(dim, k, seeds))
    for i, frame in enumerate(frames):
        e = SubspaceBasis(dim, k, frame)
        rp = projected_radial(f, e, kdirs)
        d = float(rp.max() / rp.min())
        dists[i] = d
        if include_sections:
            rs = section_radial(f, e, kdirs)
            sects[i] = float(rs.max() / rs.min())
        if d < best[0]:
            best = (d, e)
    return DvoretzkyResult(k, trials, best[0], best[1], dists, sects)


def global_average(f: Flower, n_rotations: int, seed: int) -> float:
    """Oscillation ratio max/min of the average of N rotated radial functions.

    Rotation i draws from its own stream, child_seed(seed, i), so averages
    over prefixes (N = 16 vs 256 with the same seed) share their rotations.
    The rotations are built a stack at a time (_seed_stacks) and the rotated
    radials summed in index order, so the ratio has the bits of drawing and
    adding the rotations one by one.  It is inf where the average vanishes
    or max/min leaves the floats.
    """
    if n_rotations < 1:
        raise ParameterError("need at least one rotation")
    grid, pts = f.grid, canonical_petals(f)
    acc = np.zeros(grid.size)
    with np.errstate(over="ignore"):  # a sum past the floats is inf, the documented answer
        for seeds in _seed_stacks(seed, n_rotations, grid.dim ** 2):
            for u in random_rotations(grid.dim, seeds):
                acc += _block_max(pts @ u.T, grid.directions)
    acc /= n_rotations
    lo, hi = float(acc.min()), float(acc.max())
    return float("inf") if lo <= 0.0 else hi / lo  # a Python float ratio past the floats is inf, with no warning


def kashin_petals(n: int, seed: int, num_petals: int | None = None, grid: DirectionGrid | None = None) -> float:
    """Oscillation ratio of the average of randomly rotated unit petals in R^n.

    Defaults to 2n petals (the Kashin count); inf where the average vanishes
    (too few petals to surround the sphere) or the ratio leaves the floats.
    """
    if n < 2:
        raise ParameterError("need dimension n >= 2")
    m = 2 * n if num_petals is None else num_petals
    if m < 1:
        raise ParameterError("need at least one petal")
    if grid is None:
        grid = sweep_grid(n, seed, 720 if n == 2 else 2048)
    elif grid.dim != n:
        raise ParameterError(f"grid has dimension {grid.dim}, the petals dimension {n}")
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(m, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    acc = np.maximum(grid.directions @ dirs.T, 0.0).sum(axis=1) / m
    lo, hi = float(acc.min()), float(acc.max())
    return float("inf") if lo <= 0.0 else hi / lo  # as in global_average
