"""Direction grids, spherical quadrature, and seeded random rotations/subspaces.

A DirectionGrid is the discrete stand-in for the unit sphere carrying the
uniform probability measure: quadrature_mean(grid, f) approximates the
spherical average of f.  Two regimes are used throughout the package:

* dim == 2: deterministic uniform angle grids (trapezoid rule on the circle,
  exact for trigonometric polynomials of degree < N),
* dim >= 3: seeded Monte Carlo grids of normalized Gaussian directions.

All random constructors are pure functions of (parameters, seed).  The frame
builders take a list of seeds: each frame draws from its own seed's stream,
and the QR of the whole stack gives every frame the bits of a QR of it alone.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError, InvalidGridError, ParameterError

UNIT_NORM_TOL = 1e-12
ORTHO_TOL = 1e-10

# nearest-centre rounds of _build_caps; later rounds barely move the caps
CAP_ROUNDS = 4

# products every blocked kernel holds at once (2 MiB): a block of rows against
# every point, so memory stays O(N + M) at any grid size and point count
DENSE_BLOCK = 2 ** 18

# absolute slack on the cone bound of the pruned support kernel; see cap_cosines
PRUNE_SLACK = 1e-9


def row_blocks(n: int, width: int) -> list[slice]:
    """Slices of n rows, max(1, DENSE_BLOCK // width) a block: the one block rule of every row-blocked loop."""
    step = max(1, DENSE_BLOCK // width)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _read_only(a: np.ndarray) -> np.ndarray:
    """Read-only float copy of caller data; arrays the package builds itself are frozen in place instead."""
    a = np.array(a, dtype=float, order="C", copy=True)
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class DirectionGrid:
    """Finite set of unit directions with probability quadrature weights."""

    dim: int
    directions: np.ndarray  # (N, dim), unit rows
    weights: np.ndarray  # (N,), nonnegative, sums to 1
    uniform_n: int | None = field(default=None, init=False)  # set by uniform_angle_grid
    _gram_plus: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _angles: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _caps: "Caps | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.directions = _read_only(np.atleast_2d(self.directions))
        self.weights = _read_only(np.atleast_1d(self.weights))
        if self.dim < 2:
            raise InvalidGridError(f"grid dimension must be >= 2, got {self.dim}")
        if self.directions.shape != (len(self.weights), self.dim):
            raise InvalidGridError("directions/weights shape mismatch")
        if not (np.isfinite(self.directions).all() and np.isfinite(self.weights).all()):
            raise InvalidGridError("directions and weights must be finite")
        with np.errstate(over="ignore"):  # a norm past the floats is inf, and so no unit norm
            off = [np.abs(np.linalg.norm(self.directions[b], axis=1) - 1.0).max() for b in row_blocks(self.size, self.dim)]
        if max(off, default=0.0) > UNIT_NORM_TOL:
            raise InvalidGridError("directions must be unit vectors")
        if (self.weights < 0).any():
            raise InvalidGridError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > UNIT_NORM_TOL:
            raise InvalidGridError("weights must sum to 1")

    @property
    def size(self) -> int:
        return len(self.weights)

    def gram_plus(self) -> np.ndarray:
        """Clipped Gram matrix max(<theta_i, theta_j>, 0), cached.

        No library path or test oracle reads it: C builds the same entries a
        block at a time.  Its one remaining reader is the benchmark set-ups.
        """
        if self._gram_plus is None:
            g = self.directions @ self.directions.T
            np.maximum(g, 0.0, out=g)
            g.flags.writeable = False
            self._gram_plus = g
        return self._gram_plus

    def angles(self) -> np.ndarray:
        """Angles of the 2D grid nodes in [0, 2pi), cached."""
        if self.dim != 2:
            raise InvalidGridError("angles only defined for 2D grids")
        if self._angles is None:
            a = np.arctan2(self.directions[:, 1], self.directions[:, 0])
            np.mod(a, 2 * np.pi, out=a)
            a.flags.writeable = False
            self._angles = a
        return self._angles

    def caps(self) -> "Caps":
        """The rays grouped into about sqrt(N) angular caps, cached; see Caps."""
        if self._caps is None:
            self._caps = _build_caps(self.directions)
        return self._caps

    def antipode_index(self) -> np.ndarray:
        """Index map i -> j with theta_j == -theta_i (exact pairing required)."""
        n = self.size
        if self.uniform_n is not None and n % 2 == 0:
            return (np.arange(n) + n // 2) % n
        half = n // 2
        if n % 2 == 0 and np.array_equal(self.directions[half:], -self.directions[:half]):
            return (np.arange(n) + half) % n
        raise InvalidGridError("grid has no exact antipodal pairing")


class Caps(NamedTuple):
    """A partition of the grid's rays into K angular caps, for the cone-pruned support kernel.

    order and starts are group_rows of the rays under the unit centres, and
    radius the angle of each cap's farthest ray; cosines is cap_cosines of
    the rays, their cone bounds on each cap.  Every cap holds a ray.
    """

    order: np.ndarray  # (N,) ray indices, cap by cap
    starts: np.ndarray  # (K + 1,) offsets into order
    centres: np.ndarray  # (K, dim)
    radius: np.ndarray  # (K,)
    cosines: np.ndarray  # (K, N)


def angle_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Angles between unit rows, as 2 atan2(|u - v|, |u + v|): accurate near 0 and pi, unlike arccos of the dot."""
    return 2.0 * np.arctan2(np.linalg.norm(u - v, axis=-1), np.linalg.norm(u + v, axis=-1))


def nearest_centre(rows: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Index of the centre with the largest inner product, per row, DENSE_BLOCK products at a time."""
    out = np.empty(len(rows), dtype=np.intp)
    for b in row_blocks(len(rows), len(centres)):
        out[b] = (rows[b] @ centres.T).argmax(axis=1)
    return out


def group_rows(rows: np.ndarray, centres: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): the unit rows grouped under their nearest centre, for the rays (Caps) and the facets.

    Group c holds the rows order[starts[c]:starts[c + 1]] (ascending).
    """
    label = nearest_centre(rows, centres)
    order = np.argsort(label, kind="stable")
    return order, np.concatenate(([0], np.cumsum(np.bincount(label, minlength=len(centres)))))


def cap_cosines(centres: np.ndarray, radius: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(K, M) cone bounds: cos(max(0, angle(u_c, p_i) - radius[c])) + PRUNE_SLACK for each centre u_c and row p_i.

    A ray within radius[c] of u_c lies at least angle(u_c, p_i) - radius[c]
    from p_i, so <p_i, theta_j> stays below the bound on every ray theta_j of
    cap c, and w_i times it bounds row i's products there.  It is read off
    x = <u_c, p_i>, DENSE_BLOCK products at a time, with no arccos: 1 if
    x >= cos r, else cos(angle - r) = x cos r + sqrt(1 - x^2) sin r.

    Float error: rows and rays are unit to UNIT_NORM_TOL, so x is within
    about 1e-12 of the cosine of the angle, and the radius and each product
    <p_i, theta_j> are off by as much.  The bound grows with x, so x is raised
    by 2 UNIT_NORM_TOL first: that keeps it above the exact bound at every
    angle, also near x = -1 where sqrt(1 - x^2) is steep, and keeps 1 - x^2
    at least about 2e-12 there, so its rounding moves the root by under
    1e-10.  PRUNE_SLACK covers the rest (about 1e-12 each) many times over.
    """
    out = np.empty((len(centres), len(rows)))
    cos_r, sin_r = np.cos(radius)[:, None], np.sin(radius)[:, None]
    for b in row_blocks(len(centres), len(rows)):
        x = np.matmul(centres[b], rows.T, out=out[b])
        x += 2 * UNIT_NORM_TOL
        inside = x >= cos_r[b]
        root = np.multiply(x, x)
        np.sqrt(np.maximum(np.subtract(1.0, root, out=root), 0.0, out=root), out=root)
        root *= sin_r[b]
        x *= cos_r[b]
        x += root
        x[inside] = 1.0
    out += PRUNE_SLACK
    return out


def _build_caps(d: np.ndarray) -> Caps:
    """Caps of the unit rows d: spherical k-means with K = round(sqrt(N)), seeded by evenly spaced rows.

    A pure function of d: no random draw, so equal grids get equal caps.
    Empty caps are dropped.
    """
    n = len(d)
    centres = d[np.linspace(0, n - 1, max(1, round(n ** 0.5))).astype(np.intp)]
    for _ in range(CAP_ROUNDS):
        sums = np.zeros_like(centres)
        np.add.at(sums, nearest_centre(d, centres), d)
        norms = np.linalg.norm(sums, axis=1)
        moved = norms > 0.0
        centres[moved] = sums[moved] / norms[moved, None]
    order, starts = group_rows(d, centres)
    centres, starts = centres[np.diff(starts) > 0], np.unique(starts)
    label = np.repeat(np.arange(len(centres)), np.diff(starts))
    radius = np.maximum.reduceat(angle_between(d[order], centres[label]), starts[:-1])
    caps = Caps(order, starts, centres, radius, cap_cosines(centres, radius, d))
    for a in caps:
        a.flags.writeable = False
    return caps


def _refuse_unless_orthonormal(frames: np.ndarray, message: str) -> None:
    """ParameterError(message) unless the rows of the frame, or of every frame in a stack, are orthonormal to ORTHO_TOL."""
    gram = frames @ np.swapaxes(frames, -1, -2)
    gram -= np.eye(gram.shape[-1])
    if np.abs(gram, out=gram).max() > ORTHO_TOL:
        raise ParameterError(message)


@dataclass(eq=False)
class Rotation:
    """Proper rotation of R^dim (orthogonal, det +1)."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = _read_only(np.atleast_2d(self.matrix))
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ParameterError("rotation matrix must be square")
        _refuse_unless_orthonormal(m.T, "rotation matrix is not orthogonal")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def inverse(self) -> "Rotation":
        return Rotation(self.matrix.T)


@dataclass(eq=False)
class SubspaceBasis:
    """Orthonormal frame spanning a k-dimensional subspace of R^ambient_dim."""

    ambient_dim: int
    k: int
    frame: np.ndarray  # (k, ambient_dim), orthonormal rows

    def __post_init__(self):
        self.frame = _read_only(np.atleast_2d(self.frame))
        if not 1 <= self.k <= self.ambient_dim:
            raise ParameterError(f"k={self.k} out of range for ambient dim {self.ambient_dim}")
        if self.frame.shape != (self.k, self.ambient_dim):
            raise ParameterError("frame shape mismatch")
        _refuse_unless_orthonormal(self.frame, "frame is not orthonormal")

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace, as an ambient matrix."""
        return self.frame.T @ self.frame


def uniform_angle_grid(n: int) -> DirectionGrid:
    """2D grid of n equally spaced angles with equal weights 1/n."""
    if n < 8:
        raise InvalidGridError(f"uniform angle grid needs n >= 8, got {n}")
    th = 2 * np.pi * np.arange(n) / n
    dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    grid = DirectionGrid(2, dirs, np.full(n, 1.0 / n))
    grid.uniform_n = n
    return grid


def sampled_sphere_grid(dim: int, n: int, seed: int, symmetric: bool = False) -> DirectionGrid:
    """Monte Carlo grid: n normalized Gaussian directions, equal weights.

    With symmetric=True, n must be even and the grid is n/2 draws plus their
    negations, giving an exact antipodal pairing for symmetry-sensitive
    operations.
    """
    if dim < 3:
        raise InvalidGridError("sampled grids are for dim >= 3; use uniform_angle_grid in 2D")
    if n < 32:
        raise InvalidGridError(f"sampled sphere grid needs n >= 32, got {n}")
    if symmetric and n % 2:
        raise InvalidGridError("symmetric grid needs even n")
    dirs = np.random.default_rng(seed).normal(size=(n // 2 if symmetric else n, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    if symmetric:
        dirs = np.vstack([dirs, -dirs])
    return DirectionGrid(dim, dirs, np.full(n, 1.0 / n))


def quadrature_mean(grid: DirectionGrid, values: np.ndarray) -> float:
    """Spherical average: sum of w_i * values_i."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size,):
        raise GridMismatchError(f"expected {grid.size} values, got {values.shape}")
    return float(grid.weights @ values)


def _gaussians(seeds: Sequence[int], shape: tuple[int, ...]) -> np.ndarray:
    """One standard normal draw of the given shape per seed, each from default_rng(seed), stacked."""
    out = np.empty((len(seeds), *shape))
    for i, seed in enumerate(seeds):
        out[i] = np.random.default_rng(seed).normal(size=shape)
    return out


def random_rotations(dim: int, seeds: Sequence[int]) -> np.ndarray:
    """(S, dim, dim) Haar rotations, one per seed: QR of the seed's Gaussian matrix, sign-fixed, det +1."""
    if dim < 2:
        raise ParameterError("rotation needs dim >= 2")
    q, r = np.linalg.qr(_gaussians(seeds, (dim, dim)))
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    q[np.linalg.det(q) < 0, :, -1] *= -1.0
    _refuse_unless_orthonormal(np.swapaxes(q, -1, -2), "rotation matrix is not orthogonal")
    return q


def random_subspaces(dim: int, k: int, seeds: Sequence[int]) -> np.ndarray:
    """(S, k, dim) orthonormal frames of uniformly random k-subspaces, one per seed (orthonormalized Gaussians)."""
    if not 1 <= k <= dim:
        raise ParameterError(f"k={k} out of range 1..{dim}")
    frames = np.swapaxes(np.linalg.qr(_gaussians(seeds, (dim, k)))[0], -1, -2)
    _refuse_unless_orthonormal(frames, "frame is not orthonormal")
    return frames


def random_rotation(dim: int, seed: int) -> Rotation:
    """The Haar rotation of one seed, as random_rotations draws it."""
    return Rotation(random_rotations(dim, [seed])[0])


def random_subspace(dim: int, k: int, seed: int) -> SubspaceBasis:
    """The random k-subspace of one seed, as random_subspaces draws it."""
    return SubspaceBasis(dim, k, random_subspaces(dim, k, [seed])[0])


def child_seed(master: int, index: int) -> int:
    """Derived per-trial seed; stable and collision-free across trials."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
