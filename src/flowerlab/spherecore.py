"""Direction grids, spherical quadrature, and seeded random rotations/subspaces.

A DirectionGrid is the discrete stand-in for the unit sphere carrying the
uniform probability measure: quadrature_mean(grid, f) approximates the
spherical average of f.  Two regimes are used throughout the package:

* dim == 2: deterministic uniform angle grids (trapezoid rule on the circle,
  exact for trigonometric polynomials of degree < N),
* dim >= 3: seeded Monte Carlo grids of normalized Gaussian directions.

All random constructors are pure functions of (parameters, seed).
"""
from __future__ import annotations

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
    uniform_n: int | None = None  # set for 2D uniform angle grids
    _gram_plus: np.ndarray | None = field(default=None, repr=False, compare=False)
    _angles: np.ndarray | None = field(default=None, repr=False, compare=False)
    _caps: "Caps | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.directions = _read_only(np.atleast_2d(self.directions))
        self.weights = _read_only(np.atleast_1d(self.weights))
        if self.dim < 2:
            raise InvalidGridError(f"grid dimension must be >= 2, got {self.dim}")
        if self.directions.shape != (len(self.weights), self.dim):
            raise InvalidGridError("directions/weights shape mismatch")
        norms = np.linalg.norm(self.directions, axis=1)
        if np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
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

    Cap c holds the rays order[starts[c]:starts[c + 1]] (ascending), each
    within radius[c] radians of the unit centre centres[c]; spread[c, c'] is
    the angle between two centres.  Every cap holds at least one ray.
    """

    order: np.ndarray  # (N,) ray indices, cap by cap
    starts: np.ndarray  # (K + 1,) offsets into order
    centres: np.ndarray  # (K, dim)
    radius: np.ndarray  # (K,)
    spread: np.ndarray  # (K, K)


def angle_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Angles between unit rows, as 2 atan2(|u - v|, |u + v|): accurate near 0 and pi, unlike arccos of the dot."""
    return 2.0 * np.arctan2(np.linalg.norm(u - v, axis=-1), np.linalg.norm(u + v, axis=-1))


def nearest_centre(rows: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Index of the centre with the largest inner product, per row, DENSE_BLOCK products at a time."""
    out = np.empty(len(rows), dtype=np.intp)
    step = max(1, DENSE_BLOCK // len(centres))
    for i in range(0, len(rows), step):
        out[i:i + step] = (rows[i:i + step] @ centres.T).argmax(axis=1)
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
    label = nearest_centre(d, centres)
    used, label = np.unique(label, return_inverse=True)
    centres = centres[used]
    order = np.argsort(label, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(label))))
    radius = np.maximum.reduceat(angle_between(d[order], centres[label[order]]), starts[:-1])
    spread = angle_between(centres[:, None, :], centres[None, :, :])
    caps = Caps(order, starts, centres, radius, spread)
    for a in caps:
        a.flags.writeable = False
    return caps


@dataclass(eq=False)
class Rotation:
    """Proper rotation of R^dim (orthogonal, det +1)."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = _read_only(np.atleast_2d(self.matrix))
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ParameterError("rotation matrix must be square")
        if np.abs(m.T @ m - np.eye(m.shape[0])).max() > ORTHO_TOL:
            raise ParameterError("rotation matrix is not orthogonal")

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
        gram = self.frame @ self.frame.T
        if np.abs(gram - np.eye(self.k)).max() > ORTHO_TOL:
            raise ParameterError("frame is not orthonormal")

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace, as an ambient matrix."""
        return self.frame.T @ self.frame


def uniform_angle_grid(n: int) -> DirectionGrid:
    """2D grid of n equally spaced angles with equal weights 1/n."""
    if n < 8:
        raise InvalidGridError(f"uniform angle grid needs n >= 8, got {n}")
    th = 2 * np.pi * np.arange(n) / n
    dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    return DirectionGrid(2, dirs, np.full(n, 1.0 / n), uniform_n=n)


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
    rng = np.random.default_rng(seed)
    if symmetric:
        if n % 2:
            raise InvalidGridError("symmetric grid needs even n")
        g = rng.normal(size=(n // 2, dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        dirs = np.vstack([g, -g])
    else:
        g = rng.normal(size=(n, dim))
        dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    return DirectionGrid(dim, dirs, np.full(n, 1.0 / n))


def quadrature_mean(grid: DirectionGrid, values: np.ndarray) -> float:
    """Spherical average: sum of w_i * values_i."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size,):
        raise GridMismatchError(f"expected {grid.size} values, got {values.shape}")
    return float(grid.weights @ values)


def random_rotation(dim: int, seed: int) -> Rotation:
    """Haar rotation: QR of a seeded Gaussian matrix, sign-fixed, det +1."""
    if dim < 2:
        raise ParameterError("rotation needs dim >= 2")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return Rotation(q)


def random_subspace(dim: int, k: int, seed: int) -> SubspaceBasis:
    """Uniformly random k-dimensional subspace (orthonormalized Gaussians)."""
    if not 1 <= k <= dim:
        raise ParameterError(f"k={k} out of range 1..{dim}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, k)))
    return SubspaceBasis(dim, k, q.T)


def child_seed(master: int, index: int) -> int:
    """Derived per-trial seed; stable and collision-free across trials."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
