"""Functions of convex bodies: radial maps, power maps, compositions, log-means.

The naive map P_f sends K to conv(S) where S is the star body with radial
f(theta, r_K(theta)).  Composing naive power maps over refining partitions
yields the proper power K^lambda; partitions here are geometric (equal log
steps), so refinement is plain m-doubling with guaranteed nesting.  The
iteration runs on radial samples with hull convexification at each step, and
the convergence metric is the scale-invariant sup |delta log r|.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._sampleops import EPS_FLOOR, hull_radial
from .bodies import (ConvexBody, Flower, StarBody, _check_same_grid, alexandrov, convexify_support, core_of,
                     flower_of, unit_ball, volume)
from .errors import CertificationRequiredError, ConvergenceError, DegenerateInputError, ParameterError
from .spherecore import DirectionGrid, _read_only

POWER_TOL = 1e-6
POWER_M_CAP = 2 ** 14


@dataclass(eq=False)
class Partition:
    """Strictly increasing positive endpoints t_0 < t_1 < ... < t_m."""

    endpoints: np.ndarray

    def __post_init__(self):
        self.endpoints = t = _read_only(self.endpoints)
        if t.ndim != 1 or len(t) < 2:
            raise ParameterError("a partition needs at least two endpoints")
        if not (np.isfinite(t).all() and (t > 0).all() and (np.diff(t) > 0).all()):  # nan fails every test
            raise ParameterError("endpoints must be finite, positive and strictly increasing")

    @property
    def steps(self) -> int:
        return len(self.endpoints) - 1

    @classmethod
    def geometric(cls, lo: float, hi: float, m: int) -> "Partition":
        """m equal log-steps between lo and hi."""
        if not (0 < lo < np.inf and 0 < hi < np.inf):
            raise ParameterError("a geometric partition needs finite positive ends")
        if not (isinstance(m, (int, np.integer)) and m >= 1):
            raise ParameterError("a geometric partition needs a whole number m >= 1 of steps")
        return cls(np.exp(np.linspace(np.log(lo), np.log(hi), m + 1)))


@dataclass(eq=False)
class RadialMap:
    """A map f(theta, r) acting on radial samples, with f(theta, 0) = 0.

    evaluator takes the (N, dim) direction array and an (N,) radial vector and
    returns the transformed (N,) vector.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def check_zero_fixed(self, grid: DirectionGrid):
        out = np.asarray(self.evaluator(grid.directions, np.zeros(grid.size)), dtype=float)
        if out.shape != (grid.size,) or not np.abs(out).max() <= 1e-12:
            raise ParameterError("radial map must satisfy f(theta, 0) = 0")

    @classmethod
    def power(cls, lam: float) -> "RadialMap":
        if not 0 < lam < np.inf:
            raise ParameterError("power exponent must be positive" if lam <= 0 else "power exponent must be finite")
        return cls(lambda dirs, r: r ** lam)

    @classmethod
    def scale(cls, factor: float) -> "RadialMap":
        if not 0 < factor < np.inf:
            raise ParameterError("scale factor must be positive" if factor <= 0 else "scale factor must be finite")
        return cls(lambda dirs, r: factor * r)


def apply_radial_map(k: ConvexBody, f: RadialMap) -> ConvexBody:
    """f(K) = conv of the star body with radial f(theta, r_K(theta))."""
    if not k.certified:
        raise CertificationRequiredError("radial maps need a certified convex body")
    f.check_zero_fixed(k.grid)
    with np.errstate(over="ignore"):
        s = np.asarray(f.evaluator(k.grid.directions, k.radial()), dtype=float)
    if not np.isfinite(s).all():
        raise DegenerateInputError("radial map left the float range: mapped radial samples are not finite")
    if (s <= 0).all():
        raise DegenerateInputError("radial map produced no positive values")
    return convexify_support(StarBody(k.grid, np.maximum(s, EPS_FLOOR)))


def power_naive(k: ConvexBody, lam: float) -> ConvexBody:
    """The naive power P_lambda(K): single application of r -> r^lambda."""
    return apply_radial_map(k, RadialMap.power(lam))


@dataclass(eq=False)
class PowerResult:
    body: ConvexBody
    lam: float
    m_final: int
    increment: float

    def radial(self) -> np.ndarray:
        return self.body.radial()


def _power_run(grid: DirectionGrid, w: np.ndarray, exponents) -> np.ndarray:
    """Composed naive powers on radial samples: w <- hull(w ** s) for each s in turn.

    A pass whose samples leave the positive floats (w ** s overflows to inf or
    underflows to 0) is refused before it reaches the hull.
    """
    for s in exponents:
        with np.errstate(over="ignore", under="ignore"):
            v = w ** s
        if not 0.0 < v.min() <= v.max() < np.inf:
            raise DegenerateInputError(
                f"power map left the float range: radial samples ** {s:.6g} are not finite and positive"
            )
        w = hull_radial(grid, v)
    return w


def power(k: ConvexBody, lam: float, tol: float = POWER_TOL) -> PowerResult:
    """The proper power K^lambda via m-doubled geometric partitions.

    lambda = 1 returns K; lambda = 0 returns the unit ball.  Otherwise the
    composed naive powers P_{s} with s = lambda^(1/m) are iterated on radial
    samples, doubling m until the sup-log-radial increment between successive
    refinements drops below tol, or refusing once m reaches POWER_M_CAP.
    """
    if not 0 <= lam < np.inf:  # nan fails it too
        raise ParameterError("power exponent must be nonnegative" if lam < 0 else "power exponent must be finite")
    if not 0 < tol < np.inf:
        raise ParameterError("tolerance must be positive" if tol <= 0 else "tolerance must be finite")
    if not k.certified:
        raise CertificationRequiredError("power needs a certified convex body")
    grid = k.grid
    if lam == 1.0:
        return PowerResult(k, lam, 0, 0.0)
    if lam == 0.0:
        return PowerResult(unit_ball(grid), lam, 0, 0.0)
    w0 = k.radial()
    m = 2
    prev = _power_run(grid, w0, [lam ** (1.0 / m)] * m)
    while True:
        m *= 2
        cur = _power_run(grid, w0, [lam ** (1.0 / m)] * m)
        inc = float(np.abs(np.log(cur) - np.log(prev)).max())
        if inc < tol:
            return PowerResult(ConvexBody.hull_backed(grid, cur), lam, m, inc)
        if m >= POWER_M_CAP:
            raise ConvergenceError(
                f"power map did not converge by m={m} (increment {inc:.3e})", m, inc
            )
        prev = cur


def power_partition(k: ConvexBody, lam: float, partition: Partition) -> ConvexBody:
    """P_Pi(K) for an explicit partition of [lambda, 1] or [1, lambda].

    For lambda < 1 the composition runs P_{s_1} o ... o P_{s_m} with
    s_i = t_{i-1}/t_i applied right to left; for lambda > 1 the order is
    reversed with s_i = t_i/t_{i-1}.
    """
    if not k.certified:
        raise CertificationRequiredError("power_partition needs a certified convex body")
    if not np.isfinite(lam):
        raise ParameterError("power exponent must be finite")
    t = partition.endpoints
    if lam < 1.0:
        if not (np.isclose(t[0], lam) and np.isclose(t[-1], 1.0)):
            raise ParameterError("partition must span [lambda, 1]")
        ratios = (t[:-1] / t[1:])[::-1]  # apply s_m first
    elif lam > 1.0:
        if not (np.isclose(t[0], 1.0) and np.isclose(t[-1], lam)):
            raise ParameterError("partition must span [1, lambda]")
        ratios = t[1:] / t[:-1]  # apply s_1 first
    else:
        return k
    return ConvexBody.hull_backed(k.grid, _power_run(k.grid, k.radial(), ratios))


def compose(t: ConvexBody, k: ConvexBody) -> ConvexBody:
    """T o K: conv of the star body with radial h_T * r_K."""
    _check_same_grid(t.grid, k.grid)
    if not (t.certified and k.certified):
        raise CertificationRequiredError("compose needs certified bodies")
    return convexify_support(StarBody(t.grid, t.support * k.radial()))


def radial_compose(t: ConvexBody, k: ConvexBody) -> ConvexBody:
    """T (.) K: conv of the radial product r_T * r_K; commutative."""
    _check_same_grid(t.grid, k.grid)
    if not (t.certified and k.certified):
        raise CertificationRequiredError("radial_compose needs certified bodies")
    return convexify_support(StarBody(t.grid, t.radial() * k.radial()))


def radial_product(a: StarBody, b: StarBody) -> StarBody:
    """Pointwise product of radial samples."""
    _check_same_grid(a.grid, b.grid)
    return StarBody(a.grid, a.radial * b.radial)


def log_mean_0(k: ConvexBody, t: ConvexBody, lam: float) -> ConvexBody:
    """Logarithmic 0-mean: A[h_K^(1-lambda) * h_T^lambda]."""
    _check_same_grid(k.grid, t.grid)
    if not 0.0 <= lam <= 1.0:
        raise ParameterError("lambda must lie in [0, 1]")
    g = k.support ** (1.0 - lam) * t.support ** lam
    return alexandrov(g, k.grid)


@dataclass(eq=False)
class BmProbeReport:
    mode: str
    lhs_root: float
    rhs_roots: tuple[float, float]
    margin: float


def check_composition_bm(t: ConvexBody, k1: ConvexBody, k2: ConvexBody, mode: str = "compose") -> BmProbeReport:
    """Experimental probe of the Brunn-Minkowski-type composition inequality.

    Reports |T * (K1 + K2)|^(1/n) - |T * K1|^(1/n) - |T * K2|^(1/n) for
    * = compose or radial_compose.  No truth claim; the sign is the data.
    """
    _check_same_grid(t.grid, k1.grid)
    _check_same_grid(t.grid, k2.grid)
    if mode not in ("compose", "rcompose"):
        raise ParameterError("mode must be 'compose' or 'rcompose'")
    op = compose if mode == "compose" else radial_compose
    ksum = alexandrov(k1.support + k2.support, k1.grid)  # certified: h1 + h2 itself can fail the certificate
    n = t.grid.dim
    lhs = volume(op(t, ksum)) ** (1.0 / n)
    r1 = volume(op(t, k1)) ** (1.0 / n)
    r2 = volume(op(t, k2)) ** (1.0 / n)
    return BmProbeReport(mode, lhs, (r1, r2), lhs - r1 - r2)


def power_flower(f: Flower, lam: float) -> Flower:
    """F^lambda, computed on the core and transported back through flower_of."""
    return flower_of(power(core_of(f), lam).body)
