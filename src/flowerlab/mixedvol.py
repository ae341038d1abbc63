"""Flower mixed volumes and the polynomial volume expansion."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, Flower, _ball_mean, _check_same_grid, volume
from .errors import DegenerateInputError, ParameterError
from .spherecore import _read_only


@dataclass(eq=False)
class FlowerCombination:
    """Nonnegative combination sum_i lambda_i * flower_of(K_i)."""

    bodies: list[ConvexBody]
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = c = _read_only(self.coefficients)
        if len(self.bodies) == 0:
            raise ParameterError("combination needs at least one body")
        if c.shape != (len(self.bodies),):
            raise ParameterError("one coefficient per body required")
        if (c < 0).any():
            raise ParameterError("coefficients must be nonnegative")
        for b in self.bodies[1:]:
            _check_same_grid(self.bodies[0].grid, b.grid)

    @property
    def grid(self):
        return self.bodies[0].grid


def combine(c: FlowerCombination) -> Flower:
    """The flower with radial sum_i lambda_i h_{K_i} (support additivity)."""
    if (c.coefficients == 0).all():
        raise DegenerateInputError("all coefficients are zero")
    r = np.zeros(c.grid.size)
    for lam, body in zip(c.coefficients, c.bodies):
        r += lam * body.support
    return Flower(c.grid, r)


def flower_mixed_volume(*bodies: ConvexBody) -> float:
    """V_flower(K_1, ..., K_n) = kappa_n * mean over the sphere of prod h_{K_i}, scaled and refused as in volume."""
    if not bodies:
        raise ParameterError("mixed volume needs bodies")
    grid = bodies[0].grid
    n = grid.dim
    if len(bodies) != n:
        raise ParameterError(f"mixed volume needs exactly {n} bodies in dimension {n}, got {len(bodies)}")
    for b in bodies[1:]:
        _check_same_grid(grid, b.grid)
    prod, e = np.ones(grid.size), 0
    for b in bodies:
        k = int(np.frexp(b.support.max())[1])
        prod = prod * np.ldexp(b.support, -k)
        e += k
    return _ball_mean(grid, prod, e, "flower mixed volume")


@dataclass(eq=False)
class ExpansionReport:
    combined_volume: float
    polynomial_value: float

    @property
    def discrepancy(self) -> float:
        return abs(self.combined_volume - self.polynomial_value)


def expansion_check(c: FlowerCombination) -> ExpansionReport:
    """Compare |combine(c)| against the degree-n mixed-volume polynomial.

    Both sides are the same quadrature of (sum lambda_i h_i)^n, so the
    discrepancy is pure floating-point accumulation.
    """
    n = c.grid.dim
    total = 0.0
    m = len(c.bodies)
    for idx in itertools.product(range(m), repeat=n):
        coef = math.prod(c.coefficients[i] for i in idx)
        if coef == 0.0:
            continue
        total += coef * flower_mixed_volume(*(c.bodies[i] for i in idx))
    return ExpansionReport(volume(combine(c)), total)
