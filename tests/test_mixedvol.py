import math
import warnings

import numpy as np
import pytest

from flowerlab.bodies import (
    ConvexBody,
    StarBody,
    _ball_mean,
    convexify_support,
    flower_of,
    polytope_body,
    random_convex_body,
    unit_ball,
    volume,
)
from flowerlab.errors import DegenerateInputError, ParameterError
from flowerlab.mixedvol import FlowerCombination, combine, expansion_check, flower_mixed_volume
from flowerlab.spherecore import DirectionGrid, sampled_sphere_grid, uniform_angle_grid


class TestCombine:
    def test_single_body_identity(self, grid720):
        k = random_convex_body(grid720, 0)
        f = combine(FlowerCombination([k], [1.0]))
        assert np.array_equal(f.radial, flower_of(k).radial)

    def test_coefficient_scaling(self, grid720):
        k = random_convex_body(grid720, 1)
        f1 = combine(FlowerCombination([k], [1.0]))
        f3 = combine(FlowerCombination([k], [3.0]))
        assert np.abs(f3.radial - 3.0 * f1.radial).max() < 1e-12

    def test_two_unit_balls(self, grid720):
        b = unit_ball(grid720)
        f = combine(FlowerCombination([b, b], [1.0, 1.0]))
        assert np.all(f.radial == 2.0)

    def test_zero_coefficients_rejected(self, grid720):
        b = unit_ball(grid720)
        with pytest.raises(DegenerateInputError):
            combine(FlowerCombination([b], [0.0]))

    def test_negative_coefficients_rejected(self, grid720):
        b = unit_ball(grid720)
        with pytest.raises(ParameterError):
            FlowerCombination([b], [-1.0])


class TestFlowerMixedVolume:
    def test_all_balls(self, grid720):
        b = unit_ball(grid720)
        assert flower_mixed_volume(b, b) == pytest.approx(np.pi, abs=1e-12)

    def test_diagonal_collapses_to_flower_volume(self, grid720):
        k = random_convex_body(grid720, 2)
        assert flower_mixed_volume(k, k) == pytest.approx(volume(flower_of(k)), rel=1e-12)

    def test_orthogonal_segments(self, grid4096):
        # closed form: pi * mean(cos_+ sin_+) = pi / (4 pi) = 1/4
        s1 = polytope_body(grid4096, [[0.0, 0.0], [1.0, 0.0]])
        s2 = polytope_body(grid4096, [[0.0, 0.0], [0.0, 1.0]])
        assert flower_mixed_volume(s1, s2) == pytest.approx(0.25, abs=1e-6)

    def test_permutation_symmetry(self, grid720):
        k1 = random_convex_body(grid720, 3)
        k2 = random_convex_body(grid720, 4)
        assert flower_mixed_volume(k1, k2) == flower_mixed_volume(k2, k1)

    def test_multilinearity_under_radial_sum(self, grid720):
        k1 = random_convex_body(grid720, 5)
        k2 = random_convex_body(grid720, 6)
        k3 = random_convex_body(grid720, 7)
        ksum = ConvexBody(grid720, k1.support + k2.support, certified=True)
        lhs = flower_mixed_volume(ksum, k3)
        rhs = flower_mixed_volume(k1, k3) + flower_mixed_volume(k2, k3)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monotone_in_each_slot(self, grid720):
        k1 = random_convex_body(grid720, 8)
        k2 = random_convex_body(grid720, 9)
        bigger = ConvexBody(grid720, k1.support * 1.1, certified=True)
        assert flower_mixed_volume(bigger, k2) >= flower_mixed_volume(k1, k2)

    @pytest.mark.parametrize("value", [1e200, 1e-200])
    def test_past_the_floats_is_refused_without_a_warning(self, assert_refusal, value):
        # three supports of 1e200 (1e-200) on the +-e_i grid: the plain product overflows to inf (underflows to 0)
        cube = ConvexBody(DirectionGrid(3, np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 1 / 6)), np.full(6, value))
        exp = 3 * int(np.frexp(value)[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_refusal(lambda: flower_mixed_volume(cube, cube, cube), DegenerateInputError,
                           f"the flower mixed volume leaves the floats (about 2**{exp})")

    @pytest.mark.parametrize("n, dim", [(2048, 2), (512, 3)])
    def test_in_range_equals_the_plain_formula(self, n, dim):
        # duality-2d's expansion op reads these values
        grid = uniform_angle_grid(n) if dim == 2 else sampled_sphere_grid(3, n, seed=0)
        radial = lambda s: 1.0 + 0.1 * s + grid.directions[:, 0] ** 2  # noqa: E731
        bodies = [random_convex_body(grid, s) if dim == 2 else convexify_support(StarBody(grid, radial(s)))
                  for s in range(dim)]
        for scale in (1.0, 3e-5, 7e40):
            scaled = [ConvexBody(grid, scale * b.support) for b in bodies]
            assert flower_mixed_volume(*scaled) == _ball_mean(grid, math.prod(b.support for b in scaled), 0, "")

    def test_arity_enforced(self, grid720):
        b = unit_ball(grid720)
        with pytest.raises(ParameterError):
            flower_mixed_volume(b)
        with pytest.raises(ParameterError):
            flower_mixed_volume(b, b, b)


class TestExpansionCheck:
    def test_single_body_zero_discrepancy(self, grid720):
        k = random_convex_body(grid720, 10)
        rep = expansion_check(FlowerCombination([k], [2.0]))
        assert rep.discrepancy < 1e-12

    def test_random_two_body(self, grid720, rng):
        for seed in range(10):
            c = FlowerCombination(
                [random_convex_body(grid720, 100 + 2 * seed), random_convex_body(grid720, 101 + 2 * seed)],
                rng.random(2) * 2,
            )
            assert expansion_check(c).discrepancy < 1e-10

    def test_random_three_body(self, grid720, rng):
        for seed in range(5):
            bodies = [random_convex_body(grid720, 200 + 3 * seed + j) for j in range(3)]
            c = FlowerCombination(bodies, rng.random(3) * 1.5)
            assert expansion_check(c).discrepancy < 1e-10

    def test_two_body_polynomial_form(self, grid720):
        # |G| = lam1^2 V11 + 2 lam1 lam2 V12 + lam2^2 V22 in 2D
        k1 = random_convex_body(grid720, 11)
        k2 = random_convex_body(grid720, 12)
        lam1, lam2 = 0.7, 1.3
        g = combine(FlowerCombination([k1, k2], [lam1, lam2]))
        v11 = flower_mixed_volume(k1, k1)
        v12 = flower_mixed_volume(k1, k2)
        v22 = flower_mixed_volume(k2, k2)
        poly = lam1 ** 2 * v11 + 2 * lam1 * lam2 * v12 + lam2 ** 2 * v22
        assert volume(g) == pytest.approx(poly, rel=1e-12)


# refusals that no other test reaches: (call, error, message)
MIXEDVOL_REFUSALS = [
    pytest.param(lambda: flower_mixed_volume(), ParameterError, "mixed volume needs bodies", id="no-bodies"),
    pytest.param(lambda: FlowerCombination([], np.array([])), ParameterError, "combination needs at least one body",
                 id="empty-combination"),
    pytest.param(lambda: FlowerCombination([unit_ball(uniform_angle_grid(16))], np.array([1.0, 2.0])), ParameterError,
                 "one coefficient per body required", id="coefficient-count"),
]


@pytest.mark.parametrize("call, error, message", MIXEDVOL_REFUSALS)
def test_refusal(assert_refusal, call, error, message):
    assert_refusal(call, error, message)
