import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowerlab.bodies import ConvexBody, Flower, StarBody, rotate_star_2d, unit_ball
from flowerlab.calculus import Partition
from flowerlab.errors import GridMismatchError, InvalidGridError, ParameterError
from flowerlab.inversion import OffOriginBall, OffOriginPolytope
from flowerlab.mixedvol import FlowerCombination
from flowerlab.spherecore import (
    DirectionGrid,
    angle_between,
    child_seed,
    quadrature_mean,
    random_rotation,
    random_subspace,
    sampled_sphere_grid,
    uniform_angle_grid,
)


class TestUniformAngleGrid:
    def test_small_n_rejected(self):
        with pytest.raises(InvalidGridError):
            uniform_angle_grid(4)

    def test_n8_is_45_degree_fan(self):
        g = uniform_angle_grid(8)
        expected = np.stack([np.cos(np.pi / 4 * np.arange(8)), np.sin(np.pi / 4 * np.arange(8))], axis=1)
        assert np.allclose(g.directions, expected, atol=1e-15)
        assert np.allclose(g.weights, 1 / 8)

    def test_equal_weights(self):
        g = uniform_angle_grid(720)
        assert np.all(g.weights == 1 / 720)

    def test_unit_norms(self, grid720):
        assert np.abs(np.linalg.norm(grid720.directions, axis=1) - 1).max() < 1e-12

    def test_antipode_pairing(self, grid720):
        anti = grid720.antipode_index()
        assert np.allclose(grid720.directions[anti], -grid720.directions, atol=1e-12)


class TestSampledSphereGrid:
    def test_determinism(self):
        a = sampled_sphere_grid(3, 1000, seed=7)
        b = sampled_sphere_grid(3, 1000, seed=7)
        assert np.array_equal(a.directions, b.directions)

    def test_seed_changes_grid(self):
        a = sampled_sphere_grid(3, 1000, seed=7)
        b = sampled_sphere_grid(3, 1000, seed=8)
        assert not np.array_equal(a.directions, b.directions)

    def test_first_moment_monte_carlo(self):
        # oracle: <theta, e1> has mean 0 by symmetry of the Gaussian draw
        n = 4000
        g = sampled_sphere_grid(4, n, seed=11)
        assert abs(quadrature_mean(g, g.directions[:, 0])) < 4 / np.sqrt(n)

    def test_second_moment_monte_carlo(self):
        # oracle: E <theta, e1>^2 = 1/dim for the uniform sphere measure
        n = 4000
        for dim in (3, 5):
            g = sampled_sphere_grid(dim, n, seed=13)
            assert abs(quadrature_mean(g, g.directions[:, 0] ** 2) - 1 / dim) < 4 / np.sqrt(n)

    def test_symmetric_variant_pairs(self):
        g = sampled_sphere_grid(3, 256, seed=3, symmetric=True)
        anti = g.antipode_index()
        assert np.array_equal(g.directions[anti], -g.directions)

    def test_too_small(self):
        with pytest.raises(InvalidGridError):
            sampled_sphere_grid(3, 16, seed=0)


class TestQuadrature:
    def test_constant(self, grid720):
        assert quadrature_mean(grid720, np.full(720, 3.25)) == pytest.approx(3.25, abs=1e-12)

    def test_length_mismatch(self, grid720):
        with pytest.raises(GridMismatchError):
            quadrature_mean(grid720, np.ones(10))

    def test_clipped_cosine_squared(self, grid4096):
        # closed form: (1/2pi) * integral of cos_+^2 = 1/4
        c = np.maximum(grid4096.directions[:, 0], 0.0)
        assert quadrature_mean(grid4096, c ** 2) == pytest.approx(0.25, abs=1e-6)

    def test_cos_sin_product(self, grid4096):
        # closed form: (1/2pi) * integral over [0, pi/2] of cos sin = 1/(4pi)
        d = grid4096.directions
        vals = np.maximum(d[:, 0], 0.0) * np.maximum(d[:, 1], 0.0)
        assert quadrature_mean(grid4096, vals) == pytest.approx(1 / (4 * np.pi), abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 255), phase=st.floats(0, 6.28))
    def test_trig_polynomials_exact(self, k, phase):
        # trapezoid rule on the circle integrates cos(k theta + phase) to 0 for 0 < k < N
        g = uniform_angle_grid(256)
        vals = np.cos(k * g.angles() + phase)
        assert abs(quadrature_mean(g, vals)) < 1e-12


class TestRandomRotation:
    def test_orthogonal(self):
        for dim in (2, 3, 7):
            r = random_rotation(dim, seed=5)
            assert np.abs(r.matrix.T @ r.matrix - np.eye(dim)).max() < 1e-10
            assert np.linalg.det(r.matrix) == pytest.approx(1.0, abs=1e-10)

    def test_determinism(self):
        assert np.array_equal(random_rotation(4, seed=9).matrix, random_rotation(4, seed=9).matrix)

    def test_star_body_roundtrip(self, grid720):
        # rotating by M then by M^-1 returns the original samples up to interpolation
        rng = np.random.default_rng(0)
        th = grid720.angles()
        r = np.exp(0.3 * np.cos(th) + 0.1 * np.sin(3 * th))
        a = StarBody(grid720, r)
        rot = random_rotation(2, seed=21)
        back = rotate_star_2d(rotate_star_2d(a, rot), rot.inverse())
        assert np.abs(back.radial - a.radial).max() < 5e-4  # two linear interpolations


class TestRandomSubspace:
    def test_full_dimensional(self):
        e = random_subspace(5, 5, seed=1)
        # frame spans R^5: projector is the identity
        assert np.abs(e.projector() - np.eye(5)).max() < 1e-10

    def test_gram_identity(self):
        e = random_subspace(9, 4, seed=2)
        assert np.abs(e.frame @ e.frame.T - np.eye(4)).max() < 1e-10

    def test_projector_idempotent(self):
        # matrix identity oracle: P = F^T F satisfies P P = P
        e = random_subspace(8, 3, seed=3)
        p = e.projector()
        assert np.abs(p @ p - p).max() < 1e-10

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            random_subspace(4, 5, seed=0)


def test_child_seeds_distinct():
    seeds = {child_seed(42, i) for i in range(200)}
    assert len(seeds) == 200
    assert child_seed(42, 3) == child_seed(42, 3)


_GRID16 = uniform_angle_grid(16)


class TestArrayOwnership:
    """Constructors copy caller arrays once; arrays the package builds are frozen in place."""

    @pytest.mark.parametrize(
        "build, attr, source",
        [
            (lambda a: DirectionGrid(2, a, np.full(16, 1 / 16)), "directions", np.array(_GRID16.directions)),
            (lambda a: DirectionGrid(2, _GRID16.directions, a), "weights", np.full(16, 1 / 16)),
            (lambda a: StarBody(_GRID16, a), "radial", np.ones(16)),
            (lambda a: ConvexBody(_GRID16, a), "support", np.ones(16)),
            (lambda a: Flower(_GRID16, np.ones(16), petals=a), "petals", np.array([[1.0, 0.0], [0.0, 1.0]])),
            (Partition, "endpoints", np.array([0.5, 0.75, 1.0])),
            (OffOriginPolytope, "vertices", np.array([[2.0, 0.0], [3.0, 0.0], [2.0, 1.0]])),
            (lambda a: OffOriginBall(a, 0.5), "center", np.array([2.0, 0.0])),
            (lambda a: FlowerCombination([unit_ball(_GRID16)], a), "coefficients", np.array([2.0])),
        ],
        ids=["grid-directions", "grid-weights", "star", "convex", "petals", "partition", "polytope", "ball",
             "combination"],
    )
    def test_constructor_keeps_a_read_only_copy(self, build, attr, source):
        kept = getattr(build(source), attr)
        expected = source.copy()
        assert not kept.flags.writeable
        source[...] = 7.0
        assert np.array_equal(kept, expected)

    @pytest.mark.parametrize(
        "make", [lambda: uniform_angle_grid(2048), lambda: sampled_sphere_grid(3, 2048, 11)], ids=["2d", "3d"]
    )
    def test_gram_is_built_once_in_place(self, make):
        grid = make()
        tracemalloc.start()
        try:
            gram = grid.gram_plus()
            first_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert grid.gram_plus() is gram
            second = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert first_peak <= 1.1 * grid.size ** 2 * 8
        assert second < 1024  # interpreter bookkeeping, no array
        assert not gram.flags.writeable
        assert np.array_equal(gram, np.maximum(grid.directions @ grid.directions.T, 0.0))

    def test_angles_frozen_in_place(self, grid720):
        a = grid720.angles()
        assert grid720.angles() is a
        assert not a.flags.writeable
        assert np.array_equal(a, np.mod(np.arctan2(grid720.directions[:, 1], grid720.directions[:, 0]), 2 * np.pi))

    @pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
    @pytest.mark.parametrize("dim", [3, 8])
    def test_caps_frozen_in_place_and_partition_the_rays(self, dim, symmetric):
        grid = sampled_sphere_grid(dim, 4096, 3, symmetric=symmetric)
        caps = grid.caps()
        assert grid.caps() is caps
        assert all(not a.flags.writeable for a in caps)
        assert len(caps.centres) == len(caps.radius) == len(caps.starts) - 1 == 64
        assert caps.starts[0] == 0 and caps.starts[-1] == grid.size and (np.diff(caps.starts) > 0).all()
        assert np.array_equal(np.sort(caps.order), np.arange(grid.size))
        label = np.repeat(np.arange(64), np.diff(caps.starts))
        assert (angle_between(grid.directions[caps.order], caps.centres[label]) <= caps.radius[label]).all()
        twin = DirectionGrid(dim, grid.directions.copy(), grid.weights)  # caps are a pure function of the directions
        assert all(np.array_equal(a, b) for a, b in zip(twin.caps(), caps))

    def test_caps_build_in_small_memory(self):
        grid = sampled_sphere_grid(3, 8192, 4)
        tracemalloc.start()
        try:
            grid.caps()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
