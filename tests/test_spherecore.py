import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from flowerlab.bodies import ConvexBody, Flower, StarBody, rotate_star_2d, unit_ball
from flowerlab.calculus import Partition
from flowerlab.errors import GridMismatchError, InvalidGridError, ParameterError
from flowerlab.inversion import OffOriginBall, OffOriginPolytope
from flowerlab.mixedvol import FlowerCombination
from flowerlab.spherecore import (
    DENSE_BLOCK,
    UNIT_NORM_TOL,
    DirectionGrid,
    Rotation,
    SubspaceBasis,
    angle_between,
    cap_cosines,
    child_seed,
    group_rows,
    quadrature_mean,
    random_rotation,
    random_rotations,
    random_subspace,
    random_subspaces,
    row_blocks,
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


class TestGridValidation:
    @pytest.mark.parametrize("where", ["direction", "weight"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_refused(self, where, bad):
        d, w = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.full(4, 0.25)
        (d[0] if where == "direction" else w)[0] = bad
        with pytest.raises(InvalidGridError, match="finite"):
            DirectionGrid(2, d, w)

    def test_uniform_flag_is_not_a_constructor_option(self):
        # only uniform_angle_grid declares a grid uniform: the uniform-angle kernels assume it
        g = uniform_angle_grid(8)
        with pytest.raises(TypeError):
            DirectionGrid(2, g.directions, g.weights, uniform_n=8)
        assert g.uniform_n == 8 and DirectionGrid(2, g.directions, g.weights).uniform_n is None

    def test_overflowing_norm_is_refused_without_a_warning(self):
        d = np.vstack([np.eye(3), -np.eye(3)])
        d[0, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGridError, match="unit vectors"):
                DirectionGrid(3, d, np.full(6, 1 / 6))

    def test_unit_norm_check_holds_no_grid_sized_temporary(self):
        # the norms of all rows at once held a temporary as large as the grid
        d = np.random.default_rng(3).normal(size=(8192, 256))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            DirectionGrid(256, d, np.full(8192, 1 / 8192))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d.nbytes + 2 * 8 * DENSE_BLOCK

    def test_unit_norm_checked_in_every_block(self):
        d = np.random.default_rng(4).normal(size=(3 * DENSE_BLOCK // 64, 64))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        d[-1] *= 1.0 + 1e-9
        with pytest.raises(InvalidGridError, match="unit vectors"):
            DirectionGrid(64, d, np.full(len(d), 1 / len(d)))


@pytest.mark.parametrize("n, width", [(0, 5), (1, 5), (10, DENSE_BLOCK), (10, 2 * DENSE_BLOCK), (1000, DENSE_BLOCK // 7)])
def test_row_blocks_cover_the_rows_in_order(n, width):
    blocks = row_blocks(n, width)
    step = max(1, DENSE_BLOCK // width)
    assert [i for b in blocks for i in range(n)[b]] == list(range(n))
    assert all(b.stop - b.start == step for b in blocks[:-1]) and all(0 < b.stop - b.start <= step for b in blocks)


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

    @pytest.mark.parametrize("dim", [3, 4])
    def test_rotate_star_2d_refuses_other_dimensions(self, grid720, dim):
        """A rotation of R^3 or R^4 has no one angle; its top-left block would move the body with no error."""
        a = StarBody(grid720, np.exp(0.3 * np.cos(grid720.angles())))
        with pytest.raises(ParameterError, match="2D rotation"):
            rotate_star_2d(a, random_rotation(dim, 1))


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


def _rotation_by_seed(dim, seed):
    """A Haar rotation built alone, as before the frames were stacked."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


def _subspace_by_seed(dim, k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, k)))
    return q.T


class TestStackedFrames:
    """The stacked builders against frames built one seed at a time, bit for bit.

    Equality takes a LAPACK whose QR and LU of a matrix do not depend on the
    other matrices of the stack, as numpy's loop over the stack gives.
    """

    SEEDS = [child_seed(3, i) for i in range(5)]

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_rotations_equal_one_seed_at_a_time(self, dim):
        stack = random_rotations(dim, self.SEEDS)
        assert stack.shape == (5, dim, dim)
        for u, seed in zip(stack, self.SEEDS):
            assert u.tobytes() == _rotation_by_seed(dim, seed).tobytes()
        assert random_rotation(dim, self.SEEDS[0]).matrix.tobytes() == stack[0].tobytes()

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_subspaces_equal_one_seed_at_a_time(self, dim):
        for k in sorted({1, 2, dim // 2, dim}):
            stack = random_subspaces(dim, k, self.SEEDS)
            assert stack.shape == (5, k, dim)
            for frame, seed in zip(stack, self.SEEDS):
                assert np.ascontiguousarray(frame).tobytes() == np.ascontiguousarray(_subspace_by_seed(dim, k, seed)).tobytes()
            assert random_subspace(dim, k, self.SEEDS[0]).frame.tobytes() == np.ascontiguousarray(stack[0]).tobytes()

    @pytest.mark.parametrize("build", [
        lambda: random_rotation(4, 1), lambda: random_rotations(4, [1, 2]),
        lambda: random_subspace(6, 3, 1), lambda: random_subspaces(6, 3, [1, 2]),
    ], ids=["rotation", "rotations", "subspace", "subspaces"])
    def test_scaled_qr_refused(self, monkeypatch, build):
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: (lambda q, r: (q * (1 + 1e-9), r))(*qr(a)))
        with pytest.raises(ParameterError, match="orthogonal|orthonormal"):
            build()

    def test_frame_classes_check_their_own_input(self):
        with pytest.raises(ParameterError, match="not orthogonal"):
            Rotation(2.0 * np.eye(3))
        with pytest.raises(ParameterError, match="not orthonormal"):
            SubspaceBasis(3, 2, [[1.0, 0.0, 0.0], [1.0, 1e-3, 0.0]])


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

    def test_caps_drop_empty_groups(self):
        """65 rays on 5 directions: of the 8 seeded centres only 5 keep rays, and only those are caps."""
        base = sampled_sphere_grid(3, 32, 0).directions[:5]
        caps = DirectionGrid(3, np.repeat(base, 13, axis=0), np.full(65, 1 / 65)).caps()
        assert len(caps.centres) == len(caps.radius) == len(caps.cosines) == 5
        assert np.array_equal(caps.starts, 13 * np.arange(6)) and np.array_equal(caps.order, np.arange(65))
        assert (caps.radius < 1e-15).all()

    @pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
    @pytest.mark.parametrize("dim, n", [(3, 512), (3, 4096), (4, 2048), (8, 2048)])
    def test_group_rows_makes_the_caps_and_bounds_the_facets(self, dim, n, symmetric):
        """The rays grouped under the cap centres are the caps, each as wide as its farthest ray; an ellipsoid's facet normals fall under their nearest centre."""
        grid = sampled_sphere_grid(dim, n, n + dim, symmetric=symmetric)
        caps = grid.caps()
        order, starts = group_rows(grid.directions, caps.centres)
        assert np.array_equal(order, caps.order) and np.array_equal(starts, caps.starts)
        label = np.repeat(np.arange(len(caps.centres)), np.diff(starts))
        angle = angle_between(grid.directions[order], caps.centres[label])
        assert np.array_equal(np.maximum.reduceat(angle, starts[:-1]), caps.radius)
        d = grid.directions[:n if dim < 8 else 48]  # an 8D hull of every ray would have millions of facets
        a = ConvexHull(d / np.linalg.norm(d / np.linspace(1.0, 2.0, dim), axis=1)[:, None]).equations[:, :-1]
        order, starts = group_rows(a, caps.centres)
        assert starts[0] == 0 and starts[-1] == len(a) and (np.diff(starts) >= 0).all()
        assert np.array_equal(np.sort(order), np.arange(len(a)))
        label = np.repeat(np.arange(len(caps.centres)), np.diff(starts))
        assert np.array_equal(label, (a[order] @ caps.centres.T).argmax(axis=1))

    def test_caps_build_in_small_memory(self):
        grid = sampled_sphere_grid(3, 8192, 4)
        tracemalloc.start()
        try:
            grid.caps()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def _assert_cone_bound(order, starts, rays, rows, w, cosines):
    """b_ci = w_i cosines[c, i] >= w_i <p_i, theta_j> for every cap c, every row p_i and every ray theta_j of the cap.

    The products are not clipped at 0: the pruned kernel's floors are at
    least 0, so a row whose bound is negative is skipped rightly too.
    """
    assert cosines.shape == (len(starts) - 1, len(rows))
    for c in range(len(starts) - 1):
        prod = w[:, None] * (rows @ rays[order[starts[c]:starts[c + 1]]].T)
        assert (prod <= (w * cosines[c])[:, None]).all(), c


class TestConeBound:
    """The cone bound of cap_cosines holds for every product, exhaustively."""

    @staticmethod
    def _weights(n, seed):
        w = np.exp(np.random.default_rng(seed).normal(0.0, 0.5, n))
        w[seed % n] = 1e6
        return w

    @pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
    @pytest.mark.parametrize("dim, n", [(dim, n) for n in (512, 2048) for dim in (3, 4, 8)])
    def test_caps_bound_the_rays(self, dim, n, symmetric):
        grid = sampled_sphere_grid(dim, n, 3 * n + dim, symmetric=symmetric)
        caps = grid.caps()
        _assert_cone_bound(caps.order, caps.starts, grid.directions, grid.directions, self._weights(n, dim), caps.cosines)

    @pytest.mark.parametrize("dim", [3, 4, 8])
    def test_rows_off_unit_norm(self, dim):
        """Rays at norms 1 +- UNIT_NORM_TOL, the most a grid takes: the slack covers their products with themselves."""
        d = sampled_sphere_grid(dim, 2048, dim).directions
        d = d * (1.0 + np.where(np.arange(2048) % 2, 0.999, -0.999) * UNIT_NORM_TOL)[:, None]
        grid = DirectionGrid(dim, d, np.full(2048, 1 / 2048))
        caps = grid.caps()
        assert np.abs(np.linalg.norm(grid.directions, axis=1) - 1.0).min() > 0.99 * UNIT_NORM_TOL
        _assert_cone_bound(caps.order, caps.starts, grid.directions, grid.directions, self._weights(2048, 7), caps.cosines)

    @pytest.mark.parametrize("dim", [3, 4, 8])
    def test_one_ray_caps(self, dim):
        """Caps of radius 0, each the single ray at its centre."""
        d = sampled_sphere_grid(dim, 512, dim).directions
        centres = d[::8]
        cosines = cap_cosines(centres, np.zeros(len(centres)), d)
        _assert_cone_bound(np.arange(len(centres)), np.arange(len(centres) + 1), centres, d, self._weights(512, 5), cosines)

    @pytest.mark.parametrize("dim, n", [(3, 512), (3, 2048), (4, 2048), (8, 2048)])
    def test_caps_bound_an_ellipsoids_facet_normals(self, dim, n):
        grid = sampled_sphere_grid(dim, n, n + dim)
        caps = grid.caps()
        d = grid.directions[:n if dim < 8 else 48]  # an 8D hull of every ray would have millions of facets
        a = ConvexHull(d / np.linalg.norm(d / np.linspace(1.0, 2.0, dim), axis=1)[:, None]).equations[:, :-1]
        cosines = cap_cosines(caps.centres, caps.radius, a)
        _assert_cone_bound(caps.order, caps.starts, grid.directions, a, self._weights(len(a), 11), cosines)


# refusals that no other test reaches: (call, error, message)
SPHERECORE_REFUSALS = [
    pytest.param(lambda: sampled_sphere_grid(2, 64, seed=0), InvalidGridError,
                 "sampled grids are for dim >= 3; use uniform_angle_grid in 2D", id="sampled-2d"),
    pytest.param(lambda: sampled_sphere_grid(3, 65, seed=0, symmetric=True), InvalidGridError,
                 "symmetric grid needs even n", id="symmetric-odd"),
    pytest.param(lambda: random_rotations(1, [0]), ParameterError, "rotation needs dim >= 2", id="rotations-dim"),
    pytest.param(lambda: DirectionGrid(1, np.ones((2, 1)), np.full(2, 0.5)), InvalidGridError,
                 "grid dimension must be >= 2, got 1", id="grid-dim"),
    pytest.param(lambda: DirectionGrid(2, np.eye(2), np.full(3, 1 / 3)), InvalidGridError,
                 "directions/weights shape mismatch", id="grid-shape"),
    pytest.param(lambda: sampled_sphere_grid(3, 64, seed=0).angles(), InvalidGridError,
                 "angles only defined for 2D grids", id="angles-3d"),
    pytest.param(lambda: Rotation(np.ones((2, 3))), ParameterError, "rotation matrix must be square",
                 id="rotation-square"),
    pytest.param(lambda: SubspaceBasis(3, 4, np.eye(3)), ParameterError, "k=4 out of range for ambient dim 3",
                 id="subspace-k"),
    pytest.param(lambda: SubspaceBasis(3, 2, np.eye(3)), ParameterError, "frame shape mismatch", id="subspace-shape"),
]


@pytest.mark.parametrize("call, error, message", SPHERECORE_REFUSALS)
def test_refusal(assert_refusal, call, error, message):
    assert_refusal(call, error, message)
