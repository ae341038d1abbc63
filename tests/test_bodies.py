import functools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from flowerlab._sampleops import (
    EPS_FLOOR,
    _hull_radial_qhull,
    hull_radial,
    is_convex_position,
    radial_of_halfspaces,
    support_of_cloud,
)
from flowerlab.bodies import (
    ConvexBody,
    Flower,
    StarBody,
    alexandrov,
    cof,
    convex_hull_radial,
    convexify_support,
    core_of,
    flower_from_petals,
    flower_of,
    grid_tol,
    is_flower,
    is_support_consistent,
    minkowski_sum_2d,
    petal_radial,
    polar,
    polytope_body,
    radial_of_halfspace_body,
    radial_sum,
    random_convex_body,
    regular_polygon_vertices,
    scale_star,
    square_body,
    sup_log_distance,
    unit_ball,
    volume,
)
from flowerlab.errors import (
    CertificationRequiredError,
    DegenerateInputError,
    NotAFlowerError,
    ParameterError,
)
from flowerlab.spherecore import uniform_angle_grid

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestPetalRadial:
    def test_diameter_endpoint(self):
        assert petal_radial(E1, E1) == 1.0

    def test_tangent_at_origin(self):
        assert petal_radial(E1, E2) == 0.0

    def test_sixty_degrees(self):
        # circle-line oracle: |t theta - x/2| = |x|/2 gives t = <x, theta>
        theta = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])
        t = petal_radial(E1, theta)
        assert t == pytest.approx(0.5, abs=1e-15)
        assert np.linalg.norm(t * theta - E1 / 2) == pytest.approx(0.5, abs=1e-15)

    def test_zero_point_rejected(self):
        with pytest.raises(DegenerateInputError):
            petal_radial(np.zeros(2), E1)


class TestFlowerFromPetals:
    def test_single_petal(self, grid720):
        f = flower_from_petals([E1], grid720)
        expected = np.maximum(np.maximum(grid720.directions[:, 0], 0.0), EPS_FLOOR)
        assert np.array_equal(f.radial, expected)

    def test_two_opposite_petals(self, grid720):
        f = flower_from_petals([E1, -E1], grid720)
        assert np.abs(f.radial - np.abs(grid720.directions[:, 0])).max() <= EPS_FLOOR

    def test_pointwise_max(self, grid720):
        f = flower_from_petals([E1, E2], grid720)
        d = grid720.directions
        expected = np.maximum(np.maximum(d[:, 0], 0.0), np.maximum(d[:, 1], 0.0))
        assert np.abs(f.radial - np.maximum(expected, EPS_FLOOR)).max() == 0.0

    def test_all_zero_rejected(self, grid720):
        with pytest.raises(DegenerateInputError):
            flower_from_petals([np.zeros(2)], grid720)


class TestFlowerCore:
    def test_ball_is_its_own_flower(self, grid720):
        f = flower_of(unit_ball(grid720))
        assert np.all(f.radial == 1.0)

    def test_segment_gives_petal(self, grid720):
        seg = polytope_body(grid720, [[0.0, 0.0], [1.0, 0.0]])
        f = flower_of(seg)
        petal = flower_from_petals([E1], grid720)
        assert np.abs(f.radial - petal.radial).max() == 0.0

    def test_square_flower_radial(self, grid720):
        f = flower_of(square_body(grid720))
        d = grid720.directions
        assert np.abs(f.radial - (np.abs(d[:, 0]) + np.abs(d[:, 1]))).max() < 1e-15

    def test_uncertified_rejected(self, grid720):
        k = ConvexBody(grid720, np.ones(720), certified=False)
        with pytest.raises(CertificationRequiredError):
            flower_of(k)

    def test_core_of_inverts_flower_of(self, grid720):
        for seed in range(5):
            k = random_convex_body(grid720, seed)
            k2 = core_of(flower_of(k))
            assert np.array_equal(k2.support, k.support)

    def test_core_of_petal_union_is_hull_with_origin(self, grid720):
        # 2D hull oracle: conv({0, e1, e2}) has support max(0, cos, sin)
        k = core_of(flower_from_petals([E1, E2], grid720))
        d = grid720.directions
        oracle = np.maximum(np.maximum(d[:, 0], d[:, 1]), 0.0)
        assert np.abs(k.support - np.maximum(oracle, EPS_FLOOR)).max() <= 1e-12

    def test_core_of_rejects_non_flower(self, grid720):
        d = grid720.directions
        cross = StarBody(grid720, 1.0 / (np.abs(d[:, 0]) + np.abs(d[:, 1])))
        with pytest.raises(NotAFlowerError):
            core_of(Flower(cross))


class TestCof:
    def test_reciprocal(self, grid720):
        a = StarBody(grid720, np.full(720, 2.0))
        assert np.all(cof(a).radial == 0.5)

    def test_involution_exact(self, grid720):
        for seed in range(5):
            k = random_convex_body(grid720, seed)
            a = StarBody(grid720, k.support)
            back = cof(cof(a))
            assert np.abs(back.radial / a.radial - 1.0).max() < 1e-14

    def test_cof_of_flower_is_polar_radial(self, grid720):
        k = random_convex_body(grid720, 3)
        t = cof(flower_of(k).body)
        assert np.all(t.radial * k.support == pytest.approx(1.0, abs=1e-12))
        # matches the polar body's radial samples
        p = polar(k)
        assert np.abs(p.radial() - t.radial).max() < 1e-12


class TestPolar:
    def test_ball(self, grid720):
        assert np.abs(polar(unit_ball(grid720)).support - 1.0).max() < 1e-15

    def test_square_gives_cross_polytope(self, grid720):
        p = polar(square_body(grid720))
        d = grid720.directions
        assert np.abs(p.support - np.maximum(np.abs(d[:, 0]), np.abs(d[:, 1]))).max() < 1e-12

    def test_bipolar_roundtrip(self, grid720):
        # certified bodies are fixed points of the closure, so bipolar is exact
        for seed in range(5):
            k = random_convex_body(grid720, seed + 50)
            kk = polar(polar(k))
            assert np.abs(kk.support - k.support).max() < 1e-12


class TestConvexify:
    def test_ball(self, grid720):
        s = StarBody(grid720, np.ones(720))
        assert np.abs(convexify_support(s).support - 1.0).max() < 1e-15

    def test_petal_star_hulls_to_disk(self, grid720):
        # support-of-disk oracle: B(e1/2, 1/2) has h = <c, theta> + rho
        r = np.maximum(np.maximum(grid720.directions[:, 0], 0.0), EPS_FLOOR)
        h = convexify_support(StarBody(grid720, r)).support
        oracle = 0.5 * grid720.directions[:, 0] + 0.5
        assert np.abs(h - oracle).max() < 1e-4  # petal floor + grid discretization

    def test_spike_union_ball(self, grid720):
        # point-cloud hull oracle: {2 e1} union B hulls to support max(1, 2 cos_+)
        r = np.ones(720)
        r[0] = 2.0
        h = convexify_support(StarBody(grid720, r)).support
        oracle = np.maximum(1.0, 2.0 * np.maximum(grid720.directions[:, 0], 0.0))
        assert np.abs(h - oracle).max() < 2e-4


class TestHalfspaceBody:
    def test_unit_bounds_give_ball(self, grid720):
        s = radial_of_halfspace_body(np.ones(720), grid720)
        assert np.abs(s.radial - 1.0).max() < 1e-12

    def test_square_support_recovers_square_radial(self, grid720):
        k = square_body(grid720)
        th = grid720.angles()
        # exact polygon radial: half-width over the max coordinate magnitude
        oracle = 1.0 / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))
        assert np.abs(k.radial() - oracle).max() < 1e-12

    def test_single_extra_halfspace(self, grid720):
        g = np.ones(720)
        g[0] = 0.5
        s = radial_of_halfspace_body(g, grid720)
        d = grid720.directions
        oracle = np.minimum(1.0, np.where(d[:, 0] > 0, 0.5 / d[:, 0], np.inf))
        assert np.abs(s.radial - oracle).max() < 1e-12


class TestAlexandrov:
    def test_unit_bounds(self, grid720):
        assert np.abs(alexandrov(np.ones(720), grid720).support - 1.0).max() == 0.0

    def test_support_of_certified_body_is_fixed(self, grid720):
        k = random_convex_body(grid720, 9)
        a = alexandrov(k.support, grid720)
        assert np.abs(a.support - k.support).max() < 1e-12

    def test_below_bounds_and_maximal(self, grid720):
        # brute-force oracle: dense half-space intersection evaluated on an
        # oversampled direction fan, then support of that point cloud
        rng = np.random.default_rng(4)
        th = grid720.angles()
        g = np.exp(0.2 * np.cos(th)) * (1.0 - 0.6 * np.exp(-((th - np.pi) ** 2) / 0.01))
        a = alexandrov(g, grid720)
        assert np.all(a.support <= g + 1e-12)

        fine = uniform_angle_grid(2880)
        # radial of the same half-space intersection on a 4x finer fan, then
        # its support: the true support of the polygon A[g]
        dots = np.maximum(fine.directions @ grid720.directions.T, 0.0)  # (fine, coarse)
        with np.errstate(divide="ignore"):
            ratios = np.where(dots > 0, g[None, :] / dots, np.inf)
        r_fine = ratios.min(axis=1)
        cloud = r_fine[:, None] * fine.directions
        oracle = (cloud @ grid720.directions.T).max(axis=0)
        # inner representation: below the true support, above it minus the
        # discretization gap (the dip concentrates curvature)
        assert np.all(a.support <= oracle + 1e-12)
        assert np.abs(a.support - oracle).max() < 5e-3


class TestIsFlower:
    def test_ball(self, grid720):
        assert is_flower(StarBody(grid720, np.ones(720))).ok

    def test_cross_polytope_fails(self, grid720):
        # certificate oracle: the homogeneous extension (x^2+y^2)/(|x|+|y|)
        # dips below its chords, so B_1^2 is not a flower
        d = grid720.directions
        rep = is_flower(StarBody(grid720, 1.0 / (np.abs(d[:, 0]) + np.abs(d[:, 1]))))
        assert not rep.ok
        assert rep.violation > 0.1

    def test_flower_of_any_certified_body(self, grid720):
        for seed in range(10):
            rep = is_flower(flower_of(random_convex_body(grid720, seed + 100)))
            assert rep.ok and rep.violation < 1e-9

    def test_hull_of_flower_is_flower(self, grid720):
        f = flower_from_petals([E1, 0.7 * E2, [-0.5, -0.8]], grid720)
        hull = convex_hull_radial(f)
        assert is_flower(hull, tol=grid_tol(grid720)).ok


class TestVolume:
    def test_unit_disk(self, grid720):
        assert volume(unit_ball(grid720)) == pytest.approx(np.pi, abs=1e-9)

    def test_petal_disk(self, grid720):
        f = flower_from_petals([E1], grid720)
        assert volume(f) == pytest.approx(np.pi / 4, abs=1e-6)

    def test_square(self, grid4096):
        assert volume(square_body(grid4096)) == pytest.approx(4.0, abs=1e-4)

    def test_dilation_scaling(self, grid720):
        a = StarBody(grid720, np.exp(0.2 * np.cos(grid720.angles())))
        assert volume(scale_star(a, 3.0)) == pytest.approx(9.0 * volume(a), rel=1e-12)

    def test_monotone_under_domination(self, grid720):
        a = StarBody(grid720, np.ones(720))
        b = StarBody(grid720, 1.0 + 0.3 * np.maximum(np.cos(grid720.angles()), 0.0))
        assert volume(b) >= volume(a)


class TestSums:
    def test_radial_sum_of_balls(self, grid720):
        f = flower_of(unit_ball(grid720))
        assert np.all(radial_sum(f, f).radial == 2.0)

    def test_radial_sum_matches_minkowski_core(self, grid720):
        # h is Minkowski-additive, so flower radials add exactly on samples
        k1 = random_convex_body(grid720, 0)
        k2 = random_convex_body(grid720, 1)
        ksum = ConvexBody(grid720, k1.support + k2.support, certified=True)
        f = radial_sum(flower_of(k1), flower_of(k2))
        assert np.array_equal(f.radial, flower_of(ksum).radial)

    def test_minkowski_sum_of_petals_is_flower(self, grid720):
        f1 = flower_from_petals([E1], grid720)
        f2 = flower_from_petals([E2], grid720)
        s = minkowski_sum_2d(f1, f2)
        assert is_flower(s, tol=grid_tol(grid720)).ok
        # dense-sampling oracle: the sum of the two petal disks is the disk
        # B((e1+e2)/2, 1); sample its boundary and interpolate radius vs angle
        phi = np.linspace(0, 2 * np.pi, 20000, endpoint=False)
        bound = 0.5 + np.stack([np.cos(phi), np.sin(phi)], axis=1) * 1.0
        ang = np.mod(np.arctan2(bound[:, 1], bound[:, 0]), 2 * np.pi)
        rad = np.hypot(bound[:, 0], bound[:, 1])
        order = np.argsort(ang)
        oracle = np.interp(grid720.angles(), ang[order], rad[order], period=2 * np.pi)
        assert np.abs(s.radial - oracle).max() < 1e-6

    def test_sum_preserves_certificate_at_grid_tol(self, grid720):
        f1 = flower_of(random_convex_body(grid720, 11))
        f2 = flower_of(random_convex_body(grid720, 12))
        assert is_flower(radial_sum(f1, f2), tol=grid_tol(grid720)).ok


class TestSandwich:
    def test_inner_below_outer(self, grid720):
        # convexify_support <= true support <= half-space support for star bodies
        th = grid720.angles()
        s = StarBody(grid720, np.exp(0.25 * np.sin(2 * th)))
        inner = convexify_support(s).support
        outer = support_of_cloud(grid720, radial_of_halfspaces(grid720, inner))
        assert np.all(inner <= outer + 1e-12)
        assert np.all(radial_of_halfspaces(grid720, inner) >= s.radial - 1e-9)

    def test_gap_quarters_when_grid_doubles(self):
        # ellipse x^2/4 + y^2 = 1; true support sqrt(4 cos^2 + sin^2)
        gaps = []
        for n in (360, 720, 1440):
            g = uniform_angle_grid(n)
            th = g.angles()
            r = 1.0 / np.sqrt(np.cos(th) ** 2 / 4 + np.sin(th) ** 2)
            h_true = np.sqrt(4 * np.cos(th) ** 2 + np.sin(th) ** 2)
            inner = support_of_cloud(g, r)
            gaps.append(np.abs(h_true - inner).max())
        assert 3.0 < gaps[0] / gaps[1] < 5.0
        assert 3.0 < gaps[1] / gaps[2] < 5.0


class TestCertificateProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_closure_deflates_and_is_idempotent(self, seed):
        g = uniform_angle_grid(64)
        rng = np.random.default_rng(seed)
        h = np.exp(rng.normal(0, 0.4, size=64))
        closed = support_of_cloud(g, radial_of_halfspaces(g, h))
        assert np.all(closed <= h + 1e-12)
        twice = support_of_cloud(g, radial_of_halfspaces(g, closed))
        assert np.abs(twice - closed).max() < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_galois_adjunction(self, seed):
        # C(w) <= g iff w <= D(g) on random sample vectors
        g = uniform_angle_grid(64)
        rng = np.random.default_rng(seed)
        w = np.exp(rng.normal(0, 0.4, size=64))
        bounds = np.exp(rng.normal(0.5, 0.4, size=64))
        lhs = bool(np.all(support_of_cloud(g, w) <= bounds * (1 + 1e-12)))
        rhs = bool(np.all(w <= radial_of_halfspaces(g, bounds) * (1 + 1e-12)))
        assert lhs == rhs

    def test_support_consistency_matches_is_flower(self, grid720):
        k = random_convex_body(grid720, 77)
        assert is_support_consistent(grid720, k.support).ok
        assert is_flower(StarBody(grid720, k.support)).ok


class TestRegularPolygons:
    def test_pentagon_vertices_on_circle(self):
        v = regular_polygon_vertices(5, circumradius=2.0)
        assert np.abs(np.linalg.norm(v, axis=1) - 2.0).max() < 1e-12

    def test_polygon_body_is_certified_fixed_point(self, grid720):
        k = polytope_body(grid720, regular_polygon_vertices(6))
        assert is_support_consistent(grid720, k.support).ok


def test_strictly_positive_radial_required(grid720):
    with pytest.raises(DegenerateInputError):
        StarBody(grid720, np.zeros(720))


def test_sup_log_distance_symmetric():
    a, b = np.array([1.0, 2.0]), np.array([2.0, 1.0])
    assert sup_log_distance(a, b) == pytest.approx(np.log(2))
    assert sup_log_distance(a, a) == 0.0


class TestReflection:
    def test_reflect_is_exact_permutation(self, grid720):
        th = grid720.angles()
        a = StarBody(grid720, np.exp(0.3 * np.sin(th) + 0.1 * np.cos(2 * th)))
        from flowerlab.bodies import reflect_star_2d

        b = reflect_star_2d(a)
        assert np.array_equal(b.radial, a.radial[(-np.arange(720)) % 720])
        assert np.array_equal(reflect_star_2d(b).radial, a.radial)


class TestMinkowskiErrors:
    def test_grid_mismatch(self, grid720, grid256):
        from flowerlab.errors import GridMismatchError

        f1 = flower_from_petals([[1.0, 0.0]], grid720)
        f2 = flower_from_petals([[0.0, 1.0]], grid256)
        with pytest.raises(GridMismatchError):
            minkowski_sum_2d(f1, f2)

    def test_missing_petals(self, grid720):
        from flowerlab.errors import ParameterError

        f1 = flower_from_petals([[1.0, 0.0]], grid720)
        f2 = Flower(StarBody(grid720, np.ones(720)))
        with pytest.raises(ParameterError):
            minkowski_sum_2d(f1, f2)


class TestExplicitDirectionsGrid:
    def test_end_to_end_on_unsorted_2d_directions(self):
        # grids loaded from body files may list directions in arbitrary order;
        # the engine must not rely on angular sorting there
        from flowerlab.bodies import polar
        from flowerlab.spherecore import DirectionGrid

        rng = np.random.default_rng(3)
        th = np.sort(rng.uniform(0, 2 * np.pi, size=256))
        perm = rng.permutation(256)
        th = th[perm]
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        g = DirectionGrid(2, dirs, np.full(256, 1 / 256))
        h = support_of_cloud(g, np.exp(0.2 * np.sin(2 * th)))
        k = ConvexBody(g, h, certified=True)
        assert is_support_consistent(g, h).ok
        assert np.abs(polar(polar(k)).support - h).max() < 1e-12
        f = flower_of(k)
        assert is_flower(f).ok
        hull = convex_hull_radial(f)
        assert np.all(hull.radial >= f.radial - 1e-12)

    def test_rotation_resampling_on_unsorted_grid(self):
        from flowerlab.bodies import rotate_star_2d
        from flowerlab.spherecore import DirectionGrid

        rng = np.random.default_rng(5)
        th = rng.permutation(np.linspace(0, 2 * np.pi, 128, endpoint=False))
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        g = DirectionGrid(2, dirs, np.full(128, 1 / 128))
        a = StarBody(g, np.exp(0.3 * np.cos(th)))
        rot = rotate_star_2d(rotate_star_2d(a, 0.7), -0.7)
        assert np.abs(rot.radial - a.radial).max() < 5e-3


@functools.cache
def _uniform_grid(n):
    from flowerlab.spherecore import uniform_angle_grid

    return uniform_angle_grid(n)


def _hull_test_cloud(kind, n, rs):
    """One seeded radial cloud of the given kind on the uniform n-grid."""
    rng = np.random.default_rng(rs)
    g = _uniform_grid(n)
    th = g.angles()
    if kind == "lognormal":
        w = np.exp(rng.normal(0.0, rng.uniform(0.05, 1.5), n))
    elif kind == "body-power":
        w = random_convex_body(g, rs, amp=0.3, kmax=5).radial() ** rng.uniform(1.5, 8.0)
    elif kind == "polygon":
        # exact regular k-gon radial: consecutive samples are collinear
        k = int(rng.integers(3, 9))
        step = 2 * np.pi / k
        phase = 0.0 if rng.integers(2) else rng.uniform(0.0, step)
        w = np.cos(np.pi / k) / np.cos((th - phase) % step - np.pi / k)
    else:  # "floor": floored samples, a contiguous run of them spanning < pi
        w = np.exp(rng.normal(0.0, 0.5, n))
        start, run = int(rng.integers(n)), int(rng.integers(1, max(2, n // 3)))
        w[(start + np.arange(run)) % n] = EPS_FLOOR
        w[rng.integers(n, size=max(1, n // 50))] = EPS_FLOOR
    return g, w


class TestHullKernel:
    """The 2D Graham kernel of hull_radial against the qhull oracle."""

    @seed(20240817)
    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["lognormal", "body-power", "polygon", "floor"]),
        n=st.sampled_from([8, 9, 720, 2048]),
        rs=st.integers(0, 10 ** 6),
    )
    def test_matches_qhull(self, kind, n, rs):
        g, w = _hull_test_cloud(kind, n, rs)
        out = hull_radial(g, w)
        pts = w[:, None] * g.directions
        ref = np.maximum(_hull_radial_qhull(g.directions, pts), w)
        assert np.all(out >= w)
        assert np.abs(out / ref - 1.0).max() <= 1e-12
        if is_convex_position(pts):
            assert out is w

    @pytest.mark.parametrize("n", [8, 9, 720, 2048])
    def test_convex_position_passes_through(self, n):
        g = _uniform_grid(n)
        th = g.angles()
        w = 1.0 / np.sqrt((np.cos(th) / 2.0) ** 2 + np.sin(th) ** 2)  # ellipse radial
        assert is_convex_position(w[:, None] * g.directions)
        assert hull_radial(g, w) is w

    def test_flat_cloud_is_degenerate_input(self):
        from flowerlab.spherecore import sampled_sphere_grid

        dirs = sampled_sphere_grid(3, 64, seed=1).directions
        pts = dirs.copy()
        pts[:, 2] = 0.0
        with pytest.raises(DegenerateInputError):
            _hull_radial_qhull(dirs, pts)
