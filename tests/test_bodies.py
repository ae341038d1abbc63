import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import flowerlab._sampleops as sampleops
from flowerlab._sampleops import (
    DENSE_BLOCK,
    EPS_FLOOR,
    MAX_SPAN_EXP,
    _ball_union_radial,
    _hull_radial_qhull,
    _support_blocked,
    _support_pruned,
    certificate_violation,
    closure,
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
from flowerlab.calculus import power
from flowerlab.errors import (
    CertificationRequiredError,
    DegenerateInputError,
    GridMismatchError,
    NotAFlowerError,
    ParameterError,
)
from flowerlab.spherecore import Caps, DirectionGrid, angle_between, sampled_sphere_grid, uniform_angle_grid

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def grid_tol(grid: DirectionGrid) -> float:
    """Discretization-level certificate tolerance (~5e-4 at N=720, O(1/N^2)).

    Calibrated to the closure gap of hulls and Minkowski sums, whose vertices
    fall between grid rays.
    """
    if grid.dim == 2:
        return 6.0 * (2 * np.pi / grid.size) ** 2
    return 4.0 / np.sqrt(grid.size)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, r", [([1e-170, 0.0], 1e-170), ([1e200, 1e200], 1e200)], ids=["tiny", "huge"])
    def test_extreme_points_are_petals(self, x, r):
        # a zero test by the norm squared the point: 1e-170 read as zero and 1e200 overflowed
        assert petal_radial(x, E1) == r


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

    def test_flower_is_a_star_body_that_checks_its_samples(self, grid720):
        f = flower_of(square_body(grid720))
        assert isinstance(f, StarBody) and f.petals is None
        with pytest.raises(DegenerateInputError):
            Flower(grid720, np.zeros(720))
        with pytest.raises(GridMismatchError):
            Flower(grid720, np.ones(719), petals=[E1])

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
        cross = Flower(grid720, 1.0 / (np.abs(d[:, 0]) + np.abs(d[:, 1])))
        with pytest.raises(NotAFlowerError):
            core_of(cross)


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
        t = cof(flower_of(k))
        assert np.all(t.radial * k.support == pytest.approx(1.0, abs=1e-12))
        # matches the polar body's radial samples
        p = polar(k)
        assert np.abs(p.radial() - t.radial).max() < 1e-12


POLAR_GRIDS = ["uniform-720", "uniform-2048", "uniform-8192", "directions-500", "sphere3-4096", "sphere4-1024"]


@functools.cache
def _polar_bodies(kind):
    """Three certified bodies on the grid named by kind."""
    if kind.startswith("uniform"):
        g = _uniform_grid(int(kind.split("-")[1]))
        return [random_convex_body(g, seed) for seed in range(3)]
    if kind == "directions-500":
        th = np.sort(np.random.default_rng(7).uniform(0, 2 * np.pi, 500))
        g = DirectionGrid(2, np.stack([np.cos(th), np.sin(th)], axis=1), np.full(500, 1 / 500))
    else:
        dim, n = int(kind[6]), int(kind.split("-")[1])
        g = sampled_sphere_grid(dim, n, seed=dim + n)
    rngs = [np.random.default_rng(seed) for seed in range(3)]
    return [ConvexBody(g, support_of_cloud(g, np.exp(rng.normal(0.0, 0.3, g.size))), certified=True) for rng in rngs]


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

    @pytest.mark.parametrize("kind", POLAR_GRIDS)
    def test_is_one_cloud_support(self, kind, monkeypatch):
        import flowerlab.bodies as bodies_mod

        calls = {"C": 0, "cert": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bodies_mod, "support_of_cloud", counted("C", support_of_cloud))
        monkeypatch.setattr(bodies_mod, "certificate_violation", counted("cert", certificate_violation))
        for k in _polar_bodies(kind):
            calls.update(C=0, cert=0)
            p = polar(k)
            assert calls == {"C": 1, "cert": 0}
            assert p.certified
            assert p.support.tobytes() == support_of_cloud(k.grid, 1.0 / k.support).tobytes()

    @pytest.mark.parametrize("kind", POLAR_GRIDS)
    def test_output_passes_certificate_at_every_scale(self, kind):
        """The C/D identity D(g) = 1/C(1/g) certifies every output of C.

        So polar's output, one C call, passes C(D(h)) == h to within a few ulp
        of max(h) at any scale of the input: the absolute certificate tolerance
        would refuse tiny outputs that are exact to the last place.
        """
        for k in _polar_bodies(kind):
            for scale in (2.0 ** -40, 1e-9, 1.0, 1e6, 2.0 ** 40):
                h = polar(ConvexBody(k.grid, scale * k.support, certified=True)).support
                assert certificate_violation(k.grid, h) <= 4 * np.spacing(h.max())

    def test_tiny_body(self):
        # the output's certificate gap, 4.768e-07, is above the absolute
        # tolerance 1e-9 but only 1 ulp of its largest sample, 2.7e9
        k = random_convex_body(uniform_angle_grid(720), 3)
        tiny = ConvexBody(k.grid, 1e-9 * k.support, certified=True)
        assert np.abs(polar(polar(tiny)).support / tiny.support - 1.0).max() < 1e-12


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

    @pytest.mark.parametrize("make", [alexandrov, radial_of_halfspace_body])
    @pytest.mark.parametrize(
        "bad, error",
        [(np.ones(719), GridMismatchError), (np.zeros(720), DegenerateInputError),
         (np.full(720, np.inf), DegenerateInputError), (np.full(720, np.nan), DegenerateInputError)],
    )
    def test_bounds_validated(self, grid720, make, bad, error):
        with pytest.raises(error):
            make(bad, grid720)


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

    def test_negative_tol_rejected(self, grid720):
        # a negative tolerance would fail every certificate, a violation of 0.0 included
        assert is_support_consistent(grid720, np.ones(720), tol=0.0) == (True, 0.0)
        with pytest.raises(ParameterError, match="tol must be non-negative"):
            is_support_consistent(grid720, np.ones(720), tol=-1.0)

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150, 1e300])
    def test_scaled_bodies_give_their_volume_or_a_refusal(self, dim, scale):
        """A volume in the floats comes out finite and scaled by scale^dim; one outside is refused, with no warning."""
        g = uniform_angle_grid(720) if dim == 2 else sampled_sphere_grid(3, 512, seed=4)
        k = random_convex_body(g, 3) if dim == 2 else convexify_support(StarBody(g, np.exp(0.2 * np.cos(g.directions[:, 0]))))
        base = volume(k)
        scaled = ConvexBody(g, scale * k.support, certified=True)
        if -307 < math.log10(base) + dim * math.log10(scale) < 308:
            got = volume(scaled)
            assert got == pytest.approx(base * scale ** dim, rel=1e-12)
        else:
            with pytest.raises(DegenerateInputError, match="volume leaves the floats"):
                volume(scaled)

    def test_in_range_volume_is_the_plain_formula(self, grid720):
        k = random_convex_body(grid720, 5)
        r = k.radial()
        assert volume(k) == math.pi * float(grid720.weights @ r ** 2)


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

    @pytest.mark.parametrize("n", [720, 8192])
    def test_minkowski_sum_of_random_petals_is_the_ball_union(self, n):
        # 17 of these 20 pairs used to be refused: the grid certificate of an
        # off-ray ball union carries slack up to 1.7e-2 here, though every
        # sample is exact
        g = uniform_angle_grid(n)
        rng = np.random.default_rng(0)
        for _ in range(20):
            p1, p2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
            s = minkowski_sum_2d(flower_from_petals(p1, g), flower_from_petals(p2, g))
            cx = (p1[:, None, :] + p2[None, :, :]).reshape(-1, 2) / 2.0
            rho = np.add.outer(np.linalg.norm(p1, axis=1), np.linalg.norm(p2, axis=1)).reshape(-1) / 2.0
            assert s.radial.tobytes() == np.maximum(_dense_ball_union(cx, rho, g.directions), EPS_FLOOR).tobytes()

    def test_grids_differing_only_in_weights_mismatch(self):
        g = uniform_angle_grid(8)
        w = np.arange(1.0, 9.0)
        reweighted = DirectionGrid(2, g.directions, w / w.sum())
        with pytest.raises(GridMismatchError):
            radial_sum(Flower(g, np.ones(8)), Flower(reweighted, np.ones(8)))

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


def _constructor_outputs(g, rng):
    """Convex bodies from every library constructor, polytopes with vertices off the grid rays included."""
    r = np.exp(0.3 * rng.normal(size=g.size))
    out = [unit_ball(g, 1.7), polytope_body(g, rng.normal(size=(12, g.dim))), alexandrov(r, g),
           convexify_support(StarBody(g, r))]
    if g.dim == 2:
        out += [square_body(g), square_body(g, 2.5), random_convex_body(g, 5),
                polytope_body(g, [[3.0, 1.0], [-3.0, 1.0], [-3.0, -1.0], [3.0, -1.0]])]
        out += [polytope_body(g, regular_polygon_vertices(m, 1.3, rng.uniform(0.0, 2 * np.pi))) for m in (3, 4, 5, 7)]
    out.append(polar(out[2]))
    return out


class TestConstructorsCertifyOnlyWhatPasses:
    """A certified body's samples pass the certificate, so core_of(flower_of(k)) holds for every certified k."""

    @pytest.mark.parametrize("grid", [720, 722, "3d"])
    def test_certified_outputs_pass_the_certificate(self, grid):
        g = sampled_sphere_grid(3, 2048, seed=0) if grid == "3d" else uniform_angle_grid(grid)
        for k in _constructor_outputs(g, np.random.default_rng(7)):
            if k.certified:
                assert is_support_consistent(g, k.support).ok
                assert np.array_equal(core_of(flower_of(k)).support, k.support)

    def test_square_without_corner_rays_is_not_certified(self):
        # no ray of the 722-grid meets a corner of the square: violation 4.1e-3
        k = square_body(uniform_angle_grid(722))
        assert not k.certified
        with pytest.raises(CertificationRequiredError):
            flower_of(k)


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
        f2 = Flower(grid720, np.ones(720))
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
        ref = np.maximum(_hull_radial_qhull(g, pts), w)
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
        g = sampled_sphere_grid(3, 64, seed=1)
        pts = g.directions.copy()
        pts[:, 2] = 0.0
        with pytest.raises(DegenerateInputError):
            _hull_radial_qhull(g, pts)


def _ratio_min_hull_radial(dirs, pts):
    """The ND hull radial before it became D over the facets: min over facets of -b / <a, theta>.

    Evaluated a block of rays at a time so the facets x rays temporaries stay
    small; each ray's ratios and minimum are those of the one dense product.
    """
    hull = ConvexHull(pts)
    a, b = hull.equations[:, :-1], hull.equations[:, -1]
    out = np.empty(len(dirs))
    step = max(1, DENSE_BLOCK // len(a))
    for j in range(0, len(dirs), step):
        ad = a @ dirs[j:j + step].T
        with np.errstate(divide="ignore"):
            out[j:j + step] = np.where(ad > 1e-15, -b[:, None] / ad, np.inf).min(axis=0)
    return out


def _hemisphere_grid():
    d = np.random.default_rng(4).normal(size=(256, 3))
    d[:, 2] = np.abs(d[:, 2]) + 0.05
    return DirectionGrid(3, d / np.linalg.norm(d, axis=1, keepdims=True), np.full(256, 1.0 / 256))


class TestNDHullRadial:
    """hull_radial off the uniform 2D grids: D over qhull's facets through C's blocked kernel."""

    @pytest.mark.parametrize("dim, n", [(3, 64), (3, 512), (3, 4096), (4, 64), (4, 512), (4, 2048), (8, 64), (8, 128)])
    def test_within_4_ulp_of_ratio_min(self, dim, n):
        g = sampled_sphere_grid(dim, n, seed=n + dim)
        rng = np.random.default_rng(n * dim)
        # lognormal clouds from nearly round (most rays hull vertices) to
        # spiky (few), and a power step of a 40-vertex polytope
        clouds = [np.exp(rng.normal(0.0, s, n)) for s in (0.05, 0.5, 2.0)]
        clouds.append(polytope_body(g, rng.normal(size=(40, dim))).radial() ** 0.917)
        for w in clouds:
            out = hull_radial(g, w)
            assert np.all(out >= w)
            assert _ulps(out, np.maximum(_ratio_min_hull_radial(g.directions, w[:, None] * g.directions), w)) <= 4

    def test_2d_directions_grid_within_4_ulp_of_ratio_min(self):
        th = np.random.default_rng(3).uniform(0.0, 2 * np.pi, 300)
        d = np.stack([np.cos(th), np.sin(th)], axis=1)
        g = DirectionGrid(2, d, np.full(300, 1.0 / 300))
        for s in (0.05, 0.5, 2.0):
            w = np.exp(np.random.default_rng(5).normal(0.0, s, 300))
            out = hull_radial(g, w)
            assert np.all(out >= w)
            assert _ulps(out, np.maximum(_ratio_min_hull_radial(d, w[:, None] * d), w)) <= 4

    def test_holds_no_facets_by_rays_product(self):
        # the ratio-min scan held three facets x rays temporaries: about 800 MiB here
        g = sampled_sphere_grid(3, 4096, seed=2)
        w = np.ones(4096)  # every point a vertex: about 8200 facets
        tracemalloc.start()
        try:
            hull_radial(g, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_hull_without_the_origin_is_refused(self):
        # every cloud on one open hemisphere has a facet between it and the
        # origin; its negative ratios used to be clipped to w silently
        g = _hemisphere_grid()
        with pytest.raises(DegenerateInputError, match="origin strictly inside"):
            hull_radial(g, np.ones(g.size))
        with pytest.raises(DegenerateInputError, match="origin strictly inside"):
            power(unit_ball(g), 2.0)


@functools.lru_cache(maxsize=None)
def _fma_gram_plus(n):
    """The clipped Gram of the uniform n-grid from batched 1x2 @ 2x1 products, which round like C's."""
    d = _uniform_grid(n).directions
    i, j = np.divmod(np.arange(n * n), n)
    return np.maximum((d[i][:, None, :] @ d[j][:, :, None])[:, 0, 0].reshape(n, n), 0.0)


@functools.lru_cache(maxsize=None)
def _blas_gram_plus(n):
    """The clipped Gram of the uniform n-grid as one BLAS product."""
    d = _uniform_grid(n).directions
    return np.maximum(d @ d.T, 0.0)


def _dense_c(g, w):
    """The dense max over the Gram: C's oracle.

    C rounds every <theta_i, theta_j> like a BLAS dot with FMA.  The BLAS
    Gram serves as the oracle where the BLAS rounds all its entries that way,
    which OpenBLAS does for N mod 8 in {0, 1, 2, 3} (so bit equality there
    depends on the BLAS); for N mod 8 in {4, ..., 7} it rounds some entries
    without FMA, and the oracle is the Gram of batched products instead.
    """
    gram = _blas_gram_plus(g.size) if g.size % 8 < 4 else _fma_gram_plus(g.size)
    return (np.asarray(w, dtype=float)[:, None] * gram).max(axis=0)


def _rotation(a):
    return np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])


def _support_test_cloud(kind, n, rs):
    """One seeded cloud for C on the uniform n-grid: bodies, polygons, the square and floored runs."""
    rng = np.random.default_rng(rs)
    g = _uniform_grid(n)
    if kind in ("lognormal", "body-power", "polygon", "floor"):
        return g, _hull_test_cloud(kind, n, rs)[1]
    if kind.startswith("needle/"):
        # a random polygon stretched to an aspect ratio of 1e3 to 1e4
        pts = rng.normal(size=(int(rng.integers(3, 30)), 2)) * [10 ** rng.uniform(3, 4), 1.0]
        k = polytope_body(g, pts @ _rotation(rng.uniform(0.0, 2 * np.pi)))
        return g, k.support if kind == "needle/h" else 1.0 / k.support
    if kind == "floor-run":
        # a co-circular run of floored samples over most of the circle
        w = np.full(n, EPS_FLOOR)
        start, run = int(rng.integers(n)), int(rng.integers(1, max(2, n // 4)))
        w[(start + np.arange(run)) % n] = np.exp(rng.normal(0.0, 0.5, run))
        return g, w
    shape, _, sample = kind.partition("/")
    if shape == "body":
        k = random_convex_body(g, rs, amp=rng.uniform(0.05, 0.6))
    elif shape == "kgon":
        k = polytope_body(g, regular_polygon_vertices(int(rng.integers(3, 9)), rng.uniform(0.5, 2.0),
                                                      rng.uniform(0.0, 2 * np.pi)))
    else:
        k = square_body(g, rng.uniform(0.5, 2.0))
    w = k.support if sample.endswith("h") else k.radial()
    return g, 1.0 / w if sample.startswith("1/") else w


class TestHullIndexedSupport:
    """C on uniform 2D grids indexes the hull; the dense Gram max is its oracle."""

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["lognormal", "body-power", "polygon", "floor", "floor-run",
                              "body/h", "body/1/h", "body/r", "body/1/r", "kgon/h", "kgon/1/h", "kgon/r",
                              "kgon/1/r", "square/h", "square/1/h", "square/r", "square/1/r",
                              "needle/h", "needle/1/h"]),
        n=st.sampled_from([8, 9, 12, 100, 720, 2048]),
        rs=st.integers(0, 10 ** 6),
    )
    def test_equals_dense_oracle(self, kind, n, rs):
        g, w = _support_test_cloud(kind, n, rs)
        c = _dense_c(g, w)
        assert np.array_equal(support_of_cloud(g, w), c)
        d = 1.0 / _dense_c(g, 1.0 / c)
        assert np.array_equal(radial_of_halfspaces(g, c), d)
        assert np.array_equal(closure(g, c), _dense_c(g, d))
        assert np.array_equal(closure(g, w), _dense_c(g, 1.0 / _dense_c(g, 1.0 / w)))

    @pytest.mark.parametrize("kind", ["body/h", "body/1/r", "floor", "needle/1/h", "square/r"])
    @pytest.mark.parametrize("scale", [-560, 560])
    def test_scaled_cloud_equals_dense_oracle(self, kind, scale):
        # at 2**+-560 the kernel's cross products would overflow or vanish
        # without its power-of-two rescaling
        g, w = _support_test_cloud(kind, 720, 7)
        w = np.ldexp(w, scale)
        with np.errstate(all="raise"):
            c = support_of_cloud(g, w)
            r = hull_radial(g, w)
        assert np.array_equal(c, _dense_c(g, w))
        assert np.array_equal(r, np.ldexp(hull_radial(g, np.ldexp(w, -scale)), scale))

    @pytest.mark.parametrize("span", [700, 900])
    def test_wide_cloud_equals_dense_oracle(self, span):
        # half the samples 2**-span below the rest: 700 runs the hull kernel
        # on the rescaled cloud, 900 is past MAX_SPAN_EXP and takes the dense max
        g, w = _support_test_cloud("body/1/r", 100, 11)
        w[np.random.default_rng(11).random(100) < 0.5] *= 2.0 ** -span
        with np.errstate(all="raise"):
            assert np.array_equal(support_of_cloud(g, w), _dense_c(g, w))
        if span > MAX_SPAN_EXP:
            with pytest.raises(DegenerateInputError, match="span"):
                hull_radial(g, w)

    def test_large_grid_builds_no_gram(self):
        # a cached dense Gram would take N^2 * 8 bytes: 512 MiB at N = 8192
        g = uniform_angle_grid(8192)
        k = random_convex_body(g, 3)
        tracemalloc.start()
        try:
            h = support_of_cloud(g, 1.0 / k.support)
            radial_of_halfspaces(g, k.support)
            assert certificate_violation(g, k.support) < 1e-12
            polar(k)
            alexandrov(np.minimum(k.support, h), g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g._gram_plus is None
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_cloud_outside_the_positive_floats_is_refused(self, bad):
        w = np.ones(64)
        w[5] = bad
        for g in (_uniform_grid(64), sampled_sphere_grid(3, 64, seed=1)):
            with pytest.raises(DegenerateInputError):
                support_of_cloud(g, w)

    def test_convexify_scans_once(self, monkeypatch):
        import flowerlab._sampleops as sampleops

        g, w = _support_test_cloud("lognormal", 2048, 5)
        assert not is_convex_position(w[:, None] * g.directions)
        scans = []
        scan = sampleops._graham_vertices
        monkeypatch.setattr(sampleops, "_graham_vertices", lambda pts: scans.append(1) or scan(pts))
        k = convexify_support(StarBody(g, w))
        assert len(scans) == 1
        assert np.array_equal(k.support, support_of_cloud(g, w))
        assert np.array_equal(k.radial(), hull_radial(g, w))


def _reference_turns(pts, s):
    """The turn test on (N, 2) points through np.roll copies, as the scalar scan read it."""
    a = np.roll(pts, s, axis=0)
    b = np.roll(pts, -s, axis=0)
    return a, b, (pts[:, 0] - a[:, 0]) * (b[:, 1] - pts[:, 1]) - (pts[:, 1] - a[:, 1]) * (b[:, 0] - pts[:, 0])


def _reference_graham_vertices(pts):
    """The hull vertices by the scan the 2D hull pass replaced: every candidate takes one scalar turn test or more."""
    bad = np.zeros(len(pts), dtype=bool)
    for s in (1, 2):
        a, b, turn = _reference_turns(pts, s)
        if s == 1 and (turn >= 0.0).all():
            return None
        span_ok = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] > 0.0
        bad |= span_ok & (turn < 0.0)
    cand = np.flatnonzero(~bad)
    q = pts[cand]
    s0 = int(np.argmax(q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1]))
    xs = q[:, 0].tolist()
    ys = q[:, 1].tolist()
    stack = [s0]
    for i in [*range(s0 + 1, len(cand)), *range(s0 + 1)]:  # once around, back to s0
        bx, by = xs[i], ys[i]
        while len(stack) >= 2:
            k = stack[-1]
            j = stack[-2]
            px, py = xs[k], ys[k]
            if (px - xs[j]) * (by - py) - (py - ys[j]) * (bx - px) < 0.0:
                stack.pop()
            else:
                break
        stack.append(i)
    return cand[np.sort(stack[:-1])]


def _reference_edge_radial(grid, pts, keep):
    """The edge radial the 2D hull pass replaced: each ray gathers its edge's two (N, 2) vertex rows."""
    p = pts[keep]
    m = len(keep)
    edge = (np.searchsorted(keep, np.arange(len(pts)), side="right") - 1) % m
    pa = p[edge]
    pb = p[(edge + 1) % m]
    d = grid.directions
    denom = d[:, 0] * (pb[:, 1] - pa[:, 1]) - d[:, 1] * (pb[:, 0] - pa[:, 0])
    num = pa[:, 0] * pb[:, 1] - pa[:, 1] * pb[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(denom) > 1e-300, num / denom, np.hypot(pa[:, 0], pa[:, 1]))


def _reference_hull_pass(g, w):
    """(radial, keep, edge) of the scalar scan, on the cloud rescaled as _hull_pass rescales it."""
    k = (int(np.frexp(w.max())[1]) + int(np.frexp(w.min())[1])) // 2
    pts = np.ldexp(w, -k)[:, None] * g.directions
    keep = _reference_graham_vertices(pts)
    if keep is None:
        return w, None, None
    edge = _reference_edge_radial(g, pts, keep)
    return np.maximum(np.ldexp(edge, k), w), keep, edge


def _wrap_cloud(n, spike, dent, near):
    """A circle with a spike at ray 0, a dent at ray n - 2 and ray n - 1 a little inside.

    Ray 0 is the farthest point, where the scan starts.  Ray n - 1 passes the
    prefilter, and its turn against its candidate neighbours n - 3 and 0 is
    the only right one, so the scan pops it when it comes back round to ray 0.
    """
    w = np.ones(n)
    w[0], w[n - 2], w[n - 1] = spike, dent, near
    return uniform_angle_grid(n), w


def _anchor_iterates():
    """Every 16th cloud that the anchor K^3 (body 20000 at N = 2048) hands the hull pass at m = 256."""
    g = uniform_angle_grid(2048)
    w = random_convex_body(g, 20000, amp=0.3, kmax=5).radial()
    s = 3.0 ** (1.0 / 256)
    out = []
    for i in range(256):
        v = w ** s
        if i % 16 == 0:
            out.append(v)
        w = hull_radial(g, v)
    return g, out


class TestHullPassAgainstScalarScan:
    """The 2D hull pass against the one-candidate-at-a-time scan it replaced: keep, edge, radial and C bit for bit."""

    @staticmethod
    def _same_as_scalar_scan(g, w, check_c=True):
        radial, ws, xy, keep, edge = sampleops._hull_pass(g, w)
        ref_radial, ref_keep, ref_edge = _reference_hull_pass(g, w)
        assert np.array_equal(radial, ref_radial)
        assert np.array_equal(hull_radial(g, w), ref_radial)
        if ref_keep is None:
            assert keep is None and radial is w
        else:
            assert np.array_equal(keep, ref_keep)
            assert np.array_equal(edge, ref_edge)
        if check_c:
            assert np.array_equal(sampleops._support_by_vertices(g, w, ws, xy, keep, edge), _dense_c(g, w))

    @pytest.mark.parametrize("kind", ["lognormal", "body-power", "polygon", "floor"])
    @pytest.mark.parametrize("n", [8, 9, 720, 2048])
    def test_hull_test_clouds(self, kind, n):
        for rs in range(6):
            self._same_as_scalar_scan(*_hull_test_cloud(kind, n, rs))

    @pytest.mark.parametrize("n", [720, 2048])
    def test_body_radials_with_near_zero_right_turns(self, n):
        # a body's own radial has hundreds of right turns of at most 4e-17
        # among its collinear edge samples, so it never passes through
        g = uniform_angle_grid(n)
        for s in range(4):
            w = random_convex_body(g, s).radial()
            assert (sampleops._turns(w * g.directions.T, 1)[2] < 0.0).sum() > 100
            self._same_as_scalar_scan(g, w)

    def test_anchor_power_iterates(self):
        g, clouds = _anchor_iterates()
        for i, w in enumerate(clouds):
            self._same_as_scalar_scan(g, w, check_c=i % 4 == 0)

    @pytest.mark.parametrize("scale", [-560, 560])
    def test_scaled_clouds(self, scale):
        for kind in ("lognormal", "body-power", "floor"):
            for n in (9, 720):
                g, w = _hull_test_cloud(kind, n, 3)
                with np.errstate(all="raise"):
                    self._same_as_scalar_scan(g, np.ldexp(w, scale))

    @pytest.mark.parametrize("n, spike, dent, near", [(16, 1.2, 0.2, 0.9), (720, 1 + 2e-4, 0.2, 1 - 1e-6),
                                                      (2048, 1 + 2e-5, 0.25, 1 - 1e-9)])
    def test_closing_point_popped_past_the_start(self, n, spike, dent, near):
        g, w = _wrap_cloud(n, spike, dent, near)
        xy = w * g.directions.T
        assert sampleops._turns(xy, 1)[2][n - 1] >= 0.0 and sampleops._turns(xy, 2)[2][n - 1] >= 0.0
        keep = sampleops._graham_vertices(xy)
        assert keep[0] == 0 and n - 1 not in keep
        self._same_as_scalar_scan(g, w)

    def test_degenerate_edge_takes_the_vertex_distance(self):
        # one vertex: every ray's edge has length 0, so every denominator is 0
        g, w = _hull_test_cloud("lognormal", 720, 1)
        xy = w * g.directions.T
        keep = np.array([5])
        with np.errstate(all="raise"):
            out = sampleops._edge_radial(g, xy, keep)
        assert np.array_equal(out, _reference_edge_radial(g, w[:, None] * g.directions, keep))
        assert np.array_equal(out, np.full(720, np.hypot(*xy[:, 5])))


def _ulps(a, b):
    """Largest distance between two positive float arrays in units in the last place."""
    return int(np.abs(a.view(np.int64) - b.view(np.int64)).max())


class TestBlockedSupport:
    """C on every grid but the uniform 2D one is the dense max over the Gram, in O(N) memory."""

    @pytest.mark.parametrize("n, dim, ulps", [(2048, 3, 0), (2048, 8, 0), (4096, 3, 0), (100, 3, 4), (2052, 4, 4)])
    def test_equals_gram_max(self, n, dim, ulps):
        """C and D against the dense max over the whole clipped Gram.

        C's products and the Gram are BLAS products of the same rows, but the
        BLAS may order or fuse their sums differently for each shape.  So bit
        equality, which OpenBLAS gives at N = 2048 and 4096, depends on the
        BLAS; at other sizes a few entries may move by a few ulp.
        """
        g = sampled_sphere_grid(dim, n, seed=n + dim)
        gram = np.maximum(g.directions @ g.directions.T, 0.0)
        for w in np.exp(np.random.default_rng(n).normal(0.0, 0.5, (3, n))):
            c = support_of_cloud(g, w)
            assert _ulps(c, (w[:, None] * gram).max(axis=0)) <= ulps
            assert _ulps(radial_of_halfspaces(g, c), 1.0 / (1.0 / c[:, None] * gram).max(axis=0)) <= ulps

    def test_sampled_grid_builds_no_gram(self):
        # the dense max over a cached Gram held N^2 * 8 bytes and a product of
        # the same size: 256 MiB at N = 4096
        g = sampled_sphere_grid(3, 4096, seed=2)
        w = np.exp(np.random.default_rng(2).normal(0.0, 0.3, 4096))
        tracemalloc.start()
        try:
            k = ConvexBody(g, support_of_cloud(g, w), certified=True)
            radial_of_halfspaces(g, k.support)
            assert certificate_violation(g, k.support) < 1e-12
            polar(k)
            alexandrov(k.support * 1.01, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g._gram_plus is None
        assert peak < 16 * 2 ** 20


def _pruned_test_clouds(g, rng):
    """Seeded clouds for C on a sampled grid: log-normal, hull supports and radials, a spike, floored runs, far scales."""
    n = g.size
    h = support_of_cloud(g, np.exp(rng.normal(0.0, 0.3, n)))  # the support of a hull body
    spike = np.exp(rng.normal(0.0, 0.3, n))
    spike[rng.integers(n)] = 1e6
    floor = np.exp(rng.normal(0.0, 0.3, n))
    floor[np.sort(g.caps().order[: n // 5])] = EPS_FLOOR  # whole caps
    floor[rng.integers(n, size=n // 50)] = EPS_FLOOR
    clouds = [np.exp(rng.normal(0.0, s, n)) for s in (0.3, 1.0, 3.0)]
    clouds += [radial_of_halfspaces(g, h), 1.0 / h, spike, floor]
    return clouds + [np.ldexp(clouds[0], 500), np.ldexp(clouds[1], -500)]


def _split_first_cap(g):
    """The grid's caps with the first one split into one-ray caps centred on their ray."""
    caps = g.caps()
    first = caps.order[: caps.starts[1]]
    centres = np.vstack([g.directions[first], caps.centres[1:]])
    starts = np.concatenate((np.arange(len(first)), caps.starts[1:]))
    radius = np.concatenate((np.zeros(len(first)), caps.radius[1:]))
    return Caps(caps.order, starts, centres, radius, angle_between(centres[:, None, :], centres[None, :, :]))


class TestPrunedSupport:
    """The cone-pruned C and facet support equal the dense max of _support_blocked bit for bit."""

    @pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
    @pytest.mark.parametrize("dim, n", [(dim, n) for n in (100, 886, 2048, 2224, 4096) for dim in (3, 4, 8)]
                             + [(3, 8192)])
    def test_c_equals_dense_max(self, n, dim, symmetric):
        """Every cloud up to N = 2048, every third above; 8192 in 3D only, where caps prune most.

        At N = 2224 the dense kernel's blocks of 117 rays leave one ray over.
        """
        g = sampled_sphere_grid(dim, n, seed=n + dim, symmetric=symmetric)
        d = g.directions
        for w in _pruned_test_clouds(g, np.random.default_rng(n * dim))[:: 1 if n <= 2048 else 3]:
            assert _ulps(support_of_cloud(g, w), _support_blocked(d, d, w)) == 0

    @pytest.mark.parametrize("dim, n", [(3, 2048), (3, 4096), (4, 2048), (8, 2048)])
    def test_d_and_certificate_follow_the_dense_path(self, dim, n):
        """D(C(w)) and the certificate of C(w), each C taken densely, are what the pruned C gives."""
        g = sampled_sphere_grid(dim, n, seed=7 * n + dim)
        d = g.directions
        w = np.exp(np.random.default_rng(n).normal(0.0, 0.5, n))
        h = _support_blocked(d, d, w)
        r = 1.0 / _support_blocked(d, d, 1.0 / h)
        assert _ulps(radial_of_halfspaces(g, support_of_cloud(g, w)), r) == 0
        assert certificate_violation(g, h) == float(np.abs(h - _support_blocked(d, d, r)).max())

    @pytest.mark.parametrize("dim, n, kind", [(3, 2048, "ellipsoid"), (3, 4096, "ellipsoid"), (4, 2048, "ellipsoid"),
                                              (3, 2048, "hull"), (4, 2048, "hull")])
    def test_facet_support_equals_dense(self, dim, n, kind):
        """The ellipsoid's cloud has about 2N facets (pruned in 3D); the hull body's fewer (dense whole in 3D)."""
        g = sampled_sphere_grid(dim, n, seed=n + dim)
        if kind == "ellipsoid":
            r = 1.0 / np.linalg.norm(g.directions / np.linspace(1.0, 2.0, dim), axis=1)
        else:
            r = radial_of_halfspaces(g, support_of_cloud(g, np.exp(np.random.default_rng(n).normal(0.0, 0.3, n))))
        pts = r[:, None] * g.directions
        hull = ConvexHull(pts)
        a, b = hull.equations[:, :-1], hull.equations[:, -1]
        assert _ulps(_hull_radial_qhull(g, pts), 1.0 / _support_blocked(a, g.directions, -1.0 / b)) == 0

    def test_one_ray_caps_and_one_row_groups(self, monkeypatch):
        """Caps of one ray and groups of one row give the dense bits, and no product has a side of 1."""
        g = sampled_sphere_grid(3, 2048, seed=5)
        d = g.directions
        caps = _split_first_cap(g)
        shapes = []
        real = np.matmul

        def spy(a, b, **kw):
            shapes.append((a.shape, b.shape))
            return real(a, b, **kw)

        monkeypatch.setattr(np, "matmul", spy)
        for w in _pruned_test_clouds(g, np.random.default_rng(5))[:4]:
            out = _support_pruned(caps, d, d, w, caps.order, caps.starts, caps.radius)
            assert _ulps(out, _support_blocked(d, d, w)) == 0
        assert shapes and min(min(a[0], b[1]) for a, b in shapes) >= 2


class TestQhullScale:
    """qhull takes in-range clouds as they are and far clouds scaled by a power of two."""

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("k", [0, 530, -530])
    def test_hull_radial_scales_exactly(self, dim, k):
        """The cloud's largest coordinate lies in [0.5, 1), where a far copy is scaled back to, so the bits agree."""
        g = sampled_sphere_grid(dim, 512, seed=dim)
        pts = np.exp(np.random.default_rng(dim).normal(0.0, 0.3, 512))[:, None] * g.directions
        pts = np.ldexp(pts, -int(np.frexp(np.abs(pts).max())[1]))
        assert _ulps(_hull_radial_qhull(g, np.ldexp(pts, k)), np.ldexp(_hull_radial_qhull(g, pts), k)) == 0

    def test_in_range_cloud_reaches_qhull_unchanged(self, monkeypatch):
        g = sampled_sphere_grid(3, 512, seed=1)
        pts = 2.0 ** 40 * np.exp(np.random.default_rng(1).normal(0.0, 0.3, 512))[:, None] * g.directions
        seen = []
        monkeypatch.setattr(sampleops, "ConvexHull", lambda p: seen.append(p) or ConvexHull(p))
        _hull_radial_qhull(g, pts)
        assert seen[0] is pts


# the dense M x N expressions that flower_from_petals, polytope_body,
# section_radial, global_average, minkowski_sum_2d and projected_radial held
# before they shared the blocked kernels.  _dense_point_max and
# _dense_ball_union multiply points by rays, as the kernels do; the two
# others multiply rays by points, as global_average and projected_radial did
def _dense_point_max(pts, dirs):
    return np.maximum(pts @ dirs.T, 0.0).max(axis=0)


def _dense_rotated_point_max(pts, dirs):
    return np.maximum(dirs @ pts.T, 0.0).max(axis=1)


def _dense_ball_union(cx, rho, dirs):
    ip = cx @ dirs.T
    return (ip + np.sqrt(np.maximum(rho[:, None] ** 2 - (cx ** 2).sum(axis=1)[:, None] + ip ** 2, 0.0))).max(axis=0)


def _dense_projected_ball_union(cents, rho, dk):
    ip = dk @ cents.T
    disc = np.maximum(rho[None, :] ** 2 - (cents ** 2).sum(axis=1)[None, :] + ip ** 2, 0.0)
    return (ip + np.sqrt(disc)).max(axis=1)


def _kernel_case(rng, dim, m, n):
    """n unit rays, m points and ball radii above each center's norm (so every ball holds the origin)."""
    dirs = rng.normal(size=(n, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = rng.normal(size=(m, dim)) * rng.uniform(0.5, 2.0, size=(m, 1))
    return dirs, pts, np.linalg.norm(pts, axis=1) * rng.uniform(1.0, 2.0, size=m)


class TestPetalKernels:
    """The petal radial and the ball-union radial against the dense expressions they replaced."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_equals_dense_expressions(self, dim):
        """Bit-equal to the points x rays expressions when the product fits in one block.

        Blocks split once m * n exceeds DENSE_BLOCK, and a block is a BLAS
        product of other shapes than the whole matrix; the BLAS may order or
        fuse its sums differently for each shape, so there entries may move by
        a few ulp.  The rays x points expressions of global_average and
        projected_radial compute each product with the operands swapped, so
        they may move by a few ulp at any size; with OpenBLAS 0.3.31 they
        move by at most 2.  Bit equality also depends on the BLAS.
        """
        rng = np.random.default_rng(dim)
        for m in (1, 7, 32, 96, 500, 3000):
            for n in (720, 2052, 4100):
                if m * n > 3 * 2 ** 20:  # the dense oracles hold a few m x n temporaries of up to 24 MiB each
                    continue
                dirs, pts, rho = _kernel_case(rng, dim, m, n)
                same = 0 if DENSE_BLOCK // m >= n else 4
                point, ball = _support_blocked(pts, dirs), _ball_union_radial(pts, rho, dirs)
                assert _ulps(point, _dense_point_max(pts, dirs)) <= same, (m, n)
                assert _ulps(ball, _dense_ball_union(pts, rho, dirs)) <= same, (m, n)
                assert _ulps(point, _dense_rotated_point_max(pts, dirs)) <= 4, (m, n)
                assert _ulps(ball, _dense_projected_ball_union(pts, rho, dirs)) <= 4, (m, n)

    @pytest.mark.parametrize("dim, m, n", [(4, 4, 2048), (8, 32, 2048)])
    def test_benchmark_shapes_bit_equal_in_both_orientations(self, dim, m, n):
        """The 4D global average (4 petals, 2048 rays) and the 16 -> 8 projection (32 petals, 2048 rays).

        Both orientations round alike at these shapes with OpenBLAS 0.3.31;
        bit equality depends on the BLAS.
        """
        rng = np.random.default_rng(m + n)
        for _ in range(20):
            dirs, pts, rho = _kernel_case(rng, dim, m, n)
            assert _ulps(_support_blocked(pts, dirs), _dense_rotated_point_max(pts, dirs)) == 0
            assert _ulps(_ball_union_radial(pts, rho, dirs), _dense_projected_ball_union(pts, rho, dirs)) == 0

    @pytest.mark.parametrize("dim, n", [(2, 720), (2, 4100), (3, 2052), (8, 2048)])
    def test_polytope_support_is_petal_flower_radial(self, dim, n):
        """r_F = h_K bit for bit: the flower of the petals A and the support of conv(A + {0})."""
        g = uniform_angle_grid(n) if dim == 2 else sampled_sphere_grid(dim, n, seed=dim)
        rng = np.random.default_rng(n)
        for m in (1, 7, 500):
            a = rng.normal(size=(m, dim))
            h = polytope_body(g, a).support
            assert h.tobytes() == flower_from_petals(a, g).radial.tobytes()
            assert _ulps(h, np.maximum((a @ g.directions.T).max(axis=0), EPS_FLOOR)) <= (0 if m * n <= DENSE_BLOCK else 4)

    @pytest.mark.parametrize("vertices", [np.empty((0, 2)), [[1.0, 0.0, 0.0]]], ids=["no-vertex", "wrong-dim"])
    def test_bad_polytope_vertices_are_a_parameter_error(self, vertices):
        # no vertex used to leak numpy's empty-reduction ValueError
        with pytest.raises(ParameterError, match="one or more points"):
            polytope_body(uniform_angle_grid(16), vertices)

    @pytest.mark.parametrize("build", [flower_from_petals, lambda pts, g: polytope_body(g, pts)],
                             ids=["flower_from_petals", "polytope_body"])
    def test_point_file_at_the_cap_holds_no_petal_matrix(self, build):
        # the dense M x N product at M = N = 8192 held 512 MiB, and the petal
        # flower's clipped copy as much again
        g = uniform_angle_grid(8192)
        pts = np.random.default_rng(3).normal(size=(8192, 2))
        tracemalloc.start()
        try:
            build(pts, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
