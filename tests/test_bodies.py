import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import flowerlab._sampleops as sampleops
import flowerlab.calculus as calculus
from flowerlab._sampleops import (
    DENSE_BLOCK,
    EPS_FLOOR,
    MAX_SPAN_EXP,
    _ball_union_radial,
    _block_max,
    _hull_radial_qhull,
    _support_pruned,
    certificate_violation,
    hull_radial,
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
    reflect_star_2d,
    regular_polygon_vertices,
    rotate_star_2d,
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
    UnsupportedDimensionError,
)
from flowerlab.spherecore import Caps, DirectionGrid, cap_cosines, group_rows, sampled_sphere_grid, uniform_angle_grid

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_petal_refused(self, grid720, bad):
        """A NaN petal used to pass, and dvoretzky_search then gave distance inf and no subspace, global_average nan."""
        f = flower_from_petals([E1, -E1, E2], grid720)
        petals = f.petals.copy()
        petals[2, 0] = bad
        with pytest.raises(DegenerateInputError, match="petal points must be finite"):
            Flower(grid720, f.radial, petals)


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

    def test_reciprocal_past_the_floats_is_refused_without_a_warning(self, grid720):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="radial values must be finite"):
                cof(StarBody(grid720, np.full(720, 1e-310)))

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

    def test_directions_grid_matches_the_uniform_grid(self, grid720):
        # the same 720 rays declared as directions take hull_radial and C apart
        # instead of the uniform grid's one pass: the same support, and the radial within 4e-14
        declared = DirectionGrid(2, grid720.directions, grid720.weights)
        th = grid720.angles()
        for r in (np.exp(0.3 * np.sin(th) + 0.1 * np.cos(2 * th)), np.exp(0.3 * np.sin(3 * th)),
                  random_convex_body(grid720, 0).radial()):
            assert sampleops._hull_pass(declared, r) is None
            k, ref = convexify_support(StarBody(declared, r)), convexify_support(StarBody(grid720, r))
            assert k.grid is declared
            assert k.support.tobytes() == ref.support.tobytes()
            assert np.abs(k.radial() - ref.radial()).max() < 4e-14


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
        """volume always rescales r by a power of two; in the floats it gives kappa_n * sum w r^n bit for bit.

        Checked on the 720-grid and on 3D, 4D and 8D sampled grids with r scaled by e^-20, 1 and e^20.
        """
        k = random_convex_body(grid720, 5)
        r = k.radial()
        assert volume(k) == math.pi * float(grid720.weights @ r ** 2)
        for dim in (3, 4, 8):
            g = sampled_sphere_grid(dim, 512, seed=dim)
            for scale in (-20.0, 0.0, 20.0):
                r = math.exp(scale) * np.exp(0.3 * np.random.default_rng(dim).normal(size=512))
                plain = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * float(g.weights @ r ** dim)
                assert volume(StarBody(g, r)) == plain, (dim, scale)


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
            assert s.radial.tobytes() == np.maximum(_pair_ball_union(cx, rho, g.directions), EPS_FLOOR).tobytes()

    def test_minkowski_sum_of_radii_spanning_2_to_the_1993(self):
        # radii 5e299 and 5e-301: centring the span on 1 squared the largest past the floats
        g = uniform_angle_grid(16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = minkowski_sum_2d(flower_from_petals([[1e300, 0], [0, 1e-300]], g), flower_from_petals([[0, -1e-300]], g))
        # the big ball has c = (5e299, -5e-301) and rho^2 - |c|^2 = 1/2; the other lies below the floor
        ip = g.directions @ [5e299, -5e-301]
        np.testing.assert_allclose(s.radial, np.maximum(ip + np.hypot(np.sqrt(0.5), ip), EPS_FLOOR), rtol=1e-15)
        assert s.radial[0] == 1e300

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

    def test_reflect_on_directions_grid_interpolates_the_permutation(self, grid720):
        from flowerlab.bodies import reflect_star_2d

        th = grid720.angles()
        r = np.exp(0.3 * np.sin(th) + 0.1 * np.cos(2 * th))
        declared = DirectionGrid(2, grid720.directions, grid720.weights)  # the same rays, not declared uniform
        b = reflect_star_2d(StarBody(declared, r))
        assert b.grid is declared
        assert np.abs(b.radial - r[(-np.arange(720)) % 720]).max() < 1e-14


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


def is_convex_position(pts):
    """True if the angularly sorted (N, 2) cloud is in convex position: all left turns (_turns)."""
    return bool((sampleops._turns(pts.T) >= 0.0).all())


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


# the most that the facet support, run on every ray, lifted w on a ray whose
# point qhull lists as a hull vertex, over the corpus of TestVertexPassThrough
VERTEX_RAY_ULPS = 2


class TestVertexPassThrough:
    """Off the uniform 2D grids, rays whose points are hull vertices take w; the facet support runs on the rest."""

    @pytest.mark.parametrize("dim, n", [(3, 512), (3, 2048), (4, 1024)])
    def test_differs_from_facets_on_every_ray_only_on_vertex_rays(self, dim, n):
        """Hull bodies raised to 0.5 (every point a vertex) and 2 (few), and an ellipsoid (all) with a tenth of it dented (most)."""
        g = sampled_sphere_grid(dim, n, seed=n + dim)
        rng = np.random.default_rng(n * dim)
        clouds = []
        for _ in range(2):
            r = convexify_support(StarBody(g, np.exp(rng.normal(0.0, 0.3, n)))).radial()
            clouds += [r ** 0.5, r ** 2.0]
        ellipsoid = 1.0 / np.linalg.norm(g.directions / np.linspace(1.0, 2.0, dim), axis=1)
        dent = ellipsoid.copy()
        dent[rng.choice(n, n // 10, replace=False)] *= 0.95
        clouds += [dent, ellipsoid]
        kinds = set()
        for w in clouds:
            out = hull_radial(g, w)
            hull = ConvexHull(w[:, None] * g.directions)
            a, b = hull.equations[:, :-1], hull.equations[:, -1]
            every_ray = np.maximum(1.0 / _block_max(a, g.directions, -1.0 / b), w)
            vertex = np.zeros(n, dtype=bool)
            vertex[hull.vertices] = True
            assert np.array_equal(out[~vertex], every_ray[~vertex])
            assert np.array_equal(out[vertex], w[vertex])
            assert _ulps(every_ray[vertex], w[vertex]) <= VERTEX_RAY_ULPS
            if vertex.all():
                assert out is w
            kinds.add("all" if vertex.all() else "most" if vertex.mean() > 0.5 else "few")
        assert kinds == {"all", "most", "few"}

    def test_power_gets_all_vertex_clouds_back(self, monkeypatch):
        """A 3D power map at lambda = 0.5 on a hull body: some of its hull calls return their cloud itself."""
        g = sampled_sphere_grid(3, 2048, seed=7)
        k = convexify_support(StarBody(g, np.exp(np.random.default_rng(7).normal(0.0, 0.3, 2048))))
        same = []
        real = sampleops.hull_radial

        def spy(grid, w):
            out = real(grid, w)
            same.append(out is w)
            return out

        monkeypatch.setattr(calculus, "hull_radial", spy)
        power(k, 0.5, tol=1e-4)
        assert same and any(same)


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
    w = np.asarray(w, dtype=float)
    if g.size > 2048:  # no Gram: BLAS products 256 rays at a time, a multiple of 128 columns, round like the whole one
        assert g.size % 8 < 4
        d = g.directions
        out = np.empty(g.size)
        for j in range(0, g.size, 256):
            block = d @ d[j:j + 256].T
            block *= w[:, None]
            block.max(axis=0, out=out[j:j + 256])
        return np.maximum(out, 0.0)  # w > 0: the max of w x clipped is the max of w max(x, 0)
    gram = _blas_gram_plus(g.size) if g.size % 8 < 4 else _fma_gram_plus(g.size)
    return (w[:, None] * gram).max(axis=0)


def _rotation(a):
    return np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])


def _backswing(g, w):
    return sampleops._normal_envelope(w * g.directions.T)[2]


def _dented(g, w, j, target):
    """w with w[j] at the two adjacent floats between which its cloud's backswing passes target: (below, above)."""
    def dent(v):
        out = w.copy()
        out[j] = v
        return out

    inside, outside = w[j], w[j] * 1e-3
    assert _backswing(g, dent(inside)) <= target < _backswing(g, dent(outside))
    while True:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            return dent(inside), dent(outside)
        if _backswing(g, dent(mid)) <= target:
            inside = mid
        else:
            outside = mid


SUPPORT_KINDS = ["lognormal", "body-power", "polygon", "floor", "floor-run", "body/h", "body/1/h", "body/r", "body/1/r",
                 "kgon/h", "kgon/1/h", "kgon/r", "kgon/1/r", "square/h", "square/1/h", "square/r", "square/1/r",
                 "needle/h", "needle/1/h", "noise/r", "dent/below", "dent/above", "closing"]


def _support_test_cloud(kind, n, rs):
    """One seeded cloud for C on the uniform n-grid: bodies, polygons, the square, floored runs and near-convex clouds.

    noise/r is a body's radial times 1 +- 1e-15; dent/below and dent/above
    pull one point of a body's radial in until the backswing of the cloud's
    edge normals sits just below and just above NORMAL_ANGLE_TOL / 2; in
    closing, the only right turn of a convex cloud is at point 0.
    """
    rng = np.random.default_rng(rs)
    g = _uniform_grid(n)
    if kind in ("lognormal", "body-power", "polygon", "floor"):
        return g, _hull_test_cloud(kind, n, rs)[1]
    if kind == "noise/r":
        return g, random_convex_body(g, rs).radial() * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, n))
    if kind.startswith("dent/"):
        below, above = _dented(g, random_convex_body(g, rs).radial(), int(rng.integers(n)),
                               sampleops.NORMAL_ANGLE_TOL / 2)
        return g, below if kind == "dent/below" else above
    if kind == "closing":
        th = g.angles()
        w = 1.0 / np.sqrt((np.cos(th) / rng.uniform(0.5, 1.0)) ** 2 + np.sin(th) ** 2)  # ellipse radial
        w[0] *= rng.uniform(0.3, 0.6)
        return g, w
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


class TestBoundsPastTheFloats:
    """D and polar take 1 / g: bounds whose reciprocals leave the floats are refused, with no warning."""

    @pytest.mark.parametrize("grid", [uniform_angle_grid(720), sampled_sphere_grid(3, 512, seed=2)])
    def test_tiny_bounds_are_refused(self, grid):
        h = 1e-310 * unit_ball(grid).support
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="bounds down to 1e-310 have reciprocals past the floats"):
                radial_of_halfspaces(grid, h)
            with pytest.raises(DegenerateInputError, match="bounds down to 1e-310"):
                polar(ConvexBody(grid, h, certified=True))

    def test_bounds_just_inside_the_floats_pass(self):
        g = uniform_angle_grid(720)
        h = np.full(720, 2.0 ** -1022)  # the least normal float; its reciprocal is 2**1022
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.allclose(radial_of_halfspaces(g, h), h, rtol=1e-12, atol=0.0)


class TestHullIndexedSupport:
    """C on uniform 2D grids indexes the hull; the dense Gram max is its oracle."""

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(SUPPORT_KINDS),
        n=st.sampled_from([8, 9, 12, 100, 720, 2048]),
        rs=st.integers(0, 10 ** 6),
    )
    def test_equals_dense_oracle(self, kind, n, rs):
        g, w = _support_test_cloud(kind, n, rs)
        c = _dense_c(g, w)
        assert np.array_equal(support_of_cloud(g, w), c)
        d = 1.0 / _dense_c(g, 1.0 / c)
        assert np.array_equal(radial_of_halfspaces(g, c), d)
        assert np.array_equal(support_of_cloud(g, radial_of_halfspaces(g, c)), _dense_c(g, d))
        assert np.array_equal(support_of_cloud(g, radial_of_halfspaces(g, w)), _dense_c(g, 1.0 / _dense_c(g, 1.0 / w)))

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


class TestCandidatesFromEdgeNormals:
    """C on uniform 2D grids takes every point as a candidate vertex unless the cloud's edge normals turn back."""

    @staticmethod
    def _count_scans(monkeypatch):
        scans = []
        scan = sampleops._graham_vertices
        monkeypatch.setattr(sampleops, "_graham_vertices", lambda xy: scans.append(1) or scan(xy))
        return scans

    @pytest.mark.parametrize("n", [8, 9, 12, 100, 720, 2048, 8192])
    def test_every_kind_equals_dense_oracle(self, n):
        for kind in SUPPORT_KINDS:
            for rs in range(5):
                g, w = _support_test_cloud(kind, n, rs)
                assert np.array_equal(support_of_cloud(g, w), _dense_c(g, w)), (kind, rs)

    @pytest.mark.parametrize("n", [720, 2048, 8192])
    def test_body_clouds_are_not_scanned(self, n, monkeypatch):
        # a body's radial and 1/h are convex up to float noise: hundreds of
        # right turns of about 4e-17 among collinear samples
        g = uniform_angle_grid(n)
        clouds = [w for s in range(3) for k in [random_convex_body(g, s)] for w in (k.radial(), 1.0 / k.support)]
        scans = self._count_scans(monkeypatch)
        for w in clouds:
            assert _backswing(g, w) < 1e-11
            support_of_cloud(g, w)
        assert scans == []

    @pytest.mark.parametrize("n", [12, 720, 2048, 8192])
    def test_backswing_at_half_the_tolerance(self, n, monkeypatch):
        # the normals path up to NORMAL_ANGLE_TOL / 2, the scan past it; one
        # ulp of the dented sample moves the backswing by up to 0.2 % of it
        half = sampleops.NORMAL_ANGLE_TOL / 2
        pairs = [(_support_test_cloud("dent/below", n, rs), _support_test_cloud("dent/above", n, rs)[1]) for rs in range(3)]
        scans = self._count_scans(monkeypatch)
        for (g, below), above in pairs:
            assert _backswing(g, below) <= half < _backswing(g, above) < _backswing(g, below) + 1e-2 * half
            scans.clear()
            assert np.array_equal(support_of_cloud(g, below), _dense_c(g, below))
            assert scans == []
            assert np.array_equal(support_of_cloud(g, above), _dense_c(g, above))
            assert scans == [1]

    @pytest.mark.parametrize("n", [8, 9, 720, 8192])
    def test_right_turn_only_at_point_0_is_scanned(self, n, monkeypatch):
        # the closing turn at point 0 counts: a backswing taken without it
        # would pass this cloud without a scan and miss ray 0's maximiser
        scans = self._count_scans(monkeypatch)
        for rs in range(5):
            g, w = _support_test_cloud("closing", n, rs)
            assert np.array_equal(np.flatnonzero(sampleops._turns(w * g.directions.T) < 0.0), [0])
            scans.clear()
            assert np.array_equal(support_of_cloud(g, w), _dense_c(g, w))
            assert scans == [1]


    @pytest.mark.parametrize("kind", ["lognormal", "closing", "dent/above", "kgon/1/r"])
    def test_turned_back_cloud_scans_once_and_builds_no_edge_radial(self, kind, monkeypatch):
        # C reads the scan's vertices only: no second rescale, no edge radial
        g, w = _support_test_cloud(kind, 720, 3)
        assert _backswing(g, w) > sampleops.NORMAL_ANGLE_TOL / 2
        scans, edges = self._count_scans(monkeypatch), []
        monkeypatch.setattr(sampleops, "_edge_radial", lambda *a: edges.append(1))
        assert np.array_equal(support_of_cloud(g, w), _dense_c(g, w))
        assert scans == [1] and edges == []

    def test_memory_stays_linear_at_8192(self):
        # the windows hold about 2 N candidates at most: a few rows of N floats
        peak = 0
        for kind in SUPPORT_KINDS:
            g, w = _support_test_cloud(kind, 8192, 1)
            tracemalloc.start()
            try:
                support_of_cloud(g, w)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peak < 4 * 2 ** 20


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
        radial, xy, keep = sampleops._hull_pass(g, w)
        ref_radial, ref_keep, ref_edge = _reference_hull_pass(g, w)
        assert np.array_equal(radial, ref_radial)
        assert np.array_equal(hull_radial(g, w), ref_radial)
        if ref_keep is None:
            assert keep is None and radial is w
        else:
            assert np.array_equal(keep, ref_keep)
            assert np.array_equal(sampleops._edge_radial(g, xy, keep), ref_edge)
        if check_c:
            assert np.array_equal(sampleops._support_by_vertices(g, w, xy, keep), _dense_c(g, w))

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
            assert (sampleops._turns(w * g.directions.T) < 0.0).sum() > 100
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
        assert sampleops._turns(xy)[n - 1] >= 0.0 and _reference_turns(xy.T, 2)[2][n - 1] >= 0.0
        keep = sampleops._graham_vertices(xy)
        assert keep[0] == 0 and n - 1 not in keep
        self._same_as_scalar_scan(g, w)

    @pytest.mark.parametrize("n", [8, 9, 720, 8192])
    def test_neighbours_of_every_point_span_less_than_pi(self, n):
        # the one turn pass drops every right turn: valid as cross(p_{i-1},
        # p_{i+1}) > 0, 4 pi / n apart, even on clouds rescaled from 2**+-400
        g = uniform_angle_grid(n)
        w = np.ldexp(1.0, np.where(np.arange(n) % 2 == 0, 400, -400))
        _, xy = sampleops._scaled_cloud(g, w)
        a, b = np.roll(xy, 1, axis=1), np.roll(xy, -1, axis=1)
        cross = a[0] * b[1] - a[1] * b[0]
        assert (cross > 0.0).all()
        scale = np.hypot(*a) * np.hypot(*b)
        assert (cross / scale).min() > 0.99 * np.sin(4 * np.pi / n)

    def test_a_scan_takes_two_turn_passes_and_convex_position_one(self, monkeypatch):
        passes = []
        turns = sampleops._turns
        monkeypatch.setattr(sampleops, "_turns", lambda xy: passes.append(1) or turns(xy))
        g, w = _hull_test_cloud("lognormal", 720, 0)
        assert sampleops._graham_vertices(w * g.directions.T) is not None
        assert len(passes) == 2
        passes.clear()
        assert sampleops._graham_vertices(g.directions.T.copy()) is None
        assert len(passes) == 1

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


def _pair_reference(pts, dirs, value, tol):
    """max over the rows i of value(i, x_ij) for each ray j, each x_ij = <p_i, theta_j> taken from a 2 x 2 BLAS product.

    The shape-free reference of the dense kernels: x_ij is the [0, 0] entry of
    the product of the pair (p_i, p_i) with the transposed pair (theta_j,
    theta_j), as the kernels lay out their operands (the BLAS may round an
    untransposed one otherwise), and no product is a gemv.  Wide products
    screen the rows first: value moves by far less than tol between any two
    roundings of x_ij, so a row more than 2 tol below a ray's max there
    cannot attain it, and only the rows within that are taken again.
    """
    step = max(1, 2 ** 20 // len(dirs))

    def blocks():  # (rows, values) over wide products, about 2**20 at a time
        for k in range(0, len(pts), step):
            rows = np.arange(k, min(k + step, len(pts)))
            yield rows, value(rows[:, None], pts[rows] @ dirs.T)

    top = np.max([v.max(axis=0) for _, v in blocks()], axis=0)
    near = [(rows[r], j) for rows, v in blocks() for r, j in [np.nonzero(v >= top - 2 * tol)]]
    i, j = (np.concatenate(a) for a in zip(*near))
    pairs = np.repeat(pts[i][:, None], 2, axis=1), np.repeat(dirs[j][:, None], 2, axis=1).transpose(0, 2, 1)
    x = np.matmul(*pairs)[:, 0, 0]
    out = np.full(len(dirs), -np.inf)
    np.maximum.at(out, j, value(i, x))
    return out


def _pair_max(pts, dirs, w=None):
    """max_i w_i <p_i, theta_j>_+ (w = 1 if None) by _pair_reference."""
    w = np.ones(len(pts)) if w is None else w
    tol = 1e-12 * (w * np.linalg.norm(pts, axis=1)).max()
    return np.maximum(_pair_reference(pts, dirs, lambda i, x: w[i] * x, tol), 0.0)


def _pair_ball_union(cx, rho, dirs):
    """The radial of _ball_union_radial by _pair_reference."""
    base = rho ** 2 - (cx ** 2).sum(axis=1)
    return _pair_reference(cx, dirs, lambda i, x: x + np.sqrt(np.maximum(base[i] + x ** 2, 0.0)), 1e-12 * rho.max())


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
    return Caps(caps.order, starts, centres, radius, cap_cosines(centres, radius, g.directions))


class TestPrunedSupport:
    """The cone-pruned C and facet support equal the shape-free dense max of _pair_max bit for bit."""

    @pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
    @pytest.mark.parametrize("dim, n", [(dim, n) for n in (100, 886, 2048, 2224, 4096) for dim in (3, 4, 8)]
                             + [(3, 8192)])
    def test_c_equals_dense_max(self, n, dim, symmetric):
        """Every cloud up to N = 2048, every third above; 8192 in 3D only, where caps prune most.

        Below N = 2048 C takes the dense max whole; at N = 2224 a cap's 117
        rays leave one ray over in a block of 128.
        """
        g = sampled_sphere_grid(dim, n, seed=n + dim, symmetric=symmetric)
        d = g.directions
        for w in _pruned_test_clouds(g, np.random.default_rng(n * dim))[:: 1 if n <= 2048 else 3]:
            assert _ulps(support_of_cloud(g, w), _pair_max(d, d, w)) == 0

    @pytest.mark.parametrize("dim, n", [(3, 2048), (3, 4096), (4, 2048), (8, 2048)])
    def test_d_and_certificate_follow_the_dense_path(self, dim, n):
        """D(C(w)) and the certificate of C(w), each C taken densely, are what the pruned C gives."""
        g = sampled_sphere_grid(dim, n, seed=7 * n + dim)
        d = g.directions
        w = np.exp(np.random.default_rng(n).normal(0.0, 0.5, n))
        h = _pair_max(d, d, w)
        r = 1.0 / _pair_max(d, d, 1.0 / h)
        assert _ulps(radial_of_halfspaces(g, support_of_cloud(g, w)), r) == 0
        assert certificate_violation(g, h) == float(np.abs(h - _pair_max(d, d, r)).max())

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
        assert _ulps(_hull_radial_qhull(g, pts), 1.0 / _pair_max(a, g.directions, -1.0 / b)) == 0

    @pytest.mark.parametrize("rows", ["facets", "rays"])
    def test_ray_subset_equals_dense_and_skips_other_caps(self, rows, monkeypatch):
        """Half of one cap's rays and a few loose ones: the dense bits, and no product or cone bound on another cap."""
        g = sampled_sphere_grid(3, 2048, seed=6)
        d, caps = g.directions, g.caps()
        rng = np.random.default_rng(6)
        if rows == "facets":  # the ellipsoid's hull: about 4100 facets
            hull = ConvexHull(d / np.linalg.norm(d / np.array([1.0, 1.5, 2.0]), axis=1, keepdims=True))
            pts, w = hull.equations[:, :-1], -1.0 / hull.equations[:, -1]
        else:
            pts, w = d, np.exp(rng.normal(0.0, 0.3, 2048))
        rays = np.unique(np.concatenate((caps.order[caps.starts[1]:caps.starts[2]:2], rng.choice(2048, 5))))
        label = np.repeat(np.arange(len(caps.radius)), np.diff(caps.starts))[np.argsort(caps.order)]
        dense = _pair_max(pts, d[rays], w)
        seen, centres = [], [0]
        real_max, real_cos = sampleops._block_max, sampleops.cap_cosines

        def max_spy(p, theta, *args):
            seen.append(theta)
            return real_max(p, theta, *args)

        def cos_spy(c, r, p):
            centres[0] += len(c)
            return real_cos(c, r, p)

        monkeypatch.setattr(sampleops, "_block_max", max_spy)
        monkeypatch.setattr(sampleops, "cap_cosines", cos_spy)
        assert _ulps(_support_pruned(g, pts, w, rays), dense) == 0
        wanted = {row.tobytes() for row in d[rays]}
        assert seen and all(row.tobytes() in wanted for theta in seen for row in theta)
        assert centres[0] == (len(np.unique(label[rays])) if rows == "facets" else 0)

    @pytest.mark.parametrize("dim", [3, 8])
    def test_dense_route_takes_one_cap_per_call(self, dim, monkeypatch):
        """A cap that gathers over half the rows takes every row for its own rays alone: the spike sends 7 caps in 3D."""
        g = sampled_sphere_grid(dim, 2048, seed=2048 + dim)
        d, caps = g.directions, g.caps()
        label = np.repeat(np.arange(len(caps.radius)), np.diff(caps.starts))[np.argsort(caps.order)]
        ray = {row.tobytes(): j for j, row in enumerate(d)}
        clouds = _pruned_test_clouds(g, np.random.default_rng(2048 + dim))
        dense = [_pair_max(d, d, w) for w in clouds]
        seen = []
        real = sampleops._block_max

        def spy(p, theta, *args):
            seen.append((len(p), {label[ray[row.tobytes()]] for row in theta}))
            return real(p, theta, *args)

        monkeypatch.setattr(sampleops, "_block_max", spy)
        for w, ref in zip(clouds, dense):
            assert _ulps(_support_pruned(g, d, w), ref) == 0
        assert any(rows == len(d) for rows, _ in seen)
        assert all(len(held) == 1 for _, held in seen)

    def test_one_ray_caps_and_one_row_groups(self, monkeypatch):
        """Caps of one ray and groups of one row give the dense bits, and no product has a side of 1."""
        g = sampled_sphere_grid(3, 2048, seed=5)
        d = g.directions
        clouds = _pruned_test_clouds(g, np.random.default_rng(5))[:4]
        dense = [_pair_max(d, d, w) for w in clouds]
        monkeypatch.setattr(g, "_caps", _split_first_cap(g))
        shapes = []
        real = np.matmul

        def spy(a, b, **kw):
            shapes.append((a.shape, b.shape))
            return real(a, b, **kw)

        monkeypatch.setattr(np, "matmul", spy)
        for w, ref in zip(clouds, dense):
            assert _ulps(_support_pruned(g, d, w), ref) == 0
        assert shapes and min(min(a[0], b[1]) for a, b in shapes) >= 2

    def test_rows_past_half_a_dense_block(self):
        """140 000 rows, more than the facets of any hull here: the pruned kernel, and the dense max in products of 2 .. 4 rays."""
        g = sampled_sphere_grid(3, 64, seed=9)
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(140_000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        w = np.exp(rng.normal(0.0, 0.3, len(pts)))
        dense = _pair_max(pts, g.directions, w)
        assert _ulps(_support_pruned(g, pts, w), dense) == 0
        assert g._caps is not None
        assert _ulps(_block_max(pts, g.directions, w), dense) == 0

    def test_dense_route_holds_one_block(self, monkeypatch):
        """The 140 000 rows above, the first cap's group floored so that cap takes every row: one block at a time.

        The budget is one block of max(DENSE_BLOCK, 4 rows) products plus
        five vectors of one float or index per row (the groups' order, a
        cap's cosines and bounds, its gather mask and indices): 9.9 MiB,
        where the kernel peaks near 8.5 MiB.  A second block, held while
        the next is made or as a shared buffer, would pass it.
        """
        g = sampled_sphere_grid(3, 64, seed=9)
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(140_000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        w = np.exp(rng.normal(0.0, 0.3, len(pts)))
        order, starts = group_rows(pts, g.caps().centres)
        w[order[:starts[1]]] = EPS_FLOOR
        dense = _block_max(pts, g.directions, w)
        rows = []
        real = sampleops._block_max

        def spy(p, theta, *args):
            rows.append(len(p))
            return real(p, theta, *args)

        monkeypatch.setattr(sampleops, "_block_max", spy)
        tracemalloc.start()
        try:
            out = _support_pruned(g, pts, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _ulps(out, dense) == 0
        assert len(pts) in rows
        assert peak < 8 * max(DENSE_BLOCK, 4 * len(pts)) + 5 * 8 * len(pts)

    def test_small_grid_builds_no_caps(self):
        """Below DENSE_BLOCK / RAY_BLOCK points C and the facet support take the dense max, which reads no caps."""
        g = sampled_sphere_grid(3, 1024, seed=4)
        h = support_of_cloud(g, np.exp(np.random.default_rng(4).normal(0.0, 0.3, 1024)))
        certificate_violation(g, h)
        hull_radial(g, radial_of_halfspaces(g, h))
        assert g._caps is None

    def test_c_takes_few_products(self, monkeypatch):
        """C of a hull body in 3D at N = 4096 takes at most 12 % of the N^2 products (a bound per point group took over 20 %)."""
        g = sampled_sphere_grid(3, 4096, seed=2)
        h = support_of_cloud(g, np.exp(np.random.default_rng(2).normal(0.0, 0.3, 4096)))
        count = [0]
        real = np.matmul

        def spy(a, b, **kw):
            count[0] += a.shape[0] * b.shape[1]
            return real(a, b, **kw)

        monkeypatch.setattr(np, "matmul", spy)
        for w in (h, 1.0 / h):
            count[0] = 0
            support_of_cloud(g, w)
            assert 0 < count[0] <= 0.12 * 4096 ** 2


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
        monkeypatch.setattr(scipy.spatial, "ConvexHull", lambda p: seen.append(p) or ConvexHull(p))
        _hull_radial_qhull(g, pts)
        assert seen[0] is pts


# the dense M x N expressions that global_average and projected_radial held
# before they shared the blocked kernels; they multiply rays by points, the
# kernels points by rays
def _dense_rotated_point_max(pts, dirs):
    return np.maximum(dirs @ pts.T, 0.0).max(axis=1)


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
    """The petal radial and the ball-union radial against the shape-free reference and the dense expressions they replaced."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_equals_dense_expressions(self, dim):
        """Bit-equal to the 2 x 2 products of _pair_products at every shape, one petal and two or three rays included.

        The wide expressions the kernels replaced round a lone petal by gemv
        and the last columns of a wide product by another BLAS kernel, so
        they differ from these in a few entries.  Bit equality depends on the
        BLAS.
        """
        rng = np.random.default_rng(dim)
        for m in (1, 7, 32, 96, 500, 3000):
            for n in (2, 3, 720, 886, 2052, 4100):
                dirs, pts, rho = _kernel_case(rng, dim, m, n)
                assert _ulps(_block_max(pts, dirs), _pair_max(pts, dirs)) == 0, (m, n)
                assert _ulps(_ball_union_radial(pts, rho, dirs), _pair_ball_union(pts, rho, dirs)) == 0, (m, n)

    @pytest.mark.parametrize("dim, m, n", [(4, 4, 2048), (8, 32, 2048)])
    def test_benchmark_shapes_bit_equal_in_both_orientations(self, dim, m, n):
        """The 4D global average (4 petals, 2048 rays) and the 16 -> 8 projection (32 petals, 2048 rays).

        Both orientations round alike at these shapes with OpenBLAS 0.3.31;
        bit equality depends on the BLAS.
        """
        rng = np.random.default_rng(m + n)
        for _ in range(20):
            dirs, pts, rho = _kernel_case(rng, dim, m, n)
            assert _ulps(_block_max(pts, dirs), _dense_rotated_point_max(pts, dirs)) == 0
            assert _ulps(_ball_union_radial(pts, rho, dirs), _dense_projected_ball_union(pts, rho, dirs)) == 0

    def test_ball_union_holds_a_block_and_its_reach(self):
        """140 000 balls on 64 rays: each block of products and its reach, no third block.

        The budget is two blocks of max(DENSE_BLOCK, 4 rows) floats plus
        dim + 3 floats per row (the scaled centres, radii and their squares,
        and base): 15.0 MiB, where the kernel peaks near 12.9 MiB.  A reach
        taken in more than one temporary, or the next block made while the
        last is held, would pass it.
        """
        dirs, pts, rho = _kernel_case(np.random.default_rng(11), 3, 140_000, 64)
        tracemalloc.start()
        try:
            out = _ball_union_radial(pts, rho, dirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (64,) and (out > 0.0).all()
        assert peak < 2 * 8 * max(DENSE_BLOCK, 4 * len(pts)) + (3 + 3) * 8 * len(pts)

    @pytest.mark.parametrize("dim, n", [(2, 720), (2, 4100), (3, 2052), (8, 2048)])
    def test_polytope_support_is_petal_flower_radial(self, dim, n):
        """r_F = h_K bit for bit: the flower of the petals A and the support of conv(A + {0})."""
        g = uniform_angle_grid(n) if dim == 2 else sampled_sphere_grid(dim, n, seed=dim)
        rng = np.random.default_rng(n)
        for m in (1, 7, 500):
            a = rng.normal(size=(m, dim))
            h = polytope_body(g, a).support
            assert h.tobytes() == flower_from_petals(a, g).radial.tobytes()
            assert _ulps(h, np.maximum(_pair_max(a, g.directions), EPS_FLOOR)) == 0

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


def _grid2():
    return uniform_angle_grid(16)


def _grid3():
    return sampled_sphere_grid(3, 64, seed=0)


# refusals that no other test reaches: (call, error, message)
BODIES_REFUSALS = [
    pytest.param(lambda: flower_from_petals(np.ones((2, 3)), _grid2()), ParameterError,
                 "petal points have wrong dimension", id="flower_from_petals-dim"),
    pytest.param(lambda: Flower(_grid2(), np.ones(16), petals=np.ones((2, 3))), ParameterError,
                 "petal points have wrong dimension", id="Flower-petal-dim"),
    pytest.param(lambda: polar(ConvexBody(_grid2(), np.ones(16))), CertificationRequiredError,
                 "polar needs a certified convex body", id="polar-uncertified"),
    pytest.param(lambda: minkowski_sum_2d(*[flower_from_petals(np.eye(3), _grid3())] * 2), UnsupportedDimensionError,
                 "minkowski_sum_2d needs dim 2", id="minkowski_sum_2d-3d"),
    pytest.param(lambda: random_convex_body(_grid3(), seed=0), UnsupportedDimensionError,
                 "random_convex_body generates 2D bodies", id="random_convex_body-3d"),
    pytest.param(lambda: rotate_star_2d(StarBody(_grid3(), np.ones(64)), 0.1), UnsupportedDimensionError,
                 "rotate_star_2d needs a 2D grid", id="rotate_star_2d-3d"),
    pytest.param(lambda: reflect_star_2d(StarBody(_grid3(), np.ones(64))), UnsupportedDimensionError,
                 "reflect_star_2d needs a 2D grid", id="reflect_star_2d-3d"),
    pytest.param(lambda: unit_ball(_grid2(), 0.0), ParameterError, "radius must be positive", id="unit_ball-radius"),
    pytest.param(lambda: scale_star(StarBody(_grid2(), np.ones(16)), 0.0), ParameterError,
                 "scale factor must be positive", id="scale_star-factor"),
]


@pytest.mark.parametrize("call, error, message", BODIES_REFUSALS)
def test_refusal(assert_refusal, call, error, message):
    assert_refusal(call, error, message)
