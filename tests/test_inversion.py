import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import flowerlab.inversion as inversion
from flowerlab.errors import (
    ArcThroughInfinityError,
    DegenerateInputError,
    ParameterError,
    SingularPointError,
)
from flowerlab.inversion import (
    CONVEX_POSITION_TOL,
    OffOriginBall,
    OffOriginPolytope,
    TruncatedOutCone,
    _convex_position_depth,
    _direct_image_cloud,
    arc_points,
    cone_membership,
    invert_ball,
    invert_point,
    invert_points,
    is_inversion_convex,
)


def fit_sphere(pts):
    """LSQ oracle: solve |y|^2 = 2 <c, y> + g for center and radius."""
    a = np.hstack([2 * pts, np.ones((len(pts), 1))])
    b = (pts ** 2).sum(axis=1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    c, g = sol[:-1], sol[-1]
    rad = np.sqrt(g + (c ** 2).sum())
    resid = np.abs(np.linalg.norm(pts - c, axis=1) - rad).max()
    return c, rad, resid


class TestInvertPoint:
    def test_unit_sphere_fixed(self):
        assert np.array_equal(invert_point(np.array([1.0, 0.0])), [1.0, 0.0])

    def test_doubling(self):
        assert np.allclose(invert_point(np.array([2.0, 0.0])), [0.5, 0.0])

    def test_origin_rejected(self):
        with pytest.raises(SingularPointError):
            invert_point(np.zeros(3))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=4))
    def test_involution(self, coords):
        x = np.asarray(coords)
        if np.linalg.norm(x) < 1e-3:
            return
        assert np.abs(invert_point(invert_point(x)) - x).max() < 1e-12 * max(1, np.abs(x).max())


class TestInvertBall:
    def test_three_one_example(self):
        c, r = invert_ball(np.array([3.0, 0.0]), 1.0)
        assert np.allclose(c, [3 / 8, 0.0]) and r == pytest.approx(1 / 8)

    def test_two_one_example(self):
        c, r = invert_ball(np.array([2.0, 0.0]), 1.0)
        assert np.allclose(c, [2 / 3, 0.0]) and r == pytest.approx(1 / 3)

    def test_orthogonal_ball_fixed(self):
        # |c|^2 - rho^2 = 1: the ball is orthogonal to the unit sphere
        c0 = np.array([np.sqrt(2.0), 0.0])
        c, r = invert_ball(c0, 1.0)
        assert np.allclose(c, c0) and r == pytest.approx(1.0)

    def test_sampling_oracle(self, rng):
        # invert boundary points, fit a sphere, compare residual and parameters
        for _ in range(50):
            d = int(rng.integers(2, 4))
            c0 = rng.normal(size=d)
            c0 *= (1.5 + 2 * rng.random()) / np.linalg.norm(c0)
            rho = rng.uniform(0.05, np.linalg.norm(c0) - 0.2)
            cp, rp = invert_ball(c0, rho)
            u = rng.normal(size=(2000, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            img = invert_points(c0 + rho * u)
            cf, rf, resid = fit_sphere(img)
            assert resid < 1e-9
            assert np.abs(cf - cp).max() < 1e-9 and abs(rf - rp) < 1e-9

    def test_origin_inside_rejected(self):
        with pytest.raises(DegenerateInputError):
            invert_ball(np.array([0.5, 0.0]), 1.0)


class TestArcPoints:
    def test_identical_endpoints(self):
        e1 = np.array([1.0, 0.0])
        pts = arc_points(e1, e1, np.linspace(0, 1, 5))
        assert np.abs(pts - e1).max() == 0.0

    def test_collinear_degenerates_to_segment(self):
        x = np.array([1.0, 0.0])
        y = np.array([2.0, 0.0])
        pts = arc_points(x, y, np.array([0.0, 0.5, 1.0]))
        assert np.abs(pts[:, 1]).max() < 1e-14
        assert pts[0, 0] == pytest.approx(1.0) and pts[-1, 0] == pytest.approx(2.0)
        assert 1.0 < pts[1, 0] < 2.0

    def test_quarter_circle_midpoint(self):
        # circle through 0, e1, e2 has center (1/2, 1/2); the far arc midpoint is (1, 1)
        mid = arc_points(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5]))[0]
        assert np.allclose(mid, [1.0, 1.0], atol=1e-12)

    def test_opposite_rays_rejected(self):
        with pytest.raises(ArcThroughInfinityError):
            arc_points(np.array([1.0, 0.0]), np.array([-2.0, 0.0]), np.array([0.5]))

    def test_arc_lies_on_circle_through_origin(self, rng):
        for _ in range(20):
            x, y = rng.normal(size=2), rng.normal(size=2)
            if min(np.linalg.norm(x), np.linalg.norm(y)) < 0.3 or abs(x[0] * y[1] - x[1] * y[0]) < 1e-3:
                continue
            pts = arc_points(x, y, np.linspace(0.1, 0.9, 7))
            cloud = np.vstack([pts, x, y, np.zeros(2)])
            _, _, resid = fit_sphere(cloud)
            assert resid < 1e-9


class TestOffOriginShapes:
    def test_polytope_separation_certificate(self):
        p = OffOriginPolytope([[2.0, -1.0], [3.0, 0.0], [2.0, 1.0], [1.5, 0.0]])
        assert p.separation > 0
        assert min(v @ p.separating_direction for v in p.vertices) > 0

    def test_origin_inside_rejected(self):
        with pytest.raises(DegenerateInputError):
            OffOriginPolytope([[1.0, 1.0], [-1.0, 1.0], [0.0, -1.0]])

    def test_flat_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            OffOriginPolytope([[1.0, 1.0], [2.0, 2.0]])

    def test_ray_interval(self):
        p = OffOriginPolytope([[1.0, -1.0], [1.0, 1.0], [2.0, 1.0], [2.0, -1.0]])
        lo, hi = p.ray_intervals(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert lo[0] == pytest.approx(1.0) and hi[0] == pytest.approx(2.0)
        assert lo[1] == np.inf and hi[1] == -np.inf  # the ray misses

    def test_ball_ray_interval(self):
        b = OffOriginBall([3.0, 0.0], 1.0)
        lo, hi = b.ray_intervals(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert lo[0] == pytest.approx(2.0) and hi[0] == pytest.approx(4.0)
        assert lo[1] == np.inf and hi[1] == -np.inf  # the ray misses

    def test_outcone_ray_interval(self):
        c = TruncatedOutCone(OffOriginPolytope([[1.0, -1.0], [1.0, 1.0], [2.0, 1.0], [2.0, -1.0]]))
        lo, hi = c.ray_intervals(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert lo[0] == pytest.approx(1.0) and hi[0] == np.inf
        assert lo[1] == np.inf and hi[1] == -np.inf

    @pytest.mark.parametrize("scale", [float("inf"), float("nan")])
    def test_non_finite_truncation_scale_rejected(self, scale):
        p = OffOriginPolytope([[2.0, -1.0], [3.0, 0.0], [2.0, 1.0]])
        with pytest.raises(ParameterError, match="finite"):
            TruncatedOutCone(p, scale)


def per_facet_ray_interval(poly, theta):
    """Reference: one ray at a time, by a Python loop over the hull facets."""
    eq = poly._hull.equations
    a = eq[:, :-1] @ theta
    b = eq[:, -1]
    lo, hi = 0.0, np.inf
    for ai, bi in zip(a, b):
        if abs(ai) < 1e-14:
            if bi > 1e-12:
                return np.inf, -np.inf
            continue
        t = -bi / ai
        if ai > 0:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
    if lo > hi * (1 + 1e-12) + 1e-15:
        return np.inf, -np.inf
    return max(lo, 0.0), hi


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _seeded_polytope(dim, seed):
    rng = np.random.default_rng(seed)
    while True:
        base = rng.normal(size=(dim + 3, dim)) * 0.6
        shift = rng.normal(size=dim)
        try:
            return OffOriginPolytope(base + shift * (2.5 + rng.random()) / np.linalg.norm(shift))
        except DegenerateInputError:
            continue


def _test_rays(poly, rng):
    """Random rays (many miss), rays through vertices and interior points, and rays parallel to facets."""
    normals = poly._hull.equations[:, :-1]
    if poly.dim == 2:
        along = normals[:, ::-1] * [1.0, -1.0]
    else:
        along = np.cross(normals, rng.normal(size=(len(normals), 3)))
    inner = rng.dirichlet(np.ones(len(poly.vertices)), size=20) @ poly.vertices
    rays = [rng.normal(size=(100, poly.dim)), poly.vertices, inner, along, -along,
            -poly.separating_direction[None, :]]
    return _unit(np.vstack(rays))


class TestRayIntervals:
    """ray_intervals against the per-facet loop, bit for bit.

    Both take each ray's facet products as one matrix-vector BLAS product, so
    bit equality, which OpenBLAS gives, depends on the BLAS: a BLAS that fuses
    or orders the sums of the stacked products differently may move an entry
    by an ulp.
    """

    @pytest.mark.parametrize("dim, seed", [(d, s) for d in (2, 3) for s in range(5)] + [(2, None)])
    def test_equals_per_facet_loop(self, dim, seed):
        # seed None: an axis-aligned square; its facet normals have exact zeros,
        # so its facet-parallel rays are exactly parallel
        poly = OffOriginPolytope([[1.0, -1.0], [1.0, 1.0], [2.0, 1.0], [2.0, -1.0]]) if seed is None \
            else _seeded_polytope(dim, seed)
        thetas = _test_rays(poly, np.random.default_rng(0 if seed is None else seed))
        lo, hi = poly.ray_intervals(thetas)
        ref_lo, ref_hi = np.array([per_facet_ray_interval(poly, th) for th in thetas]).T
        np.testing.assert_array_equal(lo.view(np.int64), ref_lo.view(np.int64))
        np.testing.assert_array_equal(hi.view(np.int64), ref_hi.view(np.int64))
        assert (lo == np.inf).any() and (lo < np.inf).any()

    @pytest.mark.parametrize("which", ["in", "out"])
    def test_membership_rows_equal_single_points(self, which):
        rng = np.random.default_rng(7)
        poly3 = _seeded_polytope(3, 1)
        shapes = [_seeded_polytope(2, 0), poly3, TruncatedOutCone(poly3, 6.0),
                  OffOriginBall([0.0, 0.0, 2.5], 1.0)]
        for shape in shapes:
            # points on random rays (many miss) and on rays through the boundary
            rays = _unit(np.vstack([rng.normal(size=(60, shape.dim)), shape.boundary_sample(rng, 60)]))
            zs = rays * rng.uniform(0.2, 5.0, size=(len(rays), 1))
            rows = cone_membership(shape, zs, which)
            assert rows.dtype == bool and rows.shape == (len(zs),)
            assert rows.tolist() == [cone_membership(shape, z, which) for z in zs]
            assert rows.any() and not rows.all()


class TestConeMembership:
    def setup_method(self):
        self.poly = OffOriginPolytope([[2.0, -1.0], [3.0, 0.0], [2.0, 1.0], [1.5, 0.0]])

    def test_vertex_in_both_cones(self):
        v = self.poly.vertices[0]
        assert cone_membership(self.poly, v, "in")
        assert cone_membership(self.poly, v, "out")

    def test_half_vertex_in_cone_only(self):
        v = self.poly.vertices[0]
        assert cone_membership(self.poly, 0.5 * v, "in")
        assert not cone_membership(self.poly, 0.5 * v, "out")

    def test_double_vertex_out_cone_only(self):
        v = self.poly.vertices[1]  # on the far boundary along its ray
        assert cone_membership(self.poly, 2.0 * v, "out")
        assert not cone_membership(self.poly, 2.0 * v, "in")

    def test_zero_rejected(self):
        with pytest.raises(SingularPointError):
            cone_membership(self.poly, np.zeros(2), "in")

    @pytest.mark.parametrize("which, tol", [("in", -2.0), ("out", 2.0)])
    def test_missed_ray_in_neither_cone_at_any_tol(self, which, tol):
        # with |tol| >= 1 the tolerance flips the sign of a missed ray's infinite bound
        misses = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert not cone_membership(self.poly, misses, which, tol=tol).any()

    def test_bad_which(self):
        with pytest.raises(ParameterError):
            cone_membership(self.poly, np.array([1.0, 0.0]), "sideways")


class TestIsInversionConvex:
    def test_ball_is_convex(self):
        v = is_inversion_convex(OffOriginBall([3.0, 0.0], 1.0), samples=200, seed=0)
        assert v.convex and v.witness is None and v.direct_depth < 1e-7

    def test_ball_3d_is_convex(self):
        v = is_inversion_convex(OffOriginBall([0.0, 0.0, 2.5], 1.0), samples=150, seed=1)
        assert v.convex

    def test_slab_counterexample(self):
        t = 0.01
        slab = OffOriginPolytope([[-1, 1 - t], [1, 1 - t], [1, 1 + t], [-1, 1 + t]])
        v = is_inversion_convex(slab, samples=400, seed=2)
        assert not v.convex
        assert v.witness is not None
        x, y, tt = v.witness
        # the witness arc point really leaves the in-cone
        z = arc_points(x, y, np.array([tt]))[0]
        assert not cone_membership(slab, z, "in", tol=1e-7)

    def test_truncated_outcone_convex(self, rng):
        for i in range(10):
            d = 2 if i % 2 == 0 else 3
            base = rng.normal(size=(d + 3, d)) * 0.6
            shift = rng.normal(size=d)
            shift *= 3.0 / np.linalg.norm(shift)
            try:
                poly = OffOriginPolytope(base + shift)
            except DegenerateInputError:
                continue
            v = is_inversion_convex(TruncatedOutCone(poly, 6.0), samples=150, seed=10 + i)
            assert v.convex and v.direct_depth < 1e-7

    def test_generic_polytope_not_convex(self, rng):
        hits = 0
        for i in range(5):
            base = rng.normal(size=(6, 2)) * 0.6 + np.array([4.0, 0.0])
            try:
                poly = OffOriginPolytope(base)
            except DegenerateInputError:
                continue
            v = is_inversion_convex(poly, samples=600, seed=20 + i)
            assert not v.convex
            hits += 1
        assert hits >= 3

    def test_degenerate_direct_cloud_is_domain_error(self, monkeypatch):
        # two direct samples cannot span a hull; qhull's error surfaces as a domain error
        monkeypatch.setattr(inversion, "DIRECT_SAMPLES", 2)
        t = 0.01
        slab = OffOriginPolytope([[-1, 1 - t], [1, 1 - t], [1, 1 + t], [-1, 1 + t]])
        with pytest.raises(DegenerateInputError):
            is_inversion_convex(slab)

    def test_sample_floor(self):
        with pytest.raises(ParameterError):
            is_inversion_convex(OffOriginBall([3.0, 0.0], 1.0), samples=10, seed=0)

    def test_depth_holds_one_points_by_facets_temporary(self):
        # a 4000-point 3D out-cone image has thousands of facets, so a points
        # x facets temporary of the depth scan takes hundreds of MB; the image
        # is in convex position, and hull vertices are not scanned at all
        cone = TruncatedOutCone(_seeded_polytope(3, 0), 6.0)
        cloud = _direct_image_cloud(cone, np.random.default_rng(0), 4000)
        one_temporary = len(cloud) * len(ConvexHull(cloud).equations) * 8
        tracemalloc.start()
        try:
            depth = _convex_position_depth(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert depth == 0.0
        assert peak < 0.05 * one_temporary


    def test_depth_of_a_deep_image_holds_no_points_by_facets_temporary(self):
        # the 3D slab image has 3260 non-vertices against 1476 facets, 37 MiB
        # in one piece; the scan takes DENSE_BLOCK products at a time
        slab = OffOriginPolytope(np.array(np.meshgrid([-1.0, 1.0], [-1.0, 1.0], [0.95, 1.05])).reshape(3, -1).T)
        cloud = _direct_image_cloud(slab, np.random.default_rng(0), 4000)
        hull = ConvexHull(cloud)
        one_temporary = (len(cloud) - len(hull.vertices)) * len(hull.equations) * 8
        tracemalloc.start()
        try:
            depth = _convex_position_depth(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert depth == full_scan_depth(cloud) > 0.0
        assert peak < 0.25 * one_temporary


def full_scan_depth(cloud):
    """Reference: the depth scan over every point, hull vertices included, a block of rows at a time."""
    hull = ConvexHull(cloud)
    a, b = hull.equations[:, :-1], hull.equations[:, -1]
    nearest = np.concatenate([(cloud[i:i + 256] @ a.T + b).max(axis=1) for i in range(0, len(cloud), 256)])
    return float(-nearest.min())


def _depth_corpus(seed):
    """Out-cones, bounded polytopes, slabs and balls in 2D and 3D."""
    rng = np.random.default_rng(seed)
    shapes = []
    for dim in (2, 3):
        box = np.array(np.meshgrid(*[[-1.0, 1.0]] * (dim - 1), [0.95, 1.05])).reshape(dim, -1).T
        shapes += [TruncatedOutCone(_seeded_polytope(dim, seed), 6.0), _seeded_polytope(dim, seed + 100),
                   OffOriginPolytope(box), OffOriginBall(_unit(rng.normal(size=dim)) * 2.5, 1.0)]
    return shapes


class TestDepthAgainstFullScan:
    """The vertex-skipping depth against the scan of every point.

    Hull vertices lie on their facets, so a full scan reads float noise there;
    only the depths of the other points count.  Bit equality off the vertices
    takes a BLAS that rounds a row of a product alike whatever rows surround it.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_off_the_vertices(self, seed):
        for shape in _depth_corpus(seed):
            cloud = _direct_image_cloud(shape, np.random.default_rng(seed), 4000)
            depth, ref = _convex_position_depth(cloud), full_scan_depth(cloud)
            if ref > 1e-15:
                assert depth == ref
            else:  # the full scan's maximum is vertex noise
                assert abs(ref) <= 1e-15 and 0.0 <= depth <= max(ref, 0.0)
                assert np.copysign(1.0, depth) == 1.0

    @pytest.mark.parametrize("seed", range(2))
    def test_verdicts_equal_full_scan_verdicts(self, seed, monkeypatch):
        for shape in _depth_corpus(seed):
            v = is_inversion_convex(shape, seed=seed)
            with monkeypatch.context() as m:
                m.setattr(inversion, "_convex_position_depth", full_scan_depth)
                ref = is_inversion_convex(shape, seed=seed)
            assert v.convex == ref.convex
            assert (v.witness is None) == (ref.witness is None)
            if ref.witness is not None:
                assert all(np.array_equal(a, b) for a, b in zip(v.witness, ref.witness))
            if ref.direct_depth > 1e-15:
                assert v.direct_depth == ref.direct_depth
            else:
                assert 0.0 <= v.direct_depth <= max(ref.direct_depth, 0.0)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: OffOriginPolytope([[2.0, -1.0], [3.0, np.nan], [2.0, 1.0]]), DegenerateInputError),
        (lambda: OffOriginPolytope([[2.0, -1.0], [np.inf, 0.0], [2.0, 1.0]]), DegenerateInputError),
        (lambda: OffOriginBall([np.inf, 0.0], 1.0), DegenerateInputError),
        (lambda: OffOriginBall([3.0, 0.0], np.nan), ParameterError),
        (lambda: OffOriginBall([3.0, 0.0], np.inf), ParameterError),
        (lambda: OffOriginBall([3.0], 1.0), DegenerateInputError),
        (lambda: OffOriginBall([[3.0, 0.0], [0.0, 3.0]], 1.0), DegenerateInputError),
        (lambda: is_inversion_convex(OffOriginBall([3.0, 0.0], 1.0), seed=-1), ParameterError),
        (lambda: is_inversion_convex(OffOriginBall([3.0, 0.0], 1.0), tol=-2.0), ParameterError),
        (lambda: is_inversion_convex(OffOriginBall([3.0, 0.0], 1.0), tol=np.nan), ParameterError),
    ],
    ids=["nan-vertex", "inf-vertex", "inf-center", "nan-radius", "inf-radius", "short-center",
         "matrix-center", "negative-seed", "negative-tol", "nan-tol"],
)
def test_bad_inversion_input_is_a_domain_error(build, error):
    with pytest.raises(error):
        build()


def test_qhull_failure_reads_as_one_repeatable_line():
    # qhull appends its options, with a per-run id, to every error; only its reason is kept
    flat = [[1.0, 0.0, 2.0], [2.0, 0.0, 2.0], [3.0, 1.0, 2.0], [4.0, 3.0, 2.0]]
    messages = set()
    for _ in range(2):
        with pytest.raises(DegenerateInputError) as e:
            OffOriginPolytope(flat)
        messages.add(str(e.value))
    (message,) = messages
    assert message.startswith("degenerate vertex set: QH") and "\n" not in message
