import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowerlab.calculus as calculus
from flowerlab.bodies import (
    ConvexBody,
    StarBody,
    alexandrov,
    cof,
    convexify_support,
    flower_of,
    is_support_consistent,
    polar,
    polytope_body,
    random_convex_body,
    regular_polygon_vertices,
    square_body,
    sup_log_distance,
    unit_ball,
    volume,
)
from flowerlab.calculus import (
    Partition,
    RadialMap,
    apply_radial_map,
    check_composition_bm,
    compose,
    log_mean_0,
    power,
    power_naive,
    power_partition,
    radial_compose,
    radial_product,
)
from flowerlab.errors import ConvergenceError, DegenerateInputError, ParameterError
from flowerlab.spherecore import uniform_angle_grid


class TestPartition:
    def test_geometric_mesh(self):
        p = Partition.geometric(0.5, 1.0, 4)
        assert p.steps == 4
        assert np.allclose(p.endpoints[:-1] / p.endpoints[1:], 0.5 ** 0.25)

    def test_rejects_non_increasing(self):
        with pytest.raises(ParameterError):
            Partition([1.0, 1.0, 2.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            Partition([-1.0, 1.0])


class TestRadialMap:
    def test_zero_fixed_check(self, grid720):
        bad = RadialMap(lambda dirs, r: r + 1.0)
        with pytest.raises(ParameterError):
            bad.check_zero_fixed(grid720)
        RadialMap.power(0.5).check_zero_fixed(grid720)

    def test_apply_identity(self, grid720):
        k = random_convex_body(grid720, 0)
        out = apply_radial_map(k, RadialMap(lambda dirs, r: r))
        assert np.abs(out.support - k.support).max() < 1e-12

    def test_apply_doubling(self, grid720):
        k = random_convex_body(grid720, 1)
        out = apply_radial_map(k, RadialMap.scale(2.0))
        assert np.abs(out.support - 2.0 * k.support).max() < 1e-12

    def test_ball_power_fixed(self, grid720):
        b = unit_ball(grid720)
        for lam in (0.3, 2.0):
            out = apply_radial_map(b, RadialMap.power(lam))
            assert np.abs(out.support - 1.0).max() < 1e-12


class TestPowerNaive:
    def test_ball_scaling(self, grid720):
        b = unit_ball(grid720, radius=2.0)
        out = power_naive(b, 0.5)
        assert np.abs(out.support - 2.0 ** 0.5).max() < 1e-12

    def test_regime_square_needs_no_convexification(self, grid720):
        # B <= K <= sqrt(2) B: S_lambda(K) is already convex, so the naive
        # power's radial equals r^lambda exactly
        k = square_body(grid720)
        out = power_naive(k, 0.5)
        assert np.abs(out.radial() - k.radial() ** 0.5).max() < 1e-12

    def test_saroglou_inequality(self, grid720):
        # |P_lambda(K)| <= |B|^(1-lam) |K|^lam
        for seed in range(10):
            k = random_convex_body(grid720, seed + 10, amp=0.5)
            for lam in (0.25, 0.5, 0.75):
                bound = np.pi ** (1 - lam) * volume(k) ** lam
                assert volume(power_naive(k, lam)) <= bound + 1e-9

    def test_rejects_nonpositive_lambda(self, grid720):
        with pytest.raises(ParameterError):
            power_naive(unit_ball(grid720), 0.0)


class TestPower:
    def test_lambda_one_and_zero(self, grid720):
        k = random_convex_body(grid720, 2)
        assert np.array_equal(power(k, 1.0).body.support, k.support)
        assert np.all(power(k, 0.0).body.support == 1.0)

    def test_lambda_one_returns_k_itself(self, grid720):
        # a copy of a hull-backed body would drop its hull radial for the
        # outer radial D(h), up to 3.3e-3 off in log on this body
        k = convexify_support(StarBody(grid720, np.exp(0.3 * np.random.default_rng(0).standard_normal(720))))
        for out in (power(k, 1.0).body, power_partition(k, 1.0, Partition.geometric(1.0, 2.0, 4))):
            assert out.radial().tobytes() == k.radial().tobytes()
            assert volume(out) == volume(k)

    def test_scaled_ball(self, grid720):
        res = power(unit_ball(grid720, 2.0), 0.5)
        assert np.abs(res.body.support - np.sqrt(2.0)).max() < 1e-12
        assert res.m_final <= 4

    def test_square_power_and_roundtrip(self, grid720):
        k = square_body(grid720)
        res = power(k, 0.5)
        assert np.abs(res.body.radial() - k.radial() ** 0.5).max() < 1e-12
        back = power(res.body, 2.0)
        assert sup_log_distance(back.body.radial(), k.radial()) < 1e-10

    def test_cube_on_sphere_fixed_for_lambda_above_one(self, grid720):
        k = square_body(grid720, half_width=1 / np.sqrt(2))
        res = power(k, 2.0)
        assert np.abs(res.body.support - k.support).max() < 1e-12

    def test_partition_above_one_approaches_the_power_map(self, grid720):
        # lambda > 1 applies s_i = t_i / t_{i-1} from s_1 on; 64 steps lie within 8.8e-7 of the power map
        k = random_convex_body(grid720, 1)
        body = power_partition(k, 2.0, Partition.geometric(1.0, 2.0, 64))
        assert sup_log_distance(body.radial(), power(k, 2.0).body.radial()) < 1e-6

    def test_partition_above_one_must_span_one_to_lambda(self, grid720):
        k = random_convex_body(grid720, 1)
        with pytest.raises(ParameterError, match=r"span \[1, lambda\]"):
            power_partition(k, 2.0, Partition.geometric(1.0, 3.0, 8))

    def test_refinement_monotonicity(self, grid720):
        # nested geometric partitions: doubling m only grows the body
        k = random_convex_body(grid720, 5, amp=0.6)
        lam = 0.3
        prev = None
        for m in (2, 4, 8, 16):
            body = power_partition(k, lam, Partition.geometric(lam, 1.0, m))
            r = body.radial()
            if prev is not None:
                assert np.all(r >= prev - 1e-12)
            prev = r

    def test_radial_support_comparison(self, grid720):
        # r_{K^lam} >= r_K^lam and h_{K^lam} <= h_K^lam for lam <= 1
        k = random_convex_body(grid720, 6, amp=0.5)
        for lam in (0.4, 0.8):
            res = power(k, lam)
            assert np.all(res.body.radial() >= k.radial() ** lam - 1e-12)
            assert np.all(res.body.support <= k.support ** lam + 1e-12)

    def test_homogeneity(self, grid720):
        # (tK)^lam = t^lam K^lam on samples
        k = random_convex_body(grid720, 7)
        t, lam = 1.7, 0.6
        tk = ConvexBody(grid720, t * k.support, certified=True)
        a = power(tk, lam).body.support
        b = t ** lam * power(k, lam).body.support
        assert np.abs(a / b - 1.0).max() < 1e-9

    def test_monotonicity_in_k(self, grid720):
        k1 = random_convex_body(grid720, 8)
        k2 = ConvexBody(grid720, k1.support * 1.25, certified=True)
        lam = 0.5
        assert np.all(power(k1, lam).body.support <= power(k2, lam).body.support + 1e-12)

    def test_semigroup_within_regimes(self, grid720):
        for seed in (0, 3):
            k = random_convex_body(grid720, seed + 30, amp=0.3)
            a = power(power(k, 0.5).body, 0.5).body.radial()
            b = power(k, 0.25).body.radial()
            assert sup_log_distance(a, b) < 1e-3
            c = power(power(k, 1.5).body, 2.0).body.radial()
            d = power(k, 3.0).body.radial()
            assert sup_log_distance(c, d) < 1e-3

    def test_uniqueness_probe(self, grid720):
        # distinct exponents give distinct powers unless K is the ball
        k = random_convex_body(grid720, 9, amp=0.5)
        assert sup_log_distance(k.radial(), np.ones(720)) > 1e-5
        r1 = power(k, 0.4).body.radial()
        r2 = power(k, 0.8).body.radial()
        i, j = int(np.argmax(k.radial())), int(np.argmin(k.radial()))
        assert abs(r1[i] - r2[i]) > 1e-5 or abs(r1[j] - r2[j]) > 1e-5

    def test_volume_inequalities(self, grid720):
        for seed in range(5):
            k = random_convex_body(grid720, seed + 40, amp=0.5)
            volk = volume(k)
            for lam in (0.5,):
                assert volume(power(k, lam).body) <= np.pi ** (1 - lam) * volk ** lam + 1e-9
            for lam in (2.0,):
                assert volume(power(k, lam).body) >= np.pi ** (1 - lam) * volk ** lam - 1e-9

    def test_convergence_failure_raises(self, grid720, monkeypatch):
        monkeypatch.setattr(calculus, "POWER_M_CAP", 4)
        k = random_convex_body(grid720, 11, amp=0.7)
        with pytest.raises(ConvergenceError) as ei:
            power(k, 0.2, tol=1e-14)
        assert ei.value.increment > 1e-14

    def test_negative_lambda_rejected(self, grid720):
        with pytest.raises(ParameterError):
            power(unit_ball(grid720), -0.5)

    @pytest.mark.parametrize("scale", [0.1, 10.0])
    def test_pass_leaving_the_floats_is_refused(self, grid720, scale):
        # radii all below 1 underflow to 0, radii all above 1 overflow to inf
        k = random_convex_body(grid720, 4)
        k = ConvexBody(grid720, scale * k.support, certified=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="left the float range"):
                power(k, 1e300)

    def test_cube_power_doubling_depth_pinned(self):
        # K^3 at N=2048 converges at m=256, i.e. after 2*256-2 = 510 hull calls
        from flowerlab.spherecore import uniform_angle_grid

        k = random_convex_body(uniform_angle_grid(2048), 20000, amp=0.3, kmax=5)
        assert power(k, 3.0).m_final == 256


class TestMonotoneCompositionInclusion:
    def test_inclusion_for_increasing_outer_map(self, grid720):
        # (f1 o f2)(K) subseteq f1(f2(K)) when f1 is increasing
        k = random_convex_body(grid720, 12, amp=0.5)
        f1 = RadialMap.power(0.7)
        f2 = RadialMap(lambda dirs, r: r * (1.0 + 0.3 * np.abs(dirs[:, 0])))
        composed = RadialMap(lambda dirs, r: f1.evaluator(dirs, f2.evaluator(dirs, r)))
        lhs = apply_radial_map(k, composed)
        rhs = apply_radial_map(f2 and apply_radial_map(k, f2), f1)
        assert np.all(lhs.support <= rhs.support + 1e-12)


class TestCompositions:
    def test_ball_is_identity(self, grid720):
        b = unit_ball(grid720)
        k = random_convex_body(grid720, 13)
        assert np.abs(compose(b, k).support - k.support).max() < 1e-12
        assert np.abs(radial_compose(b, k).support - k.support).max() < 1e-12

    def test_compose_with_polar_gives_ball(self, grid720):
        for seed in range(5):
            t = random_convex_body(grid720, seed + 60)
            out = compose(t, polar(t))
            assert np.abs(out.support - 1.0).max() < 1e-9

    def test_square_square_dense_oracle(self, grid720):
        # dense-grid hull oracle for square o square
        k = square_body(grid720)
        out = compose(k, k)
        th_f = np.linspace(0, 2 * np.pi, 5760, endpoint=False)
        c, s = np.cos(th_f), np.sin(th_f)
        r_f = (np.abs(c) + np.abs(s)) / np.maximum(np.abs(c), np.abs(s))
        cloud = r_f[:, None] * np.stack([c, s], axis=1)
        oracle = (cloud @ grid720.directions.T).max(axis=0)
        assert np.abs(out.support - oracle).max() < 1e-6

    def test_radial_compose_commutative(self, grid720):
        t = random_convex_body(grid720, 14)
        k = random_convex_body(grid720, 15)
        assert np.array_equal(radial_compose(t, k).support, radial_compose(k, t).support)

    def test_ball_product(self, grid720):
        a = unit_ball(grid720, 1.5)
        b = unit_ball(grid720, 2.0)
        assert np.abs(radial_compose(a, b).support - 3.0).max() < 1e-12

    def test_radial_product_reciprocal(self, grid720):
        k = random_convex_body(grid720, 16)
        f = flower_of(k)
        prod = radial_product(f, cof(f))
        assert np.abs(prod.radial - 1.0).max() < 1e-12

    def test_product_with_ball_identity(self, grid720):
        s = StarBody(grid720, np.exp(0.2 * np.sin(grid720.angles())))
        b = StarBody(grid720, np.ones(720))
        assert np.array_equal(radial_product(s, b).radial, s.radial)

    def test_compose_is_hull_of_flower_product(self, grid720):
        # T o K = conv(flower(T) . K) as star bodies
        from flowerlab.bodies import convexify_support

        t = random_convex_body(grid720, 17)
        k = random_convex_body(grid720, 18)
        lhs = compose(t, k)
        rhs = convexify_support(radial_product(flower_of(t), StarBody(k.grid, k.radial())))
        assert np.abs(lhs.support - rhs.support).max() < 1e-12


class TestLogMean:
    def test_endpoints(self, grid720):
        k = random_convex_body(grid720, 19)
        t = random_convex_body(grid720, 20)
        assert np.abs(log_mean_0(k, t, 0.0).support - k.support).max() < 1e-12
        assert np.abs(log_mean_0(k, t, 1.0).support - t.support).max() < 1e-12

    def test_equal_bodies_fixed(self, grid720):
        k = random_convex_body(grid720, 21)
        assert np.abs(log_mean_0(k, k, 0.3).support - k.support).max() < 1e-12

    def test_dual_log_mean_identity(self, grid720):
        # power_naive(K, lam) = polar((1-lam) B +_0 lam polar(K))
        for seed in range(5):
            k = random_convex_body(grid720, seed + 70)
            for lam in (0.25, 0.5, 0.75):
                lhs = power_naive(k, lam)
                rhs = polar(log_mean_0(unit_ball(grid720), polar(k), lam))
                assert np.abs(lhs.support - rhs.support).max() < 1e-4

    def test_lambda_range(self, grid720):
        k = unit_ball(grid720)
        with pytest.raises(ParameterError):
            log_mean_0(k, k, 1.5)


class TestBmProbe:
    def test_ball_reduces_to_brunn_minkowski(self, grid720):
        b = unit_ball(grid720)
        for seed in range(5):
            k1 = random_convex_body(grid720, seed + 80)
            k2 = random_convex_body(grid720, seed + 90)
            rep = check_composition_bm(b, k1, k2, mode="compose")
            assert rep.margin >= -1e-6

    def test_homothets_equality(self, grid720):
        b = unit_ball(grid720)
        k = square_body(grid720)
        rep = check_composition_bm(b, k, k, mode="compose")
        assert abs(rep.margin) < 1e-9

    @pytest.mark.parametrize("mode, op", [("compose", compose), ("rcompose", radial_compose)])
    def test_sum_body_is_certified(self, grid720, monkeypatch, mode, op):
        # h1 + h2 of two certified bodies fails the certificate here by 3.5e-4;
        # the probe composes with the largest certified body below it
        seen = []
        monkeypatch.setattr(calculus, "compose" if mode == "compose" else "radial_compose",
                            lambda t, k: seen.append(k) or op(t, k))
        k1, k2 = random_convex_body(grid720, 80), random_convex_body(grid720, 90)
        check_composition_bm(unit_ball(grid720), k1, k2, mode=mode)
        assert not is_support_consistent(grid720, k1.support + k2.support).ok
        ksum = seen[0]
        assert ksum.certified and is_support_consistent(grid720, ksum.support).ok
        assert np.all(ksum.support <= (k1.support + k2.support) * (1.0 + 4e-16))  # below h1 + h2, to an ulp

    def test_near_ball_probe_runs(self, grid720):
        t = random_convex_body(grid720, 99, amp=0.05)
        k1 = random_convex_body(grid720, 100)
        k2 = random_convex_body(grid720, 101)
        rep = check_composition_bm(t, k1, k2, mode="rcompose")
        assert np.isfinite(rep.margin)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6), lam=st.floats(0.2, 0.95))
def test_power_radial_dominates_naive(seed, lam):
    from flowerlab.spherecore import uniform_angle_grid

    g = uniform_angle_grid(180)
    k = random_convex_body(g, seed, amp=0.4)
    res = power(k, lam, tol=1e-5)
    naive = power_naive(k, lam)
    assert np.all(res.body.support >= naive.support - 1e-10)


class TestRegimeThreshold:
    def test_beyond_sqrt2_convexification_kicks_in(self, grid720):
        # just inside the sqrt(2) sandwich the naive power needs no hull; a
        # rectangle 1 x 1.25*sqrt(2) leaves the regime and the hull strictly
        # inflates the powered radial somewhere (sharpness itself not asserted)
        inside = polytope_body(grid720, 0.99 * regular_polygon_vertices(4, np.sqrt(2.0), phase=np.pi / 4))
        a = 3.0
        outside = alexandrov(polytope_body(grid720, [[a, 1.0], [-a, 1.0], [-a, -1.0], [a, -1.0]]).support, grid720)
        lam = 0.5
        r_in = inside.radial()
        assert np.abs(power_naive(inside, lam).radial() - r_in ** lam).max() < 1e-9
        r_out = outside.radial()
        inflation = power_naive(outside, lam).radial() - r_out ** lam
        assert inflation.max() > 1e-3

    def test_degenerate_radial_map_output(self, grid720):
        k = random_convex_body(grid720, 55)
        collapse = RadialMap(lambda dirs, r: np.zeros_like(r))
        with pytest.raises(Exception) as ei:
            apply_radial_map(k, collapse)
        from flowerlab.errors import DegenerateInputError

        assert isinstance(ei.value, DegenerateInputError)


def test_power_flower_transport(grid720):
    # F^lambda computed on the core and wrapped back through the flower map
    from flowerlab.bodies import flower_of, is_flower
    from flowerlab.calculus import power_flower

    k = square_body(grid720)
    f = flower_of(k)
    fh = power_flower(f, 0.5)
    assert is_flower(fh, tol=1e-9).ok
    assert np.array_equal(fh.radial, power(k, 0.5).body.support)


def test_uncertified_body_rejected_by_maps(grid720):
    from flowerlab.errors import CertificationRequiredError

    k = ConvexBody(grid720, np.ones(720), certified=False)
    with pytest.raises(CertificationRequiredError):
        power_naive(k, 0.5)
    with pytest.raises(CertificationRequiredError):
        power(k, 0.5)
    with pytest.raises(CertificationRequiredError):
        power_partition(k, 0.5, Partition.geometric(0.5, 1.0, 4))
    ball = unit_ball(grid720)
    for op in (compose, radial_compose):
        for t, b in ((k, ball), (ball, k)):
            with pytest.raises(CertificationRequiredError):
                op(t, b)


# refusals that no other test reaches: (call, error, message)
CALCULUS_REFUSALS = [
    pytest.param(lambda: power(unit_ball(uniform_angle_grid(16)), 0.5, tol=0.0), ParameterError,
                 "tolerance must be positive", id="power-tol"),
    pytest.param(lambda: check_composition_bm(*[unit_ball(uniform_angle_grid(16))] * 3, mode="sum"), ParameterError,
                 "mode must be 'compose' or 'rcompose'", id="bm-mode"),
    pytest.param(lambda: Partition(np.array([1.0])), ParameterError,
                 "a partition needs at least two endpoints", id="partition-one-endpoint"),
    pytest.param(lambda: RadialMap.scale(0.0), ParameterError, "scale factor must be positive", id="scale-factor"),
    pytest.param(lambda: power_partition(unit_ball(uniform_angle_grid(16)), 0.5, Partition(np.array([0.25, 1.0]))),
                 ParameterError, "partition must span [lambda, 1]", id="partition-span"),
    pytest.param(lambda: Partition.geometric(0.5, 2.0, -2), ParameterError,
                 "a geometric partition needs a whole number m >= 1 of steps", id="geometric-negative-m"),
    pytest.param(lambda: Partition.geometric(0.5, 2.0, 2.5), ParameterError,
                 "a geometric partition needs a whole number m >= 1 of steps", id="geometric-fractional-m"),
]

# nan and inf parameters, which plain comparisons let through, are refused before any hull pass
NONFINITE_REFUSALS = [
    pytest.param(lambda: power(random_convex_body(uniform_angle_grid(720), 0), 0.5, tol=np.nan), ParameterError,
                 "tolerance must be finite", id="power-tol-nan"),
    pytest.param(lambda: power(unit_ball(uniform_angle_grid(16)), np.nan), ParameterError,
                 "power exponent must be finite", id="power-lambda-nan"),
    pytest.param(lambda: power(unit_ball(uniform_angle_grid(16)), np.inf), ParameterError,
                 "power exponent must be finite", id="power-lambda-inf"),
    pytest.param(lambda: power_partition(unit_ball(uniform_angle_grid(16)), np.nan, Partition.geometric(0.5, 1.0, 4)),
                 ParameterError, "power exponent must be finite", id="power-partition-nan"),
    pytest.param(lambda: Partition([np.nan, 1.0]), ParameterError,
                 "endpoints must be finite, positive and strictly increasing", id="partition-nan"),
    pytest.param(lambda: Partition([1.0, np.inf]), ParameterError,
                 "endpoints must be finite, positive and strictly increasing", id="partition-inf"),
    pytest.param(lambda: Partition.geometric(-1, 2, 4), ParameterError,
                 "a geometric partition needs finite positive ends", id="geometric-negative"),
    pytest.param(lambda: RadialMap.power(np.nan), ParameterError, "power exponent must be finite", id="map-power-nan"),
    pytest.param(lambda: RadialMap.scale(np.inf), ParameterError, "scale factor must be finite", id="map-scale-inf"),
    pytest.param(lambda: RadialMap(lambda dirs, r: r * np.nan).check_zero_fixed(uniform_angle_grid(16)), ParameterError,
                 "radial map must satisfy f(theta, 0) = 0", id="map-nan-at-zero"),
]


@pytest.mark.parametrize("call, error, message", CALCULUS_REFUSALS)
def test_refusal(assert_refusal, call, error, message):
    assert_refusal(call, error, message)


@pytest.mark.parametrize("call, error, message", NONFINITE_REFUSALS)
def test_nonfinite_parameter_refused(assert_refusal, call, error, message, monkeypatch):
    monkeypatch.setattr(calculus, "hull_radial", lambda *a: pytest.fail("a hull pass ran"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_refusal(call, error, message)
