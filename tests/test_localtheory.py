import tracemalloc
import warnings
from itertools import pairwise

import numpy as np
import pytest

import flowerlab.spherecore as spherecore
from flowerlab._sampleops import EPS_FLOOR, _ball_union_radial, _block_max, _pair, _ray_cuts, _row_norms, support_of_cloud
from flowerlab.bodies import (
    Flower,
    StarBody,
    core_of,
    flower_from_petals,
    flower_of,
    scale_star,
    square_body,
    unit_ball,
)
from flowerlab.errors import ParameterError, SymmetryError, UnboundedBodyError, UnsupportedDimensionError
from flowerlab.localtheory import (
    ExperimentReport,
    canonical_petals,
    default_subgrid,
    distance_to_ball,
    dvoretzky_search,
    global_average,
    kashin_petals,
    project_flower,
    projected_radial,
    random_symmetric_flower,
    section_flower,
    section_radial,
    stability_check,
)
from flowerlab.spherecore import (
    SubspaceBasis,
    child_seed,
    random_rotation,
    random_subspace,
    sampled_sphere_grid,
    uniform_angle_grid,
)


def _petalless_flower(dim, n, seed=0):
    """A flower without a petal list: the certified support C(w) of a log-normal cloud, as radial samples."""
    grid = uniform_angle_grid(n) if dim == 2 else sampled_sphere_grid(dim, n, seed=seed, symmetric=True)
    w = np.exp(0.3 * np.random.default_rng(seed).normal(size=n))
    return Flower(grid, support_of_cloud(grid, w))


class TestDistance:
    def test_ball(self, grid720):
        rep = distance_to_ball(StarBody(grid720, np.ones(720)))
        assert rep.value == 1.0

    def test_square(self, grid720):
        rep = distance_to_ball(StarBody(grid720, square_body(grid720).radial()))
        assert rep.value == pytest.approx(np.sqrt(2.0), abs=1e-9)
        # witnesses: max at a diagonal, min on an axis
        assert abs(abs(rep.argmax_direction[0]) - np.sqrt(0.5)) < 1e-2

    def test_square_flower_same_distance(self, grid720):
        # d(K, B) = d(flower_of(K), B): shared max/min of h
        rep = distance_to_ball(flower_of(square_body(grid720)))
        assert rep.value == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_scale_invariance_exact(self, grid720):
        th = grid720.angles()
        a = StarBody(grid720, 1.0 + 0.3 * np.cos(2 * th))
        assert distance_to_ball(a).value == distance_to_ball(scale_star(a, 7.3)).value

    def test_asymmetric_rejected(self, grid720):
        th = grid720.angles()
        a = StarBody(grid720, 1.0 + 0.3 * np.maximum(np.cos(th), 0.0))
        with pytest.raises(SymmetryError):
            distance_to_ball(a)


class TestCanonicalPetals:
    def test_petal_flower_passthrough(self, grid720):
        f = flower_from_petals([[1.0, 0.0], [-1.0, 0.0]], grid720)
        assert canonical_petals(f) is f.petals

    def test_synthesized_from_core(self, grid720):
        f = flower_of(square_body(grid720))
        pts = canonical_petals(f)
        # petals lie on the boundary of the core square
        assert np.abs(np.abs(pts).max(axis=1) - 1.0).max() < 1e-9


class TestProjection:
    def test_full_space_identity(self, grid720):
        f = flower_from_petals([[0.8, 0.2], [-0.8, -0.2], [0.1, -0.9], [-0.1, 0.9]], grid720)
        e = SubspaceBasis(2, 2, np.eye(2))
        p = project_flower(f, e, grid=grid720)
        assert np.abs(p.radial - f.radial).max() < 1e-12

    def test_petal_projects_to_interval(self, grid720):
        # B_{e1} onto span{e1}: the segment-ball [0, 1]
        f = flower_from_petals([[1.0, 0.0]], grid720)
        e = SubspaceBasis(2, 1, np.array([[1.0, 0.0]]))
        r = projected_radial(f, e, np.array([[1.0], [-1.0]]))
        assert r[0] == pytest.approx(1.0, abs=1e-12)
        assert r[1] <= 1e-8  # positivity floor stands in for 0

    def test_orthogonal_petal_projects_to_centered_ball(self, grid720):
        # B_{e2} onto span{e1}: center projects to 0, radius 1/2
        f = flower_from_petals([[0.0, 1.0]], grid720)
        e = SubspaceBasis(2, 1, np.array([[1.0, 0.0]]))
        r = projected_radial(f, e, np.array([[1.0], [-1.0]]))
        assert np.abs(r - 0.5).max() < 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_petalless_projection_is_its_canonical_petal_projection(self, dim):
        f = flower_of(unit_ball(uniform_angle_grid(720))) if dim == 2 else _petalless_flower(3, 512)
        pf = flower_from_petals(canonical_petals(f), f.grid)
        assert pf.petals.shape == (f.grid.size, dim)
        for k in range(1, dim + 1):
            e = random_subspace(dim, k, seed=k)
            kdirs = np.array([[1.0], [-1.0]]) if k == 1 else default_subgrid(k, size=256).directions
            assert projected_radial(f, e, kdirs).tobytes() == projected_radial(pf, e, kdirs).tobytes()

    def test_k1_flower_rejected(self, grid720):
        f = flower_from_petals([[1.0, 0.0]], grid720)
        with pytest.raises(UnsupportedDimensionError):
            project_flower(f, SubspaceBasis(2, 1, np.array([[1.0, 0.0]])))


class TestSection:
    def _petal_flower_3d(self, seed=0, m=24):
        rng = np.random.default_rng(seed)
        grid = sampled_sphere_grid(3, 512, seed=child_seed(seed, 1), symmetric=True)
        x = rng.normal(size=(m, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        x *= rng.uniform(0.7, 1.0, size=(m, 1))
        return flower_from_petals(np.vstack([x, -x]), grid)

    def test_full_space_identity(self, grid720):
        f = flower_from_petals([[0.9, 0.1], [-0.9, -0.1]], grid720)
        e = SubspaceBasis(2, 2, np.eye(2))
        s = section_flower(f, e, grid=grid720)
        assert np.abs(s.radial - f.radial).max() < 1e-12

    def test_core_identity_and_inclusion(self):
        # (F cap E)^{-flower} = P_E(F^{-flower}) and core(P_E F) contains it
        f = self._petal_flower_3d()
        kgrid = uniform_angle_grid(720)
        e = random_subspace(3, 2, seed=5)
        sec = section_flower(f, e, grid=kgrid)
        # support of the projected core = section radial by the lifted-support identity;
        # the projected core's support samples come from the petal hull directly
        lifted = kgrid.directions @ e.frame
        proj_core_support = np.maximum((f.petals @ lifted.T), 0.0).max(axis=0)
        # off-node petals carry certificate slack proportional to their angular
        # offset from the rays; 1e-2 still rejects genuine non-flowers
        sec_core = core_of(sec, tol=1e-2)
        assert np.abs(sec_core.support - np.maximum(proj_core_support, 1e-9)).max() < 1e-9
        # one-sided inclusion: core(P_E F) >= core(F cap E) pointwise in support
        proj = project_flower(f, e, grid=kgrid)
        proj_core = core_of(proj, tol=1e-2)
        assert np.all(proj_core.support >= sec_core.support - 1e-9)

    def test_projection_radial_dominates_section(self):
        f = self._petal_flower_3d(seed=3)
        e = random_subspace(3, 2, seed=9)
        kdirs = uniform_angle_grid(64).directions
        assert np.all(projected_radial(f, e, kdirs) >= section_radial(f, e, kdirs) - 1e-12)


class TestPetallessFlowers:
    """Flowers without a petal list go through their canonical petals (core boundary points at the nodes)."""

    @pytest.mark.parametrize("dim,n", [(2, 720), (2, 2048), (3, 2048), (3, 4096), (4, 1024)])
    def test_section_at_own_nodes_within_4_ulp(self, dim, n):
        f = _petalless_flower(dim, n, seed=dim)
        full = SubspaceBasis(dim, dim, np.eye(dim))
        r = section_radial(f, full, f.grid.directions)
        assert (np.abs(r - f.radial) <= 4 * np.spacing(f.radial)).all()

    def test_projection_radial_dominates_section(self):
        f = _petalless_flower(3, 1024, seed=7)
        kdirs = uniform_angle_grid(256).directions
        for seed in range(4):
            e = random_subspace(3, 2, seed=seed)
            assert (projected_radial(f, e, kdirs) >= section_radial(f, e, kdirs)).all()

    def test_section_holds_no_directions_by_nodes_product(self):
        # one directions x nodes product would be 4096 x 4096 floats, 128 MiB
        f = _petalless_flower(3, 4096, seed=1)
        e = random_subspace(3, 2, seed=2)
        kdirs = uniform_angle_grid(4096).directions
        tracemalloc.start()
        try:
            section_radial(f, e, kdirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_dvoretzky_and_global_average_read_the_canonical_petals(self):
        f = _petalless_flower(3, 512, seed=3)
        pf = Flower(f.grid, f.radial, canonical_petals(f))
        sub = uniform_angle_grid(128)
        a = dvoretzky_search(f, 2, trials=6, seed=4, subgrid=sub, include_sections=True)
        b = dvoretzky_search(pf, 2, trials=6, seed=4, subgrid=sub, include_sections=True)
        assert a.distances.tobytes() == b.distances.tobytes()
        assert a.section_distances.tobytes() == b.section_distances.tobytes()
        assert global_average(f, 8, seed=5) == global_average(pf, 8, seed=5)


class TestPetalFlowerKernels:
    """On petal lists each local-theory output is the direct kernel expression, bit for bit."""

    @pytest.fixture(scope="class")
    def b1(self):  # flower(B_1^16) on a carrier grid, as in the projection/section contrast
        n = 16
        return flower_from_petals(np.vstack([np.eye(n), -np.eye(n)]), sampled_sphere_grid(n, 64, seed=0, symmetric=True))

    @staticmethod
    def _projected(pts, e, dk):
        return np.maximum(_ball_union_radial((pts @ e.frame.T) / 2.0, np.linalg.norm(pts, axis=1) / 2.0, dk), EPS_FLOOR)

    @staticmethod
    def _section(pts, e, dk):
        return np.maximum(_block_max(pts, dk @ e.frame), EPS_FLOOR)

    def test_projection_and_section(self, b1):
        dk = sampled_sphere_grid(8, 512, seed=1, symmetric=True).directions
        e = random_subspace(16, 8, seed=2)
        assert projected_radial(b1, e, dk).tobytes() == self._projected(b1.petals, e, dk).tobytes()
        assert section_radial(b1, e, dk).tobytes() == self._section(b1.petals, e, dk).tobytes()

    def test_dvoretzky(self, b1):
        sub = sampled_sphere_grid(8, 512, seed=3, symmetric=True)
        res = dvoretzky_search(b1, 8, trials=5, seed=11, subgrid=sub, include_sections=True)
        proj, sect = [], []
        for i in range(5):
            e = random_subspace(16, 8, child_seed(11, i))
            rp, rs = self._projected(b1.petals, e, sub.directions), self._section(b1.petals, e, sub.directions)
            proj.append(float(rp.max() / rp.min()))
            sect.append(float(rs.max() / rs.min()))
        assert res.distances.tobytes() == np.array(proj).tobytes()
        assert res.section_distances.tobytes() == np.array(sect).tobytes()
        assert res.best_distance == min(proj)

    def test_global_average(self):
        grid = sampled_sphere_grid(4, 512, seed=4, symmetric=True)
        x = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]])
        f = flower_from_petals(np.vstack([x, -x]), grid)
        acc = np.zeros(grid.size)
        for i in range(16):
            acc += _block_max(f.petals @ random_rotation(4, child_seed(12, i)).matrix.T, grid.directions)
        acc /= 16
        assert global_average(f, 16, seed=12) == float(acc.max() / acc.min())


# The trial loops as they were before the frames were stacked: each trial
# builds its own frame from its own seed, and the ball union takes its root
# in five temporaries.

def _rotation_by_seed(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


def _subspace_by_seed(dim, k, seed):
    rng = np.random.default_rng(seed)
    return np.ascontiguousarray(np.linalg.qr(rng.normal(size=(dim, k)))[0].T)


def _ball_union_by_expression(centers, radii, dirs):
    s = (int(np.frexp(radii.max())[1]) + int(np.frexp(radii.min())[1])) // 2
    n = len(dirs)
    centers, radii, dirs = _pair(np.ldexp(centers, -s)), _pair(np.ldexp(radii, -s)), _pair(dirs)
    base = radii ** 2 - (centers ** 2).sum(axis=1)
    out = np.empty(len(dirs))
    for j, k in pairwise(_ray_cuts(len(centers), len(dirs))):
        ip = centers @ dirs[j:k].T
        out[j:k] = (ip + np.sqrt(np.maximum(base[:, None] + ip ** 2, 0.0))).max(axis=0)
    return np.ldexp(out[:n], s)


def _dvoretzky_by_trial(f, k, trials, seed, subgrid, include_sections):
    """(distances, section distances or None, best frame)."""
    pts = canonical_petals(f)
    if k >= 2:
        kdirs = (subgrid or default_subgrid(k, seed=child_seed(seed, 2 ** 20))).directions
    else:
        kdirs = np.array([[1.0], [-1.0]])
    dists, sects, best = [], [], (np.inf, None)
    for i in range(trials):
        frame = _subspace_by_seed(f.grid.dim, k, child_seed(seed, i))
        rp = np.maximum(_ball_union_by_expression((pts @ frame.T) / 2.0, _row_norms(pts) / 2.0, kdirs), EPS_FLOOR)
        dists.append(float(rp.max() / rp.min()))
        if include_sections:
            rs = np.maximum(_block_max(pts, kdirs @ frame), EPS_FLOOR)
            sects.append(float(rs.max() / rs.min()))
        if dists[-1] < best[0]:
            best = (dists[-1], frame)
    return np.array(dists), np.array(sects) if include_sections else None, best[1]


def _global_average_by_rotation(f, n_rotations, seed):
    grid, pts = f.grid, canonical_petals(f)
    acc = np.zeros(grid.size)
    for i in range(n_rotations):
        acc += _block_max(pts @ _rotation_by_seed(grid.dim, child_seed(seed, i)).T, grid.directions)
    acc /= n_rotations
    lo, hi = float(acc.min()), float(acc.max())
    return float("inf") if lo <= 0.0 else hi / lo


def _two_petals(dim, n, seed):
    grid = uniform_angle_grid(n) if dim == 2 else sampled_sphere_grid(dim, n, seed=seed, symmetric=True)
    x = np.random.default_rng(seed).normal(size=(2, dim))
    return flower_from_petals(np.vstack([x, -x]), grid)


class TestStackedTrials:
    """dvoretzky_search and global_average against their trial-by-trial loops, bit for bit.

    "small" builds one frame per stack, "default" every frame of these sizes in one.
    """

    @pytest.fixture(params=["default", "small"])
    def stacks(self, request, monkeypatch):
        if request.param == "small":
            monkeypatch.setattr(spherecore, "DENSE_BLOCK", 1)
        return request.param

    @pytest.fixture(scope="class")
    def b1(self):
        n = 16
        return flower_from_petals(np.vstack([np.eye(n), -np.eye(n)]), sampled_sphere_grid(n, 64, seed=0, symmetric=True))

    @pytest.mark.parametrize("sections", [False, True], ids=["projections", "sections"])
    @pytest.mark.parametrize("k, subgrid", [(1, None), (2, None), (2, "uniform128"), (8, "sampled512")])
    def test_dvoretzky(self, b1, stacks, k, subgrid, sections):
        sub = {None: None, "uniform128": uniform_angle_grid(128),
               "sampled512": sampled_sphere_grid(8, 512, seed=3, symmetric=True)}[subgrid]
        res = dvoretzky_search(b1, k, trials=7, seed=11, subgrid=sub, include_sections=sections)
        dists, sects, best = _dvoretzky_by_trial(b1, k, 7, 11, sub, sections)
        assert res.distances.tobytes() == dists.tobytes()
        assert (res.section_distances is None) == (sects is None)
        if sections:
            assert res.section_distances.tobytes() == sects.tobytes()
        assert res.best_subspace.frame.tobytes() == best.tobytes()
        assert res.best_distance == dists.min()

    @pytest.mark.parametrize("dim, n", [(2, 256), (3, 512), (4, 512), (8, 256)])
    @pytest.mark.parametrize("n_rot", [1, 7])
    def test_global_average(self, stacks, dim, n, n_rot):
        f = _two_petals(dim, n, seed=dim)
        assert global_average(f, n_rot, seed=12) == _global_average_by_rotation(f, n_rot, 12)

    def test_global_average_past_the_floats(self, stacks):
        # the corpus's wide2-p petals: lengths 1e300 and 1e-10, so one rotation's ratio is inf
        f = flower_from_petals(np.array([[1e300, 0.0], [-1e-10, 0.0]]), uniform_angle_grid(720))
        assert global_average(f, 1, seed=0) == _global_average_by_rotation(f, 1, 0) == np.inf

    def test_global_average_sum_past_the_floats(self):
        # petals of length 1e308: the sum of two rotated radials overflows to inf, the documented answer
        f = flower_from_petals(np.array([[1e308, 0.0], [-1e308, 0.0]]), uniform_angle_grid(16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert global_average(f, 2, seed=0) == np.inf

    @pytest.mark.parametrize("sweep", ["global_average", "dvoretzky_search"])
    def test_memory_bounded_by_stack_not_by_trials(self, sweep):
        # 2048 frames in 64-D: one stack of rotations holds 64 MiB, of 32-subspaces 32 MiB
        f = _two_petals(64, 64, seed=1)
        sub = sampled_sphere_grid(32, 64, seed=2, symmetric=True)
        run = {"global_average": lambda: global_average(f, 2048, seed=3),
               "dvoretzky_search": lambda: dvoretzky_search(f, 32, 2048, seed=4, subgrid=sub, include_sections=True)}
        tracemalloc.start()
        try:
            run[sweep]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestHugePetals:
    """Petals far beyond 2**511, whose squared radii overflow the floats, project exactly."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_projected_radial_scales_bit_for_bit(self, k):
        grid = sampled_sphere_grid(3, 512, seed=0)
        x = np.vstack([np.eye(3), -np.eye(3)])
        e = random_subspace(3, k, seed=5)
        dk = uniform_angle_grid(64).directions if k == 2 else np.array([[1.0], [-1.0]])
        small = projected_radial(flower_from_petals(x, grid), e, dk)
        with np.errstate(over="raise", invalid="raise"):
            huge = projected_radial(flower_from_petals(np.ldexp(x, 520), grid), e, dk)
        assert huge.tobytes() == np.ldexp(small, 520).tobytes()

    def test_dvoretzky_distances_do_not_depend_on_scale(self):
        grid = sampled_sphere_grid(3, 512, seed=0)
        x = np.vstack([np.eye(3), -np.eye(3)])
        sub = uniform_angle_grid(64)
        a = dvoretzky_search(flower_from_petals(x, grid), 2, trials=4, seed=1, subgrid=sub)
        b = dvoretzky_search(flower_from_petals(np.ldexp(x, 520), grid), 2, trials=4, seed=1, subgrid=sub)
        assert a.distances.tobytes() == b.distances.tobytes()


class TestStability:
    def test_ball_flower(self, grid720):
        rep = stability_check(flower_of(unit_ball(grid720)))
        assert rep.eps == pytest.approx(0.0, abs=1e-12)
        assert rep.flower_distance == pytest.approx(1.0, abs=1e-12)
        assert rep.bound_applies and rep.bound_holds

    def test_random_near_ball_flowers(self, grid720):
        admissible = 0
        for seed in range(60):
            f = random_symmetric_flower(grid720, seed)
            rep = stability_check(f)
            assert rep.hull_distance <= 2.0 + 1e-9
            if rep.bound_applies:
                admissible += 1
                assert rep.bound_holds
        assert admissible >= 50

    def test_hull_distance_at_most_two(self, grid720):
        # symmetric flowers: conv F contains the ball of half the max radius
        for seed in range(20):
            f = random_symmetric_flower(grid720, 1000 + seed, num_pairs=3, radius_lo=0.2, radius_hi=1.0)
            rep = stability_check(f)
            # near the two-petal equality case the grid sees the true minimum
            # between nodes only up to O(1/N^2)
            assert rep.hull_distance <= 2.0 + 1e-4


class TestDvoretzky:
    def test_ball_flower_distance_one(self, grid720):
        f = flower_from_petals(grid720.directions.copy(), grid720)
        res = dvoretzky_search(f, k=2, trials=3, seed=0, subgrid=grid720)
        assert res.best_distance < 1.0 + 1e-3

    def test_k1_symmetric_always_one(self, grid720):
        f = random_symmetric_flower(grid720, 4, num_pairs=16)
        res = dvoretzky_search(f, k=1, trials=8, seed=1)
        assert np.abs(res.distances - 1.0).max() < 1e-9

    def test_cross_polytope_flower_projection_vs_section(self):
        # flower of B_1^16: projections round much faster than sections
        n, k = 16, 8
        petals = np.vstack([np.eye(n), -np.eye(n)])
        grid = sampled_sphere_grid(n, 64, seed=0, symmetric=True)  # carrier only
        f = flower_from_petals(petals, grid)
        sub = sampled_sphere_grid(k, 1024, seed=123, symmetric=True)
        res = dvoretzky_search(f, k=k, trials=60, seed=7, subgrid=sub, include_sections=True)
        assert np.median(res.distances) < np.median(res.section_distances)
        assert res.best_distance <= 1.5

    def test_quantiles_sorted(self, grid720):
        f = random_symmetric_flower(grid720, 5)
        res = dvoretzky_search(f, k=2, trials=16, seed=3, subgrid=uniform_angle_grid(64))
        q = res.quantiles()
        assert q[0.1] <= q[0.5] <= q[0.9]


class TestGlobalAverage:
    def test_ball_flower_ratio_one(self, grid720):
        # petals at every node: the flower is the ball up to grid resolution
        f = flower_from_petals(grid720.directions.copy(), grid720)
        r = global_average(f, 4, seed=0)
        assert 1.0 <= r < 1.0 + 1e-3

    def test_prefix_property(self, grid720):
        f = random_symmetric_flower(grid720, 8, num_pairs=2)
        # same seed: N=16 average reuses the first 16 rotations of the N=64 run
        r16a = global_average(f, 16, seed=5)
        r16b = global_average(f, 16, seed=5)
        assert r16a == r16b

    def test_averaging_rounds_the_flower(self):
        grid = sampled_sphere_grid(4, 1024, seed=99, symmetric=True)
        x = np.array([[1.0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]])
        f = flower_from_petals(np.vstack([x, -x]), grid)
        r16 = global_average(f, 16, seed=3)
        r256 = global_average(f, 256, seed=3)
        assert r256 <= r16 * 1.05
        assert r256 < 1.3

    @pytest.mark.filterwarnings("error")
    def test_ratio_past_the_floats_is_inf(self):
        # the average's max / min is about 1e310: the division used to warn of overflow
        f = flower_from_petals(np.array([[1e300, 0.0], [-1e-10, 0.0]]), uniform_angle_grid(720))
        assert global_average(f, 1, 0) == np.inf


class TestKashin:
    def test_finite_ratio_2d(self):
        r = kashin_petals(2, seed=1)
        assert np.isfinite(r) and r >= 1.0

    def test_grid_rotation_invariance(self):
        # rotating all petals by a grid-angle multiple permutes the samples,
        # leaving the max/min ratio exactly unchanged
        grid = uniform_angle_grid(720)
        rng = np.random.default_rng(2)
        dirs = rng.normal(size=(8, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        shift = 2 * np.pi * 37 / 720
        rot = np.array([[np.cos(shift), -np.sin(shift)], [np.sin(shift), np.cos(shift)]])

        def ratio(ds):
            acc = np.maximum(grid.directions @ ds.T, 0.0).sum(axis=1)
            return acc.max() / acc.min()

        assert ratio(dirs) == pytest.approx(ratio(dirs @ rot.T), rel=1e-12)

    def test_doubling_petals_helps_in_median(self):
        n = 4
        wins = 0
        for seed in range(40):
            r2n = kashin_petals(n, seed, num_petals=2 * n)
            rn = kashin_petals(n, seed + 10 ** 6, num_petals=n)
            if r2n <= rn:
                wins += 1
        assert wins > 20


class TestDimensionMismatch:
    """A grid, subspace or direction rows of the wrong dimension is a ParameterError naming both, not a matmul error."""

    @staticmethod
    def _f4():
        return random_symmetric_flower(sampled_sphere_grid(4, 64, seed=0, symmetric=True), 1, num_pairs=8)

    @pytest.mark.parametrize("call", [
        lambda f, e: project_flower(f, e, grid=uniform_angle_grid(64)),
        lambda f, e: section_flower(f, e, grid=uniform_angle_grid(64)),
        lambda f, e: dvoretzky_search(f, 3, 2, 0, subgrid=uniform_angle_grid(64)),
        lambda f, e: projected_radial(f, e, uniform_angle_grid(64).directions),
        lambda f, e: section_radial(f, e, uniform_angle_grid(64).directions),
    ], ids=["project_flower", "section_flower", "dvoretzky_search", "projected_radial", "section_radial"])
    def test_direction_rows_of_another_width(self, call):
        with pytest.raises(ParameterError, match="directions have 2 coordinates, the subspace has dimension 3"):
            call(self._f4(), random_subspace(4, 3, seed=3))

    @pytest.mark.parametrize("radial", [projected_radial, section_radial])
    def test_subspace_of_another_ambient_dimension(self, radial):
        e = random_subspace(5, 3, seed=3)
        with pytest.raises(ParameterError, match="subspace lives in dimension 5, the flower in dimension 4"):
            radial(self._f4(), e, sampled_sphere_grid(3, 64, seed=1).directions)

    def test_kashin_grid_of_another_dimension(self):
        with pytest.raises(ParameterError, match="grid has dimension 2, the petals dimension 4"):
            kashin_petals(4, 0, grid=uniform_angle_grid(720))


def test_experiment_report_roundtrip(tmp_path):
    rep = ExperimentReport(("trial", "value"))
    rep.add(0, 1.5)
    rep.add(1, 2.5)
    p = tmp_path / "r.csv"
    rep.write_csv(p)
    assert p.read_text() == "trial,value\n0,1.5\n1,2.5\n"


def _cross_flower():
    return flower_from_petals(np.vstack([np.eye(3), -np.eye(3)]), sampled_sphere_grid(3, 64, seed=0))


# refusals that no other test reaches: (call, error, message)
LOCALTHEORY_REFUSALS = [
    pytest.param(lambda: distance_to_ball(StarBody(uniform_angle_grid(16), np.full(16, 1e-10))), UnboundedBodyError,
                 "degenerate body: distance to the ball is unbounded", id="distance-unbounded"),
    pytest.param(lambda: section_flower(_cross_flower(), random_subspace(3, 1, seed=0)), UnsupportedDimensionError,
                 "section_flower needs k >= 2", id="section_flower-k1"),
    pytest.param(lambda: dvoretzky_search(_cross_flower(), 2, trials=0, seed=0), ParameterError,
                 "need at least one trial", id="dvoretzky-no-trial"),
    pytest.param(lambda: dvoretzky_search(_cross_flower(), 4, trials=1, seed=0), ParameterError, "k out of range",
                 id="dvoretzky-k"),
    pytest.param(lambda: global_average(_cross_flower(), 0, seed=0), ParameterError, "need at least one rotation",
                 id="global_average-no-rotation"),
    pytest.param(lambda: kashin_petals(1, 0), ParameterError, "need dimension n >= 2", id="kashin-dim"),
    pytest.param(lambda: kashin_petals(3, 0, num_petals=0), ParameterError, "need at least one petal",
                 id="kashin-no-petal"),
    pytest.param(lambda: ExperimentReport(("a", "b")).add(1), ParameterError, "row length does not match header",
                 id="report-row"),
]


@pytest.mark.parametrize("call, error, message", LOCALTHEORY_REFUSALS)
def test_refusal(assert_refusal, call, error, message):
    assert_refusal(call, error, message)
