"""The benchmark's four closed-loop workloads.

A workload has ``setup(seed, workdir) -> state`` and ``cycle(state, c)``,
which returns cycle number c.  A cycle is a fixed list of ``Op``; the runner
only stops at the end of a cycle, so every run measures the same op mix and
the medians and p90s fall inside clusters of like ops rather than between
them.  Bodies come from the seed; each op gets fresh body objects, so no
op reuses a radial cached by an earlier one.

Every op is one call (or a short chain) into flowerlab's public functions,
looked up on the module at call time so that the tracer's wrappers are seen.
Its check runs after the timed call and returns False for a wrong result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import flowerlab as fl
import flowerlab.cli  # noqa: F401  (binds fl.cli for the in-process CLI ops)
from flowerlab.bodies import CERT_TOL_2D, CERT_TOL_ND
from flowerlab.bodyfile import BodyDocument
from flowerlab.errors import DegenerateInputError


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    setup: Callable
    cycle: Callable


def derive(seed: int, *key: int) -> int:
    """Independent integer seed for one input, a pure function of (seed, key)."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def fresh(grid, support):
    return fl.ConvexBody(grid, support, certified=True)


def certified_within(tol):
    def check(body):
        return fl.is_support_consistent(body.grid, body.support, tol).ok
    return check


# ---------------------------------------------------------------------------
# power-2d: Saroglou sweeps at N=720 and power-semigroup groups at N=2048

SWEEP_LAMBDAS = (0.25, 0.5, 0.75, 1.5, 2.0, 3.0)
SWEEP_TOL = 1e-4  # the volume inequalities hold for every partition
SEMIGROUP_TOL = 1e-6
SEMIGROUP_RESIDUAL = 1e-3
SHAPES = 5
SWEEP_SHAPE_SEED, GROUP_SHAPE_SEED = 10_000, 20_000  # the acceptance tests' first bodies


def turned_body(grid, shape_seed, steps, scale, amp, kmax):
    """random_convex_body(grid, shape_seed, amp, kmax) turned by whole grid steps and scaled.

    The shape draws its Fourier coefficients in random_convex_body's order,
    so 0 steps and scale 1 give that body's support exactly.  Turning by
    whole steps samples the same boundary points, so the power map's cost
    stays the shape's; other angles can move m_final by a doubling.
    """
    rng = np.random.default_rng(shape_seed)
    th = grid.angles() - 2 * np.pi * steps / grid.size
    u = np.zeros(grid.size)
    for k in range(1, kmax + 1):
        u += rng.normal(0, amp / k) * np.cos(k * th) + rng.normal(0, amp / k) * np.sin(k * th)
    return fl.convexify_support(fl.StarBody(grid, scale * np.exp(u))).support


def volume_inequality(k, lam):
    """|K^lam| <= |B|^(1-lam) |K|^lam for lam < 1, reversed for lam > 1."""
    def check(res):
        bound = math.pi ** (1.0 - lam) * fl.volume(k) ** lam
        v = fl.volume(res.body)
        return v <= bound + 1e-6 if lam < 1.0 else v >= bound - 1e-6
    return check


def semigroup_ops(kind, k, a, b):
    """(K^a)^b and K^(ab) as three ops; the last checks they agree."""
    box = {}

    def outer():
        box["a"] = fl.power(k, a, tol=SEMIGROUP_TOL)
        return box["a"]

    def inner():
        box["ab"] = fl.power(box["a"].body, b, tol=SEMIGROUP_TOL)
        return box["ab"]

    def semigroup(res):
        residual = fl.sup_log_distance(box["ab"].radial(), res.radial())
        return volume_inequality(k, a * b)(res) and residual < SEMIGROUP_RESIDUAL

    return [
        Op(f"{kind}/{a:g}", outer, volume_inequality(k, a)),
        Op(f"{kind}/({a:g})^{b:g}", inner, lambda res: volume_inequality(box["a"].body, b)(res)),
        Op(f"{kind}/{a * b:g}", lambda: fl.power(k, a * b, tol=SEMIGROUP_TOL), semigroup),
    ]


def power_setup(seed, workdir):
    """The acceptance tests' bodies, each turned and scaled by the seed.

    Shapes are fixed because a power map's cost hinges on the shape: drawn
    afresh per seed, the shapes a run saw made ops_per_s and the
    percentiles spread 12-35% between seeds.
    """
    g720 = fl.uniform_angle_grid(720)
    g720.gram_plus()
    g2048 = fl.uniform_angle_grid(2048)
    g2048.gram_plus()
    rng = np.random.default_rng(derive(seed, 2))
    scales = rng.uniform(0.5, 2.0, (2, SHAPES))
    sweep = [turned_body(g720, SWEEP_SHAPE_SEED + i, rng.integers(720), scales[0, i], 0.5, 6) for i in range(SHAPES)]
    group = [turned_body(g2048, GROUP_SHAPE_SEED + i, rng.integers(2048), scales[1, i], 0.3, 5)
             for i in range(SHAPES)]
    # unturned and unscaled: the self-test pins this body's K^3 to m = 256
    anchor = fl.random_convex_body(g2048, GROUP_SHAPE_SEED, amp=0.3, kmax=5).support
    return {"g720": g720, "g2048": g2048, "sweep": sweep, "group": group, "anchor": anchor}


def power_cycle(st, c):
    """Every shape's Saroglou sweep and (K^.5)^.5 vs K^.25 group, then the anchor.

    The anchor is the acceptance test's (K^1.5)^2 vs K^3 group on its first
    body, whose K^3 converges at m = 256: the roadmap's 510-hull-call figure.
    """
    ops = []
    for i in range(SHAPES):
        for lam in SWEEP_LAMBDAS:
            k = fresh(st["g720"], st["sweep"][i])
            ops.append(Op(f"power/720/{lam:g}", lambda k=k, lam=lam: fl.power(k, lam, tol=SWEEP_TOL),
                          volume_inequality(k, lam)))
        ops += semigroup_ops("power/2048", fresh(st["g2048"], st["group"][i]), 0.5, 0.5)
    return ops + semigroup_ops("anchor/2048", fresh(st["g2048"], st["anchor"]), 1.5, 2.0)


# ---------------------------------------------------------------------------
# duality-2d: dense duality ops at N=2048, a minority at N=8192, CLI at N=720

DUALITY_BODIES = 12
CLI_FILES = 4
EXPANSION_TOL = 1e-10


def polar_involution(t):
    def check(p):
        return float(np.abs(fl.polar(p).support - t.support).max()) <= CERT_TOL_2D
    return check


def below_and_certified(bound):
    def check(body):
        return bool((body.support <= bound * (1.0 + 1e-12)).all()) and certified_within(CERT_TOL_2D)(body)
    return check


def duality_setup(seed, workdir):
    grids = {n: fl.uniform_angle_grid(n) for n in (720, 2048, 8192)}
    for g in grids.values():
        g.gram_plus()
    pool = [fl.random_convex_body(grids[2048], derive(seed, 2048, i)).support for i in range(DUALITY_BODIES)]
    big = [fl.random_convex_body(grids[8192], derive(seed, 8192, i)).support for i in range(2)]
    coefs = np.random.default_rng(derive(seed, 1)).random((DUALITY_BODIES, 2)) * 2.0
    files = []
    g720 = grids[720]
    for i in range(CLI_FILES):
        k = fl.random_convex_body(g720, derive(seed, 720, i))
        meta = {"name": f"body{i}"}
        support_path, radial_path = workdir / f"body{i}.json", workdir / f"flower{i}.json"
        fl.bodyfile.serialize_body(BodyDocument(2, "support", g720, values=k.support, metadata=meta), support_path)
        flower_text = fl.bodyfile.serialize_body(
            BodyDocument(2, "radial", g720, values=k.support, metadata=meta), radial_path)
        # what the CLI must print, computed with the library
        refs = {
            "flower": flower_text,
            "polar": fl.bodyfile.serialize_body(
                BodyDocument(2, "support", g720, values=fl.polar(k).support, metadata=meta)),
            "cof": fl.bodyfile.serialize_body(
                BodyDocument(2, "radial", g720, values=1.0 / k.support, metadata=meta)),
            "volume": f"{fl.volume(k)!r}\n",
        }
        files.append((support_path, radial_path, {cmd: text.encode() for cmd, text in refs.items()}))
    return {"grids": grids, "pool": pool, "big": big, "coefs": coefs, "files": files,
            "out": workdir / "cli-out.json"}


def cli_op(cmd, path, out, ref):
    def check(rc):
        return rc == 0 and out.read_bytes() == ref
    return Op(f"cli-{cmd}/720", lambda: fl.cli.main([cmd, str(path), "--out", str(out)]), check)


def duality_cycle(st, c):
    g = st["grids"][2048]
    t = fresh(g, st["pool"][c % DUALITY_BODIES])
    k = fresh(g, st["pool"][(c + 1) % DUALITY_BODIES])
    box = {}

    def polar_t():
        box["p"] = fl.polar(t)
        return box["p"]

    meet = np.minimum(t.support, k.support)
    log_mean = k.support ** 0.5 * t.support ** 0.5
    coefs = st["coefs"][c % DUALITY_BODIES]
    ops = [
        Op("cert/2048", lambda: fl.is_support_consistent(g, k.support), lambda rep: rep.ok),
        Op("flower-core/2048", lambda: fl.core_of(fl.flower_of(k)),
           lambda core: np.array_equal(core.support, k.support)),
        Op("polar/2048", polar_t, polar_involution(t)),
        Op("compose/2048", lambda: fl.compose(t, box["p"]),
           lambda r: float(np.abs(r.support - 1.0).max()) <= 1e-9),
        Op("alexandrov/2048", lambda: fl.alexandrov(meet, g), below_and_certified(meet)),
        Op("logmean/2048", lambda: fl.log_mean_0(k, t, 0.5), below_and_certified(log_mean)),
        Op("rcompose/2048", lambda: fl.radial_compose(t, k), certified_within(CERT_TOL_2D)),
        Op("expansion/2048", lambda: fl.expansion_check(fl.FlowerCombination([t, k], coefs)),
           lambda rep: rep.discrepancy <= EXPANSION_TOL),
    ]
    support_path, radial_path, refs = st["files"][c % CLI_FILES]
    for cmd, path in (("flower", support_path), ("polar", support_path), ("cof", radial_path),
                      ("volume", support_path)):
        ops.append(cli_op(cmd, path, st["out"], refs[cmd]))
    big = fresh(st["grids"][8192], st["big"][c % 2])
    if c % 2 == 0:
        ops.append(Op("cert/8192", lambda: fl.is_support_consistent(big.grid, big.support), lambda rep: rep.ok))
    else:
        ops.append(Op("flower-core/8192", lambda: fl.core_of(fl.flower_of(big)),
                      lambda core: np.array_equal(core.support, big.support)))
    return ops


# ---------------------------------------------------------------------------
# sphere-3d: C/D/certificate at N=4096 on a sampled grid, qhull power maps at N=2048

SPHERE_BODIES = 4
SPHERE_POWER_TOL = 1e-4


def random_hull_support(grid, rng):
    """Certified support of the hull of a log-normal radial cloud (one C call)."""
    return fl.convexify_support(fl.StarBody(grid, np.exp(rng.normal(0.0, 0.3, grid.size)))).support


def sphere_setup(seed, workdir):
    g = fl.sampled_sphere_grid(3, 4096, derive(seed, 3, 4096))
    g.gram_plus()
    g2 = fl.sampled_sphere_grid(3, 2048, derive(seed, 3, 2048))
    g2.gram_plus()
    rng = np.random.default_rng(derive(seed, 3))
    return {
        "g": g,
        "g2": g2,
        "bodies": [random_hull_support(g, rng) for _ in range(SPHERE_BODIES)],
        "bounds": [np.exp(rng.normal(0.0, 0.3, g.size)) for _ in range(SPHERE_BODIES)],
        "small": [random_hull_support(g2, rng) for _ in range(SPHERE_BODIES)],
    }


def sphere_cycle(st, c):
    g = st["g"]
    ops = []
    for j in range(2):
        i = (2 * c + j) % SPHERE_BODIES
        k, bound = fresh(g, st["bodies"][i]), st["bounds"][i]
        ops += [
            Op("D/4096", lambda k=k: fl.radial_of_halfspace_body(k.support, g),
               lambda r, k=k: float(np.abs(fl.convexify_support(r).support - k.support).max()) <= CERT_TOL_ND),
            Op("cert/4096", lambda k=k: fl.is_support_consistent(g, k.support), lambda rep: rep.ok),
            Op("alexandrov/4096", lambda bound=bound: fl.alexandrov(bound, g), certified_within(CERT_TOL_ND)),
            Op("polar/4096", lambda k=k: fl.polar(k), certified_within(CERT_TOL_ND)),
        ]
    lam = 2.0 if c % 2 == 0 else 0.5
    k2 = fresh(st["g2"], st["small"][c % SPHERE_BODIES])
    ops.append(Op(f"power/2048/{lam:g}", lambda: fl.power(k2, lam, tol=SPHERE_POWER_TOL),
                  lambda res: certified_within(CERT_TOL_ND)(res.body)))
    return ops


# ---------------------------------------------------------------------------
# inversion-local: inversion verdicts and local-theory sweeps

CONES = 24
CONE_SAMPLES = 120
SLAB_SAMPLES = 400
DVORETZKY_TRIALS = 200
ROTATIONS = 256
STABILITY_FLOWERS = 8
KASHIN_DIM, KASHIN_PETALS = 4, 64


def off_origin_polytopes(rng, dim, count):
    """Random bases of out-cones, drawn as in the inversion acceptance test."""
    out = []
    while len(out) < count:
        base = rng.normal(size=(dim + 3, dim)) * 0.6
        shift = rng.normal(size=dim)
        shift *= (2.5 + rng.random()) / np.linalg.norm(shift)
        try:
            out.append(fl.OffOriginPolytope(base + shift))
        except DegenerateInputError:
            continue
    return out


def inversion_setup(seed, workdir):
    rng = np.random.default_rng(derive(seed, 9))
    n, k = 16, 8
    carrier = fl.sampled_sphere_grid(n, 64, derive(seed, n), symmetric=True)
    g4 = fl.sampled_sphere_grid(4, 2048, derive(seed, 4), symmetric=True)
    x = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]])
    g720 = fl.uniform_angle_grid(720)
    return {
        "seed": seed,
        "cones": {d: off_origin_polytopes(rng, d, CONES) for d in (2, 3)},
        "slab": fl.OffOriginPolytope([[-1, 0.99], [1, 0.99], [1, 1.01], [-1, 1.01]]),
        "b1": fl.flower_from_petals(np.vstack([np.eye(n), -np.eye(n)]), carrier),  # flower(B_1^16)
        "subgrid": fl.sampled_sphere_grid(k, 2048, derive(seed, k), symmetric=True),
        "f4": fl.flower_from_petals(np.vstack([x, -x]), g4),
        "flowers": [fl.localtheory.random_symmetric_flower(g720, derive(seed, 720, i))
                    for i in range(STABILITY_FLOWERS)],
    }


def verdict_op(kind, shape, samples, seed, convex):
    def check(v):
        return v.convex if convex else (not v.convex and v.witness is not None)
    return Op(kind, lambda: fl.is_inversion_convex(shape, samples=samples, seed=seed), check)


def inversion_cycle(st, c):
    seed = st["seed"]
    ops = []
    for j in range(2):
        for d in (2, 3):
            cone = fl.TruncatedOutCone(st["cones"][d][(2 * c + j) % CONES], 6.0)
            ops.append(verdict_op(f"outcone/{d}d", cone, CONE_SAMPLES, derive(seed, c, j, d), True))
    ops.append(verdict_op("slab/2d", st["slab"], SLAB_SAMPLES, derive(seed, c, 99), False))

    def dvoretzky_check(res):
        return float(np.median(res.distances)) < float(np.median(res.section_distances))

    ops.append(Op("dvoretzky/16->8",
                  lambda: fl.dvoretzky_search(st["b1"], 8, DVORETZKY_TRIALS, derive(seed, c, 11),
                                              subgrid=st["subgrid"], include_sections=True),
                  dvoretzky_check))
    ops.append(Op("global-avg/4d", lambda: fl.global_average(st["f4"], ROTATIONS, derive(seed, c, 12)),
                  lambda ratio: 1.0 <= ratio < math.inf))
    for j in range(2):
        f = st["flowers"][(2 * c + j) % STABILITY_FLOWERS]
        ops.append(Op("stability/720", lambda f=f: fl.stability_check(f),
                      lambda rep: rep.bound_applies and bool(rep.bound_holds)))
    for j in range(2):
        ops.append(Op("kashin/4d",
                      lambda j=j: fl.kashin_petals(KASHIN_DIM, derive(seed, c, 13, j), num_petals=KASHIN_PETALS),
                      lambda ratio: 1.0 <= ratio < math.inf))
    return ops


WORKLOADS = {
    "power-2d": Workload(power_setup, power_cycle),
    "duality-2d": Workload(duality_setup, duality_cycle),
    "sphere-3d": Workload(sphere_setup, sphere_cycle),
    "inversion-local": Workload(inversion_setup, inversion_cycle),
}
