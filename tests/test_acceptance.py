"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; tolerances are pinned here and match the stated contracts.
"""
import time

import numpy as np

from flowerlab.bodies import (
    StarBody,
    cof,
    flower_from_petals,
    flower_of,
    is_flower,
    polar,
    polytope_body,
    random_convex_body,
    regular_polygon_vertices,
    square_body,
    sup_log_distance,
    unit_ball,
    volume,
)
from flowerlab.bodyfile import document_for_convex, document_for_star, parse_body, serialize_body
from flowerlab.calculus import compose, log_mean_0, power, power_naive, radial_compose
from flowerlab.cli import main
from flowerlab.errors import DegenerateInputError
from flowerlab.inversion import (
    OffOriginPolytope,
    TruncatedOutCone,
    invert_ball,
    invert_points,
    is_inversion_convex,
)
from flowerlab.localtheory import (
    dvoretzky_search,
    global_average,
    random_symmetric_flower,
    stability_check,
)
from flowerlab.mixedvol import FlowerCombination, expansion_check, flower_mixed_volume
from flowerlab.spherecore import sampled_sphere_grid, uniform_angle_grid


def report(num, name, ok, detail):
    line = f"ACCEPT-{num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_duality_identities(grid720):
    t0 = time.time()
    worst_inv, worst_prod = 0.0, 0.0
    for seed in range(1000):
        k = random_convex_body(grid720, seed)
        f = flower_of(k)
        back = cof(cof(f))
        worst_inv = max(worst_inv, float(np.abs(back.radial / f.radial - 1.0).max()))
        worst_prod = max(worst_prod, float(np.abs(cof(f).radial * k.support - 1.0).max()))
    elapsed = time.time() - t0
    ok = worst_inv < 1e-14 and worst_prod < 1e-12 and elapsed < 10.0
    report(1, "duality-identities", ok,
           f"cof-involution {worst_inv:.1e}, product-gap {worst_prod:.1e}, {elapsed:.1f}s")


def test_criterion_02_flower_certificate(grid720):
    t0 = time.time()
    worst = 0.0
    for seed in range(200):
        rep = is_flower(flower_of(random_convex_body(grid720, 5000 + seed)), tol=1e-9)
        worst = max(worst, rep.violation)
        if not rep.ok:
            break
    d = grid720.directions
    cross = StarBody(grid720, 1.0 / (np.abs(d[:, 0]) + np.abs(d[:, 1])))
    counter = is_flower(cross, tol=1e-9)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and not counter.ok and elapsed < 5.0
    report(2, "flower-certificate", ok,
           f"max violation {worst:.1e}, B1 violation {counter.violation:.2f}, {elapsed:.1f}s")


def test_criterion_03_saroglou_volume_inequalities(grid720):
    # the partition bound |P_Pi(K)| <= |B|^(1-lam)|K|^lam holds for every
    # partition (and reversed for lam > 1), so a looser power tolerance is
    # exact for the inequality; 1e-4 keeps the runtime in budget
    t0 = time.time()
    violations = 0
    min_slack_lo, min_slack_hi = np.inf, np.inf
    for seed in range(200):
        k = random_convex_body(grid720, 10_000 + seed, amp=0.5)
        volk = volume(k)
        for lam in (0.25, 0.5, 0.75):
            slack = np.pi ** (1 - lam) * volk ** lam + 1e-6 - volume(power(k, lam, tol=1e-4).body)
            min_slack_lo = min(min_slack_lo, slack)
            violations += slack < 0
        for lam in (1.5, 2.0, 3.0):
            slack = volume(power(k, lam, tol=1e-4).body) - np.pi ** (1 - lam) * volk ** lam + 1e-6
            min_slack_hi = min(min_slack_hi, slack)
            violations += slack < 0
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 180.0
    report(3, "saroglou-volume-inequalities", ok,
           f"0 violations of 1200, slack lo {min_slack_lo:.2e} hi {min_slack_hi:.2e}, {elapsed:.0f}s")


def test_criterion_04_semigroup():
    grid = uniform_angle_grid(2048)
    t0 = time.time()
    worst_lo, worst_hi = 0.0, 0.0
    for seed in range(50):
        k = random_convex_body(grid, 20_000 + seed, amp=0.3, kmax=5)
        a = power(power(k, 0.5, tol=1e-6).body, 0.5, tol=1e-6).body
        b = power(k, 0.25, tol=1e-6).body
        worst_lo = max(worst_lo, sup_log_distance(a.radial(), b.radial()))
        c = power(power(k, 1.5, tol=1e-6).body, 2.0, tol=1e-6).body
        d = power(k, 3.0, tol=1e-6).body
        worst_hi = max(worst_hi, sup_log_distance(c.radial(), d.radial()))
    elapsed = time.time() - t0
    ok = worst_lo < 1e-3 and worst_hi < 1e-3 and elapsed < 300.0
    report(4, "power-semigroup", ok,
           f"(K^.5)^.5 vs K^.25 {worst_lo:.2e}, (K^1.5)^2 vs K^3 {worst_hi:.2e}, {elapsed:.0f}s")


def test_criterion_05_sqrt2_regime_roundtrip(grid720):
    # squares and regular m-gons with cos(pi/m) >= 1/sqrt(2), at several scales
    worst_radial, worst_round = 0.0, 0.0
    families = [square_body(grid720, 0.8), square_body(grid720, 1.7)]
    for m in (4, 5, 6, 8):
        families.append(polytope_body(grid720, regular_polygon_vertices(m, circumradius=1.3)))
    for k in families:
        r0 = k.radial()
        for lam in (0.3, 0.5, 0.9):
            res = power(k, lam, tol=1e-6)
            worst_radial = max(worst_radial, float(np.abs(res.body.radial() - r0 ** lam).max()))
            back = power(res.body, 1.0 / lam, tol=1e-6)
            worst_round = max(worst_round, float(np.abs(back.body.radial() - r0).max()))
    ok = worst_radial < 1e-6 and worst_round < 1e-5
    report(5, "sqrt2-regime-roundtrip", ok,
           f"|r_K^lam - r^lam| {worst_radial:.1e}, roundtrip {worst_round:.1e}")


def test_criterion_06_cube_fixed_point(grid720):
    k = square_body(grid720, half_width=1 / np.sqrt(2.0))
    dev2 = float(np.abs(power(k, 2.0).body.support - k.support).max())
    dev15 = float(np.abs(power(k, 1.5).body.support - k.support).max())
    r25 = power(k, 0.25).body.radial()
    r50 = power(k, 0.5).body.radial()
    strict_gap = float((r25 - r50).max())
    nested = bool((r25 >= r50 - 1e-12).all())
    ok = dev2 < 1e-5 and dev15 < 1e-5 and nested and strict_gap > 1e-3
    report(6, "cube-fixed-point", ok,
           f"K^2 dev {dev2:.1e}, K^1.5 dev {dev15:.1e}, K^.25 over K^.5 by {strict_gap:.3f}")


def test_criterion_07_mixed_volume_expansion(grid720, grid4096):
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        nb = 2 if trial % 2 == 0 else 3
        bodies = [random_convex_body(grid720, 30_000 + 3 * trial + j) for j in range(nb)]
        c = FlowerCombination(bodies, rng.random(nb) * 2.0)
        worst = max(worst, expansion_check(c).discrepancy)
    s1 = polytope_body(grid4096, [[0.0, 0.0], [1.0, 0.0]])
    s2 = polytope_body(grid4096, [[0.0, 0.0], [0.0, 1.0]])
    seg = flower_mixed_volume(s1, s2)
    ok = worst <= 1e-10 and abs(seg - 0.25) <= 1e-6
    report(7, "mixed-volume-expansion", ok,
           f"max discrepancy {worst:.1e}, segment mixed volume {seg:.8f}")


def test_criterion_08_compositions(grid720):
    b = unit_ball(grid720)
    worst_polar, worst_identity = 0.0, 0.0
    for seed in range(100):
        t = random_convex_body(grid720, 40_000 + seed)
        k = random_convex_body(grid720, 41_000 + seed)
        worst_polar = max(worst_polar, float(np.abs(compose(t, polar(t)).support - 1.0).max()))
        worst_identity = max(worst_identity, float(np.abs(compose(b, k).support - k.support).max()))
        worst_identity = max(worst_identity, float(np.abs(radial_compose(b, k).support - k.support).max()))
    worst_logmean = 0.0
    for seed in range(20):
        k = random_convex_body(grid720, 42_000 + seed)
        for lam in (0.25, 0.5, 0.75):
            lhs = power_naive(k, lam).support
            rhs = polar(log_mean_0(b, polar(k), lam)).support
            worst_logmean = max(worst_logmean, float(np.abs(lhs - rhs).max()))
    ok = worst_polar < 1e-9 and worst_identity < 1e-12 and worst_logmean < 1e-4
    report(8, "compositions", ok,
           f"T.T* vs B {worst_polar:.1e}, B-identity {worst_identity:.1e}, log-mean {worst_logmean:.1e}")


def test_criterion_09_inversion():
    rng = np.random.default_rng(9)
    # 1000 admissible balls: formula matches the sampling oracle within 1e-9
    worst_ball = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 4))
        c0 = rng.normal(size=d)
        c0 *= (1.5 + 2 * rng.random()) / np.linalg.norm(c0)
        rho = rng.uniform(0.05, np.linalg.norm(c0) - 0.2)
        cp, rp = invert_ball(c0, rho)
        u = rng.normal(size=(10_000, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        img = invert_points(c0 + rho * u)
        worst_ball = max(worst_ball, float(np.abs(np.linalg.norm(img - cp, axis=1) - rp).max()))

    # 100 truncated convex out-cones: convex with zero false alarms
    false_alarms = 0
    done = 0
    attempt = 0
    while done < 100:
        attempt += 1
        d = 2 if done % 2 == 0 else 3
        base = rng.normal(size=(d + 3, d)) * 0.6
        shift = rng.normal(size=d)
        shift *= (2.5 + rng.random()) / np.linalg.norm(shift)
        try:
            poly = OffOriginPolytope(base + shift)
        except DegenerateInputError:
            continue
        done += 1
        v = is_inversion_convex(TruncatedOutCone(poly, 6.0), samples=120, seed=900 + done)
        if not v.convex:
            false_alarms += 1

    # the in-cone slab counterexample: non-convex with a witness
    slab = OffOriginPolytope([[-1, 0.99], [1, 0.99], [1, 1.01], [-1, 1.01]])
    vs = is_inversion_convex(slab, samples=400, seed=99)
    ok = worst_ball < 1e-9 and false_alarms == 0 and not vs.convex and vs.witness is not None
    report(9, "spherical-inversion", ok,
           f"ball oracle {worst_ball:.1e}, {false_alarms} false alarms/100 cones, "
           f"slab witness depth {vs.direct_depth:.2e}")


def test_criterion_10_stability(grid720):
    violations = 0
    admissible = 0
    max_hull = 0.0
    for seed in range(500):
        f = random_symmetric_flower(grid720, 50_000 + seed)
        rep = stability_check(f)
        max_hull = max(max_hull, rep.hull_distance)
        assert rep.hull_distance <= 2.0 + 1e-9
        if rep.bound_applies:
            admissible += 1
            if not rep.bound_holds:
                violations += 1
    ok = violations == 0 and admissible == 500 and max_hull <= 2.0 + 1e-9
    report(10, "flower-stability", ok,
           f"{admissible}/500 admissible, {violations} violations, max hull distance {max_hull:.3f}")


def test_criterion_11_projection_section_contrast():
    t0 = time.time()
    n, k = 16, 8
    petals = np.vstack([np.eye(n), -np.eye(n)])
    carrier = sampled_sphere_grid(n, 64, seed=0, symmetric=True)
    f = flower_from_petals(petals, carrier)  # the flower of B_1^16
    sub = sampled_sphere_grid(k, 2048, seed=1234, symmetric=True)
    res = dvoretzky_search(f, k=k, trials=200, seed=11, subgrid=sub, include_sections=True)
    med_p = float(np.median(res.distances))
    med_s = float(np.median(res.section_distances))
    elapsed = time.time() - t0
    ok = med_p < med_s and res.best_distance <= 1.5 and elapsed < 600.0
    report(11, "projection-section-contrast", ok,
           f"median proj {med_p:.3f} < median sect {med_s:.3f}, best proj {res.best_distance:.3f}, {elapsed:.0f}s")


def test_criterion_12_global_averaging():
    grid = sampled_sphere_grid(4, 2048, seed=77, symmetric=True)
    x = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]])
    f = flower_from_petals(np.vstack([x, -x]), grid)
    improved = 0
    ratios256 = []
    for seed in range(20):
        r16 = global_average(f, 16, seed)
        r256 = global_average(f, 256, seed)
        ratios256.append(r256)
        if r256 <= r16:
            improved += 1
    med = float(np.median(ratios256))
    ok = improved >= 18 and med <= 1.25
    report(12, "global-averaging", ok,
           f"improved {improved}/20 seeds, median ratio at N=256 is {med:.3f}")


def test_criterion_13_cli_determinism(tmp_path, grid720):
    checks = []

    sq = tmp_path / "square.json"
    serialize_body(document_for_convex(square_body(grid720), metadata={"name": "square"}), sq)
    fl = tmp_path / "flower.json"
    serialize_body(document_for_star(flower_of(square_body(grid720))), fl)

    # round trip: serialize(parse(f)) is byte-identical
    checks.append(serialize_body(parse_body(sq)) == sq.read_text())

    # cof twice returns the input file bytes
    once, twice = tmp_path / "cof1.json", tmp_path / "cof2.json"
    main(["cof", str(fl), "--out", str(once)])
    main(["cof", str(once), "--out", str(twice)])
    checks.append(twice.read_bytes() == fl.read_bytes())

    # every body-transform subcommand reproduces the module result and is
    # byte-deterministic across reruns
    from flowerlab.bodies import alexandrov

    module_refs = {
        "flower": flower_of(square_body(grid720)).radial,
        "core": square_body(grid720).support,
        "polar": polar(square_body(grid720)).support,
        "alexandrov": alexandrov(square_body(grid720).support, grid720).support,
        "power": power(square_body(grid720), 0.5).body.support,
    }
    invocations = {
        "flower": ["flower", str(sq)],
        "core": ["core", str(fl)],
        "polar": ["polar", str(sq)],
        "alexandrov": ["alexandrov", str(sq)],
        "power": ["power", str(sq), "--lambda", "0.5"],
    }
    for name, argv in invocations.items():
        a, b = tmp_path / f"{name}_a.json", tmp_path / f"{name}_b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        checks.append(a.read_bytes() == b.read_bytes())
        checks.append(bool(np.array_equal(parse_body(a).values, module_refs[name])))

    # plots regenerate identically
    p1, p2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
    main(["plot", str(sq), str(fl), "--out", str(p1)])
    main(["plot", str(sq), str(fl), "--out", str(p2)])
    checks.append(p1.read_bytes() == p2.read_bytes())

    ok = all(checks)
    report(13, "cli-determinism", ok, f"{sum(checks)}/{len(checks)} golden checks")
