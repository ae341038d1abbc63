"""Command-line front end.

Every subcommand is a thin adapter: parse body files, call the corresponding
library operation, serialize the result.  Outputs are deterministic for fixed
inputs and seed; pure body transforms pass input metadata through unchanged so
that involutions (cof twice) round-trip byte-identically.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import bodies, calculus, localtheory, mixedvol
from .bodyfile import BodyDocument, document_for_convex, parse_body, serialize_body
from .errors import FlowerlabError, ParameterError
from .inversion import CONVEX_POSITION_TOL, TruncatedOutCone, is_inversion_convex
from .localtheory import ExperimentReport
from .spherecore import uniform_angle_grid
from .svgplot import plot_svg

DEFAULT_GRID_N = 720


def _default_seed() -> int:
    env = os.environ.get("FLOWERLAB_SEED")
    return int(env) if env else 0


def _emit(doc: BodyDocument, args):
    text = serialize_body(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print(line: str, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(line + "\n")
    else:
        print(line)


def _load_convex(path, tol=None) -> bodies.ConvexBody:
    doc = parse_body(path)
    k = doc.to_convex(check=True, tol=tol)
    if not k.certified:
        raise ParameterError(f"{path}: support samples failed certification")
    return k


def _load_flower(path) -> bodies.Flower:
    return parse_body(path).to_flower()


def cmd_flower(args):
    doc = parse_body(args.body)
    if doc.representation == "support":
        f = bodies.flower_of(doc.to_convex(check=True, tol=args.tol))
    else:
        f = doc.to_flower()
    _emit(BodyDocument(doc.dim, "radial", f.grid, values=f.radial.copy(), metadata=doc.metadata), args)


def cmd_core(args):
    doc = parse_body(args.body)
    k = bodies.core_of(doc.to_flower(), tol=args.tol)
    _emit(BodyDocument(doc.dim, "support", k.grid, values=k.support.copy(), metadata=doc.metadata), args)


def cmd_cof(args):
    doc = parse_body(args.body)
    a = bodies.cof(doc.to_star())
    _emit(BodyDocument(doc.dim, doc.representation, a.grid, values=a.radial.copy(), metadata=doc.metadata), args)


def cmd_polar(args):
    doc = parse_body(args.body)
    k = bodies.polar(doc.to_convex(check=True, tol=args.tol))
    _emit(BodyDocument(doc.dim, "support", k.grid, values=k.support.copy(), metadata=doc.metadata), args)


def cmd_alexandrov(args):
    doc = parse_body(args.body)
    k = bodies.alexandrov(doc.values, doc.grid)
    _emit(BodyDocument(doc.dim, "support", k.grid, values=k.support.copy(), metadata=doc.metadata), args)


def cmd_power(args):
    doc = parse_body(args.body)
    tol = args.tol if args.tol is not None else calculus.POWER_TOL
    res = calculus.power(doc.to_convex(check=True), args.lam, tol=tol)
    meta = dict(doc.metadata)
    meta["power"] = {"lambda": args.lam, "tol": tol, "m_final": res.m_final, "increment": res.increment}
    _emit(document_for_convex(res.body, metadata=meta), args)


def cmd_fmap(args):
    doc = parse_body(args.body)
    if args.fn == "power":
        if args.lam is None:
            raise ParameterError("fmap --fn power needs --lambda")
        f = calculus.RadialMap.power(args.lam)
        detail = {"fn": "power", "lambda": args.lam}
    else:
        if args.factor is None:
            raise ParameterError("fmap --fn scale needs --factor")
        f = calculus.RadialMap.scale(args.factor)
        detail = {"fn": "scale", "factor": args.factor}
    k = calculus.apply_radial_map(doc.to_convex(check=True), f)
    meta = dict(doc.metadata)
    meta["fmap"] = detail
    _emit(document_for_convex(k, metadata=meta), args)


def cmd_compose(args):
    t = _load_convex(args.t)
    k = _load_convex(args.k)
    out = calculus.compose(t, k)
    _emit(document_for_convex(out, metadata=parse_body(args.t).metadata), args)


def cmd_rcompose(args):
    t = _load_convex(args.t)
    k = _load_convex(args.k)
    out = calculus.radial_compose(t, k)
    _emit(document_for_convex(out, metadata=parse_body(args.t).metadata), args)


def cmd_logmean(args):
    k = _load_convex(args.k)
    t = _load_convex(args.t)
    out = calculus.log_mean_0(k, t, args.lam)
    meta = {"logmean": {"lambda": args.lam}}
    _emit(document_for_convex(out, metadata=meta), args)


def cmd_mixedvol(args):
    ks = [_load_convex(p) for p in args.bodies]
    n = ks[0].grid.dim
    if len(ks) == n:
        value = mixedvol.flower_mixed_volume(*ks)
        _print(f"{value!r}", args)
    else:
        raise ParameterError(f"mixedvol needs exactly {n} bodies in dimension {n}; got {len(ks)}")
    if args.report:
        report = ExperimentReport(("indices", "value"))
        import itertools

        for idx in itertools.combinations_with_replacement(range(len(ks)), n):
            report.add("-".join(map(str, idx)), repr(mixedvol.flower_mixed_volume(*(ks[i] for i in idx))))
        report.write_csv(args.report)


def cmd_volume(args):
    doc = parse_body(args.body)
    if doc.representation == "support":
        v = bodies.volume(doc.to_convex(check=False))
    elif doc.representation == "petals":
        v = bodies.volume(doc.to_flower())
    else:
        v = bodies.volume(doc.to_star())
    _print(f"{v!r}", args)


def cmd_invert(args):
    doc = parse_body(args.body)
    poly = doc.to_polytope()
    shape = TruncatedOutCone(poly, args.trunc_scale) if args.outcone else poly
    tol = CONVEX_POSITION_TOL if args.tol is None else args.tol
    verdict = is_inversion_convex(shape, samples=args.samples, seed=args.seed, tol=tol)
    obj = {
        "convex": verdict.convex,
        "witness": None
        if verdict.witness is None
        else {"x": list(map(float, verdict.witness[0])), "y": list(map(float, verdict.witness[1])), "t": verdict.witness[2]},
        "direct_depth": verdict.direct_depth,
        "samples": verdict.samples,
    }
    _print(json.dumps(obj, indent=2), args)


def cmd_stability(args):
    f = _load_flower(args.body)
    rep = localtheory.stability_check(f)
    obj = {
        "eps": rep.eps,
        "hull_distance": rep.hull_distance,
        "flower_distance": rep.flower_distance,
        "bound_applies": rep.bound_applies,
        "bound_holds": rep.bound_holds,
    }
    _print(json.dumps(obj, indent=2), args)


def cmd_dvoretzky(args):
    f = _load_flower(args.body)
    subgrid = None
    if args.k >= 2:
        from .spherecore import child_seed

        subgrid = localtheory.default_subgrid(args.k, size=args.grid, seed=child_seed(args.seed, 2 ** 20))
    res = localtheory.dvoretzky_search(f, args.k, args.trials, args.seed, subgrid=subgrid, include_sections=args.sections)
    qs = res.quantiles()
    _print(
        json.dumps(
            {
                "k": res.k,
                "trials": res.trials,
                "best_distance": res.best_distance,
                "quantiles": {str(k): v for k, v in qs.items()},
            },
            indent=2,
        ),
        args,
    )
    if args.report:
        header = ("trial", "seed", "k", "distance") + (("section_distance",) if args.sections else ())
        report = ExperimentReport(header)
        for i, d in enumerate(res.distances):
            row = (i, args.seed, args.k, repr(float(d)))
            if args.sections:
                row = row + (repr(float(res.section_distances[i])),)
            report.add(*row)
        report.write_csv(args.report)


def cmd_global_avg(args):
    f = _load_flower(args.body)
    ratio = localtheory.global_average(f, args.n_rot, args.seed)
    _print(f"{ratio!r}", args)


def cmd_kashin(args):
    from .spherecore import child_seed, sampled_sphere_grid, uniform_angle_grid

    if args.dim == 2:
        grid = uniform_angle_grid(args.grid)
    else:
        n = max(64, args.grid)
        grid = sampled_sphere_grid(args.dim, n + (n % 2), child_seed(args.seed, 2 ** 20), symmetric=True)
    ratio = localtheory.kashin_petals(args.dim, args.seed, num_petals=args.petals, grid=grid)
    _print(f"{ratio!r}", args)


def cmd_bm_probe(args):
    t = _load_convex(args.t)
    k1 = _load_convex(args.k1)
    k2 = _load_convex(args.k2)
    rep = calculus.check_composition_bm(t, k1, k2, mode=args.mode)
    _print(f"{rep.margin!r}", args)
    if args.report:
        report = ExperimentReport(("t", "k1", "k2", "mode", "margin"))
        report.add(os.path.basename(args.t), os.path.basename(args.k1), os.path.basename(args.k2), args.mode, repr(rep.margin))
        report.write_csv(args.report)


def cmd_plot(args):
    objs = []
    labels = []
    for path in args.bodies:
        doc = parse_body(path)
        if doc.representation == "support":
            objs.append(doc.to_convex(check=False))
        elif doc.representation == "petals":
            objs.append(doc.to_flower())
        else:
            objs.append(doc.to_star())
        labels.append(doc.metadata.get("name", os.path.splitext(os.path.basename(path))[0]))
    text = plot_svg(objs, labels=labels)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", type=int, default=DEFAULT_GRID_N, help="grid size for generated grids")
    common.add_argument("--seed", type=int, default=_default_seed(), help="random seed (env FLOWERLAB_SEED)")
    common.add_argument("--tol", type=float, default=None, help="tolerance override")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--report", default=None, help="CSV report path")

    p = argparse.ArgumentParser(prog="flowerlab", description="flower calculus for convex bodies")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, parents=[common], **kwargs)
        sp.set_defaults(handler=fn)
        return sp

    add("flower", cmd_flower, help="flower of a convex body").add_argument("body")
    add("core", cmd_core, help="core of a flower").add_argument("body")
    add("cof", cmd_cof, help="spherical-inversion co-image (reciprocal radial)").add_argument("body")
    add("polar", cmd_polar, help="polar dual").add_argument("body")
    add("alexandrov", cmd_alexandrov, help="Alexandrov body of the bounds").add_argument("body")

    sp = add("power", cmd_power, help="proper power K^lambda")
    sp.add_argument("body")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)

    sp = add("fmap", cmd_fmap, help="apply a named radial map")
    sp.add_argument("body")
    sp.add_argument("--fn", choices=("power", "scale"), required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--factor", type=float, default=None)

    sp = add("compose", cmd_compose, help="composition T o K")
    sp.add_argument("t")
    sp.add_argument("k")
    sp = add("rcompose", cmd_rcompose, help="radial composition")
    sp.add_argument("t")
    sp.add_argument("k")

    sp = add("logmean", cmd_logmean, help="logarithmic 0-mean of K and T")
    sp.add_argument("k")
    sp.add_argument("t")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)

    sp = add("mixedvol", cmd_mixedvol, help="flower mixed volume")
    sp.add_argument("bodies", nargs="+")

    add("volume", cmd_volume, help="volume of a body").add_argument("body")

    sp = add("invert", cmd_invert, help="inversion-convexity verdict for a polytope")
    sp.add_argument("body")
    sp.add_argument("--samples", type=int, default=400)
    sp.add_argument("--outcone", action="store_true", help="treat the polytope as the base of an out-cone")
    sp.add_argument("--trunc-scale", type=float, default=8.0)

    add("stability", cmd_stability, help="flower stability report").add_argument("body")

    sp = add("dvoretzky", cmd_dvoretzky, help="random-projection roundness search")
    sp.add_argument("body")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--sections", action="store_true", help="also record section distances")

    sp = add("global-avg", cmd_global_avg, help="oscillation ratio of rotation averages")
    sp.add_argument("body")
    sp.add_argument("--n-rot", dest="n_rot", type=int, required=True)

    sp = add("kashin", cmd_kashin, help="averaged rotated petals experiment")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--petals", type=int, default=None)

    sp = add("bm-probe", cmd_bm_probe, help="Brunn-Minkowski composition probe")
    sp.add_argument("t")
    sp.add_argument("k1")
    sp.add_argument("k2")
    sp.add_argument("--mode", choices=("compose", "rcompose"), default="compose")

    sp = add("plot", cmd_plot, help="SVG plot of 2D bodies")
    sp.add_argument("bodies", nargs="+")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except FlowerlabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
