"""Command-line front end.

Every subcommand is a thin adapter: parse body files, call the corresponding
library operation, serialize the result.  Outputs are deterministic for fixed
inputs and seed; pure body transforms pass input metadata through unchanged so
that involutions (cof twice) round-trip byte-identically.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys

from . import bodies, calculus, localtheory, mixedvol
from .bodyfile import MAX_GRID_SIZE, BodyDocument, document_for_convex, document_for_star, parse_body, serialize_body
from .errors import BodyFileError, CertificationRequiredError, FlowerlabError, ParameterError
from .inversion import CONVEX_POSITION_TOL, TruncatedOutCone, is_inversion_convex
from .localtheory import ExperimentReport
from .spherecore import child_seed
from .svgplot import plot_svg

DEFAULT_GRID_N = 720
# kashin's dense arrays, the m x dim petal matrix and the --grid x m product,
# may each hold at most as many floats as an N x N matrix at the grid cap
MAX_KASHIN_ENTRIES = MAX_GRID_SIZE ** 2


def _int_arg(lo: float, hi: float, expected: str):
    """argparse type: an integer in [lo, hi]; anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            if lo <= (value := int(text)) <= hi:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_seed_arg = _int_arg(0, math.inf, "a non-negative integer")


def _finite_float(text: str, low: float = -math.inf, strict: bool = False) -> float:
    """argparse type: a finite float of at least low (above low if strict); nan, inf and other values are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isfinite(value) and (value > low if strict else value >= low):
        return value
    bound = f"a number {'>' if strict else '>='} {low:g}"
    raise argparse.ArgumentTypeError(f"expected {bound if math.isfinite(value) else 'a finite number'}, got {text!r}")


def _write(text: str, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: BodyDocument, args):
    _write(serialize_body(doc), args)


def _load_convex(path, doc: BodyDocument | None = None, tol: float | None = None) -> bodies.ConvexBody:
    """The certified convex body of a support file (pass `doc` if parsed): its samples must pass the certificate within tol."""
    doc = parse_body(path) if doc is None else doc
    if doc.representation != "support":
        raise BodyFileError(f"{path}: expected a support body, got '{doc.representation}'")
    rep = bodies.is_support_consistent(doc.grid, doc.values, tol)
    if not rep.ok:
        raise CertificationRequiredError(f"{path}: support samples failed certification: violation {rep.violation:.3e}")
    return bodies.ConvexBody(doc.grid, doc.values, certified=True)


def _load_flower(doc: BodyDocument, tol: float | None = None) -> bodies.Flower:
    """The flower of a petals or radial file; radial samples must pass the certificate within tol, as in core."""
    f = doc.to_flower()
    if doc.representation == "radial":
        bodies.core_of(f, tol)
    return f


def cmd_flower(args):
    doc = parse_body(args.body)
    if doc.representation == "support":
        f = bodies.flower_of(_load_convex(args.body, doc, args.tol))
    else:
        f = _load_flower(doc, args.tol)
    _emit(document_for_star(f, metadata=doc.metadata), args)


def cmd_core(args):
    doc = parse_body(args.body)
    _emit(document_for_convex(bodies.core_of(doc.to_flower(), tol=args.tol), metadata=doc.metadata), args)


def cmd_cof(args):
    doc = parse_body(args.body)
    _emit(document_for_star(bodies.cof(doc.to_star()), doc.representation, metadata=doc.metadata), args)


def cmd_polar(args):
    doc = parse_body(args.body)
    _emit(document_for_convex(bodies.polar(_load_convex(args.body, doc, args.tol)), metadata=doc.metadata), args)


def cmd_alexandrov(args):
    doc = parse_body(args.body)
    _emit(document_for_convex(bodies.alexandrov(doc.to_star().radial, doc.grid), metadata=doc.metadata), args)


def cmd_power(args):
    doc = parse_body(args.body)
    res = calculus.power(_load_convex(args.body, doc), args.lam, tol=args.tol)
    meta = dict(doc.metadata)
    meta["power"] = {"lambda": args.lam, "tol": args.tol, "m_final": res.m_final, "increment": res.increment}
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
    k = calculus.apply_radial_map(_load_convex(args.body, doc), f)
    meta = dict(doc.metadata)
    meta["fmap"] = detail
    _emit(document_for_convex(k, metadata=meta), args)


def cmd_compose(args):
    """compose and rcompose: the output carries T's metadata."""
    op = calculus.compose if args.command == "compose" else calculus.radial_compose
    doc = parse_body(args.t)
    out = op(_load_convex(args.t, doc), _load_convex(args.k))
    _emit(document_for_convex(out, metadata=doc.metadata), args)


def cmd_logmean(args):
    k = _load_convex(args.k)
    t = _load_convex(args.t)
    out = calculus.log_mean_0(k, t, args.lam)
    meta = {"logmean": {"lambda": args.lam}}
    _emit(document_for_convex(out, metadata=meta), args)


def cmd_mixedvol(args):
    ks = [_load_convex(p) for p in args.bodies]
    _write(f"{mixedvol.flower_mixed_volume(*ks)!r}\n", args)
    if args.report:
        report = ExperimentReport(("indices", "value"))
        for idx in itertools.combinations_with_replacement(range(len(ks)), len(ks)):
            report.add("-".join(map(str, idx)), repr(mixedvol.flower_mixed_volume(*(ks[i] for i in idx))))
        report.write_csv(args.report)


def cmd_volume(args):
    _write(f"{bodies.volume(parse_body(args.body).to_body())!r}\n", args)


def cmd_invert(args):
    doc = parse_body(args.body)
    poly = doc.to_polytope()
    shape = TruncatedOutCone(poly, args.trunc_scale) if args.outcone else poly
    verdict = is_inversion_convex(shape, samples=args.samples, seed=args.seed, tol=args.tol)
    obj = {
        "convex": verdict.convex,
        "witness": None
        if verdict.witness is None
        else {"x": list(map(float, verdict.witness[0])), "y": list(map(float, verdict.witness[1])), "t": verdict.witness[2]},
        "direct_depth": verdict.direct_depth,
        "samples": verdict.samples,
    }
    _write(json.dumps(obj, indent=2) + "\n", args)


def cmd_stability(args):
    rep = localtheory.stability_check(_load_flower(parse_body(args.body)))
    _write(json.dumps(dataclasses.asdict(rep), indent=2) + "\n", args)


def cmd_dvoretzky(args):
    f = _load_flower(parse_body(args.body))
    subgrid = None
    if args.k >= 2:
        subgrid = localtheory.default_subgrid(args.k, size=args.grid, seed=child_seed(args.seed, 2 ** 20))
    res = localtheory.dvoretzky_search(f, args.k, args.trials, args.seed, subgrid=subgrid, include_sections=args.sections)
    qs = res.quantiles()
    obj = {
        "k": res.k,
        "trials": res.trials,
        "best_distance": res.best_distance,
        "quantiles": {str(k): v for k, v in qs.items()},
    }
    _write(json.dumps(obj, indent=2) + "\n", args)
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
    f = _load_flower(parse_body(args.body))
    ratio = localtheory.global_average(f, args.n_rot, args.seed)
    _write(f"{ratio!r}\n", args)


def cmd_kashin(args):
    grid = localtheory.default_subgrid(args.dim, size=args.grid, seed=child_seed(args.seed, 2 ** 20))
    ratio = localtheory.kashin_petals(args.dim, args.seed, num_petals=args.petals, grid=grid)
    _write(f"{ratio!r}\n", args)


def cmd_bm_probe(args):
    t = _load_convex(args.t)
    k1 = _load_convex(args.k1)
    k2 = _load_convex(args.k2)
    rep = calculus.check_composition_bm(t, k1, k2, mode=args.mode)
    _write(f"{rep.margin!r}\n", args)
    if args.report:
        report = ExperimentReport(("t", "k1", "k2", "mode", "margin"))
        report.add(os.path.basename(args.t), os.path.basename(args.k1), os.path.basename(args.k2), args.mode, repr(rep.margin))
        report.write_csv(args.report)


def cmd_plot(args):
    objs = []
    labels = []
    for path in args.bodies:
        doc = parse_body(path)
        objs.append(doc.to_body())
        labels.append(doc.metadata.get("name", os.path.splitext(os.path.basename(path))[0]))
    _write(plot_svg(objs, labels=labels), args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand, each carrying only the flags its handler reads; built once per process.

    --seed defaults to None here: main reads FLOWERLAB_SEED on every call, so
    the cached parser does not freeze the environment of its first call.
    """

    def flag(*names, **spec):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **spec)
        return parent

    out = flag("--out", default=None, help="output path (default stdout)")
    report = flag("--report", default=None, help="CSV report path")
    seed = flag("--seed", type=_seed_arg, default=None, help="random seed (env FLOWERLAB_SEED)")
    count = _int_arg(-math.inf, MAX_GRID_SIZE, f"an integer of at most {MAX_GRID_SIZE}")
    grid = flag("--grid", type=count, default=DEFAULT_GRID_N, help="size of the working grid")
    cert_tol = flag("--tol", type=lambda text: _finite_float(text, 0.0), default=None,
                    help="non-negative input certificate tolerance (default 1e-9 in 2D, else 1e-6)")
    power_tol = flag("--tol", type=lambda text: _finite_float(text, 0.0, strict=True), default=calculus.POWER_TOL,
                     help="positive power-map tolerance (default %(default)s)")
    invert_tol = flag("--tol", type=lambda text: _finite_float(text, 0.0), default=CONVEX_POSITION_TOL,
                      help="non-negative convex-position tolerance (default %(default)s)")

    p = argparse.ArgumentParser(prog="flowerlab", description="flower calculus for convex bodies")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, *flags, **kwargs):
        sp = sub.add_parser(name, parents=[out, *flags], **kwargs)
        sp.set_defaults(handler=fn)
        return sp

    add("flower", cmd_flower, cert_tol, help="flower of a convex body").add_argument("body")
    add("core", cmd_core, cert_tol, help="core of a flower").add_argument("body")
    add("cof", cmd_cof, help="spherical-inversion co-image (reciprocal radial)").add_argument("body")
    add("polar", cmd_polar, cert_tol, help="polar dual").add_argument("body")
    add("alexandrov", cmd_alexandrov, help="Alexandrov body of the bounds").add_argument("body")

    sp = add("power", cmd_power, power_tol, help="proper power K^lambda")
    sp.add_argument("body")
    sp.add_argument("--lambda", dest="lam", type=_finite_float, required=True)

    sp = add("fmap", cmd_fmap, help="apply a named radial map")
    sp.add_argument("body")
    sp.add_argument("--fn", choices=("power", "scale"), required=True)
    sp.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    sp.add_argument("--factor", type=_finite_float, default=None)

    sp = add("compose", cmd_compose, help="composition T o K")
    sp.add_argument("t")
    sp.add_argument("k")
    sp = add("rcompose", cmd_compose, help="radial composition")
    sp.add_argument("t")
    sp.add_argument("k")

    sp = add("logmean", cmd_logmean, help="logarithmic 0-mean of K and T")
    sp.add_argument("k")
    sp.add_argument("t")
    sp.add_argument("--lambda", dest="lam", type=_finite_float, required=True)

    sp = add("mixedvol", cmd_mixedvol, report, help="flower mixed volume")
    sp.add_argument("bodies", nargs="+")

    add("volume", cmd_volume, help="volume of a body").add_argument("body")

    sp = add("invert", cmd_invert, invert_tol, seed, help="inversion-convexity verdict for a polytope")
    sp.add_argument("body")
    sp.add_argument("--samples", type=count, default=400)
    sp.add_argument("--outcone", action="store_true", help="treat the polytope as the base of an out-cone")
    sp.add_argument("--trunc-scale", type=_finite_float, default=8.0)

    add("stability", cmd_stability, help="flower stability report").add_argument("body")

    sp = add("dvoretzky", cmd_dvoretzky, seed, grid, report, help="random-projection roundness search")
    sp.add_argument("body")
    sp.add_argument("--k", type=count, required=True)
    sp.add_argument("--trials", type=count, required=True)
    sp.add_argument("--sections", action="store_true", help="also record section distances")

    sp = add("global-avg", cmd_global_avg, seed, help="oscillation ratio of rotation averages")
    sp.add_argument("body")
    sp.add_argument("--n-rot", dest="n_rot", type=count, required=True)

    sp = add("kashin", cmd_kashin, seed, grid, help="averaged rotated petals experiment")
    sp.add_argument("--dim", type=_int_arg(2, MAX_GRID_SIZE, f"an integer from 2 to {MAX_GRID_SIZE}"), required=True)
    sp.add_argument("--petals", type=count, default=None)

    sp = add("bm-probe", cmd_bm_probe, report, help="Brunn-Minkowski composition probe")
    sp.add_argument("t")
    sp.add_argument("k1")
    sp.add_argument("k2")
    sp.add_argument("--mode", choices=("compose", "rcompose"), default="compose")

    sp = add("plot", cmd_plot, help="SVG plot of 2D bodies")
    sp.add_argument("bodies", nargs="+")

    return p


def _kashin_size_error(args) -> str | None:
    """Why the kashin run's dense arrays are too big for the cap, or None."""
    m = 2 * args.dim if args.petals is None else args.petals
    for what, rows, cols in (("petal matrix", m, args.dim), ("grid product", args.grid, m)):
        if rows * cols > MAX_KASHIN_ENTRIES:
            return (f"the {rows} x {cols} {what} would need {rows * cols * 8:,} bytes; "
                    f"the cap is {MAX_KASHIN_ENTRIES:,} entries ({MAX_KASHIN_ENTRIES * 8:,} bytes)")
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) is None:  # a subcommand with --seed, run without it
        try:
            args.seed = _seed_arg(os.environ.get("FLOWERLAB_SEED") or "0")
        except argparse.ArgumentTypeError as e:
            parser.error(f"argument --seed: {e}")
    if args.command == "kashin" and (problem := _kashin_size_error(args)):
        parser.error(problem)
    try:
        try:
            args.handler(args)
        except OSError as e:  # body files fail inside parse_body, so this is an --out or --report path
            raise FlowerlabError(f"cannot write output: {e}") from e
    except FlowerlabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
