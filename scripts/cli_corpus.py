#!/usr/bin/env python3
"""Differential corpus for the command-line front end.

Writes a fixed set of body files into a temporary directory, runs every
subcommand in-process through flowerlab.cli.main on them (flags at their
defaults and at representative values, and on files of the wrong
representation) and prints one JSON line per case: the argv with the
directory masked as $TMP, the exit code, the sha256 of stdout and of each
--out or --report file, stderr, and the warnings raised.  It reads only the
public API, so two checkouts can be compared line by line:

    PYTHONPATH=old/src python scripts/cli_corpus.py > old.jsonl
    PYTHONPATH=new/src python scripts/cli_corpus.py > new.jsonl
    diff old.jsonl new.jsonl
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile
import warnings

import numpy as np

from flowerlab import ConvexBody, StarBody, alexandrov, cli, convexify_support, flower_of, polytope_body, random_convex_body
from flowerlab import DirectionGrid, sampled_sphere_grid, square_body, uniform_angle_grid
from flowerlab.bodies import regular_polygon_vertices
from flowerlab.bodyfile import BodyDocument, document_for_convex, document_for_star, serialize_body


def write_inputs(tmp):
    """Write the corpus's body files into tmp; returns their paths by name."""
    files = {}

    def put(name, doc):
        files[name] = f"{tmp}/{name}.json"
        serialize_body(doc, files[name])

    def put_set(name, k, pts):  # support, radial (the flower of k) and petal files
        put(f"{name}-s", document_for_convex(k, {"name": name}))
        put(f"{name}-r", document_for_star(flower_of(k)))
        put(f"{name}-p", BodyDocument(k.grid.dim, "petals", k.grid, points=pts))

    for n in (720, 2048):
        g = uniform_angle_grid(n)
        for seed in (0, 1):
            put_set(f"k{n}-{seed}", random_convex_body(g, seed), np.random.default_rng(seed).normal(size=(9, 2)))
        put_set(f"sq{n}", square_body(g), np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]))  # symmetric
        cross = 1.0 / np.abs(g.directions).sum(axis=1)  # the radial of B_1^2, no support function (violation 0.17)
        put(f"x{n}-r", document_for_star(StarBody(g, cross)))
        put(f"x{n}-s", document_for_convex(ConvexBody(g, cross)))
        for scale in (1e6, 1e-9):
            put(f"t{n}-{scale:g}", document_for_convex(ConvexBody(g, scale * random_convex_body(g, 3).support)))
    g3 = sampled_sphere_grid(3, 512, 0)
    k3 = convexify_support(StarBody(g3, np.exp(0.2 * np.random.default_rng(0).normal(size=512))))
    put_set("k3d", k3, np.random.default_rng(1).normal(size=(12, 3)))
    # petals whose squared lengths overflow the floats
    put(HUGE, BodyDocument(3, "petals", g3, points=1e160 * np.vstack([np.eye(3), -np.eye(3)])))
    put("tri", BodyDocument(2, "polytope", None, points=np.array([[2.0, 0.0], [3.0, 0.0], [2.0, 1.0]])))
    put("slab", BodyDocument(2, "polytope", None, points=np.array([[-1, 0.99], [1, 0.99], [1, 1.01], [-1, 1.01]])))
    g3 = sampled_sphere_grid(3, 2048, 0)  # wide enough that C and the hull radial prune by caps
    k3 = convexify_support(StarBody(g3, np.exp(0.2 * np.random.default_rng(2).normal(size=2048))))
    put_set(BIG3D, k3, np.random.default_rng(3).normal(size=(12, 3)))
    # two petals whose average's max / min leaves the floats
    put(WIDE, BodyDocument(2, "petals", uniform_angle_grid(720), points=np.array([[1e300, 0.0], [-1e-10, 0.0]])))
    g4 = sampled_sphere_grid(4, 2048, 0)  # 4D caps are wide, so C and the hull radial prune row by row
    k4 = convexify_support(StarBody(g4, np.exp(0.2 * np.random.default_rng(4).normal(size=2048))))
    put(f"{BIG4D}-s", document_for_convex(k4, {"name": BIG4D}))
    put(f"{BIG4D}-r", document_for_star(flower_of(k4)))
    g = uniform_angle_grid(8192)  # the grid cap: a pentagon and a random body, with long collinear runs of samples
    pentagon = alexandrov(polytope_body(g, regular_polygon_vertices(5, 1.5, 0.3)).support, g)
    for name, k in (("kgon", pentagon), ("body", random_convex_body(g, 5))):
        put(f"{CAP}-{name}-s", document_for_convex(k, {"name": name}))
        put(f"{CAP}-{name}-r", document_for_star(flower_of(k)))
    g = uniform_angle_grid(720)
    put(TINY, document_for_star(StarBody(g, np.full(720, 1e-310))))
    declared = DirectionGrid(2, g.directions, g.weights)
    put(DIRS2D, document_for_convex(random_convex_body(declared, 0), {"name": DIRS2D}))
    # sums and products past the floats: petals of length 1e308, and supports of 1e200 and 1e-200 on the +-e_i
    # directions in 3D and on 16 uniform angles in 2D
    g = uniform_angle_grid(16)
    put(f"{OVER}-p16", BodyDocument(2, "petals", g, points=np.array([[1e308, 0.0], [-1e308, 0.0]])))
    cube = DirectionGrid(3, np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 1 / 6))
    for value in (1e200, 1e-200):
        put(f"{OVER}-e3-{value:g}", document_for_convex(ConvexBody(cube, np.full(6, value))))
    put(f"{OVER}-s16-1e+200", document_for_convex(ConvexBody(g, np.full(16, 1e200))))
    for n in (8, 9):  # the smallest grids the 2D hull scan sees
        for seed in (0, 1):
            put(f"{SMALL}{n}-{seed}", document_for_convex(random_convex_body(uniform_angle_grid(n), seed)))
    return files


UNARY = [[c, *flags.split()] for c, variants in (
    ("flower", ["", "--tol 1e-3", "--tol 0"]), ("core", ["", "--tol 1e-3"]), ("cof", [""]), ("polar", ["", "--tol 1e-3"]),
    ("alexandrov", [""]), ("volume", [""]), ("stability", [""]), ("plot", [""]), ("invert", [""]),
    ("power", ["--lambda 0.5", "--lambda 2", "--lambda 1", "--lambda 0", "--lambda -1", "--lambda 0.5 --tol 1e-4",
               "--lambda 0.5 --out {tmp}/o.json"]),
    ("fmap", ["--fn power --lambda 0.5", "--fn power --lambda 1e300", "--fn scale --factor 2", "--fn power"]),
    ("dvoretzky", ["--k 1 --trials 3", "--k 2 --trials 2 --grid 64 --seed 1 --sections --report {tmp}/d.csv"]),
    ("global-avg", ["--n-rot 4"])) for flags in variants]
PAIRED = [["compose"], ["rcompose"], ["logmean", "--lambda", "0.5"], ["mixedvol", "--report", "{tmp}/m.csv"]]
HUGE = "huge3d-p"  # petals of length 1e160, run only through the subcommands that project, rotate or measure a flower
BIG3D = "k3d2048"  # a 2048-direction 3D set, run only through the subcommands below, after every other case
BIG3D_CMDS = [["flower"], ["core"], ["polar"], ["power", "--lambda", "2"], ["power", "--lambda", "0.5"]]
WIDE = "wide2-p"  # petals of lengths 1e300 and 1e-10, run only through the last cases
BIG4D = "k4d2048"  # a 2048-direction 4D support/radial set, run only through the subcommands below, at the very end
BIG4D_CMDS = [["flower"], ["core"], ["polar"], ["power", "--lambda", "2"]]
CAP = "cap8192"  # support/radial sets on the 8192-direction grid, run only through the subcommands below, after all else
CAP_CMDS = [["flower"], ["polar"], ["volume"]]
TINY = "tiny720-r"  # radial samples of 1e-310, whose reciprocals leave the floats: run only through cof, at the end
DIRS2D = "dirs720-s"  # the 720 uniform rays declared as a directions grid: run only through the last cases
OVER = "over"  # files whose sums or products leave the floats: run only through the cases after DIRS2D's
SMALL = "small"  # random bodies on uniform grids of 8 and 9 angles: run only through power and compose, at the end


def cases(files):
    """Every case as an argv list of text, with {tmp} still to fill in."""
    out = [[*cmd[:1], f, *cmd[1:]] for name, f in files.items() if name not in (HUGE, WIDE, TINY, DIRS2D)
           and not name.startswith((BIG3D, BIG4D, CAP, OVER, SMALL)) for cmd in UNARY]
    for a, b in (("k720-0-s", "k720-1-s"), ("k2048-0-s", "k2048-1-s"), ("k720-0-s", "k720-0-r"), ("x720-s", "k720-0-s"),
                 ("k720-0-s", "x720-s"), ("t720-1e+06", "k720-0-s"), ("k3d-s", "k3d-s"), ("k720-0-s", "k2048-0-s")):
        out += [[cmd[0], files[a], files[b], *cmd[1:]] for cmd in PAIRED]
        out.append(["bm-probe", files[a], files[b], files[b], "--mode", "rcompose", "--report", "{tmp}/b.csv"])
        out.append(["bm-probe", files[b], files[a], files[a]])
    out += [["invert", files[p], *flags] for p in ("tri", "slab") for flags in
            (["--outcone"], ["--samples", "50", "--seed", "3", "--tol", "1e-3"], ["--outcone", "--trunc-scale", "4"])]
    out += [["kashin", "--dim", "3"], ["kashin", "--dim", "4", "--petals", "6", "--grid", "64", "--seed", "2"]]
    out += [[cmd[0], files[HUGE], *cmd[1:]] for cmd in UNARY if cmd[0] in ("dvoretzky", "global-avg", "stability")]
    out += [[cmd[0], files[f"{BIG3D}-{rep}"], *cmd[1:]] for rep in "srp" for cmd in BIG3D_CMDS]
    out += [["global-avg", files[WIDE], "--n-rot", "1"], ["power", files["k2048-0-s"], "--lambda", "3"]]
    # a volume past the floats (refused), a volume on the wide 3D grid, and a Kashin average that vanishes (inf)
    out += [["volume", files[HUGE]], ["volume", files[f"{BIG3D}-s"]], ["kashin", "--dim", "8", "--petals", "4", "--grid", "64"]]
    out += [[cmd[0], files[f"{BIG4D}-{rep}"], *cmd[1:]] for rep in "sr" for cmd in BIG4D_CMDS]
    out += [[*cmd, files[f"{CAP}-{name}-{rep}"]] for name in ("kgon", "body") for rep in "sr" for cmd in CAP_CMDS]
    out += [["cof", files[TINY]], ["compose", files[DIRS2D], files[DIRS2D]],
            ["fmap", files[DIRS2D], "--fn", "power", "--lambda", "0.5"]]
    e3, s16 = [files[f"{OVER}-e3-{value:g}"] for value in (1e200, 1e-200)], files[f"{OVER}-s16-1e+200"]
    out += [["global-avg", files[f"{OVER}-p16"], "--n-rot", "2"], *(["mixedvol", f, f, f] for f in e3),
            *(["volume", f] for f in e3), ["mixedvol", s16, s16], ["volume", s16]]
    for n in (8, 9):
        k0, k1 = files[f"{SMALL}{n}-0"], files[f"{SMALL}{n}-1"]
        out += [["power", k0, "--lambda", "0.5"], ["power", k0, "--lambda", "3"], ["compose", k0, k1]]
    return out


def run_case(argv, tmp):
    """Run one case through cli.main and return its JSON record."""
    argv = [a.replace("{tmp}", tmp) for a in argv]
    outputs = [a for prev, a in zip(argv, argv[1:]) if prev in ("--out", "--report")]
    for path in outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    mask = lambda text: text.replace(tmp, "$TMP")  # noqa: E731
    digest = lambda data: hashlib.sha256(data).hexdigest()  # noqa: E731
    files = {mask(p): digest(open(p, "rb").read()) if os.path.exists(p) else None for p in outputs}
    return {"argv": [mask(a) for a in argv], "exit": code, "stdout": digest(stdout.getvalue().encode()), "files": files,
            "stderr": mask(stderr.getvalue()), "warnings": [f"{w.category.__name__}: {w.message}" for w in seen]}


def main():
    os.environ.pop("FLOWERLAB_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in cases(write_inputs(tmp)):
            print(json.dumps(run_case(argv, tmp)), flush=True)


if __name__ == "__main__":
    main()
