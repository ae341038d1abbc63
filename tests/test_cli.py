import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowerlab.bodyfile as bodyfile
import flowerlab.cli as cli
import flowerlab.localtheory as localtheory
from flowerlab.bodies import (
    ConvexBody,
    StarBody,
    flower_from_petals,
    flower_of,
    polar,
    random_convex_body,
    square_body,
    unit_ball,
    volume,
)
from flowerlab.bodyfile import (
    MAX_GRID_SIZE,
    REPRESENTATIONS,
    document_for_convex,
    document_for_star,
    parse_body,
    parse_body_obj,
    serialize_body,
)
from flowerlab.calculus import power
from flowerlab.cli import build_parser, main
from flowerlab.errors import BodyFileError, FlowerlabError
from flowerlab.mixedvol import flower_mixed_volume
from flowerlab.spherecore import uniform_angle_grid


@pytest.fixture
def square_file(tmp_path, grid720):
    doc = document_for_convex(square_body(grid720), metadata={"name": "square"})
    path = tmp_path / "square.json"
    serialize_body(doc, path)
    return path


@pytest.fixture
def square_flower_file(tmp_path, grid720):
    f = flower_of(square_body(grid720))
    doc = document_for_star(f, metadata={"name": "square-flower"})
    path = tmp_path / "square_flower.json"
    serialize_body(doc, path)
    return path


def run(args):
    return main([str(a) for a in args])


class TestBodyFile:
    def test_roundtrip_bytes(self, square_file):
        text = square_file.read_text()
        assert serialize_body(parse_body(square_file)) == text

    def test_zero_value_rejected_with_index(self, tmp_path, grid720):
        doc = document_for_convex(unit_ball(grid720))
        obj = json.loads(serialize_body(doc))
        obj["values"][3] = 0.0
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(BodyFileError, match=r"values\[3\]"):
            parse_body(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\"dim\": 2}")
        with pytest.raises(BodyFileError, match="representation"):
            parse_body(p)

    def test_invalid_json_line_anchored(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\n  \"dim\": 2,,\n}")
        with pytest.raises(BodyFileError, match="line 2"):
            parse_body(p)

    def test_petals_file_parses_to_flower(self, tmp_path):
        obj = {
            "dim": 2,
            "representation": "petals",
            "grid": {"type": "uniform-angle", "n": 64},
            "points": [[1.0, 0.0], [0.0, 1.0]],
            "metadata": {},
        }
        p = tmp_path / "petals.json"
        p.write_text(json.dumps(obj))
        f = parse_body(p).to_flower()
        d = uniform_angle_grid(64).directions
        expected = np.maximum(np.maximum(d[:, 0], 0.0), np.maximum(d[:, 1], 0.0))
        assert np.abs(f.radial - np.maximum(expected, 1e-9)).max() == 0.0

    def test_wrong_dim_points(self, tmp_path):
        obj = {"dim": 3, "representation": "polytope", "points": [[1.0, 0.0]], "metadata": {}}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(BodyFileError, match=r"points\[0\]"):
            parse_body(p)


class TestBodyFileHardening:
    @staticmethod
    def radial_obj(n=8, values=None, **overrides):
        obj = {"dim": 2, "representation": "radial", "grid": {"type": "uniform-angle", "n": n},
               "values": [1.0] * n if values is None else values, "metadata": {}}
        obj.update(overrides)
        return obj

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"dim": True}, "dim"),
            ({"grid": {"type": "uniform-angle", "n": True}}, "integer 'n'"),
            ({"values": [True] * 8}, r"values\[0\]"),
            ({"representation": "petals", "points": [[1.0, True]]}, r"points\[0\]\[1\]"),
        ],
    )
    def test_booleans_rejected(self, overrides, match):
        with pytest.raises(BodyFileError, match=match):
            parse_body_obj(self.radial_obj(**overrides))

    def test_all_true_radial_file_exits_1(self, tmp_path, capsys):
        p = tmp_path / "true.json"
        p.write_text(json.dumps(self.radial_obj(values=[True] * 8)))
        assert run(["volume", p]) == 1
        assert "values[0]" in capsys.readouterr().err

    def test_overflowing_direction_exits_1_without_a_warning(self, tmp_path, capsys):
        vectors = [list(v) for v in _AXES3]
        vectors[0] = [1e200, 0.0, 0.0]
        grid = {"type": "directions", "vectors": vectors, "weights": [1 / 6] * 6}
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(self.radial_obj(dim=3, n=6, values=[1.0] * 6, grid=grid)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["volume", p]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "directions must be unit vectors" in captured.err

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(BodyFileError, match=r"values\[2\]"):
            parse_body_obj(self.radial_obj(values=[1.0, 1.0, 10 ** 400] + [1.0] * 5))

    def test_sizes_checked_before_the_grid_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(bodyfile, "uniform_angle_grid", refuse)
        monkeypatch.setattr(bodyfile, "DirectionGrid", refuse)
        huge = 10 ** 9
        with pytest.raises(BodyFileError, match=f"grid: {huge} directions exceed the cap of {MAX_GRID_SIZE}$"):
            parse_body_obj(self.radial_obj(n=huge, values=[1.0] * 3))
        with pytest.raises(BodyFileError, match="cap"):
            parse_body_obj(self.radial_obj(representation="petals", points=[[1.0, 0.0]],
                                           grid={"type": "uniform-angle", "n": MAX_GRID_SIZE + 1}))
        with pytest.raises(BodyFileError, match=r"values: expected 64 entries, got 3"):
            parse_body_obj(self.radial_obj(n=64, values=[1.0] * 3))
        n = MAX_GRID_SIZE + 1
        vectors = [[1.0, 0.0, 0.0]] * n
        with pytest.raises(BodyFileError, match=f"grid: {n} directions exceed the cap of {MAX_GRID_SIZE}$"):
            parse_body_obj(self.radial_obj(dim=3, grid={"type": "directions", "vectors": vectors, "weights": []}))


_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.integers(-3, 3), st.floats())
_NUMBER = st.one_of(st.floats(-4.0, 4.0), st.integers(-2, 4), st.booleans(),
                    st.sampled_from([10 ** 400, float("nan"), float("inf")]))
_AXES3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]
_MISSING = object()
_BROKEN = {
    "dim": st.one_of(st.integers(-1, 4), _JUNK),
    "representation": _JUNK,
    "grid": st.one_of(
        st.builds(lambda n: {"type": "uniform-angle", "n": n}, st.one_of(st.integers(-1, 9), _JUNK)),
        st.builds(lambda v, w: {"type": "directions", "vectors": v, "weights": w},
                  st.lists(st.lists(_NUMBER, max_size=4), max_size=6), st.lists(_NUMBER, max_size=6)),
        st.fixed_dictionaries({"type": _JUNK}),
        _JUNK,
    ),
    "values": st.one_of(st.lists(_NUMBER, max_size=65), _JUNK),
    "points": st.one_of(st.lists(st.lists(_NUMBER, max_size=4), max_size=4), _JUNK),
    "metadata": st.one_of(st.fixed_dictionaries({"name": _JUNK}), _JUNK),
}


@st.composite
def _body_objs(draw):
    """A well-formed body object on at most 64 directions with up to two fields broken or dropped."""
    dim = draw(st.sampled_from([2, 3, 1]))
    n = draw(st.integers(8, 64))
    grid = draw(st.sampled_from([{"type": "uniform-angle", "n": n}, {"type": "directions", "vectors": _AXES3,
                                                                     "weights": [1 / 6] * 6}]))
    size = n if grid["type"] == "uniform-angle" else len(_AXES3)
    obj = {
        "dim": dim,
        "representation": draw(st.sampled_from(REPRESENTATIONS)),
        "grid": grid,
        "values": draw(st.lists(st.floats(0.5, 2.0), min_size=size, max_size=size)),
        "points": draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim), min_size=1, max_size=6)),
        "metadata": {"name": "fuzz"},
    }
    for key in draw(st.sets(st.sampled_from(sorted(obj)), max_size=2)):
        obj[key] = draw(st.one_of(st.just(_MISSING), _BROKEN[key]))
    return {k: v for k, v in obj.items() if v is not _MISSING}


def _finite_item(v):
    """The parser's item rule: an int or float within the float range, booleans refused."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:
        return False


_ITEM = st.one_of(_NUMBER, st.floats(-1e6, 1e6), st.sampled_from([0, -0.0, 2 ** 70, -(10 ** 400), 5e-324, "1.0", None, [1.0]]))


def _with_one(items, i, item):
    return [item if k == i else v for k, v in enumerate(items)]


class TestOnePassItemCheck:
    """Values, direction vectors and weights are checked a list at a time; the first bad item is worded as the item loop words it."""

    @staticmethod
    def _outcome(obj):
        try:
            return parse_body_obj(obj), None
        except FlowerlabError as e:
            return None, str(e)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_ITEM, min_size=8, max_size=8))
    def test_values(self, values):
        doc, err = self._outcome(TestBodyFileHardening.radial_obj(values=values))
        bad = [i for i, v in enumerate(values) if not _finite_item(v) or v <= 0]
        if bad:
            assert err == f"values[{bad[0]}]: must be a positive finite number, got {values[bad[0]]!r}"
        else:
            assert err is None and doc.values.tobytes() == np.asarray(values, dtype=float).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(i=st.integers(0, 5), j=st.integers(0, 2), item=_ITEM, row=st.one_of(st.none(), st.lists(_ITEM, max_size=4)),
           weight=st.one_of(st.none(), _ITEM))
    def test_grid_vectors_and_weights(self, i, j, item, row, weight):
        vectors = [list(v) for v in _AXES3]
        vectors[i][j] = item
        if row is not None:
            vectors[(i + 1) % 6] = row
        weights = [1 / 6] * 6 if weight is None else _with_one([1 / 6] * 6, i, weight)
        grid = {"type": "directions", "vectors": vectors, "weights": weights}
        doc, err = self._outcome(TestBodyFileHardening.radial_obj(dim=3, n=6, values=[1.0] * 6, grid=grid))
        bad = [k for k, v in enumerate(vectors) if not isinstance(v, list) or len(v) != 3 or not all(map(_finite_item, v))]
        if bad:
            assert err == f"grid: vectors[{bad[0]}]: expected 3 finite numbers"
        elif not all(map(_finite_item, weights)):
            assert err == "grid: 'weights' must be a list of finite numbers"
        elif doc is not None:
            assert doc.grid.directions.tobytes() == np.asarray(vectors, dtype=float).tobytes()
            assert doc.grid.weights.tobytes() == np.asarray(weights, dtype=float).tobytes()
        else:
            assert not err.startswith("grid: vectors") and not err.startswith("grid: 'weights'")

    def test_list_subclasses_take_the_item_loop(self):
        class Items(list):
            pass

        grid = {"type": "directions", "vectors": [Items(v) for v in _AXES3], "weights": Items([1 / 6] * 6)}
        doc = parse_body_obj(TestBodyFileHardening.radial_obj(dim=3, n=6, values=[1.0] * 6, grid=grid))
        assert np.array_equal(doc.grid.directions, _AXES3)
        assert np.array_equal(doc.grid.weights, [1 / 6] * 6)


_COMMANDS = [
    ["volume"], ["flower"], ["core"], ["cof"], ["polar"], ["alexandrov"], ["stability"], ["plot"],
    ["power", "--lambda", "0.5"], ["fmap", "--fn", "scale", "--factor", "2"], ["global-avg", "--n-rot", "2"],
    ["dvoretzky", "--k", "2", "--trials", "2", "--grid", "16"], ["invert", "--samples", "100"], ["mixedvol"],
]


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(obj=_body_objs())
    def test_parse_body_obj_raises_only_domain_errors(self, obj):
        try:
            parse_body_obj(obj)
        except FlowerlabError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(obj=_body_objs())
    def test_main_exits_0_1_or_2_without_traceback(self, tmp_path_factory, obj):
        path = tmp_path_factory.mktemp("fuzz") / "body.json"
        path.write_text(json.dumps(obj))
        for command in _COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            if command[0] == "mixedvol":
                argv.append(str(path))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as e:
                    code = e.code
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err.getvalue()


class TestSubcommandsGolden:
    def test_flower_matches_module(self, square_file, tmp_path, grid720):
        out = tmp_path / "f.json"
        assert run(["flower", square_file, "--out", out]) == 0
        got = parse_body(out)
        assert np.array_equal(got.values, flower_of(square_body(grid720)).radial)

    def test_core_inverts_flower(self, square_file, square_flower_file, tmp_path):
        out = tmp_path / "core.json"
        assert run(["core", square_flower_file, "--out", out]) == 0
        assert np.array_equal(parse_body(out).values, parse_body(square_file).values)

    def test_cof_twice_returns_input_bytes(self, square_flower_file, tmp_path):
        once = tmp_path / "once.json"
        twice = tmp_path / "twice.json"
        assert run(["cof", square_flower_file, "--out", once]) == 0
        assert run(["cof", once, "--out", twice]) == 0
        assert twice.read_bytes() == square_flower_file.read_bytes()

    def test_polar_matches_module(self, square_file, tmp_path, grid720):
        out = tmp_path / "polar.json"
        assert run(["polar", square_file, "--out", out]) == 0
        assert np.array_equal(parse_body(out).values, polar(square_body(grid720)).support)

    def test_power_on_square(self, square_file, tmp_path, grid720):
        out = tmp_path / "pow.json"
        assert run(["power", square_file, "--lambda", "0.5", "--out", out]) == 0
        doc = parse_body(out)
        k = square_body(grid720)
        ref = power(k, 0.5)
        assert np.array_equal(doc.values, ref.body.support)
        # through the file only support samples survive; the reconstructed
        # radial is the outer half-space representation (O(1/N^2) above r^0.5)
        r = doc.to_body().radial()
        assert np.all(r >= k.radial() ** 0.5 - 1e-12)
        assert np.abs(r - k.radial() ** 0.5).max() < 1e-4
        assert doc.metadata["power"]["lambda"] == 0.5
        assert doc.metadata["power"]["m_final"] == ref.m_final

    def test_volume_prints_module_value(self, square_file, capsys, grid720):
        assert run(["volume", square_file]) == 0
        got = float(capsys.readouterr().out.strip())
        assert got == volume(square_body(grid720))

    def test_volume_on_radial_and_petals_files(self, square_flower_file, tmp_path, capsys, grid720):
        assert run(["volume", square_flower_file]) == 0
        assert float(capsys.readouterr().out) == volume(flower_of(square_body(grid720)))
        grid = uniform_angle_grid(64)
        pts = [[1.0, 0.0], [-0.5, 0.8], [0.0, -1.2]]
        p = tmp_path / "petals.json"
        p.write_text(json.dumps({"dim": 2, "representation": "petals", "grid": {"type": "uniform-angle", "n": 64},
                                 "points": pts, "metadata": {}}))
        assert run(["volume", p]) == 0
        assert float(capsys.readouterr().out) == volume(flower_from_petals(pts, grid))

    def test_mixedvol_matches_module(self, tmp_path, capsys, grid720):
        k1 = random_convex_body(grid720, 1)
        k2 = random_convex_body(grid720, 2)
        p1, p2 = tmp_path / "k1.json", tmp_path / "k2.json"
        serialize_body(document_for_convex(k1), p1)
        serialize_body(document_for_convex(k2), p2)
        assert run(["mixedvol", p1, p2]) == 0
        got = float(capsys.readouterr().out.strip())
        assert got == flower_mixed_volume(k1, k2)

    def test_mixedvol_segments_quarter(self, tmp_path, capsys):
        grid = uniform_angle_grid(4096)
        from flowerlab.bodies import polytope_body

        s1 = polytope_body(grid, [[0.0, 0.0], [1.0, 0.0]])
        s2 = polytope_body(grid, [[0.0, 0.0], [0.0, 1.0]])
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        serialize_body(document_for_convex(s1), p1)
        serialize_body(document_for_convex(s2), p2)
        assert run(["mixedvol", p1, p2]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.25, abs=1e-6)

    def test_compose_and_logmean(self, square_file, tmp_path, grid720):
        ballp = tmp_path / "ball.json"
        serialize_body(document_for_convex(unit_ball(grid720)), ballp)
        out = tmp_path / "c.json"
        assert run(["compose", ballp, square_file, "--out", out]) == 0
        assert np.abs(parse_body(out).values - square_body(grid720).support).max() < 1e-12
        out2 = tmp_path / "lm.json"
        assert run(["logmean", square_file, ballp, "--lambda", "1.0", "--out", out2]) == 0
        assert np.abs(parse_body(out2).values - 1.0).max() < 1e-12

    def test_invert_verdicts(self, tmp_path, capsys):
        obj = {
            "dim": 2,
            "representation": "polytope",
            "points": [[-1.0, 0.99], [1.0, 0.99], [1.0, 1.01], [-1.0, 1.01]],
            "metadata": {},
        }
        p = tmp_path / "slab.json"
        p.write_text(json.dumps(obj))
        assert run(["invert", p, "--seed", "3"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["convex"] is False and verdict["witness"] is not None
        assert run(["invert", p, "--outcone", "--seed", "3"]) == 0
        verdict2 = json.loads(capsys.readouterr().out)
        assert verdict2["convex"] is True

    def test_invert_tol_reaches_verdict(self, tmp_path, capsys, monkeypatch):
        import flowerlab.cli as cli
        from flowerlab.inversion import CONVEX_POSITION_TOL, InversionVerdict

        seen = []

        def verdict(shape, samples, seed, tol):
            seen.append(tol)
            return InversionVerdict(True, None, 0.0, samples)

        monkeypatch.setattr(cli, "is_inversion_convex", verdict)
        obj = {"dim": 2, "representation": "polytope", "points": [[-1.0, 0.5], [1.0, 0.5], [0.0, 2.0]], "metadata": {}}
        p = tmp_path / "tri.json"
        p.write_text(json.dumps(obj))
        assert run(["invert", p]) == 0
        assert run(["invert", p, "--tol", "0"]) == 0
        assert seen == [CONVEX_POSITION_TOL, 0.0]

    @pytest.mark.parametrize("seed", ["0", "3"])
    @pytest.mark.parametrize(
        "points",
        [[[-1.0, 0.5], [1.0, 0.5], [0.0, 2.0]],
         [[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (0.95, 1.05)]],
        ids=["triangle", "slab-3d"],
    )
    def test_invert_outcone_at_tol_0_is_convex(self, tmp_path, capsys, points, seed):
        # the image cloud is in convex position; its depth used to be vertex
        # noise such as 2.2e-16, which tol 0 rejected (exit 1), or -0.0
        p = tmp_path / "poly.json"
        p.write_text(json.dumps({"dim": len(points[0]), "representation": "polytope", "points": points,
                                 "metadata": {}}))
        assert run(["invert", p, "--outcone", "--tol", "0", "--seed", seed]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["convex"] is True and repr(verdict["direct_depth"]) == "0.0"

    def test_power_on_a_hemisphere_grid_is_1(self, tmp_path, capsys):
        # the hull of a cloud on one open hemisphere does not hold the origin
        d = np.random.default_rng(4).normal(size=(64, 3))
        d[:, 2] = np.abs(d[:, 2]) + 0.05
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        p = tmp_path / "cap.json"
        p.write_text(json.dumps({"dim": 3, "representation": "support", "values": [1.0] * 64, "metadata": {},
                                 "grid": {"type": "directions", "vectors": d.tolist(), "weights": [1 / 64] * 64}}))
        assert run(["power", p, "--lambda", "2"]) == 1
        err = capsys.readouterr().err
        assert "origin strictly inside" in err and "Traceback" not in err

    def test_stability_report(self, square_flower_file, capsys, grid720):
        from flowerlab.localtheory import stability_check

        assert run(["stability", square_flower_file]) == 0
        rep = json.loads(capsys.readouterr().out)
        ref = stability_check(flower_of(square_body(grid720)))
        assert rep["eps"] == ref.eps
        assert rep["flower_distance"] == ref.flower_distance

    def test_stability_report_in_bound_regime(self, tmp_path, capsys, grid720):
        p = tmp_path / "ball_flower.json"
        serialize_body(document_for_star(flower_of(unit_ball(grid720))), p)
        assert run(["stability", p]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["bound_applies"] is True and rep["bound_holds"] is True

    def test_stability_of_petals_past_qhull_range(self, tmp_path, capsys):
        """Petals of length 1e160: qhull gets the cloud scaled by a power of two, so its determinants stay finite."""
        from flowerlab.spherecore import sampled_sphere_grid

        reports = []
        for scale in (1.0, 1e160):
            p = tmp_path / "petals.json"
            pts = scale * np.vstack([np.eye(3), -np.eye(3)])
            serialize_body(bodyfile.BodyDocument(3, "petals", sampled_sphere_grid(3, 512, 0, symmetric=True), points=pts), p)
            assert run(["stability", p]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[1]["eps"] == pytest.approx(reports[0]["eps"], rel=1e-12)

    def test_volume_past_the_floats_is_refused(self, tmp_path, capsys, grid720):
        p = tmp_path / "big.json"
        serialize_body(document_for_convex(ConvexBody(grid720, 1e300 * random_convex_body(grid720, 1).support)), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["volume", p]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "volume leaves the floats" in captured.err

    @pytest.mark.parametrize("cmd", ["flower", "polar", "volume"])
    def test_tiny_support_file_exits_1_without_a_warning(self, cmd, tmp_path, capsys, grid720):
        p = tmp_path / "tiny.json"
        serialize_body(document_for_convex(ConvexBody(grid720, 1e-310 * random_convex_body(grid720, 1).support)), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([cmd, p]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "have reciprocals past the floats" in captured.err

    def test_dvoretzky_with_report(self, tmp_path, capsys):
        obj = {
            "dim": 3,
            "representation": "petals",
            "grid": {
                "type": "directions",
                "vectors": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                            [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
                "weights": [1 / 6] * 6,
            },
            "points": [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                       [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
            "metadata": {},
        }
        p = tmp_path / "b1.json"
        p.write_text(json.dumps(obj))
        rep = tmp_path / "dv.csv"
        assert run(["dvoretzky", p, "--k", "2", "--trials", "5", "--seed", "1", "--report", rep]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["trials"] == 5
        lines = rep.read_text().strip().splitlines()
        assert lines[0] == "trial,seed,k,distance"
        assert len(lines) == 6

    def test_radial_flower_file_runs_dvoretzky_and_global_avg(self, square_flower_file, tmp_path, capsys):
        # a flower without a petal list uses its canonical petals
        outs = []
        for i in range(2):
            rep = tmp_path / f"dv{i}.csv"
            assert run(["dvoretzky", square_flower_file, "--k", "2", "--trials", "4", "--grid", "64", "--seed", "3",
                        "--sections", "--report", rep]) == 0
            assert run(["global-avg", square_flower_file, "--n-rot", "8", "--seed", "2"]) == 0
            outs.append((capsys.readouterr(), rep.read_bytes()))
        (a, rep_a), (b, rep_b) = outs
        assert a.err == "" and a.out == b.out and rep_a == rep_b
        assert rep_a.decode().startswith("trial,seed,k,distance,section_distance\n")
        assert float(a.out.splitlines()[-1]) >= 1.0

    def test_radial_file_must_be_a_flower(self, tmp_path, capsys, grid720):
        # the radial samples of B_1^2 are not support-consistent, so no flower
        # has them; core refuses the file and so does every flower reader
        d = grid720.directions
        cross, ball = tmp_path / "cross.json", tmp_path / "ball.json"
        serialize_body(document_for_star(StarBody(grid720, 1.0 / np.abs(d).sum(axis=1))), cross)
        serialize_body(document_for_star(flower_of(unit_ball(grid720))), ball)
        for argv in (["flower"], ["core"], ["stability"], ["dvoretzky", "--k", "2", "--trials", "3"],
                     ["global-avg", "--n-rot", "4"]):
            assert run([*argv, cross]) == 1
            assert capsys.readouterr().err == "error: not a flower: certificate violation 1.716e-01\n"
            assert run([*argv, ball]) == 0
            assert capsys.readouterr().err == ""

    def test_polar_of_a_tiny_body(self, tmp_path, capsys, grid720):
        # the output's certificate gap, 4.8e-07, is above the absolute 1e-9
        # but only 1 ulp of its largest sample, 2.7e9
        tiny = ConvexBody(grid720, 1e-9 * random_convex_body(grid720, 3).support, certified=True)
        body = tmp_path / "tiny.json"
        serialize_body(document_for_convex(tiny), body)
        assert run(["polar", body]) == 0
        out = parse_body_obj(json.loads(capsys.readouterr().out))
        assert np.array_equal(out.values, polar(tiny).support)

    def test_kashin_deterministic(self, capsys):
        assert run(["kashin", "--dim", "3", "--seed", "5"]) == 0
        a = capsys.readouterr().out
        assert run(["kashin", "--dim", "3", "--seed", "5"]) == 0
        assert capsys.readouterr().out == a

    def test_kashin_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("FLOWERLAB_SEED", "5")
        assert run(["kashin", "--dim", "3"]) == 0
        a = capsys.readouterr().out
        monkeypatch.delenv("FLOWERLAB_SEED")
        assert run(["kashin", "--dim", "3", "--seed", "5"]) == 0
        assert capsys.readouterr().out == a

    def test_bm_probe(self, tmp_path, capsys, grid720):
        ballp = tmp_path / "ball.json"
        serialize_body(document_for_convex(unit_ball(grid720)), ballp)
        k1 = tmp_path / "k1.json"
        serialize_body(document_for_convex(random_convex_body(grid720, 3)), k1)
        rep = tmp_path / "bm.csv"
        assert run(["bm-probe", ballp, k1, k1, "--report", rep]) == 0
        margin = float(capsys.readouterr().out.strip())
        assert margin >= -1e-6
        assert rep.read_text().startswith("t,k1,k2,mode,margin")


class TestPlot:
    def test_plot_regenerates_identically(self, square_file, square_flower_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(["plot", square_file, square_flower_file, "--out", a]) == 0
        assert run(["plot", square_file, square_flower_file, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.count("<polyline") == 2
        assert "circle" in text  # unit reference
        assert "square-flower" in text  # legend from metadata

    def test_markup_in_labels_is_escaped(self, tmp_path, grid720):
        p, svg = tmp_path / "k.json", tmp_path / "k.svg"
        serialize_body(document_for_convex(square_body(grid720), metadata={"name": "K<1 & L"}), p)
        assert run(["plot", p, "--out", svg]) == 0
        texts = [t.text for t in ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert texts == ["K<1 & L"]

    def test_flower_encloses_core_in_plot_data(self, grid720):
        # h_K >= r_K pointwise: the flower curve encloses the body curve
        k = square_body(grid720)
        assert np.all(flower_of(k).radial >= k.radial() - 1e-12)


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as e:
            main(["definitely-not-a-command"])
        assert e.value.code == 2

    def test_domain_error_is_1(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        assert main(["volume", str(p)]) == 1

    @pytest.mark.parametrize(
        "command, obj",
        [
            ("alexandrov", {"dim": 2, "representation": "polytope", "points": [[2.0, 0.0], [3.0, 0.0], [2.0, 1.0]],
                            "metadata": {}}),
            ("invert", {"dim": 1, "representation": "polytope", "points": [[1.0], [2.0]], "metadata": {}}),
        ],
    )
    def test_unusable_body_is_1(self, tmp_path, command, obj):
        p = tmp_path / "body.json"
        p.write_text(json.dumps(obj))
        assert run([command, p]) == 1

    def test_ok_is_0(self, square_file):
        assert run(["volume", square_file]) == 0

    def test_out_into_missing_directory_is_1(self, square_file, tmp_path, capsys):
        assert run(["volume", square_file, "--out", tmp_path / "missing" / "v.txt"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output:")

    def test_report_into_missing_directory_is_1(self, square_file, tmp_path, capsys):
        assert run(["mixedvol", square_file, square_file, "--report", tmp_path / "missing" / "r.csv"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output:")


# The long options of every subcommand apart from --help: the common flags
# --out, --tol, --seed, --grid and --report only where the handler reads them.
_OPTIONS = {
    "flower": {"--out", "--tol"},
    "core": {"--out", "--tol"},
    "cof": {"--out"},
    "polar": {"--out", "--tol"},
    "alexandrov": {"--out"},
    "power": {"--out", "--tol", "--lambda"},
    "fmap": {"--out", "--fn", "--lambda", "--factor"},
    "compose": {"--out"},
    "rcompose": {"--out"},
    "logmean": {"--out", "--lambda"},
    "mixedvol": {"--out", "--report"},
    "volume": {"--out"},
    "invert": {"--out", "--tol", "--seed", "--samples", "--outcone", "--trunc-scale"},
    "stability": {"--out"},
    "dvoretzky": {"--out", "--seed", "--grid", "--report", "--k", "--trials", "--sections"},
    "global-avg": {"--out", "--seed", "--n-rot"},
    "kashin": {"--out", "--seed", "--grid", "--dim", "--petals"},
    "bm-probe": {"--out", "--report", "--mode"},
    "plot": {"--out"},
}
_COMMON = {"--out", "--tol", "--seed", "--grid", "--report"}


class TestOptionScope:
    def test_each_subcommand_has_exactly_the_flags_it_reads(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if a.choices and isinstance(a.choices, dict)]
        got = {
            name: {s for a in sp._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
            for name, sp in sub.choices.items()
        }
        assert got == _OPTIONS
        assert sum(len(flags & _COMMON) for flags in got.values()) == 33

    @pytest.mark.parametrize(
        "argv",
        [
            ["volume", "{body}", "--seed", "1"],
            ["alexandrov", "{body}", "--tol", "1e-3"],
            ["power", "{body}", "--lambda", "0.5", "--report", "x.csv"],
            ["flower", "{body}", "--grid", "64"],
        ],
    )
    def test_flag_of_another_subcommand_is_a_usage_error(self, square_file, capsys, argv):
        with pytest.raises(SystemExit) as e:
            run([a.format(body=square_file) for a in argv])
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSeedAndSizeArguments:
    def test_negative_seed_is_a_usage_error(self):
        with pytest.raises(SystemExit) as e:
            run(["kashin", "--dim", "3", "--seed", "-1"])
        assert e.value.code == 2

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_env_seed_is_a_usage_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("FLOWERLAB_SEED", value)
        with pytest.raises(SystemExit) as e:
            run(["kashin", "--dim", "3"])
        assert e.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_env_seed_unread_without_seed_flag(self, square_file, monkeypatch):
        monkeypatch.setenv("FLOWERLAB_SEED", "abc")
        assert run(["volume", square_file]) == 0

    def test_parser_built_once_and_env_seed_read_per_call(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        out = {}
        for value in ("5", "6"):
            monkeypatch.setenv("FLOWERLAB_SEED", value)
            assert run(["kashin", "--dim", "3"]) == 0
            out[value] = capsys.readouterr().out
        assert built.count("flowerlab") <= 1
        monkeypatch.delenv("FLOWERLAB_SEED")
        for value in ("5", "6"):
            assert run(["kashin", "--dim", "3", "--seed", value]) == 0
            assert capsys.readouterr().out == out[value]
        assert out["5"] != out["6"]

    def test_grid_beyond_cap_is_a_usage_error(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(localtheory, "default_subgrid", refuse)
        with pytest.raises(SystemExit) as e:
            run(["kashin", "--dim", "2", "--grid", str(MAX_GRID_SIZE + 1)])
        assert e.value.code == 2

    @pytest.mark.parametrize("command, extra", [
        ("volume", {"representation": "petals", "grid": {"type": "uniform-angle", "n": 8}}),
        ("invert", {"representation": "polytope"}),
    ])
    def test_point_count_beyond_cap_is_1(self, tmp_path, capsys, command, extra):
        m = MAX_GRID_SIZE + 1
        p = tmp_path / "many.json"
        p.write_text(json.dumps({"dim": 2, "points": [[1.0, 0.0]] * m, "metadata": {}, **extra}))
        assert run([command, p]) == 1
        assert capsys.readouterr().err == f"error: {p}: points: {m} points exceed the cap of {MAX_GRID_SIZE}\n"


class TestCountAndFloatArguments:
    @pytest.mark.parametrize(
        "argv, flag, module, entry",
        [
            (["kashin", "--dim", "3"], "--petals", localtheory, "kashin_petals"),
            (["kashin"], "--dim", localtheory, "default_subgrid"),
            (["dvoretzky", "{body}", "--k", "2"], "--trials", localtheory, "dvoretzky_search"),
            (["dvoretzky", "{body}", "--trials", "1"], "--k", localtheory, "default_subgrid"),
            (["global-avg", "{body}"], "--n-rot", localtheory, "global_average"),
            (["invert", "{body}"], "--samples", cli, "is_inversion_convex"),
        ],
    )
    def test_count_beyond_cap_is_a_usage_error(self, square_flower_file, monkeypatch, capsys, argv, flag, module, entry):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{entry} reached")

        monkeypatch.setattr(module, entry, refuse)
        with pytest.raises(SystemExit) as e:
            run([a.format(body=square_flower_file) for a in argv] + [flag, MAX_GRID_SIZE + 1])
        assert e.value.code == 2
        assert f"{flag}: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, shape", [
        (["--dim", "8192"], "16384 x 8192 petal matrix"),
        (["--dim", "4097", "--grid", "8192"], "8192 x 8194 grid product"),
        (["--dim", "8192", "--petals", "8192", "--grid", "8192"], None),
    ])
    def test_kashin_matrix_beyond_cap_is_a_usage_error(self, monkeypatch, capsys, argv, shape):
        def refuse(*args, **kwargs):
            raise AssertionError("kashin arrays allocated")

        monkeypatch.setattr(localtheory, "default_subgrid", refuse)
        monkeypatch.setattr(localtheory, "kashin_petals", refuse)
        if shape is None:  # 8192 x 8192 sits at the cap and reaches the library
            with pytest.raises(AssertionError, match="allocated"):
                run(["kashin", *argv])
            return
        rows, _, cols = shape.split()[:3]
        with pytest.raises(SystemExit) as e:
            run(["kashin", *argv])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"the {shape} would need {int(rows) * int(cols) * 8:,} bytes" in err
        assert "Traceback" not in err

    def test_kashin_dim_below_2_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["kashin", "--dim", "1"])
        assert e.value.code == 2
        assert "--dim: expected an integer from 2 to" in capsys.readouterr().err

    @pytest.mark.parametrize("outcone", [[], ["--outcone"]], ids=["in-cone", "out-cone"])
    def test_negative_invert_tol_is_a_usage_error(self, tmp_path, monkeypatch, capsys, outcone):
        # the convex out-cone of this triangle used to come out "convex": false at --tol -2
        def refuse(*args, **kwargs):
            raise AssertionError("is_inversion_convex reached")

        monkeypatch.setattr(cli, "is_inversion_convex", refuse)
        p = tmp_path / "tri.json"
        p.write_text(json.dumps({"dim": 2, "representation": "polytope", "metadata": {},
                                 "points": [[-1.0, 0.5], [1.0, 0.5], [0.0, 2.0]]}))
        with pytest.raises(SystemExit) as e:
            run(["invert", p, *outcone, "--tol", "-2"])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "--tol: expected a number >= 0, got '-2'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["flower", "core", "polar", "power"])
    def test_negative_certificate_tol_is_a_usage_error(self, tmp_path, capsys, grid720, command):
        # a negative tolerance would fail every certificate, the ball's violation 0.0 included;
        # power's tolerance bounds an increment, so 0 is out of range there too
        ball = unit_ball(grid720)
        doc = document_for_star(flower_of(ball)) if command == "core" else document_for_convex(ball)
        body = tmp_path / "ball.json"
        serialize_body(doc, body)
        power = command == "power"
        argv = [command, body, *(["--lambda", "2"] if power else [])]
        for value in ["-1", "0"] if power else ["-1"]:
            with pytest.raises(SystemExit) as e:
                run([*argv, "--tol", value])
            assert e.value.code == 2
            err = capsys.readouterr().err
            assert f"--tol: expected a number {'>' if power else '>='} 0, got '{value}'" in err
            assert "Traceback" not in err
        assert run([*argv, "--tol", "1e-300" if power else "0"]) == 0
        if power:  # the ball's increment is 0, below any positive tolerance
            assert json.loads(capsys.readouterr().out)["metadata"]["power"]["tol"] == 1e-300

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["flower", "{body}", "--tol", "{v}"],
            ["power", "{body}", "--lambda", "0.5", "--tol", "{v}"],
            ["invert", "{poly}", "--tol", "{v}"],
            ["power", "{body}", "--lambda", "{v}"],
            ["fmap", "{body}", "--fn", "power", "--lambda", "{v}"],
            ["fmap", "{body}", "--fn", "scale", "--factor", "{v}"],
            ["logmean", "{body}", "{body}", "--lambda", "{v}"],
            ["invert", "{poly}", "--outcone", "--trunc-scale", "{v}"],
        ],
        ids=["flower-tol", "power-tol", "invert-tol", "power-lambda", "fmap-lambda", "fmap-factor", "logmean-lambda",
             "trunc-scale"],
    )
    def test_non_finite_float_is_a_usage_error(self, square_file, tmp_path, capsys, argv, value):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"dim": 2, "representation": "polytope", "metadata": {},
                                    "points": [[2.0, -1.0], [3.0, 0.0], [2.0, 1.0]]}))
        with pytest.raises(SystemExit) as e:
            run([a.format(body=square_file, poly=poly, v=value) for a in argv])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"expected a finite number, got '{value}'" in err
        assert "Traceback" not in err


class TestPowerRange:
    def test_overflowing_lambda_is_a_domain_error(self, square_file, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["power", square_file, "--lambda", "1e300"]) == 1
        err = capsys.readouterr().err
        assert err == "error: power map left the float range: radial samples ** 1e+150 are not finite and positive\n"

    def test_overflowing_fmap_lambda_is_a_domain_error(self, square_file, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["fmap", square_file, "--fn", "power", "--lambda", "1e300"]) == 1
        err = capsys.readouterr().err
        assert err == "error: radial map left the float range: mapped radial samples are not finite\n"


class TestSupportLoader:
    """Every subcommand that reads a support file certifies it in cli._load_convex, with one message."""

    @pytest.fixture
    def cross_file(self, tmp_path, grid720):
        # the samples 1/(|cos| + |sin|) are B_1^2's radial, not a support function: violation 0.1716
        path = tmp_path / "cross.json"
        serialize_body(document_for_convex(ConvexBody(grid720, 1.0 / np.abs(grid720.directions).sum(axis=1))), path)
        return path

    @pytest.mark.parametrize("argv", [
        ["flower", "{b}"], ["polar", "{b}"], ["power", "{b}", "--lambda", "2"],
        ["fmap", "{b}", "--fn", "scale", "--factor", "2"], ["compose", "{b}", "{b}"], ["rcompose", "{b}", "{b}"],
        ["logmean", "{b}", "{b}", "--lambda", "0.5"], ["mixedvol", "{b}", "{b}"], ["bm-probe", "{b}", "{b}", "{b}"],
    ])
    def test_failed_certificate_has_one_message(self, cross_file, capsys, argv):
        assert run([a.format(b=cross_file) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {cross_file}: support samples failed certification: violation 1.716e-01\n"

    @pytest.mark.parametrize("command", ["flower", "polar"])
    def test_tol_reaches_the_loader(self, cross_file, capsys, command):
        assert run([command, cross_file, "--tol", "0.2"]) == 0
        assert capsys.readouterr().err == ""

    def test_radial_file_is_not_a_support_file(self, square_file, square_flower_file, capsys):
        assert run(["compose", square_flower_file, square_file]) == 1
        assert capsys.readouterr().err == f"error: {square_flower_file}: expected a support body, got 'radial'\n"


class TestSupportBody:
    def test_support_body_is_uncertified(self, square_file, grid720):
        k = parse_body(square_file).to_body()
        assert not k.certified
        assert volume(k) == volume(square_body(grid720))


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, square_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["power", square_file, "--lambda", "0.7", "--out", a])
        run(["power", square_file, "--lambda", "0.7", "--out", b])
        assert a.read_bytes() == b.read_bytes()


class TestRemainingSubcommands:
    def test_fmap_power_matches_module(self, square_file, tmp_path, grid720):
        from flowerlab.calculus import RadialMap, apply_radial_map

        out = tmp_path / "fmap.json"
        assert run(["fmap", square_file, "--fn", "power", "--lambda", "0.5", "--out", out]) == 0
        ref = apply_radial_map(square_body(grid720), RadialMap.power(0.5))
        assert np.array_equal(parse_body(out).values, ref.support)

    def test_fmap_scale(self, square_file, tmp_path, grid720):
        out = tmp_path / "fmap2.json"
        assert run(["fmap", square_file, "--fn", "scale", "--factor", "2.0", "--out", out]) == 0
        assert np.abs(parse_body(out).values - 2.0 * square_body(grid720).support).max() < 1e-12

    def test_rcompose_matches_module(self, square_file, tmp_path, grid720):
        from flowerlab.calculus import radial_compose

        out = tmp_path / "rc.json"
        assert run(["rcompose", square_file, square_file, "--out", out]) == 0
        k = square_body(grid720)
        assert np.array_equal(parse_body(out).values, radial_compose(k, k).support)

    def test_global_avg(self, tmp_path, capsys):
        obj = {
            "dim": 2,
            "representation": "petals",
            "grid": {"type": "uniform-angle", "n": 64},
            "points": [[1.0, 0.0], [-1.0, 0.0]],
            "metadata": {},
        }
        p = tmp_path / "pair.json"
        p.write_text(json.dumps(obj))
        assert run(["global-avg", p, "--n-rot", "8", "--seed", "2"]) == 0
        a = capsys.readouterr().out
        assert run(["global-avg", p, "--n-rot", "8", "--seed", "2"]) == 0
        assert capsys.readouterr().out == a
        assert float(a.strip()) >= 1.0


def test_cli_import_loads_no_scipy():
    # scipy loads on the first hull; importing the front end builds none
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys, flowerlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def _radial_obj(**grid):
    return {"dim": 2, "representation": "radial", "grid": grid, "values": [1.0]}


# body-file refusals that no other test reaches: (call, error, message)
BODYFILE_REFUSALS = [
    pytest.param(lambda: parse_body_obj([1]), BodyFileError, "body file must contain a JSON object", id="not-an-object"),
    pytest.param(lambda: parse_body_obj({"dim": 2, "representation": "radial", "values": [1.0]}), BodyFileError,
                 "'radial' bodies need a grid", id="radial-no-grid"),
    pytest.param(lambda: parse_body_obj({"dim": 2, "representation": "radial", "grid": {"type": "uniform-angle", "n": 16}}),
                 BodyFileError, "'radial' bodies need a 'values' list", id="radial-no-values"),
    pytest.param(lambda: parse_body_obj(_radial_obj(type="directions", weights=[1.0])), BodyFileError,
                 "grid: directions grid needs 'vectors'", id="grid-no-vectors"),
    pytest.param(lambda: parse_body_obj(_radial_obj(type="directions", vectors=[[1.0, 0.0]])), BodyFileError,
                 "grid: directions grid needs 'weights'", id="grid-no-weights"),
    pytest.param(lambda: parse_body_obj(_radial_obj(type="directions", vectors={}, weights=[1.0])), BodyFileError,
                 "grid: 'vectors' must be a list", id="grid-vectors-not-a-list"),
    pytest.param(lambda: parse_body_obj({"dim": 2, "representation": "petals", "points": [[1.0, 0.0]]}), BodyFileError,
                 "'petals' bodies need a grid", id="petals-no-grid"),
]


@pytest.mark.parametrize("call, error, message", BODYFILE_REFUSALS)
def test_body_file_refusal(assert_refusal, call, error, message):
    assert_refusal(call, error, message)


def test_unreadable_body_file_refused(assert_refusal, tmp_path):
    path = tmp_path / "missing.json"
    assert_refusal(lambda: parse_body(path), BodyFileError, f"{path}: [Errno 2] No such file or directory: '{path}'")


def test_non_numeric_lambda_is_a_usage_error(square_file, capsys):
    with pytest.raises(SystemExit) as e:
        run(["power", square_file, "--lambda", "half"])
    assert e.value.code == 2
    assert "argument --lambda: expected a finite number, got 'half'" in capsys.readouterr().err


def test_fmap_scale_without_factor_exits_1(square_file, capsys):
    assert run(["fmap", square_file, "--fn", "scale"]) == 1
    assert capsys.readouterr().err == "error: fmap --fn scale needs --factor\n"
