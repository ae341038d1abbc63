import json

import numpy as np
import pytest

from flowerlab.bodies import (
    flower_of,
    polar,
    random_convex_body,
    square_body,
    unit_ball,
    volume,
)
from flowerlab.bodyfile import (
    document_for_convex,
    document_for_star,
    parse_body,
    serialize_body,
)
from flowerlab.calculus import power
from flowerlab.cli import main
from flowerlab.errors import BodyFileError
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
    doc = document_for_star(f.body, metadata={"name": "square-flower"})
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
        r = doc.to_convex().radial()
        assert np.all(r >= k.radial() ** 0.5 - 1e-12)
        assert np.abs(r - k.radial() ** 0.5).max() < 1e-4
        assert doc.metadata["power"]["lambda"] == 0.5
        assert doc.metadata["power"]["m_final"] == ref.m_final

    def test_volume_prints_module_value(self, square_file, capsys, grid720):
        assert run(["volume", square_file]) == 0
        got = float(capsys.readouterr().out.strip())
        assert got == volume(square_body(grid720))

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

    def test_stability_report(self, square_flower_file, capsys, grid720):
        from flowerlab.localtheory import stability_check

        assert run(["stability", square_flower_file]) == 0
        rep = json.loads(capsys.readouterr().out)
        ref = stability_check(flower_of(square_body(grid720)))
        assert rep["eps"] == ref.eps
        assert rep["flower_distance"] == ref.flower_distance

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

    def test_ok_is_0(self, square_file):
        assert run(["volume", square_file]) == 0


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
