"""Smoke runs of the sweep scripts in scripts/ at small sizes."""
import csv
import importlib.util
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, argv, header, rows",
    [
        ("bm_probe_experiment.py", ["--grid", "64", "--trials", "1"], ["amp", "seed", "mode", "margin"], 12),
        ("dvoretzky_experiment.py", ["--dim", "4", "--trials", "2", "--subgrid", "64"],
         ["k", "trial", "proj_distance", "sect_distance"], 4),
        ("global_average_experiment.py", ["--dim", "3", "--seeds", "1"],
         ["experiment", "n", "parameter", "seed", "ratio"], 6),
    ],
)
def test_script_writes_its_csv(tmp_path, monkeypatch, script, argv, header, rows):
    spec = importlib.util.spec_from_file_location(script[:-3], SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", [script, *argv, "--out", str(out)])
    module.main()
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == header
    assert len(table) - 1 == rows
