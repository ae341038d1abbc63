"""Smoke runs of the sweep scripts in scripts/ at small sizes, and of the benchmark tracer."""
import csv
import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
GOLDEN = ROOT / "tests" / "data" / "cli_corpus.jsonl"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    module = load_script(script)
    out = tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", [script, *argv, "--out", str(out)])
    module.main()
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == header
    assert len(table) - 1 == rows


def test_benchmark_tracer_wraps_and_restores_every_layer():
    # the tracer rebinds flowerlab names it lists; one that a refactor unbinds
    # makes install (or restore's leftover check) raise
    import flowerlab.cli  # noqa: F401  (the tracer wraps names in every flowerlab module)

    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()


def test_benchmark_tracer_records_inversion_layers():
    # a verdict that stops calling a wrapped name through its module binding
    # would leave that layer's per-op metrics at 0 instead of failing
    import flowerlab.cli  # noqa: F401  (the tracer wraps names in every flowerlab module)
    from flowerlab import inversion

    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    slab = inversion.OffOriginPolytope([[-1, 0.99], [1, 0.99], [1, 1.01], [-1, 1.01]])
    tracer = module.Tracer()
    try:
        tracer.install()
        with tracer.op_span("slab/2d", 0):
            verdict = inversion.is_inversion_convex(slab, samples=400, seed=2)
    finally:
        tracer.restore()
    assert not verdict.convex
    names = {span[0] for span in tracer.spans}
    assert {"inversion.verdict", "inversion.arc", "inversion.membership"} <= names


def test_cli_corpus_records_exit_codes_hashes_and_stderr(tmp_path):
    import hashlib

    from flowerlab import flower_of, random_convex_body, uniform_angle_grid
    from flowerlab.bodyfile import document_for_star, serialize_body

    module = load_script("cli_corpus.py")
    tmp = str(tmp_path)
    files = module.write_inputs(tmp)
    k, cross = files["k720-0-s"], files["x720-s"]
    picked = [["flower", k], ["compose", cross, k], ["power", k, "--lambda", "0.5", "--out", "{tmp}/o.json"],
              ["fmap", k, "--fn", "power"]]
    assert all(argv in module.cases(files) for argv in picked)
    flower, refused, written, missing = (module.run_case(argv, tmp) for argv in picked)

    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()  # noqa: E731
    body = flower_of(random_convex_body(uniform_angle_grid(720), 0))
    assert flower == {"argv": ["flower", "$TMP/k720-0-s.json"], "exit": 0, "files": {}, "stderr": "", "warnings": [],
                      "stdout": sha(serialize_body(document_for_star(body, metadata={"name": "k720-0"})))}
    assert refused["exit"] == 1 and refused["stdout"] == sha("")
    assert refused["stderr"] == "error: $TMP/x720-s.json: support samples failed certification: violation 1.716e-01\n"
    assert written["exit"] == 0 and written["stdout"] == sha("")
    assert written["files"] == {"$TMP/o.json": hashlib.sha256((tmp_path / "o.json").read_bytes()).hexdigest()}
    assert missing["exit"] == 1 and missing["stderr"] == "error: fmap --fn power needs --lambda\n"


def test_cli_corpus_matches_its_golden(tmp_path, monkeypatch):
    # every case's exit code, output hashes, stderr and warnings, against the
    # file the corpus printed at the last change that moved a line
    module = load_script("cli_corpus.py")
    build, *golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert module.build() == build, f"the golden was made on {build['build']}, this is {module.build()['build']}"
    monkeypatch.delenv("FLOWERLAB_SEED", raising=False)
    tmp = str(tmp_path)
    argvs = module.cases(module.write_inputs(tmp))
    diffs = [] if len(argvs) == len(golden) else [f"{len(argvs)} cases, the golden has {len(golden)}"]
    for argv, want in zip(argvs, golden):
        got = module.run_case(argv, tmp)
        diffs += [f"{' '.join(want['argv'])}: {key} {want[key]!r} -> {got[key]!r}" for key in want if got[key] != want[key]]
    assert not diffs, "\n".join(diffs)
