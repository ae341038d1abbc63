"""flowerlab benchmark runner: one closed-loop workload per process.

    python3 perfbench/run.py --workload power-2d --seed 1 --seconds 15 --trace 0

One caller issues each op after the previous one returns; there is no rate
and no concurrency.  Ops run in whole cycles (see workloads.py) until the
summed op time reaches --seconds and at least MIN_OPS ops are done.  Each
op's correctness check runs outside its timed span; an op that raises or
fails its check counts in ``failed``.

--trace 0 prints the end-to-end metrics, from untraced code.  --trace 1 runs
the set-up traced (tracer.py), runs ops untraced for half of --seconds,
replays the same ops traced to get the tracing overhead, prints the
per-layer metrics (layers.py) and the tracer self-test, and writes the spans
to perfbench/traces/ as JSON lines.
Every line but the last is for people; the last line is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
import itertools
from collections import Counter, namedtuple
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
MIN_OPS = 100
MIN_SETUPS, MIN_SETUP_SECONDS, MAX_SETUPS = 3, 1.0, 200
# The loop has one caller and no concurrency.  Its BLAS calls are small, and a
# second BLAS thread makes their times depend on whether a second core of a
# shared host is free.
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pin_blas_threads():
    """Pin BLAS/OpenMP pools to BLAS_THREADS; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(args):
    import numpy as np
    import scipy

    from flowerlab import _sampleops

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "cpu": cpu_model(),
        "cores": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "hull_kernel_2d": "numba-graham" if _sampleops._HAVE_NUMBA else "numpy-peel",
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


Sample = namedtuple("Sample", "kind seconds ok")


def run_op(op, tracer, op_id) -> Sample:
    """Time one op, then check its result outside the timed span."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.op_span(op.kind, op_id):
                out = op.run()
    except Exception:  # a failing op is an outcome to count, not the end of the run
        dt = time.perf_counter() - t0
        print(f"# op {op.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return Sample(op.kind, dt, False)
    dt = time.perf_counter() - t0
    try:
        ok = bool(op.check(out))
    except Exception:
        print(f"# check of op {op.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"# op {op.kind} failed its check", file=sys.stderr)
    return Sample(op.kind, dt, ok)


def endless(wl, state):
    return (wl.cycle(state, c) for c in itertools.count())


def measure(cycles, seconds=None, n_ops=None, min_ops=MIN_OPS, tracer=None):
    """Run whole cycles until op time >= seconds and >= min_ops ops, or until n_ops ops."""
    samples: list[Sample] = []
    op_time = 0.0
    for cycle in cycles:
        for op in cycle:
            samples.append(run_op(op, tracer, len(samples)))
            op_time += samples[-1].seconds
        if n_ops is not None:
            if len(samples) >= n_ops:
                break
        elif op_time >= seconds and len(samples) >= min_ops:
            break
    return samples


def print_mix(samples):
    import numpy as np

    counts = Counter(s.kind for s in samples)
    for kind in sorted(counts):
        ms = [s.seconds * 1e3 for s in samples if s.kind == kind]
        print(f"# op {kind:24s} n={counts[kind]:4d} median={np.median(ms):9.2f} ms")


def print_metrics(metrics):
    for name, m in metrics.items():
        print(f"# metric {name} = {m['value']:.6g} {m['unit']}")


def end_to_end(wl, args, workdir):
    import numpy as np

    # several set-ups, so that the median of at least a second of them is steady
    setups = []
    state = None
    while len(setups) < MIN_SETUPS or (sum(setups) < MIN_SETUP_SECONDS and len(setups) < MAX_SETUPS):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(args.seed, workdir)
        setups.append(time.perf_counter() - t0)
    samples = measure(endless(wl, state), seconds=args.seconds)
    times = np.array([s.seconds for s in samples])
    failed = sum(not s.ok for s in samples)
    p50, p90 = np.percentile(times * 1e3, [50, 90])
    metrics = {
        "ops_per_s": {"value": len(times) / float(times.sum()), "unit": "1/s"},
        "op_p50_ms": {"value": float(p50), "unit": "ms"},
        "op_p90_ms": {"value": float(p90), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    print_mix(samples)
    print(f"# ops={len(samples)} failed={failed} failed_ratio={failed / len(samples):.6g} "
          f"op_time_s={times.sum():.3f} setups={len(setups)} setup_range_s={min(setups):.4f}-{max(setups):.4f}")
    print_metrics(metrics)
    return samples, metrics, True


def traced(wl, args, workdir):
    import layers
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.setup_span():
        state = wl.setup(args.seed, workdir)
    tracer.restore()
    # untraced first half, then the same ops again traced
    plain = measure(endless(wl, state), seconds=args.seconds / 2, min_ops=MIN_OPS // 2)
    tracer.install()
    try:
        samples = measure(endless(wl, state), n_ops=len(plain), tracer=tracer)
    finally:
        tracer.restore()
    overhead = sum(s.seconds for s in samples) / sum(s.seconds for s in plain) - 1.0
    metrics = layers.per_layer(tracer.spans, overhead)
    problems = layers.self_test(tracer.spans, power_workload=args.workload == "power-2d")
    trace_dir = BENCH_DIR / "traces"
    trace_dir.mkdir(exist_ok=True)
    path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(path)
    print_mix(samples)
    for line in layers.reference_figures(tracer.spans):
        print(f"# reference {line}")
    print(f"# trace: {len(tracer.spans)} spans written to {path.relative_to(BENCH_DIR.parent)}")
    print(f"# tracer self-test: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"#   {p}")
    print_metrics(metrics)
    return plain + samples, metrics, not problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    pin_blas_threads()
    if not (SRC / "flowerlab" / "__init__.py").is_file():
        print(f"error: no flowerlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flowerlab

    if Path(flowerlab.__file__).resolve().parent != (SRC / "flowerlab").resolve():
        print(f"error: imported flowerlab from {flowerlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    print(f"# machine {json.dumps(machine_facts(args))}")

    with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as tmp:
        run = traced if args.trace else end_to_end
        samples, metrics, self_test_ok = run(wl, args, Path(tmp))
    failed = sum(not s.ok for s in samples)
    result = {"correct": failed == 0 and self_test_ok, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
