"""Per-layer metrics and the tracer self-test, derived from recorded spans.

A span is ``[name, start_ns, end_ns, parent, op, attrs]`` (see tracer.py).
Spans of the traced ops carry an integer op id and set-up spans "setup".
A span's self time is its duration minus the time its direct children
cover.

Per-op metrics divide by the number of traced ops, so runs that fit a
different number of cycles into --seconds stay comparable.
"""
from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

PER_OP = "/op"

# name -> unit; BENCHMARK.json's per_layer lists the same names
UNITS = {
    "spherecore.grid_s": "s",
    "spherecore.gram_bytes": "B",
    "spherecore.frame_s": "s" + PER_OP,
    "sampleops.C.calls": "count" + PER_OP,
    "sampleops.C.self_s": "s" + PER_OP,
    "sampleops.C.bytes": "B" + PER_OP,
    "sampleops.D.calls": "count" + PER_OP,
    "sampleops.D.self_s": "s" + PER_OP,
    "sampleops.cert.calls": "count" + PER_OP,
    "sampleops.cert.self_s": "s" + PER_OP,
    "sampleops.cert.max_violation": "1",
    "sampleops.hull.calls": "count" + PER_OP,
    "sampleops.hull.self_s": "s" + PER_OP,
    "sampleops.hull.passthrough_ratio": "ratio",
    "calculus.power.calls": "count" + PER_OP,
    "calculus.power.self_s": "s" + PER_OP,
    "calculus.power.m_final_mean": "count",
    "calculus.power.hull_calls_per_op": "count",
    "calculus.power.useful_hull_ratio": "ratio",
    "bodies.polar.self_s": "s" + PER_OP,
    "bodies.alexandrov.self_s": "s" + PER_OP,
    "bodies.convexify.self_s": "s" + PER_OP,
    "bodies.flower_core.self_s": "s" + PER_OP,
    "calculus.compose.self_s": "s" + PER_OP,
    "mixedvol.expansion.self_s": "s" + PER_OP,
    "inversion.verdict.calls": "count" + PER_OP,
    "inversion.verdict.self_s": "s" + PER_OP,
    "inversion.arc.calls": "count" + PER_OP,
    "inversion.arc.self_s": "s" + PER_OP,
    "inversion.membership.calls": "count" + PER_OP,
    "inversion.membership.self_s": "s" + PER_OP,
    "inversion.errors": "count",
    "localtheory.projected.self_s": "s" + PER_OP,
    "localtheory.section.self_s": "s" + PER_OP,
    "localtheory.dvoretzky.self_s": "s" + PER_OP,
    "localtheory.global_avg.self_s": "s" + PER_OP,
    "localtheory.stability.self_s": "s" + PER_OP,
    "bodyfile.parse.self_s": "s" + PER_OP,
    "bodyfile.serialize.self_s": "s" + PER_OP,
    "cli.main.calls": "count" + PER_OP,
    "cli.main.self_s": "s" + PER_OP,
    "trace.overhead_ratio": "ratio",
}
# power-2d's K^3 at N=2048 on the acceptance test's first body (workloads.py);
# the roadmap's re-anchor found it converges at m = 256 with 510 hull calls
ANCHOR_OP, ANCHOR_M_FINAL = "anchor/2048/3", 256


def self_times(spans):
    """Per span: (duration, time covered by its direct children), in seconds."""
    child = [0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child[s[3]] += s[2] - s[1]
    return [((s[2] - s[1]) * 1e-9, c * 1e-9) for s, c in zip(spans, child)]


def nearest(spans, i, name):
    """Index of the nearest ancestor of span i called name, or None."""
    p = spans[i][3]
    while p is not None:
        if spans[p][0] == name:
            return p
        p = spans[p][3]
    return None


def root(spans, i):
    while spans[i][3] is not None:
        i = spans[i][3]
    return i


def power_accounting(spans):
    """Power spans with lam not in {0, 1}, and hull calls made inside each."""
    powers = [i for i, s in enumerate(spans)
              if s[0] == "calculus.power" and "m_final" in s[5] and s[5]["lam"] not in (0.0, 1.0)]
    hulls = Counter(nearest(spans, i, "calculus.power") for i, s in enumerate(spans) if s[0] == "sampleops.hull")
    return powers, hulls


def per_layer(spans, overhead_ratio):
    times = self_times(spans)
    traced = [i for i, s in enumerate(spans) if isinstance(s[4], int)]
    n_ops = max(1, len({spans[i][4] for i in traced}))
    by_layer = defaultdict(list)
    for i in traced:
        by_layer[spans[i][0]].append(i)

    def self_s(*layers):
        return sum(times[i][0] - times[i][1] for layer in layers for i in by_layer[layer])

    def calls(layer):
        return len(by_layer[layer])

    def grid_bytes(layer, idx):
        return sum(8 * spans[i][5]["n"] ** 2 for i in idx)

    setup = [i for i, s in enumerate(spans) if s[4] == "setup"]
    built = [i for i in setup if spans[i][0] == "spherecore.gram" and spans[i][5]["built"]]
    hull = by_layer["sampleops.hull"]
    powers, hulls = power_accounting(spans)
    powers = [i for i in powers if isinstance(spans[i][4], int)]
    hull_in_power = sum(hulls[i] for i in powers)
    m_finals = [spans[i][5]["m_final"] for i in powers]
    violations = [spans[i][5]["violation"] for i in by_layer["sampleops.cert"] if "violation" in spans[i][5]]

    values = {
        "spherecore.grid_s": sum(times[i][0] - times[i][1] for i in setup
                                 if spans[i][0] in ("spherecore.grid", "spherecore.gram")),
        "spherecore.gram_bytes": grid_bytes("spherecore.gram", built),
        "spherecore.frame_s": self_s("spherecore.frame") / n_ops,
        "sampleops.C.calls": calls("sampleops.C") / n_ops,
        "sampleops.C.self_s": self_s("sampleops.C") / n_ops,
        "sampleops.C.bytes": grid_bytes("sampleops.C", by_layer["sampleops.C"]) / n_ops,
        "sampleops.D.calls": calls("sampleops.D") / n_ops,
        "sampleops.D.self_s": self_s("sampleops.D") / n_ops,
        "sampleops.cert.calls": calls("sampleops.cert") / n_ops,
        "sampleops.cert.self_s": self_s("sampleops.cert") / n_ops,
        "sampleops.cert.max_violation": max(violations, default=0.0),
        "sampleops.hull.calls": len(hull) / n_ops,
        "sampleops.hull.self_s": self_s("sampleops.hull") / n_ops,
        "sampleops.hull.passthrough_ratio": (sum(bool(spans[i][5].get("passthrough")) for i in hull) / len(hull)
                                             if hull else 0.0),
        "calculus.power.calls": calls("calculus.power") / n_ops,
        "calculus.power.self_s": self_s("calculus.power") / n_ops,
        "calculus.power.m_final_mean": float(np.mean(m_finals)) if m_finals else 0.0,
        "calculus.power.hull_calls_per_op": hull_in_power / len(powers) if powers else 0.0,
        "calculus.power.useful_hull_ratio": sum(m_finals) / hull_in_power if hull_in_power else 0.0,
        "bodies.polar.self_s": self_s("bodies.polar") / n_ops,
        "bodies.alexandrov.self_s": self_s("bodies.alexandrov") / n_ops,
        "bodies.convexify.self_s": self_s("bodies.convexify") / n_ops,
        "bodies.flower_core.self_s": self_s("bodies.flower_core") / n_ops,
        "calculus.compose.self_s": self_s("calculus.compose") / n_ops,
        "mixedvol.expansion.self_s": self_s("mixedvol.expansion") / n_ops,
        "inversion.verdict.calls": calls("inversion.verdict") / n_ops,
        "inversion.verdict.self_s": self_s("inversion.verdict") / n_ops,
        "inversion.arc.calls": calls("inversion.arc") / n_ops,
        "inversion.arc.self_s": self_s("inversion.arc") / n_ops,
        "inversion.membership.calls": calls("inversion.membership") / n_ops,
        "inversion.membership.self_s": self_s("inversion.membership") / n_ops,
        "inversion.errors": sum(bool(spans[i][5].get("error")) for i in by_layer["inversion.verdict"]),
        "localtheory.projected.self_s": self_s("localtheory.projected") / n_ops,
        "localtheory.section.self_s": self_s("localtheory.section") / n_ops,
        "localtheory.dvoretzky.self_s": self_s("localtheory.dvoretzky") / n_ops,
        "localtheory.global_avg.self_s": self_s("localtheory.global_avg") / n_ops,
        "localtheory.stability.self_s": self_s("localtheory.stability") / n_ops,
        "bodyfile.parse.self_s": self_s("bodyfile.parse") / n_ops,
        "bodyfile.serialize.self_s": self_s("bodyfile.serialize") / n_ops,
        "cli.main.calls": calls("cli.main") / n_ops,
        "cli.main.self_s": self_s("cli.main") / n_ops,
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in UNITS.items()}


def self_test(spans, power_workload):
    """Exact checks of the trace; returns a list of problems (empty when sound)."""
    problems = []
    times = self_times(spans)
    roots = {s[4]: i for i, s in enumerate(spans) if s[3] is None and s[4] != "setup"}
    below = defaultdict(float)
    for i, s in enumerate(spans):
        dur, child = times[i]
        if child > dur:
            problems.append(f"span {i} ({s[0]}): children cover {child:.6f}s of {dur:.6f}s")
        if s[3] is not None and s[4] in roots:
            below[s[4]] += dur - child
    for op, r in roots.items():
        if below[op] > times[r][0]:
            problems.append(f"op {op}: children's self time {below[op]:.6f}s exceeds its {times[r][0]:.6f}s")

    # the m-doubling runs m = 2, 4, ..., m_final, so a power map makes 2 m_final - 2 hull calls
    powers, hulls = power_accounting(spans)
    expected = sum(2 * spans[i][5]["m_final"] - 2 for i in powers)
    counted = sum(hulls[i] for i in powers)
    if counted != expected:
        problems.append(f"hull calls inside power maps: {counted}, expected sum(2 m_final - 2) = {expected}")
    if power_workload:
        total = sum(1 for s in spans if s[0] == "sampleops.hull" and s[4] != "setup")
        if total != expected:
            problems.append(f"hull calls in power-2d ops: {total}, expected {expected}")
        anchor = [i for i in powers if spans[root(spans, i)][0] == ANCHOR_OP]
        want = 2 * ANCHOR_M_FINAL - 2
        got = [(spans[i][5]["m_final"], hulls[i]) for i in anchor]
        if not got or any(g != (ANCHOR_M_FINAL, want) for g in got):
            problems.append(f"anchor K^3 at N=2048: (m_final, hull calls) = {got}, expected ({ANCHOR_M_FINAL}, {want})")
    return problems


def reference_figures(spans):
    """Single-call figures comparable with the roadmap's re-anchor measurements."""
    times = self_times(spans)
    lines = []
    for layer in ("sampleops.C", "sampleops.hull"):
        by_n = defaultdict(list)
        for i, s in enumerate(spans):
            if s[0] == layer and isinstance(s[4], int):
                by_n[s[5]["n"]].append((times[i][0] - times[i][1]) * 1e3)
        for n in sorted(by_n):
            lines.append(f"{layer} N={n}: median self {np.median(by_n[n]):.2f} ms over {len(by_n[n])} calls")
    for i, s in enumerate(spans):
        if s[0] == "spherecore.gram" and s[4] == "setup" and s[5]["built"]:
            lines.append(f"Gram build N={s[5]['n']}: {times[i][0]:.3f} s")
    powers, hulls = power_accounting(spans)
    for i in powers:
        if spans[root(spans, i)][0].startswith("anchor/"):
            lines.append(f"anchor power lam={spans[i][5]['lam']:g} N=2048: {times[i][0]:.3f} s, "
                         f"m_final={spans[i][5]['m_final']}, {hulls[i]} hull calls")
    return lines
