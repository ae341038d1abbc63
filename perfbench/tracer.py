"""Span tracer that wraps flowerlab's public functions from outside the package.

Each wrapped call records a span ``[name, start_ns, end_ns, parent, op, attrs]``
in memory while an op (or the set-up) is current; calls made while no op is
current, such as correctness checks, run unrecorded.  Because flowerlab's
modules import each other with ``from ... import name``, a function is bound
in several module namespaces; ``install`` replaces the binding in every
``flowerlab`` module that holds it and ``restore`` puts every original back.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

_WRAPPED = "__perfbench_wrapped__"


def _grid_n(a, kw):
    return {"n": a[0].size}


def _gram_pre(a, kw):
    # a[0] is the DirectionGrid; the Gram matrix is built on the first call only
    return {"n": a[0].size, "built": a[0]._gram_plus is None}


# (module, attribute) -> (layer name, attrs before the call, attrs after the call)
LAYERS = {
    ("flowerlab.spherecore", "uniform_angle_grid"): ("spherecore.grid", None, None),
    ("flowerlab.spherecore", "sampled_sphere_grid"): ("spherecore.grid", None, None),
    ("flowerlab.spherecore", "DirectionGrid.gram_plus"): ("spherecore.gram", _gram_pre, None),
    ("flowerlab.spherecore", "random_rotation"): ("spherecore.frame", None, None),
    ("flowerlab.spherecore", "random_subspace"): ("spherecore.frame", None, None),
    ("flowerlab._sampleops", "support_of_cloud"): ("sampleops.C", _grid_n, None),
    ("flowerlab._sampleops", "radial_of_halfspaces"): ("sampleops.D", _grid_n, None),
    ("flowerlab._sampleops", "certificate_violation"): (
        "sampleops.cert", _grid_n, lambda a, kw, out: {"violation": float(out)}),
    ("flowerlab._sampleops", "hull_radial"): (
        "sampleops.hull", _grid_n, lambda a, kw, out: {"passthrough": out is a[1]}),
    ("flowerlab.bodies", "polar"): ("bodies.polar", None, None),
    ("flowerlab.bodies", "alexandrov"): ("bodies.alexandrov", None, None),
    ("flowerlab.bodies", "convexify_support"): ("bodies.convexify", None, None),
    ("flowerlab.bodies", "flower_of"): ("bodies.flower_core", None, None),
    ("flowerlab.bodies", "core_of"): ("bodies.flower_core", None, None),
    ("flowerlab.calculus", "power"): (
        "calculus.power", None, lambda a, kw, out: {"lam": float(out.lam), "m_final": int(out.m_final)}),
    ("flowerlab.calculus", "compose"): ("calculus.compose", None, None),
    ("flowerlab.calculus", "radial_compose"): ("calculus.compose", None, None),
    ("flowerlab.mixedvol", "expansion_check"): ("mixedvol.expansion", None, None),
    ("flowerlab.inversion", "is_inversion_convex"): ("inversion.verdict", None, None),
    ("flowerlab.inversion", "arc_points"): ("inversion.arc", None, None),
    ("flowerlab.inversion", "cone_membership"): ("inversion.membership", None, None),
    ("flowerlab.localtheory", "projected_radial"): ("localtheory.projected", None, None),
    ("flowerlab.localtheory", "section_radial"): ("localtheory.section", None, None),
    ("flowerlab.localtheory", "dvoretzky_search"): ("localtheory.dvoretzky", None, None),
    ("flowerlab.localtheory", "global_average"): ("localtheory.global_avg", None, None),
    ("flowerlab.localtheory", "stability_check"): ("localtheory.stability", None, None),
    ("flowerlab.bodyfile", "parse_body"): ("bodyfile.parse", None, None),
    ("flowerlab.bodyfile", "serialize_body"): ("bodyfile.serialize", None, None),
    ("flowerlab.cli", "main"): ("cli.main", None, None),
}


def _flowerlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "flowerlab" or name.startswith("flowerlab."))]


def _resolve(module, attr):
    owner = sys.modules[module]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None  # current op id; None records nothing
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, pre, post):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            attrs = pre(args, kwargs) if pre else {}
            span = [name, 0, 0, stack[-1] if stack else None, self.op, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                attrs["error"] = True
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if post:
                attrs.update(post(args, kwargs, out))
            return out

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def install(self):
        """Wrap every layer function in every flowerlab namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _flowerlab_modules()
        for (module, attr), (name, pre, post) in LAYERS.items():
            owner, leaf = _resolve(module, attr)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, pre, post)
            if owner in modules:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))
            else:  # a method on a class shared by all modules
                setattr(owner, leaf, wrapper)
                self._patched.append((owner, leaf, original))

    def restore(self):
        """Put every original binding back and check that none was missed."""
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        for owner, key, original in self._patched:
            if getattr(owner, key) is not original:
                raise RuntimeError(f"restore failed for {key}")
        self._patched = []
        for mod in _flowerlab_modules():
            for key, value in vars(mod).items():
                if getattr(value, _WRAPPED, False):
                    raise RuntimeError(f"{mod.__name__}.{key} is still wrapped")
        import flowerlab

        if getattr(flowerlab.spherecore.DirectionGrid.gram_plus, _WRAPPED, False):
            raise RuntimeError("DirectionGrid.gram_plus is still wrapped")
        if flowerlab.calculus.hull_radial is not flowerlab._sampleops.hull_radial:
            raise RuntimeError("calculus.hull_radial was not restored")

    @contextlib.contextmanager
    def op_span(self, name, op_id):
        """Root span of one op; library spans opened inside it get op_id."""
        self.op = op_id
        start = len(self.spans)
        span = [name, 0, 0, None, op_id, {}]
        self.spans.append(span)
        self._stack.append(start)
        span[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
            self.op = None

    @contextlib.contextmanager
    def setup_span(self):
        self.op = "setup"
        try:
            yield
        finally:
            self.op = None

    def write_jsonl(self, path):
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start - t0, "end_ns": end - t0,
                                     "parent": parent, "op": op, **attrs}) + "\n")

