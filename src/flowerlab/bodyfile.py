"""JSON body files: schema validation, parsing, canonical serialization.

Schema (canonical key order):
  {
    "dim": 2,
    "representation": "radial" | "support" | "petals" | "polytope",
    "grid": {"type": "uniform-angle", "n": 720}
            | {"type": "directions", "vectors": [[...]], "weights": [...]},
    "values": [...],      # radial / support representations
    "points": [[...]],    # petals / polytope representations
    "metadata": {...}
  }

Serialization is canonical (fixed key order, two-space indent, shortest float
repr), so parse -> serialize round-trips canonical files byte-identically.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .bodies import ConvexBody, Flower, StarBody, flower_from_petals
from .errors import BodyFileError
from .inversion import OffOriginPolytope
from .spherecore import DirectionGrid, uniform_angle_grid

REPRESENTATIONS = ("radial", "support", "petals", "polytope")

# Largest grid a body file may declare, and largest point count M of a petals
# or polytope file; a larger declared size is refused before anything is
# allocated.  C and the support of M points need O(N + M) memory, so the cap
# bounds work: up to N^2 products per C call on a directions grid, M x N
# products per petal radial, and the qhull input of an inversion polytope.  It
# also caps the CLI's --grid.
MAX_GRID_SIZE = 8192


@dataclass(eq=False)
class BodyDocument:
    dim: int
    representation: str
    grid: DirectionGrid | None
    values: np.ndarray | None = None
    points: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def to_star(self) -> StarBody:
        if self.representation not in ("radial", "support"):
            raise BodyFileError(f"cannot view a '{self.representation}' body as a star body")
        return StarBody(self.grid, self.values)

    def to_flower(self) -> Flower:
        if self.representation == "petals":
            return flower_from_petals(self.points, self.grid)
        if self.representation == "radial":
            return Flower(self.grid, self.values)
        raise BodyFileError(f"cannot view a '{self.representation}' body as a flower")

    def to_body(self) -> StarBody | ConvexBody:
        """The body the samples stand for: support samples as an uncertified convex
        body, petals as their flower, radial samples as a star body."""
        if self.representation == "support":
            return ConvexBody(self.grid, self.values)
        if self.representation == "petals":
            return self.to_flower()
        return self.to_star()

    def to_polytope(self) -> OffOriginPolytope:
        if self.representation != "polytope":
            raise BodyFileError(f"expected a polytope body, got '{self.representation}'")
        return OffOriginPolytope(self.points)


def _finite_number(v) -> bool:
    """A JSON number within the float range; booleans are not numbers."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _finite_array(raw: list, leaves) -> np.ndarray | None:
    """raw as one float array if each of its leaves is a _finite_number, else None: one type check, one conversion, one pass.

    It refuses a list exactly when some leaf fails _finite_number, so a
    caller's loop over the items then finds the first bad one to word the
    error.
    """
    if not set(map(type, leaves)) <= {int, float}:
        return None
    try:
        a = np.asarray(raw, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return a if np.isfinite(a).all() else None


def _grid_from_spec(spec, dim: int, size: int | None = None) -> DirectionGrid:
    """The grid of a body file that carries `size` samples on it (None: no samples).

    The declared grid size is checked against the cap and against `size`
    before the grid is allocated.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise BodyFileError("grid: expected an object with a 'type' field")
    if spec["type"] == "uniform-angle":
        if dim != 2:
            raise BodyFileError("grid: uniform-angle grids are 2D")
        if "n" not in spec or type(spec["n"]) is not int:
            raise BodyFileError("grid: uniform-angle needs an integer 'n'")
        n = spec["n"]
    elif spec["type"] == "directions":
        for key in ("vectors", "weights"):
            if key not in spec:
                raise BodyFileError(f"grid: directions grid needs '{key}'")
        if not isinstance(spec["vectors"], list):
            raise BodyFileError("grid: 'vectors' must be a list")
        n = len(spec["vectors"])
    else:
        raise BodyFileError(f"grid: unknown type '{spec['type']}'")
    if n > MAX_GRID_SIZE:
        raise BodyFileError(f"grid: {n} directions exceed the cap of {MAX_GRID_SIZE}")
    if size is not None and size != n:
        raise BodyFileError(f"values: expected {n} entries, got {size}")
    if spec["type"] == "uniform-angle":
        return uniform_angle_grid(n)
    vectors, weights = spec["vectors"], spec["weights"]
    shaped = all(isinstance(v, list) and len(v) == dim for v in vectors)
    dirs = _finite_array(vectors, chain.from_iterable(vectors)) if shaped else None
    if dirs is None:
        for i, v in enumerate(vectors):
            if not isinstance(v, list) or len(v) != dim or not all(map(_finite_number, v)):
                raise BodyFileError(f"grid: vectors[{i}]: expected {dim} finite numbers")
    w = _finite_array(weights, weights) if isinstance(weights, list) else None
    if w is None:
        raise BodyFileError("grid: 'weights' must be a list of finite numbers")
    return DirectionGrid(dim, dirs, w)


def _grid_to_spec(grid: DirectionGrid) -> dict:
    if grid.uniform_n is not None:
        return {"type": "uniform-angle", "n": grid.uniform_n}
    return {"type": "directions", "vectors": grid.directions.tolist(), "weights": grid.weights.tolist()}


def parse_body_obj(obj) -> BodyDocument:
    if not isinstance(obj, dict):
        raise BodyFileError("body file must contain a JSON object")
    for key in ("dim", "representation"):
        if key not in obj:
            raise BodyFileError(f"missing required field '{key}'")
    dim = obj["dim"]
    rep = obj["representation"]
    if type(dim) is not int or dim < 1:
        raise BodyFileError("dim: must be a positive integer")
    if rep not in REPRESENTATIONS:
        raise BodyFileError(f"representation: must be one of {REPRESENTATIONS}, got '{rep}'")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise BodyFileError("metadata: must be an object")

    grid = None
    values = None
    points = None
    if rep in ("radial", "support"):
        if "grid" not in obj:
            raise BodyFileError(f"'{rep}' bodies need a grid")
        raw = obj.get("values")
        grid = _grid_from_spec(obj["grid"], dim, len(raw) if isinstance(raw, list) else None)
        if not isinstance(raw, list):
            raise BodyFileError(f"'{rep}' bodies need a 'values' list")
        values = _finite_array(raw, raw)
        if values is None or not (values > 0).all():
            for i, v in enumerate(raw):
                if not _finite_number(v) or v <= 0:
                    raise BodyFileError(f"values[{i}]: must be a positive finite number, got {v!r}")
    else:
        if "points" not in obj or not isinstance(obj["points"], list) or not obj["points"]:
            raise BodyFileError(f"'{rep}' bodies need a nonempty 'points' list")
        m = len(obj["points"])
        if m > MAX_GRID_SIZE:
            raise BodyFileError(f"points: {m} points exceed the cap of {MAX_GRID_SIZE}")
        for i, p in enumerate(obj["points"]):
            if not isinstance(p, list) or len(p) != dim:
                raise BodyFileError(f"points[{i}]: expected a vector of length {dim}")
            for j, v in enumerate(p):
                if not _finite_number(v):
                    raise BodyFileError(f"points[{i}][{j}]: must be a finite number")
        points = np.asarray(obj["points"], dtype=float)
        if rep == "petals":
            if "grid" not in obj:
                raise BodyFileError("'petals' bodies need a grid")
            grid = _grid_from_spec(obj["grid"], dim)
    return BodyDocument(dim, rep, grid, values, points, dict(metadata))


def parse_body(path) -> BodyDocument:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise BodyFileError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except OSError as e:
        raise BodyFileError(f"{path}: {e}") from e
    try:
        return parse_body_obj(obj)
    except BodyFileError as e:
        raise BodyFileError(f"{path}: {e}") from e


def body_to_obj(doc: BodyDocument) -> dict:
    out: dict = {"dim": doc.dim, "representation": doc.representation}
    if doc.grid is not None:
        out["grid"] = _grid_to_spec(doc.grid)
    if doc.values is not None:
        out["values"] = doc.values.tolist()
    if doc.points is not None:
        out["points"] = doc.points.tolist()
    out["metadata"] = doc.metadata
    return out


def serialize_body(doc: BodyDocument, path=None) -> str:
    """Canonical serialization; returns the text and optionally writes it."""
    text = json.dumps(body_to_obj(doc), indent=2) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def document_for_star(s: StarBody, representation: str = "radial", metadata: dict | None = None) -> BodyDocument:
    return BodyDocument(s.grid.dim, representation, s.grid, values=s.radial, metadata=metadata or {})


def document_for_convex(k: ConvexBody, metadata: dict | None = None) -> BodyDocument:
    return BodyDocument(k.grid.dim, "support", k.grid, values=k.support, metadata=metadata or {})
