"""Spans and counters around woldlab's public functions, from outside.

``Tracer.patch`` replaces a function by a wrapper that records a span
(name, start, end, parent span, query) in memory; ``Tracer.write`` saves
them when the run ends.  A function is
patched under every name it is looked up by: ``cli`` and ``pairs`` import
``commutes`` by name from ``core``, ``wold`` calls ``is_strongly_wandering``
recursively through its own globals, and ``woldlab/__init__`` re-exports
most functions, so each module attribute that *is* the original function is
replaced.  ``restore`` undoes every patch.

A span's self time is its duration minus the durations of its direct
children.  Spans nest on one call stack, so children never overlap and
this is exact for nesting and recursion alike.

``core.hvector.ops`` comes from ``HVectorCounter`` in a pass of its own:
``HVector`` operations run millions of times, and wrapping them in the
traced pass would inflate every other self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    """Spans in columns: ``names``, ``starts``, ``ends``, ``parents`` (index
    of the enclosing span, -1 at top level), ``queries`` (the caller's
    ``query`` at entry) and two integer ``notes`` columns.  Flat arrays keep
    the spans out of the garbage collector's way."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.query = -1  # set by the caller before each query
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.queries = array("q")
        self.notes = (array("q"), array("q"))
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        """Wrapper recording one span per call; ``note(args, result)``, if
        given, returns two integers stored with the span after it ends."""
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        queries, (note_a, note_b) = self.queries, self.notes
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            queries.append(self.query)
            note_a.append(-1)
            note_b.append(-1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if note is not None:
                note_a[index], note_b[index] = note(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note=None,
              modules=()) -> None:
        """Wrap ``owner.attr``; for a module-level function also rebind it
        in every module of ``modules`` that holds the same object."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, note)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            targets += [(mod, key) for mod in modules if mod is not owner
                        for key, value in list(vars(mod).items())
                        if value is original]
        for target, key in targets:
            self._undo.append((target, key, vars(target)[key]))
            setattr(target, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def write(self, path) -> None:
        """All spans as one JSON object of columns, gzipped."""
        doc = {"names": self.names, "starts": self.starts.tolist(),
               "ends": self.ends.tolist(), "parents": self.parents.tolist(),
               "queries": self.queries.tolist()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


class HVectorCounter:
    """Counts ``HVector`` inner / scaled / add / sub calls."""

    METHODS = ("inner", "scaled", "__add__", "__sub__")

    def __init__(self, hvector_cls):
        self.cls = hvector_cls
        self.count = 0
        self._originals = {m: vars(hvector_cls)[m] for m in self.METHODS}

    def install(self) -> None:
        for method, original in self._originals.items():
            setattr(self.cls, method, self._counting(original))

    def _counting(self, original):
        def counted(*args):
            self.count += 1
            return original(*args)
        return counted

    def restore(self) -> None:
        for method, original in self._originals.items():
            setattr(self.cls, method, original)


# -- what is wrapped in woldlab, and the metrics made from it ---------------

def _size(args, result):
    """(vectors offered, basis vectors returned) of a basis builder."""
    return len(args[0]), len(result)


def _orbit(args, result):
    """(steps taken, certified) of an orbit."""
    return len(result.vectors) - 1, int(result.certified)


def _certified(args, result):
    return int(result.is_true and result.exact), 0


# module -> [(attribute, note)]; "Class.method" patches a method
WRAPPED = {
    "core": [("StructuredIsometry.__init__", None),
             ("StructuredIsometry.apply", None),
             ("StructuredIsometry.apply_adjoint", None),
             ("commutes", None), ("doubly_commutes", None),
             ("compose", None), ("lanes_reducing", None)],
    "_linalg": [("mgs", _size), ("complement_basis", _size),
                ("intersect_spans", _size), ("orthogonal_residual", None),
                ("orthonormal_span", None), ("project", None),
                ("nullspace_combinations", None)],
    "wold": [("forward_orbit", _orbit), ("backward_orbit", _orbit),
             ("shift_orbit_vectors", None), ("kernel_of_adjoint", None),
             ("is_unitary", None), ("wold_decompose", None),
             ("is_wandering", None), ("is_strongly_wandering", _certified),
             ("wandering_span_decompose", None),
             ("strongly_wandering_span", None)],
    "pairs": [("pair_decompose", None), ("weak_bishift_classify", None),
              ("is_completely_non_doubly_commuting", None)],
    "spectral": [("multiplicity_profile", None), ("is_bilateral_shift", None),
                 ("has_wandering_vector", None), ("bilateral_cover", None)],
    "fileformat": [("parse_operator", None), ("parse_spectral", None),
                   ("parse_vector_literal", None), ("phase_from_turns", None)],
    "serialize": [(name, None) for name in (
        "vector_to_jsonable", "basis_to_jsonable", "subspace_to_jsonable",
        "witness_to_jsonable", "certificate_to_jsonable", "wold_to_jsonable",
        "wandering_span_to_jsonable", "arc_to_jsonable",
        "spectral_to_jsonable", "profile_to_jsonable", "finding_to_jsonable",
        "cover_to_jsonable", "pair_part_to_jsonable",
        "pair_report_to_jsonable")],
    "cli": [("main", None)],
}


def span_name(module: str, attr: str) -> str:
    return f"{module.lstrip('_')}.{attr}"


def install(tracer: Tracer) -> None:
    """Patch every function in ``WRAPPED``; woldlab must be imported."""
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "woldlab" or key.startswith("woldlab.")]
    for module, attrs in WRAPPED.items():
        mod = sys.modules[f"woldlab.{module}"]
        for attr, note in attrs:
            owner, _, member = attr.rpartition(".")
            target = getattr(mod, owner) if owner else mod
            tracer.patch(target, member, span_name(module, attr), note,
                         modules)


def _names(module: str, *attrs: str) -> set[str]:
    return {span_name(module, a) for a in attrs}


# layer -> span names whose self time it owns
LAYERS = {
    "core.apply": _names("core", "StructuredIsometry.apply"),
    "core.apply_adjoint": _names("core", "StructuredIsometry.apply_adjoint"),
    "core.construct": _names("core", "StructuredIsometry.__init__"),
    "core.commute": _names("core", "commutes", "doubly_commutes", "compose",
                           "lanes_reducing"),
    "linalg": {span_name("_linalg", a) for a, _ in WRAPPED["_linalg"]},
    "wold.orbit": _names("wold", "forward_orbit", "backward_orbit",
                         "shift_orbit_vectors"),
    "wold.decompose": _names("wold", "wold_decompose"),
    "wold.kernel": _names("wold", "kernel_of_adjoint", "is_unitary"),
    "wold.wandering": _names("wold", "is_wandering"),
    "wold.strong": _names("wold", "is_strongly_wandering"),
    "wold.strong_span": _names("wold", "strongly_wandering_span"),
    "wold.span": _names("wold", "wandering_span_decompose"),
    "pairs.decompose": _names("pairs", "pair_decompose"),
    "pairs.weak_bishift": _names("pairs", "weak_bishift_classify"),
    "pairs.ncdc": _names("pairs", "is_completely_non_doubly_commuting"),
    "spectral": {span_name("spectral", a) for a, _ in WRAPPED["spectral"]},
    "fileformat": {span_name("fileformat", a) for a, _ in WRAPPED["fileformat"]},
    "serialize": {span_name("serialize", a) for a, _ in WRAPPED["serialize"]},
    "cli": _names("cli", "main"),
}

# the per-layer metrics, in BENCHMARK.json order, with their units
PER_LAYER_UNITS = {
    "core.apply.calls": "count",
    "core.apply_adjoint.calls": "count",
    "core.apply.self_s": "s",
    "core.hvector.ops": "count",
    "core.construct.self_s": "s",
    "core.commute.self_s": "s",
    "linalg.self_s": "s",
    "linalg.calls": "count",
    "linalg.vectors_in": "count",
    "linalg.kept_ratio": "ratio",
    "wold.orbit.self_s": "s",
    "wold.orbit.steps": "count",
    "wold.orbit.certified_ratio": "ratio",
    "wold.decompose.calls": "count",
    "wold.decompose.self_s": "s",
    "wold.kernel.self_s": "s",
    "wold.kernel.calls": "count",
    "wold.wandering.self_s": "s",
    "wold.strong.self_s": "s",
    "wold.strong.calls": "count",
    "wold.strong_span.certified_ratio": "ratio",
    "wold.span.self_s": "s",
    "pairs.decompose.calls": "count",
    "pairs.decompose.self_s": "s",
    "pairs.weak_bishift.self_s": "s",
    "pairs.ncdc.self_s": "s",
    "spectral.self_s": "s",
    "spectral.calls": "count",
    "fileformat.self_s": "s",
    "serialize.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times, counts and ratios from the recorded spans
    (everything in ``PER_LAYER_UNITS`` except the two metrics measured by
    other passes: ``core.hvector.ops`` and ``trace.overhead_s``)."""
    layer_of = {name: layer for layer, names in LAYERS.items()
                for name in names}
    layers = [layer_of[name] for name in tracer.names]
    parents = tracer.parents
    note_a, note_b = tracer.notes
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    entered: dict[str, int] = defaultdict(int)  # calls from another layer
    for i, own in enumerate(tracer.self_times()):
        layer = layers[i]
        self_s[layer] += own
        calls[tracer.names[i]] += 1
        if parents[i] < 0 or layers[parents[i]] != layer:
            entered[layer] += 1

    offered = kept = steps = orbits = certified = 0
    span_tests = span_certified = 0
    strong = span_name("wold", "is_strongly_wandering")
    strong_span = span_name("wold", "strongly_wandering_span")
    for i, name in enumerate(tracer.names):
        if note_a[i] < 0:
            continue
        parent = tracer.names[parents[i]] if parents[i] >= 0 else None
        if layers[i] == "linalg":
            if layer_of.get(parent) != "linalg":
                offered += note_a[i]
                kept += note_b[i]
        elif layers[i] == "wold.orbit":
            steps += note_a[i]
            orbits += 1
            certified += note_b[i]
        elif name == strong and parent == strong_span:
            span_tests += 1
            span_certified += note_a[i]

    out = {
        "core.apply.calls": calls[span_name("core", "StructuredIsometry.apply")],
        "core.apply_adjoint.calls":
            calls[span_name("core", "StructuredIsometry.apply_adjoint")],
        "linalg.calls": entered["linalg"],
        "linalg.vectors_in": offered,
        "linalg.kept_ratio": _ratio(kept, offered),
        "wold.orbit.steps": steps,
        "wold.orbit.certified_ratio": _ratio(certified, orbits),
        "wold.decompose.calls": calls[span_name("wold", "wold_decompose")],
        "wold.kernel.calls": calls[span_name("wold", "kernel_of_adjoint")],
        "wold.strong.calls": calls[strong],
        "wold.strong_span.certified_ratio": _ratio(span_certified, span_tests),
        "pairs.decompose.calls": calls[span_name("pairs", "pair_decompose")],
        "spectral.calls": entered["spectral"],
    }
    for layer in LAYERS:
        key = f"{layer}.self_s"
        if key in PER_LAYER_UNITS:
            out[key] = self_s[layer]
    return out
