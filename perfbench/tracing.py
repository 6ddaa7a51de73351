"""Span recording for the traced run, from outside the program.

The benchmark never edits the package.  For a traced round it swaps
timing wrappers in for the public entry points of each layer (module
functions where their callers look them up, methods on their classes)
and swaps the originals back afterwards, so an untraced round runs the
unmodified program.  Names bound with ``from x import f`` are patched
in the importing module's namespace (``repro.serve.server.cow_apply``),
since that is where the caller looks them up.

A span is ``[name, start, end, parent, note]``; ``parent`` is the index
of the enclosing span (-1 for a phase root) and ``note`` an optional
number read off the call's result (1 for a cache hit).
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Callable, Dict, List


class Tracer:
    """In-memory span list for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()


def _hit(result) -> int:
    return int(result is not None)


#: (module, class or None, attribute, span name, note probe).  A probe
#: gets the call's result and returns the span's note.
LAYER_ENTRY_POINTS = (
    ("repro.graph.generators", None, "road_network", "graph.generate", None),
    ("repro.core.dynamic", "DynamicCH", "__init__", "ch.build", None),
    ("repro.core.dynamic", "DynamicH2H", "__init__", "h2h.build", None),
    ("repro.serve.server", "DistanceServer", "__init__", "serve.init", None),
    ("repro.fleet.coordinator", "FleetCoordinator", "__init__", "fleet.init", None),
    ("repro.fleet.coordinator", None, "separator_partition", "fleet.partition", None),
    ("repro.fleet.shard", "ShardServer", "__init__", "fleet.shard_build", None),
    ("repro.fleet.coordinator", None, "build_boundary_state", "fleet.boundary_build", None),
    ("repro.serve.server", "DistanceServer", "distance_on", "serve.distance_on", None),
    ("repro.serve.cache", "QueryCache", "get", "cache.get", _hit),
    ("repro.serve.cache", "QueryCache", "put", "cache.put", None),
    ("repro.core.dynamic", "DynamicCH", "distance", "ch.search", None),
    ("repro.core.dynamic", "DynamicH2H", "distance", "h2h.lookup", None),
    ("repro.fleet.coordinator", "FleetCoordinator", "distance_on", "fleet.distance_on", None),
    ("repro.fleet.boundary", "BoundaryTable", "combo", "fleet.combo", None),
    ("repro.fleet.shard", "ShardServer", "distance_on", "fleet.shard_query", None),
    ("repro.serve.server", "DistanceServer", "apply", "serve.apply", None),
    ("repro.serve.server", None, "cow_apply", "serve.cow_apply", None),
    ("repro.perf.coalesce", None, "coalesce_updates", "perf.coalesce", None),
    ("repro.core.dynamic", "DynamicCH", "clone", "serve.clone", None),
    ("repro.core.dynamic", "DynamicH2H", "clone", "serve.clone", None),
    ("repro.reliability.transactions", None, "snapshot_index", "reliability.snapshot", None),
    ("repro.core.dynamic", "DynamicCH", "apply", "maint.apply", None),
    ("repro.core.dynamic", "DynamicH2H", "apply", "maint.apply", None),
    ("repro.serve.server", None, "affected_vertices", "serve.aff", None),
    ("repro.serve.cache", "QueryCache", "migrate", "cache.migrate", None),
    ("repro.fleet.coordinator", "FleetCoordinator", "apply", "fleet.apply", None),
    ("repro.fleet.shard", "ShardServer", "apply", "fleet.shard_apply", None),
    ("repro.fleet.coordinator", None, "scoped_row_patch", "fleet.row_patch", None),
    ("repro.fleet.coordinator", None, "refresh_boundary", "fleet.refresh", None),
)


def _wrap(tracer: Tracer, name: str, fn: Callable, probe) -> Callable:
    if probe is None:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    @functools.wraps(fn)
    def traced_probe(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        tracer.spans[index][4] = probe(result)
        return result

    return traced_probe


class Instrumentation:
    """Installs and removes the wrappers around :data:`LAYER_ENTRY_POINTS`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._originals = []
        for module_name, class_name, attr, span_name, probe in LAYER_ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            self._originals.append(
                (owner, attr, original, _wrap(tracer, span_name, original, probe))
            )

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._originals:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _wrapper in self._originals:
            setattr(owner, attr, original)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _name, start, end, _parent, _note in spans]
    for _name, start, end, parent, _note in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def phase_table(spans: List[list]) -> Dict[str, dict]:
    """Per phase (root span name): wall time, op count and self time per
    layer, with the roots' own self time as the ``unattributed`` row."""
    own = self_times(spans)
    phase_of: List[str] = []
    phases: Dict[str, dict] = {}
    for i, (name, start, end, parent, _note) in enumerate(spans):
        if parent < 0:
            phase = name
            row = phases.setdefault(
                phase, {"wall_s": 0.0, "ops": 0, "self_s": {"unattributed": 0.0}}
            )
            row["wall_s"] += end - start
            row["ops"] += 1
            row["self_s"]["unattributed"] += own[i]
        else:
            phase = phase_of[parent]
            layer = phases[phase]["self_s"]
            layer[name] = layer.get(name, 0.0) + own[i]
        phase_of.append(phase)
    return phases
