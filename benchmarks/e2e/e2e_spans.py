"""Spans at the repo's public layer boundaries, recorded from outside.

:class:`SpanRecorder` wraps the entry points in :data:`TARGETS` (classes
and module functions of ``repro``) with timing wrappers.  Nothing under
``src/`` changes: the wrappers are installed on the live classes and on
every loaded ``repro`` module that bound the function, and removed again
by :meth:`SpanRecorder.uninstall`.

Each wrapped call pushes a frame; on return its duration is added to the
parent frame's child time, and ``duration - child time`` is booked as the
layer's self time for the current phase (``setup`` or ``measure``).
Boundaries marked ``span`` also keep a span record (name, layer, start,
end, parent, sample id) in memory for export; per-access boundaries only
aggregate, so memory stays bounded.

Generator programs run inside ``Engine.run``, so the engine's self time
includes backend and accelerator program bodies.  Batched replay's
``core_accessor`` closure bypasses ``core_access``; the ``calls`` counts
show when that sweep moves under ``sim.core``.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

SPAN, AGGREGATE, GENERATOR = "span", "aggregate", "generator"

#: (module, attribute path, layer, kind).  ``Class.method`` paths patch the
#: class; bare names patch the function wherever a ``repro`` module bound it.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.traffic.generator", "FlowSet.generate", "traffic", SPAN),
    ("repro.traffic.generator", "PacketStream.take", "traffic", SPAN),
    ("repro.traffic.generator", "random_keys", "traffic", SPAN),
    ("repro.workloads.churn", "ChurnEngine.packets", "workloads", GENERATOR),
    ("repro.hashtable.cuckoo", "CuckooHashTable.insert", "hashtable",
     AGGREGATE),
    ("repro.hashtable.cuckoo", "CuckooHashTable.lookup", "hashtable",
     AGGREGATE),
    ("repro.hashtable.cuckoo", "CuckooHashTable.delete", "hashtable",
     AGGREGATE),
    ("repro.hashtable.cuckoo", "CuckooHashTable.probe", "hashtable",
     AGGREGATE),
    ("repro.classifier.datapath", "OvsDatapath.classify", "classifier", SPAN),
    ("repro.classifier.emc", "ExactMatchCache.lookup", "classifier",
     AGGREGATE),
    ("repro.classifier.emc", "ExactMatchCache.install", "classifier",
     AGGREGATE),
    ("repro.classifier.tuple_space", "TupleSpaceSearch.classify",
     "classifier", AGGREGATE),
    ("repro.classifier.tuple_space", "TupleSpaceSearch.install",
     "classifier", AGGREGATE),
    ("repro.classifier.openflow", "OpenFlowLayer.classify", "classifier",
     AGGREGATE),
    ("repro.classifier.openflow", "OpenFlowLayer.install", "classifier",
     AGGREGATE),
    ("repro.vswitch.switch", "VirtualSwitch.process_flow", "vswitch", SPAN),
    ("repro.vswitch.switch", "VirtualSwitch.install_rules", "vswitch", SPAN),
    ("repro.vswitch.switch", "VirtualSwitch.prewarm_megaflows", "vswitch",
     SPAN),
    ("repro.vswitch.switch", "VirtualSwitch.warm", "vswitch", SPAN),
    ("repro.core.halo_system", "HaloSystem.run_backend_lookups", "core",
     SPAN),
    ("repro.core.halo_system", "HaloSystem.run_cores", "core", SPAN),
    ("repro.core.halo_system", "HaloSystem.create_table", "core", SPAN),
    ("repro.core.halo_system", "HaloSystem.warm_table", "core", SPAN),
    ("repro.exec.cores", "run_cores", "exec", SPAN),
    ("repro.exec.backend", "make_backend", "exec", AGGREGATE),
    ("repro.sim.engine", "Engine.run", "sim.engine", SPAN),
    ("repro.sim.engine", "Engine.run_process", "sim.engine", SPAN),
    ("repro.sim.core", "CoreModel.execute", "sim.core", AGGREGATE),
    ("repro.sim.core", "CoreModel.execute_batch", "sim.core", AGGREGATE),
    ("repro.sim.core", "CoreModel.execute_window", "sim.core", AGGREGATE),
    ("repro.sim.hierarchy", "MemoryHierarchy.core_access", "sim.hierarchy",
     AGGREGATE),
    ("repro.sim.hierarchy", "MemoryHierarchy.cha_access", "sim.hierarchy",
     AGGREGATE),
    ("repro.sim.hierarchy", "MemoryHierarchy.warm_llc", "sim.hierarchy",
     SPAN),
    ("repro.sim.hierarchy", "MemoryHierarchy.flush_private",
     "sim.hierarchy", SPAN),
    ("repro.sim.hierarchy", "MemoryHierarchy.flush_region", "sim.hierarchy",
     SPAN),
    ("repro.runner.registry", "discover", "runner", SPAN),
    ("repro.runner.pool", "run_supervised", "runner", SPAN),
)

#: Span records kept for export; past this, calls still count toward the
#: layer totals but are not stored.
MAX_SPANS = 250_000


class SpanRecorder:
    """Layer totals per phase, plus the span records of ``span`` targets.

    A span record is ``(name, layer, start, end, parent, sample)``:
    ``parent`` is the index of the enclosing record (-1 for none) and
    ``sample`` the measured sample it ran in (-1 outside samples).
    ``clock`` is injectable so tests can drive a synthetic span tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.phase = "setup"
        self.sample_id = -1
        #: phase -> layer -> [calls, self seconds]
        self.layers: Dict[str, Dict[str, list]] = {}
        self.spans: List[tuple] = []
        self.dropped = 0
        # Frames are [child seconds, enclosing span index, start].  The
        # bottom frame catches time spent outside any recorded call.
        self._stack: List[list] = [[0.0, -1, 0.0]]
        self._installed: List[Tuple[object, str, object]] = []
        self._functions: List[Tuple[str, object, object]] = []

    # -- frames -------------------------------------------------------------
    def _enter(self, record: bool) -> tuple:
        stack = self._stack
        parent = stack[-1]
        index = -1
        if record:
            if len(self.spans) < MAX_SPANS:
                index = len(self.spans)
                self.spans.append(None)
            else:
                self.dropped += 1
        frame = [0.0, index if index >= 0 else parent[1], self.clock()]
        stack.append(frame)
        return parent, frame, index

    def _leave(self, token: tuple, name: str, layer: str) -> None:
        end = self.clock()
        parent, frame, index = token
        self._stack.pop()
        duration = end - frame[2]
        parent[0] += duration
        per_phase = self.layers.get(self.phase)
        if per_phase is None:
            per_phase = self.layers[self.phase] = {}
        totals = per_phase.get(layer)
        if totals is None:
            totals = per_phase[layer] = [0, 0.0]
        totals[0] += 1
        totals[1] += duration - frame[0]
        if index >= 0:
            self.spans[index] = (name, layer, frame[2], end, parent[1],
                                 self.sample_id)

    def call(self, name: str, layer: str, fn: Callable, /, *args, **kwargs):
        """Run ``fn`` as a recorded span of ``layer``; returns its result."""
        token = self._enter(True)
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(token, name, layer)

    def _wrap(self, fn: Callable, name: str, layer: str,
              kind: str) -> Callable:
        enter, leave = self._enter, self._leave
        if kind == GENERATOR:
            def wrapper(*args, **kwargs):
                return self._drain(fn(*args, **kwargs), name, layer)
        else:
            record = kind == SPAN

            def wrapper(*args, **kwargs):
                token = enter(record)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(token, name, layer)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _drain(self, inner, name: str, layer: str):
        """Time each resume of a generator as one aggregated call."""
        while True:
            token = self._enter(False)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._leave(token, name, layer)
            yield item

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        """Wrap every target.  Imports the target modules."""
        if self._installed or self._functions:
            raise RuntimeError("span recorder already installed")
        for module_name, path, layer, kind in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{path}"
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(self._wrap(raw.__func__, name, layer,
                                                   kind))
                else:
                    patched = self._wrap(raw, name, layer, kind)
                setattr(owner, attr, patched)
                self._installed.append((owner, attr, raw))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(original, name, layer, kind)
                self._functions.append((path, original, wrapper))
                _rebind(path, original, wrapper)

    def uninstall(self) -> None:
        """Restore every original, including bindings made while installed."""
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        for path, original, wrapper in self._functions:
            _rebind(path, wrapper, original)
        self._installed.clear()
        self._functions.clear()

    # -- results ------------------------------------------------------------
    def self_seconds(self, phase: str, layer: str) -> float:
        return self.layers.get(phase, {}).get(layer, [0, 0.0])[1]

    def calls(self, phase: str, layer: str) -> int:
        return int(self.layers.get(phase, {}).get(layer, [0, 0.0])[0])

    def export(self) -> dict:
        """JSON-ready span records and per-phase layer totals."""
        return {
            "fields": ["name", "layer", "start", "end", "parent", "sample"],
            "spans": [span for span in self.spans if span is not None],
            "dropped": self.dropped,
            "layers": self.layers,
        }


def _rebind(attr: str, old: object, new: object) -> None:
    """Point ``attr`` from ``old`` to ``new`` in every loaded ``repro`` or
    benchmark module that bound it."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(("repro", "e2e_")):
            continue
        if getattr(module, attr, None) is old:
            setattr(module, attr, new)
