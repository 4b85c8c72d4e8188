"""Layer spans for the traced benchmark run.

The traced run wraps the public functions of each inner layer of ``repro``
from the benchmark's own files; nothing inside the program changes.  Every
wrapped call that enters a layer from a *different* layer opens a span on a
stack.  When it returns, its duration minus the time its child spans
covered is added to the layer's self time, and its duration is charged to
the parent span as child time.  A call that re-enters the layer it is
already in (``reduce_multiset`` calling ``Multiset.reduce``) is part of the
outer span and is not counted again, so a layer's call count is the number
of times control crossed into it.

Fine-grained layers (the event queue, delay draws, clock reads) fire
millions of times per pass, so they are kept as per-run aggregates
(calls and self time per layer).  Coarse layers (``execute``,
``System.run_until``, the engines, the audit, the topology builders) also
keep one span record each: run id, layer, start, end and parent layer.
Everything stays in memory until :meth:`LayerTracer.write` dumps it when
the benchmark ends.

A wrapper costs about a microsecond, which matters for layers entered
millions of times.  :func:`calibrate` measures that cost on a no-op, split
into the part that lands inside the wrapped span and the part charged to
the parent span, and :meth:`LayerTracer.totals` subtracts it (per call and
per child call) from each layer's self time.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (layer, coarse, targets).  A target is "module:attribute" for a module
# function (every alias of it in a loaded ``repro`` module is wrapped too)
# or "module:Class.method" for a method.  "module:*.method" wraps ``method``
# on every class of the module that defines it itself.
LAYERS: Tuple[Tuple[str, bool, Tuple[str, ...]], ...] = (
    ("runner", True, ("repro.runner.spec:execute",
                      "repro.runner.batch:BatchRunner.run")),
    ("sim.system", False, ("repro.sim.system:System.run_until",
                           "repro.sim.system:System.broadcast_from",
                           "repro.sim.system:System.post_message",
                           "repro.sim.system:System.post_timer")),
    ("sim.events", False, ("repro.sim.events:EventQueue.push",
                           "repro.sim.events:EventQueue.push_fields",
                           "repro.sim.events:EventQueue.pop",
                           "repro.sim.events:EventQueue.pop_fields")),
    ("sim.network", False, ("repro.sim.network:*.delay",)),
    ("core", False, ("repro.core.maintenance:WelchLynchProcess.on_start",
                     "repro.core.maintenance:WelchLynchProcess.on_timer",
                     "repro.core.maintenance:WelchLynchProcess.on_message")),
    ("multiset", False, ("repro.multiset.operations:reduce_multiset",
                         "repro.multiset.operations:mid",
                         "repro.multiset.operations:Multiset.reduce",
                         "repro.multiset.operations:Multiset.mid")),
    ("clocks", False, ("repro.sim.process:ProcessContext.local_time",
                       "repro.sim.process:ProcessContext.adjust_correction",
                       "repro.clocks.logical:CorrectionHistory.apply",
                       "repro.clocks.logical:CorrectionHistory.correction_at")),
    ("sim.trace", False, ("repro.sim.system:System.log_event",)),
    ("analysis.verification", True,
     ("repro.analysis.verification:check_maintenance_run",)),
    ("analysis.online", False, ("repro.analysis.online:*.on_attach",
                                "repro.analysis.online:*.on_correction",
                                "repro.analysis.online:*.on_advance",
                                "repro.analysis.online:*.on_finalize")),
    ("vectorized.batch", True, ("repro.sim.vectorized:execute_batch",)),
    ("vectorized.run", True, ("repro.sim.vectorized:VectorSystem.run",)),
    ("roundengine.try", True, ("repro.sim.roundengine:try_execute",)),
    ("roundengine.run", True, ("repro.sim.roundengine:RoundSystem.run",)),
    ("topology.build", True, ("repro.topology.spec:build_topology",)),
    ("topology.index", True, ("repro.topology.index:topology_index",)),
)

LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)
_ROOT = -1


def _resolve(target: str) -> List[Tuple[object, str]]:
    """The (owner, attribute) pairs a target names, importing its module."""
    module_name, path = target.split(":")
    __import__(module_name)
    module = sys.modules[module_name]
    if "." not in path:
        original = getattr(module, path)
        owners = [(module, path)]
        for name, other in list(sys.modules.items()):
            if other is module or not name.startswith("repro"):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    owners.append((other, attr))
        return owners
    cls_name, method = path.split(".")
    if cls_name != "*":
        return [(getattr(module, cls_name), method)]
    return [(value, method) for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module_name
            and method in vars(value)]


def _noop(first, second, third) -> None:
    return None


#: no-op calls per calibration try, and tries (the median is kept).
_CALIBRATION_CALLS = 20000
_CALIBRATION_TRIES = 7


def calibrate() -> Tuple[float, float]:
    """Wrapper cost per call: (inside the child span, charged to the parent).

    Times a loop of bare three-argument no-op calls against the same loop
    through a wrapper nested in a wrapped parent, and keeps the median of
    several tries.
    """
    calls = _CALIBRATION_CALLS
    probe = LayerTracer(calibrated=False)
    inner = probe._wrap(_noop, 1, False)

    def wrapped_loop() -> None:
        for _ in range(calls):
            inner(1, 2, 3)

    outer = probe._wrap(wrapped_loop, 0, False)
    clock = time.perf_counter
    inside, added = [], []
    for _ in range(_CALIBRATION_TRIES):
        start = clock()
        for _ in range(calls):
            pass
        empty = clock() - start
        start = clock()
        for _ in range(calls):
            _noop(1, 2, 3)
        bare = clock() - start
        before = probe.self_s[1]
        start = clock()
        outer()
        wrapped = clock() - start
        inside.append((probe.self_s[1] - before) / calls
                      - (bare - empty) / calls)
        added.append((wrapped - bare) / calls)
    o_in = max(0.0, statistics.median(inside))
    return o_in, max(0.0, statistics.median(added) - o_in)


class LayerTracer:
    """Wraps the layer entry points; aggregates self time and call counts."""

    def __init__(self, calibrated: bool = True) -> None:
        count = len(LAYERS)
        self.self_s = [0.0] * count
        self.calls = [0] * count
        self.child_calls = [0] * count
        self.overhead = calibrate() if calibrated else (0.0, 0.0)
        self.spans: List[Tuple[int, str, str, float, float]] = []
        self.runs: List[Dict[str, object]] = []
        self._stack: List[List] = [[_ROOT, 0.0, 0]]
        self._run_id = 0
        self._run_base: Optional[Tuple[List[float], List[int]]] = None
        self._patches: List[Tuple[object, str, Callable, Callable]] = []

    # -- install / uninstall -------------------------------------------------
    def install(self) -> None:
        """Replace every layer entry point with its span-recording wrapper."""
        if self._patches:
            return
        wrapped: Dict[int, Callable] = {}
        for layer_id, (layer, coarse, targets) in enumerate(LAYERS):
            for target in targets:
                for owner, attr in _resolve(target):
                    original = vars(owner)[attr]
                    key = id(original)
                    if key not in wrapped:
                        wrapped[key] = self._wrap(original, layer_id, coarse)
                    self._patches.append((owner, attr, original,
                                          wrapped[key]))
                    setattr(owner, attr, wrapped[key])

    def uninstall(self) -> None:
        """Put every original function back.

        A module imported while the wrappers were in place may have bound a
        wrapper under its own name, so every loaded ``repro`` module is
        swept for leftovers too.
        """
        originals = {id(wrapper): (wrapper, original)
                     for _, _, original, wrapper in self._patches}
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])

    def _wrap(self, fn: Callable, layer_id: int, coarse: bool) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        child_calls = self.child_calls
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if stack[-1][0] == layer_id:
                return fn(*args, **kwargs)
            frame = [layer_id, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s[layer_id] += elapsed - frame[1]
                calls[layer_id] += 1
                child_calls[layer_id] += frame[2]
                parent = stack[-1]
                parent[1] += elapsed
                parent[2] += 1
                if coarse:
                    parent_name = (LAYER_NAMES[parent[0]]
                                   if parent[0] != _ROOT else "")
                    spans.append((tracer._run_id, LAYER_NAMES[layer_id],
                                  parent_name, start, end))

        return wrapper

    # -- runs ----------------------------------------------------------------
    def begin_run(self, label: str) -> None:
        """Close the current run's aggregates and open a new run id."""
        self.end_run()
        self._run_id += 1
        self.runs.append({"run_id": self._run_id, "label": label})
        self._run_base = (list(self.self_s), list(self.calls))

    def end_run(self) -> None:
        """Store the open run's per-layer deltas (no-op when none is open)."""
        if self._run_base is None:
            return
        base_self, base_calls = self._run_base
        record = self.runs[-1]
        record["layers"] = {
            LAYER_NAMES[i]: {"calls": self.calls[i] - base_calls[i],
                             "self_s": self.self_s[i] - base_self[i]}
            for i in range(len(LAYERS))
            if self.calls[i] != base_calls[i]}
        self._run_base = None

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Per-layer (calls, self seconds net of wrapper cost) so far."""
        inside, outside = self.overhead
        return {name: (self.calls[i],
                       max(0.0, self.self_s[i] - self.calls[i] * inside
                           - self.child_calls[i] * outside))
                for i, name in enumerate(LAYER_NAMES)}

    def write(self, path: str, extra: Dict[str, object]) -> None:
        """Dump spans, per-run aggregates and totals as one JSON file."""
        self.end_run()
        payload = dict(extra)
        payload["layers"] = {name: {"targets": list(targets),
                                    "coarse": coarse}
                             for name, coarse, targets in LAYERS}
        payload["wrapper_cost_s"] = {"inside": self.overhead[0],
                                     "outside": self.overhead[1]}
        payload["totals"] = {
            name: {"calls": calls, "self_s": self_s,
                   "raw_self_s": self.self_s[i],
                   "child_calls": self.child_calls[i]}
            for i, (name, (calls, self_s))
            in enumerate(self.totals().items())}
        payload["runs"] = self.runs
        payload["spans"] = [
            {"run_id": run_id, "layer": layer, "parent": parent,
             "start": start, "end": end}
            for run_id, layer, parent, start, end in self.spans]
        with open(path, "w") as handle:
            json.dump(payload, handle)
