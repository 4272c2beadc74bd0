"""Per-layer host-time tracing, installed at run time from outside ``src/``.

A layer is one subpackage of ``repro`` (``repro.net``, ``repro.rdma``,
...).  :func:`install` wraps every public method of every class, and
every public module-level function, that the layer defines, so that a
call arriving from another layer opens a span.  A call from within the
same layer opens none: it is already inside that layer's span.  Event
callbacks handed to the simulator are wrapped as well, when scheduled,
with the span of the layer that defined them; otherwise everything the
event loop dispatches would count as ``sim`` time.  The benchmark's own
generators, sinks and taps run inside spans of the ``bench`` layer.

Spans are kept in memory (flat arrays: start, end, layer, parent) and
reduced when the run ends by :func:`self_times`: a span's self time is
its duration minus the durations of its direct children, and a layer's
self time is the sum over its spans.  Time inside no span is
``unattributed``, so the layer self times plus ``unattributed`` add up to
the traced wall time by construction.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List

#: repro subpackages measured as layers, plus the top-level testbed
#: builder and the benchmark's own code.
LAYERS = (
    "sim", "net", "rdma", "switches", "core", "cuckoo", "tiering",
    "policies", "cluster", "linkguard", "resilience", "faults", "apps",
    "workloads", "hosts", "obs", "testbed", "bench",
)
#: The benchmark's module whose generators, sinks and taps run as events.
BENCH_MODULES = ("workloads",)

_MARK = "_perfbench_layer"

SCHEDULERS = ("schedule", "schedule_at", "post")


def layer_of_module(module: str):
    """The layer a module belongs to, or None when it is no layer's."""
    if module is None:
        return None
    if module in BENCH_MODULES:
        return "bench"
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    """Span recorder: one instance per traced run."""

    def __init__(self) -> None:
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.starts = array("d")
        self.ends = array("d")
        self.layers = array("b")
        self.parents = array("i")
        self.current = -1
        self.current_layer = -1
        self._undo: List[Callable[[], None]] = []
        self._callback_layers: Dict[object, int] = {}
        self.began = 0.0
        self.wall_s = 0.0

    def enter(self, lid: int, fn: Callable, /, *args, **kwargs):
        """Call ``fn`` inside a span of layer *lid* (none if already in it)."""
        if self.current_layer == lid:
            return fn(*args, **kwargs)
        parent = self.current
        outer = self.current_layer
        index = len(self.starts)
        self.layers.append(lid)
        self.parents.append(parent)
        self.ends.append(0.0)
        self.current = index
        self.current_layer = lid
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter()
            self.current = parent
            self.current_layer = outer

    def wrap(self, layer: str, fn: Callable) -> Callable:
        lid = self.layer_ids[layer]
        enter = self.enter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return enter(lid, fn, *args, **kwargs)

        setattr(spanned, _MARK, layer)
        return spanned

    def wrap_callback(self, callback):
        """Span for an event callback, by the layer whose code it runs.

        Layers are cached per code object, so the closures and bound
        methods scheduled on every event cost one dict lookup.
        """
        target = getattr(callback, "__func__", callback)
        code = getattr(target, "__code__", None)
        if code is None:
            return callback
        lid = self._callback_layers.get(code, -2)
        if lid == -2:
            if getattr(target, _MARK, None) is not None:
                lid = -1  # already a spanned entry point
            else:
                layer = layer_of_module(getattr(target, "__module__", None))
                lid = -1 if layer is None else self.layer_ids[layer]
            self._callback_layers[code] = lid
        if lid < 0:
            return callback
        return functools.partial(self.enter, lid, callback)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public entry points, and the simulator's
        schedulers so event callbacks get spans too."""
        from repro.sim.simulator import Simulator

        for name in SCHEDULERS:
            self._patch(Simulator, name, self._scheduler(getattr(Simulator, name)))

        replaced: Dict[int, Callable] = {}
        modules = [
            (name, module) for name, module in sorted(sys.modules.items())
            if module is not None and layer_of_module(name) not in (None, "bench")
        ]
        for modname, module in modules:
            layer = layer_of_module(modname)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != modname:
                    continue
                if isinstance(value, type):
                    self._wrap_class(layer, value)
                elif callable(value) and hasattr(value, "__code__"):
                    replaced[id(value)] = self.wrap(layer, value)
        # Module-level functions are also reached through names other
        # modules (the benchmark's too) imported: rebind every reference.
        scope = [m for _n, m in modules] + [
            sys.modules[n] for n in BENCH_MODULES if n in sys.modules
        ]
        for module in scope:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patch_module(module, attr, wrapper)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, staticmethod):
                wrapped = staticmethod(self.wrap(layer, value.__func__))
            elif isinstance(value, classmethod):
                wrapped = classmethod(self.wrap(layer, value.__func__))
            elif callable(value) and hasattr(value, "__code__"):
                if cls.__name__ == "Simulator" and attr in SCHEDULERS:
                    continue  # patched by install()
                wrapped = self.wrap(layer, value)
            else:
                continue
            self._patch(cls, attr, wrapped)

    def _scheduler(self, original):
        wrap_callback = self.wrap_callback

        def schedule(sim, when, callback, *args):
            return original(sim, when, wrap_callback(callback), *args)

        return self.wrap("sim", functools.wraps(original)(schedule))

    def _patch(self, owner, attr, value) -> None:
        previous = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, previous))

    def _patch_module(self, module, attr, value) -> None:
        previous = getattr(module, attr)
        setattr(module, attr, value)
        self._undo.append(lambda: setattr(module, attr, previous))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- the traced window -------------------------------------------------------

    def begin(self) -> None:
        self.began = time.perf_counter()

    def end(self) -> None:
        self.wall_s = time.perf_counter() - self.began

    def report(self) -> Dict[str, float]:
        """``<layer>.self_s`` for every layer, ``unattributed.self_s``, and
        ``<layer>.spans`` (span counts)."""
        own, unattributed = self_times(
            self.starts, self.ends, self.layers, self.parents,
            self.wall_s, len(LAYERS),
        )
        out = {f"{name}.self_s": own[i] for i, name in enumerate(LAYERS)}
        out["unattributed.self_s"] = unattributed
        spans = [0] * len(LAYERS)
        for lid in self.layers:
            spans[lid] += 1
        out.update({f"{name}.spans": spans[i] for i, name in enumerate(LAYERS)})
        return out


def self_times(starts, ends, layers, parents, wall_s: float, n_layers: int):
    """Per-layer self time and the time covered by no span.

    A span's self time is its duration minus its direct children's.  A
    child of the same layer moves time from the parent's self time to
    its own, so re-entry into a layer never counts twice.
    """
    own = [0.0] * n_layers
    covered = 0.0
    for i in range(len(starts)):
        duration = ends[i] - starts[i]
        own[layers[i]] += duration
        parent = parents[i]
        if parent >= 0:
            own[layers[parent]] -= duration
        else:
            covered += duration
    return own, wall_s - covered
