"""Per-layer host-time tracing for gridbench, from outside the program.

The program has no internal tracing yet, so :class:`Tracer` wraps the
public methods of each layer's classes (and a few module-level
renderers) with timing closures.  Each call is aggregated on the fly
through a stack of child-time accumulators into a call count, an
inclusive time and a self time per (layer, method); a cell makes
millions of calls, so no per-call record is kept.  Only coarse spans —
run, sweep, cell, store operation and report — are kept in memory, and
:meth:`Tracer.write` dumps them with the layer table at the end.

Install the wrappers before any ``System`` is built: constructors bind
some methods once, and a bound original would escape the count.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The coherence controllers' entry points.
CONTROLLER_ENTRIES = ("load", "store", "drain_barrier", "on_barrier",
                      "finalize")

#: (layer, module, classes, methods); ``None`` wraps every public method
#: a class (or any subclass) defines.
CLASS_LAYERS = (
    ("engine", "repro.engine.events", ("EventQueue", "WheelEventQueue"),
     ("run",)),
    ("coherence.mesi", "repro.coherence.mesi", ("MesiSystem",),
     CONTROLLER_ENTRIES),
    ("coherence.denovo", "repro.coherence.denovo", ("DenovoSystem",),
     CONTROLLER_ENTRIES),
    ("bloom", "repro.bloom.filters",
     ("BloomFilter", "SliceFilterBank", "L1FilterShadow"), None),
    ("cache", "repro.cache.sa_cache", ("SetAssocCache",), None),
    ("waste", "repro.waste.profiler",
     ("CacheLevelProfiler", "MemoryProfiler"), None),
    ("network", "repro.network.mesh", ("Mesh",), None),
    ("network", "repro.network.traffic", ("TrafficLedger",), None),
    ("dram", "repro.dram.model", ("DramChannel",), None),
    ("runner", "repro.runner.store", ("ResultStore",), ("save", "load")),
)

#: (layer, module, function) for the module-level renderers.
FUNCTION_LAYERS = (
    ("analysis", "repro.analysis.report", "generate"),
    ("energy", "repro.analysis.energy", "report_section"),
)

#: Coarse spans: (module, owner class or None, attribute, span name).
SPAN_POINTS = (
    ("repro.core.system", "System", "run", "cell"),
    ("repro.runner.store", "ResultStore", "save", "store.save"),
    ("repro.runner.store", "ResultStore", "load", "store.load"),
    ("repro.analysis.report", None, "generate", "report"),
)

#: Methods whose non-``None`` results are counted as hits.
HIT_METHODS = {("cache", "lookup")}

Span = Tuple[int, Optional[int], str, float, float]


class MethodStats:
    """Aggregated calls into one wrapped method."""

    __slots__ = ("calls", "incl", "self_time", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0          # outermost calls of the layer only
        self.self_time = 0.0
        self.hits = 0


class LayerTotals:
    """One layer's totals, overall and per method name."""

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.method_calls: Dict[str, int] = {}
        self.method_self: Dict[str, float] = {}
        self.method_hits: Dict[str, int] = {}

    def calls_of(self, *methods: str) -> int:
        return sum(self.method_calls.get(m, 0) for m in methods)


def _public_functions(cls: type, names: Optional[Sequence[str]],
                      inherited: bool):
    """(name, function) pairs to wrap on ``cls``: the named methods
    (resolved through the MRO when ``inherited``, else only those the
    class itself defines), or every public plain function the class
    itself defines."""
    if names is not None:
        for name in names:
            fn = (getattr(cls, name, None) if inherited
                  else vars(cls).get(name))
            if callable(fn):
                yield name, fn
        return
    for name, fn in vars(cls).items():
        if not name.startswith("_") and callable(fn) and not isinstance(
                fn, (staticmethod, classmethod, type)):
            yield name, fn


def _with_subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


class Tracer:
    """Wraps the program's layers; aggregates per-layer counts and times.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a synthetic clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[Tuple[str, str], MethodStats] = {}
        self.spans: List[Span] = []
        self._child: List[float] = [0.0]    # child-time accumulators
        self._depth: Dict[str, List[int]] = {}
        self._open: List[int] = []           # open span ids
        self._patched: List[Tuple[object, str, bool, object]] = []

    # -- wrapping ------------------------------------------------------
    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` timed and counted as ``layer``'s method ``name``."""
        stats = self.stats.setdefault((layer, name), MethodStats())
        depth = self._depth.setdefault(layer, [0])
        child = self._child
        clock = self.clock

        if (layer, name) in HIT_METHODS:
            def wrapper(*args, **kwargs):
                child.append(0.0)
                depth[0] += 1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    if result is not None:
                        stats.hits += 1
                    return result
                finally:
                    elapsed = clock() - start
                    depth[0] -= 1
                    stats.calls += 1
                    stats.self_time += elapsed - child.pop()
                    if not depth[0]:
                        stats.incl += elapsed
                    child[-1] += elapsed
        else:
            def wrapper(*args, **kwargs):
                child.append(0.0)
                depth[0] += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    depth[0] -= 1
                    stats.calls += 1
                    stats.self_time += elapsed - child.pop()
                    if not depth[0]:
                        stats.incl += elapsed
                    child[-1] += elapsed
        wrapper.__wrapped__ = fn
        return wrapper

    def spanned(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as a coarse span named ``name``."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record a coarse span (name, start, end, parent)."""
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append((span_id, parent, name, self.clock(), 0.0))
        self._open.append(span_id)
        try:
            yield span_id
        finally:
            self._open.pop()
            sid, par, nm, start, _ = self.spans[span_id]
            self.spans[span_id] = (sid, par, nm, start, self.clock())

    def _patch(self, owner: object, attr: str, value: Callable) -> None:
        own = attr in vars(owner)
        self._patched.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer listed in :data:`CLASS_LAYERS`,
        :data:`FUNCTION_LAYERS` and :data:`SPAN_POINTS`.

        Raises ``LookupError`` when a listed module, class or function
        is missing, so a renamed layer fails loudly instead of reading 0.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for layer, module_name, class_names, methods in CLASS_LAYERS:
                module = importlib.import_module(module_name)
                for class_name in class_names:
                    cls = getattr(module, class_name, None)
                    if cls is None:
                        raise LookupError(f"{module_name}.{class_name}")
                    for klass in _with_subclasses(cls):
                        for name, fn in list(_public_functions(
                                klass, methods, inherited=klass is cls)):
                            self._patch(klass, name,
                                        self.wrap(layer, name, fn))
            for layer, module_name, func_name in FUNCTION_LAYERS:
                module = importlib.import_module(module_name)
                fn = getattr(module, func_name, None)
                if fn is None:
                    raise LookupError(f"{module_name}.{func_name}")
                self._patch(module, func_name,
                            self.wrap(layer, func_name, fn))
            for module_name, class_name, attr, span_name in SPAN_POINTS:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                self._patch(owner, attr,
                            self.spanned(span_name, getattr(owner, attr)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, own, original = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------
    def reset(self) -> None:
        """Zero the aggregates (spans are kept)."""
        for stats in self.stats.values():
            stats.calls = stats.hits = 0
            stats.incl = stats.self_time = 0.0

    def layers(self) -> Dict[str, LayerTotals]:
        totals: Dict[str, LayerTotals] = {}
        for (layer, name), stats in self.stats.items():
            t = totals.setdefault(layer, LayerTotals())
            t.calls += stats.calls
            t.incl += stats.incl
            t.self_time += stats.self_time
            t.method_calls[name] = t.method_calls.get(name, 0) + stats.calls
            t.method_self[name] = (t.method_self.get(name, 0.0)
                                   + stats.self_time)
            t.method_hits[name] = t.method_hits.get(name, 0) + stats.hits
        return totals

    def write(self, path, extra: Optional[dict] = None) -> None:
        """Write the spans, the layer table and ``extra`` as JSON."""
        doc = {
            "spans": [{"id": s, "parent": p, "name": n, "start": a, "end": b}
                      for s, p, n, a, b in self.spans],
            "layers": {layer: {"calls": t.calls, "incl_s": t.incl,
                               "self_s": t.self_time,
                               "method_calls": t.method_calls}
                       for layer, t in sorted(self.layers().items())},
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def span_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Self seconds per span name: each span's duration minus the part
    of its interval its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, float] = {}
    for sid, _parent, name, start, end in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out
