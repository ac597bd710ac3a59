"""The per-layer ledger: spans recorded around the program's entry points.

The benchmark measures each layer from outside the program.  A
:class:`Ledger` replaces a layer's public function -- every module
binding of it, since ``static_schedule`` for example is bound in
``repro.schedule``, ``repro.schedule.list_scheduler``,
``repro.analysis.multicluster`` and ``repro`` itself -- or a class
method with a wrapper that records one span per call: layer name,
start, end, parent span and whether the call raised.  Spans stay in
memory until the run ends; :meth:`Ledger.write` dumps them as gzipped
JSON lines.

A layer's *self time* is its spans' duration minus the part of that
interval covered by child spans (spans opened on the same thread while
it was open), so ``kernel.solve`` on a general topology separates from
its ``multihop.solve`` child and the self times of all layers add up
to the time covered by the outermost spans -- nothing is counted
twice.  A function bound under several names gets one wrapper, so a
call through any binding records exactly one span.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Layer", "Ledger", "REPRO_LAYERS", "self_times"]


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point.

    ``module``/``attr`` name where the original is found: a function
    (``attr`` a plain name) or a class method (``attr`` as
    ``Class.method``).  ``counters`` optionally maps the call's
    ``(args, result)`` to extra counts added to the ledger (for
    example, simulated events per replay).
    """

    name: str
    module: str
    attr: str
    counters: Optional[Callable[[tuple, Any], Dict[str, float]]] = None


def _sim_events(args: tuple, result: Any) -> Dict[str, float]:
    context = args[0]
    return {"sim.events": context.last_replay.get("events", 0)}


#: Every layer the benchmark attributes time to, outermost first.
REPRO_LAYERS: Tuple[Layer, ...] = (
    Layer("session.evaluate", "repro.api.session", "Session.evaluate"),
    Layer(
        "multicluster.loop", "repro.analysis.multicluster",
        "multi_cluster_scheduling",
    ),
    Layer("synth.generate", "repro.synth.workload", "generate_workload"),
    Layer(
        "schedule.static", "repro.schedule.list_scheduler",
        "static_schedule",
    ),
    Layer("kernel.compile", "repro.analysis.kernel", "AnalysisContext.__init__"),
    Layer("kernel.update", "repro.analysis.kernel", "AnalysisContext.update"),
    Layer("kernel.solve", "repro.analysis.kernel", "AnalysisContext.solve"),
    Layer(
        "multihop.solve", "repro.analysis.multihop",
        "multihop_response_time_analysis",
    ),
    Layer("sim.compile", "repro.sim.kernel", "SimContext.__init__"),
    Layer("sim.replay", "repro.sim.kernel", "SimContext.run", _sim_events),
    Layer("conformance.classify", "repro.conformance.classify", "classify_run"),
    Layer("store.get", "repro.store.store", "ResultStore.get"),
    Layer("store.put", "repro.store.store", "ResultStore.put"),
    Layer(
        "serve.journal_append", "repro.serve.supervisor",
        "UnitJournal.record_unit",
    ),
    Layer(
        "serve.journal_append", "repro.serve.supervisor",
        "UnitJournal.record_done",
    ),
)


@dataclass
class _Span:
    sid: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0
    failed: bool = False
    children: List[int] = field(default_factory=list)


class Ledger:
    """Span recorder for one traced run (see module docstring)."""

    def __init__(self, layers: Tuple[Layer, ...] = REPRO_LAYERS) -> None:
        self.layers = layers
        self.spans: List[_Span] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []
        self._originals: Dict[int, Any] = {}

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> _Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            span = _Span(
                sid=len(self.spans), name=name,
                parent=parent.sid if parent is not None else None,
                thread=threading.get_ident(), start=time.perf_counter(),
            )
            self.spans.append(span)
        if parent is not None:
            parent.children.append(span.sid)
        stack.append(span)
        return span

    def _close(self, span: _Span, failed: bool) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        self._local.stack.pop()

    def _count(self, extra: Dict[str, float]) -> None:
        with self._lock:
            for key, value in extra.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def _wrapper(self, layer: Layer, original: Callable) -> Callable:
        ledger = self

        def traced(*args, **kwargs):
            span = ledger._open(layer.name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                ledger._close(span, True)
                raise
            ledger._close(span, False)
            if layer.counters is not None:
                ledger._count(layer.counters(args, result))
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", layer.name)
        traced.__doc__ = getattr(original, "__doc__", None)
        self._originals[id(traced)] = original
        return traced

    # -- installation -----------------------------------------------------------

    def install(self) -> "Ledger":
        """Wrap every layer; :meth:`uninstall` puts the originals back."""
        import importlib

        for layer in self.layers:
            module = importlib.import_module(layer.module)
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".", 1)
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                setattr(owner, meth, self._wrapper(layer, original))
                self._restore.append((owner, meth, original))
                continue
            original = getattr(module, layer.attr)
            wrapped = self._wrapper(layer, original)
            # Every module binding of the function, under any name.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")
                ):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        self._restore.append((mod, name, original))
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        # Modules imported while installed bound the wrapper itself.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for name, value in list(vars(mod).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(mod, name, original)
        self._originals.clear()

    def __enter__(self) -> "Ledger":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ------------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``self_s``, ``total_s`` (inclusive), ``calls`` and
        ``failures``."""
        own = self_times(self.spans)
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(
                span.name,
                {"self_s": 0.0, "total_s": 0.0, "calls": 0, "failures": 0},
            )
            row["self_s"] += own[span.sid]
            row["total_s"] += span.end - span.start
            row["calls"] += 1
            row["failures"] += int(span.failed)
        return out

    def write(self, path) -> None:
        """Dump the spans as gzipped JSON lines (name, start, end, parent)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.sid, "name": span.name, "parent": span.parent,
                    "thread": span.thread, "start": span.start,
                    "end": span.end, "failed": span.failed,
                }) + "\n")


def self_times(spans: List[_Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(
            (spans[c] for c in span.children), key=lambda s: s.start
        ):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.sid] = (span.end - span.start) - covered
    return out
