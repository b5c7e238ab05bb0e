"""Structured operations log: a bounded ring of typed op events.

The metrics registry aggregates (*how much*, in total) and the tracer
attributes (*which region*, per call tree); neither answers the
operational question a live repository raises: *what happened in the
last few seconds, and did it go wrong?*  This module keeps a bounded
ring buffer of :class:`OpEvent` records — one per instrumented
operation, with its kind (``document.insert``, ``journal.append``,
``repository.xpath`` ...), the document and scheme it touched, its
duration, node counts, outcome (``ok``/``error``/``rollback``), error
type, and the trace span it correlates with when tracing is on.

Design constraints, matching :mod:`repro.observability.tracing`:

* **Disabled logging must cost nothing.**  Hot paths open one
  :func:`instrumented` scope per operation; while the tracer *and* the
  op-log are both off it returns one shared no-op scope — no event
  object, no span, no timestamps.  When either sink is on, the
  same scope opens the op event and the trace span under one ``kind``,
  links them, and feeds both from one :meth:`set` call, so a hot path
  never wires the two sinks by hand.
* **Bounded memory.**  The ring holds the most recent ``capacity``
  events; the oldest are evicted and only counted
  (``ops.evicted``), never resurrected.  Monotonic counters
  (``ops.recorded``, ``ops.errors``, ``ops.rollbacks``, ``ops.slow``)
  survive eviction, so rates stay truthful even when the ring wraps.
* **Slow-op capture.**  Events at or above ``slow_threshold_s`` keep
  their full attribute dict (and are flagged ``slow``); fast, healthy
  events drop their attributes — outliers carry the evidence, the
  steady state stays small.
* **Thread-safe.**  One :class:`threading.RLock` guards the ring; the
  exporter thread (``repro serve-metrics``) reads while workload
  threads record.

Per-kind duration histograms are published to the metrics registry as
``ops.<kind>.ms``, which is what feeds the per-kind p50/p95/p99 columns
of ``repro top`` and the OpenMetrics exposition.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.observability.metrics import (
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.observability.tracing import get_tracer

__all__ = [
    "OpEvent",
    "OpLog",
    "get_oplog",
    "configure_oplog",
    "instrumented",
    "iso_ts",
    "oplog_enabled",
    "render_oplog",
]


def iso_ts(epoch: float) -> str:
    """Render an epoch-seconds float as ISO-8601 UTC (second precision).

    Human-facing renderers (``render_oplog``, ``repro top``) use this;
    JSON payloads keep the numeric ``ts`` for machine consumers.
    """
    from datetime import datetime, timezone

    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")

#: Outcomes an operation can report.
OUTCOMES = ("ok", "error", "rollback")


@dataclass
class OpEvent:
    """One completed operation, as kept in the ring.

    ``attributes`` is populated only for slow or non-``ok`` events (see
    the module docstring); ``span_id``/``trace_id`` are set when a
    recording trace span was open around the operation.
    """

    seq: int
    ts: float
    kind: str
    duration_s: float
    outcome: str = "ok"
    document: Optional[str] = None
    scheme: Optional[str] = None
    nodes: int = 0
    error_type: Optional[str] = None
    span_id: Optional[int] = None
    trace_id: Optional[int] = None
    slow: bool = False
    attributes: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record (the ``repro health --json`` wire format)."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "duration_s": self.duration_s,
            "outcome": self.outcome,
            "document": self.document,
            "scheme": self.scheme,
            "nodes": self.nodes,
            "error_type": self.error_type,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "slow": self.slow,
            "attributes": self.attributes,
        }


class _NoopOpScope:
    """Shared do-nothing scope returned while the op-log is disabled
    (and by :func:`instrumented` while the tracer is off too).

    Mirrors ``_NoopSpan`` in the tracing module: one instance serves
    every disabled call site, and entering/exiting/attributing it are
    empty ``__slots__`` methods.
    """

    __slots__ = ()

    #: Tracing-only extras (per-scheme histograms) gate on this.
    tracing = False

    def __enter__(self) -> "_NoopOpScope":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        return False

    def set(self, **attributes: Any) -> None:
        pass

    def link(self, span: Any) -> None:
        pass


_NOOP_OP = _NoopOpScope()


class _OpScope:
    """Context manager timing one operation and recording its event.

    The exception path records ``outcome="error"`` with the exception's
    type name and re-raises; :meth:`set` attaches node counts and
    attributes; :meth:`link` correlates the trace span opened for the
    same operation.
    """

    __slots__ = ("_oplog", "kind", "document", "scheme", "nodes",
                 "outcome", "attributes", "_started", "_span")

    def __init__(self, oplog: "OpLog", kind: str,
                 document: Optional[str] = None,
                 scheme: Optional[str] = None):
        self._oplog = oplog
        self.kind = kind
        self.document = document
        self.scheme = scheme
        self.nodes = 0
        self.outcome = "ok"
        self.attributes: Optional[Dict[str, Any]] = None
        self._started = 0.0
        self._span: Any = None

    def __enter__(self) -> "_OpScope":
        self._started = time.perf_counter()
        return self

    def set(self, nodes: Optional[int] = None,
            outcome: Optional[str] = None,
            **attributes: Any) -> None:
        """Attach node counts, a non-default outcome, and attributes."""
        if nodes is not None:
            self.nodes = nodes
        if outcome is not None:
            self.outcome = outcome
        if attributes:
            if self.attributes is None:
                self.attributes = attributes
            else:
                self.attributes.update(attributes)

    def link(self, span: Any) -> None:
        """Correlate the trace span recording the same operation."""
        self._span = span

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        duration = time.perf_counter() - self._started
        outcome = self.outcome
        error_type = None
        if exc_type is not None:
            outcome = "error"
            error_type = exc_type.__name__
        self._oplog.record(
            self.kind, duration,
            document=self.document, scheme=self.scheme,
            nodes=self.nodes, outcome=outcome, error_type=error_type,
            span=self._span, attributes=self.attributes,
        )
        return False


class OpLog:
    """Bounded, thread-safe ring of :class:`OpEvent` records.

    ``enabled`` is the single switch instrumented wrappers check (the
    global instance starts disabled, like the tracer).  ``capacity``
    bounds the ring; ``slow_threshold_s`` flags outliers and preserves
    their attributes.
    """

    DEFAULT_CAPACITY = 4096
    DEFAULT_SLOW_THRESHOLD_S = 0.100

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 slow_threshold_s: float = DEFAULT_SLOW_THRESHOLD_S,
                 enabled: bool = False,
                 registry: Optional[MetricsRegistry] = None):
        if capacity < 1:
            raise ValueError("op-log capacity must be >= 1")
        self.enabled = enabled
        self.capacity = capacity
        self.slow_threshold_s = slow_threshold_s
        self._registry = registry if registry is not None else get_registry()
        self._events: List[OpEvent] = []
        self._lock = threading.RLock()
        self._seq = 0
        self._kind_histograms: Dict[str, Histogram] = {}
        self._recorded = self._registry.counter("ops.recorded")
        self._evicted = self._registry.counter("ops.evicted")
        self._errors = self._registry.counter("ops.errors")
        self._rollbacks = self._registry.counter("ops.rollbacks")
        self._slow = self._registry.counter("ops.slow")

    # -- recording --------------------------------------------------------

    def op(self, kind: str, document: Optional[str] = None,
           scheme: Optional[str] = None):
        """A context manager recording one operation; no-op when disabled::

            with oplog.op("cli.import", document=name) as op:
                count = load(path)
                op.set(nodes=count)

        Hot paths use :func:`instrumented` instead, which opens the
        matching trace span too.
        """
        if not self.enabled:
            return _NOOP_OP
        return _OpScope(self, kind, document=document, scheme=scheme)

    def record(self, kind: str, duration_s: float = 0.0, *,
               document: Optional[str] = None,
               scheme: Optional[str] = None,
               nodes: int = 0,
               outcome: str = "ok",
               error_type: Optional[str] = None,
               span: Any = None,
               attributes: Optional[Dict[str, Any]] = None,
               ) -> Optional[OpEvent]:
        """Append one completed operation to the ring.

        Returns the recorded event, or ``None`` when the log is
        disabled.  Attributes are kept only when the event is slow or
        its outcome is not ``ok``.
        """
        if not self.enabled:
            return None
        if outcome not in OUTCOMES:
            raise ValueError(
                f"op outcome must be one of {OUTCOMES}, got {outcome!r}")
        slow = duration_s >= self.slow_threshold_s
        keep_attributes = attributes if (slow or outcome != "ok") else None
        with self._lock:
            self._seq += 1
            event = OpEvent(
                seq=self._seq, ts=time.time(), kind=kind,
                duration_s=duration_s, outcome=outcome,
                document=document, scheme=scheme, nodes=nodes,
                error_type=error_type,
                span_id=getattr(span, "span_id", None),
                trace_id=getattr(span, "trace_id", None),
                slow=slow,
                attributes=dict(keep_attributes or {}),
            )
            self._events.append(event)
            self._trim()
            histogram = self._kind_histograms.get(kind)
            if histogram is None:
                histogram = self._registry.histogram(f"ops.{kind}.ms")
                self._kind_histograms[kind] = histogram
        self._recorded.increment()
        histogram.observe(duration_s * 1e3)
        if outcome == "error":
            self._errors.increment()
        elif outcome == "rollback":
            self._rollbacks.increment()
        if slow:
            self._slow.increment()
        return event

    def _trim(self) -> None:
        """Evict (and count) the oldest events past ``capacity``."""
        with self._lock:
            excess = len(self._events) - self.capacity
            if excess > 0:
                del self._events[:excess]
                self._evicted.increment(excess)

    # -- reading ----------------------------------------------------------

    def events(self, kind: Optional[str] = None,
               limit: Optional[int] = None) -> List[OpEvent]:
        """Buffered events, oldest first; optionally filtered/limited
        (``limit`` keeps the most recent ones)."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [event for event in events if event.kind == kind]
        if limit is not None and len(events) > limit:
            events = events[-limit:]
        return events

    def kinds(self) -> List[str]:
        """Distinct op kinds currently in the ring, sorted."""
        with self._lock:
            return sorted({event.kind for event in self._events})

    def rates(self, window_s: float = 10.0,
              now: Optional[float] = None) -> Dict[str, float]:
        """Per-kind operations/second over the trailing window.

        Computed from ring timestamps, so a wrapped ring underestimates
        only when the window outlives the buffer — the monotonic
        ``ops.recorded`` counter covers the total.
        """
        if now is None:
            now = time.time()
        cutoff = now - window_s
        counts: Dict[str, int] = {}
        with self._lock:
            for event in reversed(self._events):
                if event.ts < cutoff:
                    break
                counts[event.kind] = counts.get(event.kind, 0) + 1
        return {kind: count / window_s for kind, count in counts.items()}

    def tail(self, outcome: Optional[str] = None,
             limit: int = 10) -> List[OpEvent]:
        """The most recent events (optionally one outcome), oldest first."""
        with self._lock:
            events = list(self._events)
        if outcome is not None:
            events = [event for event in events if event.outcome == outcome]
        return events[-limit:]

    def clear(self) -> None:
        """Drop every buffered event (counters stay monotonic)."""
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[OpEvent]:
        return iter(self.events())

    # -- serialisation ----------------------------------------------------

    def to_payload(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """JSON-ready dump of the log's configuration and recent events."""
        return {
            "schema_version": 1,
            "enabled": self.enabled,
            "capacity": self.capacity,
            "slow_threshold_s": self.slow_threshold_s,
            "recorded_total": self._recorded.value,
            "evicted_total": self._evicted.value,
            "events": [event.to_dict() for event in self.events(limit=limit)],
        }


#: The process-wide op-log every instrumented path consults; disabled by
#: default so the hot paths stay at no-op cost.
_GLOBAL_OPLOG = OpLog(enabled=False)


def get_oplog() -> OpLog:
    """The process-wide :class:`OpLog` singleton."""
    return _GLOBAL_OPLOG


def configure_oplog(enabled: bool = True,
                    capacity: Optional[int] = None,
                    slow_threshold_s: Optional[float] = None) -> OpLog:
    """(Re)configure the global op-log in one call; returns it.

    Shrinking ``capacity`` evicts the oldest buffered events, exactly
    like recording past the cap would.
    """
    oplog = _GLOBAL_OPLOG
    if capacity is not None:
        if capacity < 1:
            raise ValueError("op-log capacity must be >= 1")
        with oplog._lock:
            oplog.capacity = capacity
            oplog._trim()
    if slow_threshold_s is not None:
        oplog.slow_threshold_s = slow_threshold_s
    oplog.enabled = enabled
    return oplog


class oplog_enabled:
    """Scope the global op-log on, restoring prior state on exit::

        with oplog_enabled(slow_threshold_s=0.5) as oplog:
            run_workload()
        errors = oplog.tail(outcome="error")

    Clears the ring on entry (pass ``clear=False`` to append to an
    existing buffer); buffered events stay readable after exit so tests
    can assert on them.
    """

    def __init__(self, capacity: Optional[int] = None,
                 slow_threshold_s: Optional[float] = None,
                 clear: bool = True):
        self._capacity = capacity
        self._slow_threshold_s = slow_threshold_s
        self._clear = clear
        self._saved = None

    def __enter__(self) -> OpLog:
        oplog = _GLOBAL_OPLOG
        self._saved = (oplog.enabled, oplog.capacity, oplog.slow_threshold_s)
        if self._clear:
            oplog.clear()
        configure_oplog(enabled=True, capacity=self._capacity,
                        slow_threshold_s=self._slow_threshold_s)
        return oplog

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        enabled, capacity, slow_threshold_s = self._saved
        configure_oplog(enabled=enabled, capacity=capacity,
                        slow_threshold_s=slow_threshold_s)


# ----------------------------------------------------------------------
# The instrumentation point
# ----------------------------------------------------------------------

#: The process-wide tracer (a singleton that is reconfigured, never
#: replaced), bound once so the disabled check is two attribute reads.
_TRACER = get_tracer()


class _InstrumentedScope:
    """One operation as both sinks see it: an op event and a span.

    Either half may be its sink's shared no-op.  The op event opens
    first and closes last, so its duration covers the span's; the span
    is linked to the event on entry.  An exception marks the span with
    the error, records ``outcome="error"`` with the exception type on
    the event, and propagates.
    """

    __slots__ = ("tracing", "_op", "_span_scope", "_span")

    def __init__(self, oplog: OpLog, kind: str, document: Optional[str],
                 scheme: Optional[str], attributes: Dict[str, Any]):
        self.tracing = _TRACER.enabled
        self._op = oplog.op(kind, document=document, scheme=scheme)
        self._op.set(**attributes)
        fields = {}
        if document is not None:
            fields["document"] = document
        if scheme is not None:
            fields["scheme"] = scheme
        self._span_scope = _TRACER.span(kind, **fields, **attributes)
        self._span: Any = None

    def __enter__(self) -> "_InstrumentedScope":
        self._op.__enter__()
        self._span = self._span_scope.__enter__()
        self._op.link(self._span)
        return self

    def set(self, nodes: Optional[int] = None,
            outcome: Optional[str] = None, **attributes: Any) -> None:
        """Report node counts and attributes to both sinks; ``outcome``
        (``"rollback"``) is the op event's alone."""
        self._op.set(nodes=nodes, outcome=outcome, **attributes)
        if nodes is not None:
            self._span.set_attribute("nodes", nodes)
        for key, value in attributes.items():
            self._span.set_attribute(key, value)

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self._span_scope.__exit__(exc_type, exc_value, traceback)
        self._op.__exit__(exc_type, exc_value, traceback)
        return False


def instrumented(kind: str, /, document: Optional[str] = None,
                 scheme: Optional[str] = None, **attributes: Any):
    """The one instrumentation point for a timed hot-path operation::

        with instrumented("document.delete", scheme=name) as scope:
            result = remove(node)
            scope.set(nodes=result.nodes_detached)

    Opens the trace span and the op event under the same ``kind``
    (``document``/``scheme`` become event fields and span attributes;
    ``attributes`` go to both).  While the tracer and the op-log are
    both off this returns one shared no-op scope.  ``scope.tracing``
    tells tracing-only extras, such as the per-scheme ``label_bits``
    histogram, whether the tracer is on.
    """
    oplog = _GLOBAL_OPLOG
    if not oplog.enabled and not _TRACER.enabled:
        return _NOOP_OP
    return _InstrumentedScope(oplog, kind, document, scheme, attributes)


def render_oplog(oplog: Optional[OpLog] = None, limit: int = 20) -> str:
    """Plain-text table of the most recent op events (CLI output)."""
    if oplog is None:
        oplog = _GLOBAL_OPLOG
    events = oplog.events(limit=limit)
    if not events:
        return "(no operations recorded)"
    lines = [f"{'time (UTC)':20s} {'seq':>6s} {'kind':28s} {'ms':>9s} "
             f"{'nodes':>6s} {'outcome':8s} {'scheme':10s} detail"]
    for event in events:
        detail = event.error_type or ""
        if event.slow:
            detail = (detail + " slow").strip()
        if event.document:
            detail = (detail + f" doc={event.document}").strip()
        lines.append(
            f"{iso_ts(event.ts):20s} "
            f"{event.seq:6d} {event.kind:28s} {event.duration_s * 1e3:9.3f} "
            f"{event.nodes:6d} {event.outcome:8s} "
            f"{(event.scheme or '-'):10s} {detail}"
        )
    return "\n".join(lines)
