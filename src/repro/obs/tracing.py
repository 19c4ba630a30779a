"""Hierarchical span-tree tracing for the simulator.

Replaced the flat ``span_begin``/``span_end`` pairs of the original
:class:`repro.sim.trace.Tracer` (removed after their deprecation cycle)
with first-class :class:`Span` objects:

* ``with tracer.span("ucx", "tag_send", size=n):`` — synchronous spans that
  nest lexically (the tracer keeps an active-span stack, so a span opened
  inside another becomes its child);
* ``sp = tracer.span(...)`` + ``sp.end()`` — spans whose lifetime crosses
  simulator events (a send that completes when the FIN arrives);
* ``with tracer.under(sp):`` — re-activate an open span as the ambient
  parent inside a *later* scheduled callback, so work the simulator runs
  on behalf of that operation still nests under it.

Determinism contract (enforced by ``tests/test_obs_golden.py``): tracing
code never calls ``sim.schedule``, never changes a modeled delay, and the
per-event counters are incremented identically whether tracing is enabled
or not.  With tracing disabled every ``tracer.span(...)`` returns the
shared :data:`NULL_SPAN` — no allocation, no bookkeeping — keeping the hot
path near-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import DEFAULT_CAPACITY as TELEMETRY_CAPACITY
from repro.obs.timeline import Telemetry

__all__ = [
    "EndSpan",
    "NULL_SPAN",
    "Span",
    "TraceRecord",
    "Tracer",
]


@dataclass
class TraceRecord:
    """One flat trace event (the ``emit`` API, kept for point events)."""

    time: float
    category: str
    event: str
    detail: Dict = field(default_factory=dict)


class _NullSpan:
    """Shared sink for all span operations while tracing is disabled."""

    __slots__ = ()

    sid = -1
    parent_sid = -1
    category = ""
    name = ""
    start = 0.0
    end_time = None
    attrs: Dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def end(self, **attrs) -> None:
        return None

    def close_at(self, time: float, **attrs) -> None:
        return None

    def annotate(self, **attrs) -> None:
        return None

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "<NULL_SPAN>"


NULL_SPAN = _NullSpan()


class Span:
    """One node of the span tree: ``[start, end_time]`` in simulated seconds,
    linked to its parent by ``parent_sid``."""

    __slots__ = ("_tracer", "sid", "parent_sid", "category", "name",
                 "start", "end_time", "attrs")

    def __init__(self, tracer: "Tracer", sid: int, parent_sid: int,
                 category: str, name: str, start: float, attrs: Dict) -> None:
        self._tracer = tracer
        self.sid = sid
        self.parent_sid = parent_sid
        self.category = category
        self.name = name
        self.start = start
        self.end_time: Optional[float] = None
        self.attrs = attrs

    # -- context-manager form (synchronous nesting) ------------------------------
    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        self.end()

    # -- explicit form (lifetime crosses simulator events) ------------------------
    def end(self, **attrs) -> None:
        """Close the span at the current simulated time (idempotent)."""
        if self.end_time is not None:
            return
        if attrs:
            self.attrs.update(attrs)
        tracer = self._tracer
        self.end_time = tracer.sim.now
        tracer._time_acc[self.category] = (
            tracer._time_acc.get(self.category, 0.0) + self.end_time - self.start
        )

    def close_at(self, time: float, **attrs) -> None:
        """Close the span at an explicit simulated time (idempotent).

        Observation-only: lets instrumentation record a modeled interval
        whose endpoint is already known (e.g. the charged tag-match cost)
        without scheduling a simulator event to call ``end()`` there —
        scheduling from tracing code would break the determinism contract.
        """
        if self.end_time is not None:
            return
        if attrs:
            self.attrs.update(attrs)
        if time < self.start:
            time = self.start
        tracer = self._tracer
        self.end_time = time
        tracer._time_acc[self.category] = (
            tracer._time_acc.get(self.category, 0.0) + time - self.start
        )

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        return (self.end_time if self.end_time is not None else self.start) - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.category}/{self.name} sid={self.sid} "
                f"parent={self.parent_sid} [{self.start}, {self.end_time}])")


class EndSpan:
    """Continuation that ends ``span`` and then calls ``fn(*args)``.

    Accepts and ignores whatever it is called with, so it serves both as an
    event callback and as a scheduled callback.  The trace-on branches of
    the message path build one instead of defining a closure: a function
    that defines a nested function allocates its cells on *every* call,
    traced or not.
    """

    __slots__ = ("span", "fn", "args")

    def __init__(self, span, fn=None, *args) -> None:
        self.span = span
        self.fn = fn
        self.args = args

    def __call__(self, *_ignored) -> None:
        self.span.end()
        if self.fn is not None:
            self.fn(*self.args)


class _Under:
    """``with tracer.under(span):`` — push an existing open span as the
    ambient parent without re-entering or ending it."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, *exc) -> None:
        stack = self._tracer._stack
        if stack and stack[-1] is self._span:
            stack.pop()


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc) -> None:
        return None


_NULL_CTX = _NullContext()


class Tracer:
    """Span-tree tracer + metrics registry for one simulated machine.

    Cheap to keep around disabled: ``count`` is a dict increment, ``span``
    returns :data:`NULL_SPAN`, ``charge``/``emit`` return immediately.
    """

    def __init__(self, sim, enabled: bool = False, flight: bool = False,
                 telemetry: bool = False,
                 telemetry_capacity: int = TELEMETRY_CAPACITY) -> None:
        self.sim = sim
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.flight = FlightRecorder(sim, enabled=flight)
        self.timeline = Telemetry(sim, enabled=telemetry,
                                  capacity=telemetry_capacity)
        self.records: List[TraceRecord] = []
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        # link waits are attributed to the ambient span's category
        self.timeline.ambient_stack = self._stack
        self._next_sid = 0
        # category -> accumulated span time
        self._time_acc: Dict[str, float] = {}

    # -- span tree ----------------------------------------------------------------
    def span(self, category: str, name: Optional[str] = None,
             parent: Optional[Span] = None, **attrs) -> Span:
        """Open a span at ``sim.now``.  Use as a context manager for
        synchronous nesting, or keep the handle and call ``.end()`` when the
        operation completes in a later simulator event.

        ``parent`` overrides the ambient active-span stack (used to link a
        receive-side span to the posted request it completes)."""
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            stack = self._stack
            parent_sid = stack[-1].sid if stack else -1
        else:
            parent_sid = parent.sid
        sid = self._next_sid
        self._next_sid = sid + 1
        sp = Span(self, sid, parent_sid, category, name or category,
                  self.sim.now, attrs)
        self.spans.append(sp)
        return sp

    def under(self, span: Optional[Span]):
        """Context manager making ``span`` the ambient parent (no-op for
        ``None``/``NULL_SPAN`` or when tracing is disabled)."""
        if not self.enabled or span is None or span is NULL_SPAN:
            return _NULL_CTX
        return _Under(self, span)

    @property
    def active_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def span_children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_sid == span.sid]

    def span_roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_sid == -1]

    # -- metrics shims (identical on/off so fingerprints cannot diverge) -----------
    def count(self, category: str, event: str, n: int = 1) -> None:
        self.metrics.inc(category, event, n)

    def charge(self, category: str, seconds: float) -> None:
        """Attribute modeled CPU time to a layer (enabled-only; simulated
        delays are computed before this call and never depend on it)."""
        if self.enabled:
            self.metrics.add_time(category, seconds)

    def observe(self, name: str, value: float, bounds=None) -> None:
        if self.enabled:
            if bounds is None:
                self.metrics.observe(name, value)
            else:
                self.metrics.observe(name, value, bounds)

    # -- flat point events (legacy emit API, still supported) ----------------------
    def emit(self, category: str, event: str, **detail) -> None:
        self.metrics.inc(category, event)
        if self.enabled:
            self.records.append(TraceRecord(self.sim.now, category, event, detail))

    @property
    def counters(self):
        return self.metrics.counters

    def filter(self, category: Optional[str] = None,
               event: Optional[str] = None) -> List[TraceRecord]:
        out = []
        for r in self.records:
            if category is not None and r.category != category:
                continue
            if event is not None and r.event != event:
                continue
            out.append(r)
        return out

    # -- span time accounting --------------------------------------------------------
    def time_in(self, category: str) -> float:
        """Total simulated time spent inside *ended* spans of ``category``
        (overlapping spans double-count, as the legacy API did)."""
        return self._time_acc.get(category, 0.0)

    # -- lifecycle ------------------------------------------------------------------------
    def reset(self) -> None:
        self.records.clear()
        self.spans.clear()
        self._stack.clear()
        self._next_sid = 0
        self._time_acc.clear()
        self.metrics.reset()
        self.flight.reset()
        self.timeline.reset()
