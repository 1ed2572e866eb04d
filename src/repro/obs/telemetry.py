"""The deterministic telemetry core: causal spans, events, context.

A :class:`Telemetry` instance is shared by every component of one run —
the simulator, each Kalis node, the collective-knowledge network — and
owns the three observability surfaces:

- **spans** — lightweight causal units keyed on *simulated* time with
  explicit parent links.  Because the whole pipeline dispatches
  synchronously, a per-instance span stack gives exact parentage:
  frame delivery → capture intake (``kalis.capture``, one span per
  capture) nest under one trace, events raised meanwhile (alerts,
  ``module.error``, supervisor transitions) are tagged with the
  enclosing span, and a :class:`~repro.core.collective.PeerLink`
  carries the trace id across the scheduling gap to the receiving
  node.  Per-module ``handle`` time is not a span: it lands in the
  ``module_handle_wall_us`` histogram.  Wall-clock durations
  (``perf_counter``) are measured alongside for profiling but exported
  only under ``"wall"`` keys and never read by any control-flow path,
  so same-seed runs stay byte-identical once those keys are stripped;
- **metrics** — the :class:`~repro.obs.metrics.MetricsRegistry`;
- **the flight recorder** — completed spans and events land in
  per-node rings (:class:`~repro.obs.recorder.FlightRecorder`) that
  dump on quarantine/dead-letter.  Spans are stored as objects and
  rendered to dicts only when a ring is read or dumped.

Components hold ``telemetry: Optional[Telemetry] = None`` and guard
every hook with a ``None`` check, so the disabled (default) cost is one
attribute load per hook site.  Per-capture hooks bind their metric
series once (``metrics.counter(name).labelled(**labels)``) and reuse the
handle, so the enabled cost carries no per-call label sort.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.util.clock import Clock


class Span:
    """One causal unit of pipeline work, keyed on sim time.

    Opened by :meth:`Telemetry.span` and used as a context manager:
    leaving the ``with`` block stops its wall-clock stopwatch and hands
    it to the flight recorder.
    """

    __slots__ = (
        "span_id",
        "trace_id",
        "parent_id",
        "name",
        "node",
        "t",
        "attrs",
        "wall_us",
        "_telemetry",
        "_wall_start",
    )

    def __init__(
        self,
        span_id: int,
        trace_id: int,
        parent_id: Optional[int],
        name: str,
        node: Optional[str],
        t: float,
        attrs: Dict[str, Any],
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.t = t
        self.attrs = attrs
        self.wall_us: Optional[float] = None
        self._telemetry = telemetry
        self._wall_start = perf_counter()

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_us = (perf_counter() - self._wall_start) * 1e6
        self._telemetry._finish(self)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "type": "span",
            "id": self.span_id,
            "trace": self.trace_id,
            "name": self.name,
            "t": self.t,
        }
        if self.parent_id is not None:
            data["parent"] = self.parent_id
        if self.node is not None:
            data["node"] = self.node
        if self.attrs:
            data["attrs"] = self.attrs
        if self.wall_us is not None:
            data["wall"] = {"us": round(self.wall_us, 3)}
        return data


class Telemetry:
    """Shared observability context for one run.

    :param clock: the run's sim clock; may be bound later
        (:meth:`bind_clock`) or left unset for trace replay, where hooks
        pass capture timestamps explicitly.
    :param ring_capacity: flight-recorder entries kept per node.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        ring_capacity: int = 512,
        max_dumps: int = 32,
    ) -> None:
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.recorder = FlightRecorder(capacity=ring_capacity, max_dumps=max_dumps)
        self._stack: List[Span] = []
        self._next_id = 1
        self.spans_finished = 0
        self.events_recorded = 0

    # -- time and identity ---------------------------------------------------

    def bind_clock(self, clock: Clock) -> None:
        """Attach the run's sim clock (idempotent; first bind wins)."""
        if self.clock is None:
            self.clock = clock

    @property
    def now(self) -> float:
        """Current simulated time (0.0 when no clock is bound)."""
        return self.clock.now if self.clock is not None else 0.0

    def new_trace(self) -> int:
        """Allocate a fresh trace id (e.g. one per transmitted frame)."""
        trace_id = self._next_id
        self._next_id += 1
        return trace_id

    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def current_trace_id(self) -> Optional[int]:
        return self._stack[-1].trace_id if self._stack else None

    # -- spans ---------------------------------------------------------------

    def span(
        self,
        name: str,
        node: Optional[str] = None,
        t: Optional[float] = None,
        trace_id: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; use as a context manager.

        Parentage comes from the span stack; ``trace_id`` overrides the
        inherited trace (used when a scheduled callback re-enters the
        pipeline carrying a trace across the event queue).  ``t`` pins
        the sim time explicitly (trace replay has no live clock).
        """
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else span_id
        span = Span(
            span_id,
            trace_id,
            parent.span_id if parent is not None else None,
            name,
            node if node is not None else (parent.node if parent else None),
            t if t is not None else self.now,
            attrs,
            self,
        )
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        # Pop to (and including) the span even if an exception skipped
        # inner __exit__ calls — the stack must never wedge.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self.spans_finished += 1
        self.recorder.record(span.node, span)

    # -- events --------------------------------------------------------------

    def event(
        self,
        name: str,
        node: Optional[str] = None,
        t: Optional[float] = None,
        **attrs: Any,
    ) -> Dict[str, Any]:
        """Record one point-in-time event into the flight-recorder ring."""
        current = self._stack[-1] if self._stack else None
        entry: Dict[str, Any] = {
            "type": "event",
            "name": name,
            "t": t if t is not None else self.now,
        }
        if current is not None:
            entry["trace"] = current.trace_id
            entry["span"] = current.span_id
        resolved_node = node if node is not None else (current.node if current else None)
        if resolved_node is not None:
            entry["node"] = resolved_node
        if attrs:
            entry["attrs"] = attrs
        self.events_recorded += 1
        self.recorder.record(resolved_node, entry)
        return entry

    # -- flight dumps --------------------------------------------------------

    def flight_dump(
        self, reason: str, node: Optional[str] = None, **attrs: Any
    ) -> Optional[Dict[str, Any]]:
        """Snapshot the recorder rings (quarantine / dead-letter hook)."""
        return self.recorder.dump(reason, sim_time=self.now, node=node, attrs=attrs)

    # -- export convenience --------------------------------------------------

    def export_jsonl(self, path) -> "Any":
        """Write the full telemetry export; see :mod:`repro.obs.export`."""
        from repro.obs.export import export_jsonl

        return export_jsonl(self, path)

    def prometheus_text(self) -> str:
        return self.metrics.prometheus_text()
