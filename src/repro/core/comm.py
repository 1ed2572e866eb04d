"""The Communication System.

"Interfaces with the external world.  Specialized subcomponents take
care of interacting with traffic on different protocols.  The
Communication System overhears all traffic on all the supported
interfaces" (§IV-B1).

In this reproduction an *interface* is anything that can push
:class:`~repro.sim.capture.Capture` objects: a live
:class:`~repro.sim.node.SnifferNode`, a
:class:`~repro.trace.replay.TraceReplayer`, or a test feeding captures
by hand.  Each capture is stamped with the interface name and counted
per medium, then handed to the registered intake (the Data Store and,
through it, the modules).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.packets.base import Medium
from repro.sim.capture import Capture
from repro.sim.node import SnifferNode
from repro.util.naming import callable_name

CaptureListener = Callable[[Capture], None]
IntakeErrorListener = Callable[[CaptureListener, Capture, BaseException], None]


class CommunicationSystem:
    """Capture intake with per-medium accounting and medium filtering.

    :param supported_mediums: mediums this Kalis node has hardware for;
        captures on other mediums are dropped (the way Snort, lacking an
        802.15.4 radio, simply never sees ZigBee traffic).

    Intake is failure-isolated: a raising consumer does not block the
    remaining consumers from seeing the capture.  Failures are recorded
    in :attr:`intake_errors` and forwarded to the error listener (the
    Kalis facade routes them to the bus dead-letter pipeline) — they are
    never silently swallowed.
    """

    def __init__(self, supported_mediums: Optional[List[Medium]] = None) -> None:
        self.supported_mediums = (
            frozenset(supported_mediums)
            if supported_mediums is not None
            else frozenset(Medium)
        )
        self._listeners: List[CaptureListener] = []
        self._error_listener: Optional[IntakeErrorListener] = None
        self.captures_by_medium: Dict[Medium, int] = {}
        self.dropped_unsupported = 0
        self.intake_errors: List[Tuple[str, BaseException]] = []
        self._telemetry = None
        self._telemetry_node: Optional[str] = None

    def bind_telemetry(self, telemetry, node: str) -> None:
        """Attach a :class:`repro.obs.Telemetry` for per-medium intake metrics."""
        self._telemetry = telemetry
        self._telemetry_node = node
        if telemetry is not None:
            self._captured = telemetry.metrics.keyed(
                "counter", "captures_total", "medium", node=node
            )

    def add_listener(self, listener: CaptureListener) -> None:
        """Register a consumer of captures (typically the Data Store)."""
        self._listeners.append(listener)

    def set_error_listener(self, listener: IntakeErrorListener) -> None:
        """Route intake failures somewhere observable (bus dead-letter)."""
        self._error_listener = listener

    def attach_sniffer(self, sniffer: SnifferNode) -> None:
        """Wire a live promiscuous sniffer into this Communication System."""
        sniffer.add_listener(self.on_capture)

    def on_capture(self, capture: Capture) -> None:
        """Intake one capture from any interface."""
        telemetry = self._telemetry
        medium = capture.medium
        if medium not in self.supported_mediums:
            self.dropped_unsupported += 1
            if telemetry is not None:
                telemetry.metrics.counter("captures_dropped_total").inc(
                    medium=medium, node=self._telemetry_node
                )
            return
        self.captures_by_medium[medium] = self.captures_by_medium.get(medium, 0) + 1
        if telemetry is not None:
            self._captured[medium].inc()
        for listener in self._listeners:
            try:
                listener(capture)
            except Exception as error:
                name = callable_name(listener)
                self.intake_errors.append((name, error))
                if self._error_listener is not None:
                    self._error_listener(listener, capture, error)

    @property
    def total_captures(self) -> int:
        return sum(self.captures_by_medium.values())
