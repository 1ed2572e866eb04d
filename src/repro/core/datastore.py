"""The Data Store.

Per the paper (§IV-B2): listens for new-capture events from the
Communication System, keeps "a sliding window of configurable size of
the most recent packets" in memory, optionally logs all traffic to
disk, and can replay logged traffic "transparently to the detection
modules".

The window is bounded both by count and by age so rate computations
over a time horizon stay cheap and memory stays predictable; the RAM
proxy in :mod:`repro.metrics.resources` reads
:meth:`DataStore.approximate_bytes`.
"""

from __future__ import annotations

from bisect import bisect_left
from pathlib import Path
from typing import Callable, List, Optional

from repro.sim.capture import Capture
from repro.trace.record import TraceRecord
from repro.trace.trace import Trace

#: Bus topic on which fresh captures are re-published to modules.
CAPTURE_TOPIC = "capture"


class DataStore:
    """Sliding-window history of recent traffic with optional disk log.

    :param window_size: maximum captures kept in memory.
    :param window_age: maximum age (seconds) kept, relative to the most
        recent capture; None disables age-based eviction.
    :param log_to: path for the persistent traffic log, or None.
    """

    def __init__(
        self,
        window_size: int = 2000,
        window_age: Optional[float] = 60.0,
        log_to: Optional[str] = None,
    ) -> None:
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        if window_age is not None and window_age <= 0:
            raise ValueError(f"window_age must be positive, got {window_age}")
        self.window_size = window_size
        self.window_age = window_age
        # Ring layout: a list plus a start offset, compacted lazily.
        # Eviction advances the offset (O(1)); a parallel timestamp
        # array keeps recent()/age-eviction at O(log W) via bisect
        # (captures arrive in nondecreasing sim-time order).
        self._window: List[Capture] = []
        self._stamps: List[float] = []
        self._start = 0
        self._log_path = Path(log_to) if log_to else None
        self._log_trace: Optional[Trace] = Trace() if log_to else None
        self.total_captures = 0
        self._telemetry = None
        self._telemetry_node: Optional[str] = None

    def bind_telemetry(self, telemetry, node: str) -> None:
        """Attach a :class:`repro.obs.Telemetry` for window metrics."""
        self._telemetry = telemetry
        self._telemetry_node = node
        if telemetry is not None:
            metrics = telemetry.metrics
            self._added = metrics.keyed("counter", "datastore_added_total", "node")
            self._evicted = metrics.keyed("counter", "datastore_evicted_total", "reason", node=node)
            self._window_size = metrics.keyed("gauge", "datastore_window_size", "node")

    def rebuild_derived_state(self) -> None:
        """Recompute the timestamp ring from the capture window.

        Restore hook for snapshot/migration: ``_stamps`` is a pure
        function of ``_window``, so a restored store rebuilds it rather
        than trusting a possibly-stale serialized copy.
        """
        self._stamps = [capture.timestamp for capture in self._window]

    # -- intake ------------------------------------------------------------------

    def add(self, capture: Capture) -> None:
        """Record one capture, evicting anything outside the window."""
        self._window.append(capture)
        self._stamps.append(capture.timestamp)
        self.total_captures += 1
        evicted_count = 0
        evicted_age = 0
        if len(self._window) - self._start > self.window_size:
            self._start += 1
            evicted_count += 1
        if self.window_age is not None:
            horizon = capture.timestamp - self.window_age
            fresh_start = bisect_left(self._stamps, horizon, lo=self._start)
            evicted_age = fresh_start - self._start
            self._start = fresh_start
        if self._start > 1024 and self._start * 2 >= len(self._window):
            del self._window[: self._start]
            del self._stamps[: self._start]
            self._start = 0
        if self._log_trace is not None:
            self._log_trace.append(TraceRecord(capture=capture))
        if self._telemetry is not None:
            node = self._telemetry_node
            self._added[node].inc()
            if evicted_count:
                self._evicted["count"].inc(evicted_count)
            if evicted_age:
                self._evicted["age"].inc(evicted_age)
            self._window_size[node].set(len(self))

    # -- queries -------------------------------------------------------------------

    def window(self) -> List[Capture]:
        """The current in-memory window, oldest first."""
        return self._window[self._start :]

    def recent(self, seconds: float) -> List[Capture]:
        """Captures from the last ``seconds`` of the window (O(log W))."""
        if self._start >= len(self._window):
            return []
        horizon = self._stamps[-1] - seconds
        first = bisect_left(self._stamps, horizon, lo=self._start)
        return self._window[first:]

    def latest_timestamp(self) -> Optional[float]:
        if self._start >= len(self._window):
            return None
        return self._stamps[-1]

    def __len__(self) -> int:
        return len(self._window) - self._start

    # -- disk log and replay ----------------------------------------------------------

    def flush_log(self) -> Optional[Path]:
        """Write the accumulated traffic log to disk, if configured."""
        if self._log_trace is None or self._log_path is None:
            return None
        self._log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log_trace.save(self._log_path)
        return self._log_path

    @staticmethod
    def replay_log(path, listener: Callable[[Capture], None]) -> int:
        """Replay a logged trace into a listener (forensic analysis)."""
        trace = Trace.load(path)
        for record in trace:
            listener(record.capture)
        return len(trace)

    # -- memory accounting --------------------------------------------------------------

    def approximate_bytes(self) -> int:
        """Rough footprint of the in-memory window (packet sizes + overhead)."""
        return sum(
            capture.packet.size_bytes + 64
            for capture in self._window[self._start :]
        )
