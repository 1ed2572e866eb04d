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
        telemetry=None,
        telemetry_node: Optional[str] = None,
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
        self._telemetry = telemetry
        self._telemetry_node = telemetry_node
        #: (added, evicted by count, evicted by age, window size) series
        #: bound into ``_telemetry`` on the first add; None until then.
        self._window_counters: Optional[tuple] = None

    def bind_telemetry(self, telemetry, node: Optional[str] = None) -> None:
        """Attach a :class:`repro.obs.Telemetry` for window metrics."""
        self._telemetry = telemetry
        self._telemetry_node = node
        self._window_counters = None

    def rebuild_derived_state(self) -> None:
        """Recompute the timestamp ring from the capture window.

        Restore hook for snapshot/migration: ``_stamps`` is a pure
        function of ``_window``, so a restored store rebuilds it rather
        than trusting a possibly-stale serialized copy.  The bound
        telemetry series are dropped and re-bound on the next add.
        """
        self._stamps = [capture.timestamp for capture in self._window]
        self._window_counters = None

    def _bind_window_counters(self) -> tuple:
        metrics = self._telemetry.metrics
        labels = {} if self._telemetry_node is None else {"node": self._telemetry_node}
        evicted = metrics.counter("datastore_evicted_total")
        return (
            metrics.counter("datastore_added_total").labelled(**labels),
            evicted.labelled(reason="count", **labels),
            evicted.labelled(reason="age", **labels),
            metrics.gauge("datastore_window_size").labelled(**labels),
        )

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
            counters = self._window_counters
            if counters is None:
                counters = self._window_counters = self._bind_window_counters()
            added, by_count, by_age, window_size = counters
            added.inc()
            if evicted_count:
                by_count.inc(evicted_count)
            if evicted_age:
                by_age.inc(evicted_age)
            window_size.set(len(self))

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
