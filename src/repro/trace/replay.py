"""Replaying stored traces into capture listeners.

Two modes:

- **batch**: :class:`TraceReplayer` pushes every capture immediately,
  in time order — how offline analysis and most tests consume traces;
- **scheduled**: :class:`TraceStreamer` schedules each capture at its
  original timestamp on a simulator, so time-window logic (traffic
  statistics, rate detectors) behaves exactly as it did live.  It
  queues the trace in bounded chunks, keeping only one chunk of pending
  deliveries on the event queue at a time — the ingestion mode of the
  ``kalis-repro serve`` daemon, sized for arbitrarily long traces and
  safe to checkpoint mid-stream (every queued entry is a picklable
  record).

Either way the consumer receives plain captures; ground-truth labels
stay behind in the trace, preserving the paper's property that replay is
"transparent to the detection modules".
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.capture import Capture
from repro.trace.trace import Trace

CaptureListener = Callable[[Capture], None]


class _ScheduledCapture:
    """A queued capture hand-off (callable; keeps the queue picklable)."""

    __slots__ = ("player", "index")

    def __init__(self, player, index: int) -> None:
        self.player = player
        self.index = index

    def __call__(self) -> None:
        self.player._deliver(self.index)


class _ScheduleNextChunk:
    """Continuation that queues a streamer's next chunk (picklable)."""

    __slots__ = ("streamer",)

    def __init__(self, streamer: "TraceStreamer") -> None:
        self.streamer = streamer

    def __call__(self) -> None:
        self.streamer._schedule_chunk()


class TraceReplayer:
    """Feeds a trace's captures to a listener."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.replayed = 0

    def replay_batch(self, listener: CaptureListener) -> int:
        """Deliver every capture immediately, in time order."""
        for record in self.trace:
            listener(record.capture)
            self.replayed += 1
        return self.replayed


class TraceStreamer:
    """Incremental trace ingestion: bounded chunks of scheduled captures.

    A streamer schedules at most ``chunk_size`` deliveries ahead and
    re-arms itself from the queue — so the daemon can serve traces of
    any length at O(chunk) queue depth, and a checkpoint taken
    mid-stream carries exactly the streamer's position (``next_index``)
    plus the in-flight chunk.
    """

    def __init__(
        self, trace: Trace, listener: CaptureListener, chunk_size: int = 256
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.trace = trace
        self.listener = listener
        self.chunk_size = chunk_size
        self.time_offset = 0.0
        self.next_index = 0
        self.replayed = 0
        self._sim = None

    @property
    def remaining(self) -> int:
        """Captures not yet scheduled (pending chunks)."""
        return len(self.trace) - self.next_index

    @property
    def done(self) -> bool:
        """True once every capture has been delivered."""
        return self.replayed >= len(self.trace)

    def start(self, sim, time_offset: Optional[float] = None) -> int:
        """Begin streaming onto ``sim``; returns the total capture count.

        :param time_offset: shift applied to every timestamp; defaults
            to aligning the first capture with the simulator's current
            time.
        """
        if self._sim is not None:
            raise RuntimeError("streamer already started")
        self._sim = sim
        if len(self.trace) == 0:
            return 0
        self.time_offset = (
            time_offset
            if time_offset is not None
            else sim.clock.now - self.trace[0].timestamp
        )
        self._schedule_chunk()
        return len(self.trace)

    def end_time(self) -> float:
        """Sim time of the last capture (0.0 for an empty trace)."""
        if len(self.trace) == 0:
            return 0.0
        return self.trace[len(self.trace) - 1].timestamp + self.time_offset

    def _deliver(self, index: int) -> None:
        self.listener(self.trace[index].capture)
        self.replayed += 1

    def _schedule_chunk(self) -> None:
        sim = self._sim
        stop = min(self.next_index + self.chunk_size, len(self.trace))
        last_time = None
        for index in range(self.next_index, stop):
            last_time = self.trace[index].timestamp + self.time_offset
            sim.schedule_at(last_time, _ScheduledCapture(self, index))
        self.next_index = stop
        if stop < len(self.trace) and last_time is not None:
            # Re-arm after the chunk's last delivery (same timestamp,
            # later queue sequence) so queue depth stays O(chunk).
            sim.schedule_at(last_time, _ScheduleNextChunk(self))
