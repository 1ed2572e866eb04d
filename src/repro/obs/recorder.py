"""The flight recorder: bounded per-node rings of recent spans/events.

Keeping every span of a long run would make telemetry the largest
consumer of memory in the process; the flight recorder instead keeps a
bounded ring of the most recent entries per node — enough context to
explain a failure — and snapshots ("dumps") the rings when something
goes wrong.  The Kalis facade triggers dumps automatically on
``module.quarantine`` and ``bus.deadletter``, so the post-mortem for
exactly the failures the supervisor absorbs is captured at the moment
they happen, not reconstructed afterwards.

Finished spans are stored as :class:`~repro.obs.telemetry.Span`
objects and rendered to dicts only on read (:meth:`FlightRecorder.ring`,
:meth:`FlightRecorder.dump`), so the recording cost does not grow with
the number of fields a span exports.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

#: Ring key for entries not attributable to a node.
GLOBAL_RING = "_global"


class FlightRecorder:
    """Per-node bounded rings plus the dumps taken from them.

    :param capacity: entries kept per node ring.
    :param max_dumps: automatic-dump budget; once exhausted, further
        triggers are counted (``dumps_suppressed``) but not stored, so a
        failure storm cannot turn the recorder into a memory leak.
    """

    def __init__(self, capacity: int = 512, max_dumps: int = 32) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_dumps < 1:
            raise ValueError(f"max_dumps must be >= 1, got {max_dumps}")
        self.capacity = capacity
        self.max_dumps = max_dumps
        self._rings: Dict[str, Deque[Any]] = {}
        self.dumps: List[Dict[str, Any]] = []
        self.dumps_suppressed = 0
        self.entries_recorded = 0

    def record(self, node: Optional[str], entry: Any) -> None:
        """Append one event dict, or one finished span, to a node's ring."""
        key = node if node is not None else GLOBAL_RING
        ring = self._rings.get(key)
        if ring is None:
            ring = self._rings[key] = deque(maxlen=self.capacity)
        ring.append(entry)
        self.entries_recorded += 1

    def ring(self, node: Optional[str]) -> List[Dict[str, Any]]:
        """One node's ring as dicts, oldest first."""
        return [
            entry if isinstance(entry, dict) else entry.to_dict()
            for entry in self._rings.get(node if node is not None else GLOBAL_RING, ())
        ]

    def nodes(self) -> List[str]:
        return sorted(self._rings)

    def dump(
        self,
        reason: str,
        sim_time: float,
        node: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Snapshot the rings into a post-mortem record.

        :param node: restrict the snapshot to one node's ring; None
            snapshots every ring.
        :returns: the stored dump, or None when the budget is exhausted.
        """
        if len(self.dumps) >= self.max_dumps:
            self.dumps_suppressed += 1
            return None
        if node is not None:
            rings = {node: self.ring(node)}
        else:
            rings = {name: self.ring(name) for name in self.nodes()}
        dump: Dict[str, Any] = {
            "type": "flight-dump",
            "reason": reason,
            "t": sim_time,
            "attrs": dict(attrs) if attrs else {},
            "rings": rings,
        }
        self.dumps.append(dump)
        return dump
