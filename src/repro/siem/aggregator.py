"""The central SIEM aggregator: dedup, correlate, merge.

Intake is *at-least-once*: a worker that was killed and resumed from
its shard checkpoint re-streams every event the restored deployment
already contained, and the end-of-run stream-file sweep re-reads
whole shards.  The aggregator makes the pipeline *exactly-once* at the
output: events collapse on their content key ``(site, kind, seq)``
(see :mod:`repro.siem.events`), so the merged canonical log is a pure
function of the fleet's simulated behaviour — byte-identical across
worker counts, scheduling orders, and kill/resume cycles.

On top of the merged stream sits the **cross-site correlation** pass:
alerts carrying the same attack signature are chained into episodes
(consecutive alerts at most ``window_s`` apart); an episode seen at
``>= k_sites`` distinct sites becomes one fleet-level alert.  Running
correlation over the *sorted, deduplicated* merge — never the live
arrival order — keeps it trivially deterministic.
"""

from __future__ import annotations

import gzip
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.siem.events import (
    BATCH_TYPE,
    BATCH_VERSION,
    WORKER_DONE_TYPE,
    canonical_event_line,
    event_dedup_key,
    event_sort_key,
    make_event,
    validate_batch,
)
from repro.siem.rollup import FleetRollup


@dataclass(frozen=True)
class FleetAlert:
    """One cross-site correlated incident."""

    attack: str
    t_first: float
    t_last: float
    sites: Tuple[str, ...]
    alerts: int

    def to_event(self, seq: int) -> Dict[str, Any]:
        return make_event(
            site="fleet",
            kind="fleet-alert",
            t=self.t_first,
            seq=seq,
            body={
                "attack": self.attack,
                "t_first": self.t_first,
                "t_last": self.t_last,
                "sites": list(self.sites),
                "alerts": self.alerts,
            },
        )

    def summary(self) -> str:
        return (
            f"FLEET ALERT {self.attack}: {len(self.sites)} sites "
            f"({', '.join(self.sites[:5])}{'…' if len(self.sites) > 5 else ''}) "
            f"t={self.t_first:.2f}..{self.t_last:.2f}s, {self.alerts} site alerts"
        )


def correlate_alerts(
    events: List[Dict[str, Any]], k_sites: int, window_s: float
) -> List[FleetAlert]:
    """Chain same-signature alerts into episodes; keep the fleet-wide ones.

    ``events`` must already be canonically sorted.  Alerts of one attack
    signature belong to the same episode while consecutive alerts are at
    most ``window_s`` apart; an episode spanning ``>= k_sites`` distinct
    sites yields one :class:`FleetAlert`.
    """
    by_attack: Dict[str, List[Tuple[float, str]]] = {}
    for event in events:
        if event["kind"] != "alert":
            continue
        attack = event.get("body", {}).get("attack", "?")
        by_attack.setdefault(attack, []).append((event["t"], event["site"]))

    fleet_alerts: List[FleetAlert] = []
    for attack in sorted(by_attack):
        hits = sorted(by_attack[attack])
        episodes: List[List[Tuple[float, str]]] = [[hits[0]]]
        for hit in hits[1:]:
            if hit[0] - episodes[-1][-1][0] > window_s:
                episodes.append([hit])
            else:
                episodes[-1].append(hit)
        for episode in episodes:
            sites = tuple(sorted({site for _, site in episode}))
            if len(sites) >= k_sites:
                fleet_alerts.append(
                    FleetAlert(
                        attack=attack,
                        t_first=episode[0][0],
                        t_last=episode[-1][0],
                        sites=sites,
                        alerts=len(episode),
                    )
                )
    fleet_alerts.sort(key=lambda alert: (alert.attack, alert.t_first))
    return fleet_alerts


@dataclass
class AggregatorStats:
    """Everything the intake observed about the transport."""

    batches: int = 0
    events_seen: int = 0
    duplicates_dropped: int = 0
    schema_errors: int = 0
    partial_lines_skipped: int = 0
    workers_done: int = 0
    workers: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    batch_latencies_ms: List[float] = field(default_factory=list)

    def worker_row(self, worker: int) -> Dict[str, Any]:
        return self.workers.setdefault(
            worker,
            {
                "worker": worker,
                "batches": 0,
                "events": 0,
                "sites_done": 0,
                "last_site": None,
                "rss_kb": None,
                "queue_depth": None,
                "done": False,
            },
        )


class SiemAggregator:
    """Content-keyed, site-qualified dedup + windowed correlation + merge.

    :param k_sites: minimum distinct sites sharing an attack signature
        within one episode for a fleet-level alert.
    :param window_s: maximum simulated-seconds gap chaining two alerts
        into the same episode.
    """

    def __init__(
        self,
        k_sites: int = 3,
        window_s: float = 30.0,
        rollup: Optional[FleetRollup] = None,
    ) -> None:
        self.k_sites = k_sites
        self.window_s = window_s
        self.rollup = rollup if rollup is not None else FleetRollup()
        self.stats = AggregatorStats()
        self._events: Dict[Tuple[str, str, int], Dict[str, Any]] = {}
        self._merged: Optional[List[Dict[str, Any]]] = None
        self._fleet_alerts: Optional[List[FleetAlert]] = None

    # -- intake --------------------------------------------------------------

    def ingest_batch(
        self,
        batch: Dict[str, Any],
        backlog: Optional[int] = None,
        record_latency: bool = True,
    ) -> None:
        """Validate and absorb one transport record (batch or done)."""
        if self._merged is not None:
            raise RuntimeError("aggregator already finalized")
        batch = validate_batch(batch)
        worker = batch.get("worker", -1)
        row = self.stats.worker_row(worker)
        meta = batch.get("meta", {})
        if batch["type"] == WORKER_DONE_TYPE:
            row["done"] = True
            row["sites_done"] = max(
                row["sites_done"], batch.get("sites") or 0
            )
            self.stats.workers_done += 1
            return
        self.stats.batches += 1
        row["batches"] += 1
        if batch.get("site") is not None:
            row["last_site"] = batch["site"]
        if meta.get("sites_done") is not None:
            # max(): the durability sweep replays old batches whose
            # stale progress must not regress the live count.
            row["sites_done"] = max(row["sites_done"], meta["sites_done"])
        latency_ms = None
        sent = meta.get("wall", {}).get("sent") if record_latency else None
        if sent is not None:
            latency_ms = max(0.0, (time.time() - sent) * 1000.0)
            self.stats.batch_latencies_ms.append(latency_ms)
        self.rollup.record_batch(worker, latency_ms=latency_ms, backlog=backlog)
        rss_kb = meta.get("wall", {}).get("rss_kb")
        if rss_kb is not None:
            row["rss_kb"] = rss_kb
        if meta.get("queue_depth") is not None:
            row["queue_depth"] = meta["queue_depth"]
        if batch.get("site") is not None and (
            rss_kb is not None or meta.get("queue_depth") is not None
        ):
            self.rollup.record_worker_sample(
                worker, batch["site"], rss_kb, meta.get("queue_depth")
            )
        for event in batch["events"]:
            self._ingest_event(event, row)

    def _ingest_event(self, event: Dict[str, Any], row: Dict[str, Any]) -> None:
        self.stats.events_seen += 1
        key = event_dedup_key(event)
        if key in self._events:
            self.stats.duplicates_dropped += 1
            self.rollup.record_duplicate(event["site"])
            return
        self._events[key] = event
        row["events"] += 1
        self.rollup.record_event(event)

    def ingest_stream(self, path, worker: Optional[int] = None) -> int:
        """Sweep one worker's NDJSON stream file (the durability pass).

        Tolerates a trailing partial line (mid-write tail) — skipped and
        counted; a malformed line anywhere else raises.  Dedup makes the
        sweep idempotent with everything already taken off the queue.
        Returns the number of batch records ingested.
        """
        from repro.obs.export import read_jsonl

        numbered, partials = read_jsonl(path)
        self.stats.partial_lines_skipped += partials
        ingested = 0
        for _line_number, record in numbered:
            if record.get("type") not in (BATCH_TYPE, WORKER_DONE_TYPE):
                self.stats.schema_errors += 1
                continue
            if record.get("type") == WORKER_DONE_TYPE:
                continue  # liveness bookkeeping happened on the queue side
            # A swept batch's send time is stale by the whole run; keep
            # the latency histogram to live (queue) intake only.
            self.ingest_batch(record, record_latency=False)
            ingested += 1
        if worker is not None:
            self.rollup.record_partial_lines(worker, partials)
        return ingested

    # -- merge ---------------------------------------------------------------

    def finalize(self) -> List[Dict[str, Any]]:
        """Sort, correlate, freeze.  Idempotent; blocks further intake."""
        if self._merged is None:
            self._merged = sorted(self._events.values(), key=event_sort_key)
            self._fleet_alerts = correlate_alerts(
                self._merged, self.k_sites, self.window_s
            )
            for alert in self._fleet_alerts:
                self.rollup.record_fleet_alert(alert.attack)
        return self._merged

    @property
    def fleet_alerts(self) -> List[FleetAlert]:
        self.finalize()
        return list(self._fleet_alerts or [])

    def merged_events(self) -> List[Dict[str, Any]]:
        """Site events plus trailing fleet alerts, canonically ordered."""
        merged = list(self.finalize())
        merged.extend(
            alert.to_event(seq)
            for seq, alert in enumerate(self._fleet_alerts or [])
        )
        return merged

    def canonical_lines(self) -> List[str]:
        """The merged log's byte-deterministic identity."""
        return [canonical_event_line(event) for event in self.merged_events()]

    @property
    def total_packets(self) -> int:
        """Simulated packets across the fleet (from site-done events)."""
        return sum(
            event.get("body", {}).get("packets", 0)
            for event in self._events.values()
            if event["kind"] == "site-done"
        )

    @property
    def sites_done(self) -> int:
        return sum(
            1 for event in self._events.values() if event["kind"] == "site-done"
        )

    # -- bulk export ---------------------------------------------------------

    def write_merged(self, path) -> Path:
        """Bulk-export the merged log as versioned (gzip-able) NDJSON.

        First line is a deterministic ``siem-meta`` record, then every
        merged event in canonical order — the shape a downstream
        Elasticsearch-style bulk pusher would consume.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        merged = self.merged_events()
        meta = {
            "v": BATCH_VERSION,
            "type": "siem-meta",
            "events": len(merged),
            "sites_done": self.sites_done,
            "fleet_alerts": len(self._fleet_alerts or []),
            "k_sites": self.k_sites,
            "window_s": self.window_s,
            "total_packets": self.total_packets,
        }
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(meta, separators=(",", ":"), sort_keys=True))
            handle.write("\n")
            for event in merged:
                handle.write(canonical_event_line(event))
                handle.write("\n")
        return path

    def write_canonical(self, path) -> Path:
        """Write the canonical merged log (the ``cmp`` surface for CI)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(self.canonical_lines()) + "\n", encoding="utf-8")
        return path
