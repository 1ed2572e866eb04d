"""One fleet worker: run a shard of sites, stream batches, survive kills.

A worker owns a **shard** — a deterministic subset of the fleet's site
specs — and a shard directory holding three kinds of durable state:

- ``manifest.json`` — which sites of the shard are already complete
  (written atomically after each site), so a respawned worker resumes
  the shard instead of rerunning it;
- ``<site_id>/`` — the in-progress site's
  :class:`~repro.ckpt.format.SnapshotStore` (removed once the site is
  done: only the site currently crossing the kill window needs one);
- ``stream.ndjson`` — every batch the worker ever emitted, one line
  per batch, flushed before the batch is offered to the queue, and
  fsynced at each site's last batch, before the manifest records the
  site.  This is the at-least-once durability backstop: whatever the
  bounded queue loses to a kill, the aggregator's end-of-run sweep
  recovers, and content-keyed dedup collapses the overlap.

Emission rides the checkpoint cadence: the
:class:`~repro.ckpt.service.CheckpointService` ``on_checkpoint`` hook
streams the alerts that became visible during the chunk, so an event
is only ever emitted once its site state is durable — a resumed worker
re-emits from the restored log rather than losing a tail.

The **kill drill** models a hard worker death: a scheduled
:class:`~repro.faults.ProcessKill` escapes the site's event loop, the
service snapshots at the kill instant, and the worker process calls
``os._exit(3)`` — no cleanup, no final batches — leaving the parent to
respawn it against the same shard directory.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.ckpt.format import SnapshotStore, atomic_write
from repro.ckpt.service import KILLED, CheckpointService
from repro.faults import FaultPlan, ProcessKill
from repro.fleet.sites import (
    SiteSpec,
    alert_events,
    build_site,
    completion_events,
)
from repro.metrics.resources import process_rss_kb
from repro.siem.events import make_batch, make_worker_done

#: Exit code of a worker that died to the kill drill.
KILL_EXIT_CODE = 3

MANIFEST_NAME = "manifest.json"
STREAM_NAME = "stream.ndjson"


@dataclass(frozen=True)
class KillSpec:
    """The drill: die at sim-time ``at`` inside site ``site_index``."""

    site_index: int
    at: float


@dataclass
class WorkerOptions:
    """Picklable knobs a worker runs under."""

    checkpoint_interval: float = 30.0
    snapshot_keep: int = 2
    kill: Optional[KillSpec] = None


@dataclass
class ShardProgress:
    """The manifest's content: sites this shard has finished."""

    done: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def load(cls, shard_dir: Path) -> "ShardProgress":
        path = shard_dir / MANIFEST_NAME
        if not path.is_file():
            return cls()
        data = json.loads(path.read_text(encoding="utf-8"))
        return cls(done=dict(data.get("done", {})))

    def save(self, shard_dir: Path) -> None:
        """Durably replace the manifest (see :func:`atomic_write`)."""
        manifest = json.dumps({"v": 1, "done": self.done}, sort_keys=True)
        atomic_write(shard_dir / MANIFEST_NAME, [manifest.encode("utf-8")])


class ShardRunner:
    """Drives one shard: per-site checkpointed runs plus batch emission.

    :param emit: callable receiving each transport record (batch or
        worker-done) after it has been made durable in the stream file.
    """

    def __init__(
        self,
        worker_index: int,
        specs: List[SiteSpec],
        shard_dir,
        emit: Callable[[Dict[str, Any]], None],
        options: Optional[WorkerOptions] = None,
        queue_depth: Optional[Callable[[], Optional[int]]] = None,
    ) -> None:
        self.worker_index = worker_index
        self.specs = list(specs)
        self.shard_dir = Path(shard_dir)
        self.emit = emit
        self.options = options or WorkerOptions()
        self.queue_depth = queue_depth
        self.progress = ShardProgress()
        self.batch_seq = 0
        self.batches_emitted = 0

    # -- emission ------------------------------------------------------------

    def _meta(self) -> Dict[str, Any]:
        depth = self.queue_depth() if self.queue_depth is not None else None
        meta: Dict[str, Any] = {
            "sites_done": len(self.progress.done),
            "wall": {"sent": time.time(), "rss_kb": process_rss_kb()},
        }
        if depth is not None:
            meta["queue_depth"] = depth
        return meta

    def _emit_batch(self, spec: SiteSpec, events: List[Dict[str, Any]]) -> None:
        if not events:
            return
        batch = make_batch(
            worker=self.worker_index,
            site=spec.site_id,
            batch_seq=self.batch_seq,
            events=events,
            meta=self._meta(),
        )
        self.batch_seq += 1
        self.batches_emitted += 1
        self.emit(batch)

    # -- per-site run --------------------------------------------------------

    def _run_site(self, spec: SiteSpec) -> Dict[str, Any]:
        """Run (or resume) one site to completion; returns its summary.

        Exits the process with :data:`KILL_EXIT_CODE` if the drill
        fires — durable state (snapshot + stream file) is already on
        disk by then.
        """
        options = self.options
        site_dir = self.shard_dir / spec.site_id
        store = SnapshotStore(site_dir, keep=options.snapshot_keep)
        emitted = {"alerts": 0}

        def on_checkpoint(deployment) -> None:
            fresh = alert_events(spec, deployment, emitted["alerts"])
            emitted["alerts"] += len(fresh)
            self._emit_batch(spec, fresh)

        def builder():
            deployment = build_site(spec)
            kill = options.kill
            if (
                kill is not None
                and 0 <= kill.site_index < len(self.specs)
                and self.specs[kill.site_index] == spec
            ):
                FaultPlan(
                    seed=0, events=(ProcessKill(at=kill.at),)
                ).apply(deployment.sim, kalis_nodes=deployment.kalis_nodes)
            return deployment

        service = CheckpointService.resume_or_build(
            store,
            builder,
            checkpoint_interval=options.checkpoint_interval,
            snapshot_on_kill=True,
            on_checkpoint=on_checkpoint,
        )
        # A restored deployment re-streams everything it already
        # contains (at-least-once); the aggregator's dedup collapses it.
        self._emit_batch(spec, alert_events(spec, service.deployment, 0))
        emitted["alerts"] = len(service.deployment.kalis_nodes[0].alerts)

        status = service.run()
        if status == KILLED:
            os._exit(KILL_EXIT_CODE)

        deployment = service.deployment
        tail = alert_events(spec, deployment, emitted["alerts"])
        self._emit_batch(spec, tail + completion_events(spec, deployment))
        summary = {
            "packets": deployment.sim.deliveries,
            "alerts": len(deployment.kalis_nodes[0].alerts),
            "profile": spec.profile,
        }
        shutil.rmtree(site_dir, ignore_errors=True)
        return summary

    # -- shard run -----------------------------------------------------------

    def run(self) -> int:
        """Run every site of the shard not already in the manifest."""
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        self.progress = ShardProgress.load(self.shard_dir)
        ran = 0
        for spec in self.specs:
            if spec.site_id in self.progress.done:
                continue
            summary = self._run_site(spec)
            self.progress.done[spec.site_id] = summary
            self.progress.save(self.shard_dir)
            ran += 1
        self.emit(
            make_worker_done(
                worker=self.worker_index,
                sites=len(self.progress.done),
                batches=self.batches_emitted,
                meta=self._meta(),
            )
        )
        return ran


def stream_path(shard_dir) -> Path:
    """The shard's durable batch log (one NDJSON batch per line)."""
    return Path(shard_dir) / STREAM_NAME


def worker_main(
    worker_index: int,
    specs: List[SiteSpec],
    shard_dir,
    queue,
    options: Optional[WorkerOptions] = None,
) -> None:
    """Process target: run the shard, emitting to stream file then queue.

    The stream write is flushed before the (bounded, blocking) queue
    put, so the durable log is always at least as complete as what the
    aggregator saw — a kill between the two costs nothing.
    """
    from repro.siem.events import batch_line

    shard = Path(shard_dir)
    shard.mkdir(parents=True, exist_ok=True)
    with open(stream_path(shard), "a", encoding="utf-8") as stream:

        def emit(record: Dict[str, Any]) -> None:
            stream.write(batch_line(record))
            stream.write("\n")
            stream.flush()
            events = record.get("events")
            if events and events[-1]["kind"] == "site-done":
                # A site's last batch precedes the manifest marking the
                # site done: sync it first, or an OS crash could keep
                # the mark and lose the batches, which the resumed
                # worker then never re-emits.
                os.fsync(stream.fileno())
            queue.put(record)

        def queue_depth() -> Optional[int]:
            try:
                return queue.qsize()
            except NotImplementedError:  # macOS
                return None

        ShardRunner(
            worker_index,
            specs,
            shard,
            emit,
            options=options,
            queue_depth=queue_depth,
        ).run()
