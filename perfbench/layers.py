"""The per-layer split: which public functions are wrapped, and the table.

:func:`install` wraps each layer's entry points on a :class:`Tracer`;
:func:`table` turns one traced pass into the per-layer metrics listed
in :data:`METRICS` (the ``per_layer`` list of ``BENCHMARK.json``).
Every workload reports every metric; a layer the workload never calls
reads 0.

Naming: ``.calls`` counts wrapped calls, ``.s`` is their summed wall
time and ``.self_s`` that time minus the wrapped calls made inside
them.  ``sim.medium.link_budget.s`` is self time, because the RNG block
it calls has its own metric (``util.rng.sample_block.s``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from tracer import ModuleView, Tracer

from repro.core.kalis import DEFAULT_DETECTION_MODULES, DEFAULT_SENSING_MODULES

#: Every module the default knowledge-driven node registers.
MODULE_NAMES = DEFAULT_SENSING_MODULES + DEFAULT_DETECTION_MODULES

_KALIS: List[Tuple[str, str]] = [
    ("core.comm.captures", "count"),
    ("core.comm.on_capture.self_s", "s"),
    ("core.datastore.add.calls", "count"),
    ("core.datastore.add.s", "s"),
    ("core.manager.on_capture.self_s", "s"),
    ("core.manager.routed_per_capture", "ratio"),
    ("core.manager.reevaluate.calls", "count"),
    ("core.manager.reevaluate.self_s", "s"),
    ("core.modules.required.calls", "count"),
    ("core.manager.activation_useful_ratio", "ratio"),
    ("core.modules.handle.s", "s"),
] + [(f"core.modules.{name}.handle_s", "s") for name in MODULE_NAMES] + [
    ("core.knowledge.put.calls", "count"),
    ("core.knowledge.put.self_s", "s"),
    ("eventbus.publish.calls", "count"),
    ("eventbus.publish.self_s", "s"),
    ("eventbus.fanout", "ratio"),
]

_TELEMETRY = [
    ("obs.overhead_ratio", "ratio"),
    ("obs.spans_per_capture", "ratio"),
]

_FLEET = [
    ("fleet.sites.build_site.s", "s"),
    ("ckpt.service.run_to.s", "s"),
    ("ckpt.snapshot.capture.calls", "count"),
    ("ckpt.snapshot.capture.s", "s"),
    ("ckpt.snapshot.bytes", "B"),
    ("ckpt.format.write_snapshot.self_s", "s"),
    ("ckpt.format.fsync.s", "s"),
    ("ckpt.format.replace.s", "s"),
    ("ckpt.format.prune.s", "s"),
    ("ckpt.format.unlinks", "count"),
    ("fleet.worker.site_cleanup.s", "s"),
    ("fleet.worker.manifest_save.s", "s"),
    ("fleet.stream_emit.s", "s"),
    ("siem.aggregator.ingest_batch.calls", "count"),
    ("siem.aggregator.ingest_batch.s", "s"),
    ("siem.aggregator.dedup_ratio", "ratio"),
    ("siem.aggregator.finalize.s", "s"),
    ("siem.aggregator.write_canonical.s", "s"),
]

_SIM = [
    ("sim.engine.transmit.calls", "count"),
    ("sim.engine.transmit.self_s", "s"),
    ("util.rng.sample_block.s", "s"),
    ("sim.medium.link_budget.s", "s"),
    ("sim.spatial.near_arrays.calls", "count"),
    ("sim.spatial.near_arrays.s", "s"),
    ("sim.engine.run_until.self_s", "s"),
    ("sim.node.handle_frame.calls", "count"),
    ("sim.node.handle_frame.s", "s"),
    ("sim.engine.candidates_per_frame", "ratio"),
    ("sim.engine.delivery_yield", "ratio"),
]

_TRACE = [
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
]

#: (name, unit) of every per-layer metric, in report order.
METRICS: List[Tuple[str, str]] = _KALIS + _TELEMETRY + _FLEET + _SIM + _TRACE


@dataclass
class LayerCounts:
    """What the after-call hooks collect beyond calls and times."""

    handle_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    handlers_run: int = 0
    snapshot_bytes: int = 0
    unlinks: int = 0
    #: Kalis managers and simulators built by the fleet during the pass.
    managers: list = field(default_factory=list)
    sims: list = field(default_factory=list)

    def on_handle(self, args, _result, duration: float) -> None:
        self.handle_s[args[0].NAME] += duration

    def on_publish(self, _args, delivered: int, _duration: float) -> None:
        self.handlers_run += delivered

    def on_snapshot(self, _args, payload: bytes, _duration: float) -> None:
        self.snapshot_bytes += len(payload)

    def on_prune(self, _args, removed: int, _duration: float) -> None:
        self.unlinks += removed

    def on_build_site(self, _args, deployment, _duration: float) -> None:
        self.sims.append(deployment.sim)
        self.managers.extend(node.manager for node in deployment.kalis_nodes)


def install(tracer: Tracer, counts: LayerCounts) -> None:
    """Wrap every layer boundary the per-layer table reads."""
    from repro.ckpt import format as ckpt_format
    from repro.ckpt import service as ckpt_service
    from repro.ckpt.snapshot import Deployment
    from repro.core.comm import CommunicationSystem
    from repro.core.datastore import DataStore
    from repro.core.knowledge import KnowledgeBase
    from repro.core.manager import ModuleManager
    from repro.core.modules.base import KalisModule
    from repro.core.modules.registry import module_class
    from repro.eventbus.bus import EventBus
    from repro.fleet import worker as fleet_worker
    from repro.siem.aggregator import SiemAggregator
    from repro.sim.engine import Simulator
    from repro.sim.medium import RadioMedium
    from repro.sim.node import SimNode
    from repro.sim.spatial import SpatialGrid
    from repro.util.rng import HashedStream
    from workloads import StreamWriter

    wrap = tracer.wrap
    # Kalis pipeline.
    wrap(CommunicationSystem, "on_capture", "core.comm.on_capture")
    wrap(DataStore, "add", "core.datastore.add")
    wrap(ModuleManager, "on_capture", "core.manager.on_capture")
    wrap(ModuleManager, "reevaluate", "core.manager.reevaluate")
    owners = {
        owner
        for name in MODULE_NAMES
        for owner in module_class(name).__mro__
        if "required" in vars(owner)
    }
    for owner in sorted(owners, key=lambda cls: cls.__qualname__):
        wrap(owner, "required", "core.modules.required")
    wrap(KalisModule, "handle", "core.modules.handle", counts.on_handle)
    wrap(KnowledgeBase, "put", "core.knowledge.put")
    wrap(EventBus, "publish", "eventbus.publish", counts.on_publish)
    # Checkpoint, fleet and SIEM.
    wrap(fleet_worker, "build_site", "fleet.sites.build_site", counts.on_build_site)
    wrap(Deployment, "run_to", "ckpt.service.run_to")
    wrap(ckpt_service, "capture", "ckpt.snapshot.capture", counts.on_snapshot)
    wrap(ckpt_format, "write_snapshot", "ckpt.format.write_snapshot")
    os_view = ModuleView(ckpt_format.os)
    tracer.set_global(ckpt_format, "os", os_view)
    wrap(os_view, "fsync", "ckpt.format.fsync")
    wrap(os_view, "replace", "ckpt.format.replace")
    wrap(ckpt_format.SnapshotStore, "prune", "ckpt.format.prune", counts.on_prune)
    shutil_view = ModuleView(fleet_worker.shutil)
    tracer.set_global(fleet_worker, "shutil", shutil_view)
    wrap(shutil_view, "rmtree", "fleet.worker.site_cleanup")
    wrap(fleet_worker.ShardProgress, "save", "fleet.worker.manifest_save")
    wrap(StreamWriter, "write", "fleet.stream_emit")
    wrap(SiemAggregator, "ingest_batch", "siem.aggregator.ingest_batch")
    wrap(SiemAggregator, "finalize", "siem.aggregator.finalize")
    wrap(SiemAggregator, "write_canonical", "siem.aggregator.write_canonical")
    # Simulator.
    wrap(Simulator, "transmit", "sim.engine.transmit")
    wrap(HashedStream, "sample_block", "util.rng.sample_block")
    for method in ("pair_sample_block", "pair_rssi_block", "pair_frame_lost_block"):
        wrap(RadioMedium, method, "sim.medium.link_budget")
    wrap(SpatialGrid, "near_arrays", "sim.spatial.near_arrays")
    wrap(Simulator, "run_until", "sim.engine.run_until")
    wrap(SimNode, "handle_frame", "sim.node.handle_frame")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def table(
    tracer: Tracer,
    counts: LayerCounts,
    result,
    wall_s: float,
    untraced_wall_s: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (zeros where unused).

    :param result: the traced pass's ``PassResult``; its simulators,
        managers and aggregators (plus those the fleet built, collected
        in ``counts``) supply the ratio counts.
    :param wall_s: the traced set-up plus pass, wall time.
    :param untraced_wall_s: the same untraced (median over passes).
    :param extra: figures the workload measured itself (``obs.*``).
    """
    calls, total, self_s = tracer.calls, tracer.total_s, tracer.self_s
    captures = calls["core.comm.on_capture"]
    sims = result.sims + counts.sims
    managers = result.managers + counts.managers
    transitions = sum(m.activation_events + m.deactivation_events for m in managers)
    transmissions = sum(sim.transmissions for sim in sims)
    candidates = sum(sim.candidate_evaluations for sim in sims)
    deliveries = sum(sim.deliveries for sim in sims)
    seen = sum(agg.stats.events_seen for agg in result.aggregators)
    dropped = sum(agg.stats.duplicates_dropped for agg in result.aggregators)
    values = {
        "core.comm.captures": captures,
        "core.comm.on_capture.self_s": self_s["core.comm.on_capture"],
        "core.datastore.add.calls": calls["core.datastore.add"],
        "core.datastore.add.s": total["core.datastore.add"],
        "core.manager.on_capture.self_s": self_s["core.manager.on_capture"],
        "core.manager.routed_per_capture": _ratio(
            calls["core.modules.handle"], calls["core.manager.on_capture"]
        ),
        "core.manager.reevaluate.calls": calls["core.manager.reevaluate"],
        "core.manager.reevaluate.self_s": self_s["core.manager.reevaluate"],
        "core.modules.required.calls": calls["core.modules.required"],
        "core.manager.activation_useful_ratio": _ratio(
            transitions, calls["core.modules.required"]
        ),
        "core.modules.handle.s": total["core.modules.handle"],
        "core.knowledge.put.calls": calls["core.knowledge.put"],
        "core.knowledge.put.self_s": self_s["core.knowledge.put"],
        "eventbus.publish.calls": calls["eventbus.publish"],
        "eventbus.publish.self_s": self_s["eventbus.publish"],
        "eventbus.fanout": _ratio(counts.handlers_run, calls["eventbus.publish"]),
        "obs.overhead_ratio": extra.get("obs.overhead_ratio", 0.0),
        "obs.spans_per_capture": extra.get("obs.spans_per_capture", 0.0),
        "fleet.sites.build_site.s": total["fleet.sites.build_site"],
        "ckpt.service.run_to.s": total["ckpt.service.run_to"],
        "ckpt.snapshot.capture.calls": calls["ckpt.snapshot.capture"],
        "ckpt.snapshot.capture.s": total["ckpt.snapshot.capture"],
        "ckpt.snapshot.bytes": counts.snapshot_bytes,
        "ckpt.format.write_snapshot.self_s": self_s["ckpt.format.write_snapshot"],
        "ckpt.format.fsync.s": total["ckpt.format.fsync"],
        "ckpt.format.replace.s": total["ckpt.format.replace"],
        "ckpt.format.prune.s": total["ckpt.format.prune"],
        "ckpt.format.unlinks": counts.unlinks,
        "fleet.worker.site_cleanup.s": total["fleet.worker.site_cleanup"],
        "fleet.worker.manifest_save.s": total["fleet.worker.manifest_save"],
        "fleet.stream_emit.s": total["fleet.stream_emit"],
        "siem.aggregator.ingest_batch.calls": calls["siem.aggregator.ingest_batch"],
        "siem.aggregator.ingest_batch.s": total["siem.aggregator.ingest_batch"],
        "siem.aggregator.dedup_ratio": _ratio(seen - dropped, seen),
        "siem.aggregator.finalize.s": total["siem.aggregator.finalize"],
        "siem.aggregator.write_canonical.s": total["siem.aggregator.write_canonical"],
        "sim.engine.transmit.calls": calls["sim.engine.transmit"],
        "sim.engine.transmit.self_s": self_s["sim.engine.transmit"],
        "util.rng.sample_block.s": total["util.rng.sample_block"],
        "sim.medium.link_budget.s": self_s["sim.medium.link_budget"],
        "sim.spatial.near_arrays.calls": calls["sim.spatial.near_arrays"],
        "sim.spatial.near_arrays.s": total["sim.spatial.near_arrays"],
        "sim.engine.run_until.self_s": self_s["sim.engine.run_until"],
        "sim.node.handle_frame.calls": calls["sim.node.handle_frame"],
        "sim.node.handle_frame.s": total["sim.node.handle_frame"],
        "sim.engine.candidates_per_frame": _ratio(candidates, transmissions),
        "sim.engine.delivery_yield": _ratio(deliveries, candidates),
        "trace.unattributed_share": _ratio(wall_s - tracer.root_s, wall_s),
        "trace.overhead": _ratio(wall_s, untraced_wall_s),
    }
    for name in MODULE_NAMES:
        values[f"core.modules.{name}.handle_s"] = counts.handle_s.get(name, 0.0)
    return {name: values[name] for name, _unit in METRICS}
