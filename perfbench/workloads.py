"""The benchmark's workloads: inputs from a seed, one pass, output checks.

Every workload is closed-loop: the next unit of work (a capture, a
frame, a shard) is issued only when the previous call has returned.
A workload is built once per run from ``--seed`` (input generation,
never timed).  Each pass then calls :meth:`Workload.setup` (timed as
set-up) and :meth:`Workload.run` (timed as the pass) on fresh program
state, and :meth:`Workload.finish` (not timed) checks the outputs, so
every pass of one seed produces the same outputs and the same digest.

The program is driven only through public entry points, from this one
process, with no threads, forks or queues.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

from reference import reference_job

from repro.ckpt.snapshot import alert_lines
from repro.core.kalis import KalisNode
from repro.experiments import icmp_flood_scenario
from repro.fleet import FleetConfig
from repro.fleet.worker import ShardRunner, stream_path
from repro.net.packets.base import Medium
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.obs import Telemetry
from repro.siem.aggregator import SiemAggregator
from repro.siem.events import batch_line
from repro.sim.engine import Simulator
from repro.sim.node import SimNode
from repro.sim.topology import random_positions
from repro.util.ids import NodeId
from repro.util.rng import SeededRng

clock = time.perf_counter


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    """One pass: work done, its output digest and the checks' verdict."""

    units: int
    digest: str
    #: The program's own failure counts plus failed output checks.
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: CPU seconds of each reference job run inside the pass, if any.
    references: List[float] = field(default_factory=list)
    #: Program objects the per-layer table reads (traced pass only).
    sims: list = field(default_factory=list)
    managers: list = field(default_factory=list)
    aggregators: list = field(default_factory=list)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)


class Workload:
    """One workload: inputs from a seed, and the three steps of a pass."""

    name = ""
    #: The unit of work, and its name in a per-operation latency.
    unit = ""
    op = ""
    #: The printed name of this workload's wall-clock rate.
    rate_name = ""
    default_seed = 0
    #: A seed kept out of development, for re-checking later claims.
    held_out_seed = 0

    def setup(self) -> Any:
        """Build the program state a pass runs on."""
        raise NotImplementedError

    def run(self, state) -> List[float]:
        """The timed pass; returns each operation's latency in seconds."""
        raise NotImplementedError

    def finish(self, state) -> PassResult:
        """Digest and check the pass's outputs, then release them."""
        raise NotImplementedError

    def layer_extras(self) -> Dict[str, float]:
        """Figures for the per-layer table measured outside the trace."""
        return {}

    def close(self) -> None:
        """Drop anything the workload left on disk."""


# -- e1_replay / e1_telemetry -------------------------------------------------


class E1Replay(Workload):
    """The E1 ICMP-flood trace fed capture by capture into a fresh node.

    The Kalis pipeline alone — intake, Data Store, activation, module
    ``handle``, knowledge-base writes and bus fan-out — with no
    simulator or disk.  200 bursts make the trace (about 5,000
    captures) long enough to fill and evict the 2,000-capture window.
    """

    name = "e1_replay"
    unit = "captures"
    op = "capture"
    rate_name = "replay_captures_per_s"
    default_seed = 7
    held_out_seed = 1007
    telemetry = False

    #: Seconds before and after a burst in which an alert counts for it
    #: (the window of :func:`repro.metrics.detection.score_alerts`).
    WINDOW_LEAD_S = 1.0
    DETECTION_SLACK_S = 20.0

    def __init__(self, seed: int, scratch: Path, bursts: int = 200) -> None:
        built = icmp_flood_scenario.build(seed=seed, symptom_instances=bursts)
        self.captures = [record.capture for record in built.trace]
        self.instances = built.instances
        self.attacker = built.attacker

    def _node(self, telemetry: bool) -> KalisNode:
        return KalisNode(NodeId("kalis-1"), telemetry=Telemetry() if telemetry else None)

    def setup(self) -> KalisNode:
        return self._node(self.telemetry)

    def run(self, node: KalisNode) -> List[float]:
        feed = node.feed
        latencies = []
        record = latencies.append
        for capture in self.captures:
            before = clock()
            feed(capture)
            record(clock() - before)
        return latencies

    def finish(self, node: KalisNode) -> PassResult:
        result = PassResult(
            units=len(self.captures),
            digest=sha256_lines(alert_lines(node)),
            managers=[node.manager],
        )
        self._check(node, result)
        return result

    def _check(self, node: KalisNode, result: PassResult) -> None:
        if node.deadletters:
            result.fail(f"{len(node.deadletters)} bus dead-letters", len(node.deadletters))
        failures = node.manager.supervisor.failures
        if failures:
            result.fail(f"{len(failures)} module failures", len(failures))
        alerts = node.alerts.alerts
        wrong = [
            alert for alert in alerts
            if alert.attack != "icmp_flood" or set(alert.suspects) != {self.attacker}
        ]
        if wrong:
            result.fail(f"{len(wrong)} alerts not icmp_flood naming only the attacker")
        # A burst counts as detected by an alert in score_alerts' window,
        # [start - 1 s, end + 20 s].  The module raises at most one alert
        # per victim per cooldown, so a burst that starts after the last
        # alert, inside its cooldown, is covered by that alert; the
        # extension applies to those final bursts only.
        cooldown = node.manager.module("IcmpFloodModule").cooldown
        times = [alert.timestamp for alert in alerts]
        last = max(times, default=-math.inf)
        missed = [
            instance for instance in self.instances
            if not any(
                instance.start - self.WINDOW_LEAD_S <= t <= instance.end + self.DETECTION_SLACK_S
                for t in times
            )
            and not (last < instance.start and instance.start - cooldown <= last)
        ]
        if missed:
            result.fail(f"{len(missed)} of {len(self.instances)} bursts undetected")

    def layer_extras(self) -> Dict[str, float]:
        """Telemetry cost: untraced replays with the sink off and on."""
        walls: Dict[bool, List[float]] = {False: [], True: []}
        spans = 0
        for _ in range(3):
            for telemetry in (False, True):
                node = self._node(telemetry)
                started = clock()
                for capture in self.captures:
                    node.feed(capture)
                walls[telemetry].append(clock() - started)
                if telemetry:
                    spans = node.telemetry.spans_finished
        return {
            "obs.overhead_ratio": median(walls[True]) / median(walls[False]),
            "obs.spans_per_capture": spans / len(self.captures),
        }


class E1Telemetry(E1Replay):
    """The same replay with a live :class:`repro.obs.Telemetry` sink.

    Its own workload so that the cost of leaving telemetry on is an
    end-to-end figure with a bound, not only a traced ratio.
    """

    name = "e1_telemetry"
    rate_name = "telemetry_captures_per_s"
    telemetry = True


# -- fleet_shard --------------------------------------------------------------

#: Profile mix of ``FleetConfig(fleet_seed=16, sites=16).specs()``.  A
#: noisy site runs five checkpoints and a quiet one two, so a natural
#: 16-site draw varies its work by about a tenth from seed to seed;
#: holding the mix keeps the shard's cost comparable across seeds.
SHARD_MIX = {"attacked": 10, "quiet": 4, "noisy": 2}


def shard_specs(seed: int, mix: Dict[str, int]) -> list:
    """The first sites of fleet ``seed`` that fill ``mix``, in site order.

    At fleet seed 16 with :data:`SHARD_MIX` this is exactly the first
    16 sites.
    """
    wanted = dict(mix)
    specs = []
    pool = FleetConfig(fleet_seed=seed, sites=16 * sum(mix.values())).specs()
    for spec in pool:
        if wanted.get(spec.profile, 0) > 0:
            wanted[spec.profile] -= 1
            specs.append(spec)
    if any(wanted.values()):
        raise RuntimeError(f"fleet seed {seed}: too few sites to fill {mix}")
    return specs


class StreamWriter:
    """The worker's durable stream: one NDJSON line per batch, flushed.

    The file is opened at the first batch, after ``ShardRunner.run`` has
    made the shard directory, so set-up does no file-system work: a
    ``mkdir`` there took 0.15 to 0.36 ms, depending on the disk's state.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.handle = None

    def write(self, record: Dict[str, Any]) -> None:
        if self.handle is None:
            self.handle = open(self.path, "a", encoding="utf-8")
        self.handle.write(batch_line(record))
        self.handle.write("\n")
        self.handle.flush()

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()


@dataclass
class _Shard:
    runner: ShardRunner
    aggregator: SiemAggregator
    writer: StreamWriter
    directory: Path
    specs: list
    site_done_at: List[float]
    references: List[float]


class FleetShard(Workload):
    """16 sites through ``ShardRunner`` in this process, then sweep and merge.

    The live pipeline — simulator, Kalis, checkpoints and SIEM — with
    checkpoint I/O dominant.  ``emit`` does what ``worker_main`` does
    minus the queue: append the batch to the stream file, flush, hand
    it to ``SiemAggregator.ingest_batch``.  After the shard the
    durability sweep, ``finalize`` and ``write_canonical`` run in
    ``run_fleet``'s order.
    """

    name = "fleet_shard"
    unit = "sites"
    op = "site"
    rate_name = "shard_sites_per_s"
    default_seed = 16
    held_out_seed = 1016

    def __init__(self, seed: int, scratch: Path, mix: Optional[Dict[str, int]] = None) -> None:
        self.scratch = scratch
        # Input, as in ``run_fleet``: the parent derives the fleet's
        # specs and each worker's shard is handed its slice.
        self.specs = shard_specs(seed, mix if mix is not None else SHARD_MIX)
        self.passes = 0

    def setup(self) -> _Shard:
        self.passes += 1
        directory = self.scratch / f"shard-{self.passes}"
        aggregator = SiemAggregator()
        writer = StreamWriter(stream_path(directory))
        site_done_at: List[float] = []
        references: List[float] = []

        def emit(record: Dict[str, Any]) -> None:
            writer.write(record)
            aggregator.ingest_batch(record)
            events = record.get("events")
            if events and events[-1]["kind"] == "site-done":
                site_done_at.append(clock())
                # The CPU works in short bursts between disk waits, each
                # starting cold, at a speed that drifts with the host.  A
                # job timed before the pass, at full speed, does not see
                # that; one timed here, after each site, does.
                references.append(reference_job())

        runner = ShardRunner(0, self.specs, directory, emit)
        return _Shard(
            runner, aggregator, writer, directory, self.specs, site_done_at, references
        )

    def run(self, shard: _Shard) -> List[float]:
        aggregator = shard.aggregator
        started = clock()
        shard.runner.run()
        shard.writer.close()
        aggregator.ingest_stream(stream_path(shard.directory), worker=0)
        aggregator.finalize()
        aggregator.write_canonical(shard.directory / "merged.canonical.log")
        marks = [started] + shard.site_done_at
        return [end - begin for begin, end in zip(marks, marks[1:])]

    def finish(self, shard: _Shard) -> PassResult:
        result = PassResult(
            units=len(shard.specs),
            digest=sha256_lines(shard.aggregator.canonical_lines()),
            references=shard.references,
            aggregators=[shard.aggregator],
        )
        self._check(shard, result)
        # The shard directory (about 0.2 MB) stays until close(), so
        # that deleting it does not slow the next set-up.
        return result

    def _check(self, shard: _Shard, result: PassResult) -> None:
        aggregator = shard.aggregator
        if aggregator.stats.schema_errors:
            result.fail(
                f"{aggregator.stats.schema_errors} SIEM schema errors",
                aggregator.stats.schema_errors,
            )
        done = set()
        for event in aggregator.merged_events():
            if event["kind"] == "site-done":
                done.add(event["site"])
            elif event["kind"] == "metrics" and event["body"]["deadletters"]:
                result.fail(f"{event['site']}: bus dead-letters", event["body"]["deadletters"])
        missing = [spec.site_id for spec in shard.specs if spec.site_id not in done]
        if missing:
            result.fail(f"sites without site-done: {missing}", len(missing))

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# -- delivery_8k --------------------------------------------------------------

#: Mean node spacing, as in ``scalability_scenario``'s transmit bench.
NODE_SPACING_M = 40.0


@dataclass
class _Site:
    sim: Simulator
    nodes: List[SimNode]
    receptions: List[int]


class Delivery8k(Workload):
    """8,000 bare 802.15.4 nodes, one broadcast per sender in turn.

    The simulator alone — dispatch, link budget, RNG blocks and the
    spatial index — with no Kalis and no disk.  Set-up builds the nodes
    and runs the first full sender rotation, which fills the
    per-sender caches; the pass is the second, warm rotation.
    """

    name = "delivery_8k"
    unit = "frames"
    op = "frame"
    rate_name = "delivery_frames_per_s"
    default_seed = 47
    held_out_seed = 1047

    def __init__(self, seed: int, scratch: Path, nodes: int = 8000) -> None:
        self.seed = seed
        side = math.sqrt(nodes) * NODE_SPACING_M
        # The label matches that bench, so seed 47 is its geometry.
        self.positions = random_positions(
            nodes, (0.0, 0.0, side, side), rng=SeededRng(seed, "transmit-bench")
        )

    def _rotation(self, site: _Site, first_sequence: int) -> List[float]:
        sim, nodes = site.sim, site.nodes
        count = len(nodes)
        latencies = []
        for sequence in range(first_sequence, first_sequence + count):
            sender = nodes[sequence % count]
            frame = Ieee802154Frame(pan_id=1, seq=sequence % 256, src=sender.node_id, dst=None)
            before = clock()
            site.receptions.append(sender.send(Medium.IEEE_802_15_4, frame))
            sim.run(0.05)
            latencies.append(clock() - before)
        return latencies

    def setup(self) -> _Site:
        sim = Simulator(seed=self.seed)
        nodes = [
            sim.add_node(
                SimNode(NodeId(f"n{index:04d}"), position, mediums=(Medium.IEEE_802_15_4,))
            )
            for index, position in enumerate(self.positions)
        ]
        sim.run_until(0.001)
        site = _Site(sim, nodes, [])
        self._rotation(site, 0)
        return site

    def run(self, site: _Site) -> List[float]:
        return self._rotation(site, len(site.nodes))

    def finish(self, site: _Site) -> PassResult:
        result = PassResult(
            units=len(site.nodes),
            digest=sha256_lines(str(count) for count in site.receptions),
            sims=[site.sim],
        )
        if sum(site.receptions) != site.sim.deliveries:
            result.fail(
                f"receptions {sum(site.receptions)} != deliveries {site.sim.deliveries}"
            )
        return result


WORKLOADS = {
    workload.name: workload
    for workload in (E1Replay, E1Telemetry, FleetShard, Delivery8k)
}
