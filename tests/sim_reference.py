"""Brute-force scalar delivery: the oracle for :meth:`Simulator.transmit`.

Production delivery culls candidates through the spatial grid, caches
per-sender snapshots, computes the link budget with numpy over whole
candidate blocks, and schedules one pooled batch per transmission.
:class:`ReferenceSimulator` does none of that: its ``transmit`` scans
every member of the medium in node-id order, computes each pair's
distance, RSSI and loss one at a time with the scalar functions below,
and schedules one :class:`Delivery` heap entry per receiver.  Tests
run both on the same seed and topology and require identical
receptions, RSSI values (bit for bit), timestamps and deliveries.

The pair functions hash the same type-tagged key
``(sender, sequence, receiver)`` as
:meth:`RadioMedium.pair_sample_block`, but through
:meth:`HashedStream.sample`, one key at a time, so the oracle does not
share the block code it checks.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.net.packets.base import Medium
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.sim.engine import BITS_PER_SECOND, TRANSMIT_LATENCY_S, Simulator
from repro.sim.medium import SHADOWING_CULL_SIGMAS
from repro.sim.node import SimNode
from repro.sim.topology import random_positions
from repro.util.ids import NodeId
from repro.util.rng import HashedDraws, SeededRng

#: Mean spacing of the flat 802.15.4 site: its side is
#: ``sqrt(N) * NODE_SPACING_M``, keeping density constant as N grows.
NODE_SPACING_M = 40.0


def pair_sample(model, sender_id, receiver_id, sequence: int) -> HashedDraws:
    """The draw budget for one (sender, receiver, transmission)."""
    return model._pairwise.sample(str(sender_id), int(sequence), str(receiver_id))


def pair_rssi(model, distance_m: float, draws: HashedDraws) -> float:
    """RSSI for one reception, shadowing clamped to the cull margin."""
    mean = model.params.mean_rssi(distance_m)
    sigma = model.params.shadowing_sigma_db
    if sigma <= 0:
        return mean
    shadowing = draws.normal(0.0, 1.0)
    if shadowing > SHADOWING_CULL_SIGMAS:
        shadowing = SHADOWING_CULL_SIGMAS
    elif shadowing < -SHADOWING_CULL_SIGMAS:
        shadowing = -SHADOWING_CULL_SIGMAS
    return mean + shadowing * sigma


def pair_frame_lost(model, draws: HashedDraws) -> bool:
    """Loss decision for one reception; certain loss consumes no draw."""
    loss = model.base_loss_probability + model.interference_loss_probability
    if loss <= 0.0:
        return False
    if loss >= 1.0:
        return True
    return draws.chance(loss)


class Delivery:
    """One scheduled frame delivery to one receiver.

    Re-checks the receiver at arrival, exactly like the production
    batch: a receiver that is detached, crashed, or has the interface
    down when the frame lands is not a delivery.
    """

    def __init__(self, sim, receiver, packet, medium, rssi, timestamp):
        self.sim = sim
        self.receiver = receiver
        self.packet = packet
        self.medium = medium
        self.rssi = rssi
        self.timestamp = timestamp

    def __call__(self) -> None:
        receiver = self.receiver
        if (
            not receiver.attached
            or not receiver.alive
            or self.medium not in receiver.mediums
        ):
            return
        self.sim.deliveries += 1
        receiver.handle_frame(self.packet, self.medium, self.rssi, self.timestamp)


class ReferenceSimulator(Simulator):
    """A :class:`Simulator` whose ``transmit`` is the brute-force loop.

    ``candidate_evaluations`` counts every other member of the medium,
    so it measures the full O(N) scan, not the grid neighborhood.
    Telemetry is not modelled: the oracle checks delivery, not spans.
    """

    def transmit(self, sender, medium, packet) -> int:
        model = self.medium(medium)
        self.transmissions += 1
        sequence = self.transmissions
        airtime = packet.size_bytes * 8.0 / BITS_PER_SECOND[medium]
        arrival = self.clock.now + TRANSMIT_LATENCY_S + airtime
        members = self._members.get(medium, {})
        sender_id = sender.node_id
        sender_x, sender_y = sender.position
        receptions = 0
        for key in sorted(members):
            receiver = members[key]
            if key == sender_id:
                continue
            self.candidate_evaluations += 1
            if not receiver.alive or medium not in receiver.mediums:
                continue
            # sqrt(dx² + dy²) rather than math.hypot: hypot's extra
            # guard arithmetic differs from numpy's by an ulp on some
            # inputs.
            dx = sender_x - receiver.position[0]
            dy = sender_y - receiver.position[1]
            distance = math.sqrt(dx * dx + dy * dy)
            if distance > model.cull_range_m():
                continue
            draws = pair_sample(model, sender_id, key, sequence)
            rssi = pair_rssi(model, distance, draws)
            if rssi < model.params.sensitivity_dbm:
                continue
            if pair_frame_lost(model, draws):
                continue
            receptions += 1
            self.schedule_at(
                arrival, Delivery(self, receiver, packet, medium, rssi, arrival)
            )
        return receptions


def flat_site(
    simulator_class, seed: int, node_count: int, node_class=SimNode
) -> Tuple[Simulator, List[SimNode]]:
    """Bare 802.15.4 nodes at constant density, started and settled.

    Seed 47 at N=8,000 is the geometry of the ``delivery_8k`` benchmark
    workload.
    """
    side = math.sqrt(node_count) * NODE_SPACING_M
    positions = random_positions(
        node_count, (0.0, 0.0, side, side), rng=SeededRng(seed, "transmit-bench")
    )
    sim = simulator_class(seed=seed)
    nodes = [
        sim.add_node(
            node_class(
                NodeId(f"n{index:04d}"), position, mediums=(Medium.IEEE_802_15_4,)
            )
        )
        for index, position in enumerate(positions)
    ]
    sim.run_until(0.001)
    return sim, nodes


def broadcast_round_robin(sim, nodes, frames: int) -> List[int]:
    """Send ``frames`` broadcasts from nodes 0, 1, ... in turn; returns
    the receptions each one scheduled."""
    receptions = []
    for sequence in range(frames):
        sender = nodes[sequence % len(nodes)]
        frame = Ieee802154Frame(
            pan_id=1, seq=sequence % 256, src=sender.node_id, dst=None
        )
        receptions.append(sender.send(Medium.IEEE_802_15_4, frame))
        sim.run(0.05)
    return receptions
