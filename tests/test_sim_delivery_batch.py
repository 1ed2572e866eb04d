"""Production delivery vs the brute-force scalar reference.

:meth:`Simulator.transmit` (grid-culled, vectorized, batched) must be
*byte-identical* to :class:`tests.sim_reference.ReferenceSimulator`
(every member scanned, one scalar link budget and one heap entry per
receiver): same reception sets, same per-pair RSSI values bit for bit,
same timestamps and deliveries — across random topologies, seeds, and
medium parameters, including the degenerate branches (certain drop,
zero shadowing, wired medium) and membership churn.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packets.base import Medium, Packet
from repro.sim.engine import Simulator
from repro.sim.medium import PathLossParams, RadioMedium
from repro.sim.node import SimNode
from repro.util.ids import NodeId
from repro.util.rng import SeededRng
from tests.sim_reference import ReferenceSimulator, broadcast_round_robin, flat_site

SIMULATORS = (Simulator, ReferenceSimulator)


@dataclass(frozen=True)
class _Probe(Packet):
    """A bare frame with a fixed wire size."""

    HEADER_BYTES = 24


class _RecordingNode(SimNode):
    """Keeps every reception as (sender-visible) evidence for equality."""

    def __init__(self, node_id, position, mediums):
        super().__init__(node_id, position=position, mediums=mediums)
        self.heard = []

    def handle_frame(self, packet, medium, rssi, timestamp):
        super().handle_frame(packet, medium, rssi, timestamp)
        self.heard.append((medium.value, rssi, timestamp))


def _build_world(simulator_class, seed, node_count, area, medium, params, loss):
    sim = simulator_class(seed=seed)
    sim.set_medium(
        RadioMedium(
            medium,
            params=params,
            rng=SeededRng(seed, "equiv-medium"),
            base_loss_probability=loss,
        )
    )
    placer = SeededRng(seed, "equiv-topo")
    nodes = []
    for index in range(node_count):
        node = _RecordingNode(
            NodeId(f"n{index}"),
            (placer.uniform(0.0, area), placer.uniform(0.0, area)),
            [medium],
        )
        sim.add_node(node)
        nodes.append(node)
    sim.run_until(0.0)
    return sim, nodes


def _drive(sim, nodes, medium, senders):
    receptions = 0
    for index in senders:
        receptions += nodes[index % len(nodes)].send(medium, _Probe())
        sim.run(0.05)
    return receptions


def _history(nodes):
    return {str(node.node_id): node.heard for node in nodes}


def _neighborhood_candidates(sim, nodes, medium, senders):
    """Sum over the frames of each sender's grid neighborhood, less
    the sender itself — what production must count as candidates."""
    grid = sim._grid(medium)
    return sum(
        len(grid.near(nodes[index % len(nodes)].position)) - 1 for index in senders
    )


class TestBatchedEqualsScalar:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        node_count=st.integers(min_value=2, max_value=40),
        area=st.floats(min_value=10.0, max_value=400.0),
        exponent=st.floats(min_value=2.0, max_value=4.0),
        sigma=st.floats(min_value=0.0, max_value=4.0),
        loss=st.sampled_from([0.0, 0.15, 0.5, 0.97, 1.0]),
    )
    def test_property_sweep(self, seed, node_count, area, exponent, sigma, loss):
        """Random topology/seed/params: production and reference agree
        on every reception, RSSI bit and delivery, and production counts
        exactly the grid-neighborhood candidates."""
        params = PathLossParams(
            tx_power_dbm=0.0,
            pl_d0_db=40.0,
            exponent=exponent,
            sensitivity_dbm=-90.0,
            shadowing_sigma_db=sigma,
        )
        if loss >= 1.0:
            # base_loss_probability must be < 1; certain drop is
            # covered through interference in test_certain_drop_jammer.
            loss = 0.97
        senders = range(0, node_count * 3, max(1, node_count // 4))
        results = []
        for simulator_class in SIMULATORS:
            sim, nodes = _build_world(
                simulator_class, seed, node_count, area,
                Medium.IEEE_802_15_4, params, loss,
            )
            receptions = _drive(sim, nodes, Medium.IEEE_802_15_4, senders)
            results.append((_history(nodes), receptions, sim.deliveries))
            if simulator_class is Simulator:
                assert sim.candidate_evaluations == _neighborhood_candidates(
                    sim, nodes, Medium.IEEE_802_15_4, senders
                )
        assert results[0] == results[1]

    @pytest.mark.parametrize("spread", [True, False])
    def test_certain_drop_jammer(self, spread):
        """loss >= 1.0 (saturating jammer): zero receptions on both
        paths, and candidate accounting still runs — on a compact site
        and on one wide enough for the grid to cull."""
        params = PathLossParams(shadowing_sigma_db=1.5)
        area = 600.0 if spread else 60.0
        for simulator_class in SIMULATORS:
            sim, nodes = _build_world(
                simulator_class, 7, 10, area, Medium.IEEE_802_15_4, params, 0.0
            )
            sim.medium(Medium.IEEE_802_15_4).set_interference(1.0)
            receptions = _drive(sim, nodes, Medium.IEEE_802_15_4, range(10))
            assert receptions == 0
            assert sim.deliveries == 0
            if simulator_class is Simulator:
                assert sim.candidate_evaluations == _neighborhood_candidates(
                    sim, nodes, Medium.IEEE_802_15_4, range(10)
                )
            else:
                assert sim.candidate_evaluations == 10 * 9

    @pytest.mark.parametrize("spread", [True, False])
    def test_zero_sigma_deterministic_rssi(self, spread):
        """sigma == 0 consumes no shadowing draws; the loss uniform
        shifts to draw word 0 identically on both paths."""
        params = PathLossParams(shadowing_sigma_db=0.0)
        area = 400.0 if spread else 80.0
        histories = []
        for simulator_class in SIMULATORS:
            sim, nodes = _build_world(
                simulator_class, 11, 12, area, Medium.IEEE_802_15_4, params, 0.3
            )
            _drive(sim, nodes, Medium.IEEE_802_15_4, range(12))
            histories.append(_history(nodes))
        assert histories[0] == histories[1]
        # With zero shadowing each heard RSSI is exactly the mean.
        for heard in histories[0].values():
            for _, rssi, _ in heard:
                assert rssi <= params.tx_power_dbm - params.pl_d0_db + 1e-9

    def test_wired_medium_degenerate(self):
        """The wired pseudo-medium has an unbounded cull range (single
        grid bucket) and zero sigma — everything hears everything,
        identically on both paths."""
        params = PathLossParams(
            pl_d0_db=0.0, exponent=0.01, sensitivity_dbm=-100.0,
            shadowing_sigma_db=0.0,
        )
        histories = []
        for simulator_class in SIMULATORS:
            sim, nodes = _build_world(
                simulator_class, 3, 8, 5000.0, Medium.WIRED, params, 0.0
            )
            receptions = _drive(sim, nodes, Medium.WIRED, range(8))
            histories.append((_history(nodes), receptions))
            assert receptions == 8 * 7  # full mesh, no losses
        assert histories[0] == histories[1]

    def test_membership_churn_matches_reference(self):
        """Unregister one node, register a new one, crash another: dead
        nodes stay registered and are filtered at transmit, removed
        ones are gone, and both paths still agree."""
        outcomes = []
        for simulator_class in SIMULATORS:
            sim, nodes = _build_world(
                simulator_class, 19, 14, 90.0, Medium.IEEE_802_15_4,
                PathLossParams(shadowing_sigma_db=1.5), 0.1,
            )
            medium = Medium.IEEE_802_15_4
            _drive(sim, nodes, medium, range(4))
            sim.remove_node(nodes[5].node_id)
            late = _RecordingNode(NodeId("late"), (45.0, 45.0), [medium])
            sim.add_node(late)
            nodes[7].crash()
            sim.run(0.1)
            _drive(sim, nodes, medium, [0, 1, 2, 3, 6, 8, 9])
            survivors = [n for n in nodes if n.node_id != nodes[5].node_id]
            outcomes.append((_history(survivors + [late]), sim.deliveries))
        assert outcomes[0] == outcomes[1]


class TestSenderCache:
    def test_remove_node_drops_its_candidate_snapshots(self):
        """Regression: a removed sender's (medium, node) snapshot used
        to stay in ``_sender_cache``, keeping the node and its candidate
        arrays alive and pickling them into every later checkpoint."""
        sim, nodes = flat_site(Simulator, 5, 50)
        broadcast_round_robin(sim, nodes, 50)
        assert len(sim._sender_cache) == 50
        removed = nodes[:20]
        for node in removed:
            sim.remove_node(node.node_id)
        removed_ids = {node.node_id for node in removed}
        assert not any(key[1] in removed_ids for key in sim._sender_cache)
        for entry in sim._sender_cache.values():
            assert not any(node in removed for node in entry[4])
        # The survivors still deliver exactly like the reference.
        reference, reference_nodes = flat_site(ReferenceSimulator, 5, 50)
        broadcast_round_robin(reference, reference_nodes, 50)
        for node in reference_nodes[:20]:
            reference.remove_node(node.node_id)
        assert broadcast_round_robin(sim, nodes[20:], 60) == broadcast_round_robin(
            reference, reference_nodes[20:], 60
        )
        assert sim.deliveries == reference.deliveries


class TestAtScale:
    def test_n8000_identical_to_reference(self):
        """The ``delivery_8k`` geometry (N=8,000, seed 47), 400 frames:
        per-frame receptions, per-receiver (RSSI, timestamp) histories
        and deliveries all match the brute-force reference."""
        outcomes = []
        for simulator_class in SIMULATORS:
            sim, nodes = flat_site(
                simulator_class, 47, 8000, node_class=_RecordingNode
            )
            receptions = broadcast_round_robin(sim, nodes, 400)
            outcomes.append((receptions, _history(nodes), sim.deliveries))
        assert sum(outcomes[0][0]) == 1772
        assert outcomes[0] == outcomes[1]
