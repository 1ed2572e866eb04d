"""Tests for the spatial grid index and the frame-delivery fast path.

The load-bearing property: routing transmissions through the spatial
grid yields the *identical* reception set — receiver for receiver,
RSSI for RSSI — as the brute-force scan of every node in
:class:`tests.sim_reference.ReferenceSimulator`, because draws are
keyed per (sender, receiver, transmission) and culled candidates can
never be receivable (clamped shadowing margin).
"""

import math

import pytest

from repro.net.packets.base import Medium
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.sim.engine import Simulator
from repro.sim.medium import DEFAULT_PARAMS, SHADOWING_CULL_SIGMAS
from repro.sim.node import SimNode
from repro.sim.spatial import SpatialGrid
from repro.sim.topology import random_positions
from repro.util.ids import NodeId
from repro.util.rng import SeededRng
from tests.sim_reference import ReferenceSimulator


class TestSpatialGrid:
    def test_insert_remove_contains(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert("a", (1.0, 1.0))
        assert "a" in grid
        assert len(grid) == 1
        grid.remove("a")
        assert "a" not in grid
        assert grid.near((0.0, 0.0)) == []

    def test_duplicate_insert_rejected(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert("a", (0.0, 0.0))
        with pytest.raises(ValueError):
            grid.insert("a", (5.0, 5.0))

    def test_invalid_cell_size_rejected(self):
        with pytest.raises(ValueError):
            SpatialGrid(cell_size=0.0)
        with pytest.raises(ValueError):
            SpatialGrid(cell_size=-1.0)

    def test_near_covers_radius_within_cell_size(self):
        """Everything within cell_size of a query point is in the 3x3
        neighborhood — including members straddling cell boundaries."""
        cell = 10.0
        grid = SpatialGrid(cell_size=cell)
        rng = SeededRng(5, "grid")
        members = {}
        for index in range(200):
            position = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            members[index] = position
            grid.insert(index, position)
        # Exact-boundary members: x or y an integer multiple of the cell.
        for index, position in (
            (900, (10.0, 10.0)),
            (901, (20.0, 0.0)),
            (902, (-10.0, 9.999999)),
        ):
            members[index] = position
            grid.insert(index, position)
        for query in [(0.0, 0.0), (10.0, 10.0), (-9.99, 29.99), (49.0, -49.0)]:
            near = set(grid.near(query))
            for key, position in members.items():
                if math.hypot(position[0] - query[0], position[1] - query[1]) <= cell:
                    assert key in near, (key, position, query)

    def test_move_across_cells(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert("a", (1.0, 1.0))
        grid.move("a", (55.0, 55.0))
        assert "a" not in grid.near((0.0, 0.0))
        assert "a" in grid.near((50.0, 50.0))
        # In-cell move is a no-op but must keep the member findable.
        grid.move("a", (56.0, 56.0))
        assert "a" in grid.near((50.0, 50.0))

    def test_unbounded_grid_returns_everyone(self):
        for size in (None, math.inf, 1.0e9):
            grid = SpatialGrid(cell_size=size)
            assert grid.unbounded
            grid.insert("a", (0.0, 0.0))
            grid.insert("b", (1.0e6, -1.0e6))
            assert set(grid.near((123.0, 456.0))) == {"a", "b"}


class _RecordingNode(SimNode):
    """Collects (sequence, rssi) per received frame."""

    def __init__(self, node_id, position, mediums):
        super().__init__(node_id, position, mediums=mediums)
        self.heard = []

    def on_receive(self, packet, medium, rssi, timestamp):
        self.heard.append((packet.seq, rssi))


def _build(seed, positions, simulator_class=Simulator):
    sim = simulator_class(seed=seed)
    nodes = []
    for index, position in enumerate(positions):
        nodes.append(
            sim.add_node(
                _RecordingNode(
                    NodeId(f"n{index:03d}"), position, mediums=(Medium.IEEE_802_15_4,)
                )
            )
        )
    sim.run_until(0.001)
    return sim, nodes


def _broadcast_all(sim, nodes, frames):
    receptions = []
    for sequence in range(frames):
        sender = nodes[sequence % len(nodes)]
        receptions.append(
            sender.send(
                Medium.IEEE_802_15_4,
                Ieee802154Frame(
                    pan_id=1, seq=sequence, src=sender.node_id, dst=None
                ),
            )
        )
        sim.run(0.05)
    return receptions


def _reception_map(nodes):
    return {node.node_id.value: node.heard for node in nodes}


class TestFastPathEquivalence:
    """Grid-indexed transmit == the brute-force reference, draw for draw."""

    @pytest.mark.parametrize("seed", [3, 17, 92])
    def test_random_topology_identical_receptions(self, seed):
        # Wide enough that the 3x3 cell neighborhood is a strict
        # subset of the site — the index must actually cull.
        span = Simulator().medium(Medium.IEEE_802_15_4).cull_range_m() * 8
        positions = random_positions(
            40, (0, 0, span, span), rng=SeededRng(seed, "topo")
        )
        sim_a, nodes_a = _build(seed, positions)
        sim_b, nodes_b = _build(seed, positions, ReferenceSimulator)
        counts_a = _broadcast_all(sim_a, nodes_a, frames=30)
        counts_b = _broadcast_all(sim_b, nodes_b, frames=30)
        assert counts_a == counts_b
        assert _reception_map(nodes_a) == _reception_map(nodes_b)
        assert sim_a.deliveries == sim_b.deliveries
        # ...and the index did real culling work along the way.
        assert sim_a.candidate_evaluations < sim_b.candidate_evaluations

    def test_cell_boundary_straddlers(self):
        """Senders and receivers pinned to exact cell-boundary
        coordinates of the 802.15.4 grid."""
        cell = Simulator().medium(Medium.IEEE_802_15_4).cull_range_m()
        positions = [
            (0.0, 0.0),
            (cell, 0.0),
            (cell, cell),
            (2 * cell, 2 * cell),
            (cell / 2, cell / 2),
            (cell * 0.999, cell * 1.001),
        ]
        sim_a, nodes_a = _build(7, positions)
        sim_b, nodes_b = _build(7, positions, ReferenceSimulator)
        _broadcast_all(sim_a, nodes_a, frames=len(positions) * 2)
        _broadcast_all(sim_b, nodes_b, frames=len(positions) * 2)
        assert _reception_map(nodes_a) == _reception_map(nodes_b)

    def test_equivalence_survives_moves_and_removal(self):
        span = DEFAULT_PARAMS[Medium.IEEE_802_15_4].max_range_m() * 3
        positions = random_positions(
            20, (0, 0, span, span), rng=SeededRng(11, "topo")
        )
        sim_a, nodes_a = _build(11, positions)
        sim_b, nodes_b = _build(11, positions, ReferenceSimulator)
        move_rng_a = SeededRng(11, "moves")
        move_rng_b = SeededRng(11, "moves")
        for round_index in range(6):
            for sim, nodes, rng in (
                (sim_a, nodes_a, move_rng_a),
                (sim_b, nodes_b, move_rng_b),
            ):
                mover = nodes[round_index % len(nodes)]
                mover.move_to((rng.uniform(0, span), rng.uniform(0, span)))
                _broadcast_all(sim, nodes, frames=5)
        sim_a.remove_node(nodes_a[3].node_id)
        sim_b.remove_node(nodes_b[3].node_id)
        _broadcast_all(sim_a, [n for n in nodes_a if n.attached], frames=8)
        _broadcast_all(sim_b, [n for n in nodes_b if n.attached], frames=8)
        assert _reception_map(nodes_a) == _reception_map(nodes_b)

    def test_order_independent_draws(self):
        """Adding an unrelated node must not perturb an existing pair's
        RSSI — the property the per-pair substreams exist for."""

        def first_rssi(extra_node):
            positions = [(0.0, 0.0), (15.0, 0.0)]
            sim, nodes = _build(21, positions)
            if extra_node:
                sim.add_node(
                    _RecordingNode(
                        NodeId("zzz-extra"), (5.0, 5.0),
                        mediums=(Medium.IEEE_802_15_4,),
                    )
                )
                sim.run(0.001)
            _broadcast_all(sim, nodes[:1], frames=1)
            return nodes[1].heard

        lonely = first_rssi(extra_node=False)
        crowded = first_rssi(extra_node=True)
        assert lonely and lonely == crowded

    def test_shadowing_margin_in_cell_size(self):
        """Grid cells must be wider than the mean-RSSI range by the
        k-sigma shadowing margin, or probabilistic edge receivers
        straddling the boundary could be culled."""
        medium = Simulator().medium(Medium.IEEE_802_15_4)
        params = medium.params
        assert medium.cull_range_m() > params.max_range_m()
        expected = params.max_range_m(
            margin_db=SHADOWING_CULL_SIGMAS * params.shadowing_sigma_db
        )
        assert medium.cull_range_m() == pytest.approx(expected)

    def test_wired_medium_unbounded(self):
        assert Simulator().medium(Medium.WIRED).cull_range_m() == math.inf
