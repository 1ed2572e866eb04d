"""Tests for the radio propagation model."""

import math

import numpy as np
import pytest

from repro.net.packets.base import Medium
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.sim.engine import Simulator
from repro.sim.medium import (
    DEFAULT_PARAMS,
    SHADOWING_CULL_SIGMAS,
    PathLossParams,
    RadioMedium,
)
from repro.sim.node import SimNode
from repro.util.ids import NodeId
from repro.util.rng import SeededRng
from tests.sim_reference import pair_frame_lost, pair_rssi, pair_sample


def _receivers(count):
    return [f"r{index}" for index in range(count)]


class TestPathLossParams:
    def test_mean_rssi_decreases_with_distance(self):
        params = DEFAULT_PARAMS[Medium.IEEE_802_15_4]
        assert params.mean_rssi(10.0) > params.mean_rssi(20.0) > params.mean_rssi(40.0)

    def test_mean_rssi_formula(self):
        params = PathLossParams(
            tx_power_dbm=0.0, pl_d0_db=40.0, exponent=3.0, d0_m=1.0
        )
        expected = -40.0 - 30.0 * math.log10(10.0)
        assert params.mean_rssi(10.0) == pytest.approx(expected)

    def test_max_range_crosses_sensitivity(self):
        params = DEFAULT_PARAMS[Medium.IEEE_802_15_4]
        edge = params.max_range_m()
        assert params.mean_rssi(edge) == pytest.approx(params.sensitivity_dbm, abs=0.01)
        assert params.mean_rssi(edge * 1.1) < params.sensitivity_dbm

    def test_tiny_distances_clamped(self):
        params = DEFAULT_PARAMS[Medium.WIFI]
        assert params.mean_rssi(0.0) == params.mean_rssi(0.05)

    def test_sub_d0_clamps_to_d0_not_hardcoded_floor(self):
        """Regression: the clamp used to be a hardcoded 0.1 m, so with
        the default d0_m=1.0 a sub-metre receiver saw *negative* path
        loss — RSSI above transmit power."""
        params = PathLossParams(
            tx_power_dbm=0.0, pl_d0_db=40.0, exponent=3.0, d0_m=1.0
        )
        # At distance 0 the model clamps to d0: exactly the d0 path loss.
        assert params.mean_rssi(0.0) == params.mean_rssi(params.d0_m)
        assert params.mean_rssi(0.0) == pytest.approx(-40.0)
        # Everything at or inside d0 is flat; never above tx - pl_d0.
        for distance in (0.0, 0.05, 0.1, 0.5, 1.0):
            assert params.mean_rssi(distance) == pytest.approx(-40.0)
            assert params.mean_rssi(distance) <= params.tx_power_dbm

    def test_mean_rssi_block_matches_scalar_bitwise(self):
        params = DEFAULT_PARAMS[Medium.IEEE_802_15_4]
        distances = np.array([0.0, 0.3, 1.0, 2.5, 17.0, 63.2, 1e4])
        batch = params.mean_rssi_block(distances)
        for index, distance in enumerate(distances):
            assert batch[index] == params.mean_rssi(float(distance))

    def test_wifi_outranges_802154(self):
        wifi = DEFAULT_PARAMS[Medium.WIFI].max_range_m()
        wpan = DEFAULT_PARAMS[Medium.IEEE_802_15_4].max_range_m()
        assert wifi > wpan


class TestPairSampling:
    """Order-independent per-(sender, receiver, sequence) draws.

    The scalar pair functions are the reference ones from
    ``tests/sim_reference.py``; the block methods are checked against
    them bit for bit.
    """

    def test_same_key_same_rssi(self):
        medium = RadioMedium(Medium.IEEE_802_15_4, rng=SeededRng(4))
        first = pair_rssi(medium, 20.0, pair_sample(medium, "a", "b", 7))
        again = pair_rssi(medium, 20.0, pair_sample(medium, "a", "b", 7))
        assert first == again

    def test_distinct_keys_distinct_draws(self):
        medium = RadioMedium(Medium.IEEE_802_15_4, rng=SeededRng(4))
        values = {
            pair_rssi(medium, 20.0, pair_sample(medium, s, r, q))
            for s, r, q in [("a", "b", 1), ("a", "b", 2), ("a", "c", 1), ("b", "a", 1)]
        }
        assert len(values) == 4

    def test_pair_rssi_clamped_to_cull_margin(self):
        medium = RadioMedium(Medium.IEEE_802_15_4, rng=SeededRng(4))
        params = medium.params
        bound = SHADOWING_CULL_SIGMAS * params.shadowing_sigma_db
        for sequence in range(2000):
            rssi = pair_rssi(medium, 20.0, pair_sample(medium, "a", "b", sequence))
            assert abs(rssi - params.mean_rssi(20.0)) <= bound + 1e-9
        block = medium.pair_sample_block("a", 1, _receivers(2000))
        rssis = medium.pair_rssi_block(np.full(2000, 20.0), block)
        assert (np.abs(rssis - params.mean_rssi(20.0)) <= bound + 1e-9).all()

    def test_pair_frame_lost_matches_probability(self):
        medium = RadioMedium(
            Medium.WIFI, rng=SeededRng(4), base_loss_probability=0.5
        )
        losses = sum(
            pair_frame_lost(medium, pair_sample(medium, "a", "b", sequence))
            for sequence in range(500)
        )
        assert 150 < losses < 350

    def test_pair_certain_loss_and_zero_loss_skip_draws(self):
        medium = RadioMedium(Medium.WIFI, rng=SeededRng(4))
        draws = pair_sample(medium, "a", "b", 1)
        assert not pair_frame_lost(medium, draws)  # loss == 0, no draw
        medium.set_interference(1.0)
        assert pair_frame_lost(medium, draws)  # loss >= 1, no draw
        # The full budget is still available afterwards.
        draws.normal()
        draws.uniform()
        draws.uniform()

    def test_cull_range_exceeds_mean_range(self):
        medium = RadioMedium(Medium.IEEE_802_15_4, rng=SeededRng(4))
        assert medium.cull_range_m() > medium.params.max_range_m()

    def test_pair_rssi_block_bit_identical_to_scalar(self):
        medium = RadioMedium(Medium.IEEE_802_15_4, rng=SeededRng(4))
        receivers = [f"r{index}" for index in range(64)]
        distances = np.linspace(0.0, 120.0, 64)
        block = medium.pair_sample_block("sender", 9, receivers)
        batch = medium.pair_rssi_block(distances, block)
        for index, receiver in enumerate(receivers):
            draws = pair_sample(medium, "sender", receiver, 9)
            scalar = pair_rssi(medium, float(distances[index]), draws)
            assert batch[index] == scalar

    def test_pair_frame_lost_block_bit_identical_to_scalar(self):
        medium = RadioMedium(
            Medium.WIFI, rng=SeededRng(4), base_loss_probability=0.4
        )
        receivers = [f"r{index}" for index in range(200)]
        block = medium.pair_sample_block("sender", 3, receivers)
        # Shadowing must be consumed first, as the engine does, so the
        # scalar draw offset lines up with the block's loss column.
        medium.pair_rssi_block(np.full(len(receivers), 25.0), block)
        lost = medium.pair_frame_lost_block(block)
        for index, receiver in enumerate(receivers):
            draws = pair_sample(medium, "sender", receiver, 3)
            pair_rssi(medium, 25.0, draws)
            assert bool(lost[index]) == pair_frame_lost(medium, draws)
        assert 0 < int(lost.sum()) < len(receivers)

    def test_pair_frame_lost_block_degenerate_branches(self):
        medium = RadioMedium(Medium.WIFI, rng=SeededRng(4))
        block = medium.pair_sample_block("s", 1, ["a", "b", "c"])
        assert not medium.pair_frame_lost_block(block).any()  # loss == 0
        medium.set_interference(1.0)
        assert medium.pair_frame_lost_block(block).all()  # certain drop

    def test_pair_frame_lost_block_zero_sigma_uses_first_word(self):
        """With sigma == 0 shadowing consumes nothing, so the loss
        uniform is draw word 0 — in both the scalar and block paths."""
        params = PathLossParams(shadowing_sigma_db=0.0)
        medium = RadioMedium(
            Medium.WIFI, params=params, rng=SeededRng(4),
            base_loss_probability=0.3,
        )
        receivers = [f"r{index}" for index in range(100)]
        block = medium.pair_sample_block("s", 5, receivers)
        rssi = medium.pair_rssi_block(np.full(len(receivers), 10.0), block)
        assert (rssi == params.mean_rssi(10.0)).all()
        lost = medium.pair_frame_lost_block(block)
        for index, receiver in enumerate(receivers):
            draws = pair_sample(medium, "s", receiver, 5)
            assert pair_rssi(medium, 10.0, draws) == params.mean_rssi(10.0)
            assert bool(lost[index]) == pair_frame_lost(medium, draws)


class TestRadioMedium:
    def test_shadowing_varies_samples(self):
        medium = RadioMedium(Medium.WIFI, rng=SeededRng(1))
        block = medium.pair_sample_block("a", 1, _receivers(10))
        samples = set(medium.pair_rssi_block(np.full(10, 20.0), block).tolist())
        assert len(samples) > 1

    def test_zero_sigma_is_deterministic(self):
        params = PathLossParams(shadowing_sigma_db=0.0)
        medium = RadioMedium(Medium.WIFI, params=params, rng=SeededRng(1))
        for sequence in (1, 2):
            block = medium.pair_sample_block("a", sequence, _receivers(10))
            rssis = medium.pair_rssi_block(np.full(10, 20.0), block)
            assert (rssis == params.mean_rssi(20.0)).all()

    def test_receivable_threshold(self):
        """A frame is heard at or above the sensitivity floor, not
        below: with zero shadowing, mean RSSI -89.88 dBm at 46 m is
        heard and -90.16 dBm at 47 m is not."""
        params = PathLossParams(shadowing_sigma_db=0.0)
        assert params.mean_rssi(46.0) > params.sensitivity_dbm > params.mean_rssi(47.0)
        sim = Simulator(seed=1)
        sim.set_medium(RadioMedium(Medium.IEEE_802_15_4, params=params))
        heard = []

        class Listener(SimNode):
            def on_receive(self, packet, medium, rssi, timestamp):
                heard.append(self.node_id.value)

        sender = sim.add_node(
            SimNode(NodeId("s"), (0.0, 0.0), mediums=(Medium.IEEE_802_15_4,))
        )
        for name, x in (("near", 46.0), ("far", 47.0)):
            sim.add_node(Listener(NodeId(name), (x, 0.0), mediums=(Medium.IEEE_802_15_4,)))
        sim.run_until(0.0)
        frame = Ieee802154Frame(pan_id=1, seq=1, src=sender.node_id, dst=None)
        assert sender.send(Medium.IEEE_802_15_4, frame) == 1
        sim.run(0.05)
        assert heard == ["near"]

    def test_no_loss_by_default(self):
        medium = RadioMedium(Medium.WIFI, rng=SeededRng(1))
        block = medium.pair_sample_block("a", 1, _receivers(100))
        assert not medium.pair_frame_lost_block(block).any()

    def test_base_loss_probability(self):
        medium = RadioMedium(
            Medium.WIFI, rng=SeededRng(1), base_loss_probability=0.5
        )
        block = medium.pair_sample_block("a", 1, _receivers(500))
        losses = int(medium.pair_frame_lost_block(block).sum())
        assert 150 < losses < 350

    def test_interference_injection(self):
        medium = RadioMedium(Medium.WIFI, rng=SeededRng(1))
        medium.set_interference(1.0)
        # A saturating jammer is a certain drop — no ~0.1% leak.
        block = medium.pair_sample_block("a", 1, _receivers(100))
        assert medium.pair_frame_lost_block(block).all()

    def test_certain_loss_consumes_no_draw(self):
        """loss >= 1.0 reads no draw word: the block's lazily decoded
        words stay untouched, and under a saturating jammer transmit
        never hashes a block at all."""
        medium = RadioMedium(
            Medium.WIFI, rng=SeededRng(9), base_loss_probability=0.5
        )
        medium.set_interference(1.0)
        block = medium.pair_sample_block("a", 1, _receivers(50))
        assert medium.pair_frame_lost_block(block).all()
        assert block._words is None
        medium.set_interference(0.0)
        assert not medium.pair_frame_lost_block(block).all()
        assert block._words is not None

        sim = Simulator(seed=9)
        jammed = sim.medium(Medium.IEEE_802_15_4)
        jammed.set_interference(1.0)

        def no_draws(*args, **kwargs):
            raise AssertionError("a certain drop must not sample draws")

        jammed.pair_sample_block = no_draws
        nodes = [
            sim.add_node(SimNode(NodeId(f"n{index}"), (index * 5.0, 0.0),
                                 mediums=(Medium.IEEE_802_15_4,)))
            for index in range(4)
        ]
        sim.run_until(0.0)
        frame = Ieee802154Frame(pan_id=1, seq=1, src=nodes[0].node_id, dst=None)
        assert nodes[0].send(Medium.IEEE_802_15_4, frame) == 0
        assert sim.candidate_evaluations == 3

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            RadioMedium(Medium.WIFI, base_loss_probability=1.0)
        medium = RadioMedium(Medium.WIFI)
        with pytest.raises(ValueError):
            medium.set_interference(1.5)
