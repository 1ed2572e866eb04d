"""Tests for the watchdog-family modules: forwarding misbehaviour,
data alteration, sinkhole, wormhole."""


from repro.core.datastore import DataStore
from repro.core.knowledge import KnowledgeBase
from repro.core.manager import ModuleManager
from repro.core.modules.base import ModuleContext
from repro.core.modules.detection.data_alteration import DataAlterationModule
from repro.core.modules.detection.forwarding import ForwardingMisbehaviorModule
from repro.core.modules.detection.sinkhole import SinkholeModule
from repro.core.modules.detection.wormhole import WormholeModule
from repro.eventbus.bus import EventBus
from repro.net.packets.base import Medium
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.net.packets.zigbee import ZigbeePacket
from repro.sim.capture import Capture
from repro.util.ids import NodeId
from tests.conftest import ctp_beacon_capture, ctp_data_capture

SRC, FWD, ROOT = NodeId("src"), NodeId("fwd"), NodeId("root")
KALIS = NodeId("kalis-1")


def bind(module, kb=None):
    bus = kb.bus if kb is not None else EventBus()
    if kb is None:
        kb = KnowledgeBase(KALIS, bus)
    alerts = []
    bus.subscribe("alert", lambda e: alerts.append(e.payload))
    module.bind(ModuleContext(kb=kb, datastore=DataStore(), bus=bus, node_id=KALIS))
    module.active = True
    return kb, alerts


def mesh_capture(transmitter, receiver, zsrc, zdst, seq, timestamp, rssi=-55.0):
    frame = Ieee802154Frame(
        pan_id=0x22, seq=seq, src=transmitter, dst=receiver,
        payload=ZigbeePacket(src=zsrc, dst=zdst, seq=seq),
    )
    return Capture(packet=frame, timestamp=timestamp,
                   medium=Medium.IEEE_802_15_4, rssi=rssi)


class TestForwardingMisbehavior:
    @staticmethod
    def _warm_up(module, start=0.0):
        """Make FWD and ROOT known, reliably-heard transmitters."""
        module.handle(ctp_beacon_capture(ROOT, parent=ROOT, etx=0,
                                         timestamp=start))
        module.handle(ctp_beacon_capture(FWD, parent=ROOT, etx=1,
                                         timestamp=start + 0.1))
        module.handle(ctp_beacon_capture(FWD, parent=ROOT, etx=1,
                                         timestamp=start + 0.2))
        module.handle(ctp_beacon_capture(ROOT, parent=ROOT, etx=0,
                                         timestamp=start + 0.3))

    def test_requires_multihop_802154(self):
        module = ForwardingMisbehaviorModule()
        kb, _ = bind(module)
        assert not module.required(kb)
        kb.put("Multihop.802154", True)
        assert module.required(kb)

    def test_silent_forwarder_accused(self):
        module = ForwardingMisbehaviorModule(params={"detectionThresh": 3})
        kb, alerts = bind(module)
        self._warm_up(module)
        for i in range(5):
            timestamp = 1.0 + i * 2.0
            module.handle(ctp_data_capture(SRC, FWD, origin=SRC, seqno=i,
                                           timestamp=timestamp))
            # FWD never retransmits; push time past the watchdog timeout.
            module.handle(ctp_beacon_capture(ROOT, parent=ROOT, etx=0,
                                             timestamp=timestamp + 1.5))
        assert alerts
        assert alerts[0].attack == "blackhole"  # 100% drop ratio
        assert alerts[0].suspects == (FWD,)
        assert kb.get("ForwardingAnomaly", bool, entity=FWD) is True

    def test_partial_dropping_classified_selective(self):
        module = ForwardingMisbehaviorModule(
            params={"detectionThresh": 3, "blackholeRatio": 0.9}
        )
        kb, alerts = bind(module)
        self._warm_up(module)
        for i in range(10):
            timestamp = 1.0 + i * 2.0
            module.handle(ctp_data_capture(SRC, FWD, origin=SRC, seqno=i,
                                           timestamp=timestamp))
            if i % 2 == 0:  # forwards half of the traffic
                module.handle(ctp_data_capture(FWD, ROOT, origin=SRC, seqno=i,
                                               timestamp=timestamp + 0.3, thl=1))
            module.handle(ctp_beacon_capture(ROOT, parent=ROOT, etx=0,
                                             timestamp=timestamp + 1.5))
        assert alerts
        assert alerts[0].attack == "selective_forwarding"

    def test_honest_forwarder_not_accused(self):
        module = ForwardingMisbehaviorModule(params={"detectionThresh": 3})
        _, alerts = bind(module)
        self._warm_up(module)
        for i in range(10):
            timestamp = 1.0 + i * 2.0
            module.handle(ctp_data_capture(SRC, FWD, origin=SRC, seqno=i,
                                           timestamp=timestamp))
            module.handle(ctp_data_capture(FWD, ROOT, origin=SRC, seqno=i,
                                           timestamp=timestamp + 0.3, thl=1))
        assert alerts == []

    def test_root_is_exempt(self):
        """Frames delivered to the collection root need no retransmission."""
        module = ForwardingMisbehaviorModule(params={"detectionThresh": 2})
        _, alerts = bind(module)
        self._warm_up(module)
        for i in range(6):
            timestamp = 1.0 + i * 2.0
            module.handle(ctp_data_capture(FWD, ROOT, origin=SRC, seqno=i,
                                           timestamp=timestamp, thl=1))
            module.handle(ctp_beacon_capture(FWD, parent=ROOT, etx=1,
                                             timestamp=timestamp + 1.5))
        assert alerts == []

    def test_out_of_range_forwarder_not_monitored(self):
        """A forwarder the sniffer can barely hear must not be judged."""
        module = ForwardingMisbehaviorModule(
            params={"detectionThresh": 2, "monitorRssi": -82.0}
        )
        _, alerts = bind(module)
        # FWD's transmissions arrive at the edge of sensitivity.
        module.handle(ctp_beacon_capture(FWD, parent=ROOT, etx=1,
                                         timestamp=0.0, rssi=-89.0))
        module.handle(ctp_beacon_capture(FWD, parent=ROOT, etx=1,
                                         timestamp=0.1, rssi=-89.0))
        for i in range(6):
            timestamp = 1.0 + i * 2.0
            module.handle(ctp_data_capture(SRC, FWD, origin=SRC, seqno=i,
                                           timestamp=timestamp))
            module.handle(ctp_beacon_capture(SRC, parent=FWD, etx=2,
                                             timestamp=timestamp + 1.5))
        assert alerts == []

    def test_wormhole_knowledge_suppresses_blackhole(self):
        module = ForwardingMisbehaviorModule(params={"detectionThresh": 3})
        kb, alerts = bind(module)
        kb.put("WormholeInvolving", True, entity=FWD)
        self._warm_up(module)
        for i in range(6):
            timestamp = 1.0 + i * 2.0
            module.handle(ctp_data_capture(SRC, FWD, origin=SRC, seqno=i,
                                           timestamp=timestamp))
            module.handle(ctp_beacon_capture(ROOT, parent=ROOT, etx=0,
                                             timestamp=timestamp + 1.5))
        assert alerts == []


class TestDataAlteration:
    def test_tampered_relay_detected(self):
        module = DataAlterationModule(params={"detectionThresh": 2})
        _, alerts = bind(module)
        for i in range(4):
            timestamp = i * 2.0
            module.handle(ctp_data_capture(SRC, FWD, origin=SRC, seqno=i,
                                           timestamp=timestamp))
            # FWD emits a *different* flow than it received: tampering.
            module.handle(ctp_data_capture(FWD, ROOT, origin=SRC,
                                           seqno=i + 7777,
                                           timestamp=timestamp + 0.2, thl=1))
        assert alerts
        assert alerts[0].attack == "data_alteration"
        assert alerts[0].suspects == (FWD,)

    def test_faithful_relay_not_flagged(self):
        module = DataAlterationModule(params={"detectionThresh": 2})
        _, alerts = bind(module)
        for i in range(6):
            timestamp = i * 2.0
            module.handle(ctp_data_capture(SRC, FWD, origin=SRC, seqno=i,
                                           timestamp=timestamp))
            module.handle(ctp_data_capture(FWD, ROOT, origin=SRC, seqno=i,
                                           timestamp=timestamp + 0.2, thl=1))
        assert alerts == []

    def test_mostly_explained_relays_tolerated(self):
        """Missed ingress on a busy honest relay must not accuse it."""
        module = DataAlterationModule(
            params={"detectionThresh": 2, "minFabricationRatio": 0.3}
        )
        _, alerts = bind(module)
        for i in range(20):
            timestamp = i * 1.0
            if i % 10 != 0:  # sniffer hears 90% of the ingress
                module.handle(ctp_data_capture(SRC, FWD, origin=SRC, seqno=i,
                                               timestamp=timestamp))
            module.handle(ctp_data_capture(FWD, ROOT, origin=SRC, seqno=i,
                                           timestamp=timestamp + 0.2, thl=1))
        assert alerts == []

    def test_integrity_protection_knowgget_disables_module(self):
        module = DataAlterationModule()
        kb, _ = bind(module)
        kb.put("Multihop.802154", True)
        assert module.required(kb)
        kb.put("IntegrityProtection", True)
        assert not module.required(kb)

    def test_malformed_integrity_protection_keeps_module_dormant(self):
        """A garbled value fails the requirement; it is not a module crash."""
        bus = EventBus()
        kb = KnowledgeBase(KALIS, bus)
        manager = ModuleManager(
            kb=kb, datastore=DataStore(window_size=10), bus=bus, node_id=KALIS
        )
        module = manager.register(DataAlterationModule())
        kb.put("Multihop.802154", True)
        assert module.active
        kb.put("IntegrityProtection", "maybe")
        assert not module.active
        assert manager.supervisor.health(module.NAME).total_failures == 0


class TestSinkhole:
    def test_second_root_claimant_flagged(self):
        module = SinkholeModule(params={"minAdverts": 2})
        _, alerts = bind(module)
        module.handle(ctp_beacon_capture(ROOT, parent=ROOT, etx=0, timestamp=0.0))
        evil = NodeId("evil")
        module.handle(ctp_beacon_capture(evil, parent=evil, etx=0, timestamp=20.0))
        module.handle(ctp_beacon_capture(evil, parent=evil, etx=0, timestamp=22.0))
        assert alerts
        assert alerts[0].attack == "sinkhole"
        assert alerts[0].suspects == (evil,)
        assert alerts[0].details["established_root"] == "root"

    def test_legitimate_root_rebeaconing_is_fine(self):
        module = SinkholeModule()
        _, alerts = bind(module)
        for i in range(20):
            module.handle(ctp_beacon_capture(ROOT, parent=ROOT, etx=0,
                                             timestamp=i * 5.0))
        assert alerts == []

    def test_single_advert_below_threshold(self):
        module = SinkholeModule(params={"minAdverts": 2})
        _, alerts = bind(module)
        module.handle(ctp_beacon_capture(ROOT, parent=ROOT, etx=0, timestamp=0.0))
        module.handle(ctp_beacon_capture(NodeId("evil"), parent=NodeId("evil"),
                                         etx=0, timestamp=20.0))
        assert alerts == []


class TestWormhole:
    def test_source_anomaly_plus_forwarding_anomaly_correlate(self):
        module = WormholeModule(params={"sourceThresh": 3})
        kb, alerts = bind(module)
        entry, exit_node = NodeId("B1"), NodeId("B2")
        # A peer Kalis shared its forwarding anomaly about B1.
        from repro.core.knowledge import Knowgget

        kb.apply_remote(
            Knowgget(label="ForwardingAnomaly", value="true",
                     creator=NodeId("kalis-2"), entity=entry, collective=True),
            sender=NodeId("kalis-2"),
        )
        # Locally, B2 relays flows that never entered it.
        for i in range(4):
            module.handle(
                mesh_capture(exit_node, NodeId("next"), zsrc=SRC,
                             zdst=NodeId("dst"), seq=i, timestamp=i * 1.0)
            )
        assert any(a.attack == "wormhole" for a in alerts)
        wormhole = [a for a in alerts if a.attack == "wormhole"][0]
        assert set(wormhole.suspects) == {entry, exit_node}
        assert kb.get("TrafficSourceAnomaly", bool, entity=exit_node) is True
        assert kb.get("WormholeInvolving", bool, entity=entry) is True

    def test_no_correlation_without_peer_knowledge(self):
        module = WormholeModule(params={"sourceThresh": 3})
        kb, alerts = bind(module)
        for i in range(6):
            module.handle(
                mesh_capture(NodeId("B2"), NodeId("next"), zsrc=SRC,
                             zdst=NodeId("dst"), seq=i, timestamp=i * 1.0)
            )
        assert not any(a.attack == "wormhole" for a in alerts)

    def test_explained_relays_no_source_anomaly(self):
        module = WormholeModule(params={"sourceThresh": 3})
        kb, _ = bind(module)
        relay = NodeId("honest")
        for i in range(8):
            timestamp = i * 1.0
            module.handle(
                mesh_capture(SRC, relay, zsrc=SRC, zdst=NodeId("dst"),
                             seq=i, timestamp=timestamp)
            )
            module.handle(
                mesh_capture(relay, NodeId("dst"), zsrc=SRC, zdst=NodeId("dst"),
                             seq=i, timestamp=timestamp + 0.2)
            )
        assert kb.get("TrafficSourceAnomaly", bool, entity=relay) is None
