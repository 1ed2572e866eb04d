"""Data alteration detection module.

Required knowledge: a multi-hop 802.15.4 network **without**
cryptographic integrity protection — the paper's Figure 3 includes
"prevention techniques" as a feature: "cryptographic techniques
deployed on some of the monitored devices make the latter immune to
attacks such as data alteration" (§III-B2).  A static knowgget
``IntegrityProtection = true`` therefore keeps this module dormant; an
absent one means no protection is deployed.

Technique: an extension of the watchdog — a forwarder must retransmit
*what it received*.  When F emits a forwarded data frame (``thl >= 1``,
origin != F) whose flow identity (origin, seqno) was never observed
entering F, the relayed content cannot match anything F legitimately
held, so it was fabricated or altered in transit.
"""

from __future__ import annotations

from typing import Dict

from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.common import EwmaTracker, SlidingWindowCounter
from repro.core.modules.registry import register_module
from repro.net.packets.ctp import CtpDataFrame
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.sim.capture import Capture
from repro.util.ids import NodeId


@register_module
class DataAlterationModule(DetectionModule):
    """In/out watchdog diffing for tampered relays (CTP).

    Parameters: ``ingressWindow`` (default 10 s of remembered inbound
    flows), ``detectionThresh`` (default 2 fabricated relays), ``window``
    (default 30 s), ``cooldown`` (default 20 s per suspect),
    ``minFabricationRatio`` (default 0.3: fraction of a relay's traffic
    that must be fabricated before alerting), ``monitorRssi`` (default
    -82 dBm: weakest signal at which this sniffer trusts that it would
    have overheard the original inbound frame).
    """

    NAME = "DataAlterationModule"
    REQUIREMENTS = (
        Requirement(label="Multihop.802154", equals=True),
        # The prevention-technique feature: integrity-protected traffic
        # cannot be usefully altered, so the module is not needed.
        Requirement(
            label="IntegrityProtection", equals=True, negate=True, when_absent=True
        ),
    )
    DETECTS = ("data_alteration",)
    COST_WEIGHT = 1.5

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.ingress_window = self.param("ingressWindow", 10.0)
        self.detection_thresh = self.param("detectionThresh", 2)
        self.window = self.param("window", 30.0)
        self.cooldown = self.param("cooldown", 20.0)
        self.min_fabrication_ratio = self.param("minFabricationRatio", 0.3)
        self.monitor_rssi = self.param("monitorRssi", -82.0)
        self._ingress = SlidingWindowCounter(self.ingress_window)
        self._fabrications = SlidingWindowCounter(self.window)
        self._explained = SlidingWindowCounter(self.window)
        self._heard_rssi = EwmaTracker(alpha=0.3)
        self._last_heard: Dict[NodeId, float] = {}
        self._last_alert_at: Dict[NodeId, float] = {}

    def on_deactivate(self) -> None:
        self._ingress = SlidingWindowCounter(self.ingress_window)
        self._fabrications = SlidingWindowCounter(self.window)
        self._explained = SlidingWindowCounter(self.window)
        self._last_alert_at.clear()

    def process(self, capture: Capture) -> None:
        mac = capture.packet.find_layer(Ieee802154Frame)
        if mac is None:
            return
        data = mac.payload
        if not isinstance(data, CtpDataFrame):
            return
        now = capture.timestamp
        self._last_heard[mac.src] = now
        self._heard_rssi.observe(mac.src, capture.rssi)
        flow = (data.origin, data.seqno)
        # Record ingress toward the receiver.
        self._ingress.record(now, (mac.dst, flow))
        if self.ctx.kb.get("ChannelDegraded", bool, default=False):
            # Jammed channel: missed ingress proves nothing, and any
            # evidence gathered during the onset is equally suspect.
            self._fabrications = SlidingWindowCounter(self.window)
            self._explained = SlidingWindowCounter(self.window)
            return
        # A forwarded emission (travelled at least one hop, not its own
        # sample) must correspond to some observed ingress at the sender.
        if data.thl >= 1 and data.origin != mac.src:
            if not self._origin_reliably_heard(data.origin, now):
                # The ingress leg may simply be outside our reliable
                # range; a missing ingress then proves nothing about
                # this forwarder.
                return
            if self._ingress.count((mac.src, flow)) == 0:
                self._fabrications.record(now, mac.src)
                self._evaluate(mac.src, now)
            else:
                self._explained.record(now, mac.src)

    def _origin_reliably_heard(self, origin: NodeId, now: float) -> bool:
        """Is the flow's origin comfortably within listening range?

        Same standard as the watchdog's monitorability gate: judging a
        relay's fidelity requires reliably hearing what went *in*, which
        means reliably hearing the sender of the ingress leg.
        """
        last = self._last_heard.get(origin)
        if last is None or now - last > self.ingress_window:
            return False
        mean = self._heard_rssi.mean(origin)
        return mean is not None and mean >= self.monitor_rssi

    def _evaluate(self, forwarder: NodeId, now: float) -> None:
        count = self._fabrications.count(forwarder)
        if count < self.detection_thresh:
            return
        explained = self._explained.count(forwarder)
        ratio = count / max(count + explained, 1)
        if ratio < self.min_fabrication_ratio:
            # Mostly-explained relays: the unexplained ones are frames
            # whose ingress this sniffer simply missed, not tampering.
            return
        last = self._last_alert_at.get(forwarder)
        if last is not None and now - last < self.cooldown:
            return
        self._last_alert_at[forwarder] = now
        self.ctx.raise_alert(
            attack="data_alteration",
            detected_by=self.NAME,
            timestamp=now,
            suspects=(forwarder,),
            confidence=0.85,
            details={"fabricated_relays_in_window": count},
        )
