"""Base types shared by all packet models.

A packet is an immutable dataclass.  Layering is explicit: a WiFi frame
carries an IP packet in its ``payload``, the IP packet carries a TCP
segment, and so on.  :meth:`Packet.layers` walks the chain outermost to
innermost; :meth:`Packet.find_layer` fetches the first layer of a given
type — the two operations every dissector and detection module needs.

Sizes matter for traffic statistics and the resource model, so every
layer reports a header size and the total ``size_bytes`` is computed by
summing the chain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Iterator, Optional, Type, TypeVar

P = TypeVar("P", bound="Packet")


class Medium(enum.Enum):
    """Physical communication medium a frame travels on."""

    IEEE_802_15_4 = "802.15.4"
    WIFI = "wifi"
    BLUETOOTH = "bluetooth"
    WIRED = "wired"

    def __str__(self) -> str:  # also the value of a "medium" metric label
        return self.value


class PacketKind(enum.Enum):
    """Coarse traffic classification used by the Traffic Stats module.

    These are the categories the paper's Traffic Statistics Collection
    module tracks: "TCP SYN, TCP ACK, ICMP Requests, ICMP Responses,
    ZigBee plain packets, and Collection Tree Protocol packets" — plus a
    few extras our modules use.
    """

    TCP_SYN = "TCPSYN"
    TCP_ACK = "TCPACK"
    TCP_OTHER = "TCPOther"
    UDP = "UDP"
    ICMP_REQUEST = "ICMPRequest"
    ICMP_REPLY = "ICMPReply"
    ICMP_OTHER = "ICMPOther"
    ZIGBEE_DATA = "ZigBeeData"
    ZIGBEE_ROUTING = "ZigBeeRouting"
    CTP_DATA = "CTPData"
    CTP_ROUTING = "CTPRouting"
    RPL_CONTROL = "RPLControl"
    SIXLOWPAN = "6LoWPAN"
    WIFI_MGMT = "WiFiMgmt"
    BLE = "BLE"
    MAC_802154 = "802154MAC"
    OTHER = "Other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Packet:
    """Base class for all protocol layers.

    Subclasses are frozen dataclasses; a ``payload`` field (if present)
    holds the next-inner layer or ``None``.
    """

    #: Bytes of header this layer contributes; subclasses override.
    HEADER_BYTES = 0

    @property
    def payload(self) -> Optional["Packet"]:
        """The next-inner layer; ``None`` for innermost layers.

        Subclasses with an encapsulated layer define a ``payload``
        dataclass field; this property reads the instance dict so that it
        works whether or not the subclass field declares a default.
        """
        return self.__dict__.get("payload")

    @property
    def protocol(self) -> str:
        """Short protocol name, e.g. ``"tcp"``."""
        return type(self).__name__.lower()

    @property
    def size_bytes(self) -> int:
        """Total on-the-wire size of this layer and everything inside it."""
        inner = self.payload
        inner_size = inner.size_bytes if inner is not None else 0
        return self.HEADER_BYTES + inner_size + self._extra_bytes()

    def _extra_bytes(self) -> int:
        """Non-header bytes this layer carries itself (e.g. raw data)."""
        return 0

    def kind(self) -> PacketKind:
        """Traffic-statistics category for this layer alone."""
        return PacketKind.OTHER

    # -- layer navigation ----------------------------------------------------

    def layers(self) -> Iterator["Packet"]:
        """Yield this layer and every encapsulated layer, outermost first."""
        current: Optional[Packet] = self
        while current is not None:
            yield current
            current = current.payload

    def find_layer(self, layer_type: Type[P]) -> Optional[P]:
        """Return the first layer of ``layer_type`` in the stack, or None."""
        for layer in self.layers():
            if isinstance(layer, layer_type):
                return layer
        return None

    def has_layer(self, layer_type: Type["Packet"]) -> bool:
        return self.find_layer(layer_type) is not None

    def innermost(self) -> "Packet":
        """Return the deepest layer in the stack."""
        last = self
        for layer in self.layers():
            last = layer
        return last

    def traffic_kind(self) -> PacketKind:
        """Most-specific traffic category across the whole stack.

        Walks inner-to-outer and returns the first non-``OTHER`` kind, so
        a WiFi frame carrying an IP/TCP SYN classifies as ``TCP_SYN``.
        """
        stack = list(self.layers())
        for layer in reversed(stack):
            layer_kind = layer.kind()
            if layer_kind is not PacketKind.OTHER:
                return layer_kind
        return PacketKind.OTHER

    def summary(self) -> str:
        """One-line human-readable rendering of the full stack."""
        parts = []
        for layer in self.layers():
            attrs = []
            for field_info in fields(layer):
                if field_info.name == "payload":
                    continue
                value = getattr(layer, field_info.name)
                if isinstance(value, enum.Enum):
                    value = value.value
                attrs.append(f"{field_info.name}={value}")
            parts.append(f"{layer.protocol}({', '.join(attrs)})")
        return " / ".join(parts)


@dataclass(frozen=True)
class RawPayload(Packet):
    """Opaque application bytes.

    Consumer IoT devices encrypt their payloads (paper §IV-A), so Kalis
    treats them as opaque; only the length is observable.
    """

    length: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"payload length must be non-negative, got {self.length}")

    def _extra_bytes(self) -> int:
        return self.length
