"""A minimal, deterministic, synchronous pub-sub bus.

The original Kalis implementation is event-driven across threads; for a
deterministic reproduction we dispatch synchronously, in subscription
order, on the publisher's call stack.  This preserves the architecture
(components communicate only through events) while keeping every run
reproducible.

Topics are plain strings.  A subscription may target an exact topic or a
topic prefix (``"packet."`` matches ``"packet.wifi"``), mirroring how
Kalis modules subscribe to families of knowgget keys.

Dispatch is exception-safe: a raising handler never prevents later
subscribers from seeing the event ("security-in-a-box" must keep
protecting while components degrade, §IV).  Each failure is counted
per topic and re-published as a :class:`DeadLetter` on
:data:`DEADLETTER_TOPIC`, where supervisors and diagnostics can pick it
up; failures raised *by* dead-letter handlers are counted but not
re-routed, so the bus can never recurse into itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.util.naming import callable_name

Handler = Callable[["Event"], None]

#: Topic on which handler failures are re-published as DeadLetter events.
DEADLETTER_TOPIC = "bus.deadletter"


@dataclass(frozen=True)
class Event:
    """An event published on a bus: a topic plus an arbitrary payload."""

    topic: str
    payload: Any = None


@dataclass(frozen=True)
class DeadLetter:
    """One handler failure, routed to :data:`DEADLETTER_TOPIC`.

    :param topic: topic of the event whose handler raised.
    :param event: the event that was being dispatched.
    :param handler: best-effort name of the failing handler.
    :param error: the exception the handler raised.
    """

    topic: str
    event: Event
    handler: str
    error: BaseException

    def describe(self) -> str:
        return (
            f"handler {self.handler!r} on topic {self.topic!r} raised "
            f"{type(self.error).__name__}: {self.error}"
        )


@dataclass
class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; use to unsubscribe."""

    topic: str
    prefix: bool
    handler: Handler
    active: bool = True


@dataclass
class _BusStats:
    delivered: int = 0
    per_topic: Dict[str, int] = field(default_factory=dict)
    errors_per_topic: Dict[str, int] = field(default_factory=dict)


class EventBus:
    """Synchronous pub-sub with exact-topic and prefix subscriptions."""

    def __init__(self) -> None:
        self._exact: Dict[str, List[Subscription]] = {}
        self._prefix: List[Subscription] = []
        self._stats = _BusStats()
        self._dispatching = 0
        self._pending_unsubscribes: List[Subscription] = []
        self._telemetry = None
        self._telemetry_node: Optional[str] = None

    def bind_telemetry(self, telemetry, node: str) -> None:
        """Attach a :class:`repro.obs.Telemetry` for per-topic dispatch metrics."""
        self._telemetry = telemetry
        self._telemetry_node = node
        if telemetry is not None:
            metrics = telemetry.metrics
            self._published = metrics.keyed("counter", "bus_published_total", "topic", node=node)
            self._delivered = metrics.keyed("counter", "bus_delivered_total", "topic", node=node)

    # -- subscription --------------------------------------------------------

    def subscribe(self, topic: str, handler: Handler) -> Subscription:
        """Subscribe ``handler`` to events whose topic equals ``topic``."""
        if not topic:
            raise ValueError("topic must be non-empty")
        subscription = Subscription(topic=topic, prefix=False, handler=handler)
        self._exact.setdefault(topic, []).append(subscription)
        return subscription

    def subscribe_prefix(self, prefix: str, handler: Handler) -> Subscription:
        """Subscribe ``handler`` to all topics starting with ``prefix``."""
        if not prefix:
            raise ValueError("prefix must be non-empty")
        subscription = Subscription(topic=prefix, prefix=True, handler=handler)
        self._prefix.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Deactivate a subscription.

        Safe to call from inside a handler: the removal is deferred until
        the current dispatch completes, but the subscription stops
        receiving events immediately.
        """
        subscription.active = False
        if self._dispatching:
            self._pending_unsubscribes.append(subscription)
        else:
            self._remove(subscription)

    def _remove(self, subscription: Subscription) -> None:
        if subscription.prefix:
            if subscription in self._prefix:
                self._prefix.remove(subscription)
        else:
            bucket = self._exact.get(subscription.topic)
            if bucket and subscription in bucket:
                bucket.remove(subscription)
                if not bucket:
                    del self._exact[subscription.topic]

    # -- publication ---------------------------------------------------------

    def publish(self, topic: str, payload: Any = None) -> int:
        """Publish an event; returns the number of handlers that succeeded.

        A raising handler does not abort the dispatch: remaining
        subscribers still fire, the failure is counted, and a
        :class:`DeadLetter` is re-published on :data:`DEADLETTER_TOPIC`
        once the dispatch completes.  ``delivered`` accounting stays
        exact under failure — only handlers that returned normally count.
        """
        event = Event(topic=topic, payload=payload)
        self._stats.per_topic[topic] = self._stats.per_topic.get(topic, 0) + 1

        targets: List[Subscription] = []
        targets.extend(self._exact.get(topic, ()))
        targets.extend(s for s in self._prefix if topic.startswith(s.topic))

        if not targets:
            return 0

        self._dispatching += 1
        delivered = 0
        failures: List[DeadLetter] = []
        try:
            # Iterate over a snapshot so handlers may subscribe/unsubscribe.
            for subscription in list(targets):
                if not subscription.active:
                    continue
                try:
                    subscription.handler(event)
                except Exception as error:
                    self._stats.errors_per_topic[topic] = (
                        self._stats.errors_per_topic.get(topic, 0) + 1
                    )
                    failures.append(
                        DeadLetter(
                            topic=topic,
                            event=event,
                            handler=_handler_name(subscription.handler),
                            error=error,
                        )
                    )
                else:
                    delivered += 1
        finally:
            self._dispatching -= 1
            if not self._dispatching and self._pending_unsubscribes:
                for stale in self._pending_unsubscribes:
                    self._remove(stale)
                self._pending_unsubscribes.clear()
        self._stats.delivered += delivered
        telemetry = self._telemetry
        if telemetry is not None:
            self._published[topic].inc()
            if delivered:
                self._delivered[topic].inc(delivered)
            if failures:
                telemetry.metrics.counter("bus_errors_total").inc(
                    len(failures), topic=topic, node=self._telemetry_node
                )
        if failures and topic != DEADLETTER_TOPIC:
            # Failures of dead-letter handlers are counted above but not
            # re-routed — the recursion must ground out somewhere.
            for deadletter in failures:
                if telemetry is not None:
                    telemetry.metrics.counter("bus_deadletters_total").inc(
                        topic=topic, node=self._telemetry_node
                    )
                    telemetry.event(
                        "bus.deadletter",
                        node=self._telemetry_node,
                        topic=topic,
                        handler=deadletter.handler,
                        error=type(deadletter.error).__name__,
                    )
                self.publish(DEADLETTER_TOPIC, deadletter)
        return delivered

    # -- introspection -------------------------------------------------------

    def subscriber_count(self, topic: Optional[str] = None) -> int:
        """Number of active subscriptions, optionally for one exact topic."""
        if topic is not None:
            exact = sum(1 for s in self._exact.get(topic, ()) if s.active)
            prefixed = sum(
                1 for s in self._prefix if s.active and topic.startswith(s.topic)
            )
            return exact + prefixed
        exact_total = sum(
            1 for bucket in self._exact.values() for s in bucket if s.active
        )
        return exact_total + sum(1 for s in self._prefix if s.active)

    @property
    def published_count(self) -> int:
        return sum(self._stats.per_topic.values())

    @property
    def delivered_count(self) -> int:
        return self._stats.delivered

    @property
    def error_count(self) -> int:
        """Total handler failures absorbed across all topics."""
        return sum(self._stats.errors_per_topic.values())

    def topic_counts(self) -> Dict[str, int]:
        """Copy of per-topic publish counters (for diagnostics and tests)."""
        return dict(self._stats.per_topic)

    def error_counts(self) -> Dict[str, int]:
        """Copy of per-topic handler-failure counters."""
        return dict(self._stats.errors_per_topic)


def _handler_name(handler: Handler) -> str:
    """A stable, human-readable name for a subscribed callable."""
    return callable_name(handler)
