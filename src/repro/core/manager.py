"""The Module Manager.

"Coordinates all the modules, activating/deactivating them as needed,
depending on changes in the Knowledge Base, routing new packet events to
all the interested parties, and collecting alerts about detected
incidents" (§IV-B4).  Activation is publish-subscribe: the manager
subscribes to all knowledge changes and re-evaluates module
requirements whenever the Knowledge Base moves (§V, "Dynamic Detection
Module Configuration").

**Incremental activation.**  :meth:`ModuleManager.register` indexes
each knowledge-driven module under the knowledge topics its
``REQUIREMENTS`` read, and a change re-checks only that topic's
dependents, in registration order.  This is sound because
:meth:`Requirement.satisfied` reads nothing but the local, entity-less
key ``<owner>$label``: remote writes, entity-scoped writes and labels no
requirement names cannot change a declarative module's answer.  A
module that overrides ``required()`` may read anything, so it is
re-checked on every change.  Sensing and forced-active modules are
never re-checked — their state cannot change.  Knowledge written by an
activation hook during a re-check queues its own dependents for a
further round, so the handler returns only at a fixed point.

The manager is also where the **traditional-IDS baseline** lives: with
``knowledge_driven=False`` every registered module is active at all
times, exactly how the paper emulates a traditional IDS for its
comparison ("running our system without Knowledge Base, and with all
the modules active at all times", §VI-B).

Work accounting: every capture routed to an active module adds that
module's ``COST_WEIGHT`` to :attr:`work_units` — the input to the CPU
proxy in :mod:`repro.metrics.resources`.

**Supervision.**  The paper sells Kalis as "security-in-a-box" that
keeps protecting the network while the world degrades (§IV, §VI-D), so
a crashing detection module must not take the whole engine down.  The
:class:`ModuleSupervisor` wraps every module entry point
(``handle`` / ``on_activate`` / ``required``) in crash isolation with a
per-module circuit breaker: ``N`` consecutive failures quarantine the
module, a sim-clock cooldown later a single half-open probe capture is
routed, and a successful probe restores it.  Repeated probe failures
escalate the cooldown and eventually disable the module permanently.
Every transition is published on the bus (:data:`TOPIC_MODULE_FAILURE`,
:data:`TOPIC_MODULE_QUARANTINE`, :data:`TOPIC_MODULE_RESTORE`) so peers,
dashboards and tests observe the health of the module library the same
way they observe alerts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.core.datastore import DataStore
from repro.core.knowledge import KNOWLEDGE_TOPIC_PREFIX, KnowledgeBase
from repro.core.modules.base import KalisModule, ModuleContext, SensingModule
from repro.eventbus.bus import EventBus
from repro.sim.capture import Capture
from repro.util.ids import NodeId

#: Published on every isolated module crash; payload is a ModuleFailure.
TOPIC_MODULE_FAILURE = "module.failure"
#: Published when the circuit breaker opens; payload is a ModuleHealth.
TOPIC_MODULE_QUARANTINE = "module.quarantine"
#: Published when a half-open probe succeeds; payload is a ModuleHealth.
TOPIC_MODULE_RESTORE = "module.restore"


class ModuleState(enum.Enum):
    """Circuit-breaker state of one supervised module."""

    HEALTHY = "healthy"
    QUARANTINED = "quarantined"
    HALF_OPEN = "half-open"
    DISABLED = "disabled"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ModuleFailure:
    """One isolated module crash (the payload of ``module.failure``)."""

    module: str
    operation: str  # "handle", "on_activate" or "required"
    error: BaseException
    timestamp: float

    def describe(self) -> str:
        return (
            f"{self.module}.{self.operation} raised "
            f"{type(self.error).__name__}: {self.error} at t={self.timestamp:g}"
        )


@dataclass
class ModuleHealth:
    """Supervision record for one module."""

    module: str
    state: ModuleState = ModuleState.HEALTHY
    consecutive_failures: int = 0
    total_failures: int = 0
    quarantine_count: int = 0
    probe_failures: int = 0
    quarantined_until: float = 0.0
    last_error: Optional[BaseException] = None


class ModuleSupervisor:
    """Per-module circuit breaker with deterministic sim-clock cooldowns.

    State machine, per module::

        HEALTHY --(threshold consecutive failures)--> QUARANTINED
        QUARANTINED --(cooldown elapsed, next capture)--> HALF_OPEN
        HALF_OPEN --(probe succeeds)--> HEALTHY        (module.restore)
        HALF_OPEN --(probe fails)--> QUARANTINED       (escalated cooldown)
        HALF_OPEN --(max_probe_failures reached)--> DISABLED  (permanent)

    Time comes from capture timestamps (:meth:`advance_to`), so the
    breaker is bit-for-bit reproducible on simulated or replayed traffic.

    :param bus: bus for health events; may be None at construction (a
        standalone supervisor handed to :class:`ModuleManager` or
        ``KalisNode``) — the manager binds its own bus in that case.
    :param failure_threshold: consecutive failures that open the breaker.
    :param cooldown: quarantine duration before the first probe, seconds.
    :param cooldown_factor: cooldown multiplier per repeated quarantine.
    :param max_probe_failures: failed probes before permanent disable.
    """

    def __init__(
        self,
        bus: Optional[EventBus] = None,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        cooldown_factor: float = 2.0,
        max_probe_failures: int = 3,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown <= 0:
            raise ValueError(f"cooldown must be positive, got {cooldown}")
        if cooldown_factor < 1.0:
            raise ValueError(
                f"cooldown_factor must be >= 1, got {cooldown_factor}"
            )
        if max_probe_failures < 1:
            raise ValueError(
                f"max_probe_failures must be >= 1, got {max_probe_failures}"
            )
        self.bus = bus
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.cooldown_factor = cooldown_factor
        self.max_probe_failures = max_probe_failures
        self.now = 0.0
        self.failures: List[ModuleFailure] = []
        self._health: Dict[str, ModuleHealth] = {}
        self.telemetry = None
        self.telemetry_node: Optional[str] = None

    def bind_telemetry(self, telemetry, node: Optional[str] = None) -> None:
        """Attach a :class:`repro.obs.Telemetry` for transition metrics."""
        self.telemetry = telemetry
        self.telemetry_node = node

    def _publish(self, topic: str, payload) -> None:
        if self.bus is not None:
            self.bus.publish(topic, payload)

    def _note_transition(self, module: str, state: ModuleState) -> None:
        if self.telemetry is None:
            return
        labels = {"module": module, "state": state.value}
        if self.telemetry_node is not None:
            labels["node"] = self.telemetry_node
        self.telemetry.metrics.counter("supervisor_transitions_total").inc(**labels)
        self.telemetry.event(
            "supervisor.transition",
            node=self.telemetry_node,
            t=self.now,
            module=module,
            state=state.value,
        )

    # -- time ----------------------------------------------------------------

    def advance_to(self, timestamp: float) -> None:
        """Move the supervisor clock forward (capture timestamps)."""
        if timestamp > self.now:
            self.now = timestamp

    # -- registration / introspection ---------------------------------------

    def track(self, name: str) -> ModuleHealth:
        """Start (or fetch) supervision state for a module."""
        if name not in self._health:
            self._health[name] = ModuleHealth(module=name)
        return self._health[name]

    def health(self, name: str) -> ModuleHealth:
        return self._health[name]

    def state_of(self, name: str) -> ModuleState:
        return self._health[name].state

    def health_table(self) -> Dict[str, str]:
        """Module name -> breaker state, next to ``activation_table()``."""
        return {name: health.state.value for name, health in self._health.items()}

    # -- routing decisions ---------------------------------------------------

    def should_route(self, name: str) -> bool:
        """May a capture be routed to this module right now?

        Transitions QUARANTINED -> HALF_OPEN when the cooldown has
        elapsed: the capture that asked becomes the probe.
        """
        health = self.track(name)
        if health.state is ModuleState.HEALTHY:
            return True
        if health.state is ModuleState.DISABLED:
            return False
        if health.state is ModuleState.QUARANTINED:
            if self.now >= health.quarantined_until:
                health.state = ModuleState.HALF_OPEN
                return True
            return False
        return True  # HALF_OPEN: the probe is in flight

    # -- outcome recording ---------------------------------------------------

    def record_success(self, name: str) -> None:
        health = self.track(name)
        if health.state is ModuleState.HALF_OPEN:
            health.state = ModuleState.HEALTHY
            health.consecutive_failures = 0
            health.probe_failures = 0
            self._note_transition(name, ModuleState.HEALTHY)
            self._publish(TOPIC_MODULE_RESTORE, health)
        elif health.state is ModuleState.HEALTHY:
            health.consecutive_failures = 0

    def record_failure(
        self, name: str, operation: str, error: BaseException
    ) -> ModuleFailure:
        health = self.track(name)
        failure = ModuleFailure(
            module=name, operation=operation, error=error, timestamp=self.now
        )
        self.failures.append(failure)
        health.total_failures += 1
        health.last_error = error
        self._publish(TOPIC_MODULE_FAILURE, failure)
        if health.state is ModuleState.HALF_OPEN:
            health.probe_failures += 1
            if health.probe_failures >= self.max_probe_failures:
                health.state = ModuleState.DISABLED
                health.quarantined_until = float("inf")
                self._note_transition(name, ModuleState.DISABLED)
            else:
                self._quarantine(health)
        elif health.state is ModuleState.HEALTHY:
            health.consecutive_failures += 1
            if health.consecutive_failures >= self.failure_threshold:
                self._quarantine(health)
        return failure

    def _quarantine(self, health: ModuleHealth) -> None:
        health.state = ModuleState.QUARANTINED
        duration = self.cooldown * (
            self.cooldown_factor ** health.quarantine_count
        )
        health.quarantined_until = self.now + duration
        health.quarantine_count += 1
        self._note_transition(health.module, ModuleState.QUARANTINED)
        self._publish(TOPIC_MODULE_QUARANTINE, health)


class ModuleManager:
    """Owns the module set, their activation state, and capture routing."""

    def __init__(
        self,
        kb: KnowledgeBase,
        datastore: DataStore,
        bus: EventBus,
        node_id: NodeId,
        knowledge_driven: bool = True,
        supervisor: Optional[ModuleSupervisor] = None,
    ) -> None:
        self.kb = kb
        self.datastore = datastore
        self.bus = bus
        self.node_id = node_id
        self.knowledge_driven = knowledge_driven
        self.telemetry = None
        self.supervisor = (
            supervisor if supervisor is not None else ModuleSupervisor(bus)
        )
        if self.supervisor.bus is None:
            self.supervisor.bus = bus
        self._modules: Dict[str, KalisModule] = {}
        self._order: List[str] = []
        self._forced_active: Set[str] = set()
        self.work_units = 0.0
        self.activation_events = 0
        self.deactivation_events = 0
        #: Topic prefix of local, entity-less keys: ``<owner>$<label>``.
        self._local_topic = f"{KNOWLEDGE_TOPIC_PREFIX}{kb.owner.value}$"
        #: knowledge topic -> registration indexes of the modules whose
        #: requirements read it.
        self._dependents: Dict[str, List[int]] = {}
        #: registration indexes of modules that override ``required()``.
        self._recheck_always: List[int] = []
        #: modules queued for the next re-check round (None when idle).
        self._pending: Optional[Set[int]] = None
        kb.subscribe_all(self._on_knowledge_change)

    def bind_telemetry(self, telemetry) -> None:
        """Attach a :class:`repro.obs.Telemetry` for per-module metrics."""
        self.telemetry = telemetry
        if telemetry is not None:
            metrics = telemetry.metrics
            node = str(self.node_id)
            self._invocations = metrics.keyed(
                "counter", "module_invocations_total", "module", node=node
            )
            self._handle_wall_us = metrics.keyed(
                "histogram", "module_handle_wall_us", "module", wall=True, node=node
            )

    # -- registration -----------------------------------------------------------

    def register(self, module: KalisModule, force_active: bool = False) -> KalisModule:
        """Add a module to the library.

        :param force_active: keep the module active regardless of its
            requirements (a config file naming a module in its
            ``modules`` section activates it by default).
        """
        if module.NAME in self._modules:
            raise ValueError(f"module {module.NAME!r} already registered")
        context = ModuleContext(
            kb=self.kb, datastore=self.datastore, bus=self.bus, node_id=self.node_id
        )
        module.bind(context)
        self._modules[module.NAME] = module
        self._order.append(module.NAME)
        self.supervisor.track(module.NAME)
        if force_active:
            self._forced_active.add(module.NAME)
        if self.knowledge_driven and not (
            force_active or isinstance(module, SensingModule)
        ):
            # Index the knowledge changes that can flip the module's state.
            position = len(self._order) - 1
            if type(module).required is KalisModule.required:
                for requirement in module.REQUIREMENTS:
                    topic = self._local_topic + requirement.label
                    self._dependents.setdefault(topic, []).append(position)
            else:
                self._recheck_always.append(position)
        self._apply_state(module)
        return module

    def module(self, name: str) -> KalisModule:
        return self._modules[name]

    def modules(self) -> List[KalisModule]:
        return [self._modules[name] for name in self._order]

    def active_modules(self) -> List[KalisModule]:
        return [m for m in self.modules() if m.active]

    def active_module_names(self) -> List[str]:
        return [m.NAME for m in self.active_modules()]

    # -- activation --------------------------------------------------------------

    def _should_be_active(self, module: KalisModule) -> bool:
        if not self.knowledge_driven:
            return True
        if module.NAME in self._forced_active:
            return True
        if isinstance(module, SensingModule):
            # Sensing modules are the knowledge source; they run always.
            return True
        try:
            return module.required(self.kb)
        except Exception as error:
            # A crashing requirement predicate fails safe: not required.
            self.supervisor.record_failure(module.NAME, "required", error)
            return False

    def _apply_state(self, module: KalisModule) -> None:
        desired = self._should_be_active(module)
        if desired and not module.active:
            module.active = True
            self.activation_events += 1
            try:
                module.on_activate()
            except Exception as error:
                self.supervisor.record_failure(module.NAME, "on_activate", error)
        elif not desired and module.active:
            module.active = False
            module.on_deactivate()
            self.deactivation_events += 1

    def reevaluate(self, stale: Iterable[int]) -> None:
        """Re-derive the activation of the modules at ``stale`` positions.

        Modules are re-checked in registration order.  Knowledge that an
        activation hook writes meanwhile queues its dependents, which
        are re-checked in a further round before this returns.
        """
        batch = set(stale)
        while batch:
            self._pending = set()
            try:
                for position in sorted(batch):
                    self._apply_state(self._modules[self._order[position]])
            finally:
                batch, self._pending = self._pending, None

    def _on_knowledge_change(self, event) -> None:
        # The topic, not the payload, names the key: ``remove`` publishes None.
        stale = self._dependents.get(event.topic, ())
        if self._recheck_always:
            stale = [*stale, *self._recheck_always]
        if not stale:
            return
        if self._pending is not None:
            self._pending.update(stale)
        else:
            self.reevaluate(stale)

    # -- capture routing --------------------------------------------------------------

    def on_capture(self, capture: Capture) -> None:
        """Route one capture to every active module, in registration order.

        Routing is supervised: a module that raises is isolated (the
        remaining modules still see the capture), repeated failures
        quarantine it, and quarantined modules are skipped — and charged
        no work — until their cooldown elapses and a probe restores them.
        """
        self.supervisor.advance_to(capture.timestamp)
        telemetry = self.telemetry
        for module in self.modules():
            if not module.active:
                continue
            name = module.NAME
            if not self.supervisor.should_route(name):
                continue
            self.work_units += module.COST_WEIGHT
            if telemetry is None:
                try:
                    module.handle(capture)
                except Exception as error:
                    self.supervisor.record_failure(name, "handle", error)
                else:
                    self.supervisor.record_success(name)
                continue
            self._invocations[name].inc()
            try:
                self._handle_wall_us[name].time(module.handle, capture)
            except Exception as error:
                self._note_handle_error(name, capture, error)
                self.supervisor.record_failure(name, "handle", error)
            else:
                self.supervisor.record_success(name)

    def _note_handle_error(self, name: str, capture: Capture, error: Exception) -> None:
        # Recorded before the supervisor sees the failure, so a
        # quarantine flight dump it triggers names the failing module.
        node = str(self.node_id)
        self.telemetry.metrics.counter("module_failures_total").inc(node=node, module=name)
        self.telemetry.event(
            "module.error",
            node=node,
            t=capture.timestamp,
            module=name,
            error=type(error).__name__,
        )

    # -- resource accounting -------------------------------------------------------------

    def approximate_state_bytes(self) -> int:
        """Combined analysis state of all *active* modules."""
        return sum(
            module.approximate_state_bytes() for module in self.active_modules()
        )

    def activation_table(self) -> Dict[str, bool]:
        """Module name -> active, for diagnostics and tests."""
        return {name: self._modules[name].active for name in self._order}

    def health_table(self) -> Dict[str, str]:
        """Module name -> supervisor breaker state, in registration order."""
        states = self.supervisor.health_table()
        return {name: states[name] for name in self._order}
