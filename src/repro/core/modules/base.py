"""Module base classes and the knowledge-requirement predicate.

Each module is able, "given a particular instance of the Knowledge
Base, to determine whether its services are required" (§IV-B4).  That
determination is declarative here: a module lists
:class:`Requirement` predicates, and :meth:`KalisModule.required`
evaluates them.  Declarative requirements buy two things:

- the Module Manager needs no per-module knowledge;
- the paper's Figure 3 feature-vs-attack taxonomy can be machine-checked
  against the module library (see :mod:`repro.taxonomy` and its tests).

An *unknown* knowgget (never written) leaves a requirement unsatisfied,
so detection modules stay dormant until sensing modules have actually
established the relevant feature — the behaviour the paper's reactivity
experiment (§VI-C) relies on.  A requirement on an a-priori feature may
opt out with ``when_absent=True``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.core.alerts import ALERT_TOPIC, Alert
from repro.core.datastore import DataStore
from repro.core.knowledge import KnowledgeBase
from repro.eventbus.bus import EventBus
from repro.sim.capture import Capture
from repro.util.ids import NodeId

#: Marker for "the knowgget must exist, any value".
EXISTS = object()


@dataclass(frozen=True)
class Requirement:
    """A predicate over one knowgget.

    :param label: knowgget label to inspect (local creator).
    :param equals: required value, or :data:`EXISTS` for presence-only.
    :param expect: type to parse the stored value as.
    :param negate: invert the predicate (``label != equals``); an absent
        knowgget still fails unless ``when_absent`` says otherwise.
    :param when_absent: the result when the knowgget is absent.  The
        default (False) keeps modules dormant until knowledge exists;
        True suits a-priori features such as prevention techniques,
        whose absence means "not deployed".
    """

    label: str
    equals: Any = EXISTS
    expect: type = bool
    negate: bool = False
    when_absent: bool = False

    def satisfied(self, kb: KnowledgeBase) -> bool:
        knowgget = kb.get_knowgget(self.label)
        if knowgget is None:
            return self.when_absent
        if self.equals is EXISTS:
            return not self.negate
        try:
            value = knowgget.parsed(self.expect)
        except (ValueError, TypeError):
            return False
        matches = value == self.equals
        return not matches if self.negate else matches

    def describe(self) -> str:
        if self.equals is EXISTS:
            text = f"{self.label} exists"
        else:
            operator = "!=" if self.negate else "=="
            text = f"{self.label} {operator} {self.equals!r}"
        return f"{text} (or absent)" if self.when_absent else text


class ModuleContext:
    """Everything a module may touch: knowledge, history, alert output.

    Modules receive no simulator handle and no ground truth — their
    world is captures, knowggets and the data-store window.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        datastore: DataStore,
        bus: EventBus,
        node_id: NodeId,
    ) -> None:
        self.kb = kb
        self.datastore = datastore
        self.bus = bus
        self.node_id = node_id
        self.alerts_raised = 0

    def raise_alert(
        self,
        attack: str,
        detected_by: str,
        timestamp: float,
        suspects: Iterable[NodeId] = (),
        victim: Optional[NodeId] = None,
        confidence: float = 1.0,
        details: Optional[Dict[str, Any]] = None,
    ) -> Alert:
        """Publish an alert on the bus; returns it."""
        alert = Alert(
            attack=attack,
            timestamp=timestamp,
            detected_by=detected_by,
            kalis_node=self.node_id,
            suspects=tuple(suspects),
            victim=victim,
            confidence=confidence,
            details=details if details is not None else {},
        )
        self.alerts_raised += 1
        self.bus.publish(ALERT_TOPIC, alert)
        return alert


class KalisModule:
    """Base class for all Kalis modules.

    Subclasses set :attr:`NAME` (unique, used by the registry and in
    config files), :attr:`REQUIREMENTS`, and optionally
    :attr:`COST_WEIGHT` — the relative per-capture processing cost fed
    into the CPU proxy (a heavier analysis costs more than a counter
    bump).

    :param params: configuration parameters (from the config file's
        ``ModuleName(key=value, ...)`` syntax); unknown keys are kept so
        subclasses can validate what they care about.
    """

    NAME = "module"
    KIND = "module"
    REQUIREMENTS: Tuple[Requirement, ...] = ()
    COST_WEIGHT = 1.0
    #: Attacks this module can classify (detection modules override).
    DETECTS: Tuple[str, ...] = ()

    def __init__(self, params: Optional[Dict[str, Any]] = None) -> None:
        self.params: Dict[str, Any] = dict(params) if params else {}
        self.ctx: Optional[ModuleContext] = None
        self.active = False
        self.processed_count = 0

    # -- lifecycle ------------------------------------------------------------

    def bind(self, ctx: ModuleContext) -> None:
        """Attach the module to its context (once, at registration)."""
        self.ctx = ctx

    def required(self, kb: KnowledgeBase) -> bool:
        """Should this module be active given the current knowledge?"""
        return all(requirement.satisfied(kb) for requirement in self.REQUIREMENTS)

    def on_activate(self) -> None:
        """Hook invoked when the Module Manager activates the module."""

    def on_deactivate(self) -> None:
        """Hook invoked on deactivation; drop transient analysis state."""

    # -- processing -------------------------------------------------------------

    def process(self, capture: Capture) -> None:
        """Analyze one capture; subclasses implement."""

    def handle(self, capture: Capture) -> None:
        """Entry point used by the Module Manager."""
        self.processed_count += 1
        self.process(capture)

    # -- helpers ------------------------------------------------------------------

    def param(self, name: str, default: Any) -> Any:
        """Fetch a config parameter coerced to the default's type."""
        value = self.params.get(name, default)
        if isinstance(default, bool):
            if isinstance(value, str):
                return value.lower() == "true"
            return bool(value)
        if isinstance(default, float):
            return float(value)
        if isinstance(default, int) and not isinstance(value, bool):
            return int(value)
        return value

    def approximate_state_bytes(self) -> int:
        """Rough footprint of the module's analysis state (RAM proxy).

        The instance ``__dict__`` is copied into a plain dict before
        sizing: CPython attributes a key-sharing dict's shared-keys
        object to each instance by live refcount, so sizing it directly
        would depend on how many sibling instances exist — not on this
        module's state.
        """
        return _deep_sizeof(dict(self.__dict__), exclude={"ctx", "params"})

    def describe_requirements(self) -> str:
        if not self.REQUIREMENTS:
            return "always"
        return " and ".join(r.describe() for r in self.REQUIREMENTS)


class SensingModule(KalisModule):
    """Discovers features and writes knowggets; always required."""

    KIND = "sensing"


class DetectionModule(KalisModule):
    """Analyzes traffic + knowledge and raises alerts."""

    KIND = "detection"


def _deep_sizeof(obj: Any, exclude: set, _depth: int = 0) -> int:
    """Recursive ``sys.getsizeof`` over plain containers (bounded depth)."""
    if _depth > 6:
        return sys.getsizeof(obj)
    total = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(key, str) and key in exclude:
                continue
            total += _deep_sizeof(key, exclude, _depth + 1)
            total += _deep_sizeof(value, exclude, _depth + 1)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            total += _deep_sizeof(item, exclude, _depth + 1)
    return total
