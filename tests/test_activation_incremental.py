"""Incremental activation: only a changed label's dependents are re-checked.

The differential test drives production :class:`ModuleManager` and the
full-rescan :class:`ReferenceModuleManager` (``tests/activation_reference.py``)
with the same random modules and writes, and requires the same
activation tables, transition counts and supervisor failure counts
after every write.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datastore import DataStore
from repro.core.knowledge import Knowgget, KnowledgeBase, encode_value
from repro.core.manager import ModuleManager
from repro.core.modules.base import (
    EXISTS,
    DetectionModule,
    Requirement,
    SensingModule,
)
from repro.eventbus.bus import EventBus
from repro.util.ids import NodeId
from tests.activation_reference import ReferenceModuleManager

K = NodeId("kalis-1")
PEER = NodeId("kalis-2")
ENTITY = NodeId("mote-1")
#: The label the hook-writing module puts from its activation hooks.
HOOK_LABEL = "H"
LABELS = ("A", "B", "C", HOOK_LABEL)


def build(manager_class=ModuleManager, knowledge_driven=True):
    bus = EventBus()
    kb = KnowledgeBase(K, bus)
    manager = manager_class(
        kb=kb,
        datastore=DataStore(window_size=10),
        bus=bus,
        node_id=K,
        knowledge_driven=knowledge_driven,
    )
    return manager, kb


def declarative(name, requirements, crash_on_activate=False):
    def on_activate(self):
        if crash_on_activate:
            raise RuntimeError("activation crash")

    return type(
        name,
        (DetectionModule,),
        {"NAME": name, "REQUIREMENTS": tuple(requirements), "on_activate": on_activate},
    )


class OverrideModule(DetectionModule):
    """Reads remote and entity-scoped knowledge; crashes on a junk ``C``."""

    NAME = "OverrideModule"

    def required(self, kb):
        if kb.get("C", str, default="") == "junk":
            raise ValueError("malformed C")
        return any(knowgget.value == "true" for knowgget in kb.with_label("A"))


class HookModule(DetectionModule):
    """Writes :data:`HOOK_LABEL` whenever it changes state."""

    NAME = "HookModule"

    def on_activate(self):
        self.ctx.kb.put(HOOK_LABEL, True)

    def on_deactivate(self):
        self.ctx.kb.put(HOOK_LABEL, False)


class Sensor(SensingModule):
    NAME = "Sensor"


def requirement_strategy(labels):
    return st.builds(
        Requirement,
        label=st.sampled_from(labels),
        equals=st.sampled_from([EXISTS, True, False]),
        negate=st.booleans(),
        when_absent=st.booleans(),
    )


module_specs = st.lists(
    st.tuples(
        st.lists(requirement_strategy(LABELS), max_size=3),
        st.booleans(),  # force_active
        st.booleans(),  # crash_on_activate
    ),
    max_size=5,
)
# The hook module never reads its own label, so its hooks cannot
# oscillate it.
hook_requirements = st.lists(
    requirement_strategy([label for label in LABELS if label != HOOK_LABEL]),
    min_size=1,
    max_size=2,
)
values = st.sampled_from([True, False, "junk"])
writes = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(LABELS), values),
        st.tuples(st.just("remove"), st.sampled_from(LABELS)),
        st.tuples(st.just("remote"), st.sampled_from(LABELS), values),
        st.tuples(st.just("entity"), st.sampled_from(LABELS), values),
        st.tuples(st.just("remove_entity"), st.sampled_from(LABELS)),
    ),
    max_size=25,
)


def register_all(manager, specs, hook_reqs, hook_at, override_at):
    modules = [
        (declarative(f"M{i}", reqs, crash)(), forced)
        for i, (reqs, forced, crash) in enumerate(specs)
    ]
    hook_class = type("HookModule", (HookModule,), {"REQUIREMENTS": tuple(hook_reqs)})
    modules.insert(min(hook_at, len(modules)), (hook_class(), False))
    modules.insert(min(override_at, len(modules)), (OverrideModule(), False))
    modules.insert(0, (Sensor(), False))
    for module, forced in modules:
        manager.register(module, force_active=forced)


def apply(kb, write):
    kind, label = write[0], write[1]
    if kind == "put":
        kb.put(label, write[2])
    elif kind == "remove":
        kb.remove(label)
    elif kind == "remote":
        knowgget = Knowgget(
            label=label, value=encode_value(write[2]), creator=PEER, collective=True
        )
        kb.apply_remote(knowgget, PEER)
    elif kind == "entity":
        kb.put(label, write[2], entity=ENTITY)
    else:
        kb.remove(label, entity=ENTITY)


def observed(manager):
    return (
        manager.activation_table(),
        manager.activation_events,
        manager.deactivation_events,
        {
            name: manager.supervisor.health(name).total_failures
            for name in manager.activation_table()
        },
    )


@settings(max_examples=200, deadline=None)
@given(
    specs=module_specs,
    hook_reqs=hook_requirements,
    hook_at=st.integers(0, 5),
    override_at=st.integers(0, 6),
    sequence=writes,
)
def test_incremental_matches_full_rescan(specs, hook_reqs, hook_at, override_at, sequence):
    incremental, kb = build()
    reference, reference_kb = build(ReferenceModuleManager)
    for manager in (incremental, reference):
        register_all(manager, specs, hook_reqs, hook_at, override_at)
    assert observed(incremental) == observed(reference)
    for write in sequence:
        apply(kb, write)
        apply(reference_kb, write)
        assert observed(incremental) == observed(reference), write
        assert kb.snapshot() == reference_kb.snapshot()


class TestIncrementalReevaluation:
    def count_checks(self, monkeypatch):
        checked = []
        real = Requirement.satisfied

        def satisfied(requirement, kb):
            checked.append(requirement.label)
            return real(requirement, kb)

        monkeypatch.setattr(Requirement, "satisfied", satisfied)
        return checked

    def test_only_dependents_are_rechecked(self, monkeypatch):
        manager, kb = build()
        manager.register(declarative("OnA", [Requirement(label="A", equals=True)])())
        manager.register(declarative("OnB", [Requirement(label="B", equals=True)])())
        checked = self.count_checks(monkeypatch)
        kb.put("A", True)
        assert checked == ["A"]
        assert manager.activation_table() == {"OnA": True, "OnB": False}

    def test_dependents_rechecked_in_registration_order(self):
        manager, kb = build()
        activated = []
        for name in ("Z", "Y", "X"):
            module_class = declarative(name, [Requirement(label="A", equals=True)])
            module_class.on_activate = lambda self: activated.append(self.NAME)
            manager.register(module_class())
        kb.put("A", True)
        assert activated == ["Z", "Y", "X"]

    def test_remote_entity_and_unread_writes_recheck_nothing(self, monkeypatch):
        manager, kb = build()
        module = manager.register(
            declarative("OnA", [Requirement(label="A", equals=True)])()
        )
        checked = self.count_checks(monkeypatch)
        kb.put("A", True, entity=ENTITY)
        kb.apply_remote(
            Knowgget(label="A", value="true", creator=PEER, collective=True), PEER
        )
        kb.put("TrafficFrequency.ICMP", 3.5)
        assert checked == []
        assert not module.active

    def test_remove_rechecks_through_the_topic(self):
        """``remove`` publishes no payload; the topic names the key."""
        manager, kb = build()
        module = manager.register(
            declarative("OnA", [Requirement(label="A", equals=True)])()
        )
        kb.put("A", True)
        assert module.active
        kb.remove("A")
        assert not module.active
        assert manager.deactivation_events == 1

    def test_required_override_rechecked_on_every_change(self):
        manager, kb = build()
        calls = []

        class Spy(DetectionModule):
            NAME = "Spy"

            def required(self, kb):
                calls.append(len(kb))
                return False

        manager.register(Spy())
        kb.put("Unrelated", 1)
        kb.put("Unrelated", 2, entity=ENTITY)
        assert calls == [0, 1, 2]

    def test_traditional_mode_rechecks_nothing(self, monkeypatch):
        manager, kb = build(knowledge_driven=False)
        module = manager.register(
            declarative("OnA", [Requirement(label="A", equals=True)])()
        )
        checked = self.count_checks(monkeypatch)
        kb.put("A", False)
        assert checked == []
        assert module.active

    def test_knowledge_written_by_an_activation_hook_is_not_lost(self):
        """A module passed before the hook ran still sees its write."""
        manager, kb = build()

        class Late(DetectionModule):
            NAME = "Late"
            REQUIREMENTS = (Requirement(label="Trigger", equals=True),)

            def on_activate(self):
                self.ctx.kb.put("Derived", True)

        early = manager.register(
            declarative("Early", [Requirement(label="Derived", equals=True)])()
        )
        manager.register(Late())
        kb.put("Trigger", True)
        assert kb.get("Derived", bool) is True
        assert early.active
        assert manager.activation_events == 2
