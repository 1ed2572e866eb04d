"""Tests for the module base classes, requirements, registry and manager."""

import pytest

from repro.core.datastore import DataStore
from repro.core.knowledge import KnowledgeBase
from repro.core.manager import ModuleManager
from repro.core.modules.base import (
    DetectionModule,
    KalisModule,
    ModuleContext,
    Requirement,
    SensingModule,
)
from repro.core.modules.registry import (
    available_modules,
    create_module,
    module_class,
    register_module,
)
from repro.eventbus.bus import EventBus
from repro.util.ids import NodeId
from tests.conftest import wifi_icmp_capture

K = NodeId("kalis-1")


def make_kb():
    return KnowledgeBase(K, EventBus())


class TestRequirement:
    def test_equals_satisfied(self):
        kb = make_kb()
        kb.put("Multihop", True)
        assert Requirement(label="Multihop", equals=True).satisfied(kb)
        assert not Requirement(label="Multihop", equals=False).satisfied(kb)

    def test_absent_knowgget_fails(self):
        assert not Requirement(label="Multihop", equals=True).satisfied(make_kb())
        assert not Requirement(label="Multihop").satisfied(make_kb())

    def test_exists_only(self):
        kb = make_kb()
        kb.put("Multihop", False)
        assert Requirement(label="Multihop").satisfied(kb)

    def test_negation_still_needs_presence(self):
        kb = make_kb()
        requirement = Requirement(label="Mobility", equals=True, negate=True)
        assert not requirement.satisfied(kb)  # absent -> fails even negated
        kb.put("Mobility", False)
        assert requirement.satisfied(kb)
        kb.put("Mobility", True)
        assert not requirement.satisfied(kb)

    def test_when_absent_decides_an_absent_knowgget(self):
        kb = make_kb()
        requirement = Requirement(
            label="IntegrityProtection", equals=True, negate=True, when_absent=True
        )
        assert requirement.satisfied(kb)
        kb.put("IntegrityProtection", False)
        assert requirement.satisfied(kb)
        kb.put("IntegrityProtection", True)
        assert not requirement.satisfied(kb)
        kb.put("IntegrityProtection", "garbled")
        assert not requirement.satisfied(kb)
        assert "(or absent)" in requirement.describe()

    def test_unparseable_value_fails(self):
        kb = make_kb()
        kb.put("Count", "not-a-number")
        assert not Requirement(label="Count", equals=3, expect=int).satisfied(kb)

    def test_describe(self):
        assert "Multihop == True" in Requirement(label="Multihop", equals=True).describe()
        assert "exists" in Requirement(label="Multihop").describe()


class _CountingModule(DetectionModule):
    NAME = "CountingModule"
    REQUIREMENTS = (Requirement(label="Enable", equals=True),)

    def __init__(self, params=None):
        super().__init__(params)
        self.seen = []
        self.activations = 0
        self.deactivations = 0

    def on_activate(self):
        self.activations += 1

    def on_deactivate(self):
        self.deactivations += 1

    def process(self, capture):
        self.seen.append(capture)


class _AlwaysOnSensor(SensingModule):
    NAME = "AlwaysOnSensor"


def build_manager(knowledge_driven=True):
    bus = EventBus()
    kb = KnowledgeBase(K, bus)
    manager = ModuleManager(
        kb=kb, datastore=DataStore(), bus=bus, node_id=K,
        knowledge_driven=knowledge_driven,
    )
    return manager, kb


class TestModuleManager:
    def test_detection_module_dormant_without_knowledge(self):
        manager, _ = build_manager()
        module = manager.register(_CountingModule())
        assert not module.active

    def test_activation_follows_knowledge(self):
        manager, kb = build_manager()
        module = manager.register(_CountingModule())
        kb.put("Enable", True)
        assert module.active
        kb.put("Enable", False)
        assert not module.active
        assert module.activations == 1
        assert module.deactivations == 1

    def test_sensing_modules_always_active(self):
        manager, _ = build_manager()
        sensor = manager.register(_AlwaysOnSensor())
        assert sensor.active

    def test_traditional_mode_activates_everything(self):
        manager, _ = build_manager(knowledge_driven=False)
        module = manager.register(_CountingModule())
        assert module.active

    def test_forced_active_overrides_requirements(self):
        manager, _ = build_manager()
        module = manager.register(_CountingModule(), force_active=True)
        assert module.active

    def test_captures_routed_only_to_active(self):
        manager, kb = build_manager()
        module = manager.register(_CountingModule())
        capture = wifi_icmp_capture(NodeId("a"), NodeId("b"), "10.23.0.1", 0.0)
        manager.on_capture(capture)
        assert module.seen == []
        kb.put("Enable", True)
        manager.on_capture(capture)
        assert len(module.seen) == 1

    def test_work_units_weighted(self):
        manager, kb = build_manager()

        class Heavy(_CountingModule):
            NAME = "HeavyModule"
            COST_WEIGHT = 2.5

        manager.register(Heavy())
        kb.put("Enable", True)
        manager.on_capture(wifi_icmp_capture(NodeId("a"), NodeId("b"), "x", 0.0))
        assert manager.work_units == 2.5

    def test_duplicate_registration_rejected(self):
        manager, _ = build_manager()
        manager.register(_CountingModule())
        with pytest.raises(ValueError):
            manager.register(_CountingModule())

    def test_activation_table(self):
        manager, kb = build_manager()
        manager.register(_CountingModule())
        manager.register(_AlwaysOnSensor())
        assert manager.activation_table() == {
            "CountingModule": False,
            "AlwaysOnSensor": True,
        }

    def test_state_bytes_counts_active_only(self):
        manager, kb = build_manager()
        module = manager.register(_CountingModule())
        assert manager.approximate_state_bytes() == 0
        kb.put("Enable", True)
        assert manager.approximate_state_bytes() > 0


class TestRegistry:
    def test_builtin_modules_available(self):
        names = available_modules()
        for expected in (
            "TopologyDiscoveryModule",
            "TrafficStatsModule",
            "MobilityAwarenessModule",
            "IcmpFloodModule",
            "SmurfModule",
            "ForwardingMisbehaviorModule",
            "ReplicationStaticModule",
            "ReplicationMobileModule",
            "WormholeModule",
            "SybilModule",
            "SinkholeModule",
            "SynFloodModule",
            "HelloFloodModule",
            "DataAlterationModule",
            "SpoofingModule",
        ):
            assert expected in names

    def test_create_by_name_with_params(self):
        module = create_module("IcmpFloodModule", params={"threshold": 5})
        assert module.threshold == 5

    def test_unknown_module(self):
        with pytest.raises(KeyError, match="known modules"):
            create_module("NoSuchModule")

    def test_module_class_lookup(self):
        assert module_class("IcmpFloodModule").NAME == "IcmpFloodModule"
        with pytest.raises(KeyError):
            module_class("Nope")

    def test_register_rejects_non_module(self):
        with pytest.raises(TypeError):
            register_module(dict)


class TestParamCoercion:
    def test_string_params_coerced_to_default_types(self):
        module = KalisModule(params={"a": "3", "b": "2.5", "c": "true"})
        assert module.param("a", 1) == 3
        assert module.param("b", 1.0) == 2.5
        assert module.param("c", False) is True
        assert module.param("missing", 7) == 7

    def test_context_alert_counter(self):
        bus = EventBus()
        ctx = ModuleContext(
            kb=KnowledgeBase(K, bus), datastore=DataStore(), bus=bus, node_id=K
        )
        alert = ctx.raise_alert("x", detected_by="m", timestamp=1.0)
        assert ctx.alerts_raised == 1
        assert alert.kalis_node == K
