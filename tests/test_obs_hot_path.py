"""The telemetry hot path: bound series handles, one span per capture.

Per-capture hooks bind each metric series once, when the sink is
attached, and reuse the handle; these tests hold that path to the
unbound registry API it replaces:

- a hypothesis oracle drives random label sets and values through bound
  handles, keyed-handle maps and the unbound API, and requires
  identical registry snapshots;
- after a rebind (``attach_telemetry``) or a checkpoint restore every
  count lands in the current sink, never in a stale one;
- the deterministic metric records of two canonical runs are pinned to
  their sha256, so binding can never change what is counted.
"""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import capture, restore
from repro.core.kalis import KalisNode
from repro.experiments import chaos_scenario, icmp_flood_scenario
from repro.experiments.soak_scenario import build_e1_deployment
from repro.net.packets.base import Medium
from repro.obs import DEFAULT_BUCKETS_US, MetricsRegistry, Span, Telemetry
from repro.obs.export import canonical_telemetry_lines
from repro.util.ids import NodeId

# -- bound vs unbound oracle -------------------------------------------------

LABEL_SETS = [
    {},
    {"node": "a"},
    {"node": "b"},
    {"node": "a", "module": "m"},
    {"module": "m", "node": "a", "topic": "knowledge.x$y"},
]
#: Keys of the open ``key`` label of a keyed-handle map; the enum binds
#: through its ``str``, as the per-medium hooks do.
KEYS = ["capture", "knowledge.x$y", Medium.WIFI]
VALUES = st.one_of(
    st.sampled_from(DEFAULT_BUCKETS_US),
    st.sampled_from([0.0, -1.0, -1e9, math.inf, 1e12]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=10**6),
)
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["counter", "gauge", "histogram"]),
        st.integers(min_value=0, max_value=len(LABEL_SETS) - 1),
        st.sampled_from(KEYS),
        VALUES,
    ),
    max_size=40,
)


def _apply(kind, target, value, **labels):
    """One operation on a bound handle (no labels) or a metric (labels)."""
    if kind == "counter":
        target.inc(value, **labels)
    elif kind == "gauge":
        target.set(value, **labels)
    else:
        target.observe(value, **labels)


def _linear_bucket(value, buckets):
    """The bucket the pre-bisect linear scan chose."""
    for index, bound in enumerate(buckets):
        if value <= bound:
            return index
    return len(buckets)


class TestBoundHandlesMatchTheRegistry:
    @settings(max_examples=150, deadline=None)
    @given(operations=OPERATIONS)
    def test_bound_and_unbound_snapshots_are_identical(self, operations):
        bound_registry, unbound_registry = MetricsRegistry(), MetricsRegistry()
        keyed_registry, unbound_keyed_registry = MetricsRegistry(), MetricsRegistry()
        # Bind every label set up front: the untouched ones must create
        # no series.  Keyed maps register their metric and bind a key's
        # series on its first lookup; every key is looked up once here,
        # before any value is recorded.
        handles, keyed = {}, {}
        for kind in ("counter", "gauge", "histogram"):
            for index, labels in enumerate(LABEL_SETS):
                handles[kind, index] = getattr(bound_registry, kind)(
                    f"m_{kind}"
                ).labelled(**labels)
                keyed[kind, index] = keyed_registry.keyed(kind, f"m_{kind}", "key", **labels)
        assert keyed_registry.names() == []
        for handles_by_key in keyed.values():
            for key in KEYS:
                handles_by_key[key]
        assert keyed_registry.snapshot() == []

        observed = {}
        for kind, index, key, value in operations:
            labels = LABEL_SETS[index]
            _apply(kind, handles[kind, index], value)
            _apply(kind, getattr(unbound_registry, kind)(f"m_{kind}"), value, **labels)
            _apply(kind, keyed[kind, index][key], value)
            _apply(
                kind,
                getattr(unbound_keyed_registry, kind)(f"m_{kind}"),
                value,
                key=key,
                **labels,
            )
            if kind == "histogram":
                observed.setdefault(index, []).append(value)

        bound, unbound = bound_registry.snapshot(), unbound_registry.snapshot()
        assert json.dumps(bound, sort_keys=True) == json.dumps(unbound, sort_keys=True)
        touched = {(kind, index) for kind, index, _, _ in operations}
        assert len(bound) == len(touched)
        keyed_snapshot = keyed_registry.snapshot()
        assert json.dumps(keyed_snapshot, sort_keys=True) == json.dumps(
            unbound_keyed_registry.snapshot(), sort_keys=True
        )
        touched_keys = {(kind, index, str(key)) for kind, index, key, _ in operations}
        assert len(keyed_snapshot) == len(touched_keys)

        histogram = bound_registry.histogram("m_histogram")
        buckets = histogram.buckets
        for index, values in observed.items():
            [series] = [
                value for key, value in histogram.series()
                if dict(key) == LABEL_SETS[index]
            ]
            expected = [0] * (len(buckets) + 1)
            for value in values:
                expected[_linear_bucket(value, buckets)] += 1
            assert series.bucket_counts == expected

    def test_time_observes_even_when_the_call_raises(self):
        registry = MetricsRegistry()
        timer = registry.histogram("t_us", wall=True).labelled(module="m")
        assert timer.time(lambda x: x * 2, 21) == 42

        def boom(_):
            raise KeyError("x")

        with pytest.raises(KeyError):
            timer.time(boom, None)
        assert registry.histogram("t_us").count(module="m") == 2


# -- spans -------------------------------------------------------------------


def _e1_captures(instances=6):
    built = icmp_flood_scenario.build(seed=7, symptom_instances=instances)
    return [record.capture for record in built.trace]


class TestOneSpanPerCapture:
    def test_span_is_its_own_context_manager(self):
        telemetry = Telemetry()
        span = telemetry.span("work", node="n1")
        assert isinstance(span, Span)
        with span as entered:
            assert entered is span and telemetry.current_span() is span
        assert span.wall_us is not None and telemetry.current_span() is None

    def test_recorder_renders_spans_only_on_read(self):
        telemetry = Telemetry()
        with telemetry.span("work", node="n1") as span:
            pass
        [stored] = telemetry.recorder._rings["n1"]
        assert stored is span
        assert telemetry.recorder.ring("n1") == [span.to_dict()]

    def test_replay_opens_one_span_per_capture(self):
        captures = _e1_captures()
        telemetry = Telemetry()
        node = KalisNode(NodeId("kalis-1"), telemetry=telemetry)
        for item in captures:
            node.feed(item)
        assert telemetry.spans_finished == len(captures)
        names = {entry.get("name") for entry in telemetry.recorder.ring("kalis-1")}
        assert "module.handle" not in names
        histogram = telemetry.metrics.histogram("module_handle_wall_us", wall=True)
        invocations = telemetry.metrics.counter("module_invocations_total")
        assert sum(s.count for _, s in histogram.series()) == invocations.total() > 0

    def test_failing_handle_records_a_module_error_event(self):
        telemetry = Telemetry()
        node = KalisNode(NodeId("kalis-1"), telemetry=telemetry)
        module = node.manager.module("TopologyDiscoveryModule")

        def boom(_capture):
            raise ZeroDivisionError("injected")

        module.handle = boom
        [first] = _e1_captures(instances=1)[:1]
        node.feed(first)
        ring = telemetry.recorder.ring("kalis-1")
        [error] = [entry for entry in ring if entry["name"] == "module.error"]
        [span] = [entry for entry in ring if entry["type"] == "span"]
        assert error["attrs"] == {
            "module": "TopologyDiscoveryModule",
            "error": "ZeroDivisionError",
        }
        assert span["name"] == "kalis.capture" and error["span"] == span["id"]
        failures = telemetry.metrics.counter("module_failures_total")
        assert failures.value(node="kalis-1", module="TopologyDiscoveryModule") == 1


# -- rebind and restore ------------------------------------------------------


def _metric_json(telemetry):
    return json.dumps(telemetry.metrics.snapshot(), sort_keys=True)


class TestRebindAndRestore:
    def test_attach_telemetry_moves_every_later_count(self):
        captures = _e1_captures()
        half = len(captures) // 2
        old, new = Telemetry(), Telemetry()
        node = KalisNode(NodeId("kalis-1"), telemetry=old)
        for item in captures[:half]:
            node.feed(item)
        node.attach_telemetry(new)
        frozen, frozen_spans = _metric_json(old), old.spans_finished

        def boom(_capture):
            raise ZeroDivisionError("injected")

        node.manager.module("TopologyDiscoveryModule").handle = boom
        for item in captures[half:]:
            node.feed(item)

        assert _metric_json(old) == frozen
        assert old.spans_finished == frozen_spans
        rest = len(captures) - half
        metrics = new.metrics
        assert new.spans_finished == rest
        assert metrics.counter("captures_total").total() == rest
        assert metrics.counter("datastore_added_total").total() == rest
        assert metrics.counter("module_failures_total").total() > 0
        assert metrics.counter("supervisor_transitions_total").total() > 0
        assert metrics.counter("bus_published_total").total() > 0

    def test_restored_node_writes_into_the_restored_registry(self):
        clean = build_e1_deployment(seed=7, symptom_instances=6, telemetry=Telemetry())
        clean.run_to(clean.end_time)

        deployment = build_e1_deployment(
            seed=7, symptom_instances=6, telemetry=Telemetry()
        )
        deployment.run_to(deployment.end_time / 2)
        before = _metric_json(deployment.telemetry)
        restored = restore(capture(deployment))

        restored.run_to(restored.end_time)
        assert _metric_json(deployment.telemetry) == before
        restored_counts = restored.telemetry.metrics.counter("captures_total")
        clean_counts = clean.telemetry.metrics.counter("captures_total")
        assert restored_counts.total() == clean_counts.total() > 0

    def test_node_rebound_before_a_snapshot_writes_into_the_restored_new_sink(self):
        deployment = build_e1_deployment(
            seed=7, symptom_instances=6, telemetry=Telemetry()
        )
        deployment.run_to(deployment.end_time / 3)
        new = Telemetry()
        deployment.kalis_nodes[0].attach_telemetry(new)
        deployment.run_to(deployment.end_time * 2 / 3)
        old_before, new_before = _metric_json(deployment.telemetry), _metric_json(new)
        old_captures = deployment.telemetry.metrics.counter("captures_total").total()
        new_captures = new.metrics.counter("captures_total").total()
        assert old_captures > 0 and new_captures > 0

        restored = restore(capture(deployment))
        [node] = restored.kalis_nodes
        restored_new = node.telemetry
        assert restored_new is not new and restored_new is not restored.telemetry
        restored.run_to(restored.end_time)

        # Neither original sink moves; the restored copy of the old sink
        # gains no node-level count; the restored copy of the new sink
        # gains every later capture, datastore add and bus publish.
        assert _metric_json(deployment.telemetry) == old_before
        assert _metric_json(new) == new_before
        old_copy = restored.telemetry.metrics
        assert old_copy.counter("captures_total").total() == old_captures
        metrics = restored_new.metrics
        rest = node.comm.total_captures - old_captures - new_captures
        assert rest > 0
        assert metrics.counter("captures_total").total() == new_captures + rest
        assert metrics.counter("datastore_added_total").total() == new_captures + rest
        assert metrics.counter("bus_published_total").total() > new.metrics.counter(
            "bus_published_total"
        ).total()


# -- pinned metric records ---------------------------------------------------

#: sha256 of the wall-stripped ``type: "metric"`` export records, joined
#: by newlines.  The values were computed before the per-capture hooks
#: bound their series; a change here means telemetry counts differently.
E1_SEED7_METRICS_SHA256 = (
    "29c1a28ccb49024dc05acb2a3a3142136439a9936301c1437102e30efa7e515c"
)
CHAOS_SEED23_METRICS_SHA256 = (
    "bda9fbaa551afbdf62a211d22ebe657a6d7c9deb623035bd73d2662642b0a62d"
)


def _metric_records_sha256(telemetry):
    lines = [
        line for line in canonical_telemetry_lines(telemetry)
        if json.loads(line)["type"] == "metric"
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class TestPinnedMetricRecords:
    def test_e1_seed7(self):
        telemetry = Telemetry()
        icmp_flood_scenario.run(seed=7, symptom_instances=50, telemetry=telemetry)
        assert _metric_records_sha256(telemetry) == E1_SEED7_METRICS_SHA256

    def test_chaos_seed23(self):
        telemetry = Telemetry()
        chaos_scenario.run(seed=23, telemetry=telemetry)
        assert _metric_records_sha256(telemetry) == CHAOS_SEED23_METRICS_SHA256
