"""Tests for repro.obs: metrics, spans, flight recorder, export,
report — plus the end-to-end determinism contract on a real pipeline.

The layer's two load-bearing promises (DESIGN.md §8):

- enabling telemetry never changes detection behaviour (alert logs are
  byte-identical with and without it);
- two same-seed runs produce byte-identical exports once every
  ``"wall"`` key is stripped (``canonical_lines`` is the oracle).
"""

import json

import pytest

from repro.core.kalis import KalisNode
from repro.eventbus.bus import DEADLETTER_TOPIC
from repro.experiments import icmp_flood_scenario
from repro.obs import (
    ExportFormatError,
    FlightRecorder,
    MetricsRegistry,
    Telemetry,
    canonical_lines,
    export_jsonl,
    load_export,
    load_export_with_stats,
    read_jsonl,
    render_report,
    report_data,
    strip_wall,
)
from repro.util.clock import ManualClock
from repro.util.ids import NodeId


class TestMetrics:
    def test_counter_inc_and_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("packets_total")
        counter.inc(medium="wifi")
        counter.inc(3, medium="wifi")
        counter.inc(medium="zigbee")
        assert counter.value(medium="wifi") == 4
        assert counter.value(medium="zigbee") == 1
        assert counter.total() == 5

    def test_registry_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")

    def test_gauge_overwrites(self):
        gauge = MetricsRegistry().gauge("window_size")
        gauge.set(10, node="a")
        gauge.set(25, node="a")
        assert gauge.value(node="a") == 25
        assert gauge.value(node="missing") is None

    def test_histogram_buckets_and_sum(self):
        histogram = MetricsRegistry().histogram("latency_us")
        for value in (5, 60, 60, 9000):
            histogram.observe(value, module="m")
        assert histogram.count(module="m") == 4
        assert histogram.sum_of(module="m") == pytest.approx(9125)

    def test_snapshot_sorted_and_json_clean(self):
        registry = MetricsRegistry()
        registry.counter("zzz").inc()
        registry.counter("aaa").inc(node="b")
        registry.counter("aaa").inc(node="a")
        snapshot = registry.snapshot()
        names = [record["name"] for record in snapshot]
        assert names == sorted(names)
        labels = [r["labels"] for r in snapshot if r["name"] == "aaa"]
        assert labels == [{"node": "a"}, {"node": "b"}]
        json.dumps(snapshot)  # must be directly serializable

    def test_wall_histogram_hides_timings_under_wall_key(self):
        registry = MetricsRegistry()
        registry.histogram("handle_wall_us", wall=True).observe(123.4, module="m")
        [record] = registry.snapshot()
        assert record["count"] == 1  # deterministic part stays visible
        assert "sum" in record["wall"] and "buckets" in record["wall"]
        stripped = strip_wall(record)
        assert "wall" not in stripped and stripped["count"] == 1

    def test_prometheus_text_renders(self):
        registry = MetricsRegistry()
        registry.counter("bus_published_total").inc(topic="alert")
        text = registry.prometheus_text()
        assert 'bus_published_total{topic="alert"} 1' in text


class TestSpans:
    def test_nesting_gives_parentage_and_shared_trace(self):
        telemetry = Telemetry()
        with telemetry.span("outer", node="n1") as outer:
            with telemetry.span("inner") as inner:
                assert telemetry.current_span() is inner
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert inner.node == "n1"  # inherited from the enclosing span
        assert telemetry.current_span() is None

    def test_explicit_trace_id_crosses_scheduling_gaps(self):
        telemetry = Telemetry()
        trace = telemetry.new_trace()
        with telemetry.span("deliver", trace_id=trace) as span:
            pass
        assert span.trace_id == trace

    def test_sim_time_from_bound_clock(self):
        telemetry = Telemetry()
        clock = ManualClock()
        telemetry.bind_clock(clock)
        clock.advance_to(42.0)
        with telemetry.span("work") as span:
            pass
        assert span.t == 42.0
        # First bind wins: a second clock must not change time sourcing.
        telemetry.bind_clock(ManualClock())
        assert telemetry.now == 42.0

    def test_wall_duration_measured_but_quarantined(self):
        telemetry = Telemetry()
        with telemetry.span("work") as span:
            pass
        assert span.wall_us is not None and span.wall_us >= 0
        data = span.to_dict()
        assert data["wall"]["us"] == round(span.wall_us, 3)
        assert "wall" not in strip_wall(data)

    def test_finished_spans_land_in_the_node_ring(self):
        telemetry = Telemetry()
        with telemetry.span("work", node="n1"):
            pass
        [entry] = telemetry.recorder.ring("n1")
        assert entry["name"] == "work"
        assert telemetry.spans_finished == 1

    def test_event_tags_enclosing_span(self):
        telemetry = Telemetry()
        with telemetry.span("outer", node="n1") as outer:
            entry = telemetry.event("alert.raised", attack="flood")
        assert entry["trace"] == outer.trace_id
        assert entry["span"] == outer.span_id
        assert entry["node"] == "n1"
        assert entry["attrs"] == {"attack": "flood"}


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(10):
            recorder.record("n1", {"i": i})
        assert [e["i"] for e in recorder.ring("n1")] == [7, 8, 9]
        assert recorder.entries_recorded == 10

    def test_dump_budget_suppresses_storms(self):
        recorder = FlightRecorder(capacity=4, max_dumps=2)
        recorder.record("n1", {"i": 0})
        assert recorder.dump("r1", sim_time=1.0) is not None
        assert recorder.dump("r2", sim_time=2.0) is not None
        assert recorder.dump("r3", sim_time=3.0) is None
        assert len(recorder.dumps) == 2
        assert recorder.dumps_suppressed == 1

    def test_dump_scoped_to_one_node(self):
        recorder = FlightRecorder()
        recorder.record("n1", {"i": 1})
        recorder.record("n2", {"i": 2})
        dump = recorder.dump("reason", sim_time=0.0, node="n1")
        assert list(dump["rings"]) == ["n1"]


class TestExport:
    def _small_telemetry(self):
        telemetry = Telemetry()
        telemetry.metrics.counter("captures_total").inc(5, medium="wifi")
        with telemetry.span("work", node="n1"):
            telemetry.event("thing", detail="x")
        telemetry.flight_dump("bus.deadletter", node="n1", topic="alert")
        return telemetry

    def test_jsonl_roundtrip_meta_first(self, tmp_path):
        path = export_jsonl(self._small_telemetry(), tmp_path / "t.jsonl")
        records = load_export(path)
        assert records[0]["type"] == "meta"
        assert records[0]["spans_finished"] == 1
        types = {record["type"] for record in records}
        assert types == {"meta", "metric", "flight-dump", "ring"}

    def test_gzip_roundtrip(self, tmp_path):
        telemetry = self._small_telemetry()
        plain = export_jsonl(telemetry, tmp_path / "t.jsonl")
        gzipped = export_jsonl(telemetry, tmp_path / "t.jsonl.gz")
        assert gzipped.read_bytes()[:2] == b"\x1f\x8b"  # actually gzipped
        assert load_export(gzipped) == load_export(plain)
        assert canonical_lines(gzipped) == canonical_lines(plain)

    def test_canonical_lines_drop_every_wall_key(self, tmp_path):
        path = export_jsonl(self._small_telemetry(), tmp_path / "t.jsonl")
        assert not any('"wall"' in line for line in canonical_lines(path))

    def test_load_rejects_non_exports(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"metric"}\n')
        with pytest.raises(ValueError, match="missing meta line"):
            load_export(path)
        # A lone malformed line is a tolerated in-flight tail, so the
        # failure is the absent meta line, not a parse error.
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="missing meta line"):
            load_export(path)

    def test_malformed_interior_line_raises_with_context(self, tmp_path):
        path = export_jsonl(self._small_telemetry(), tmp_path / "bad.jsonl")
        lines = path.read_text().splitlines()
        lines[1] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ExportFormatError, match=r"bad\.jsonl:2"):
            load_export(path)

    def test_trailing_partial_line_tolerated_and_counted(self, tmp_path):
        path = export_jsonl(self._small_telemetry(), tmp_path / "t.jsonl")
        whole = load_export(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"metric","v":2,"na')  # mid-write tail
        records, skipped = load_export_with_stats(path)
        assert skipped == 1
        assert records == whole

    def test_record_missing_version_field_raises(self, tmp_path):
        path = export_jsonl(self._small_telemetry(), tmp_path / "t.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"metric","name":"x"}\n')
        with pytest.raises(ExportFormatError) as excinfo:
            load_export(path)
        assert 'missing the "v" version field' in str(excinfo.value)
        assert excinfo.value.line > 1

    def test_v1_exports_still_load(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text(
            '{"type":"meta","version":1,"sim_end":0.0,"spans_finished":0,'
            '"events_recorded":0,"dumps":0,"dumps_suppressed":0}\n'
            '{"type":"metric","name":"x","kind":"counter","series":[]}\n'
        )
        records = load_export(path)
        assert len(records) == 2  # v1 records carry no "v"; accepted

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        path.write_text('{"type":"meta","v":99}\n')
        with pytest.raises(ExportFormatError, match="unsupported export version"):
            load_export(path)


@pytest.fixture(scope="module")
def flood_built():
    return icmp_flood_scenario.build(seed=7, symptom_instances=3)


def _replay(built, telemetry=None):
    node = KalisNode(NodeId("kalis-1"), telemetry=telemetry)
    node.replay_trace(built.trace)
    return node


class TestPipelineTelemetry:
    def test_counters_track_the_replay(self, flood_built):
        telemetry = Telemetry()
        node = _replay(flood_built, telemetry)
        metrics = telemetry.metrics
        assert metrics.counter("captures_total").total() == len(flood_built.trace)
        assert metrics.counter("module_invocations_total").total() > 0
        assert metrics.counter("datastore_added_total").total() > 0
        assert metrics.counter("alerts_total").total() == len(node.alerts.alerts) > 0

    def test_alert_log_invariant_under_telemetry(self, flood_built):
        with_telemetry = _replay(flood_built, Telemetry())
        without = _replay(flood_built)
        as_tuples = lambda node: [  # noqa: E731 - local shorthand
            (a.timestamp, a.attack, a.detected_by) for a in node.alerts.alerts
        ]
        assert as_tuples(with_telemetry) == as_tuples(without)

    def test_same_input_exports_are_canonically_identical(
        self, flood_built, tmp_path
    ):
        paths = []
        for i in range(2):
            telemetry = Telemetry()
            _replay(flood_built, telemetry)
            paths.append(export_jsonl(telemetry, tmp_path / f"run{i}.jsonl"))
        assert canonical_lines(paths[0]) == canonical_lines(paths[1])

    def test_deadletter_triggers_flight_dump(self):
        telemetry = Telemetry()
        node = KalisNode(NodeId("kalis-1"), telemetry=telemetry)

        def failing_handler(event):
            raise RuntimeError("boom")

        node.bus.subscribe("some.topic", failing_handler)
        node.bus.publish("some.topic", payload=None)
        [dump] = telemetry.recorder.dumps
        assert dump["reason"] == "bus.deadletter"
        assert dump["attrs"]["topic"] == "some.topic"
        assert dump["attrs"]["error"] == "RuntimeError"
        assert telemetry.metrics.counter("bus_deadletters_total").total() == 1

    def test_quarantine_triggers_flight_dump(self):
        telemetry = Telemetry()
        node = KalisNode(NodeId("kalis-1"), telemetry=telemetry)
        supervisor = node.manager.supervisor
        for _ in range(supervisor.failure_threshold):
            supervisor.record_failure(
                "TrafficStatsModule", "handle", RuntimeError("crash")
            )
        assert any(
            dump["reason"] == "module.quarantine"
            and dump["attrs"]["module"] == "TrafficStatsModule"
            for dump in telemetry.recorder.dumps
        )
        transitions = telemetry.metrics.counter("supervisor_transitions_total")
        assert transitions.total() >= 1


class TestReport:
    def test_report_names_the_failures(self, flood_built, tmp_path):
        telemetry = Telemetry()
        node = _replay(flood_built, telemetry)

        def failing_handler(event):
            raise RuntimeError("boom")

        node.bus.subscribe("dashboard.feed", failing_handler)
        node.bus.publish("dashboard.feed", payload=None)

        path = export_jsonl(telemetry, tmp_path / "t.jsonl")
        report = render_report(path)
        assert "IcmpFloodModule" in report  # hottest-modules table
        assert "dashboard.feed" in report  # noisiest-topics table
        assert "bus.deadletter" in report  # flight-dump section

    def test_report_rejects_missing_file(self, tmp_path):
        with pytest.raises((OSError, ValueError)):
            render_report(tmp_path / "absent.jsonl")

    def test_report_data_is_json_safe_and_matches_text(
        self, flood_built, tmp_path
    ):
        telemetry = Telemetry()
        _replay(flood_built, telemetry)
        path = export_jsonl(telemetry, tmp_path / "t.jsonl")
        data = report_data(path, top=5)
        json.dumps(data)  # machine-readable: must serialize as-is
        assert data["meta"]["version"] == 2
        assert data["partial_lines_skipped"] == 0
        assert data["modules"], "hot-module table should not be empty"
        text = render_report(path, top=5)
        for row in data["modules"]:
            assert row["module"] in text

    def test_read_jsonl_strict_mode_raises_on_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a":1}\n{"b"')
        records, skipped = read_jsonl(path)
        assert [record for _, record in records] == [{"a": 1}]
        assert skipped == 1


class TestExportStrictMode:
    """Format-contract violations must fail loudly, with file:line."""

    def _export(self, tmp_path, name="t.jsonl"):
        telemetry = Telemetry()
        telemetry.metrics.counter("packets_total").inc()
        return export_jsonl(telemetry, tmp_path / name)

    def test_truncated_gzip_raises_with_context(self, tmp_path):
        path = self._export(tmp_path, "export.jsonl.gz")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(ExportFormatError) as excinfo:
            load_export_with_stats(path)
        assert "truncated or corrupt stream" in str(excinfo.value)
        assert excinfo.value.path == str(path)
        assert excinfo.value.line == 0

    def test_missing_file_is_not_a_format_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_export_with_stats(tmp_path / "absent.jsonl")

    def test_v1_export_loads_without_per_record_version(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        lines = [
            {"type": "meta", "version": 1, "sim_end": 0.0},
            {"type": "counter", "name": "packets_total", "value": 3},
        ]
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in lines),
            encoding="utf-8",
        )
        records, skipped = load_export_with_stats(path)
        assert skipped == 0
        assert records[1]["name"] == "packets_total"

    def test_mixed_version_record_raises_at_its_line(self, tmp_path):
        path = self._export(tmp_path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type":"counter","name":"rogue","value":1}\n')
        line_count = len(path.read_text(encoding="utf-8").splitlines())
        with pytest.raises(ExportFormatError) as excinfo:
            load_export_with_stats(path)
        assert excinfo.value.line == line_count
        assert 'missing the "v" version field' in excinfo.value.reason

    def test_future_version_is_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"type":"meta","v":99}\n', encoding="utf-8")
        with pytest.raises(ExportFormatError, match="unsupported export version"):
            load_export_with_stats(path)
