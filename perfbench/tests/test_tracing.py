"""Tests of the benchmark's own tracing, output checks and entry point.

Run from the repository root with ``python -m pytest perfbench/tests``.
Workloads run at small sizes here; the benchmark itself runs them at
full size.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
from tracer import Tracer
from workloads import WORKLOADS, Delivery8k, E1Replay, FleetShard

from repro.core.alerts import AlertSink
from repro.util.ids import NodeId

ROOT = Path(__file__).resolve().parents[2]


def small(name, seed, scratch):
    """A workload at a size that runs in about a second."""
    if name in ("e1_replay", "e1_telemetry"):
        return WORKLOADS[name](seed, scratch, bursts=6)
    if name == "fleet_shard":
        return FleetShard(seed, scratch, mix={"attacked": 1, "quiet": 1})
    return Delivery8k(seed, scratch, nodes=200)


def test_tracer_self_time_and_reentrant_calls_fold():
    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            return 1

    class Child(Layer):
        def inner(self):
            return super().inner() + 1

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    for owner in (Layer, Child):
        tracer.wrap(owner, "inner", "inner")
    try:
        Child().outer()
    finally:
        tracer.remove()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.self_s["outer"] == pytest.approx(
        tracer.total_s["outer"] - tracer.total_s["inner"]
    )
    assert tracer.root_s == tracer.total_s["outer"]
    assert tracer.span_count == 3
    assert not hasattr(Child.inner, "__wrapped__")


def test_tracer_unwinds_on_exception():
    class Layer:
        def fails(self):
            raise ValueError("boom")

    tracer = Tracer()
    tracer.wrap(Layer, "fails", "fails")
    try:
        with pytest.raises(ValueError):
            Layer().fails()
        assert not tracer._stack
        assert tracer.calls["fails"] == 1
    finally:
        tracer.remove()


def test_wrappers_are_removed_after_install():
    from repro.ckpt import format as ckpt_format
    from repro.fleet import worker as fleet_worker

    tracer = Tracer()
    layers.install(tracer, layers.LayerCounts())
    patched = [(owner, attr) for owner, attr, _original in tracer._patches]
    assert len(patched) > 30
    assert all(hasattr(getattr(o, a), "__wrapped__") for o, a in patched if a not in ("os", "shutil"))
    tracer.remove()
    assert not tracer._patches
    assert ckpt_format.os is os
    assert fleet_worker.shutil is shutil
    assert not any(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in patched)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_metric_with_untraced_digest(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    workload = small(name, WORKLOADS[name].default_seed, tmp_path / "work")
    report = run.run_traced(workload, 0.0, tmp_path / "spans.npz")
    workload.close()
    assert report["failed"] == 0, report["problems"]
    metrics = {metric: value for metric, (value, _unit) in report["metrics"].items()}
    assert list(metrics) == [metric for metric, _unit in layers.METRICS]
    assert 0.0 <= metrics["trace.unattributed_share"] < 1.0
    assert metrics["trace.overhead"] > 0.0
    kalis = metrics["core.comm.captures"] > 0
    fleet = metrics["ckpt.snapshot.capture.calls"] > 0
    sim = metrics["sim.engine.transmit.calls"] > 0
    assert (kalis, fleet, sim) == {
        "e1_replay": (True, False, False),
        "e1_telemetry": (True, False, False),
        "fleet_shard": (True, True, True),
        "delivery_8k": (False, False, True),
    }[name]
    if not fleet:
        assert all(metrics[m] == 0 for m, _ in layers._FLEET)
    if not sim:
        assert all(metrics[m] == 0 for m, _ in layers._SIM)
    if not kalis:
        assert all(metrics[m] == 0 for m, _ in layers._KALIS)
    assert (metrics["obs.overhead_ratio"] > 0) == name.startswith("e1_")
    assert (tmp_path / "spans.npz").is_file()


def test_traced_and_untraced_passes_agree_on_digest(tmp_path):
    workload = small("fleet_shard", 16, tmp_path / "work")
    untraced = run.measure(workload, 0.0, min_passes=1)[0]["digest"]
    tracer = Tracer()
    layers.install(tracer, layers.LayerCounts())
    try:
        *_figures, state = run.one_pass(workload)
    finally:
        tracer.remove()
    assert workload.finish(state).digest == untraced
    workload.close()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_and_held_out_seeds_pass_the_output_checks(name, tmp_path):
    cls = WORKLOADS[name]
    for seed in (cls.default_seed, cls.held_out_seed):
        workload = small(name, seed, tmp_path / f"work-{seed}")
        passes = run.measure(workload, 0.0, min_passes=2)
        workload.close()
        failed, problems, _digest = run.verdict(passes)
        assert failed == 0, problems


def test_e1_check_catches_a_wrong_suspect(tmp_path):
    workload = E1Replay(7, tmp_path, bursts=6)
    workload.attacker = NodeId("someone-else")
    node = workload.setup()
    workload.run(node)
    result = workload.finish(node)
    assert result.failed > 0


def test_e1_check_catches_sparse_detection_mid_trace(tmp_path):
    """An alert every 25 s, about one burst in five, is not enough.

    Bursts are about 5 s apart and an alert counts for a burst from 1 s
    before it to 20 s after it.  The first and last alerts are the real
    ones, so neither end of the trace relies on the cooldown.
    """
    workload = E1Replay(7, tmp_path, bursts=30)
    node = workload.setup()
    workload.run(node)
    assert workload.finish(node).failed == 0
    alerts = node.alerts.alerts
    sparse = AlertSink()
    moment = alerts[0].timestamp
    while moment < alerts[-1].timestamp:
        sparse.on_alert(dataclasses.replace(alerts[0], timestamp=moment))
        moment += 25.0
    sparse.on_alert(alerts[-1])
    node.alerts = sparse
    result = workload.finish(node)
    assert result.failed > 0
    assert any("bursts undetected" in problem for problem in result.problems)


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == layers.METRICS
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)


def test_runner_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e1_replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
