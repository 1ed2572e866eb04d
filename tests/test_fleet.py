"""Tests for repro.fleet: sharding, workers, and merge determinism.

The tentpole invariants (DESIGN.md §10):

- the merged canonical log is **byte-identical** across worker counts
  (1 vs 2 vs 4) for the same fleet seed — scheduling never leaks in;
- a worker killed mid-site and resumed from its shard checkpoint
  converges to the identical merged log (exactly-once output from
  at-least-once delivery);
- site specs are a pure function of the fleet seed, order-independent
  under sharding.

Fleet runs here are deliberately tiny (a few sites, 2 attack bursts);
the scale claims live in benchmarks/test_bench_fleet.py.
"""

import json
import os
import stat
from pathlib import Path

import pytest

from repro.fleet import (
    FleetConfig,
    ShardProgress,
    ShardRunner,
    SiteSpec,
    WorkerOptions,
    build_site,
    completion_events,
    run_fleet,
    shard_specs,
    site_specs,
    stream_path,
    worker_main,
)
from repro.fleet.sites import alert_events
from repro.fleet.worker import MANIFEST_NAME
from repro.siem import SiemAggregator
from repro.siem.events import WORKER_DONE_TYPE

SITES = 5
INSTANCES = 2
SEED = 16


def tiny_config(out_dir, workers=1, **overrides):
    return FleetConfig(
        sites=SITES,
        workers=workers,
        fleet_seed=SEED,
        out_dir=str(out_dir),
        symptom_instances=INSTANCES,
        k_sites=2,
        **overrides,
    )


class TestSites:
    def test_specs_are_pure_function_of_seed(self):
        first = site_specs(SEED, 30)
        again = site_specs(SEED, 30)
        other = site_specs(SEED + 1, 30)
        assert first == again
        assert first != other

    def test_specs_are_prefix_stable(self):
        # Growing the fleet must not re-profile existing sites.
        assert site_specs(SEED, 10) == site_specs(SEED, 30)[:10]

    def test_profiles_cover_all_three(self):
        profiles = {spec.profile for spec in site_specs(SEED, 40)}
        assert profiles == {"quiet", "attacked", "noisy"}

    def test_quiet_site_emits_no_alerts(self):
        spec = next(
            spec for spec in site_specs(SEED, 40) if spec.profile == "quiet"
        )
        deployment = build_site(spec)
        deployment.run_to(deployment.end_time)
        assert alert_events(spec, deployment) == []
        done = completion_events(spec, deployment)[-1]
        assert done["kind"] == "site-done"
        assert done["body"]["packets"] > 0  # background chatter still flows

    def test_attacked_site_emits_alerts_with_stable_seqs(self):
        spec = next(
            spec for spec in site_specs(SEED, 10) if spec.profile == "attacked"
        )
        deployment = build_site(spec)
        deployment.run_to(deployment.end_time)
        events = alert_events(spec, deployment)
        assert events
        assert [event["seq"] for event in events] == list(range(len(events)))
        assert all(event["site"] == spec.site_id for event in events)

    def test_shard_deal_is_round_robin_and_complete(self):
        specs = site_specs(SEED, 7)
        shards = shard_specs(specs, 3)
        assert [len(shard) for shard in shards] == [3, 2, 2]
        dealt = [spec for shard in shards for spec in shard]
        assert sorted(dealt, key=lambda s: s.site_id) == specs


class TestShardRunner:
    def test_manifest_makes_rerun_a_noop(self, tmp_path):
        specs = site_specs(SEED, 2, symptom_instances=INSTANCES)
        agg = SiemAggregator(k_sites=2)
        emit = lambda rec: agg.ingest_batch(rec, record_latency=False)  # noqa: E731
        shard_dir = tmp_path / "w0"
        assert ShardRunner(0, specs, shard_dir, emit).run() == 2
        # second run: manifest says everything is done
        assert ShardRunner(0, specs, shard_dir, emit).run() == 0
        assert agg.sites_done == 2

    def test_manifest_roundtrip_is_atomic_shaped(self, tmp_path):
        progress = ShardProgress(done={"site-0000": {"packets": 5}})
        progress.save(tmp_path)
        assert ShardProgress.load(tmp_path).done == progress.done
        assert not list(tmp_path.glob("*.tmp"))

    def test_manifest_save_syncs_the_file_and_its_directory(
        self, tmp_path, monkeypatch
    ):
        """POSIX: a renamed manifest is durable once file and dir are synced."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            events.append("fsync-dir" if is_dir else "fsync-file")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        ShardProgress(done={"site-0000": {"packets": 5}}).save(tmp_path)
        assert events == ["fsync-file", "replace", "fsync-dir"]
        assert ShardProgress.load(tmp_path).done == {"site-0000": {"packets": 5}}

    def test_worker_fsyncs_the_stream_before_the_manifest_marks_a_site(
        self, tmp_path, monkeypatch
    ):
        """POSIX: an OS crash may keep a renamed manifest yet lose unsynced
        stream lines, so each site's batches, site-done included, must be
        fsynced before the manifest marks the site done."""
        specs = site_specs(SEED, 2, symptom_instances=INSTANCES)
        shard_dir = tmp_path / "w0"
        stream = stream_path(shard_dir)
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            if stream.exists() and os.path.samestat(os.fstat(fd), stream.stat()):
                events.append(("stream-fsync", stream.read_text(encoding="utf-8")))
            real_fsync(fd)

        def replace(src, dst):
            if Path(dst).name == MANIFEST_NAME:
                manifest = json.loads(Path(src).read_text(encoding="utf-8"))
                events.append(("manifest-replace", set(manifest["done"])))
            real_replace(src, dst)

        class StandInQueue:
            def __init__(self):
                self.records = []

            def put(self, record):
                self.records.append(record)

            def qsize(self):
                return len(self.records)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        queue = StandInQueue()
        worker_main(0, specs, shard_dir, queue)

        assert [kind for kind, _ in events] == ["stream-fsync", "manifest-replace"] * 2
        synced_done = set()
        for kind, payload in events:
            if kind == "stream-fsync":
                synced_done = {
                    event["site"]
                    for line in payload.splitlines()
                    for event in json.loads(line).get("events", ())
                    if event["kind"] == "site-done"
                }
            else:
                assert payload <= synced_done
        assert synced_done == {spec.site_id for spec in specs}
        assert queue.records[-1]["type"] == WORKER_DONE_TYPE

    def test_stream_file_carries_every_batch(self, tmp_path):
        specs = site_specs(SEED, 2, symptom_instances=INSTANCES)

        def run_with_stream(shard_dir):
            from repro.siem.events import batch_line

            shard_dir.mkdir(parents=True)
            with open(stream_path(shard_dir), "a", encoding="utf-8") as stream:
                def emit(record):
                    stream.write(batch_line(record) + "\n")
                ShardRunner(0, specs, shard_dir, emit).run()

        run_with_stream(tmp_path / "w0")
        agg = SiemAggregator(k_sites=2)
        assert agg.ingest_stream(stream_path(tmp_path / "w0"), worker=0) > 0
        assert agg.sites_done == 2


class TestMergeDeterminism:
    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fleet-w1")
        return run_fleet(tiny_config(out, workers=1))

    def test_worker_count_invariance(self, baseline, tmp_path):
        for workers in (2, 4):
            result = run_fleet(tiny_config(tmp_path / f"w{workers}", workers=workers))
            assert result.canonical_bytes == baseline.canonical_bytes, (
                f"{workers}-worker merge diverged from 1-worker baseline"
            )

    def test_kill_resume_converges(self, baseline, tmp_path):
        result = run_fleet(
            tiny_config(
                tmp_path / "killed",
                workers=2,
                kill={"worker": 0, "site_index": 1, "at": 20.0},
            )
        )
        assert result.respawns >= 1, "the drill should have killed worker 0"
        assert 3 in result.worker_exits  # KILL_EXIT_CODE observed
        assert result.canonical_bytes == baseline.canonical_bytes

    def test_report_claims_match_the_merge(self, baseline):
        summary = baseline.report["summary"]
        assert summary["sites_done"] == SITES
        assert summary["total_packets"] > 0
        assert baseline.report["noisy_sites"]
        assert baseline.canonical_path.is_file()
        assert baseline.merged_path.is_file()
        assert baseline.metrics_path.read_text().startswith("# ")

    def test_report_json_rerenders(self, baseline):
        from repro.siem import render_fleet_report

        persisted = json.loads(baseline.report_path.read_text())
        assert render_fleet_report(persisted) == render_fleet_report(
            baseline.report
        )


class TestFleetCli:
    def test_fleet_run_and_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fleet"
        assert main(
            [
                "fleet", "run", "--out", str(out),
                "--sites", "4", "--workers", "2",
                "--instances", "2", "--k-sites", "2",
            ]
        ) == 0
        text = capsys.readouterr().out
        assert "fleet report" in text
        assert "canonical log:" in text
        assert main(["fleet", "report", str(out / "report.json")]) == 0
        assert "fleet report" in capsys.readouterr().out
        assert main(
            ["fleet", "report", str(out / "report.json"), "--format", "json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["v"] == 1

    def test_kill_flag_parsing(self):
        from repro.cli import _parse_kill

        assert _parse_kill("0:1:20.5") == {
            "worker": 0, "site_index": 1, "at": 20.5,
        }
        assert _parse_kill(None) is None
        with pytest.raises(SystemExit):
            _parse_kill("nope")


class TestObsJsonCli:
    def test_obs_report_format_json(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import Telemetry, export_jsonl

        telemetry = Telemetry()
        telemetry.metrics.counter("captures_total").inc(3, medium="wifi")
        path = export_jsonl(telemetry, tmp_path / "t.jsonl")
        assert main(["obs", "report", str(path), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["meta"]["version"] == 2
        assert data["partial_lines_skipped"] == 0
