"""Snapshot file format: integrity, versioning, atomicity, rotation."""

import json
import stat
import struct

import pytest

from repro.ckpt import format as ckpt_format
from repro.ckpt.format import (
    MAGIC,
    SCHEMA_VERSION,
    SNAPSHOT_SUFFIX,
    SnapshotCorrupt,
    SnapshotError,
    SnapshotStore,
    SnapshotTruncated,
    SnapshotVersionSkew,
    read_header,
    read_snapshot,
    write_snapshot,
)

PAYLOAD = b"the quick brown fox" * 100


class TestRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "one.ksnap"
        write_snapshot(path, PAYLOAD, {"label": "rt", "sim_time": 4.5})
        header, payload = read_snapshot(path)
        assert payload == PAYLOAD
        assert header["label"] == "rt"
        assert header["sim_time"] == 4.5
        assert header["version"] == SCHEMA_VERSION
        assert header["payload_len"] == len(PAYLOAD)

    def test_read_header_alone_verifies_but_skips_payload(self, tmp_path):
        path = tmp_path / "one.ksnap"
        write_snapshot(path, PAYLOAD, {"label": "hdr"})
        header = read_header(path)
        assert header["label"] == "hdr"
        assert "payload_sha256" in header

    def test_empty_payload_round_trips(self, tmp_path):
        path = tmp_path / "empty.ksnap"
        write_snapshot(path, b"")
        header, payload = read_snapshot(path)
        assert payload == b""
        assert header["payload_len"] == 0

    def test_meta_reserved_keys_cannot_be_forged(self, tmp_path):
        path = tmp_path / "one.ksnap"
        write_snapshot(path, PAYLOAD, {"version": 999, "payload_len": 1})
        header = read_header(path)
        assert header["version"] == SCHEMA_VERSION
        assert header["payload_len"] == len(PAYLOAD)


class TestCorruptionDetection:
    """Every damage shape raises a distinct, catchable SnapshotError."""

    def _write(self, tmp_path):
        path = tmp_path / "victim.ksnap"
        write_snapshot(path, PAYLOAD, {"label": "victim"})
        return path

    def test_truncated_payload_detected(self, tmp_path):
        path = self._write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(SnapshotTruncated):
            read_snapshot(path)

    def test_truncated_inside_header_detected(self, tmp_path):
        path = self._write(tmp_path)
        path.write_bytes(path.read_bytes()[: len(MAGIC) + 6])
        with pytest.raises(SnapshotTruncated):
            read_snapshot(path)

    def test_file_shorter_than_magic_detected(self, tmp_path):
        path = self._write(tmp_path)
        path.write_bytes(b"KAL")
        with pytest.raises(SnapshotTruncated):
            read_snapshot(path)

    def test_flipped_payload_byte_fails_digest(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorrupt, match="sha256 mismatch"):
            read_snapshot(path)

    def test_bad_magic_detected(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorrupt, match="bad magic"):
            read_snapshot(path)

    def test_trailing_garbage_detected(self, tmp_path):
        path = self._write(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"appended garbage")
        with pytest.raises(SnapshotCorrupt, match="trailing bytes"):
            read_snapshot(path)

    def test_non_json_header_detected(self, tmp_path):
        path = tmp_path / "bad.ksnap"
        header = b"\x00not json at all\xff"
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack(">I", len(header)))
            handle.write(header)
        with pytest.raises(SnapshotCorrupt):
            read_snapshot(path)

    def test_version_skew_refused(self, tmp_path):
        path = tmp_path / "future.ksnap"
        header = json.dumps(
            {"format": "kalis-snapshot", "version": SCHEMA_VERSION + 1,
             "payload_len": 0, "payload_sha256": ""}
        ).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack(">I", len(header)))
            handle.write(header)
        with pytest.raises(SnapshotVersionSkew):
            read_snapshot(path)

    def test_all_errors_are_snapshot_errors(self):
        assert issubclass(SnapshotTruncated, SnapshotCorrupt)
        assert issubclass(SnapshotCorrupt, SnapshotError)
        assert issubclass(SnapshotVersionSkew, SnapshotError)


class TestAtomicity:
    def test_no_temp_files_survive_a_write(self, tmp_path):
        write_snapshot(tmp_path / "one.ksnap", PAYLOAD)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_overwrite_is_replace_not_append(self, tmp_path):
        path = tmp_path / "one.ksnap"
        write_snapshot(path, PAYLOAD)
        write_snapshot(path, b"short")
        _header, payload = read_snapshot(path)
        assert payload == b"short"

    def test_failed_write_leaves_previous_snapshot_intact(self, tmp_path):
        path = tmp_path / "one.ksnap"
        write_snapshot(path, PAYLOAD, {"label": "good"})

        class Unjsonable:
            pass

        with pytest.raises(TypeError):
            write_snapshot(path, b"new", {"bad": Unjsonable()})
        header, payload = read_snapshot(path)
        assert header["label"] == "good"
        assert payload == PAYLOAD

    def test_rename_is_made_durable_by_a_directory_fsync(
        self, tmp_path, monkeypatch
    ):
        """POSIX: the rename survives a crash only once the dir is synced."""
        events = []
        real_fsync, real_replace = ckpt_format.os.fsync, ckpt_format.os.replace

        def fsync(fd):
            is_dir = stat.S_ISDIR(ckpt_format.os.fstat(fd).st_mode)
            events.append("fsync-dir" if is_dir else "fsync-file")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(ckpt_format.os, "fsync", fsync)
        monkeypatch.setattr(ckpt_format.os, "replace", replace)
        write_snapshot(tmp_path / "one.ksnap", PAYLOAD)
        assert events == ["fsync-file", "replace", "fsync-dir"]

    def test_failed_directory_fsync_surfaces(self, tmp_path, monkeypatch):
        real_fsync = ckpt_format.os.fsync

        def fsync(fd):
            if stat.S_ISDIR(ckpt_format.os.fstat(fd).st_mode):
                raise OSError(5, "Input/output error")
            real_fsync(fd)

        monkeypatch.setattr(ckpt_format.os, "fsync", fsync)
        with pytest.raises(OSError):
            write_snapshot(tmp_path / "one.ksnap", PAYLOAD)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestSnapshotStore:
    def test_save_assigns_increasing_sequences(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=10)
        first = store.save(b"a")
        second = store.save(b"b")
        assert first.name == f"snap-00000001{SNAPSHOT_SUFFIX}"
        assert second.name == f"snap-00000002{SNAPSHOT_SUFFIX}"
        assert [p.name for p in store.paths()] == [first.name, second.name]

    def test_rotation_prunes_oldest(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=3)
        for index in range(6):
            store.save(str(index).encode())
        names = [p.name for p in store.paths()]
        assert len(names) == 3
        assert names[0] == f"snap-00000004{SNAPSHOT_SUFFIX}"

    def test_sequence_survives_pruning(self, tmp_path):
        """Sequences never restart, even after old files are pruned."""
        store = SnapshotStore(tmp_path, keep=1)
        for _ in range(4):
            last = store.save(b"x")
        assert last.name == f"snap-00000004{SNAPSHOT_SUFFIX}"

    def test_latest_returns_newest_valid(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(b"old", {"label": "old"})
        store.save(b"new", {"label": "new"})
        header, payload = store.latest()
        assert header["label"] == "new"
        assert payload == b"new"

    def test_latest_skips_corrupt_newest(self, tmp_path):
        """A damaged newest snapshot costs one interval, not the run."""
        store = SnapshotStore(tmp_path)
        store.save(b"good", {"label": "good"})
        bad = store.save(b"doomed", {"label": "doomed"})
        data = bytearray(bad.read_bytes())
        data[-1] ^= 0xFF
        bad.write_bytes(bytes(data))
        header, payload = store.latest()
        assert header["label"] == "good"
        assert payload == b"good"
        assert [path for path, _reason in store.skipped] == [bad]

    def test_latest_empty_store_is_none(self, tmp_path):
        store = SnapshotStore(tmp_path / "nowhere")
        assert store.latest() is None

    def test_foreign_files_ignored(self, tmp_path):
        store = SnapshotStore(tmp_path)
        (tmp_path / "canonical.log").write_text("not a snapshot")
        (tmp_path / "snap-xyz.ksnap").write_text("bad name")
        store.save(b"real")
        assert len(store.paths()) == 1
        assert store.latest()[1] == b"real"

    def test_prune_tolerates_a_file_already_gone(self, tmp_path, monkeypatch):
        """A snapshot that vanishes between listing and unlink is skipped."""
        store = SnapshotStore(tmp_path, keep=2)
        first = store.save(b"a")
        store.save(b"b")
        listed = store.paths()
        first.unlink()
        monkeypatch.setattr(store, "paths", lambda: listed)
        store.keep = 1
        assert store.prune() == 0

    def test_prune_surfaces_other_unlink_errors(self, tmp_path, monkeypatch):
        store = SnapshotStore(tmp_path, keep=3)
        for index in range(3):
            store.save(str(index).encode())

        def unlink(self, missing_ok=False):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(ckpt_format.Path, "unlink", unlink)
        store.keep = 1
        with pytest.raises(PermissionError):
            store.prune()

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path, keep=0)
