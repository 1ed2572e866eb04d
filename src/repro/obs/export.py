"""Telemetry export: JSONL with a byte-identity determinism contract.

One export file holds the whole run, one JSON object per line, in
deterministic order:

1. a ``meta`` line (format version plus deterministic run totals);
2. every metric series, sorted by name then labels;
3. every flight-recorder dump, in occurrence order;
4. every surviving ring, sorted by node.

Wall-clock measurements live *only* under keys literally named
``"wall"``; :func:`strip_wall` removes them recursively, and
:func:`canonical_lines` applies it with sorted keys — so

    ``canonical_lines(run_a) == canonical_lines(run_b)``

is the telemetry determinism oracle for two same-seed runs.  A ``.gz``
suffix gzips the export, same as :class:`repro.trace.trace.Trace`.

Since format version 2 every record carries a ``"v"`` version field, so
each line is self-describing and a reader that joins mid-stream (the
fleet SIEM intake tailing a worker's export while it is still being
written) can validate records one at a time.  Malformed or unversioned
records raise :class:`ExportFormatError` with file/line context; a
malformed *final* line is treated as a partial in-flight write and
skipped (counted, not raised) — see :func:`read_jsonl`.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

from repro.obs.telemetry import Telemetry

#: Export format version, bumped on any line-shape change.  v2 added the
#: per-record ``"v"`` field (v1 files, with a bare versioned meta line,
#: still load).
FORMAT_VERSION = 2


class ExportFormatError(ValueError):
    """A telemetry/SIEM export file violates the format contract.

    Carries ``path`` and ``line`` (1-based; 0 for whole-file problems)
    so intake pipelines can point at the offending record.
    """

    def __init__(self, path, line: int, reason: str) -> None:
        location = f"{path}:{line}" if line else str(path)
        super().__init__(f"{location}: {reason}")
        self.path = str(path)
        self.line = line
        self.reason = reason


def _open_text(path: Path, mode: str):
    opener = gzip.open if path.suffix == ".gz" else open
    return opener(path, mode, encoding="utf-8")


def read_jsonl(path) -> Tuple[List[Tuple[int, Dict[str, Any]]], int]:
    """Read a JSONL file into ``(line_number, record)`` pairs.

    A line that fails to parse raises :class:`ExportFormatError` —
    unless it is the *final* line, which is counted as an in-flight
    partial write and skipped (a writer appending NDJSON is mid-line
    exactly once, at the tail).
    Returns ``(records, partial_lines_skipped)``.
    """
    path = Path(path)
    records: List[Tuple[int, Dict[str, Any]]] = []
    pending_error: Tuple[int, str] = (0, "")
    handle = _open_text(path, "rt")  # open errors (ENOENT…) pass through
    try:
        with handle:
            for line_number, line in enumerate(handle, start=1):
                if pending_error[0]:
                    raise ExportFormatError(
                        path, pending_error[0],
                        f"malformed record: {pending_error[1]}",
                    )
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    record = json.loads(stripped)
                except ValueError as error:
                    # Defer: only a *non-final* malformed line is fatal.
                    pending_error = (line_number, str(error))
                    continue
                if not isinstance(record, dict):
                    pending_error = (line_number, "record is not a JSON object")
                    continue
                records.append((line_number, record))
    except (EOFError, gzip.BadGzipFile, OSError) as error:
        # A truncated or corrupt gzip stream surfaces mid-iteration as a
        # raw decompressor error; report it with file context instead.
        raise ExportFormatError(
            path, 0, f"truncated or corrupt stream: {error}"
        ) from error
    return records, 1 if pending_error[0] else 0


def export_lines(telemetry: Telemetry) -> Iterator[Dict[str, Any]]:
    """Yield every export record, in the deterministic file order."""
    yield {
        "type": "meta",
        "v": FORMAT_VERSION,
        "version": FORMAT_VERSION,
        "sim_end": telemetry.now,
        "spans_finished": telemetry.spans_finished,
        "events_recorded": telemetry.events_recorded,
        "ring_entries_recorded": telemetry.recorder.entries_recorded,
        "dumps": len(telemetry.recorder.dumps),
        "dumps_suppressed": telemetry.recorder.dumps_suppressed,
    }
    for entry in telemetry.metrics.snapshot():
        yield {"v": FORMAT_VERSION, **entry}
    for dump in telemetry.recorder.dumps:
        yield {"v": FORMAT_VERSION, **dump}
    for node in telemetry.recorder.nodes():
        yield {
            "v": FORMAT_VERSION,
            "type": "ring",
            "node": node,
            "entries": telemetry.recorder.ring(node),
        }


def export_jsonl(telemetry: Telemetry, path) -> Path:
    """Write the telemetry export; ``.gz`` suffix enables gzip."""
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="utf-8") as handle:
        for record in export_lines(telemetry):
            handle.write(json.dumps(record, separators=(",", ":"), sort_keys=True))
            handle.write("\n")
    return path


def load_export(path) -> List[Dict[str, Any]]:
    """Parse an export back into its records (report and CI verify).

    See :func:`load_export_with_stats`; this keeps the original
    list-only return shape for existing callers.
    """
    return load_export_with_stats(path)[0]


def load_export_with_stats(path) -> Tuple[List[Dict[str, Any]], int]:
    """Parse an export, returning ``(records, partial_lines_skipped)``.

    Format violations raise :class:`ExportFormatError` with file/line
    context: a missing meta line, a meta line without a version, a v2+
    record missing its ``"v"`` field, or a version newer than this
    reader.  A malformed *trailing* line is tolerated — skipped and
    counted — so the SIEM intake can read a worker's export mid-write.
    """
    path = Path(path)
    numbered, partial_skipped = read_jsonl(path)
    if not numbered or numbered[0][1].get("type") != "meta":
        raise ExportFormatError(
            path, 0, "not a telemetry export (missing meta line)"
        )
    meta_line, meta = numbered[0]
    version = meta.get("v", meta.get("version"))
    if version is None:
        raise ExportFormatError(
            path, meta_line, 'meta record missing the "v" version field'
        )
    if not isinstance(version, int) or version > FORMAT_VERSION or version < 1:
        raise ExportFormatError(
            path, meta_line,
            f"unsupported export version {version!r} "
            f"(this reader supports 1..{FORMAT_VERSION})",
        )
    if version >= 2:
        for line_number, record in numbered[1:]:
            if "v" not in record:
                raise ExportFormatError(
                    path, line_number,
                    'record missing the "v" version field',
                )
    return [record for _, record in numbered], partial_skipped


def strip_wall(obj: Any) -> Any:
    """Recursively drop every ``"wall"`` key — the nondeterministic part."""
    if isinstance(obj, dict):
        return {key: strip_wall(value) for key, value in obj.items() if key != "wall"}
    if isinstance(obj, list):
        return [strip_wall(value) for value in obj]
    return obj


def canonical_lines(path) -> List[str]:
    """The export's deterministic identity: wall-stripped, key-sorted."""
    return [
        json.dumps(strip_wall(record), separators=(",", ":"), sort_keys=True)
        for record in load_export(path)
    ]


def canonical_telemetry_lines(telemetry: Telemetry) -> List[str]:
    """:func:`canonical_lines` straight off a live sink (no file trip).

    The checkpoint/restore equivalence oracle compares these between an
    interrupted and an uninterrupted run, so they must match what an
    export-then-:func:`canonical_lines` round trip would produce.
    """
    return [
        json.dumps(strip_wall(record), separators=(",", ":"), sort_keys=True)
        for record in export_lines(telemetry)
    ]
