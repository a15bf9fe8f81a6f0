"""Pluggable batched event sinks for the serve loop.

A sink receives *batches* of canonical event records from the
:class:`~repro.serve.buffer.EventBuffer` (the producer-consumer stage
with the backpressure policy) and commits each batch atomically-enough
for its medium:

* :class:`StdoutSink` — canonical JSONL to a stream; the pipe-friendly
  default (``repro serve | jq ...``).
* :class:`RotatingJsonlSink` — size/age-rotated JSONL segment files;
  every batch is written as **one** buffered write, and reopening after
  a kill repairs a torn final line, so no partial record survives a
  crash.
* :class:`SqliteSink` — one sqlite transaction per batch: a batch either
  commits whole or not at all, and rows round-trip to the exact
  canonical JSONL the other sinks emit.
* :class:`MemorySink` — in-process capture with an optional per-batch
  callback; the test-harness sink.

Serialization is canonical everywhere (sorted keys, compact separators,
one object per line) so the same event sequence through any sink — or
through the same sink with different batch sizes — yields byte-identical
canonical output. ``tests/test_serve.py`` enforces exactly that.

The :data:`SINKS` registry is the single source of truth for the sink
table in ``docs/serving.md`` (CI-diffed by ``tests/test_docs.py``) and
for the CLI's ``--sink`` choices.
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence


#: One shared encoder: ``json.dumps`` with non-default arguments builds
#: a fresh ``JSONEncoder`` per call, and the service encodes every
#: event record it commits.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_line(record: Dict) -> str:
    """One canonical JSON line: sorted keys, compact separators."""
    return _CANONICAL_ENCODER.encode(record)


class ServeSink:
    """Interface: commit batches of event records.

    ``write_batch`` must treat the batch as one unit of work; ``flush``
    pushes any buffering to the medium; ``close`` is idempotent.
    ``event_records()`` returns the committed event records (headers
    excluded) for verification — the byte-determinism oracle compares
    its canonical JSONL across sinks.
    """

    name: str = "abstract"

    def write_header(self, header: Dict) -> None:
        """Record the stream header (called once, before any batch)."""

    def write_batch(self, records: Sequence[Dict]) -> None:
        """Persist one committed batch of event records, atomically."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered output to the medium (no-op by default)."""

    def close(self) -> None:
        """Release resources (idempotent; no-op by default)."""

    def event_records(self) -> List[Dict]:
        """Committed event records, in order, headers excluded."""
        raise NotImplementedError(
            f"{type(self).__name__} cannot re-read its output"
        )

    def to_jsonl(self) -> str:
        """The committed event sequence as canonical JSONL (no header)."""
        return "".join(canonical_line(r) + "\n" for r in self.event_records())


class StdoutSink(ServeSink):
    """Canonical JSONL to a text stream (``sys.stdout`` by default)."""

    name = "stdout"

    def __init__(self, stream=None):
        self._stream = stream if stream is not None else sys.stdout

    def write_header(self, header: Dict) -> None:
        self._stream.write(canonical_line(header) + "\n")

    def write_batch(self, records: Sequence[Dict]) -> None:
        """Write the batch as canonical JSONL in one stream write."""
        # One write per batch: interleaving-safe under pipes.
        self._stream.write(
            "".join(canonical_line(record) + "\n" for record in records)
        )

    def flush(self) -> None:
        self._stream.flush()


def _repair_torn_tail(path: Path) -> int:
    """Truncate a trailing partial line; returns bytes removed.

    Batches are committed as single buffered writes ending in a newline,
    so a kill can leave at most one torn record at the tail — everything
    after the final newline. Dropping it restores the file to a prefix
    of complete records (the atomic-batch contract, JSONL edition).
    """
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return 0
    keep = data.rfind(b"\n") + 1  # 0 when no newline at all
    with path.open("wb") as handle:
        handle.write(data[:keep])
    return len(data) - keep


class RotatingJsonlSink(ServeSink):
    """Size/age-rotated JSONL segments in a directory.

    Segments are ``events-00000.jsonl``, ``events-00001.jsonl``, ... —
    each self-describing (the stream header reopens every segment). A
    new segment starts when the current one would exceed
    ``rotate_bytes``, or when it already spans ``rotate_rounds`` rounds
    (age measured in protocol rounds: the only clock a deterministic
    service has). A batch never straddles segments.

    Reopening an existing directory resumes into the last segment after
    torn-tail repair, so a killed service restarts onto a clean prefix.
    """

    name = "jsonl"

    def __init__(
        self,
        directory,
        rotate_bytes: int = 4_000_000,
        rotate_rounds: Optional[int] = None,
    ):
        if rotate_bytes <= 0:
            raise ValueError(f"rotate_bytes must be positive, got {rotate_bytes}")
        if rotate_rounds is not None and rotate_rounds <= 0:
            raise ValueError(
                f"rotate_rounds must be positive or None, got {rotate_rounds}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.rotate_bytes = rotate_bytes
        self.rotate_rounds = rotate_rounds
        self.repaired_bytes = 0
        self._header: Optional[Dict] = None
        self._handle = None
        self._segment_first_round: Optional[int] = None
        existing = self.files()
        if existing:
            last = existing[-1]
            self.repaired_bytes = _repair_torn_tail(last)
            self._index = int(last.stem.split("-")[1])
            self._handle = last.open("a")
            self._segment_first_round = self._first_round_of(last)
        else:
            self._index = -1  # first batch opens events-00000

    def files(self) -> List[Path]:
        """The segment files, in rotation order."""
        return sorted(self.directory.glob("events-*.jsonl"))

    def _first_round_of(self, path: Path) -> Optional[int]:
        with path.open() as handle:
            for line in handle:
                record = json.loads(line)
                if "header" not in record:
                    return record.get("round")
        return None

    def _open_next_segment(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
        self._index += 1
        path = self.directory / f"events-{self._index:05d}.jsonl"
        self._handle = path.open("w")
        self._segment_first_round = None
        if self._header is not None:
            self._handle.write(canonical_line(self._header) + "\n")

    def write_header(self, header: Dict) -> None:
        self._header = header
        if self._handle is None:
            self._open_next_segment()
        else:
            # Resumed segment: append the header so the restart boundary
            # is visible in the stream.
            self._handle.write(canonical_line(header) + "\n")

    def _should_rotate(self, payload_size: int, first_round) -> bool:
        if self._handle is None:
            return True
        if self._handle.tell() + payload_size > self.rotate_bytes and self._handle.tell() > 0:
            return True
        if (
            self.rotate_rounds is not None
            and self._segment_first_round is not None
            and first_round is not None
            and first_round - self._segment_first_round >= self.rotate_rounds
        ):
            return True
        return False

    def write_batch(self, records: Sequence[Dict]) -> None:
        """Append the batch to the current segment, rotating first if due."""
        if not records:
            return
        payload = "".join(canonical_line(record) + "\n" for record in records)
        first_round = records[0].get("round")
        if self._should_rotate(len(payload), first_round):
            self._open_next_segment()
        if self._segment_first_round is None:
            self._segment_first_round = first_round
        # One buffered write per batch: a kill tears at most the tail
        # line, which reopening repairs.
        self._handle.write(payload)
        self._handle.flush()

    def flush(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self.flush()
            self._handle.close()

    def event_records(self) -> List[Dict]:
        out: List[Dict] = []
        for path in self.files():
            with path.open() as handle:
                for line in handle:
                    record = json.loads(line)
                    if "header" not in record:
                        out.append(record)
        return out


class SqliteSink(ServeSink):
    """Events in a sqlite database, one transaction per batch.

    Stores the *canonical JSON text* of every record, so rows round-trip
    to byte-identical JSONL (``to_jsonl``) — the determinism oracle
    compares sqlite output against the stdout/JSONL sinks directly. A
    batch is one ``INSERT``-many transaction: a crash mid-batch rolls
    the whole batch back, leaving no partial record (sqlite's
    atomic-commit guarantee).
    """

    name = "sqlite"

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        with self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS events ("
                " seq INTEGER PRIMARY KEY AUTOINCREMENT,"
                " round INTEGER,"
                " type TEXT,"
                " record TEXT NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )

    def write_header(self, header: Dict) -> None:
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("header", canonical_line(header)),
            )

    def write_batch(self, records: Sequence[Dict]) -> None:
        """Insert the batch as one all-or-nothing sqlite transaction."""
        if not records:
            return
        rows = [
            (record.get("round"), record.get("type"), canonical_line(record))
            for record in records
        ]
        with self._conn:  # one transaction: all-or-nothing
            self._conn.executemany(
                "INSERT INTO events (round, type, record) VALUES (?, ?, ?)",
                rows,
            )

    def flush(self) -> None:
        """No-op: every batch already committed its transaction."""

    def close(self) -> None:
        try:
            self._conn.close()
        except sqlite3.ProgrammingError:  # already closed
            pass

    def header(self) -> Optional[Dict]:
        """The stored stream header, or None before write_header."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'header'"
        ).fetchone()
        return json.loads(row[0]) if row else None

    def iter_lines(self) -> Iterator[str]:
        """The stored canonical JSON texts, in commit order."""
        for (text,) in self._conn.execute(
            "SELECT record FROM events ORDER BY seq"
        ):
            yield text

    def event_records(self) -> List[Dict]:
        return [json.loads(text) for text in self.iter_lines()]

    def to_jsonl(self) -> str:
        # Straight from the stored text: the round-trip is literal.
        return "".join(text + "\n" for text in self.iter_lines())


class MemorySink(ServeSink):
    """In-process capture sink with an optional per-batch callback.

    The service-mode test harness's sink: tests read ``records`` and
    ``batch_sizes`` directly, or hook ``callback(batch)`` to observe (or
    sabotage — see the backpressure matrix) delivery as it happens.
    """

    name = "memory"

    def __init__(self, callback=None):
        self.header: Optional[Dict] = None
        self.records: List[Dict] = []
        self.batch_sizes: List[int] = []
        self.flushes = 0
        self.closed = False
        self.callback = callback

    def write_header(self, header: Dict) -> None:
        self.header = header

    def write_batch(self, records: Sequence[Dict]) -> None:
        """Capture the batch in memory and invoke the per-batch callback."""
        batch = list(records)
        if self.callback is not None:
            self.callback(batch)
        self.records.extend(batch)
        self.batch_sizes.append(len(batch))

    def flush(self) -> None:
        self.flushes += 1

    def close(self) -> None:
        self.closed = True

    def event_records(self) -> List[Dict]:
        return list(self.records)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SinkSpec:
    """One registry entry: name, constructor, one-line description."""

    name: str
    factory: type
    description: str


#: The sink registry — ``docs/serving.md``'s sink table is CI-diffed
#: against this (names and descriptions must match exactly), and the
#: CLI's ``--sink`` choices come from it.
SINKS: Dict[str, SinkSpec] = {
    spec.name: spec
    for spec in (
        SinkSpec(
            "stdout",
            StdoutSink,
            "canonical JSONL to standard output (pipe-friendly default)",
        ),
        SinkSpec(
            "jsonl",
            RotatingJsonlSink,
            "size/age-rotated JSONL segment files with torn-tail repair "
            "on restart",
        ),
        SinkSpec(
            "sqlite",
            SqliteSink,
            "sqlite database, one atomic transaction per batch; rows "
            "round-trip to canonical JSONL",
        ),
        SinkSpec(
            "memory",
            MemorySink,
            "in-process capture with a per-batch callback (tests and "
            "embedding)",
        ),
    )
}


def make_sink(name: str, path=None, stream=None, **options) -> ServeSink:
    """Instantiate a registered sink.

    ``stdout`` accepts ``stream`` (defaults to ``sys.stdout``); ``jsonl``
    and ``sqlite`` require ``path`` (a directory / a database file);
    ``memory`` accepts a ``callback`` option.
    """
    if name not in SINKS:
        raise ValueError(f"unknown sink {name!r}; available: {sorted(SINKS)}")
    if name == "stdout":
        return StdoutSink(stream=stream)
    if name == "memory":
        return MemorySink(**options)
    if path is None:
        raise ValueError(f"sink {name!r} requires a path")
    return SINKS[name].factory(path, **options)
