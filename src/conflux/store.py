"""Embedded time-series store for tuple histories.

Series are addressed by (provider, database, series). The provider names
"influxdb" and "cassandra" are both served by this embedded engine; remote
client implementations are a plug point, not included. A series must be
registered before ingest or query.

Storage is one directory per series holding append-only NDJSON segments,
the durable format and the source of truth. A line that does not decode (a
torn write, or a byte that is not UTF-8) is skipped and counted in
``bad_lines``. Every store has a root directory, which holds one directory
per registered series.

Opening a series reads its columns from a checkpoint when one covers the log
exactly (after the LSM pattern of an immutable checkpoint beside a log,
O'Neil et al., Acta Informatica 1996). ``close`` writes ``columns.ckpt`` into
every series directory ingested into that session: a JSON header line (the
format version, byte order and BLOCK, the series counters, each column's
array lengths, and the name, byte size and crc32 of every segment), the raw
column arrays with each column's block summaries, and a crc32 of all that.
Open uses it only if the format matches, the crc32 matches and the segments
present are exactly the listed ones, with the same sizes and crc32s;
otherwise it is ignored and every segment line is decoded, as with no
checkpoint. So a reopened store's first query reads no values outside its
two edge blocks. A close reuses the crc32 the open verified for every
segment whose size is unchanged, so it checksums only the segments its
session wrote. A version-1 checkpoint (columns without summaries) is ignored
too, and such a root is decoded from its log on every open until an ingest,
even one that adds only duplicates, rewrites the checkpoint at close. A
checkpoint open builds no deduplication index: the first ingest into the
series builds it from the log, so a store that is only queried never holds it.

Deduplication is exact on (timestamp, source, attributes). The index maps
the key's in-process ``hash`` to where the tuple's line starts in the log,
in two parts. A tuple newer than every one indexed before it cannot be a
duplicate, so the series appends it to a time-ordered run of three
``array('q')`` (timestamp, hash, locator) without a lookup: 24 bytes and no
per-tuple object, which is every tuple of a history that arrives in time
order. Any other tuple (one that ties or precedes the newest indexed
timestamp) goes into a hash dict. A lookup checks the run's one row at the
tuple's timestamp, then the dict. Every hash hit is confirmed by reading that
line back and comparing keys, so two tuples whose hashes merely collide are
both kept. A duplicate therefore costs more than a new tuple: it decodes its
stored line, where a new tuple only encodes one. The hashes are never
persisted. A tuple whose line fails to be written stays in memory, indexed
in the dict by its key, and the next line starts a new segment.

In memory a series is columnar (after Gorilla, Pelkonen et al., VLDB 2015):
per attribute, a time-sorted ``array('q')`` of timestamps with an
``array('d')`` of the numeric values, plus an ``array('q')`` of the
timestamps where the attribute is present but not numeric. No per-tuple
objects are kept apart from the dict entries of tuples that did not arrive
in time order (ties included). Each column has a block index: (sum, min,
max) of every full block of BLOCK values. Ingest only appends, which leaves
the index stale. The next query of the column,
or the ``close`` that checkpoints it, sorts it (stably, so equal timestamps
keep ingest order) and rebuilds every summary if an append arrived out of
order; otherwise the appended values sort after the indexed ones, and only
the blocks they complete are summarized.

Grouped queries bucket the series by time, with bucket origin anchored at
the query start so history buckets line up with whatever window the caller
is assembling. Every bucket intersecting [start, end) yields a row, empty
ones included; the last bucket is clipped at the query end. A bucket's index
range is found by bisection and answered from the summaries of the full
blocks inside it plus the two partial edge blocks, so its cost grows with
n / BLOCK + BLOCK, not with n. Sums are added block by block, never
differenced from prefix sums, which would cancel badly on mixed-sign values;
a mean can therefore differ from a sequential sum in the last digits.

Concurrency: ingest takes the store lock exclusively; queries of registered
series may run from several threads. Connection handles must not be shared
across threads, but independent handles to one series may.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import zlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .model import (
    MAX_MILLIS,
    AggregateRow,
    StreamTuple,
    TimeUnit,
    TupleDecodeError,
    decode_tuple,
    encode_tuple,
    is_numeric_value,
    to_millis,
)
from .query import AggregationFunction

logger = logging.getLogger(__name__)

KNOWN_PROVIDERS = ("influxdb", "cassandra")

SEGMENT_MAX_TUPLES = 100_000

# Values per summary block. A range query reads O(n / BLOCK) summaries plus
# at most 2 * BLOCK edge values, so about sqrt(n / 2) is the cheapest size
# for the ~10^5-tuple histories the store is built for.
BLOCK = 256

CHECKPOINT = "columns.ckpt"
CHECKPOINT_VERSION = 2
# The _Series counters a checkpoint records beside the column arrays.
CHECKPOINT_COUNTERS = ("count", "min_ts", "max_ts", "disordered", "bad_lines", "log_duplicates")
# Bytes read at a time when checksumming a segment.
CRC_CHUNK = 1 << 16
# A locator packs a segment's position in ``_Series.paths`` above the byte
# offset of a line in that segment.
OFFSET_BITS = 48
OFFSET_MASK = (1 << OFFSET_BITS) - 1


class StoreError(RuntimeError):
    pass


class UnknownSeriesError(StoreError):
    pass


class AttributeTypeError(StoreError):
    """The queried attribute is never numeric anywhere in the series."""


class ClosedConnectionError(StoreError):
    pass


@dataclass(frozen=True)
class SeriesRef:
    provider: str
    database: str
    series: str

    def __post_init__(self) -> None:
        for part in (self.provider, self.database, self.series):
            if not part:
                raise ValueError("provider, database and series must be non-empty")
            if "/" in part or part in (".", ".."):
                raise ValueError(f"illegal name component: {part!r}")

    @property
    def label(self) -> str:
        return f"{self.provider}/{self.database}/{self.series}"


@dataclass(frozen=True)
class HistoricQuery:
    """A grouped aggregate request over [start, end)."""

    function: AggregationFunction
    value: str
    start: int
    end: int
    group_by_number: int
    group_by_unit: TimeUnit

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("value attribute name must be non-empty")
        if self.start > self.end:
            raise ValueError(f"query start {self.start} is after end {self.end}")
        if self.group_by_number < 1:
            raise ValueError(f"group_by_number must be >= 1, got {self.group_by_number}")

    @property
    def group_by_ms(self) -> int:
        return to_millis(self.group_by_number, self.group_by_unit)


@dataclass(frozen=True)
class SeriesDiagnostics:
    tuples: int
    duplicates_ignored: int
    non_numeric_skipped: int
    bad_lines: int


class _Column:
    """One attribute of a series: numeric values by time, plus block summaries.

    ``ts``/``values`` hold the numeric occurrences and ``other_ts`` the
    timestamps where the attribute is present but not numeric (or an int
    too large for a float). ``sums``,
    ``mins`` and ``maxs`` summarize each full block of BLOCK values as of
    the series holding ``indexed`` tuples.
    """

    __slots__ = ("ts", "values", "other_ts", "indexed", "sums", "mins", "maxs")

    def __init__(self) -> None:
        self.ts = array("q")
        self.values = array("d")
        self.other_ts = array("q")
        self.indexed = 0
        self.sums, self.mins, self.maxs = array("d"), array("d"), array("d")

    def refresh(self, series: "_Series") -> None:
        """Bring the block index up to date with every tuple the series holds."""
        if self.indexed == series.count:
            return
        if series.disordered > self.indexed:
            # Stable, so equal timestamps keep ingest order.
            order = sorted(range(len(self.ts)), key=self.ts.__getitem__)
            self.ts = array("q", [self.ts[i] for i in order])
            self.values = array("d", [self.values[i] for i in order])
            self.other_ts = array("q", sorted(self.other_ts))
            self.sums, self.mins, self.maxs = array("d"), array("d"), array("d")
        # Values appended in order sort after every summarized block, so only
        # the full blocks past the summarized ones are new. One block at a
        # time, so no second copy of the new values is held.
        v = self.values
        for i in range(len(self.sums) * BLOCK, len(v) - len(v) % BLOCK, BLOCK):
            block = v[i : i + BLOCK]
            self.sums.append(sum(block))
            self.mins.append(min(block))
            self.maxs.append(max(block))
        self.indexed = series.count

    def arrays(self) -> tuple[array, ...]:
        """Every array of the column, in checkpoint order."""
        return (self.ts, self.values, self.other_ts, self.sums, self.mins, self.maxs)

    def reduce(self, function: AggregationFunction, lo: int, hi: int) -> float:
        """Sum (for mean) or extremum of values[lo:hi], which must be non-empty.

        Full blocks inside the range are read from their summaries; only the
        two partial edge blocks are read value by value.
        """
        if function is AggregationFunction.MEAN:
            fold, summary = sum, self.sums
        elif function is AggregationFunction.MIN:
            fold, summary = min, self.mins
        else:
            fold, summary = max, self.maxs
        v = self.values
        first = -(-lo // BLOCK)
        last = hi // BLOCK
        if first >= last:
            return fold(v[lo:hi])
        parts = (v[lo : first * BLOCK], summary[first:last], v[last * BLOCK : hi])
        return fold(fold(p) for p in parts if p)


def _key(t: StreamTuple) -> tuple:
    """The exact deduplication key: equal for 1 and 1.0 and any attribute order."""
    return (t.timestamp, t.source_id, tuple(sorted(t.attributes.items())))


class _Series:
    """In-memory state for one registered series: one column per attribute.

    ``disordered`` is the ``count`` just after the latest tuple that arrived
    with a timestamp below ``max_ts``; a column indexed before that must be
    re-sorted. A locator is a segment position in ``paths`` and a byte offset
    packed into one int, or the key itself for a tuple whose line failed to
    be written. ``index_max`` is the newest timestamp ever indexed; it never
    decreases. A tuple newer than it is indexed in the run: ``run_ts``
    (strictly increasing), ``run_hash`` and ``run_loc`` hold its timestamp,
    key hash and locator.
    Every other tuple is in ``index``, which maps a key hash to a locator (a
    list of them when distinct keys share a hash). ``index`` is None, and the
    run empty, after a checkpoint open, until the first ingest builds both
    from the log. ``crcs`` maps a segment name to the (size, crc32) that a
    checkpoint open verified. ``log_duplicates`` counts the log lines
    that repeat an earlier line's key. ``checkpoint`` is None until an ingest,
    True once one completed, and False for good once one stopped part-way,
    which may leave tuples in memory that the log lacks.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self.columns: dict[str, _Column] = {}
        self.count = 0
        self.min_ts = MAX_MILLIS
        self.max_ts = -1
        self.disordered = 0
        self.index: dict[int, object] | None = {}
        self.run_ts = array("q")
        self.run_hash = array("q")
        self.run_loc = array("q")
        self.index_max = -1
        self.duplicates_ignored = 0
        self.log_duplicates = 0
        self.non_numeric_skipped = 0
        self.bad_lines = 0
        self.paths: list[Path] = []
        self.segment_lines = 0
        self.segment_bytes = 0
        self.segment_index = 0
        self.writer = None
        self.reader = None
        self.reader_pos = -1
        self.checkpoint: bool | None = None
        self.crcs: dict[str, tuple[int, int]] = {}

    def remember(self, t: StreamTuple, loc: int) -> bool:
        """Index ``t`` at ``loc``; False, indexing nothing, when an equal key is indexed."""
        key = _key(t)
        h = hash(key)
        ts = t.timestamp
        if ts > self.index_max:
            # Newer than every indexed row, so equal to none of them.
            self.index_max = ts
            self.run_ts.append(ts)
            self.run_hash.append(h)
            self.run_loc.append(loc)
            return True
        if self.run_ts:
            # Run timestamps strictly increase, so at most one row has ``ts``:
            # the last one, when many things report at one instant.
            run_ts = self.run_ts
            i = len(run_ts) - 1
            if run_ts[i] != ts:
                i = bisect_left(run_ts, ts)
                if i == len(run_ts) or run_ts[i] != ts:
                    i = None
            if i is not None and self.run_hash[i] == h and self.key_at(self.run_loc[i]) == key:
                return False
        index = self.index
        old = index.get(h)
        if old is None:
            index[h] = loc
            return True
        if type(old) is not list:
            if self.key_at(old) == key:
                return False
            index[h] = [old, loc]
            return True
        if any(self.key_at(one) == key for one in old):
            return False
        old.append(loc)
        return True

    def key_at(self, loc) -> tuple | None:
        """The key of the tuple stored at ``loc``; None when its line does not decode.

        A locator that is not an int is the key itself, of a tuple whose line
        failed to be written.
        """
        if type(loc) is not int:
            return loc
        if self.writer is not None:
            self.writer.flush()
        pos = loc >> OFFSET_BITS
        if pos != self.reader_pos:
            self.close_reader()
            self.reader = open(self.paths[pos], "rb")
            self.reader_pos = pos
        self.reader.seek(loc & OFFSET_MASK)
        try:
            return _key(decode_tuple(self.reader.readline()))
        except TupleDecodeError:
            return None

    def add(self, t: StreamTuple, loc: int) -> bool:
        """Index a tuple and append it to its columns; False when it duplicates
        an earlier one."""
        if not self.remember(t, loc):
            self.duplicates_ignored += 1
            return False
        ts = t.timestamp
        columns = self.columns
        for name, value in t.attributes.items():
            column = columns.get(name)
            if column is None:
                column = columns[name] = _Column()
            # StreamTuple admits only finite floats.
            if type(value) is float or is_numeric_value(value):
                column.values.append(value)
                column.ts.append(ts)
            else:
                column.other_ts.append(ts)
        self.count += 1
        if ts < self.max_ts:
            self.disordered = self.count
        else:
            self.max_ts = ts
        if ts < self.min_ts:
            self.min_ts = ts
        return True

    def unwritten(self, t: StreamTuple, loc: int) -> None:
        """Repoint ``t``'s index entry from ``loc`` to its key, because its
        line was not written and the next line will take ``loc``."""
        key = _key(t)
        h = hash(key)
        index = self.index
        old = index.get(h)
        if self.run_loc and self.run_loc[-1] == loc:
            # Moved from the run to the dict; ``index_max`` stays, so a row
            # at this timestamp still looks ``t`` up in the dict.
            del self.run_ts[-1], self.run_hash[-1], self.run_loc[-1]
            if old is None:
                index[h] = key
            elif type(old) is list:
                old.append(key)
            else:
                index[h] = [old, key]
        elif type(old) is list:
            old[old.index(loc)] = key
        else:
            index[h] = key
        # The next line opens a new segment, after any partial line.
        self.segment_lines = SEGMENT_MAX_TUPLES

    def close_writer(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    def close_reader(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None
            self.reader_pos = -1

    def write_checkpoint(self) -> None:
        """Write the columns, their block summaries and the counters, and the
        segments they cover, to CHECKPOINT."""
        for column in self.columns.values():
            column.refresh(self)
        segments = []
        for p in _segments(self.directory):
            size = p.stat().st_size
            # Only the segments this session wrote are new or have grown.
            known_size, crc = self.crcs.get(p.name, (None, None))
            if known_size != size:
                crc = _crc(p)
            segments.append([p.name, size, crc])
        header = {
            "version": CHECKPOINT_VERSION,
            "byteorder": sys.byteorder,
            "block": BLOCK,
            **{k: getattr(self, k) for k in CHECKPOINT_COUNTERS},
            "columns": [[name, len(c.ts), len(c.other_ts)] for name, c in self.columns.items()],
            "segments": segments,
        }
        head = json.dumps(header).encode() + b"\n"
        crc = zlib.crc32(head)
        tmp = self.directory / (CHECKPOINT + ".tmp")
        with open(tmp, "wb") as f:
            f.write(head)
            for column in self.columns.values():
                for a in column.arrays():
                    a.tofile(f)
                    crc = zlib.crc32(a, crc)
            f.write(crc.to_bytes(4, "little"))
        os.replace(tmp, self.directory / CHECKPOINT)

    def load_checkpoint(self, segments: list[Path]) -> bool:
        """Load columns, summaries and counters from CHECKPOINT if it covers
        exactly ``segments``.

        Leaves the series untouched and returns False when the checkpoint is
        missing, torn, stale or corrupt.
        """
        path = self.directory / CHECKPOINT
        try:
            with open(path, "rb") as f:
                head = f.readline()
                header = json.loads(head)
                written = (header["version"], header["byteorder"], header["block"])
                if written != (CHECKPOINT_VERSION, sys.byteorder, BLOCK):
                    raise ValueError("another format version, byte order or BLOCK")
                counters = [header[k] for k in CHECKPOINT_COUNTERS]
                shapes = header["columns"]
                # Every "q" and "d" item is 8 bytes, and the crc32 is 4.
                items = sum(2 * n + n_other + 3 * (n // BLOCK) for _, n, n_other in shapes)
                size = len(head) + 8 * items + 4
                if os.fstat(f.fileno()).st_size != size:
                    raise ValueError("payload length does not match the header")
                listed = header["segments"]
                if [(p.name, p.stat().st_size) for p in segments] != [(n, b) for n, b, _ in listed]:
                    raise ValueError("segment names or sizes differ")
                if any(_crc(p) != crc for p, (_, _, crc) in zip(segments, listed)):
                    raise ValueError("segment crc32 differs")
                crc = zlib.crc32(head)
                columns = {}
                for name, n, n_other in shapes:
                    column = columns[name] = _Column()
                    blocks = n // BLOCK
                    lengths = (n, n, n_other, blocks, blocks, blocks)
                    for a, length in zip(column.arrays(), lengths):
                        a.fromfile(f, length)
                        crc = zlib.crc32(a, crc)
                if f.read() != crc.to_bytes(4, "little"):
                    raise ValueError("payload crc32 differs")
        except (OSError, EOFError, ValueError, LookupError, TypeError) as exc:
            logger.debug("ignoring checkpoint %s: %s", path, exc)
            return False
        self.columns = columns
        for k, value in zip(CHECKPOINT_COUNTERS, counters):
            setattr(self, k, value)
        for column in columns.values():
            column.indexed = self.count
        self.duplicates_ignored = self.log_duplicates
        self.index = None
        self.crcs = {name: (size, crc) for name, size, crc in listed}
        return True


def _segments(directory: Path) -> list[Path]:
    return sorted(directory.glob("*.ndjson"))


def _decode(
    segments: list[Path],
) -> Iterator[tuple[Path, int, StreamTuple | TupleDecodeError]]:
    """Every non-blank segment line's locator, and the line decoded or the
    error it failed to decode with (a byte that is not UTF-8 included)."""
    for pos, path in enumerate(segments):
        offset = pos << OFFSET_BITS
        with open(path, "rb") as f:
            for line in f:
                loc = offset
                offset += len(line)
                if line.isspace():
                    continue
                try:
                    t = decode_tuple(line)
                except TupleDecodeError as exc:
                    t = exc
                yield path, loc, t


def _crc(path: Path) -> int:
    # One buffer read into again and again, so a pass over a long log
    # allocates no memory per chunk.
    crc = 0
    buf = bytearray(CRC_CHUNK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(buf):
            crc = zlib.crc32(view[:n], crc)
    return crc


class HistoricStore:
    """The embedded engine behind every registered provider name."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self._series: dict[SeriesRef, _Series] = {}
        self._lock = threading.RLock()
        self._closed = False
        self._load()

    # -- lifecycle --------------------------------------------------------

    def _load(self) -> None:
        if not self.root.is_dir():
            return
        for provider_dir in (self.root / p for p in KNOWN_PROVIDERS):
            if not provider_dir.is_dir():
                continue
            for database_dir in sorted(p for p in provider_dir.iterdir() if p.is_dir()):
                for series_dir in sorted(p for p in database_dir.iterdir() if p.is_dir()):
                    ref = SeriesRef(provider_dir.name, database_dir.name, series_dir.name)
                    series = self._register_locked(ref)
                    self._load_segments(series, series_dir)

    def _load_segments(self, series: _Series, directory: Path) -> None:
        segments = series.paths = _segments(directory)
        if not series.load_checkpoint(segments):
            for path, loc, t in _decode(segments):
                if isinstance(t, TupleDecodeError):
                    series.bad_lines += 1
                    logger.warning("skipping bad line in %s: %s", path, t)
                else:
                    series.add(t, loc)
            series.log_duplicates = series.duplicates_ignored
        if segments:
            series.segment_index = int(segments[-1].stem) + 1
        logger.debug("loaded %d tuples from %s", series.count, directory)

    def close(self) -> None:
        """Close the segment writers, then checkpoint every series ingested into."""
        with self._lock:
            for series in self._series.values():
                series.close_writer()
                series.close_reader()
            self._closed = True
            for series in self._series.values():
                if series.checkpoint:
                    series.write_checkpoint()
                    series.checkpoint = None

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")

    # -- registration -----------------------------------------------------

    def register_series(self, ref: SeriesRef) -> None:
        """Create a series; registering an existing one is a no-op."""
        with self._lock:
            self._check_open()
            self._register_locked(ref)

    def _register_locked(self, ref: SeriesRef) -> _Series:
        if ref.provider not in KNOWN_PROVIDERS:
            raise UnknownSeriesError(f"unknown historic provider: {ref.provider}")
        series = self._series.get(ref)
        if series is None:
            directory = self.root / ref.provider / ref.database / ref.series
            directory.mkdir(parents=True, exist_ok=True)
            series = _Series(directory)
            self._series[ref] = series
        return series

    def _get(self, ref: SeriesRef) -> _Series:
        series = self._series.get(ref)
        if series is None:
            raise UnknownSeriesError(f"unknown series: {ref.label}")
        return series

    def series_refs(self) -> list[SeriesRef]:
        with self._lock:
            return sorted(self._series, key=lambda r: (r.provider, r.database, r.series))

    def attributes(self, ref: SeriesRef) -> frozenset[str]:
        """Attributes with at least one numeric value: those a query may aggregate."""
        with self._lock:
            self._check_open()
            return frozenset(name for name, c in self._get(ref).columns.items() if c.values)

    def time_range(self, ref: SeriesRef) -> tuple[int, int] | None:
        """(min, max) tuple timestamp of a series, or None when empty."""
        with self._lock:
            self._check_open()
            series = self._get(ref)
            if not series.count:
                return None
            return (series.min_ts, series.max_ts)

    def diagnostics(self, ref: SeriesRef) -> SeriesDiagnostics:
        with self._lock:
            self._check_open()
            series = self._get(ref)
            return SeriesDiagnostics(
                tuples=series.count,
                duplicates_ignored=series.duplicates_ignored,
                non_numeric_skipped=series.non_numeric_skipped,
                bad_lines=series.bad_lines,
            )

    # -- ingest -----------------------------------------------------------

    def ingest(self, ref: SeriesRef, tuples: Iterable[StreamTuple]) -> int:
        """Append tuples to a registered series; returns how many were new."""
        with self._lock:
            self._check_open()
            series = self._get(ref)
            if series.index is None:
                series.index = {}
                for _, loc, t in _decode(series.paths):
                    if not isinstance(t, TupleDecodeError):
                        series.remember(t, loc)
            # Only an ingest that completes may be checkpointed, and none after
            # one that did not.
            completes = series.checkpoint is not False
            series.checkpoint = False
            added = 0
            for t in tuples:
                full = series.writer is None or series.segment_lines >= SEGMENT_MAX_TUPLES
                # The locator the line gets: at the end of the last segment,
                # or at the start of the one a rollover opens.
                if full:
                    loc = len(series.paths) << OFFSET_BITS
                else:
                    loc = (len(series.paths) - 1) << OFFSET_BITS | series.segment_bytes
                # Indexed and in the columns before its line is written, so a
                # failed write leaves the tuple in memory, never in the log alone,
                # indexed by its key.
                if not series.add(t, loc):
                    continue
                added += 1
                try:
                    if full:
                        series.close_writer()
                        path = series.directory / f"{series.segment_index:06d}.ndjson"
                        series.segment_index += 1
                        series.paths.append(path)
                        series.writer = open(path, "ab")
                        series.segment_lines = series.segment_bytes = 0
                    line = (encode_tuple(t) + "\n").encode()
                    series.writer.write(line)
                except BaseException:
                    series.unwritten(t, loc)
                    raise
                series.segment_lines += 1
                series.segment_bytes += len(line)
            if series.writer is not None:
                series.writer.flush()
            series.checkpoint = completes
            return added

    # -- queries ----------------------------------------------------------

    def query_to_historic(self, ref: SeriesRef, q: HistoricQuery) -> list[AggregateRow]:
        """Grouped aggregate rows over [q.start, q.end), one per bucket."""
        with self._lock:
            self._check_open()
            series = self._get(ref)
            column = series.columns.get(q.value)
            if series.count and (column is None or not column.values):
                raise AttributeTypeError(
                    f"attribute {q.value!r} is never numeric in series {ref.label}"
                )
            width = q.group_by_ms
            span = q.end - q.start
            if span <= 0:
                return []
            nbuckets = (span + width - 1) // width
            if column is None:
                return [AggregateRow(q.start + k * width, 0.0, None) for k in range(nbuckets)]
            column.refresh(series)
            other = column.other_ts
            series.non_numeric_skipped += bisect_left(other, q.end) - bisect_left(other, q.start)
            ts = column.ts
            mean = q.function is AggregationFunction.MEAN
            rows = []
            lo = bisect_left(ts, q.start)
            for k in range(nbuckets):
                bucket_start = q.start + k * width
                hi = bisect_left(ts, min(bucket_start + width, q.end), lo)
                n = hi - lo
                if n == 0:
                    result = None
                elif mean:
                    result = column.reduce(q.function, lo, hi) / n
                else:
                    result = column.reduce(q.function, lo, hi)
                rows.append(AggregateRow(bucket_start, float(n), result))
                lo = hi
            return rows

    def open_connection(self, ref: SeriesRef) -> "Connection":
        with self._lock:
            self._check_open()
            self._get(ref)
        return Connection(self, ref)


class Connection:
    """A reusable per-series query handle; stays open until closed explicitly."""

    def __init__(self, store: HistoricStore, ref: SeriesRef):
        self._store = store
        self.ref = ref
        self._open = True

    def query_to_historic(self, q: HistoricQuery) -> list[AggregateRow]:
        if not self._open:
            raise ClosedConnectionError(f"connection to {self.ref.label} is closed")
        return self._store.query_to_historic(self.ref, q)

    def close(self) -> None:
        self._open = False
