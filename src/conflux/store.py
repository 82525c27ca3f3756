"""Embedded time-series store for tuple histories.

Series are addressed by (provider, database, series). The provider names
"influxdb" and "cassandra" are both served by this embedded engine; remote
client implementations are a plug point, not included. A series must be
registered before ingest or query.

Storage is one directory per series holding append-only NDJSON segments;
the time index is rebuilt in memory on open. A store opened with
``root=None`` keeps everything in memory, which is convenient for tests.

Grouped queries bucket the series by time, with bucket origin anchored at
the query start so history buckets line up with whatever window the caller
is assembling. Every bucket intersecting [start, end) yields a row, empty
ones included; the last bucket is clipped at the query end.

Concurrency: ingest takes the store lock exclusively; queries of registered
series may run from several threads. Connection handles must not be shared
across threads, but independent handles to one series may.
"""

from __future__ import annotations

import logging
import threading
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .model import (
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


class _Series:
    """In-memory state for one registered series."""

    def __init__(self, directory: Path | None):
        self.directory = directory
        self.tuples: list[StreamTuple] = []
        self.ts: list[int] = []
        self.sorted = True
        self.seen: set[tuple] = set()
        self.numeric_attrs: set[str] = set()
        self.attrs: set[str] = set()
        self.duplicates_ignored = 0
        self.non_numeric_skipped = 0
        self.segment_lines = 0
        self.segment_index = 0
        self.writer = None

    def add(self, t: StreamTuple) -> bool:
        """Index a tuple; False when it duplicates an earlier one."""
        key = (t.timestamp, t.source_id, tuple(sorted(t.attributes.items())))
        if key in self.seen:
            self.duplicates_ignored += 1
            return False
        self.seen.add(key)
        if self.sorted and self.ts and t.timestamp < self.ts[-1]:
            self.sorted = False
        self.tuples.append(t)
        self.ts.append(t.timestamp)
        for name, value in t.attributes.items():
            self.attrs.add(name)
            if is_numeric_value(value):
                self.numeric_attrs.add(name)
        return True

    def ensure_sorted(self) -> None:
        if not self.sorted:
            # Stable, so equal timestamps keep ingest order.
            self.tuples.sort(key=lambda t: t.timestamp)
            self.ts = [t.timestamp for t in self.tuples]
            self.sorted = True

    def close_writer(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None


class HistoricStore:
    """The embedded engine behind every registered provider name."""

    def __init__(self, root: Path | str | None = None):
        self.root = None if root is None else Path(root)
        self._series: dict[SeriesRef, _Series] = {}
        self._lock = threading.RLock()
        self._closed = False
        if self.root is not None:
            self._load()

    # -- lifecycle --------------------------------------------------------

    def _load(self) -> None:
        assert self.root is not None
        if not self.root.is_dir():
            return
        for provider_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            if provider_dir.name not in KNOWN_PROVIDERS:
                continue
            for database_dir in sorted(p for p in provider_dir.iterdir() if p.is_dir()):
                for series_dir in sorted(p for p in database_dir.iterdir() if p.is_dir()):
                    ref = SeriesRef(provider_dir.name, database_dir.name, series_dir.name)
                    series = self._register_locked(ref)
                    self._load_segments(series, series_dir)

    def _load_segments(self, series: _Series, directory: Path) -> None:
        segments = sorted(directory.glob("*.ndjson"))
        for path in segments:
            with open(path, encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        series.add(decode_tuple(line))
                    except TupleDecodeError as exc:
                        logger.warning("skipping bad line in %s: %s", path, exc)
        if segments:
            last = segments[-1]
            series.segment_index = int(last.stem) + 1
        logger.debug("loaded %d tuples from %s", len(series.tuples), directory)

    def flush(self) -> None:
        with self._lock:
            for series in self._series.values():
                if series.writer is not None:
                    series.writer.flush()

    def close(self) -> None:
        with self._lock:
            for series in self._series.values():
                series.close_writer()
            self._closed = True

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
            directory = None
            if self.root is not None:
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
        with self._lock:
            self._check_open()
            return frozenset(self._get(ref).attrs)

    def count(self, ref: SeriesRef) -> int:
        with self._lock:
            self._check_open()
            return len(self._get(ref).tuples)

    def time_range(self, ref: SeriesRef) -> tuple[int, int] | None:
        """(min, max) tuple timestamp of a series, or None when empty."""
        with self._lock:
            self._check_open()
            series = self._get(ref)
            if not series.tuples:
                return None
            series.ensure_sorted()
            return (series.ts[0], series.ts[-1])

    def diagnostics(self, ref: SeriesRef) -> SeriesDiagnostics:
        with self._lock:
            self._check_open()
            series = self._get(ref)
            return SeriesDiagnostics(
                tuples=len(series.tuples),
                duplicates_ignored=series.duplicates_ignored,
                non_numeric_skipped=series.non_numeric_skipped,
            )

    # -- ingest -----------------------------------------------------------

    def ingest(self, ref: SeriesRef, tuples: Iterable[StreamTuple]) -> int:
        """Append tuples to a registered series; returns how many were new."""
        with self._lock:
            self._check_open()
            series = self._get(ref)
            added = 0
            for t in tuples:
                if not series.add(t):
                    continue
                added += 1
                if series.directory is not None:
                    self._write_locked(series, t)
            if series.writer is not None:
                series.writer.flush()
            return added

    def _write_locked(self, series: _Series, t: StreamTuple) -> None:
        if series.writer is None or series.segment_lines >= SEGMENT_MAX_TUPLES:
            series.close_writer()
            assert series.directory is not None
            path = series.directory / f"{series.segment_index:06d}.ndjson"
            series.segment_index += 1
            series.segment_lines = 0
            series.writer = open(path, "a", encoding="utf-8")
        series.writer.write(encode_tuple(t))
        series.writer.write("\n")
        series.segment_lines += 1

    # -- queries ----------------------------------------------------------

    def query_to_historic(self, ref: SeriesRef, q: HistoricQuery) -> list[AggregateRow]:
        """Grouped aggregate rows over [q.start, q.end), one per bucket."""
        with self._lock:
            self._check_open()
            series = self._get(ref)
            if series.tuples and q.value not in series.numeric_attrs:
                raise AttributeTypeError(
                    f"attribute {q.value!r} is never numeric in series {ref.label}"
                )
            width = q.group_by_ms
            span = q.end - q.start
            if span <= 0:
                return []
            nbuckets = (span + width - 1) // width
            counts = [0] * nbuckets
            accs = [0.0] * nbuckets
            series.ensure_sorted()
            lo = bisect_left(series.ts, q.start)
            hi = bisect_left(series.ts, q.end)
            mean = q.function is AggregationFunction.MEAN
            use_min = q.function is AggregationFunction.MIN
            skipped = 0
            for i in range(lo, hi):
                t = series.tuples[i]
                v = t.attributes.get(q.value)
                if not is_numeric_value(v):
                    if v is not None:
                        skipped += 1
                    continue
                k = (t.timestamp - q.start) // width
                if mean:
                    accs[k] += v
                elif counts[k] == 0:
                    accs[k] = v
                elif use_min:
                    if v < accs[k]:
                        accs[k] = v
                elif v > accs[k]:
                    accs[k] = v
                counts[k] += 1
            series.non_numeric_skipped += skipped
            rows = []
            for k in range(nbuckets):
                n = counts[k]
                if n == 0:
                    result = None
                elif mean:
                    result = accs[k] / n
                else:
                    result = accs[k]
                rows.append(AggregateRow(q.start + k * width, float(n), result))
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

    @property
    def is_open(self) -> bool:
        return self._open
