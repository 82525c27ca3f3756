"""In-process message-oriented middleware: named FIFO queues with disk spill.

Queues are point-to-point work queues with exactly one consumer; a pipeline
fans a stream out by admitting each tuple it drains into every operator.
Each queue keeps at most ``memory_capacity`` tuples in memory; the excess
goes to append-only NDJSON segment files and nothing is ever dropped.

Delivery is FIFO overall and exactly-once within the process. The spill
region always holds tuples newer than the in-memory region: once a queue has
tuples on disk, new publishes append to disk until the disk backlog drains,
which keeps a single memory/disk boundary and preserves order.

Queue handles are shareable across threads. ``publish``/``receive`` may run
concurrently; the batch variants amortize lock traffic for high-rate
producers. Stats are exact at quiescence.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

from .model import StreamTuple, decode_tuple, encode_tuple

logger = logging.getLogger(__name__)

# Spill segments rotate at this many tuples so consumed data is unlinked
# progressively instead of at the end of a burst.
SEGMENT_MAX_TUPLES = 10_000


class BrokerError(RuntimeError):
    pass


class QueueConfigConflict(BrokerError):
    """Queue re-declared with a different configuration."""


class ClosedQueueError(BrokerError):
    """Publish attempted on a closed or deleted queue."""


class SubscriberConflict(BrokerError):
    """A second subscription was attempted on a single-consumer queue."""


@dataclass(frozen=True)
class QueueConfig:
    """Declaration-time queue settings; spill files go under ``<spill root>/<name>``,
    so a name must be one path component: non-empty, no ``/``, not ``.`` or ``..``."""

    name: str
    memory_capacity: int = 100_000

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or self.name in (".", ".."):
            raise ValueError(f"illegal queue name: {self.name!r}")
        if self.memory_capacity < 1:
            raise ValueError(f"memory_capacity must be >= 1, got {self.memory_capacity}")


@dataclass(frozen=True)
class QueueStats:
    """Counter snapshot; published = delivered + in_memory + on_disk at quiescence."""

    published: int
    delivered: int
    spilled: int
    in_memory: int
    on_disk: int


class _Segment:
    """One append-only spill file, written at the tail and read at the head."""

    def __init__(self, path: Path):
        self.path = path
        self.written = 0
        self.read = 0
        self._writer: IO[str] | None = open(path, "a", encoding="utf-8")
        self._reader: IO[str] | None = None

    def append(self, line: str) -> None:
        assert self._writer is not None
        self._writer.write(line)
        self._writer.write("\n")
        self.written += 1

    def flush(self) -> None:
        if self._writer is not None:
            self._writer.flush()

    def pop_line(self) -> str:
        if self._reader is None:
            self._reader = open(self.path, "r", encoding="utf-8")
        line = self._reader.readline()
        self.read += 1
        return line.rstrip("\n")

    @property
    def exhausted(self) -> bool:
        return self.read >= self.written

    @property
    def closed(self) -> bool:
        """True once the segment takes no more lines."""
        return self._writer is None

    def close_writer(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()

    def discard(self) -> None:
        self.close_writer()
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        self.path.unlink(missing_ok=True)


class Queue:
    """A named FIFO queue. Obtain via Broker.declare_queue, never directly."""

    def __init__(self, config: QueueConfig, spill_dir: Path):
        self.config = config
        self.name = config.name
        self._spill_dir = spill_dir
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._mem: deque[StreamTuple] = deque()
        self._segments: deque[_Segment] = deque()
        self._next_segment = 0
        self._published = 0
        self._delivered = 0
        self._spilled = 0
        self._on_disk = 0
        self._closed = False
        self._subscribed = False

    # -- publishing -------------------------------------------------------

    def publish(self, t: StreamTuple) -> None:
        """Enqueue one tuple; never blocks, spilling to disk past capacity."""
        with self._lock:
            self._publish_locked(t)
            self._flush_locked()
            self._not_empty.notify()

    def publish_many(self, tuples: Sequence[StreamTuple]) -> None:
        """Enqueue a batch under one lock acquisition, preserving order."""
        if not tuples:
            return
        with self._lock:
            try:
                for t in tuples:
                    self._publish_locked(t)
            finally:
                # Tuples spilled before a failing one are counted on disk.
                self._flush_locked()
                self._not_empty.notify()

    def _publish_locked(self, t: StreamTuple) -> None:
        if self._closed:
            raise ClosedQueueError(f"queue {self.name!r} is closed")
        if self._on_disk > 0 or len(self._mem) >= self.config.memory_capacity:
            self._spill_locked(t)
        else:
            self._mem.append(t)
        self._published += 1

    def _spill_locked(self, t: StreamTuple) -> None:
        if not self._segments or self._segments[-1].closed:
            self._spill_dir.mkdir(parents=True, exist_ok=True)
            seg = _Segment(self._spill_dir / f"{self._next_segment:06d}.ndjson")
            self._next_segment += 1
            self._segments.append(seg)
        seg = self._segments[-1]
        try:
            seg.append(encode_tuple(t))
        except BaseException:
            # The tail may now hold part of this line. Nothing more is written
            # to this segment, so the fragment lies past its counted lines and
            # is never read; the next spill opens a new segment.
            if seg.written:
                seg.close_writer()
            else:
                self._segments.pop()
                seg.discard()
            raise
        if seg.written >= SEGMENT_MAX_TUPLES:
            seg.close_writer()
        self._on_disk += 1
        self._spilled += 1

    def _flush_locked(self) -> None:
        """Make spilled tuples readable; once per publish call, not per tuple."""
        if self._segments:
            self._segments[-1].flush()

    # -- consuming --------------------------------------------------------

    def _pop_locked(self) -> StreamTuple:
        if self._mem:
            t = self._mem.popleft()
        else:
            seg = self._segments[0]
            t = decode_tuple(seg.pop_line())
            self._on_disk -= 1
            if seg.exhausted and (len(self._segments) > 1 or self._on_disk == 0):
                seg.discard()
                self._segments.popleft()
        self._delivered += 1
        return t

    def _receive_locked(self, timeout: float | None) -> StreamTuple | None:
        if timeout is None:
            while not (self._mem or self._on_disk or self._closed):
                self._not_empty.wait()
        else:
            self._not_empty.wait_for(
                lambda: self._mem or self._on_disk or self._closed, timeout=timeout
            )
        if not (self._mem or self._on_disk):
            return None
        return self._pop_locked()

    # -- admin ------------------------------------------------------------

    def stats(self) -> QueueStats:
        with self._lock:
            return QueueStats(
                published=self._published,
                delivered=self._delivered,
                spilled=self._spilled,
                in_memory=len(self._mem),
                on_disk=self._on_disk,
            )

    def close(self) -> None:
        """Stop accepting publishes; buffered tuples remain receivable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def _destroy(self) -> None:
        with self._lock:
            self._closed = True
            self._mem.clear()
            for seg in self._segments:
                seg.discard()
            self._segments.clear()
            self._on_disk = 0
            self._not_empty.notify_all()


class Subscription:
    """Exclusive consumer handle for one queue.

    ``receive`` blocks up to ``timeout`` seconds (None blocks until data or
    close); an empty result on timeout is not a failure. Closing the
    subscription frees the queue's consumer slot.
    """

    def __init__(self, queue: Queue):
        self._queue = queue
        self._open = True

    def receive(self, timeout: float | None = None) -> StreamTuple | None:
        if not self._open:
            raise BrokerError("subscription is closed")
        with self._queue._lock:
            return self._queue._receive_locked(timeout)

    def receive_many(self, max_count: int, timeout: float | None = None) -> list[StreamTuple]:
        """Receive up to max_count tuples; waits for the first one only."""
        if not self._open:
            raise BrokerError("subscription is closed")
        q = self._queue
        out: list[StreamTuple] = []
        with q._lock:
            first = q._receive_locked(timeout)
            if first is None:
                return out
            out.append(first)
            while len(out) < max_count and (q._mem or q._on_disk):
                out.append(q._pop_locked())
        return out

    def drain(self) -> list[StreamTuple]:
        """Take everything currently buffered without waiting."""
        if not self._open:
            raise BrokerError("subscription is closed")
        q = self._queue
        out: list[StreamTuple] = []
        with q._lock:
            while q._mem or q._on_disk:
                out.append(q._pop_locked())
        return out

    def close(self) -> None:
        if self._open:
            self._open = False
            with self._queue._lock:
                self._queue._subscribed = False


class Broker:
    """Registry of named queues plus the spill root they share."""

    def __init__(self, spill_root: Path | str):
        self.spill_root = Path(spill_root)
        self._queues: dict[str, Queue] = {}
        self._lock = threading.Lock()

    def declare_queue(self, config: QueueConfig) -> Queue:
        """Create a queue, or return the existing handle on an identical re-declare."""
        with self._lock:
            existing = self._queues.get(config.name)
            if existing is not None:
                if existing.config != config:
                    raise QueueConfigConflict(
                        f"queue {config.name!r} already declared with a different config"
                    )
                return existing
            queue = Queue(config, self.spill_root / config.name)
            self._queues[config.name] = queue
            logger.debug("declared queue %s (capacity=%d)", config.name, config.memory_capacity)
            return queue

    def get_queue(self, name: str) -> Queue:
        with self._lock:
            try:
                return self._queues[name]
            except KeyError:
                raise BrokerError(f"no such queue: {name!r}") from None

    def has_queue(self, name: str) -> bool:
        with self._lock:
            return name in self._queues

    def queue_names(self) -> list[str]:
        with self._lock:
            return sorted(self._queues)

    def subscribe(self, queue: Queue | str) -> Subscription:
        """Attach the single consumer of a queue; a second subscriber is refused."""
        q = self.get_queue(queue) if isinstance(queue, str) else queue
        with q._lock:
            if q._subscribed:
                raise SubscriberConflict(f"queue {q.name!r} already has a consumer")
            q._subscribed = True
        return Subscription(q)

    def stats(self, queue: Queue | str) -> QueueStats:
        q = self.get_queue(queue) if isinstance(queue, str) else queue
        return q.stats()

    def delete_queue(self, name: str) -> None:
        """Close the queue and remove its spill files."""
        with self._lock:
            queue = self._queues.pop(name, None)
        if queue is not None:
            queue._destroy()
            spill_dir = queue._spill_dir
            if spill_dir.is_dir():
                for f in spill_dir.iterdir():
                    f.unlink(missing_ok=True)
                try:
                    spill_dir.rmdir()
                except OSError:
                    pass

    def shutdown(self) -> None:
        """Close every queue and discard spill state."""
        for name in self.queue_names():
            self.delete_queue(name)
