"""In-process message-oriented middleware: named FIFO queues with disk spill.

Queues are point-to-point work queues with exactly one consumer; a pipeline
fans a stream out by admitting each tuple it drains into every operator.
Each queue keeps at most ``memory_capacity`` tuples in memory; the excess
goes to append-only NDJSON segment files and nothing is ever dropped.

Delivery is FIFO overall and exactly-once within the process. The spill
region always holds tuples newer than the in-memory region: once a queue has
tuples on disk, new publishes append to disk until the disk backlog drains,
which keeps a single memory/disk boundary and preserves order.

Consumers never wait: ``receive``, ``receive_many`` and ``drain`` take what
is queued and return at once. Producers may publish from other threads, so
each queue keeps a lock; ``publish_many`` takes it once per batch. A spill
line that does not decode is consumed once, skipped, logged and counted in
``QueueStats.bad_lines``. Stats are exact at quiescence.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

from .model import StreamTuple, TupleDecodeError, decode_tuple, encode_tuple

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
    """Counter snapshot; published = delivered + in_memory + on_disk + bad_lines
    at quiescence, where ``bad_lines`` counts spill lines skipped because they
    did not decode."""

    published: int
    delivered: int
    spilled: int
    in_memory: int
    on_disk: int
    bad_lines: int


class _Segment:
    """One append-only spill file, written at the tail and read at the head."""

    def __init__(self, path: Path):
        self.path = path
        self.written = 0
        self.read = 0
        self._writer: IO[str] | None = open(path, "a", encoding="utf-8")
        self._reader: IO[bytes] | None = None

    def append(self, line: str) -> None:
        assert self._writer is not None
        self._writer.write(line)
        self._writer.write("\n")
        self.written += 1

    def flush(self) -> None:
        if self._writer is not None:
            self._writer.flush()

    def pop_line(self) -> bytes:
        """The next line, read as bytes so that a byte which is not UTF-8
        spoils only its own line."""
        if self._reader is None:
            self._reader = open(self.path, "rb")
        line = self._reader.readline()
        self.read += 1
        return line

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
        self._mem: deque[StreamTuple] = deque()
        self._segments: deque[_Segment] = deque()
        self._next_segment = 0
        self._published = 0
        self._delivered = 0
        self._spilled = 0
        self._on_disk = 0
        self._bad_lines = 0
        self._closed = False
        self._subscribed = False

    # -- publishing -------------------------------------------------------

    def publish(self, t: StreamTuple) -> None:
        """Enqueue one tuple; never blocks, spilling to disk past capacity."""
        with self._lock:
            self._publish_locked(t)
            self._flush_locked()

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

    def _pop_locked(self) -> StreamTuple | None:
        """The oldest tuple, or None once the queue is empty. A spill line
        that does not decode is consumed, counted in ``bad_lines`` and skipped."""
        if self._mem:
            self._delivered += 1
            return self._mem.popleft()
        while self._on_disk:
            seg = self._segments[0]
            line = seg.pop_line()
            self._on_disk -= 1
            if seg.exhausted and (len(self._segments) > 1 or self._on_disk == 0):
                seg.discard()
                self._segments.popleft()
            try:
                t = decode_tuple(line.decode())
            except (UnicodeDecodeError, TupleDecodeError) as exc:
                self._bad_lines += 1
                logger.warning("queue %s: skipped a spill line: %s", self.name, exc)
                continue
            self._delivered += 1
            return t
        return None

    # -- admin ------------------------------------------------------------

    def stats(self) -> QueueStats:
        with self._lock:
            return QueueStats(
                published=self._published,
                delivered=self._delivered,
                spilled=self._spilled,
                in_memory=len(self._mem),
                on_disk=self._on_disk,
                bad_lines=self._bad_lines,
            )

    def close(self) -> None:
        """Stop accepting publishes; buffered tuples remain receivable."""
        with self._lock:
            self._closed = True

    def _destroy(self) -> None:
        with self._lock:
            self._closed = True
            self._mem.clear()
            for seg in self._segments:
                seg.discard()
            self._segments.clear()
            self._on_disk = 0


class Subscription:
    """Exclusive consumer handle for one queue.

    Every read takes what is queued and returns at once; an empty queue
    gives ``None`` or ``[]``, never a wait. Closing the subscription frees
    the queue's consumer slot.
    """

    def __init__(self, queue: Queue):
        self._queue = queue
        self._open = True

    def receive(self, timeout: float | None = None) -> StreamTuple | None:
        """The oldest tuple, or None at once. ``timeout`` may only be None or 0."""
        if timeout:
            raise ValueError(f"receive never waits; timeout must be None or 0, got {timeout!r}")
        if not self._open:
            raise BrokerError("subscription is closed")
        with self._queue._lock:
            return self._queue._pop_locked()

    def receive_many(self, max_count: int) -> list[StreamTuple]:
        """Take up to ``max_count`` of the oldest tuples without waiting."""
        if not self._open:
            raise BrokerError("subscription is closed")
        pop = self._queue._pop_locked
        out: list[StreamTuple] = []
        with self._queue._lock:
            while len(out) < max_count and (t := pop()) is not None:
                out.append(t)
        return out

    def drain(self) -> list[StreamTuple]:
        """Take everything currently queued."""
        if not self._open:
            raise BrokerError("subscription is closed")
        pop = self._queue._pop_locked
        out: list[StreamTuple] = []
        with self._queue._lock:
            while (t := pop()) is not None:
                out.append(t)
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
