import shutil
import tempfile
import threading
import time
from collections import deque
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from conflux import broker as broker_module
from conflux.broker import (
    Broker,
    ClosedQueueError,
    QueueConfig,
    QueueConfigConflict,
    SubscriberConflict,
)
from conflux.model import StreamTuple
from test_store import _TearingWriter


def _t(i: int) -> StreamTuple:
    return StreamTuple(timestamp=i, attributes={"seq": i}, source_id="p")


def test_fifo_order(broker):
    q = broker.declare_queue(QueueConfig(name="q"))
    for i in range(100):
        q.publish(_t(i))
    sub = broker.subscribe(q)
    got = [t.attributes["seq"] for t in sub.drain()]
    assert got == list(range(100))


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "/abs", "../x"])
def test_queue_name_must_be_one_path_component(name):
    # The spill directory is <spill root>/<name>; any other name escapes it.
    with pytest.raises(ValueError, match="illegal queue name"):
        QueueConfig(name=name)


def test_declare_idempotent_and_conflict(broker):
    cfg = QueueConfig(name="q", memory_capacity=10)
    q1 = broker.declare_queue(cfg)
    assert broker.declare_queue(cfg) is q1
    with pytest.raises(QueueConfigConflict):
        broker.declare_queue(QueueConfig(name="q", memory_capacity=20))


def test_single_consumer_enforced(broker):
    q = broker.declare_queue(QueueConfig(name="q"))
    sub = broker.subscribe(q)
    with pytest.raises(SubscriberConflict):
        broker.subscribe(q)
    sub.close()
    # Closing releases the slot for a successor.
    broker.subscribe(q)


def test_receive_timeout_returns_none(broker):
    # A consumer never waits: an empty queue gives None at once.
    q = broker.declare_queue(QueueConfig(name="q"))
    sub = broker.subscribe(q)
    assert sub.receive() is None
    assert sub.receive(timeout=0) is None
    with pytest.raises(ValueError, match="never waits"):
        sub.receive(timeout=0.01)


def test_receive_many_batches(broker):
    q = broker.declare_queue(QueueConfig(name="q"))
    q.publish_many([_t(i) for i in range(10)])
    sub = broker.subscribe(q)
    batch = sub.receive_many(4)
    assert [t.attributes["seq"] for t in batch] == [0, 1, 2, 3]
    assert len(sub.drain()) == 6


def test_publish_to_closed_queue(broker):
    q = broker.declare_queue(QueueConfig(name="q"))
    q.publish(_t(0))
    q.close()
    with pytest.raises(ClosedQueueError):
        q.publish(_t(1))
    # Buffered tuples stay readable after close.
    sub = broker.subscribe(q)
    assert len(sub.drain()) == 1


def test_spill_preserves_order_and_counts(broker):
    q = broker.declare_queue(QueueConfig(name="q", memory_capacity=50))
    n = 500
    for i in range(n):
        q.publish(_t(i))
    stats = q.stats()
    assert stats.published == n
    assert stats.in_memory == 50
    assert stats.on_disk == n - 50
    assert stats.spilled == n - 50
    sub = broker.subscribe(q)
    got = [t.attributes["seq"] for t in sub.drain()]
    assert got == list(range(n))
    stats = q.stats()
    assert stats.delivered == n
    assert stats.in_memory == 0 and stats.on_disk == 0


def test_spill_flushes_once_per_publish_call(broker, monkeypatch):
    monkeypatch.setattr(broker_module, "SEGMENT_MAX_TUPLES", 7)
    flushes = []
    flush = broker_module._Segment.flush

    def counting_flush(self):
        flushes.append(self.path.name)
        flush(self)

    monkeypatch.setattr(broker_module._Segment, "flush", counting_flush)
    q = broker.declare_queue(QueueConfig(name="q", memory_capacity=5))
    sub = broker.subscribe(q)
    got = []
    for b in range(4):
        q.publish_many([_t(i) for i in range(b * 20, b * 20 + 20)])
        got += [t.attributes["seq"] for t in sub.receive_many(9)]
        stats = q.stats()
        assert stats.published == stats.delivered + stats.in_memory + stats.on_disk
    q.publish(_t(80))
    got += [t.attributes["seq"] for t in sub.drain()]
    assert got == list(range(81))
    spilled = q.stats().spilled
    assert spilled > 40
    # One flush per publish call plus one per segment rolled over.
    assert len(flushes) <= 5 + spilled // 7


def test_spill_files_removed_after_consumption(broker, tmp_path):
    spill = tmp_path / "spill"
    b = Broker(spill)
    q = b.declare_queue(QueueConfig(name="q", memory_capacity=10))
    for i in range(200):
        q.publish(_t(i))
    assert any((spill / "q").iterdir())
    sub = b.subscribe(q)
    sub.drain()
    assert not any((spill / "q").iterdir())
    b.shutdown()


def test_spill_drain_reset_returns_to_memory(broker):
    # Once disk drains completely, fresh publishes stay in memory again.
    q = broker.declare_queue(QueueConfig(name="q", memory_capacity=10))
    for i in range(30):
        q.publish(_t(i))
    sub = broker.subscribe(q)
    assert len(sub.drain()) == 30
    q.publish(_t(99))
    assert q.stats().on_disk == 0
    assert q.stats().in_memory == 1


def test_interleaved_publish_consume_keeps_fifo(broker):
    q = broker.declare_queue(QueueConfig(name="q", memory_capacity=8))
    sub = broker.subscribe(q)
    got = []
    seq = 0
    for round_ in range(20):
        for _ in range(13):
            q.publish(_t(seq))
            seq += 1
        got.extend(t.attributes["seq"] for t in sub.receive_many(7))
    got.extend(t.attributes["seq"] for t in sub.drain())
    assert got == list(range(seq))


def test_concurrent_publish_consume_no_loss(broker):
    q = broker.declare_queue(QueueConfig(name="q", memory_capacity=100))
    n_producers, per = 4, 2_000
    done = threading.Event()
    received = []
    sub = broker.subscribe(q)

    def produce(pid: int):
        base = pid * per
        for i in range(per):
            q.publish(StreamTuple(timestamp=1, attributes={"seq": base + i}, source_id=str(pid)))

    def consume():
        while True:
            # Read before the drain: once set, no producer publishes again.
            finished = done.is_set()
            batch = sub.drain()
            received.extend(batch)
            if not batch:
                if finished:
                    return
                time.sleep(0.001)

    ct = threading.Thread(target=consume, daemon=True)
    ct.start()
    producers = [threading.Thread(target=produce, args=(p,), daemon=True) for p in range(n_producers)]
    for t in producers:
        t.start()
    for t in producers:
        t.join()
    done.set()
    ct.join(timeout=10.0)
    assert not ct.is_alive()
    assert len(received) == n_producers * per
    # Per-producer order survives even though global interleaving is free.
    by_src: dict[str, list[int]] = {}
    for t in received:
        by_src.setdefault(t.source_id, []).append(t.attributes["seq"])
    for pid, seqs in by_src.items():
        assert seqs == sorted(seqs)
    stats = q.stats()
    assert stats.delivered == stats.published == n_producers * per


def test_delete_queue_removes_state(broker):
    q = broker.declare_queue(QueueConfig(name="q", memory_capacity=10))
    for i in range(50):
        q.publish(_t(i))
    broker.delete_queue("q")
    assert not broker.has_queue("q")
    with pytest.raises(ClosedQueueError):
        q.publish(_t(99))


@pytest.mark.parametrize("tear_at", ["open segment", "new segment"])
def test_torn_spill_append_loses_nothing_accepted(broker, monkeypatch, tear_at):
    # A failed append closes its segment to writes, so the torn fragment lies
    # past the counted lines and the next spill starts a new segment.
    if tear_at == "new segment":
        monkeypatch.setattr(broker_module, "SEGMENT_MAX_TUPLES", 1)
    q = broker.declare_queue(QueueConfig(name="q", memory_capacity=1))
    q.publish_many([_t(1), _t(2)])
    if tear_at == "open segment":
        seg = q._segments[-1]
        seg._writer = _TearingWriter(seg._writer)
    else:
        real_open = open

        def tearing_open(*args, **kwargs):
            return _TearingWriter(real_open(*args, **kwargs))

        monkeypatch.setattr(broker_module, "open", tearing_open, raising=False)
    with pytest.raises(OSError):
        q.publish(_t(3))
    monkeypatch.undo()
    q.publish(_t(4))
    q.publish_many([_t(5), _t(6)])
    s = q.stats()
    assert (s.published, s.spilled) == (5, 4)
    sub = broker.subscribe(q)
    assert sub.drain() == [_t(i) for i in (1, 2, 4, 5, 6)]
    s = q.stats()
    assert s.published == s.delivered + s.in_memory + s.on_disk
    assert (s.delivered, s.in_memory, s.on_disk) == (5, 0, 0)
    assert list(broker.spill_root.glob("q/*")) == []


@pytest.mark.parametrize(
    "last_line", [b"garbage", b'{"ts":3,"src":"\xff"}'], ids=["garbage", "not-utf8"]
)
def test_undecodable_spill_line_is_skipped_once(broker, caplog, last_line):
    # The line is consumed and counted once; the tuples around it are
    # delivered in order and the queue keeps working.
    q = broker.declare_queue(QueueConfig(name="q", memory_capacity=1))
    q.publish_many([_t(i) for i in range(4)])
    (seg,) = broker.spill_root.glob("q/*.ndjson")
    lines = seg.read_bytes().splitlines()
    seg.write_bytes(b"\n".join(lines[:-1] + [last_line]) + b"\n")
    sub = broker.subscribe(q)
    with caplog.at_level("WARNING", logger="conflux.broker"):
        assert sub.drain() == [_t(0), _t(1), _t(2)]
    assert "skipped a spill line" in caplog.text
    s = q.stats()
    assert (s.delivered, s.in_memory, s.on_disk, s.bad_lines) == (3, 0, 0, 1)
    assert s.published == s.delivered + s.in_memory + s.on_disk + s.bad_lines
    q.publish(_t(4))
    assert sub.drain() == [_t(4)]
    assert q.stats().bad_lines == 1


def test_drained_spill_retains_under_400_bytes_a_tuple(broker, retained_bytes_per_item):
    # Decoded tuples are slotted and share their attribute names and source
    # id, so a drained backlog costs about what tuples built in memory do.
    n = 20_000
    q = broker.declare_queue(QueueConfig(name="q", memory_capacity=1))
    q.publish_many(
        [StreamTuple(i, {"download_speed": i / 7, "upload_speed": i % 7 + 0.5}, "thing-1") for i in range(n)]
    )
    sub = broker.subscribe(q)
    got, per_tuple = retained_bytes_per_item(sub.drain, n)
    assert len(got) == n and got[-1].timestamp == n - 1
    assert per_tuple <= 400


def test_stats_conservation_under_partial_consumption(broker):
    q = broker.declare_queue(QueueConfig(name="q", memory_capacity=20))
    for i in range(75):
        q.publish(_t(i))
    sub = broker.subscribe(q)
    sub.receive_many(30)
    s = q.stats()
    assert s.published == s.delivered + s.in_memory + s.on_disk


# -- stateful model of one queue ----------------------------------------------


class QueueMachine(RuleBasedStateMachine):
    """One spilling queue published to, consumed from and closed, checked
    against a naive model: a deque of the undelivered tuples, the index of
    the first one on disk, and the tuples spilled and read back since the
    disk region last drained. Spill segments hold SEGMENT tuples, so bursts
    of a few tuples roll over and discard them."""

    SEGMENT = 2

    def __init__(self):
        super().__init__()
        self.segment_max = broker_module.SEGMENT_MAX_TUPLES
        broker_module.SEGMENT_MAX_TUPLES = self.SEGMENT
        self.root = Path(tempfile.mkdtemp())
        self.broker = Broker(self.root)
        self.pending: deque[StreamTuple] = deque()
        self.in_memory = self.spilled = self.read_back = self.published = self.seq = 0
        self.closed = False

    def teardown(self):
        broker_module.SEGMENT_MAX_TUPLES = self.segment_max
        self.broker.shutdown()
        shutil.rmtree(self.root, ignore_errors=True)

    @initialize(capacity=st.integers(1, 3))
    def declare(self, capacity):
        self.capacity = capacity
        self.queue = self.broker.declare_queue(QueueConfig(name="q", memory_capacity=capacity))
        self.sub = self.broker.subscribe(self.queue)

    def _published(self, n: int) -> list[StreamTuple]:
        batch = [_t(self.seq + i) for i in range(n)]
        if self.closed:
            return batch
        self.seq += n
        for t in batch:
            self.pending.append(t)
            if self.in_memory < len(self.pending) - 1 or self.in_memory >= self.capacity:
                self.spilled += 1
            else:
                self.in_memory += 1
        self.published += n
        return batch

    def _delivered(self, got: list[StreamTuple]) -> None:
        for t in got:
            assert t == self.pending.popleft()
            if self.in_memory:
                self.in_memory -= 1
            else:
                self.read_back += 1
        if self.read_back == self.spilled:
            # Every spilled tuple is read back, so the next spill starts afresh.
            self.spilled = self.read_back = 0

    @rule()
    def publish(self):
        (t,) = self._published(1)
        if self.closed:
            with pytest.raises(ClosedQueueError):
                self.queue.publish(t)
        else:
            self.queue.publish(t)

    @rule(n=st.integers(0, 7))
    def publish_many(self, n):
        batch = self._published(n)
        if self.closed and batch:
            with pytest.raises(ClosedQueueError):
                self.queue.publish_many(batch)
        else:
            self.queue.publish_many(batch)

    @rule()
    def receive(self):
        got = self.sub.receive(timeout=0)
        if self.pending:
            self._delivered([got])
        else:
            assert got is None

    @rule(n=st.integers(1, 5))
    def receive_many(self, n):
        got = self.sub.receive_many(n)
        assert len(got) == min(n, len(self.pending))
        self._delivered(got)

    @rule()
    def drain(self):
        got = self.sub.drain()
        assert len(got) == len(self.pending)
        self._delivered(got)

    @rule()
    def close(self):
        self.queue.close()
        self.closed = True

    @invariant()
    def counts_match(self):
        stats = self.queue.stats()
        on_disk = len(self.pending) - self.in_memory
        assert (stats.in_memory, stats.on_disk) == (self.in_memory, on_disk)
        assert stats.published == self.published
        assert stats.published == (
            stats.delivered + stats.in_memory + stats.on_disk + stats.bad_lines
        )

    @invariant()
    def consumed_segments_deleted(self):
        files = sorted(self.root.glob("q/*.ndjson"))
        if self.spilled == self.read_back:
            assert files == []
        else:
            # The spilled tuples fill segments of SEGMENT in order; only those
            # from the first unread one to the last written one remain.
            first, last = self.read_back // self.SEGMENT, (self.spilled - 1) // self.SEGMENT
            assert len(files) == last - first + 1


QueueMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
test_queue_machine = QueueMachine.TestCase
