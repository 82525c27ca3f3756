import json
import random
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from conflux.broker import Broker, ClosedQueueError, QueueConfig
from conflux.clock import VirtualClock
from conflux.model import Interval, StreamTuple
from conflux.query import AggregationFunction, Frequency, TimeUnit, WindowKind, WindowSpec
from conflux.runtime import (
    Operator,
    OperatorConfig,
    WindowResult,
    decode_result,
    encode_result,
    hybrid_evaluate,
    result_from_tuple,
    result_to_tuple,
    window_extent,
)
from conflux.store import HistoricStore, SeriesRef

from oracle import close, single_pass_window

MIN = 60_000
SLIDING_10M = WindowSpec(WindowKind.SLIDING, 10, TimeUnit.MINUTES)
REF = SeriesRef("influxdb", "db", "s")


def _t(ts, v, src=""):
    return StreamTuple(timestamp=ts, attributes={"v": v}, source_id=src)


def _config(window, trigger_s=20, fn=AggregationFunction.MEAN, **kw):
    return OperatorConfig(
        trigger=Frequency(trigger_s, TimeUnit.SECONDS),
        window=window,
        aggregation=fn,
        attribute="v",
        **kw,
    )


# -- window extents ---------------------------------------------------------


def test_sliding_extent_trails_trigger():
    anchor = 1_000_000
    got = window_extent(SLIDING_10M, anchor + 20_000, anchor)
    assert got == Interval(anchor + 20_000 - 10 * MIN, anchor + 20_000)


def test_landmark_extent_grows_from_fixed_start():
    spec = WindowSpec(WindowKind.LANDMARK, 10, TimeUnit.DAYS)
    anchor = 5_000_000_000
    first = window_extent(spec, anchor + MIN, anchor)
    later = window_extent(spec, anchor + 60 * MIN, anchor)
    assert first.start == later.start == anchor - 10 * 86_400_000
    assert later.end - first.end == 59 * MIN


def test_extent_may_reach_before_epoch():
    spec = WindowSpec(WindowKind.LANDMARK, 10, TimeUnit.DAYS)
    got = window_extent(spec, 1000, 0)
    assert got.start == -10 * 86_400_000


def test_sliding_extent_is_shift_invariant():
    for anchor in (0, 7_777_000):
        got = window_extent(SLIDING_10M, anchor + 40_000, anchor)
        assert (got.end - got.start, got.end - (anchor + 40_000)) == (10 * MIN, 0)


def test_trigger_before_anchor_rejected():
    with pytest.raises(ValueError):
        window_extent(SLIDING_10M, 99, 100)


# -- hybrid evaluation ------------------------------------------------------


def test_hybrid_fuses_store_and_buffer(empty_store):
    empty_store.register_series(REF)
    empty_store.ingest(REF, [_t(10_000, 2.0), _t(20_000, 4.0)])
    conn = empty_store.open_connection(REF)
    cfg = _config(SLIDING_10M)
    r = hybrid_evaluate(120_000, Interval(0, 120_000), 60_000, [_t(70_000, 6.0)], conn, cfg)
    assert (r.count, r.history_count, r.live_count) == (3, 2, 1)
    assert close(r.value, 4.0)
    conn.close()


def test_hybrid_ignores_live_below_split(empty_store):
    # With a store attached, buffered tuples before the split would double
    # count what history already answered; they must not contribute.
    empty_store.register_series(REF)
    empty_store.ingest(REF, [_t(10_000, 2.0)])
    conn = empty_store.open_connection(REF)
    live = [_t(10_000, 2.0), _t(70_000, 8.0)]
    r = hybrid_evaluate(120_000, Interval(0, 120_000), 60_000, live, conn, _config(SLIDING_10M))
    assert (r.history_count, r.live_count) == (1, 1)
    assert close(r.value, 5.0)
    conn.close()


def test_hybrid_without_store_uses_whole_buffer():
    live = [_t(10_000, 2.0), _t(70_000, 6.0)]
    r = hybrid_evaluate(120_000, Interval(0, 120_000), 60_000, live, None, _config(SLIDING_10M))
    assert (r.count, r.history_count, r.live_count) == (2, 0, 2)
    assert close(r.value, 4.0)


def test_empty_window_result_has_no_value(empty_store):
    empty_store.register_series(REF)
    conn = empty_store.open_connection(REF)
    r = hybrid_evaluate(120_000, Interval(0, 120_000), 60_000, [], conn, _config(SLIDING_10M))
    assert (r.count, r.value) == (0, None)
    conn.close()


@pytest.mark.parametrize("fn", list(AggregationFunction))
def test_hybrid_matches_single_pass_oracle(fn, empty_store):
    rng = random.Random(hash(fn.value) & 0xFFFF)
    empty_store.register_series(REF)
    split = 300_000
    hist = [_t(rng.randrange(0, split), rng.uniform(0.1, 500), src=f"h{i}") for i in range(400)]
    live = sorted(
        (_t(rng.randrange(split, 600_000), rng.uniform(0.1, 500), src=f"l{i}") for i in range(200)),
        key=lambda t: t.timestamp,
    )
    empty_store.ingest(REF, hist)
    conn = empty_store.open_connection(REF)
    cfg = _config(SLIDING_10M, fn=fn)
    for _ in range(50):
        start = rng.randrange(0, 550_000)
        end = rng.randrange(start, 600_001)
        r = hybrid_evaluate(end, Interval(start, end), split, live, conn, cfg)
        count, want = single_pass_window(hist + live, fn, "v", start, end)
        assert r.count == count
        assert close(r.value, want)
    conn.close()


# -- wire formats -----------------------------------------------------------


def test_result_json_round_trip():
    r = WindowResult(
        trigger_time=120_000,
        window=Interval(0, 120_000),
        count=3,
        value=4.0,
        history_count=2,
        live_count=1,
    )
    line = encode_result(result_to_tuple(r, "op"))
    doc = json.loads(line)
    assert list(doc) == [
        "trigger_ts", "win_start", "win_end", "count", "value", "hist_count", "live_count"
    ]
    assert doc["trigger_ts"] == 120_000 and doc["count"] == 3
    assert decode_result(line) == r
    assert result_from_tuple(result_to_tuple(r, "op")) == r


def test_empty_result_omits_value():
    r = WindowResult(
        trigger_time=60_000, window=Interval(0, 60_000), count=0, value=None,
        history_count=0, live_count=0,
    )
    line = encode_result(result_to_tuple(r, "op"))
    assert list(json.loads(line)) == [
        "trigger_ts", "win_start", "win_end", "count", "hist_count", "live_count"
    ]
    assert decode_result(line) == r


# -- operator loop ----------------------------------------------------------


def _operator(broker, clock, config, name="op", store=None, duration_ms=None):
    """An operator anchored at the clock's current instant, and its results."""
    sink = broker.declare_queue(QueueConfig("sink"))
    conn = store.open_connection(REF) if store is not None else None
    return (
        Operator(name, config, sink, conn, clock.now_ms(), duration_ms),
        broker.subscribe(sink),
    )


def _pump_virtual(op, clock, feed_plan, end_ms, step_ms=1_000):
    """Advance the clock in fixed steps, admitting due feed tuples before each step."""
    i = 0
    while clock.now_ms() < end_ms:
        clock.set_ms(clock.now_ms() + step_ms)
        while i < len(feed_plan) and feed_plan[i].timestamp <= clock.now_ms():
            op.admit(feed_plan[i])
            i += 1
        op.step(clock.now_ms())


def test_bounded_run_emits_exact_result_count(broker):
    clock = VirtualClock(0)
    cfg = _config(WindowSpec(WindowKind.SLIDING, 2, TimeUnit.MINUTES), trigger_s=120)
    op, results = _operator(broker, clock, cfg, duration_ms=20 * MIN)
    rng = random.Random(1)
    plan = [_t(ts, rng.uniform(1, 9), src=str(ts)) for ts in range(0, 20 * MIN, 7_000)]
    _pump_virtual(op, clock, plan, 20 * MIN)
    op.step(clock.now_ms())
    assert op.finished
    got = results.drain()
    assert len(got) == 10
    assert [r.timestamp for r in got] == [k * 2 * MIN for k in range(1, 11)]
    assert op.metrics.results_emitted == 10


def test_quiet_windows_still_emit(broker):
    clock = VirtualClock(0)
    cfg = _config(WindowSpec(WindowKind.SLIDING, 1, TimeUnit.MINUTES), trigger_s=60)
    op, results = _operator(broker, clock, cfg, duration_ms=3 * MIN)
    _pump_virtual(op, clock, [], 3 * MIN)
    op.step(clock.now_ms())
    rs = [result_from_tuple(t) for t in results.drain()]
    assert [r.count for r in rs] == [0, 0, 0]
    assert all(r.value is None for r in rs)


def test_results_match_oracle_per_window(broker):
    clock = VirtualClock(0)
    window = WindowSpec(WindowKind.SLIDING, 3, TimeUnit.MINUTES)
    cfg = _config(window, trigger_s=60, fn=AggregationFunction.MAX)
    op, results = _operator(broker, clock, cfg, duration_ms=15 * MIN)
    rng = random.Random(9)
    plan = [_t(ts, rng.uniform(1, 100), src=str(ts)) for ts in range(500, 15 * MIN, 1_700)]
    _pump_virtual(op, clock, plan, 15 * MIN)
    op.step(clock.now_ms())
    for out in results.drain():
        r = result_from_tuple(out)
        count, want = single_pass_window(
            plan, AggregationFunction.MAX, "v", r.window.start, r.window.end
        )
        assert r.count == count
        assert close(r.value, want)


def test_landmark_counts_never_shrink(broker):
    clock = VirtualClock(1_000_000)
    cfg = _config(WindowSpec(WindowKind.LANDMARK, 1, TimeUnit.HOURS), trigger_s=60)
    op, results = _operator(broker, clock, cfg, duration_ms=10 * MIN)
    rng = random.Random(4)
    plan = [
        _t(1_000_000 + ts, rng.uniform(1, 9), src=str(ts)) for ts in range(0, 10 * MIN, 2_500)
    ]
    _pump_virtual(op, clock, plan, 1_000_000 + 10 * MIN)
    op.step(clock.now_ms())
    counts = [result_from_tuple(t).count for t in results.drain()]
    assert len(counts) == 10
    assert counts == sorted(counts)


def test_late_tuples_dropped_and_counted(broker):
    clock = VirtualClock(0)
    cfg = _config(WindowSpec(WindowKind.SLIDING, 1, TimeUnit.MINUTES), trigger_s=60)
    op, _ = _operator(broker, clock, cfg)
    clock.set_ms(5 * MIN)
    op.step(clock.now_ms())
    assert not op.admit(_t(3 * MIN, 1.0))
    assert op.metrics.late_dropped == 1
    # Admission bound is next window start (5 min trigger fired, next is 6 min).
    assert op.admit(_t(5 * MIN, 1.0))


def test_non_numeric_tuples_are_not_buffered(broker):
    clock = VirtualClock(0)
    cfg = _config(WindowSpec(WindowKind.SLIDING, 1, TimeUnit.MINUTES), trigger_s=60)
    op, results = _operator(broker, clock, cfg, duration_ms=MIN)
    assert not op.admit(_t(1_000, "n/a"))
    assert not op.admit(StreamTuple(timestamp=2_000, attributes={"w": 1.0}))
    assert (op.metrics.non_numeric_skipped, op.metrics.buffered) == (2, 0)
    assert op.admit(_t(3_000, 4.0))
    clock.set_ms(MIN)
    op.step(clock.now_ms())
    r = result_from_tuple(results.drain()[0])
    assert (r.count, r.live_count, r.value) == (1, 1, 4.0)


def test_int_beyond_float_range_is_skipped_not_fired(broker):
    clock = VirtualClock(0)
    cfg = _config(
        WindowSpec(WindowKind.SLIDING, 1, TimeUnit.MINUTES),
        trigger_s=60,
        fn=AggregationFunction.MAX,
    )
    op, results = _operator(broker, clock, cfg, duration_ms=MIN)
    assert not op.admit(_t(1_000, 10**400))
    clock.set_ms(MIN)
    op.step(clock.now_ms())
    assert (op.metrics.non_numeric_skipped, op.metrics.buffered) == (1, 0)
    r = result_from_tuple(results.drain()[0])
    assert (r.count, r.value) == (0, None)


def test_buffer_evicted_after_firing(broker):
    clock = VirtualClock(0)
    cfg = _config(WindowSpec(WindowKind.SLIDING, 1, TimeUnit.MINUTES), trigger_s=60)
    op, _ = _operator(broker, clock, cfg, duration_ms=10 * MIN)
    plan = [_t(ts, 1.0, src=str(ts)) for ts in range(0, 10 * MIN, 1_000)]
    _pump_virtual(op, clock, plan, 10 * MIN)
    op.step(clock.now_ms())
    # Only the final minute of tuples may remain buffered.
    assert op.metrics.buffered <= 61


def test_operator_uses_history_before_start(broker, empty_store):
    empty_store.register_series(REF)
    empty_store.ingest(REF, [_t(ts, 2.0, src=str(ts)) for ts in range(0, 60_000, 10_000)])
    clock = VirtualClock(60_000)
    cfg = _config(WindowSpec(WindowKind.SLIDING, 2, TimeUnit.MINUTES), trigger_s=60)
    op, results = _operator(broker, clock, cfg, store=empty_store, duration_ms=MIN)
    op.admit(_t(70_000, 8.0))
    _pump_virtual(op, clock, [], 2 * MIN)
    r = result_from_tuple(results.drain()[0])
    assert (r.history_count, r.live_count) == (6, 1)
    assert close(r.value, (6 * 2.0 + 8.0) / 7)
    op.close()


def test_behind_watermark_counted_not_buffered(broker, empty_store):
    empty_store.register_series(REF)
    empty_store.ingest(REF, [_t(0, 2.0)])
    clock = VirtualClock(60_000)
    cfg = _config(WindowSpec(WindowKind.SLIDING, 2, TimeUnit.MINUTES), trigger_s=60)
    op, _ = _operator(broker, clock, cfg, store=empty_store)
    # Inside the next window, so not late, but the store answers before 60 s.
    assert not op.admit(_t(30_000, 5.0))
    m = op.metrics
    assert (m.tuples_in, m.behind_watermark, m.buffered) == (1, 1, 0)
    assert (m.late_dropped, m.non_numeric_skipped, m.results_emitted) == (0, 0, 0)
    op.close()


def test_live_only_operator_buffers_tuples_before_start(broker):
    clock = VirtualClock(60_000)
    cfg = _config(WindowSpec(WindowKind.SLIDING, 2, TimeUnit.MINUTES), trigger_s=60)
    op, _ = _operator(broker, clock, cfg)
    assert op.admit(_t(30_000, 5.0))
    assert (op.metrics.behind_watermark, op.metrics.buffered) == (0, 1)


def test_sink_closed_raises_from_step(broker):
    clock = VirtualClock(0)
    cfg = _config(WindowSpec(WindowKind.SLIDING, 1, TimeUnit.MINUTES), trigger_s=60)
    op, results = _operator(broker, clock, cfg)
    results.close()
    broker.get_queue("sink").close()
    with pytest.raises(ClosedQueueError, match="'sink' is closed"):
        op.step(MIN)
    assert op.metrics.results_emitted == 0


def test_two_virtual_runs_are_byte_identical(broker):
    def run(tag):
        clock = VirtualClock(0)
        sink = broker.declare_queue(QueueConfig(f"sink.{tag}"))
        cfg = _config(WindowSpec(WindowKind.SLIDING, 2, TimeUnit.MINUTES), trigger_s=120)
        op = Operator("op", cfg, sink, None, clock.now_ms(), 20 * MIN)
        rng = random.Random(42)
        plan = [_t(ts, rng.uniform(1, 9), src=str(ts)) for ts in range(0, 20 * MIN, 3_000)]
        out = broker.subscribe(sink)
        _pump_virtual(op, clock, plan, 20 * MIN)
        op.step(clock.now_ms())
        return b"".join(
            (encode_result(t) + "\n").encode() for t in out.drain()
        )

    assert run("a") == run("b")


# -- operator state machine ---------------------------------------------------

ANCHOR = 100_000
# A value and whether the operator must count it: a finite float, an int, a
# non-numeric string, an int too large for a float, or the attribute left out.
VALUES = st.one_of(
    st.floats(0.5, 1_000.0).map(lambda v: (v, True)),
    st.integers(1, 1_000).map(lambda v: (v, True)),
    st.sampled_from([("n/a", False), (10**400, False), (None, False)]),
)


def _attrs(value):
    return {"w": 1.0} if value is None else {"v": value}


class OperatorMachine(RuleBasedStateMachine):
    """An operator driven by arbitrary arrivals and a non-decreasing ``now``,
    checked against a naive model: every result against
    ``single_pass_window`` over the history plus the tuples the model
    admitted before that trigger fired, and every tuple in reconciled."""

    @initialize(
        kind=st.sampled_from(WindowKind),
        window_s=st.integers(1, 4),
        trigger_s=st.integers(1, 3),
        fn=st.sampled_from(AggregationFunction),
        periods=st.none() | st.integers(1, 8),
        history=st.none() | st.lists(st.tuples(st.integers(-8_000, -1), VALUES), max_size=12),
    )
    def launch(self, kind, window_s, trigger_s, fn, periods, history):
        self.cfg = _config(WindowSpec(kind, window_s, TimeUnit.SECONDS), trigger_s=trigger_s, fn=fn)
        self.spill_root = tempfile.mkdtemp()
        self.broker = Broker(self.spill_root)
        self.store_root = tempfile.mkdtemp()
        self.store = None
        self.history = []
        conn = None
        if history is not None:
            # The store refuses an attribute it never saw numeric; this tuple
            # lies before every window.
            self.history = [StreamTuple(ANCHOR - 9_000, {"v": 1.0}, "h")] + [
                StreamTuple(ANCHOR + dt, _attrs(v), f"h{i}") for i, (dt, (v, _)) in enumerate(history)
            ]
            self.store = HistoricStore(self.store_root)
            self.store.register_series(REF)
            self.store.ingest(REF, self.history)
            conn = self.store.open_connection(REF)
        sink = self.broker.declare_queue(QueueConfig("sink"))
        duration_ms = None if periods is None else periods * self.cfg.trigger.period_ms
        self.op = Operator("op", self.cfg, sink, conn, ANCHOR, duration_ms)
        self.results = self.broker.subscribe(sink)
        self.now = ANCHOR
        self.next = ANCHOR + self.cfg.trigger.period_ms
        self.end = None if duration_ms is None else ANCHOR + duration_ms
        self.pending = []
        self.admitted = []
        self.late = self.behind = self.non_numeric = 0

    def teardown(self):
        if hasattr(self, "op"):
            self.op.close()
            self.results.close()
            self.broker.shutdown()
            shutil.rmtree(self.spill_root, ignore_errors=True)
            if self.store is not None:
                self.store.close()
            shutil.rmtree(self.store_root, ignore_errors=True)

    def _window_start(self, trigger):
        if self.cfg.window.kind is WindowKind.SLIDING:
            return trigger - self.cfg.window.duration_ms
        return ANCHOR - self.cfg.window.duration_ms

    @rule(
        near=st.sampled_from(["bound", "next bound", "watermark", "trigger"]) | st.none(),
        jitter=st.integers(-1, 1),
        offset=st.integers(-12_000, 8_000),
        value=VALUES,
    )
    def arrive(self, near, jitter, offset, value):
        # Most arrivals land on, or 1 ms either side of, the admission bound
        # before and after the next trigger fires, the watermark or the next
        # trigger, where an off-by-one would show; the rest land anywhere
        # around the next trigger.
        edges = {
            "bound": self._window_start(self.next),
            "next bound": self._window_start(self.next + self.cfg.trigger.period_ms),
            "watermark": ANCHOR,
            "trigger": self.next,
        }
        ts = self.next + offset if near is None else edges[near] + jitter
        v, numeric = value
        t = StreamTuple(ts, _attrs(v), "live")
        self.pending.append((t, numeric))

    @rule(delta=st.integers(0, 3_000) | st.sampled_from([500, 1_000, 2_000]))
    def step(self, delta):
        self.now += delta
        # As a pipeline pass does: admit everything that arrived, then step.
        for t, _ in self.pending:
            self.op.admit(t)
        fired_count = self.op.step(self.now)
        bound = self._window_start(self.next)
        for t, numeric in self.pending:
            if t.timestamp < bound:
                self.late += 1
            elif self.store is not None and t.timestamp < ANCHOR:
                self.behind += 1
            elif not numeric:
                self.non_numeric += 1
            else:
                self.admitted.append(t)
        fired = []
        while self.next <= self.now and (self.end is None or self.next <= self.end):
            fired.append(self.next)
            self.next += self.cfg.trigger.period_ms
        got = [result_from_tuple(t) for t in self.results.drain()]
        assert fired_count == len(fired)
        self.pending = []
        assert [r.trigger_time for r in got] == fired
        for r in got:
            start = self._window_start(r.trigger_time)
            assert r.window == Interval(start, r.trigger_time)
            count, want = single_pass_window(
                self.history + self.admitted, self.cfg.aggregation, "v", start, r.trigger_time
            )
            hist, _ = single_pass_window(
                self.history, self.cfg.aggregation, "v", start, r.trigger_time
            )
            assert (r.count, r.history_count) == (count, hist)
            assert close(r.value, want)

    @invariant()
    def counters_reconcile(self):
        m = self.op.metrics
        assert m.tuples_in == len(self.admitted) + m.late_dropped + m.behind_watermark + (
            m.non_numeric_skipped
        )
        assert (m.late_dropped, m.behind_watermark, m.non_numeric_skipped) == (
            self.late, self.behind, self.non_numeric
        )
        assert self.op.next_trigger_ms == self.next
        assert self.op.finished == (self.end is not None and self.next > self.end)


OperatorMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
test_operator_machine = OperatorMachine.TestCase
