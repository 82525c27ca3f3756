import json
import random
import threading
import time

import pytest

from conflux import planner
from conflux.broker import Broker, ClosedQueueError, QueueConfig
from conflux.clock import VirtualClock
from conflux.model import StreamTuple
from conflux.planner import (
    OperatorStage,
    PipelineState,
    PlanError,
    launch,
    plan,
    plan_many,
    result_queue_name,
)
from conflux.query import AggregationFunction, Catalog, WindowKind, parse_query, render_query
from conflux.runtime import encode_result, result_from_tuple
from conflux.store import Connection, HistoricStore, SeriesRef

from oracle import close, single_pass_window
from test_query import FASTEST_DOWNLOAD, NEUBOT_SPEED_MEAN

MIN = 60_000
STREAM_MAX = FASTEST_DOWNLOAD + " from streaming rabbitmq queue neubotspeed"
ATTRS = frozenset({"download_speed", "upload_speed"})


@pytest.fixture
def catalog():
    return Catalog(
        stream_queues=frozenset({"neubotspeed"}),
        series_attributes={
            ("influxdb", "neubot", "speedtest"): ATTRS,
            ("cassandra", "neubot", "speedtests"): ATTRS,
        },
    )


def _feed(n, period_ms, start=0, seed=0, attr="download_speed"):
    rng = random.Random(seed)
    return [
        StreamTuple(
            timestamp=start + k * period_ms,
            attributes={attr: rng.uniform(1, 99)},
            source_id=f"t{k}",
        )
        for k in range(n)
    ]


def test_plan_shape_for_hybrid_query(catalog):
    spec = parse_query(NEUBOT_SPEED_MEAN)
    p = plan(spec, catalog)
    assert p.source_queue == "neubotspeed"
    (op,) = p.operator_stages
    assert isinstance(op, OperatorStage)
    assert op.input_queue == "neubotspeed"
    assert op.sink_queue == result_queue_name(spec)
    assert op.config.aggregation is AggregationFunction.MEAN
    assert op.config.attribute == "download_speed"
    assert op.config.trigger.period_ms == 20_000
    assert op.config.window.duration_ms == 10 * MIN
    assert op.historic == SeriesRef("influxdb", "neubot", "speedtest")
    assert [q.name for q in p.queues] == [op.sink_queue]


def test_plan_id_and_result_queue_stable(catalog):
    spec = parse_query(NEUBOT_SPEED_MEAN)
    a, b = plan(spec, catalog), plan(spec, catalog)
    assert a.id == b.id and len(a.id) == 12
    assert result_queue_name(spec) == result_queue_name(parse_query(render_query(spec)))
    # A different query gets a different identity.
    other = parse_query(STREAM_MAX)
    assert plan(other, catalog).id != a.id


def test_plan_refuses_invalid_spec(catalog):
    spec = parse_query(STREAM_MAX.replace("neubotspeed", "nosuchqueue"))
    with pytest.raises(PlanError, match="nosuchqueue"):
        plan(spec, catalog)


FAN_OUT = [
    "EVERY 10 seconds compute the max value of download_speed of the last 30 seconds "
    "from streaming rabbitmq queue neubotspeed",
    "EVERY 5 seconds compute the mean value of download_speed of the last 5 seconds "
    "from streaming rabbitmq queue neubotspeed",
    "EVERY 20 seconds compute the min value of download_speed starting 10 seconds ago "
    "from streaming rabbitmq queue neubotspeed",
]


def _late_arrivals(seconds, seed=3):
    """One tuple a second, one in ten arriving 1-5 s late, one of them not numeric:
    (arrival second, tuple) pairs."""
    rng = random.Random(seed)
    out = []
    for k in range(seconds):
        v = "n/a" if k == 42 else rng.uniform(1, 99)
        delay = rng.randint(1, 5) if rng.random() < 0.1 else 0
        out.append((k + delay, StreamTuple(k * 1_000, {"download_speed": v}, f"t{k}")))
    return out


def _run_fan_out(spill_root, catalog, texts, arrivals, seconds):
    """Launch one plan over ``texts``, publish each tuple at its arrival second
    and pump there; (queue names while running, result lines and (late,
    non-numeric) counts per operator, final status)."""
    broker = Broker(spill_root)
    p = plan_many([parse_query(t) for t in texts], catalog)
    clock = VirtualClock(0)
    pipe = launch(p, broker, clock=clock, duration_ms=seconds * 1_000)
    sinks = [broker.subscribe(s.sink_queue) for s in p.operator_stages]
    source = broker.get_queue(p.source_queue)
    for second in range(seconds + 1):
        clock.set_ms(second * 1_000)
        source.publish_many([t for at, t in arrivals if at == second])
        pipe.pump_until_quiet()
    names = broker.queue_names()
    lines = [[encode_result(t) for t in sink.drain()] for sink in sinks]
    counts = [(op.metrics.late_dropped, op.metrics.non_numeric_skipped) for op in pipe.operators]
    status = pipe.stop()
    broker.shutdown()
    return names, lines, counts, status


def test_fan_out_admits_each_source_tuple_into_every_operator(tmp_path, catalog):
    seconds = 120
    arrivals = _late_arrivals(seconds)
    names, lines, counts, status = _run_fan_out(
        tmp_path / "fan", catalog, FAN_OUT, arrivals, seconds
    )
    # One source queue and one result queue per query: no per-operator copies.
    assert names == sorted(["neubotspeed"] + [result_queue_name(parse_query(t)) for t in FAN_OUT])
    fetch = status.stages[0]
    assert fetch.name == "fetch" and fetch.tuples_out == 3 * fetch.tuples_in
    for k, text in enumerate(FAN_OUT):
        _, solo_lines, solo_counts, _ = _run_fan_out(
            tmp_path / f"solo{k}", catalog, [text], arrivals, seconds
        )
        assert lines[k] == solo_lines[0] and lines[k]
        assert counts[k] == solo_counts[0]
    assert sum(late for late, _ in counts) > 0
    assert any(non_numeric == 1 for _, non_numeric in counts)


def test_plan_many_requires_shared_stream(catalog):
    wide = Catalog(
        stream_queues=frozenset({"neubotspeed", "otherqueue"}),
        series_attributes=catalog.series_attributes,
    )
    specs = [
        parse_query(STREAM_MAX),
        parse_query(STREAM_MAX.replace("neubotspeed", "otherqueue")),
    ]
    with pytest.raises(PlanError, match="share a stream queue"):
        plan_many(specs, wide)


def test_historic_only_plan_has_no_fetch(catalog):
    text = (
        "EVERY 1 minutes compute the mean value of download_speed of the last 5 minutes "
        "FROM influxdb database neubot series speedtest"
    )
    p = plan(parse_query(text), catalog)
    assert p.source_queue is None
    assert [s.input_queue for s in p.operator_stages] == [None]


def test_plan_json_is_machine_readable(catalog):
    doc = json.loads(plan(parse_query(NEUBOT_SPEED_MEAN), catalog).to_json())
    assert doc["id"]
    assert doc["source_queue"] == "neubotspeed"
    assert [s["name"] for s in doc["stages"]] == ["op0"]
    assert doc["stages"][0]["window"] == {"kind": "sliding", "duration_ms": 10 * MIN}


# -- launched pipelines -----------------------------------------------------


def _launch_virtual(broker, catalog, text, store=None, duration_ms=None, start_ms=0):
    clock = VirtualClock(start_ms)
    p = plan(parse_query(text), catalog)
    pipe = launch(p, broker, store=store, clock=clock, duration_ms=duration_ms)
    return pipe, clock, p


def _run_on_a_thread(pipe):
    """Run ``pipe.run()`` on a thread the test owns; the list gets what it raised."""
    errors = []

    def drive():
        try:
            pipe.run()
        except Exception as exc:
            errors.append(exc)

    driver = threading.Thread(target=drive, name="driver", daemon=True)
    driver.start()
    return driver, errors


def test_pipeline_matches_direct_evaluation(broker, catalog):
    feed = _feed(200, 3_000)
    pipe, clock, p = _launch_virtual(broker, catalog, STREAM_MAX, duration_ms=10 * MIN)
    assert pipe.state is PipelineState.RUNNING
    pipe.run(feed=feed, end_ms=10 * MIN)
    results = broker.subscribe(p.operator_stages[0].sink_queue)
    got = [result_from_tuple(t) for t in results.drain()]
    pipe.stop()
    assert len(got) == 5
    for r in got:
        count, want = single_pass_window(
            feed, AggregationFunction.MAX, "download_speed", r.window.start, r.window.end
        )
        assert r.count == count and close(r.value, want)


def test_pipeline_counts_conserve_at_quiescence(broker, catalog):
    feed = _feed(150, 2_000)
    pipe, clock, p = _launch_virtual(broker, catalog, STREAM_MAX, duration_ms=5 * MIN)
    pipe.run(feed=feed, end_ms=5 * MIN)
    status = pipe.status()
    src = status.queues["neubotspeed"]
    assert src.published == 150
    assert src.delivered == 150 and src.in_memory == 0 and src.on_disk == 0
    for name, stats in status.queues.items():
        assert stats.published == stats.delivered + stats.in_memory + stats.on_disk, name
    fetch = status.stages[0]
    assert (fetch.name, fetch.tuples_in, fetch.tuples_out) == ("fetch", 150, 150)
    pipe.stop()


def test_hybrid_pipeline_reads_history(broker, catalog, tmp_path):
    store = HistoricStore(tmp_path / "store")
    ref = SeriesRef("influxdb", "neubot", "speedtest")
    store.register_series(ref)
    history = _feed(60, 1_000, seed=5)
    store.ingest(ref, history)
    pipe, clock, p = _launch_virtual(
        broker, catalog, NEUBOT_SPEED_MEAN, store=store, duration_ms=40_000, start_ms=60_000
    )
    live = _feed(20, 1_000, start=60_000, seed=6)
    pipe.run(feed=live, end_ms=100_000)
    got = [result_from_tuple(t) for t in broker.subscribe(p.operator_stages[0].sink_queue).drain()]
    pipe.stop()
    store.close()
    assert len(got) == 2
    for r in got:
        count, want = single_pass_window(
            history + live,
            AggregationFunction.MEAN,
            "download_speed",
            r.window.start,
            r.window.end,
        )
        assert (r.count, r.history_count) == (count, 60)
        assert close(r.value, want)


def test_hybrid_status_reconciles_every_tuple_in(broker, catalog, tmp_path):
    store = HistoricStore(tmp_path / "store")
    ref = SeriesRef("influxdb", "neubot", "speedtest")
    store.register_series(ref)
    store.ingest(ref, _feed(60, 1_000, seed=5))
    anchor = 15 * MIN
    pipe, _, _ = _launch_virtual(broker, catalog, NEUBOT_SPEED_MEAN, store=store, start_ms=anchor)
    # The first trigger (anchor + 20 s) reads [anchor - 9 min 40 s, anchor + 20 s).
    late = StreamTuple(anchor - 12 * MIN, {"download_speed": 1.0}, "late")
    behind = StreamTuple(anchor - 5 * MIN, {"download_speed": 2.0}, "behind")
    text = StreamTuple(anchor + 5_000, {"download_speed": "fast"}, "text")
    live = _feed(3, 1_000, start=anchor + 1_000, seed=6)
    feed = sorted([late, behind, text, *live], key=lambda t: t.timestamp)
    for end_ms, fired in ((anchor + 15_000, 0), (anchor + 25_000, 1)):
        pipe.run(feed=feed, end_ms=end_ms)
        feed = []
        (op,) = [s for s in pipe.status().stages if s.kind == "operator"]
        assert (op.tuples_in, op.tuples_out) == (6, fired)
        assert (op.late_dropped, op.behind_watermark, op.non_numeric_skipped) == (1, 1, 1)
        assert op.buffered == 3
        assert op.tuples_in == op.buffered + op.late_dropped + op.behind_watermark + op.non_numeric_skipped
    fetch = pipe.status().stages[0]
    assert (fetch.kind, fetch.tuples_in, fetch.late_dropped, fetch.buffered) == ("fetch", 6, 0, 0)
    pipe.stop()
    store.close()


def test_launch_rolls_back_on_missing_series(broker, catalog, tmp_path):
    store = HistoricStore(tmp_path / "store")
    p = plan(parse_query(NEUBOT_SPEED_MEAN), catalog)
    pipe = launch(p, broker, store=store, clock=VirtualClock(0))
    assert pipe.state is PipelineState.FAILED
    assert "speedtest" in pipe.cause
    for q in p.queues:
        assert not broker.has_queue(q.name)
    store.close()


def test_second_pipeline_on_same_source_is_refused(broker, catalog):
    broker.declare_queue(QueueConfig("neubotspeed"))
    p = plan(parse_query(STREAM_MAX), catalog)
    first = launch(p, broker, clock=VirtualClock(0))
    assert first.state is PipelineState.RUNNING
    second = launch(p, broker, clock=VirtualClock(0))
    assert second.state is PipelineState.FAILED
    assert "consumer" in second.cause or "subscribe" in second.cause
    # The running pipeline kept its queues.
    assert broker.has_queue(p.operator_stages[0].sink_queue)
    first.stop()


def test_stop_freezes_status(broker, catalog):
    pipe, clock, _ = _launch_virtual(broker, catalog, STREAM_MAX, duration_ms=4 * MIN)
    pipe.run(feed=_feed(50, 4_000), end_ms=4 * MIN)
    status = pipe.stop()
    assert status.state is PipelineState.STOPPED
    after = pipe.status()
    assert after.stages == status.stages
    # Stopping twice is harmless.
    assert pipe.stop().state is PipelineState.STOPPED


def test_run_needs_a_running_pipeline_on_its_driving_thread(broker, catalog):
    p = plan(parse_query(STREAM_MAX), catalog)
    pipe = launch(p, broker, duration_ms=10 * MIN)
    assert pipe.stop().state is PipelineState.STOPPED
    with pytest.raises(PlanError, match="stopped, not running"):
        pipe.run()
    failed = launch(plan(parse_query(NEUBOT_SPEED_MEAN), catalog), broker)
    assert failed.state is PipelineState.FAILED
    with pytest.raises(PlanError, match="failed, not running"):
        failed.run()


def test_threaded_pipeline_small_run(broker, catalog):
    broker.declare_queue(QueueConfig("neubotspeed"))
    text = "EVERY 1 seconds compute the max value of download_speed of the last 2 seconds from streaming rabbitmq queue neubotspeed"
    p = plan(parse_query(text), catalog)
    pipe = launch(p, broker, duration_ms=1_200)
    assert pipe.state is PipelineState.RUNNING
    driver, errors = _run_on_a_thread(pipe)
    src = broker.get_queue("neubotspeed")
    for t in _feed(5, 100):
        src.publish(
            StreamTuple(
                timestamp=pipe.operators[0].anchor + t.timestamp,
                attributes=t.attributes,
                source_id=t.source_id,
            )
        )
    deadline = time.monotonic() + 5
    while not pipe.operators[0].finished and time.monotonic() < deadline:
        time.sleep(0.02)
    status = pipe.stop()
    driver.join(timeout=5)
    assert (driver.is_alive(), errors) == (False, [])
    assert status.state is PipelineState.STOPPED
    got = broker.subscribe(p.operator_stages[0].sink_queue).drain()
    assert len(got) == 1
    assert result_from_tuple(got[0]).count == 5


# -- failing stages -----------------------------------------------------------

HYBRID_EVERY_SECOND = (
    "EVERY 1 seconds compute the mean value of download_speed of the last 10 seconds "
    "FROM influxdb database neubot series speedtest and streaming RabbitMQ queue neubotspeed"
)


@pytest.fixture
def failing_store(monkeypatch, tmp_path):
    def refuse(self, q):
        raise ConnectionError("store unreachable")

    monkeypatch.setattr(Connection, "query_to_historic", refuse)
    store = HistoricStore(tmp_path / "store")
    store.register_series(SeriesRef("influxdb", "neubot", "speedtest"))
    yield store
    store.close()


def test_threaded_stage_failure_fails_the_pipeline(broker, catalog, failing_store):
    # The failure is raised in the caller's thread and recorded on the pipeline.
    p = plan(parse_query(HYBRID_EVERY_SECOND), catalog)
    pipe = launch(p, broker, store=failing_store, duration_ms=60_000)
    driver, errors = _run_on_a_thread(pipe)
    driver.join(timeout=5)
    assert not driver.is_alive()
    assert [type(e) for e in errors] == [ConnectionError]
    status = pipe.status()
    assert status.state is PipelineState.FAILED
    assert status.cause == "ConnectionError: store unreachable"
    assert all(op.finished for op in pipe.operators)
    stopped = pipe.stop()
    assert (stopped.state, stopped.cause) == (PipelineState.FAILED, status.cause)
    # The failed pipeline gave its consumer slots back.
    again = launch(p, broker, store=failing_store, clock=VirtualClock(0))
    assert again.state is PipelineState.RUNNING
    again.stop()


def test_unthreaded_stage_failure_raises_from_pump(broker, catalog, failing_store):
    pipe, clock, _ = _launch_virtual(
        broker, catalog, HYBRID_EVERY_SECOND, store=failing_store, duration_ms=60_000
    )
    clock.set_ms(1_000)
    with pytest.raises(ConnectionError):
        pipe.pump()
    status = pipe.status()
    assert status.state is PipelineState.FAILED
    assert "store unreachable" in status.cause
    assert pipe.stop().state is PipelineState.FAILED


def test_threaded_pipeline_owns_one_thread(broker, catalog):
    texts = [
        STREAM_MAX,
        STREAM_MAX.replace("max", "min"),
        STREAM_MAX.replace("max", "mean"),
    ]
    p = plan_many([parse_query(t) for t in texts], catalog)
    before = threading.active_count()
    pipe = launch(p, broker, duration_ms=10 * MIN)
    assert pipe.state is PipelineState.RUNNING
    driver, errors = _run_on_a_thread(pipe)
    # The caller's thread is the only one that drives the three operators.
    assert threading.active_count() - before == 1
    assert pipe.stop().state is PipelineState.STOPPED
    driver.join(timeout=5)
    assert (driver.is_alive(), errors) == (False, [])
    assert threading.active_count() == before


def test_launch_starts_no_thread(broker, catalog):
    p = plan(parse_query(STREAM_MAX), catalog)
    before = threading.active_count()
    pipe = launch(p, broker, duration_ms=10 * MIN)
    assert pipe.state is PipelineState.RUNNING
    assert threading.active_count() == before
    assert pipe.stop().state is PipelineState.STOPPED
    with pytest.raises(ValueError, match="starts no thread"):
        launch(p, broker, duration_ms=10 * MIN, threaded=True)
    assert threading.active_count() == before


def test_stop_from_another_thread_ends_a_real_clock_run(broker, catalog, monkeypatch):
    # A poll far longer than the bound: only the stop event can wake the run.
    monkeypatch.setattr(planner, "POLL_S", 30.0)
    p = plan(parse_query(STREAM_MAX), catalog)
    pipe = launch(p, broker, duration_ms=10 * MIN)
    pumped = threading.Event()
    real_pump = pipe.pump

    def pump(now=None):
        pumped.set()
        return real_pump(now)

    pipe.pump = pump
    driver, errors = _run_on_a_thread(pipe)
    assert pumped.wait(timeout=5)
    time.sleep(0.1)  # into the run's wait for the next trigger
    assert driver.is_alive()
    begin = time.monotonic()
    status = pipe.stop()
    driver.join(timeout=1)
    assert time.monotonic() - begin < 1.0
    assert (driver.is_alive(), errors) == (False, [])
    assert status.state is PipelineState.STOPPED


def test_stop_waits_for_a_pass_in_progress(broker, catalog):
    # Two threads never pump at once: a stop from another thread makes its
    # last pass only after the run's pass has ended.
    p = plan(parse_query(STREAM_MAX), catalog)
    pipe = launch(p, broker, duration_ms=10 * MIN)
    inside, release = threading.Event(), threading.Event()
    calls = []
    real_pump = pipe.pump

    def pump(now=None):
        calls.append((threading.current_thread().name, 1))
        if not inside.is_set():
            inside.set()
            release.wait(timeout=5)
        moved = real_pump(now)
        calls.append((threading.current_thread().name, -1))
        return moved

    pipe.pump = pump
    driver, errors = _run_on_a_thread(pipe)
    assert inside.wait(timeout=5)
    stopper = threading.Thread(target=pipe.stop, name="stopper")
    stopper.start()
    time.sleep(0.2)
    assert calls == [("driver", 1)]
    release.set()
    for t in (driver, stopper):
        t.join(timeout=5)
    assert (driver.is_alive(), stopper.is_alive(), errors) == (False, False, [])
    depth = 0
    for _, step in calls:
        depth += step
        assert depth in (0, 1)
    assert ("stopper", 1) in calls
    assert pipe.status().state is PipelineState.STOPPED


# -- one clock reading per pass -------------------------------------------------

ONE_SECOND_MAX = (
    "EVERY 1 seconds compute the max value of download_speed of the last 1 seconds "
    "from streaming rabbitmq queue neubotspeed"
)


class SteppingClock:
    """A stand-in real clock that moves ``step_ms`` forward on every read, so
    any two readings of one pass disagree."""

    def __init__(self, start_ms, step_ms):
        self._now = start_ms - step_ms
        self._step = step_ms

    def now_ms(self):
        self._now += self._step
        return self._now

    def sleep_ms(self, millis):
        pass


@pytest.fixture
def no_poll_wait(monkeypatch):
    # Time moves only on reads, so the real-clock loop need not sleep.
    monkeypatch.setattr(planner, "POLL_S", 0.0)


def test_plan_many_anchors_every_operator_at_one_instant(broker, catalog):
    texts = [STREAM_MAX, STREAM_MAX.replace("max", "min"), STREAM_MAX.replace("max", "mean")]
    p = plan_many([parse_query(t) for t in texts], catalog)
    pipe = launch(p, broker, clock=SteppingClock(5_000, 1))
    assert [op.anchor for op in pipe.operators] == [5_000] * 3
    assert pipe.stop().state is PipelineState.STOPPED


@pytest.mark.parametrize("step_ms", [3, 7])
def test_real_clock_feed_just_before_each_trigger_is_counted(
    broker, catalog, no_poll_wait, step_ms
):
    p = plan(parse_query(ONE_SECOND_MAX), catalog)
    pipe = launch(p, broker, clock=SteppingClock(1_000_000, step_ms), duration_ms=10_000)
    anchor = pipe.operators[0].anchor
    feed = [
        StreamTuple(anchor + k * 1_000 - 1, {"download_speed": float(k)}, f"t{k}")
        for k in range(1, 11)
    ]
    pipe.run(feed)
    got = [result_from_tuple(t) for t in broker.subscribe(p.operator_stages[0].sink_queue).drain()]
    assert pipe.stop().state is PipelineState.STOPPED
    assert pipe.operators[0].metrics.late_dropped == 0
    assert [r.live_count for r in got] == [1] * 10


@pytest.mark.parametrize("real", [False, True])
def test_closed_result_queue_fails_the_pipeline(broker, catalog, no_poll_wait, real):
    clock = SteppingClock(0, 1_000) if real else VirtualClock(0)
    p = plan(parse_query(STREAM_MAX), catalog)
    pipe = launch(p, broker, clock=clock, duration_ms=4 * MIN)
    sink = p.operator_stages[0].sink_queue
    broker.get_queue(sink).close()
    with pytest.raises(ClosedQueueError):
        pipe.run(_feed(50, 4_000), end_ms=4 * MIN)
    status = pipe.stop()
    assert (status.state, status.cause) == (
        PipelineState.FAILED,
        f"ClosedQueueError: queue {sink!r} is closed",
    )
    assert all(op.finished for op in pipe.operators)
