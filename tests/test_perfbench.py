"""The benchmark imports and patches package names; a deletion must fail here first."""

import importlib
import json
from array import array
from pathlib import Path

import pytest

from conflux.broker import Broker, QueueConfig
from conflux.clock import VirtualClock
from conflux.model import StreamTuple
from conflux.query import Catalog, parse_query
from conflux.store import HistoricStore, SeriesRef

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_tracer_resolves_every_patch_point(perfbench):
    tracer, _ = perfbench
    # Construction looks up every (owner, attribute) in TIMED and COUNTED.
    t = tracer.Tracer()
    assert not t.active


def test_workload_driver_runs_one_live_query(perfbench, tmp_path):
    # The calls the benchmark makes on a pipeline: launch keywords,
    # pump_until_quiet, the plan's queue names and the shape of stop()'s status.
    tracer, workloads = perfbench
    ctx = workloads.Context(seed=1, seconds=1.0, trace=False, work=tmp_path, tracer=tracer.Tracer())
    out = workloads.Outcome()
    spec = parse_query(
        "EVERY 1 minutes compute the max value of download_speed of the last 1 minutes "
        "from streaming rabbitmq queue farm"
    )
    catalog = Catalog(stream_queues=frozenset({"farm"}), series_attributes={})
    clock = VirtualClock(0)
    pipe = workloads.start_pipeline(ctx, [spec], catalog, None, clock, "smoke")
    drive = workloads.Driver(pipe, clock, ctx, out)
    ts = array("q", range(0, 60_000, 10_000))
    values = array("d", (float(k % 4) for k in range(len(ts))))
    arrivals = [
        (t, StreamTuple(t, {"download_speed": v}, "thing")) for t, v in zip(ts, values)
    ]
    (seg,) = workloads.segments(arrivals, 0, 60_000, 1)
    drive.segment(1, seg, 60_000)
    timeline = workloads.Timeline(ts, {"download_speed": values}, arrival=ts)
    workloads.check_results(out, [spec], drive.results(), 60_000, (timeline,), "smoke")
    drive.finish()
    assert (out.attempted, out.failed) == (1, 0), out.mismatches
    assert out.layer["fetch.tuples_in"] == out.layer["fetch.tuples_out"] == len(ts)
    assert out.layer["runtime.late_dropped"] == 0


def test_workload_driver_traces_a_fan_out_plan(perfbench, tmp_path):
    # A traced step reads the stats of every operator stage's input queue, and
    # the fan-out counters feed planner.fanout_copies_per_tuple.
    tracer, workloads = perfbench
    t = tracer.Tracer()
    ctx = workloads.Context(seed=1, seconds=1.0, trace=True, work=tmp_path, tracer=t)
    out = workloads.Outcome()
    specs = [
        parse_query(
            "EVERY 1 minutes compute the max value of download_speed of the last 1 minutes "
            "from streaming rabbitmq queue farm"
        ),
        parse_query(
            "EVERY 1 minutes compute the mean value of download_speed of the last 30 seconds "
            "from streaming rabbitmq queue farm"
        ),
    ]
    catalog = Catalog(stream_queues=frozenset({"farm"}), series_attributes={})
    clock = VirtualClock(0)
    ts = array("q", range(0, 60_000, 5_000))
    values = array("d", (float(k % 7) for k in range(len(ts))))
    arrivals = [
        (t, StreamTuple(t, {"download_speed": v}, "thing")) for t, v in zip(ts, values)
    ]
    (seg,) = workloads.segments(arrivals, 0, 60_000, 1)
    timeline = workloads.Timeline(ts, {"download_speed": values}, arrival=ts)
    t.install()
    try:
        pipe = workloads.start_pipeline(ctx, specs, catalog, None, clock, "fanout")
        drive = workloads.Driver(pipe, clock, ctx, out)
        drive.segment(1, seg, 60_000)
        workloads.check_results(out, specs, drive.results(), 60_000, (timeline,), "fanout")
        drive.finish()
    finally:
        t.uninstall()
    assert (out.attempted, out.failed) == (2, 0), out.mismatches
    assert out.layer["fetch.tuples_in"] == len(ts)
    assert out.layer["fetch.tuples_out"] == 2 * out.layer["fetch.tuples_in"]
    assert t.totals["runtime.admit"][0] == 2 * len(ts)


def test_tracer_counts_one_encode_per_written_line(perfbench, tmp_path):
    # model.encode_us_per_tuple and store.ingest_us_per_tuple divide by these
    # counts: one per stored line and one per spilled tuple, none per duplicate.
    tracer, _ = perfbench
    t = tracer.Tracer()
    ref = SeriesRef("influxdb", "db", "s")
    stored = [StreamTuple(k, {"v": float(k)}, "thing") for k in range(7)]
    spilled = [StreamTuple(k, {"v": k}, "burst") for k in range(6)]
    store = HistoricStore(tmp_path / "store")
    broker = Broker(tmp_path / "spill")
    t.install()
    try:
        store.register_series(ref)
        assert store.ingest(ref, stored) == len(stored)
        assert store.ingest(ref, stored) == 0
        queue = broker.declare_queue(QueueConfig("q", memory_capacity=1))
        sub = broker.subscribe(queue)
        queue.publish_many(spilled)
        assert sub.drain() == spilled
        assert queue.stats().spilled == len(spilled) - 1
    finally:
        t.uninstall()
        store.close()
        broker.shutdown()
    assert t.totals["model.encode"][0] == len(stored) + len(spilled) - 1


def test_spill_burst_reads_each_burst_in_order(tmp_path):
    # run_spill takes each burst's head with receive(timeout=0), then drains.
    broker = Broker(tmp_path / "spill")
    queue = broker.declare_queue(QueueConfig("burst", memory_capacity=3))
    sub = broker.subscribe(queue)
    try:
        for burst in range(2):
            sent = [StreamTuple(k, {"v": float(k)}, f"b{burst}") for k in range(20)]
            queue.publish_many(sent)
            assert queue.stats().on_disk == 17
            head = sub.receive(timeout=0)
            assert [head] + sub.drain() == sent
            assert sub.receive(timeout=0) is None
        s = queue.stats()
        assert (s.published, s.delivered, s.in_memory, s.on_disk) == (40, 40, 0, 0)
    finally:
        broker.shutdown()


def test_traced_consumer_calls_count_each_tuple_once(perfbench, tmp_path):
    # broker.drain_us_per_tuple sums the receive, receive_many and drain
    # totals, so a consumer call that made another would count twice.
    tracer, _ = perfbench
    t = tracer.Tracer()
    broker = Broker(tmp_path / "spill")
    queue = broker.declare_queue(QueueConfig("q", memory_capacity=2))
    sub = broker.subscribe(queue)
    names = ("broker.receive", "broker.receive_many", "broker.drain")
    t.install()
    try:
        queue.publish_many([StreamTuple(k, {"v": float(k)}, "burst") for k in range(12)])
        got = [sub.receive(timeout=0)] + sub.receive_many(4) + sub.drain()
        assert (sub.receive(), sub.receive_many(3), sub.drain()) == (None, [], [])
        delivered = queue.stats().delivered
    finally:
        t.uninstall()
        broker.shutdown()
    assert [t.totals[n][0] for n in names] == [2, 2, 2]
    assert len(got) == sum(t.totals[n][1] for n in names) == delivered == 12


def test_benchmark_json_matches_runner_spec(perfbench):
    # The committed contract and the one the runner would write stay in step.
    run = importlib.import_module("run")
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec == run.spec()
