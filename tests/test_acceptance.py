"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL summary line on the real stdout so a
full run reads as a checklist even under pytest capture. Randomized suites
use fixed seeds; the number of cases and the tolerances are part of the
contract checked here.
"""

import math
import random
import string
import tempfile
import time
from bisect import bisect_left

import pytest

from conflux import aggregates
from conflux.broker import Broker, QueueConfig
from conflux.cli import main
from conflux.clock import SystemClock, VirtualClock
from conflux.model import Interval, StreamTuple, encode_tuple
from conflux.planner import PipelineState, launch, plan, result_queue_name
from conflux.query import (
    AggregationFunction,
    Catalog,
    Frequency,
    HistoricSource,
    QuerySpec,
    SourceSpec,
    StreamSource,
    TimeUnit,
    WindowKind,
    WindowSpec,
    parse_query,
    render_query,
)
from conflux.runtime import OperatorConfig, hybrid_evaluate, result_from_tuple
from conflux.simulator import FarmConfig, run_farm
from conflux.store import HistoricQuery, HistoricStore, SeriesRef

from oracle import close, scan_group_rows, single_pass_window
from test_query import _KEYWORDS, ALL_FIVE, FASTEST_DOWNLOAD

MIN = 60_000
DAY = 86_400_000
FNS = list(AggregationFunction)
FIG_QUERY = FASTEST_DOWNLOAD + " from streaming rabbitmq queue neubotspeed"


def _report(capsys, n: int, ok: bool, detail: str) -> None:
    # capsys.disabled() routes around pytest capture, so a full run prints
    # one checklist line per criterion.
    with capsys.disabled():
        print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def _value_close(fn: AggregationFunction, got, want) -> bool:
    if fn is AggregationFunction.MEAN:
        return close(got, want)
    return got == want


def _config(fn: AggregationFunction) -> OperatorConfig:
    # Trigger and window are irrelevant to direct hybrid evaluation.
    return OperatorConfig(
        trigger=Frequency(1, TimeUnit.MINUTES),
        window=WindowSpec(WindowKind.SLIDING, 1, TimeUnit.MINUTES),
        aggregation=fn,
        attribute="v",
    )


# -- criterion 1: hybrid evaluation equals the single-pass oracle -----------


def test_criterion_1_hybrid_equivalence(capsys):
    rng = random.Random(101)
    ref = SeriesRef("influxdb", "db", "s")
    horizon = 1_000_000
    cases = 0
    begin = time.monotonic()
    for case in range(1000):
        n = rng.randrange(0, 10_001) if case % 97 == 0 else rng.randrange(0, 220)
        tuples = [
            StreamTuple(
                timestamp=rng.randrange(0, horizon),
                attributes={"v": rng.uniform(0.001, 1e6)},
                source_id=f"t{i}",
            )
            for i in range(n)
        ]
        split = rng.randrange(0, horizon)
        start = rng.randrange(-50_000, horizon)
        end = rng.randrange(start, horizon + 50_000)
        fn = rng.choice(FNS)
        with_store = case % 10 != 3
        with tempfile.TemporaryDirectory() as root:
            store = HistoricStore(root)
            store.register_series(ref)
            if with_store:
                store.ingest(ref, [t for t in tuples if t.timestamp < split])
                live = sorted(
                    (t for t in tuples if t.timestamp >= split), key=lambda t: t.timestamp
                )
                conn = store.open_connection(ref)
            else:
                live = sorted(tuples, key=lambda t: t.timestamp)
                conn = None
            r = hybrid_evaluate(end, Interval(start, end), split, live, conn, _config(fn))
            count, want = single_pass_window(tuples, fn, "v", start, end)
            assert r.count == count, f"case {case}: count {r.count} != {count}"
            assert _value_close(fn, r.value, want), f"case {case}: {r.value} != {want} ({fn})"
            if conn is not None:
                conn.close()
            store.close()
        cases += 1
    elapsed = time.monotonic() - begin
    ok = cases >= 1000 and elapsed < 60.0
    _report(capsys, 1, ok, f"{cases} hybrid cases matched the oracle in {elapsed:.1f}s (< 60s)")
    assert ok


# -- criterion 2: grouped store queries equal the scan oracle ---------------


def test_criterion_2_store_oracle(capsys):
    rng = random.Random(202)
    ref = SeriesRef("cassandra", "db", "s")
    cases = 0
    begin = time.monotonic()
    for case in range(500):
        n = rng.randrange(0, 2_001) if case % 73 == 0 else rng.randrange(0, 260)
        horizon = 500_000
        tuples = [
            StreamTuple(
                timestamp=rng.randrange(0, horizon),
                attributes={"v": rng.uniform(0.001, 1e6)},
                source_id=f"t{i}",
            )
            for i in range(n)
        ]
        start = rng.randrange(0, horizon)
        end = rng.randrange(start, horizon + 30_000)
        width_s = rng.randrange(1, 120)
        fn = rng.choice(FNS)
        with tempfile.TemporaryDirectory() as root:
            store = HistoricStore(root)
            store.register_series(ref)
            store.ingest(ref, tuples)
            rows = store.query_to_historic(
                ref,
                HistoricQuery(
                    function=fn,
                    value="v",
                    start=start,
                    end=end,
                    group_by_number=width_s,
                    group_by_unit=TimeUnit.SECONDS,
                ),
            )
            want = scan_group_rows(tuples, fn, "v", start, end, width_s * 1000)
            assert len(rows) == len(want), f"case {case}: row count"
            for got, (bs, count, result) in zip(rows, want):
                assert got.bucket_start == bs and got.count == count, f"case {case}"
                assert _value_close(fn, got.result, result), (
                    f"case {case}: {got.result} != {result}"
                )
            store.close()
        cases += 1
    elapsed = time.monotonic() - begin
    ok = cases >= 500 and elapsed < 30.0
    _report(capsys, 2, ok, f"{cases} grouped queries matched the scan oracle in {elapsed:.1f}s (< 30s)")
    assert ok


# -- criterion 3: the four speed-test queries end to end --------------------

HISTORY_TUPLES = 172_800  # 120 days at one tuple per minute
SPLIT = HISTORY_TUPLES * MIN
SR_INFLUX = SeriesRef("influxdb", "neubot", "speedtest")
SR_CASS = SeriesRef("cassandra", "neubot", "speedtests")
NEUBOT_CATALOG = Catalog(
    stream_queues=frozenset({"neubotspeed"}),
    series_attributes={
        ("influxdb", "neubot", "speedtest"): frozenset({"download_speed", "upload_speed"}),
        ("cassandra", "neubot", "speedtests"): frozenset({"download_speed", "upload_speed"}),
    },
)


@pytest.fixture(scope="module")
def neubot_history():
    rng = random.Random(33)
    out = []
    for k in range(HISTORY_TUPLES):
        ts = k * MIN
        day_pos = math.sin(2 * math.pi * (ts % DAY) / DAY)
        out.append(
            StreamTuple(
                timestamp=ts,
                attributes={
                    "download_speed": max(0.0, 50.0 + 20.0 * day_pos + rng.gauss(0, 2)),
                    "upload_speed": max(0.0, 10.0 + 4.0 * day_pos + rng.gauss(0, 0.8)),
                },
                source_id=f"n{k}",
            )
        )
    return out


@pytest.fixture(scope="module")
def neubot_store(neubot_history, tmp_path_factory):
    store = HistoricStore(tmp_path_factory.mktemp("neubot-store"))
    for ref in (SR_INFLUX, SR_CASS):
        store.register_series(ref)
        store.ingest(ref, neubot_history)
    yield store
    store.close()


@pytest.fixture(scope="module")
def neubot_live():
    rng = random.Random(44)
    return [
        StreamTuple(
            timestamp=SPLIT + k * 1_000,
            attributes={
                "download_speed": rng.uniform(30, 90),
                "upload_speed": rng.uniform(5, 15),
            },
            source_id=f"live{k}",
        )
        for k in range(600)
    ]


def _run_neubot_query(text, store, live, tmp_path, periods):
    spec = parse_query(text)
    the_plan = plan(spec, NEUBOT_CATALOG)
    duration = spec.frequency.period_ms * periods
    clock = VirtualClock(SPLIT)
    broker = Broker(tmp_path / f"spill-{the_plan.id}")
    pipe = launch(the_plan, broker, store, clock=clock, duration_ms=duration)
    assert pipe.state is PipelineState.RUNNING, pipe.cause
    pipe.run(feed=live)
    results = [
        result_from_tuple(t)
        for t in broker.subscribe(result_queue_name(spec)).drain()
    ]
    pipe.stop()
    broker.shutdown()
    return spec, results


def test_criterion_3_speedtest_queries_end_to_end(
    neubot_store, neubot_history, neubot_live, tmp_path, capsys
):
    everything = neubot_history + neubot_live
    ts_index = [t.timestamp for t in everything]

    def oracle(fn, attr, start, end):
        lo = bisect_left(ts_index, start)
        hi = bisect_left(ts_index, end)
        return single_pass_window(everything[lo:hi], fn, attr, start, end)

    runs = [
        (ALL_FIVE[0], 3, AggregationFunction.MEAN, "download_speed"),
        (ALL_FIVE[1], 3, AggregationFunction.MAX, "download_speed"),
        (ALL_FIVE[3], 3, AggregationFunction.MEAN, "upload_speed"),
    ]
    for text, periods, fn, attr in runs:
        spec, results = _run_neubot_query(text, neubot_store, neubot_live, tmp_path, periods)
        assert len(results) == periods, text
        for r in results:
            count, want = oracle(fn, attr, r.window.start, r.window.end)
            assert r.count == count and _value_close(fn, r.value, want), text

    # The 120-day query: time from launch to its first emitted result.
    begin = time.monotonic()
    spec, results = _run_neubot_query(
        ALL_FIVE[2], neubot_store, neubot_live, tmp_path, periods=1
    )
    first_result_s = time.monotonic() - begin
    assert len(results) == 1
    r = results[0]
    count, want = oracle(AggregationFunction.MEAN, "download_speed", r.window.start, r.window.end)
    assert r.count == count == 172_795 + 300
    assert close(r.value, want)
    ok = first_result_s < 5.0
    _report(
        capsys,
        3,
        ok,
        f"4 queries ran over {HISTORY_TUPLES} stored tuples + live replay; "
        f"first 120-day result in {first_result_s:.2f}s (< 5s)",
    )
    assert ok


# -- criterion 4: the two-minute/eight-minute fixture -----------------------


def _fig_log():
    rng = random.Random(55)
    return [
        StreamTuple(
            timestamp=k * 7_000,
            attributes={"download_speed": rng.uniform(5.0, 100.0)},
            source_id=f"f{k}",
        )
        for k in range(171)  # last tuple at 1190 s, inside the 20th minute
    ]


def _run_fig_query(tmp_path, tag):
    log = tmp_path / f"fig-{tag}.ndjson"
    with open(log, "w", encoding="utf-8") as f:
        for t in _fig_log():
            f.write(encode_tuple(t) + "\n")
    out = tmp_path / f"fig-{tag}-results.ndjson"
    rc = main(["query", FIG_QUERY, "--replay", str(log), "--output", str(out)])
    assert rc == 0
    return out.read_bytes()


def test_criterion_4_fig_query_fixture(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CONFLUX_SPILL_ROOT", str(tmp_path / "spill"))
    raw = _run_fig_query(tmp_path, "main")
    results = [result_from_tuple(_decode_result_line(line)) for line in raw.splitlines()]
    feed = _fig_log()
    ok = len(results) == 10
    assert [r.trigger_time for r in results] == [k * 2 * MIN for k in range(1, 11)]
    for r in results:
        count, want = single_pass_window(
            feed, AggregationFunction.MAX, "download_speed", r.window.start, r.window.end
        )
        assert r.count == count
        assert r.value == want  # max is exact
    _report(capsys, 4, ok, f"{len(results)} results over the 20-minute log, all equal to oracle maxima")
    assert ok


def _decode_result_line(line: bytes) -> StreamTuple:
    from conflux.runtime import decode_result, result_to_tuple

    return result_to_tuple(decode_result(line.decode()), "fig")


# -- criterion 5: farm scale run, zero loss ---------------------------------


@pytest.mark.slow
def test_criterion_5_scale_run(tmp_path, capsys):
    big = FarmConfig(things=800, period_ms=10, duration_ms=30_000, seed=7)
    broker = Broker(tmp_path / "spill-big")
    report = run_farm(big, broker, clock=SystemClock())
    broker.shutdown()
    expected = 800 * 3_000
    zero_loss = report.published == report.delivered == expected
    fast_enough = report.throughput_tps >= 50_000

    small = FarmConfig(things=3, period_ms=10, duration_ms=30_000, seed=7)
    broker = Broker(tmp_path / "spill-small")
    small_report = run_farm(small, broker, clock=SystemClock())
    broker.shutdown()
    small_ok = small_report.published == small_report.delivered == 3 * 3_000

    ok = zero_loss and fast_enough and small_ok
    _report(
        capsys,
        5,
        ok,
        f"800 things: {report.published} published = {report.delivered} delivered via one "
        f"consumer at {report.throughput_tps:,.0f} tuples/s (>= 50k); "
        f"3 things: {small_report.delivered} delivered, zero loss",
    )
    assert ok


# -- criterion 6: overflow burst through the spill queue --------------------


def test_criterion_6_spill_burst(tmp_path, capsys):
    broker = Broker(tmp_path / "spill")
    q = broker.declare_queue(QueueConfig("burst", memory_capacity=1_000))
    total = 100_000
    k = 0
    for chunk_start in range(0, total, 5_000):
        q.publish_many(
            [
                StreamTuple(timestamp=i, attributes={"seq": i}, source_id="burst")
                for i in range(chunk_start, chunk_start + 5_000)
            ]
        )
        k += 5_000
    got = broker.subscribe(q).drain()
    stats = broker.stats("burst")
    fifo = [t.attributes["seq"] for t in got] == list(range(total))
    ok = (
        len(got) == total
        and fifo
        and stats.published == stats.delivered == total
        and stats.spilled == total - 1_000
        and stats.in_memory == 0
        and stats.on_disk == 0
    )
    _report(
        capsys,
        6,
        ok,
        f"{total} tuples through a 1000-slot queue: {stats.spilled} spilled to disk, "
        f"FIFO intact, nothing lost",
    )
    broker.shutdown()
    assert ok


# -- criterion 7: virtual runs are byte-deterministic -----------------------


def test_criterion_7_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CONFLUX_SPILL_ROOT", str(tmp_path / "spill-a"))
    first = _run_fig_query(tmp_path, "a")
    monkeypatch.setenv("CONFLUX_SPILL_ROOT", str(tmp_path / "spill-b"))
    second = _run_fig_query(tmp_path, "b")
    ok = first == second and len(first) > 0
    _report(capsys, 7, ok, f"two virtual runs emitted byte-identical output ({len(first)} bytes)")
    assert ok


# -- criterion 8: parser round trip -----------------------------------------


def _rand_ident(rng: random.Random) -> str:
    while True:
        head = rng.choice(string.ascii_lowercase)
        tail = "".join(
            rng.choice(string.ascii_lowercase + string.digits + "_")
            for _ in range(rng.randrange(0, 11))
        )
        ident = head + tail
        if ident not in _KEYWORDS:
            return ident


def _rand_spec(rng: random.Random) -> QuerySpec:
    units = list(TimeUnit)
    historic = (
        HistoricSource(_rand_ident(rng), _rand_ident(rng), _rand_ident(rng))
        if rng.random() < 0.5
        else None
    )
    stream = StreamSource(_rand_ident(rng)) if rng.random() < 0.5 else None
    return QuerySpec(
        frequency=Frequency(rng.randint(1, 999), rng.choice(units)),
        aggregation=rng.choice(FNS),
        attribute=_rand_ident(rng),
        window=WindowSpec(rng.choice(list(WindowKind)), rng.randint(1, 999), rng.choice(units)),
        sources=SourceSpec(historic=historic, stream=stream),
    )


def test_criterion_8_parser_round_trip(capsys):
    rng = random.Random(808)
    for _ in range(10_000):
        spec = _rand_spec(rng)
        assert parse_query(render_query(spec)) == spec
    for text in ALL_FIVE:
        spec = parse_query(text)
        assert parse_query(render_query(spec)) == spec
    _report(capsys, 8, True, "10000 random specs survived render->parse; all 5 fixture queries parse")


# -- criterion 9: merge algebra ---------------------------------------------


def _partials_equal(fn, a, b) -> bool:
    if a.count != b.count:
        return False
    if fn is AggregationFunction.MEAN:
        return close(a.acc, b.acc)
    return a.acc == b.acc


def test_criterion_9_merge_algebra(capsys):
    rng = random.Random(909)
    for _ in range(10_000):
        fn = rng.choice(FNS)
        parts = [
            aggregates.of_values(fn, [rng.uniform(0.001, 1e6) for _ in range(rng.randrange(0, 6))])
            for _ in range(3)
        ]
        a, b, c = parts
        left = aggregates.merge(aggregates.merge(a, b), c)
        right = aggregates.merge(a, aggregates.merge(b, c))
        assert _partials_equal(fn, left, right)
        assert _partials_equal(fn, aggregates.merge(a, b), aggregates.merge(b, a))
        empty = aggregates.empty(fn)
        assert aggregates.merge(empty, a) == a
        assert aggregates.merge(a, empty) == a
    _report(capsys, 9, True, "10000 random sequences: merge is associative, commutative, has identity")
