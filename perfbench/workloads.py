"""The benchmark's workloads: inputs from a seed, closed-loop drives, oracles.

Every workload runs in one process on the public ``conflux`` API. Pipelines
are launched unthreaded on a ``VirtualClock`` and driven in a closed loop:
the clock moves to the next arrival or trigger instant only after
``Pipeline.pump_until_quiet`` has returned for the previous one. Inputs are
made by the benchmark from the seed before they are timed; the program only
receives the generated tuples.

Each workload sets up several times (``setup_s`` and ``first_result_s``
samples), alternating the set-ups with measured passes, until ``seconds``
of measured time have passed. Time spent building inputs and checking
outputs is never inside a measured interval. Every result is checked
against a naive single pass over the generated input.

In a traced run the tracer is on for every set-up and, in the measured
phase, for every other trigger segment (or burst), so the untraced half
gives the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import os
import random
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

from conflux.broker import Broker, QueueConfig
from conflux.clock import VirtualClock
from conflux.model import StreamTuple
from conflux.planner import PipelineState, launch, plan_many
from conflux.query import AggregationFunction, Catalog, parse_query
from conflux.simulator import DEFAULT_ATTRIBUTE_MODEL, generate_tuple, thing_rng
from conflux.store import HistoricStore, SeriesRef

from tracer import Tracer

SECOND = 1_000
MINUTE = 60_000
DAY = 86_400_000
EPOCH = 1_577_836_800_000  # 2020-01-01T00:00:00Z
MEAN_REL_TOL = 1e-9


@dataclass
class Outcome:
    """Samples and checks of one workload run."""

    setup_s: list[float] = field(default_factory=list)
    first_result_s: list[float] = field(default_factory=list)
    latency_ms: list[float] = field(default_factory=list)
    latency_of: str = "triggers"
    tuples: int = 0
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    # Measured segment (or burst) times, split by whether the tracer was on.
    traced_s: list[float] = field(default_factory=list)
    untraced_s: list[float] = field(default_factory=list)
    # Per-layer values only the workload can see (sizes, operator counters).
    layer: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(what)

    def high_water(self, name: str, value: float) -> None:
        self.layer[name] = max(self.layer.get(name, 0), value)

    def add(self, name: str, value: float) -> None:
        self.layer[name] = self.layer.get(name, 0) + value


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path
    tracer: Tracer


# -- oracle ------------------------------------------------------------------


class Timeline:
    """One input stream as parallel arrays sorted by event timestamp.

    ``arrival`` is None for stored history, which arrived before any trigger.
    """

    def __init__(self, ts, values: dict[str, array], arrival=None):
        self.ts = ts
        self.values = values
        self.arrival = arrival

    def window(self, attribute: str, start: int, end: int, fired_at: int) -> list[float]:
        """Values with start <= ts < end that had arrived when the trigger fired."""
        lo = bisect_left(self.ts, start)
        hi = bisect_left(self.ts, end)
        values = self.values[attribute][lo:hi]
        if self.arrival is None:
            return list(values)
        return [v for v, a in zip(values, self.arrival[lo:hi]) if a <= fired_at]


def naive_aggregate(fn: AggregationFunction, values: list[float]) -> float | None:
    if not values:
        return None
    if fn is AggregationFunction.MIN:
        return min(values)
    if fn is AggregationFunction.MAX:
        return max(values)
    return sum(values) / len(values)


def value_matches(fn: AggregationFunction, got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if fn is AggregationFunction.MEAN:
        return math.isclose(got, want, rel_tol=MEAN_REL_TOL, abs_tol=1e-12)
    return got == want


def check_results(out: Outcome, specs, results, trigger_at: int, timelines, label: str) -> None:
    """One result per query for this trigger, equal to the naive aggregate."""
    for spec, got in zip(specs, results):
        what = f"{label} {spec.aggregation.value}({spec.attribute}) @ {trigger_at}"
        if len(got) != 1:
            out.check(False, f"{what}: {len(got)} results")
            continue
        (t,) = got
        start = trigger_at - spec.window.duration_ms
        values: list[float] = []
        for tl in timelines:
            values += tl.window(spec.attribute, start, trigger_at, trigger_at)
        want = naive_aggregate(spec.aggregation, values)
        attrs = t.attributes
        ok = (
            "error" not in attrs
            and t.timestamp == trigger_at
            and attrs.get("win_start") == start
            and attrs.get("win_end") == trigger_at
            and attrs.get("count") == len(values)
            and value_matches(spec.aggregation, attrs.get("value"), want)
        )
        out.check(ok, f"{what}: got {dict(attrs)}, want count={len(values)} value={want}")


def dir_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


# -- closed-loop driver ------------------------------------------------------


def segments(arrivals: list[tuple[int, StreamTuple]], anchor: int, period: int, count: int):
    """Group (arrival instant, tuple) pairs by the trigger they precede.

    Segment n (1-based) holds the arrival steps in (T(n-1), T(n)), where
    T(n) = anchor + n * period, plus the tuples arriving exactly at T(n),
    which are published in the trigger step before it fires. Segment 1 also
    takes the arrivals at the launch instant. Later arrivals are dropped.
    """
    out: list[tuple[list[tuple[int, list[StreamTuple]]], list[StreamTuple]]] = [
        ([], []) for _ in range(count)
    ]
    for instant, t in sorted(arrivals, key=lambda p: p[0]):
        n = max(1, -(-(instant - anchor) // period))
        if n > count:
            continue
        steps, at_trigger = out[n - 1]
        if instant == anchor + n * period:
            at_trigger.append(t)
        elif steps and steps[-1][0] == instant:
            steps[-1][1].append(t)
        else:
            steps.append((instant, [t]))
    return out


class Driver:
    """Steps one launched, unthreaded pipeline through its segments."""

    def __init__(self, pipe, clock: VirtualClock, ctx: Context, out: Outcome):
        if pipe.state is not PipelineState.RUNNING:
            raise RuntimeError(f"pipeline failed to launch: {pipe.cause}")
        self.pipe = pipe
        self.clock = clock
        self.tracer = ctx.tracer
        self.out = out
        self.broker = pipe.broker
        self.source = self.broker.get_queue(pipe.plan.source_queue)
        self.inputs = [pipe.plan.source_queue] + [s.input_queue for s in pipe.plan.operator_stages]
        self.sinks = [self.broker.subscribe(s.sink_queue) for s in pipe.plan.operator_stages]

    def _step(self, instant: int, batch: list[StreamTuple]) -> None:
        self.clock.set_ms(instant)
        for t in batch:
            self.source.publish(t)
        if self.tracer.active:
            backlog = 0
            for name in self.inputs:
                s = self.broker.stats(name)
                backlog += s.in_memory + s.on_disk
            self.out.high_water("broker.backlog_max", backlog)
        self.pipe.pump_until_quiet()

    def segment(self, n: int, seg, trigger_at: int) -> tuple[float, float]:
        """Run the arrival steps, then the trigger step; (segment s, trigger s).

        The trigger step is timed from setting the clock to the trigger
        instant until every query's result is in its sink.
        """
        steps, at_trigger = seg
        span = self.tracer.span
        self.tracer.trigger = n
        begin = time.perf_counter()
        for instant, batch in steps:
            with span("drive.arrive", len(batch)):
                self._step(instant, batch)
        mid = time.perf_counter()
        self.out.high_water(
            "runtime.buffered_max", sum(op.metrics.buffered for op in self.pipe.operators)
        )
        start = time.perf_counter()
        with span("drive.trigger", len(at_trigger)):
            self._step(trigger_at, at_trigger)
        end = time.perf_counter()
        return (mid - begin) + (end - start), end - start

    def results(self) -> list[list[StreamTuple]]:
        return [sink.drain() for sink in self.sinks]

    def finish(self) -> None:
        """Stop the pipeline and fold its counters into the outcome."""
        status = self.pipe.stop()
        for stage in status.stages:
            if stage.kind == "fetch":
                self.out.add("fetch.tuples_in", stage.tuples_in)
                self.out.add("fetch.tuples_out", stage.tuples_out)
        for op in self.pipe.operators:
            self.out.add("runtime.late_dropped", op.metrics.late_dropped)
        self.out.add("broker.spilled", sum(q.spilled for q in status.queues.values()))
        for sink in self.sinks:
            sink.close()
        self.broker.shutdown()


def start_pipeline(ctx: Context, specs, catalog: Catalog, store, clock: VirtualClock, name: str):
    """plan_many + launch, traced as one planner span."""
    broker = Broker(ctx.work / name)
    with ctx.tracer.span("planner.launch"):
        pipe = launch(plan_many(specs, catalog), broker, store, clock=clock, threaded=False)
    return pipe


def measured(ctx: Context, index: int) -> None:
    """In a traced run, trace every other measured segment."""
    if not ctx.trace:
        return
    if index % 2 == 0:
        ctx.tracer.install()
    else:
        ctx.tracer.uninstall()


def record_segment(ctx: Context, out: Outcome, seg, seg_s: float, trig_s: float) -> None:
    steps, at_trigger = seg
    out.latency_ms.append(trig_s * 1000.0)
    out.tuples += sum(len(batch) for _, batch in steps) + len(at_trigger)
    (out.traced_s if ctx.tracer.active else out.untraced_s).append(seg_s)


# -- hist-120d ---------------------------------------------------------------

HIST_QUERY = (
    "EVERY 1 minutes compute the mean value of download_speed of the last 120 days "
    "from influxdb database neubot series speedtest and streaming rabbitmq queue neubotspeed"
)
HIST_REF = SeriesRef("influxdb", "neubot", "speedtest")
HIST_TUPLES = 172_800  # 120 days at one tuple per minute
HIST_SPLIT = EPOCH + HIST_TUPLES * MINUTE
HIST_SETUPS = 3
# Each measured pass relaunches the query, so the live share of a window
# stays within 30 minutes of 1 tuple/s (about 1%) and samples stay stationary.
HIST_PASS_TRIGGERS = 30


def _speed(rng: random.Random, ts: int) -> tuple[float, float]:
    """Criterion-3 shape: a daily sine plus gaussian noise, floored at 0."""
    day = math.sin(2.0 * math.pi * (ts % DAY) / DAY)
    return (
        max(0.0, 50.0 + 20.0 * day + rng.gauss(0.0, 2.0)),
        max(0.0, 10.0 + 4.0 * day + rng.gauss(0.0, 0.8)),
    )


def hist_timeline(seed: int) -> Timeline:
    rng = random.Random(f"hist/{seed}")
    ts = array("q", (EPOCH + k * MINUTE for k in range(HIST_TUPLES)))
    down, up = array("d"), array("d")
    for t in ts:
        d, u = _speed(rng, t)
        down.append(d)
        up.append(u)
    return Timeline(ts, {"download_speed": down, "upload_speed": up})


def hist_tuples(tl: Timeline) -> list[StreamTuple]:
    down, up = tl.values["download_speed"], tl.values["upload_speed"]
    return [
        StreamTuple(t, {"download_speed": down[k], "upload_speed": up[k]}, f"n{k}")
        for k, t in enumerate(tl.ts)
    ]


def hist_live(seed: int, label: str, triggers: int):
    """1 tuple/s from the split on, in order: (segments, timeline)."""
    rng = random.Random(f"hist-live/{seed}/{label}")
    ts = array("q")
    down, up = array("d"), array("d")
    arrivals = []
    for j in range(triggers * 60):
        t = HIST_SPLIT + j * SECOND
        d, u = _speed(rng, t)
        ts.append(t)
        down.append(d)
        up.append(u)
        arrivals.append((t, StreamTuple(t, {"download_speed": d, "upload_speed": u}, "live")))
    segs = segments(arrivals, HIST_SPLIT, MINUTE, triggers)
    return segs, Timeline(ts, {"download_speed": down, "upload_speed": up}, arrival=ts)


def hist_catalog(store: HistoricStore) -> Catalog:
    key = (HIST_REF.provider, HIST_REF.database, HIST_REF.series)
    return Catalog(
        stream_queues=frozenset({"neubotspeed"}),
        series_attributes={key: store.attributes(HIST_REF)},
    )


def hist_setup(ctx: Context, out: Outcome, history: Timeline, specs, rep: int) -> HistoricStore:
    """Ingest into an empty root (setup_s), then open it and serve the first trigger."""
    root = ctx.work / f"store{rep}"
    tuples = hist_tuples(history)
    gc.collect()
    begin = time.perf_counter()
    ingest = HistoricStore(root)
    ingest.register_series(HIST_REF)
    added = ingest.ingest(HIST_REF, tuples)
    ingest.close()
    out.setup_s.append(time.perf_counter() - begin)
    out.check(added == HIST_TUPLES, f"ingest stored {added} of {HIST_TUPLES} tuples")
    out.layer["store.bytes_per_tuple"] = dir_bytes(root) / HIST_TUPLES
    del ingest, tuples
    segs, live = hist_live(ctx.seed, f"setup{rep}", 1)
    gc.collect()

    begin = time.perf_counter()
    with ctx.tracer.span("store.open"):
        store = HistoricStore(root)
    clock = VirtualClock(HIST_SPLIT)
    pipe = start_pipeline(ctx, specs, hist_catalog(store), store, clock, f"spill-setup{rep}")
    drive = Driver(pipe, clock, ctx, out)
    drive.segment(1, segs[0], HIST_SPLIT + MINUTE)
    out.first_result_s.append(time.perf_counter() - begin)
    check_results(out, specs, drive.results(), HIST_SPLIT + MINUTE, (history, live), "hist")
    drive.finish()
    return store


def hist_pass(
    ctx: Context, out: Outcome, history, specs, store, pass_no: int, budget: float
) -> float:
    """Relaunch the query and measure up to 30 triggers; returns measured seconds."""
    segs, live = hist_live(ctx.seed, str(pass_no), HIST_PASS_TRIGGERS)
    gc.collect()
    measured(ctx, 0)
    clock = VirtualClock(HIST_SPLIT)
    pipe = start_pipeline(ctx, specs, hist_catalog(store), store, clock, f"spill{pass_no}")
    drive = Driver(pipe, clock, ctx, out)
    spent = 0.0
    for n in range(1, HIST_PASS_TRIGGERS + 1):
        measured(ctx, n - 1)
        trigger_at = HIST_SPLIT + n * MINUTE
        seg_s, trig_s = drive.segment(n, segs[n - 1], trigger_at)
        record_segment(ctx, out, segs[n - 1], seg_s, trig_s)
        spent += seg_s
        check_results(out, specs, drive.results(), trigger_at, (history, live), "hist")
        if spent >= budget:
            break
    drive.finish()
    return spent


def run_hist(ctx: Context) -> Outcome:
    out = Outcome()
    history = hist_timeline(ctx.seed)
    specs = [parse_query(HIST_QUERY)]
    store = None
    spent = 0.0
    pass_no = 0
    # Set-ups alternate with measured passes, so both sample the same host
    # speed phases.
    while spent < ctx.seconds or pass_no < HIST_SETUPS:
        if pass_no < HIST_SETUPS:
            if ctx.trace:
                ctx.tracer.install()
            if store is not None:
                store.close()
            # Drop the previous store first so peak RSS holds one store at a time.
            store = None
            store = hist_setup(ctx, out, history, specs, pass_no)
        pass_no += 1
        if spent < ctx.seconds:
            spent += hist_pass(ctx, out, history, specs, store, pass_no, ctx.seconds - spent)
    store.close()
    return out


# -- live-fanout -------------------------------------------------------------

LIVE_QUEUE = "farm"
LIVE_QUERIES = (
    "EVERY 20 seconds compute the mean value of download_speed of the last 10 minutes "
    "from streaming rabbitmq queue farm",
    "EVERY 20 seconds compute the max value of download_speed of the last 10 minutes "
    "from streaming rabbitmq queue farm",
    "EVERY 20 seconds compute the min value of upload_speed of the last 3 minutes "
    "from streaming rabbitmq queue farm",
)
LIVE_THINGS = 25
LIVE_PERIOD = 20 * SECOND
LIVE_WARMUP_TRIGGERS = 30  # 10 minutes: from trigger 31 on every window is full
LIVE_PASS_TRIGGERS = 45
LIVE_SETUPS = 3
LIVE_COLD_STARTS = 4
LIVE_LATE_SHARE = 0.05
LIVE_MAX_LATE_S = 5


def live_inputs(seed: int, label: str, triggers: int):
    """Things publish once a second; 5% arrive 1-5 s late: (segments, timeline, late)."""
    late_rng = random.Random(f"late/{seed}/{label}")
    end = EPOCH + triggers * LIVE_PERIOD
    rngs = [thing_rng(seed, f"thing-{i:03d}/{label}") for i in range(LIVE_THINGS)]
    rows = []
    for ts in range(EPOCH, end + 1, SECOND):
        for i in range(LIVE_THINGS):
            t = generate_tuple(f"thing-{i:03d}", DEFAULT_ATTRIBUTE_MODEL, rngs[i], ts)
            arrival = ts
            if late_rng.random() < LIVE_LATE_SHARE:
                arrival += late_rng.randint(1, LIVE_MAX_LATE_S) * SECOND
            rows.append((arrival, t))
    arrivals = [(a, t) for a, t in rows if a <= end]
    by_ts = sorted(rows, key=lambda r: r[1].timestamp)
    tl = Timeline(
        array("q", (t.timestamp for _, t in by_ts)),
        {
            name: array("d", (t.attributes[name] for _, t in by_ts))
            for name, _ in DEFAULT_ATTRIBUTE_MODEL
        },
        arrival=array("q", (a for a, _ in by_ts)),
    )
    return segments(arrivals, EPOCH, LIVE_PERIOD, triggers), tl, arrivals


def expected_late_drops(specs, arrivals, last_trigger: int) -> int:
    """Tuples the operators must drop: older than the next window at arrival.

    Only tuples published by ``last_trigger`` count.
    """
    dropped = 0
    for spec in specs:
        for a, t in arrivals:
            if a > last_trigger:
                continue
            next_trigger = EPOCH + max(1, -(-(a - EPOCH) // LIVE_PERIOD)) * LIVE_PERIOD
            dropped += t.timestamp < next_trigger - spec.window.duration_ms
    return dropped


def live_pass(
    ctx: Context, out: Outcome, specs, catalog, label: str, triggers: int, budget: float
) -> float:
    """Launch the queries on a fresh stream and fire up to ``triggers`` triggers.

    Launch plus the first trigger is a ``first_result_s`` sample. A pass that
    fills the windows also gives a ``setup_s`` sample, and then measures
    full-window triggers until ``budget`` seconds are spent. Returns the
    measured seconds.
    """
    segs, tl, arrivals = live_inputs(ctx.seed, label, triggers)
    gc.collect()
    if ctx.trace:
        ctx.tracer.install()
    clock = VirtualClock(EPOCH)
    begin = time.perf_counter()
    pipe = start_pipeline(ctx, specs, catalog, None, clock, f"spill{label}")
    setup = time.perf_counter() - begin
    drive = Driver(pipe, clock, ctx, out)
    spent = 0.0
    fired = 0
    for n in range(1, triggers + 1):
        trigger_at = EPOCH + n * LIVE_PERIOD
        if n > LIVE_WARMUP_TRIGGERS:
            if spent >= budget:
                break
            measured(ctx, n - LIVE_WARMUP_TRIGGERS - 1)
        seg_s, trig_s = drive.segment(n, segs[n - 1], trigger_at)
        fired = n
        if n == 1:
            out.first_result_s.append(setup + seg_s)
        if n <= LIVE_WARMUP_TRIGGERS:
            setup += seg_s
            if n == LIVE_WARMUP_TRIGGERS:
                out.setup_s.append(setup)
        else:
            record_segment(ctx, out, segs[n - 1], seg_s, trig_s)
            spent += seg_s
        check_results(out, specs, drive.results(), trigger_at, (tl,), f"live pass {label}")
    drive.finish()
    late = expected_late_drops(specs, arrivals, EPOCH + fired * LIVE_PERIOD)
    dropped = sum(op.metrics.late_dropped for op in pipe.operators)
    out.check(dropped == late, f"pass {label}: late_dropped {dropped} != generator's {late}")
    return spent


def run_live(ctx: Context) -> Outcome:
    out = Outcome()
    specs = [parse_query(q) for q in LIVE_QUERIES]
    catalog = Catalog(stream_queues=frozenset({LIVE_QUEUE}))
    spent = 0.0
    pass_no = 0
    while spent < ctx.seconds or len(out.setup_s) < LIVE_SETUPS:
        pass_no += 1
        # A cold start is cheap next to a pass, so extra ones steady the
        # first_result_s median.
        for k in range(LIVE_COLD_STARTS):
            live_pass(ctx, out, specs, catalog, f"{pass_no}.{k}", 1, 0.0)
        spent += live_pass(
            ctx, out, specs, catalog, str(pass_no),
            LIVE_WARMUP_TRIGGERS + LIVE_PASS_TRIGGERS, ctx.seconds - spent,
        )
    return out


# -- spill-burst -------------------------------------------------------------

SPILL_BURST = 100_000
SPILL_BATCH = 5_000
SPILL_CAPACITY = 1_000
SPILL_SETUPS = 5


class BurstSource:
    """Deterministic burst tuples, rebuilt per batch so the harness holds little."""

    def __init__(self, seed: int):
        rng = random.Random(f"spill/{seed}")
        self.down = [rng.uniform(5.0, 100.0) for _ in range(4096)]
        self.up = [rng.uniform(1.0, 20.0) for _ in range(4096)]

    def batch(self, burst: int, k: int) -> list[StreamTuple]:
        base = burst * SPILL_BURST + k * SPILL_BATCH
        down, up = self.down, self.up
        src = f"burst-{burst}"
        return [
            StreamTuple(
                EPOCH + i, {"download_speed": down[i % 4096], "upload_speed": up[i % 4096]}, src
            )
            for i in range(base, base + SPILL_BATCH)
        ]


def check_fifo(out: Outcome, got: list[StreamTuple], want: list[StreamTuple], label: str) -> None:
    """Count each expected tuple missing or out of place as one failed operation."""
    bad = sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
    out.attempted += len(want)
    out.failed += bad
    if bad and len(out.mismatches) < 20:
        out.mismatches.append(f"{label}: {bad} of {len(want)} tuples lost or out of order")


def check_drained(out: Outcome, queue, label: str) -> None:
    s = queue.stats()
    out.check(
        s.published == s.delivered and s.on_disk == 0 and s.in_memory == 0,
        f"{label}: queue not conserved after drain: {s}",
    )


def cold_queue(ctx: Context, out: Outcome, source: BurstSource, rep: int) -> None:
    """Stand up a spilling queue, push one batch through it, tear it down."""
    first = source.batch(0, 0)
    gc.collect()
    if ctx.trace:
        ctx.tracer.install()
    begin = time.perf_counter()
    broker = Broker(ctx.work / f"cold{rep}")
    queue = broker.declare_queue(QueueConfig("burst", memory_capacity=SPILL_CAPACITY))
    sub = broker.subscribe(queue)
    queue.publish_many(first)
    got = sub.drain()
    check_drained(out, queue, "cold queue")
    broker.shutdown()
    out.setup_s.append(time.perf_counter() - begin)
    check_fifo(out, got, first, "cold queue")


def run_spill(ctx: Context) -> Outcome:
    out = Outcome(latency_of="batches")
    source = BurstSource(ctx.seed)
    broker = Broker(ctx.work / "spill")
    queue = broker.declare_queue(QueueConfig("burst", memory_capacity=SPILL_CAPACITY))
    sub = broker.subscribe(queue)
    batches = SPILL_BURST // SPILL_BATCH
    spent = 0.0
    burst = 0
    # Cold-queue set-ups alternate with bursts, so both sample the same host
    # speed phases.
    while spent < ctx.seconds or len(out.setup_s) < SPILL_SETUPS:
        if len(out.setup_s) < SPILL_SETUPS:
            cold_queue(ctx, out, source, len(out.setup_s))
        if spent >= ctx.seconds:
            continue
        burst += 1
        measured(ctx, burst - 1)
        spilled_before = queue.stats().spilled
        publish_s = []
        ctx.tracer.trigger = burst
        for k in range(batches):
            batch = source.batch(burst, k)
            with ctx.tracer.span("drive.publish", len(batch)):
                begin = time.perf_counter()
                queue.publish_many(batch)
                publish_s.append(time.perf_counter() - begin)
        s = queue.stats()
        out.high_water("broker.backlog_max", s.in_memory + s.on_disk)
        if ctx.tracer.active:
            out.layer["broker.spill_bytes_per_tuple"] = dir_bytes(broker.spill_root) / s.on_disk
        with ctx.tracer.span("drive.drain", SPILL_BURST):
            begin = time.perf_counter()
            head = sub.receive(timeout=0)
            first_s = time.perf_counter() - begin
            rest = sub.drain()
            drain_s = time.perf_counter() - begin
        out.add("broker.spilled", queue.stats().spilled - spilled_before)
        burst_s = sum(publish_s) + drain_s
        out.first_result_s.append(sum(publish_s) + first_s)
        for k in range(batches):
            out.latency_ms.append((sum(publish_s[k:]) + drain_s) * 1000.0)
        out.tuples += SPILL_BURST
        (out.traced_s if ctx.tracer.active else out.untraced_s).append(burst_s)
        spent += burst_s

        got = [] if head is None else [head]
        got += rest
        del rest
        for k in range(batches):
            want = source.batch(burst, k)
            check_fifo(out, got[k * SPILL_BATCH : (k + 1) * SPILL_BATCH], want, f"burst {burst}")
        check_drained(out, queue, f"burst {burst}")
        del got
    sub.close()
    broker.shutdown()
    return out


WORKLOADS = {
    "hist-120d": run_hist,
    "live-fanout": run_live,
    "spill-burst": run_spill,
}
