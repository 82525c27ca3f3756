"""Compilation of validated query specs into runnable pipelines.

A plan is one aggregation operator per query, each writing to its own
result queue, over at most one shared source queue. The pipeline holds the
source queue's only subscription: each pass drains it once and admits every
tuple straight into each operator that reads the stream, so several queries
over one stream share one consumer slot and no tuple is copied between
queues.

Plan ids hash the canonical query text, so planning the same query twice
yields the same id, queue names and JSON rendering. Planning is pure; the
launcher rolls partially started pipelines back to nothing.

The pipeline is the one clock reader. Launch reads it once and anchors
every operator of the plan at that instant, so their windows line up. On
either clock a pipeline runs by ``Pipeline.run``, the one loop that reads the
clock once per pass, publishes the feed due by then, pumps every stage at that
same instant (``Pipeline.pump``) and waits for the next due instant: a virtual
clock jumps there, a real clock sleeps. Launching starts no thread: the
caller runs the loop, on its own thread or on one it owns, and ``stop`` from
any thread ends it. Operators catch nothing, so a stage that raises (a store
error, a closed result queue) fails the pipeline, with the error as cause.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

from .broker import Broker, Queue, QueueConfig, QueueStats, Subscription
from .clock import Clock, SystemClock, VirtualClock
from .model import StreamTuple
from .query import Catalog, QuerySpec, render_query, validate
from .runtime import Operator, OperatorConfig
from .store import HistoricStore, SeriesRef

logger = logging.getLogger(__name__)

# Longest a real-clock ``run`` sleeps before it pumps tuples that other
# threads published.
POLL_S = 0.1


class PlanError(ValueError):
    pass


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class OperatorStage:
    name: str
    input_queue: str | None  # the stream queue it reads; None for a history-only query
    sink_queue: str
    config: OperatorConfig
    historic: SeriesRef | None


@dataclass(frozen=True)
class PipelinePlan:
    id: str
    source_queue: str | None
    operator_stages: tuple[OperatorStage, ...]
    queues: tuple[QueueConfig, ...]

    def to_json(self) -> str:
        """Human-readable plan rendering, stable across runs."""
        stages = []
        for stage in self.operator_stages:
            cfg = stage.config
            stages.append(
                {
                    "name": stage.name,
                    "input_queue": stage.input_queue,
                    "sink_queue": stage.sink_queue,
                    "aggregation": cfg.aggregation.value,
                    "attribute": cfg.attribute,
                    "trigger_ms": cfg.trigger.period_ms,
                    "window": {
                        "kind": cfg.window.kind.value,
                        "duration_ms": cfg.window.duration_ms,
                    },
                    "historic": None
                    if stage.historic is None
                    else {
                        "provider": stage.historic.provider,
                        "database": stage.historic.database,
                        "series": stage.historic.series,
                    },
                }
            )
        obj = {
            "id": self.id,
            "source_queue": self.source_queue,
            "queues": [
                {"name": q.name, "memory_capacity": q.memory_capacity} for q in self.queues
            ],
            "stages": stages,
        }
        return json.dumps(obj, indent=2)


def result_queue_name(spec: QuerySpec) -> str:
    return f"results.{_digest(render_query(spec))}"


def plan(spec: QuerySpec, catalog: Catalog) -> PipelinePlan:
    """Compile one query into a one-operator plan."""
    return plan_many([spec], catalog)


def plan_many(specs: list[QuerySpec], catalog: Catalog) -> PipelinePlan:
    """Compile several queries over one shared stream into a fan-out plan."""
    if not specs:
        raise PlanError("no query specs given")
    for spec in specs:
        diagnostics = validate(spec, catalog)
        if diagnostics:
            raise PlanError("; ".join(diagnostics))
    stream_queues = {s.sources.stream.queue for s in specs if s.sources.stream is not None}
    if len(stream_queues) > 1:
        raise PlanError(
            "queries in one pipeline must share a stream queue, got: "
            + ", ".join(sorted(stream_queues))
        )

    stages: list[OperatorStage] = []
    for k, spec in enumerate(specs):
        stream, h = spec.sources.stream, spec.sources.historic
        stages.append(
            OperatorStage(
                name=f"op{k}",
                input_queue=None if stream is None else stream.queue,
                sink_queue=result_queue_name(spec),
                config=OperatorConfig(
                    trigger=spec.frequency,
                    window=spec.window,
                    aggregation=spec.aggregation,
                    attribute=spec.attribute,
                ),
                historic=None if h is None else SeriesRef(h.provider, h.database, h.series),
            )
        )
    return PipelinePlan(
        id=_digest("\n".join(render_query(s) for s in specs)),
        source_queue=next(iter(stream_queues), None),
        operator_stages=tuple(stages),
        queues=tuple(QueueConfig(name=s.sink_queue) for s in stages),
    )


# -- launching --------------------------------------------------------------


class PipelineState(str, Enum):
    STARTING = "starting"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"


@dataclass(frozen=True)
class StageStats:
    """One stage's counters. An operator's ``tuples_in`` is the tuples it
    admitted plus ``late_dropped``, ``behind_watermark`` and
    ``non_numeric_skipped``; ``buffered`` is how many admitted tuples it
    still holds for its windows. The fetch stage drops nothing."""

    name: str
    kind: str
    tuples_in: int
    tuples_out: int
    late_dropped: int = 0
    behind_watermark: int = 0
    non_numeric_skipped: int = 0
    buffered: int = 0


@dataclass(frozen=True)
class PipelineStatus:
    id: str
    state: PipelineState
    cause: str | None
    stages: tuple[StageStats, ...]
    queues: dict[str, QueueStats]


class Pipeline:
    """A launched plan: owns its subscriptions and connections."""

    def __init__(
        self,
        plan: PipelinePlan,
        broker: Broker,
        store: HistoricStore | None,
        clock: Clock | None = None,
        duration_ms: int | None = None,
    ):
        self.plan = plan
        self.broker = broker
        self.store = store
        self.clock = clock if clock is not None else SystemClock()
        self.duration_ms = duration_ms
        self.state = PipelineState.STARTING
        self.cause: str | None = None
        self.operators: list[Operator] = []
        # The operators that read the stream, and the one subscription that feeds them.
        self._readers: list[Operator] = []
        self._source: Subscription | None = None
        self._fetched = 0
        self._created_queues: list[str] = []
        self._stop = threading.Event()
        self._lock = threading.RLock()

    # -- wiring -----------------------------------------------------------

    def _declare(self, config: QueueConfig) -> Queue:
        created = not self.broker.has_queue(config.name)
        queue = self.broker.declare_queue(config)
        if created:
            self._created_queues.append(config.name)
        return queue

    def start(self) -> "Pipeline":
        """Wire every stage anchored at one clock reading, rolling back to
        nothing on failure."""
        try:
            self._wire(self.clock.now_ms())
        except Exception as exc:
            self._rollback()
            self.state = PipelineState.FAILED
            self.cause = str(exc)
            logger.warning("pipeline %s failed to start: %s", self.plan.id, exc)
            return self
        self.state = PipelineState.RUNNING
        return self

    def _wire(self, anchor: int) -> None:
        for config in self.plan.queues:
            self._declare(config)
        source = self.plan.source_queue
        if source is not None:
            if not self.broker.has_queue(source):
                self._declare(QueueConfig(name=source))
            self._source = self.broker.subscribe(source)
        for stage in self.plan.operator_stages:
            historic = None
            if stage.historic is not None:
                if self.store is None:
                    raise PlanError(f"stage {stage.name} needs a historic store")
                historic = self.store.open_connection(stage.historic)
            op = Operator(
                name=stage.name,
                config=stage.config,
                sink=self.broker.get_queue(stage.sink_queue),
                historic=historic,
                anchor=anchor,
                duration_ms=self.duration_ms,
            )
            self.operators.append(op)
            if stage.input_queue is not None:
                self._readers.append(op)

    def _rollback(self) -> None:
        if self._source is not None:
            self._source.close()
            self._source = None
        for op in self.operators:
            op.close()
        self.operators = []
        self._readers = []
        for name in self._created_queues:
            self.broker.delete_queue(name)
        self._created_queues = []

    # -- driving ----------------------------------------------------------

    def pump(self, now: int | None = None) -> int:
        """One co-operative pass at instant ``now`` (one clock reading when
        not given): drain the source once, admit each tuple into every
        operator that reads the stream, in plan order, then step every
        operator at ``now``. Returns the tuples drained plus results emitted.

        This is the one place a stage failure lands: the state becomes
        FAILED with the error as its cause, every operator stops, and the
        error propagates to the caller.
        """
        if now is None:
            now = self.clock.now_ms()
        moved = 0
        try:
            if self._source is not None:
                batch = self._source.drain()
                self._fetched += len(batch)
                moved += len(batch)
                for op in self._readers:
                    for t in batch:
                        op.admit(t)
            for op in self.operators:
                moved += op.step(now)
        except Exception as exc:
            self.state = PipelineState.FAILED
            self.cause = f"{type(exc).__name__}: {exc}"
            for op in self.operators:
                op.stop()
            raise
        return moved

    def pump_until_quiet(self, now: int | None = None) -> None:
        """Pump at one instant (one clock reading when not given) until nothing moves."""
        if now is None:
            now = self.clock.now_ms()
        while self.pump(now):
            pass

    def run(self, feed: list[StreamTuple] | None = None, end_ms: int | None = None) -> None:
        """The driver loop on either clock: publish due feed, pump, wait.

        Each pass reads the clock once, publishes every feed tuple stamped
        at or before that ``now`` to the plan's source queue, pumps until
        quiet at the same ``now`` (a stage failure raises), then waits for
        the next due instant: the next feed timestamp or the next trigger of
        an unfinished operator. Feed and triggers share one reading, so feed
        published at an instant is admitted before a trigger due then fires,
        on either clock. A virtual clock jumps to that instant; there an
        unbounded operator counts only up to ``end_ms``. A real clock waits
        at most ``POLL_S``, so tuples that other threads publish are pumped
        too.

        Returns after the pass that follows ``stop``, when nothing is due,
        or when the next instant is past ``end_ms``. Once every operator has
        finished, the rest of the feed is published at once and pumped.
        The feed must be sorted by timestamp. Raises PlanError unless the
        pipeline is running. It holds the pipeline lock until it returns, so
        a ``stop`` from another thread waits for it and two threads never
        pump at once.
        """
        with self._lock:
            if self.state is not PipelineState.RUNNING:
                raise PlanError(f"pipeline is {self.state.value}, not running")
            feed = feed or []
            source_name = self.plan.source_queue
            if feed and source_name is None:
                raise PlanError("feed given but the plan has no stream source")
            source = self.broker.get_queue(source_name) if feed else None
            virtual = isinstance(self.clock, VirtualClock)
            i = 0
            while True:
                now = self.clock.now_ms()
                j = bisect_right(feed, now, lo=i, key=lambda t: t.timestamp)
                if j > i:
                    source.publish_many(feed[i:j])
                    i = j
                self.pump_until_quiet(now)
                if self._stop.is_set():
                    return
                pending = [op for op in self.operators if not op.finished]
                if not pending:
                    if i < len(feed):
                        source.publish_many(feed[i:])
                        self.pump_until_quiet(now)
                    return
                due = [feed[i].timestamp] if i < len(feed) else []
                for op in pending:
                    nxt = op.next_trigger_ms
                    bounded = op.end_ms is not None or (end_ms is not None and nxt <= end_ms)
                    if not virtual or bounded:
                        due.append(nxt)
                if not due:
                    return
                t = min(due)
                if end_ms is not None and t > end_ms:
                    return
                if virtual:
                    self.clock.set_ms(t)
                else:
                    self._stop.wait(min(max((t - now) / 1000.0, 0.0), POLL_S))

    # -- monitoring -------------------------------------------------------

    def status(self) -> PipelineStatus:
        stages: list[StageStats] = []
        if self._source is not None:
            # Every tuple drained from the source is handed to each reader.
            fanned = self._fetched * len(self._readers)
            stages.append(StageStats("fetch", "fetch", self._fetched, fanned))
        for op in self.operators:
            m = op.metrics
            stages.append(
                StageStats(
                    name=op.name,
                    kind="operator",
                    tuples_in=m.tuples_in,
                    tuples_out=m.results_emitted,
                    late_dropped=m.late_dropped,
                    behind_watermark=m.behind_watermark,
                    non_numeric_skipped=m.non_numeric_skipped,
                    buffered=m.buffered,
                )
            )
        names = [q.name for q in self.plan.queues] + [self.plan.source_queue]
        queues = {n: self.broker.stats(n) for n in names if n and self.broker.has_queue(n)}
        return PipelineStatus(
            id=self.plan.id,
            state=self.state,
            cause=self.cause,
            stages=tuple(stages),
            queues=queues,
        )

    # -- shutdown ---------------------------------------------------------

    def stop(self) -> PipelineStatus:
        """Graceful stop from any thread: end a ``run`` in progress and wait
        for it to return, make a last pass of ``run`` (a stage failure is
        logged, not raised), then close every subscription and connection.
        A failed pipeline keeps FAILED and its cause but is closed too,
        which frees the source queue's consumer slot for the next launch.
        """
        # Set before taking the lock, so a real-clock run wakes from its wait.
        self._stop.set()
        with self._lock:
            if self.state is PipelineState.RUNNING:
                try:
                    self.run()
                except Exception:
                    logger.exception("pipeline %s failed", self.plan.id)
                if self.state is PipelineState.RUNNING:
                    self.state = PipelineState.STOPPED
            if self._source is not None:
                self._source.close()
            for op in self.operators:
                op.close()
            return self.status()


def launch(
    plan: PipelinePlan,
    broker: Broker,
    store: HistoricStore | None = None,
    clock: Clock | None = None,
    duration_ms: int | None = None,
    threaded: bool = False,
) -> Pipeline:
    """Declare queues and wire stages; failures roll back cleanly. Starts no
    thread: ``threaded`` is kept only for callers that pass False."""
    if threaded:
        raise ValueError("launch starts no thread; run pipe.run() on a thread you own")
    pipeline = Pipeline(plan, broker, store, clock=clock, duration_ms=duration_ms)
    return pipeline.start()

