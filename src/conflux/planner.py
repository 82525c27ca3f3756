"""Compilation of validated query specs into runnable pipelines.

A plan is a DAG of stages joined by broker queues: an optional fetch stage
that copies the shared source queue into per-operator input queues, then
one aggregation operator per query, each writing to its own result queue.
Single-query plans are linear chains; planning several queries over one
stream fans the fetch stage out instead of competing for the source
queue's only consumer slot.

Plan ids hash the canonical query text, so planning the same query twice
yields the same id, queue names and JSON rendering. Planning is pure; the
launcher rolls partially started pipelines back to nothing.

On either clock a pipeline runs by ``Pipeline.pump``, one step of every
stage: the caller pumps on a virtual clock, one driver thread per pipeline on
a real clock. A stage that raises fails the pipeline, with the error as cause.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from dataclasses import dataclass
from enum import Enum

from .broker import Broker, Queue, QueueConfig, QueueStats, Subscription
from .clock import Clock, SystemClock, VirtualClock
from .model import StreamTuple
from .query import Catalog, QuerySpec, render_query, validate
from .runtime import Operator, OperatorConfig
from .store import HistoricStore, SeriesRef

logger = logging.getLogger(__name__)

# Longest a real-clock driver sleeps before it pumps newly arrived tuples.
POLL_S = 0.1
# Longest ``Pipeline.stop`` waits for the driver thread's last pump.
DRAIN_TIMEOUT_S = 10.0


class PlanError(ValueError):
    pass


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class FetchStage:
    """Forwards every tuple of the source queue to each output queue."""

    name: str
    source_queue: str
    output_queues: tuple[str, ...]


@dataclass(frozen=True)
class OperatorStage:
    name: str
    input_queue: str
    sink_queue: str
    config: OperatorConfig
    historic: SeriesRef | None


@dataclass(frozen=True)
class PipelinePlan:
    id: str
    stages: tuple[FetchStage | OperatorStage, ...]
    queues: tuple[QueueConfig, ...]

    @property
    def source_queue(self) -> str | None:
        for stage in self.stages:
            if isinstance(stage, FetchStage):
                return stage.source_queue
        return None

    @property
    def operator_stages(self) -> tuple[OperatorStage, ...]:
        return tuple(s for s in self.stages if isinstance(s, OperatorStage))

    def to_json(self) -> str:
        """Human-readable plan rendering, stable across runs."""
        stages = []
        for stage in self.stages:
            if isinstance(stage, FetchStage):
                stages.append(
                    {
                        "kind": "fetch",
                        "name": stage.name,
                        "source_queue": stage.source_queue,
                        "output_queues": list(stage.output_queues),
                    }
                )
            else:
                cfg = stage.config
                stages.append(
                    {
                        "kind": "operator",
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
            "queues": [
                {"name": q.name, "memory_capacity": q.memory_capacity} for q in self.queues
            ],
            "stages": stages,
        }
        return json.dumps(obj, indent=2)


def result_queue_name(spec: QuerySpec) -> str:
    return f"results.{_digest(render_query(spec))}"


def plan(spec: QuerySpec, catalog: Catalog) -> PipelinePlan:
    """Compile one query into a linear fetch → operator → sink chain."""
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

    plan_id = _digest("\n".join(render_query(s) for s in specs))
    queues: list[QueueConfig] = []
    stages: list[FetchStage | OperatorStage] = []
    op_stages: list[OperatorStage] = []
    fed_inputs: list[str] = []
    for k, spec in enumerate(specs):
        input_queue = f"in.{plan_id}.{k}"
        sink_queue = result_queue_name(spec)
        queues.append(QueueConfig(name=input_queue))
        queues.append(QueueConfig(name=sink_queue))
        if spec.sources.stream is not None:
            fed_inputs.append(input_queue)
        historic = None
        if spec.sources.historic is not None:
            h = spec.sources.historic
            historic = SeriesRef(h.provider, h.database, h.series)
        config = OperatorConfig(
            trigger=spec.frequency,
            window=spec.window,
            aggregation=spec.aggregation,
            attribute=spec.attribute,
        )
        op_stages.append(
            OperatorStage(
                name=f"op{k}",
                input_queue=input_queue,
                sink_queue=sink_queue,
                config=config,
                historic=historic,
            )
        )
    if stream_queues:
        (source,) = stream_queues
        stages.append(FetchStage(name="fetch", source_queue=source, output_queues=tuple(fed_inputs)))
    stages.extend(op_stages)
    return PipelinePlan(id=plan_id, stages=tuple(stages), queues=tuple(queues))


# -- launching --------------------------------------------------------------


class PipelineState(str, Enum):
    STARTING = "starting"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"


@dataclass(frozen=True)
class StageStats:
    name: str
    kind: str
    tuples_in: int
    tuples_out: int
    late_dropped: int


@dataclass(frozen=True)
class PipelineStatus:
    id: str
    state: PipelineState
    cause: str | None
    stages: tuple[StageStats, ...]
    queues: dict[str, QueueStats]


class _FetchRunner:
    """The fan-out copier between the source queue and operator inputs."""

    def __init__(self, stage: FetchStage, subscription: Subscription, outputs: list[Queue]):
        self.stage = stage
        self.subscription = subscription
        self.outputs = outputs
        self.tuples_in = 0
        self.tuples_out = 0

    def step(self) -> int:
        batch = self.subscription.drain()
        if not batch:
            return 0
        self.tuples_in += len(batch)
        for queue in self.outputs:
            queue.publish_many(batch)
            self.tuples_out += len(batch)
        return len(batch)

    def close(self) -> None:
        self.subscription.close()


class Pipeline:
    """A launched plan: owns subscriptions, connections and its driver thread."""

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
        self._fetch: _FetchRunner | None = None
        self._created_queues: list[str] = []
        self._driver: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    # -- wiring -----------------------------------------------------------

    def _declare(self, config: QueueConfig) -> Queue:
        created = not self.broker.has_queue(config.name)
        queue = self.broker.declare_queue(config)
        if created:
            self._created_queues.append(config.name)
        return queue

    def start(self, threaded: bool = True) -> "Pipeline":
        """Wire and start every stage, rolling back to nothing on failure."""
        try:
            self._wire()
        except Exception as exc:
            self._rollback()
            self.state = PipelineState.FAILED
            self.cause = str(exc)
            logger.warning("pipeline %s failed to start: %s", self.plan.id, exc)
            return self
        for op in self.operators:
            op.start(self.duration_ms)
        self.state = PipelineState.RUNNING
        if threaded:
            self._driver = threading.Thread(
                target=self._drive, name=f"pipeline-{self.plan.id}", daemon=True
            )
            self._driver.start()
        return self

    def _wire(self) -> None:
        for config in self.plan.queues:
            self._declare(config)
        source = self.plan.source_queue
        if source is not None and not self.broker.has_queue(source):
            self._declare(QueueConfig(name=source))
        for stage in self.plan.stages:
            if isinstance(stage, FetchStage):
                outputs = [self.broker.get_queue(name) for name in stage.output_queues]
                self._fetch = _FetchRunner(stage, self.broker.subscribe(stage.source_queue), outputs)
            else:
                historic = None
                if stage.historic is not None:
                    if self.store is None:
                        raise PlanError(f"stage {stage.name} needs a historic store")
                    historic = self.store.open_connection(stage.historic)
                self.operators.append(
                    Operator(
                        name=stage.name,
                        config=stage.config,
                        fetch=self.broker.subscribe(stage.input_queue),
                        sink=self.broker.get_queue(stage.sink_queue),
                        historic=historic,
                        clock=self.clock,
                    )
                )

    def _rollback(self) -> None:
        if self._fetch is not None:
            self._fetch.close()
            self._fetch = None
        for op in self.operators:
            op.close()
        self.operators = []
        for name in self._created_queues:
            self.broker.delete_queue(name)
        self._created_queues = []

    # -- driving ----------------------------------------------------------

    def pump(self) -> int:
        """One co-operative pass over all stages; returns how much moved.

        A stage that raises fails the pipeline: the state becomes FAILED
        with the error as its cause, every operator stops, and the error
        propagates to the caller.
        """
        moved = 0
        try:
            if self._fetch is not None:
                moved += self._fetch.step()
            for op in self.operators:
                moved += op.step()
        except Exception as exc:
            self.state = PipelineState.FAILED
            self.cause = f"{type(exc).__name__}: {exc}"
            for op in self.operators:
                op.stop(self.cause)
            raise
        return moved

    def pump_until_quiet(self) -> None:
        while self.pump():
            pass

    def _pump_logged(self) -> None:
        """``pump_until_quiet`` that logs a stage failure instead of raising it."""
        try:
            self.pump_until_quiet()
        except Exception:
            logger.exception("pipeline %s failed", self.plan.id)

    def _drive(self) -> None:
        """Real-clock driver: pump, then sleep until a trigger is due or POLL_S passes.

        A trigger's pump drains the fetch queues first, so every tuple
        published before a trigger is admitted before it fires. Ends after
        the pump that follows ``stop``, or once every operator has finished.
        """
        while True:
            self._pump_logged()
            pending = [op.next_trigger_ms for op in self.operators if not op.finished]
            if self._stop.is_set() or not pending:
                return
            wait_s = (min(pending) - self.clock.now_ms()) / 1000.0
            self._stop.wait(min(max(wait_s, 0.0), POLL_S))

    # -- monitoring -------------------------------------------------------

    def status(self) -> PipelineStatus:
        stages: list[StageStats] = []
        if self._fetch is not None:
            stages.append(
                StageStats(
                    name=self._fetch.stage.name,
                    kind="fetch",
                    tuples_in=self._fetch.tuples_in,
                    tuples_out=self._fetch.tuples_out,
                    late_dropped=0,
                )
            )
        for op in self.operators:
            m = op.metrics
            stages.append(
                StageStats(
                    name=op.name,
                    kind="operator",
                    tuples_in=m.tuples_in,
                    tuples_out=m.results_emitted,
                    late_dropped=m.late_dropped,
                )
            )
        queues = {}
        for config in self.plan.queues:
            if self.broker.has_queue(config.name):
                queues[config.name] = self.broker.stats(config.name)
        source = self.plan.source_queue
        if source is not None and self.broker.has_queue(source):
            queues[source] = self.broker.stats(source)
        return PipelineStatus(
            id=self.plan.id,
            state=self.state,
            cause=self.cause,
            stages=tuple(stages),
            queues=queues,
        )

    # -- shutdown ---------------------------------------------------------

    def stop(self) -> PipelineStatus:
        """Graceful stop: a last pump (by the driver thread, if there is one,
        within ``DRAIN_TIMEOUT_S``), then every subscription and connection is
        closed. A failed pipeline keeps FAILED and its cause but is closed too,
        which frees the source queue's consumer slot for the next launch.
        """
        with self._lock:
            if self.state is PipelineState.RUNNING:
                self._stop.set()
                if self._driver is None:
                    self._pump_logged()
                else:
                    self._driver.join(timeout=DRAIN_TIMEOUT_S)
                if self.state is PipelineState.RUNNING:
                    self.state = PipelineState.STOPPED
            if self._fetch is not None:
                self._fetch.close()
            for op in self.operators:
                op.close()
            return self.status()


def launch(
    plan: PipelinePlan,
    broker: Broker,
    store: HistoricStore | None = None,
    clock: Clock | None = None,
    duration_ms: int | None = None,
    threaded: bool = True,
) -> Pipeline:
    """Declare queues, wire stages and start them; failures roll back cleanly."""
    pipeline = Pipeline(plan, broker, store, clock=clock, duration_ms=duration_ms)
    return pipeline.start(threaded=threaded)


def run_virtual(
    pipeline: Pipeline,
    clock: VirtualClock,
    feed: list[StreamTuple] | None = None,
    end_ms: int | None = None,
) -> None:
    """Drive a launched unthreaded pipeline on virtual time until done.

    The feed must be sorted by timestamp; each tuple is published to the
    plan's source queue when the clock reaches its timestamp, before any
    trigger due at the same instant fires. The loop ends when every bounded
    operator has fired its last trigger and the feed is exhausted.
    """
    if pipeline.state is not PipelineState.RUNNING:
        raise PlanError(f"pipeline is {pipeline.state.value}, not running")
    if pipeline._driver is not None:
        raise PlanError("run_virtual needs a pipeline launched with threaded=False")
    feed = list(feed or [])
    source_name = pipeline.plan.source_queue
    if feed and source_name is None:
        raise PlanError("feed given but the plan has no stream source")
    source = pipeline.broker.get_queue(source_name) if source_name else None
    i = 0
    while True:
        candidates = []
        if i < len(feed):
            candidates.append(feed[i].timestamp)
        for op in pipeline.operators:
            if op.finished:
                continue
            nxt = op.next_trigger_ms
            if op.end_ms is not None or (end_ms is not None and nxt <= end_ms):
                # Unbounded operators with no run horizon only advance while
                # feed remains; their triggers fire when pumping catches up.
                candidates.append(nxt)
        if not candidates:
            break
        t = min(candidates)
        if end_ms is not None and t > end_ms:
            break
        if t > clock.now_ms():
            clock.set_ms(t)
        now = clock.now_ms()
        while i < len(feed) and feed[i].timestamp <= now:
            assert source is not None
            source.publish(feed[i])
            i += 1
        pipeline.pump_until_quiet()
