"""Load farm of simulated devices.

Each simulated thing publishes one tuple per period with attributes drawn
from per-thing seeded generators, so a farm run is reproducible down to the
byte on a virtual clock and produces genuine multi-threaded load on a real
one. The default attribute model is two positive, diurnally varying rates
(download_speed, upload_speed), which keeps min/max/mean outputs meaningful.

Topologies: every thing into one shared queue, or one queue per thing.
``run_farm`` owns publisher and consumer lifecycles and reports counters,
throughput and delivery-latency percentiles; correctness tests use the
virtual clock, throughput measurements the real one.
"""

from __future__ import annotations

import json
import logging
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

from .broker import Broker, Queue, QueueConfig, QueueStats
from .clock import Clock, SystemClock, VirtualClock
from .model import StreamTuple, TimeUnit

logger = logging.getLogger(__name__)

DAY_MS = TimeUnit.DAYS.millis

# Consumers sample delivery latency on every Nth tuple to keep overhead
# negligible at high rates.
LATENCY_SAMPLE_EVERY = 128


class Topology(str, Enum):
    SHARED_QUEUE = "shared_queue"
    QUEUE_PER_THING = "queue_per_thing"


class ValueGenerator(Protocol):
    def sample(self, rng: random.Random, t_ms: int) -> float: ...


@dataclass(frozen=True)
class ConstantGen:
    value: float

    def sample(self, rng: random.Random, t_ms: int) -> float:
        return self.value


@dataclass(frozen=True)
class UniformGen:
    low: float
    high: float

    def sample(self, rng: random.Random, t_ms: int) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class NoisySineGen:
    """base + amplitude * sin(2*pi*t/period) + gaussian noise, floored at 0."""

    base: float
    amplitude: float
    period_ms: int = DAY_MS
    noise: float = 0.0

    def sample(self, rng: random.Random, t_ms: int) -> float:
        v = self.base + self.amplitude * math.sin(2.0 * math.pi * t_ms / self.period_ms)
        if self.noise:
            v += rng.gauss(0.0, self.noise)
        return max(v, 0.0)


def parse_generator(text: str) -> ValueGenerator:
    """Generator spec syntax: constant:V | uniform:LO,HI | sine:BASE,AMP[,PERIOD_MS[,NOISE]].

    Every parameter must be a finite number.
    """
    kind, _, rest = text.partition(":")
    try:
        args = [float(a) for a in rest.split(",")] if rest else []
        if not all(map(math.isfinite, args)):
            raise ValueError("non-finite parameter")
        if kind == "constant" and len(args) == 1:
            return ConstantGen(args[0])
        if kind == "uniform" and len(args) == 2:
            return UniformGen(args[0], args[1])
        if kind == "sine" and 2 <= len(args) <= 4:
            period = int(args[2]) if len(args) > 2 else DAY_MS
            noise = args[3] if len(args) > 3 else 0.0
            return NoisySineGen(args[0], args[1], period, noise)
    except ValueError:
        pass
    raise ValueError(f"bad generator spec: {text!r}")


DEFAULT_ATTRIBUTE_MODEL: tuple[tuple[str, ValueGenerator], ...] = (
    ("download_speed", NoisySineGen(base=50.0, amplitude=20.0, noise=2.0)),
    ("upload_speed", NoisySineGen(base=10.0, amplitude=4.0, noise=0.8)),
)


@dataclass(frozen=True)
class FarmConfig:
    things: int
    period_ms: int
    duration_ms: int
    topology: Topology = Topology.SHARED_QUEUE
    attribute_model: tuple[tuple[str, ValueGenerator], ...] = DEFAULT_ATTRIBUTE_MODEL
    seed: int = 0
    queue: str = "farm"
    memory_capacity: int = 100_000

    def __post_init__(self) -> None:
        if self.things < 1:
            raise ValueError(f"things must be >= 1, got {self.things}")
        if self.period_ms < 1:
            raise ValueError(f"period_ms must be >= 1, got {self.period_ms}")
        if self.duration_ms < 0:
            raise ValueError(f"duration_ms must be >= 0, got {self.duration_ms}")
        if not self.attribute_model:
            raise ValueError("attribute_model must name at least one attribute")

    @property
    def tuples_per_thing(self) -> int:
        return self.duration_ms // self.period_ms

    def queue_for(self, thing_index: int) -> str:
        if self.topology is Topology.SHARED_QUEUE:
            return self.queue
        return f"{self.queue}.{thing_index}"


def farm_config_from_dict(obj: dict) -> FarmConfig:
    """Build a FarmConfig from a parsed JSON config file."""
    kwargs = dict(obj)
    if "topology" in kwargs:
        kwargs["topology"] = Topology(kwargs["topology"])
    if "attributes" in kwargs:
        attrs = kwargs.pop("attributes")
        kwargs["attribute_model"] = tuple(
            (name, parse_generator(spec)) for name, spec in attrs.items()
        )
    return FarmConfig(**kwargs)


def thing_rng(seed: int, thing_id: str) -> random.Random:
    """Per-thing stream seeded independently; same seed, distinct things differ."""
    return random.Random(f"{seed}/{thing_id}")


def generate_tuple(
    thing_id: str,
    model: tuple[tuple[str, ValueGenerator], ...],
    rng: random.Random,
    now_ms: int,
) -> StreamTuple:
    attrs = {name: gen.sample(rng, now_ms) for name, gen in model}
    return StreamTuple(timestamp=now_ms, attributes=attrs, source_id=thing_id)


@dataclass
class RunReport:
    things: int
    period_ms: int
    duration_ms: int
    topology: str
    published: int
    delivered: int
    elapsed_ms: float
    throughput_tps: float
    latency_ms: dict[str, float] | None
    jitter_ms: dict[str, float] | None
    queues: dict[str, QueueStats]
    complete: bool = True

    def to_dict(self) -> dict:
        obj = {
            "things": self.things,
            "period_ms": self.period_ms,
            "duration_ms": self.duration_ms,
            "topology": self.topology,
            "published": self.published,
            "delivered": self.delivered,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "throughput_tps": round(self.throughput_tps, 1),
            "latency_ms": self.latency_ms,
            "jitter_ms": self.jitter_ms,
            "queues": {
                name: {
                    "published": s.published,
                    "delivered": s.delivered,
                    "spilled": s.spilled,
                    "in_memory": s.in_memory,
                    "on_disk": s.on_disk,
                }
                for name, s in sorted(self.queues.items())
            },
            "complete": self.complete,
        }
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    CSV_HEADER = (
        "things,topology,period_ms,duration_ms,published,delivered,"
        "throughput_tps,p50_ms,p95_ms,p99_ms,complete"
    )

    def csv_row(self) -> str:
        lat = self.latency_ms or {}
        return ",".join(
            str(v)
            for v in (
                self.things,
                self.topology,
                self.period_ms,
                self.duration_ms,
                self.published,
                self.delivered,
                round(self.throughput_tps, 1),
                lat.get("p50", ""),
                lat.get("p95", ""),
                lat.get("p99", ""),
                self.complete,
            )
        )


def _percentiles(samples: list[float]) -> dict[str, float] | None:
    if len(samples) < 2:
        return None
    qs = statistics.quantiles(samples, n=100, method="inclusive")
    return {"p50": round(qs[49], 3), "p95": round(qs[94], 3), "p99": round(qs[98], 3)}


def run_farm(
    config: FarmConfig,
    broker: Broker,
    clock: Clock | None = None,
    consume: bool = True,
) -> RunReport:
    """Run the whole farm and report counters at quiescence.

    A VirtualClock makes the run single-threaded and deterministic: each
    tick publishes every thing's tuple in thing order, then consumers drain.
    A real clock spreads things across publisher threads and measures
    delivery latency and per-tick jitter. With consume=False the tuples
    stay queued for the caller (virtual mode only).
    """
    clock = clock if clock is not None else SystemClock()
    thing_ids = [f"thing-{i:04d}" for i in range(config.things)]
    queue_names = sorted({config.queue_for(i) for i in range(config.things)})
    queues = {
        name: broker.declare_queue(QueueConfig(name=name, memory_capacity=config.memory_capacity))
        for name in queue_names
    }
    if isinstance(clock, VirtualClock):
        return _run_virtual(config, broker, clock, thing_ids, queues, consume)
    return _run_real(config, broker, clock, thing_ids, queues, consume)


def _run_virtual(
    config: FarmConfig,
    broker: Broker,
    clock: VirtualClock,
    thing_ids: list[str],
    queues: dict[str, Queue],
    consume: bool,
) -> RunReport:
    rngs = [thing_rng(config.seed, tid) for tid in thing_ids]
    start = clock.now_ms()
    published = 0
    begin = time.monotonic()
    for k in range(config.tuples_per_thing):
        clock.set_ms(start + k * config.period_ms)
        now = clock.now_ms()
        batches: dict[str, list[StreamTuple]] = {}
        for i, tid in enumerate(thing_ids):
            t = generate_tuple(tid, config.attribute_model, rngs[i], now)
            batches.setdefault(config.queue_for(i), []).append(t)
        for name, batch in batches.items():
            queues[name].publish_many(batch)
        published += len(thing_ids)
    delivered = 0
    if consume:
        for name in sorted(queues):
            sub = broker.subscribe(queues[name])
            delivered += len(sub.drain())
            sub.close()
    elapsed_ms = (time.monotonic() - begin) * 1000.0
    return RunReport(
        things=config.things,
        period_ms=config.period_ms,
        duration_ms=config.duration_ms,
        topology=config.topology.value,
        published=published,
        delivered=delivered,
        elapsed_ms=elapsed_ms,
        throughput_tps=published / (elapsed_ms / 1000.0) if elapsed_ms > 0 else 0.0,
        latency_ms=None,
        jitter_ms=None,
        queues={name: q.stats() for name, q in queues.items()},
        complete=True,
    )


class _PublisherWorker(threading.Thread):
    """Publishes for a slice of the farm's things, one batch per tick."""

    def __init__(
        self,
        config: FarmConfig,
        clock: Clock,
        indices: list[int],
        thing_ids: list[str],
        queues: dict[str, Queue],
        start_ms: int,
    ):
        super().__init__(daemon=True)
        self.config = config
        self.clock = clock
        self.indices = indices
        self.thing_ids = thing_ids
        self.queues = queues
        self.start_ms = start_ms
        self.rngs = {i: thing_rng(config.seed, thing_ids[i]) for i in indices}
        self.published = 0
        self.jitter: list[float] = []
        self.error: str | None = None

    def run(self) -> None:
        cfg = self.config
        try:
            for k in range(cfg.tuples_per_thing):
                target = self.start_ms + k * cfg.period_ms
                now = self.clock.now_ms()
                if target > now:
                    self.clock.sleep_ms(target - now)
                now = self.clock.now_ms()
                if k % 16 == 0:
                    self.jitter.append(float(now - target))
                batches: dict[str, list[StreamTuple]] = {}
                for i in self.indices:
                    t = generate_tuple(
                        self.thing_ids[i], cfg.attribute_model, self.rngs[i], now
                    )
                    batches.setdefault(cfg.queue_for(i), []).append(t)
                for name, batch in batches.items():
                    self.queues[name].publish_many(batch)
                    self.published += len(batch)
        except Exception as exc:
            # Any failure makes the run incomplete; a dead thread must not
            # read as a finished one.
            logger.exception("publisher worker failed")
            self.error = f"{type(exc).__name__}: {exc}"


class _ConsumerWorker(threading.Thread):
    """Drains a set of queues, counting tuples and sampling latency."""

    def __init__(self, broker: Broker, names: list[str], clock: Clock, done: threading.Event):
        super().__init__(daemon=True)
        self.subs = [broker.subscribe(name) for name in names]
        self.clock = clock
        self.done = done
        self.delivered = 0
        self.latency: list[float] = []

    def run(self) -> None:
        seen = 0
        while True:
            got = 0
            for sub in self.subs:
                batch = sub.receive_many(8192, timeout=0.02)
                got += len(batch)
                for t in batch:
                    if seen % LATENCY_SAMPLE_EVERY == 0:
                        self.latency.append(float(self.clock.now_ms() - t.timestamp))
                    seen += 1
            self.delivered += got
            if got == 0 and self.done.is_set():
                return

    def close(self) -> None:
        for sub in self.subs:
            sub.close()


def _run_real(
    config: FarmConfig,
    broker: Broker,
    clock: Clock,
    thing_ids: list[str],
    queues: dict[str, Queue],
    consume: bool,
) -> RunReport:
    n_workers = min(8, config.things)
    chunks: list[list[int]] = [[] for _ in range(n_workers)]
    for i in range(config.things):
        chunks[i % n_workers].append(i)

    done = threading.Event()
    consumers: list[_ConsumerWorker] = []
    if consume:
        names = sorted(queues)
        n_consumers = min(4, len(names))
        per = [names[c::n_consumers] for c in range(n_consumers)]
        consumers = [_ConsumerWorker(broker, group, clock, done) for group in per if group]
        for c in consumers:
            c.start()

    begin = time.monotonic()
    start_ms = clock.now_ms() + 50
    workers = [
        _PublisherWorker(config, clock, chunk, thing_ids, queues, start_ms) for chunk in chunks
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    done.set()
    for c in consumers:
        c.join()
        c.close()
    elapsed_ms = (time.monotonic() - begin) * 1000.0

    published = sum(w.published for w in workers)
    delivered = sum(c.delivered for c in consumers)
    errors = [w.error for w in workers if w.error]
    jitter = [j for w in workers for j in w.jitter]
    latency = [v for c in consumers for v in c.latency]
    basis = delivered if consume else published
    return RunReport(
        things=config.things,
        period_ms=config.period_ms,
        duration_ms=config.duration_ms,
        topology=config.topology.value,
        published=published,
        delivered=delivered,
        elapsed_ms=elapsed_ms,
        throughput_tps=basis / (elapsed_ms / 1000.0) if elapsed_ms > 0 else 0.0,
        latency_ms=_percentiles(latency),
        jitter_ms=_percentiles(jitter),
        queues={name: q.stats() for name, q in queues.items()},
        complete=not errors,
    )
