"""Load farm of simulated devices.

Each simulated thing publishes one tuple per period with attributes drawn
from per-thing seeded generators. The default attribute model is two
positive, diurnally varying rates (download_speed, upload_speed), which keeps
min/max/mean outputs meaningful.

Topologies: every thing into one shared queue, or one queue per thing.
``run_farm`` is one loop on the calling thread for either clock: each tick
waits for its instant, publishes every thing's tuple and drains the queues.
On a virtual clock a run is reproducible down to the byte; on a real one it
is paced by the wall clock. It reports counters, throughput, and delivery
latency and tick jitter percentiles.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import Protocol

from .broker import Broker, QueueConfig, QueueStats, Subscription
from .clock import Clock, SystemClock
from .model import StreamTuple, TimeUnit

DAY_MS = TimeUnit.DAYS.millis

# Delivery latency is sampled on every Nth tuple to keep overhead
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

    def __post_init__(self) -> None:
        if self.period_ms < 1:
            raise ValueError(f"period_ms must be >= 1, got {self.period_ms}")

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
        for name in ("things", "period_ms", "duration_ms", "memory_capacity"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not isinstance(self.queue, str):
            raise ValueError(f"queue must be a str, got {self.queue!r}")
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


# A config file names the attribute model "attributes", as generator specs.
_CONFIG_KEYS = {f.name for f in fields(FarmConfig)} - {"attribute_model"} | {"attributes"}


def farm_config_from_dict(obj: object) -> FarmConfig:
    """Build a FarmConfig from a parsed JSON config file.

    Raises ValueError for anything but an object of known keys, and for
    ``attributes`` that is not an object of generator specs.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"farm config must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown farm config keys: {', '.join(unknown)}")
    kwargs = dict(obj)
    if "topology" in kwargs:
        kwargs["topology"] = Topology(kwargs["topology"])
    if "attributes" in kwargs:
        attrs = kwargs.pop("attributes")
        if not isinstance(attrs, dict) or not all(isinstance(s, str) for s in attrs.values()):
            raise ValueError("farm config attributes must map names to generator specs")
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

    def to_dict(self) -> dict:
        obj = asdict(self)
        obj["elapsed_ms"] = round(self.elapsed_ms, 3)
        obj["throughput_tps"] = round(self.throughput_tps, 1)
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    CSV_HEADER = (
        "things,topology,period_ms,duration_ms,published,delivered,"
        "throughput_tps,p50_ms,p95_ms,p99_ms"
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
    """Run the whole farm on the calling thread and report counters at the end.

    Tick k waits with ``clock.sleep_ms`` until ``start + k * period_ms`` (a
    VirtualClock advances exactly there), generates every thing's tuple in
    thing order at that instant and publishes one batch per queue. With
    ``consume`` it then drains each queue's one subscription, sampling
    delivery latency on every LATENCY_SAMPLE_EVERY-th tuple; without it the
    tuples stay queued for the caller. Jitter, how late a tick began, is
    sampled every 16th tick. A generator or publish error propagates; the
    subscriptions are closed either way.
    """
    clock = clock if clock is not None else SystemClock()
    thing_ids = [f"thing-{i:04d}" for i in range(config.things)]
    rngs = [thing_rng(config.seed, tid) for tid in thing_ids]
    members: dict[str, list[int]] = {}
    for i in range(config.things):
        members.setdefault(config.queue_for(i), []).append(i)
    queues = {
        name: broker.declare_queue(QueueConfig(name=name, memory_capacity=config.memory_capacity))
        for name in members
    }
    model = config.attribute_model
    subs: list[Subscription] = []
    published = delivered = 0
    latency: list[float] = []
    jitter: list[float] = []
    begin = time.monotonic()
    start = clock.now_ms()
    try:
        for queue in queues.values() if consume else ():
            subs.append(broker.subscribe(queue))
        for k in range(config.tuples_per_thing):
            target = start + k * config.period_ms
            clock.sleep_ms(target - clock.now_ms())
            now = clock.now_ms()
            if k % 16 == 0:
                jitter.append(float(now - target))
            for name, indices in members.items():
                queues[name].publish_many(
                    [generate_tuple(thing_ids[i], model, rngs[i], now) for i in indices]
                )
            published += config.things
            for sub in subs:
                batch = sub.drain()
                now = clock.now_ms()
                # Every tuple whose run-wide delivery index is a multiple of N.
                sampled = batch[-delivered % LATENCY_SAMPLE_EVERY :: LATENCY_SAMPLE_EVERY]
                latency.extend(float(now - t.timestamp) for t in sampled)
                delivered += len(batch)
    finally:
        for sub in subs:
            sub.close()
    elapsed_ms = (time.monotonic() - begin) * 1000.0
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
    )
