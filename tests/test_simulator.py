import dataclasses
import json
import math
import random
import threading

import pytest

from conflux.clock import SystemClock, VirtualClock
from conflux.model import encode_tuple
from conflux.simulator import (
    DEFAULT_ATTRIBUTE_MODEL,
    ConstantGen,
    FarmConfig,
    NoisySineGen,
    Topology,
    UniformGen,
    farm_config_from_dict,
    generate_tuple,
    parse_generator,
    run_farm,
    thing_rng,
)


def _virtual_report(broker, config, consume=True):
    return run_farm(config, broker, clock=VirtualClock(0), consume=consume)


# -- generators -------------------------------------------------------------


def test_constant_and_uniform_generators():
    rng = random.Random(0)
    assert ConstantGen(7.5).sample(rng, 0) == 7.5
    for _ in range(100):
        v = UniformGen(2.0, 3.0).sample(rng, 0)
        assert 2.0 <= v <= 3.0


def test_sine_generator_period_and_floor():
    gen = NoisySineGen(base=10.0, amplitude=4.0, period_ms=1_000, noise=0.0)
    rng = random.Random(0)
    assert gen.sample(rng, 250) == pytest.approx(14.0)
    assert gen.sample(rng, 750) == pytest.approx(6.0)
    # Values never go negative even when the wave dips below zero.
    deep = NoisySineGen(base=1.0, amplitude=5.0, period_ms=1_000, noise=0.0)
    assert deep.sample(rng, 750) == 0.0


def test_parse_generator_forms():
    assert isinstance(parse_generator("constant:5"), ConstantGen)
    u = parse_generator("uniform:1,9")
    assert (u.low, u.high) == (1.0, 9.0)
    s = parse_generator("sine:50,20,86400000,2")
    assert (s.base, s.amplitude, s.period_ms, s.noise) == (50.0, 20.0, 86_400_000, 2.0)
    for bad in (
        "triangle:1", "uniform:1,inf", "constant:nan", "sine:50,-inf", "sine:50,20,1000,nan",
        "sine:1,1,0", "sine:1,1,0.5",
    ):
        with pytest.raises(ValueError):
            parse_generator(bad)
    with pytest.raises(ValueError, match="period_ms"):
        NoisySineGen(base=1.0, amplitude=1.0, period_ms=0)


def test_thing_rngs_are_reproducible_and_distinct():
    a1 = [thing_rng(1, "thing-0001").random() for _ in range(5)]
    a2 = [thing_rng(1, "thing-0001").random() for _ in range(5)]
    b = [thing_rng(1, "thing-0002").random() for _ in range(5)]
    c = [thing_rng(2, "thing-0001").random() for _ in range(5)]
    assert a1 == a2
    assert a1 != b and a1 != c


def test_many_things_generate_distinct_streams():
    draws = set()
    for i in range(10_000):
        rng = thing_rng(0, f"thing-{i:04d}")
        draws.add(tuple(round(rng.random(), 12) for _ in range(3)))
    assert len(draws) == 10_000


def test_generate_tuple_shape():
    t = generate_tuple("thing-0007", DEFAULT_ATTRIBUTE_MODEL, random.Random(1), 12_345)
    assert t.source_id == "thing-0007"
    assert t.timestamp == 12_345
    assert set(t.attributes) == {"download_speed", "upload_speed"}
    assert all(v >= 0 for v in t.attributes.values())


# -- farm configuration -----------------------------------------------------


def test_config_validation_and_derived_fields():
    cfg = FarmConfig(things=3, period_ms=100, duration_ms=10_000)
    assert cfg.tuples_per_thing == 100
    assert cfg.queue_for(2) == "farm"
    per = FarmConfig(things=3, period_ms=100, duration_ms=1_000, topology=Topology.QUEUE_PER_THING)
    assert per.queue_for(2) == "farm.2"
    with pytest.raises(ValueError):
        FarmConfig(things=0, period_ms=100, duration_ms=1_000)
    with pytest.raises(ValueError):
        FarmConfig(things=1, period_ms=0, duration_ms=1_000)


def test_config_from_dict():
    cfg = farm_config_from_dict(
        {
            "things": 4,
            "period_ms": 50,
            "duration_ms": 2_000,
            "topology": "queue_per_thing",
            "seed": 9,
            "attributes": {"temp": "sine:20,5,60000", "rpm": "constant:900"},
        }
    )
    assert cfg.things == 4 and cfg.topology is Topology.QUEUE_PER_THING
    names = [name for name, _ in cfg.attribute_model]
    assert names == ["temp", "rpm"]


@pytest.mark.parametrize(
    "obj, message",
    [
        ([1, 2], "must be a JSON object"),
        ({"things": 1, "period_ms": 1, "duration_ms": 1, "bogus": 1, "attribute_model": 2},
         "unknown farm config keys: attribute_model, bogus"),
        ({"things": 1, "period_ms": 1, "duration_ms": 1, "attributes": ["constant:1"]},
         "attributes must map"),
        ({"things": 1, "period_ms": 1, "duration_ms": 1, "attributes": {"v": 5}},
         "attributes must map"),
    ],
)
def test_config_from_dict_rejects_malformed_configs(obj, message):
    with pytest.raises(ValueError, match=message):
        farm_config_from_dict(obj)


# -- virtual runs -----------------------------------------------------------


def test_virtual_run_publishes_exact_count(broker):
    cfg = FarmConfig(things=3, period_ms=100, duration_ms=10_000, seed=1)
    report = _virtual_report(broker, cfg)
    assert report.published == 300
    assert report.delivered == 300
    assert report.queues["farm"].published == 300


def test_virtual_run_per_thing_topology(broker):
    cfg = FarmConfig(
        things=4, period_ms=200, duration_ms=2_000, topology=Topology.QUEUE_PER_THING, seed=1
    )
    report = _virtual_report(broker, cfg)
    assert report.published == 40
    assert sorted(report.queues) == [f"farm.{i}" for i in range(4)]
    assert all(s.published == 10 for s in report.queues.values())


def test_virtual_run_leaves_tuples_when_not_consuming(broker):
    cfg = FarmConfig(things=2, period_ms=100, duration_ms=1_000, seed=3)
    report = _virtual_report(broker, cfg, consume=False)
    assert report.delivered == 0
    sub = broker.subscribe("farm")
    got = sub.drain()
    assert len(got) == 20
    # Within one tick, things publish in index order.
    assert [t.source_id for t in got[:2]] == ["thing-0000", "thing-0001"]
    assert got[0].timestamp == 0 and got[-1].timestamp == 900


def test_virtual_run_lands_on_each_tick(broker):
    clock = VirtualClock(5_000)
    cfg = FarmConfig(things=5, period_ms=100, duration_ms=3_200, seed=3)
    report = run_farm(cfg, broker, clock=clock)
    n = cfg.tuples_per_thing
    last_tick = 5_000 + (n - 1) * 100
    assert clock.now_ms() == last_tick
    # Every tick starts on time and its tuples are drained at that instant.
    assert report.latency_ms == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    assert report.jitter_ms == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    # A second run starts where the first one left the clock.
    run_farm(dataclasses.replace(cfg, queue="kept"), broker, clock=clock, consume=False)
    got = broker.subscribe("kept").drain()
    stamps = [t.timestamp for t in got if t.source_id == "thing-0004"]
    assert stamps == [last_tick + k * 100 for k in range(n)]


def test_virtual_clock_sleep_advances_time():
    clock = VirtualClock(10)
    clock.sleep_ms(0)
    clock.sleep_ms(-5)
    assert clock.now_ms() == 10
    clock.sleep_ms(2.5)
    assert clock.now_ms() == 13


def test_virtual_runs_are_byte_identical(broker):
    def log(queue):
        cfg = FarmConfig(things=3, period_ms=100, duration_ms=3_000, seed=42, queue=queue)
        _virtual_report(broker, cfg, consume=False)
        sub = broker.subscribe(queue)
        lines = b"".join((encode_tuple(t) + "\n").encode() for t in sub.drain())
        sub.close()
        return lines

    assert log("runa") == log("runb")


def test_report_serializations(broker):
    cfg = FarmConfig(things=2, period_ms=100, duration_ms=500, seed=0)
    report = _virtual_report(broker, cfg)
    doc = json.loads(report.to_json())
    assert doc["published"] == 10
    row = report.csv_row()
    assert row.split(",")[0] == "2"
    assert len(row.split(",")) == len(report.CSV_HEADER.split(","))


# -- real-clock runs --------------------------------------------------------

def test_real_run_small_farm_is_lossless(broker):
    cfg = FarmConfig(things=5, period_ms=10, duration_ms=300, seed=7)
    report = run_farm(cfg, broker, clock=SystemClock())
    assert report.published == 5 * 30
    assert report.delivered == report.published
    assert report.throughput_tps > 0
    stats = report.queues["farm"]
    assert stats.published == stats.delivered


def test_real_run_generator_failure_raises_and_frees_the_queue(broker):
    # Samples are infinite, which no tuple may carry: the first tick raises.
    cfg = FarmConfig(
        things=50, period_ms=10, duration_ms=200, memory_capacity=5,
        attribute_model=(("v", UniformGen(1.0, math.inf)),),
    )
    with pytest.raises(ValueError, match="finite"):
        run_farm(cfg, broker, clock=SystemClock())
    # The run's subscription was closed, so the queue takes a new consumer.
    broker.subscribe("farm").close()


def test_real_run_starts_no_thread(broker, monkeypatch):
    def refuse(self):
        raise RuntimeError("no threads in a farm run")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = FarmConfig(things=5, period_ms=10, duration_ms=200, topology=Topology.QUEUE_PER_THING)
    report = run_farm(cfg, broker, clock=SystemClock())
    assert report.published == report.delivered == 5 * 20
    assert all(s.published == s.delivered == 20 for s in report.queues.values())
