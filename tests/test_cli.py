import json
import tempfile
import threading
import time

import pytest

from conflux import runtime
from conflux.cli import main, parse_duration_ms
from conflux.model import StreamTuple, encode_tuple
from conflux.store import HistoricStore, SeriesRef

from test_query import NEUBOT_SPEED_MEAN

Q_STREAM = (
    "EVERY 1 minutes compute the mean value of download_speed of the last 2 minutes "
    "from streaming rabbitmq queue neubotspeed"
)


@pytest.fixture
def roots(tmp_path, monkeypatch):
    monkeypatch.delenv("CONFLUX_STORE_ROOT", raising=False)
    monkeypatch.setenv("CONFLUX_SPILL_ROOT", str(tmp_path / "spill"))
    return tmp_path / "store"


def _write_ndjson(path, tuples, junk=0):
    with open(path, "w", encoding="utf-8") as f:
        for t in tuples:
            f.write(encode_tuple(t) + "\n")
        for i in range(junk):
            f.write(f"garbled {i}\n")


def _speed_tuples(n, period_ms=1_000, start=0, v=5.0):
    return [
        StreamTuple(
            timestamp=start + k * period_ms,
            attributes={"download_speed": v + k, "upload_speed": 1.0},
            source_id=f"t{k}",
        )
        for k in range(n)
    ]


def test_parse_duration_forms():
    assert parse_duration_ms("500ms") == 500
    assert parse_duration_ms("30s") == 30_000
    assert parse_duration_ms("10m") == 600_000
    assert parse_duration_ms("2h") == 7_200_000
    assert parse_duration_ms("120d") == 120 * 86_400_000
    assert parse_duration_ms("250") == 250
    with pytest.raises(ValueError):
        parse_duration_ms("10 fortnights")


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["query", "--bogus"]) == 1


def test_bad_query_text_is_usage_error(capsys):
    assert main(["query", "EVERY banana compute nothing"]) == 1
    assert "query error" in capsys.readouterr().err


def test_ingest_requires_store_root(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CONFLUX_STORE_ROOT", raising=False)
    log = tmp_path / "x.ndjson"
    _write_ndjson(log, _speed_tuples(1))
    rc = main(["ingest", str(log), "--provider", "influxdb", "--db", "d", "--series", "s"])
    assert rc == 2
    assert "CONFLUX_STORE_ROOT" in capsys.readouterr().err


def test_ingest_ndjson_counts_and_duplicates(roots, tmp_path, capsys):
    log = tmp_path / "speed.ndjson"
    _write_ndjson(log, _speed_tuples(50), junk=2)
    argv = [
        "ingest", str(log),
        "--provider", "influxdb", "--db", "neubot", "--series", "speedtest",
        "--store-root", str(roots),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "ingested 50" in out and "2 malformed" in out
    assert main(argv) == 0
    assert "ingested 0 (50 duplicates)" in capsys.readouterr().out
    store = HistoricStore(roots)
    assert store.diagnostics(SeriesRef("influxdb", "neubot", "speedtest")).tuples == 50
    store.close()


def test_ingest_csv(roots, tmp_path, capsys):
    csv = tmp_path / "speed.csv"
    csv.write_text(
        "ts,src,download_speed,comment\n"
        "0,a,10.5,ok\n"
        "60000,b,12.5,slow\n"
    )
    rc = main(
        ["ingest", str(csv), "--provider", "influxdb", "--db", "neubot",
         "--series", "speedtest", "--store-root", str(roots)]
    )
    assert rc == 0
    assert "ingested 2" in capsys.readouterr().out
    store = HistoricStore(roots)
    ref = SeriesRef("influxdb", "neubot", "speedtest")
    assert store.diagnostics(ref).tuples == 2
    # "comment" is never numeric, so it is not an attribute a query may aggregate.
    assert store.attributes(ref) == frozenset({"download_speed"})
    store.close()


def test_ingest_csv_non_finite_row_is_malformed(roots, tmp_path, capsys):
    csv = tmp_path / "speed.csv"
    csv.write_text("ts,v\n0,1.5\n1000,nan\n2000,2.5\n")
    rc = main(
        ["ingest", str(csv), "--provider", "influxdb", "--db", "d", "--series", "s",
         "--max-bad", "0.5", "--store-root", str(roots)]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ingested 2 [1 malformed lines skipped]"
    store = HistoricStore(roots)
    assert store.diagnostics(SeriesRef("influxdb", "d", "s")).tuples == 2
    store.close()


def test_ingest_too_many_bad_lines(roots, tmp_path, capsys):
    log = tmp_path / "bad.ndjson"
    _write_ndjson(log, _speed_tuples(2), junk=8)
    rc = main(
        ["ingest", str(log), "--provider", "influxdb", "--db", "d", "--series", "s",
         "--store-root", str(roots)]
    )
    assert rc == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("max_bad", ["-1", "1.5", "nan", "inf"])
def test_ingest_max_bad_must_be_a_fraction(roots, tmp_path, max_bad, capsys):
    log = tmp_path / "x.ndjson"
    _write_ndjson(log, _speed_tuples(1), junk=9)
    rc = main(["ingest", str(log), "--provider", "influxdb", "--db", "d", "--series", "s",
               f"--max-bad={max_bad}", "--store-root", str(roots)])
    assert rc == 1
    assert "must be a fraction in [0, 1]" in capsys.readouterr().err
    assert not roots.exists()


def test_query_explain_prints_plan(roots, capsys):
    # The plan is printed by `conflux explain`; `query --explain` is gone.
    assert main(["query", Q_STREAM, "--explain"]) == 1
    assert "unrecognized arguments: --explain" in capsys.readouterr().err
    assert main(["explain", Q_STREAM]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["source_queue"] == "neubotspeed"
    assert [s["input_queue"] for s in doc["stages"]] == ["neubotspeed"]
    assert doc["stages"][0]["historic"] is None


def test_explain_subcommand_without_store(capsys):
    assert main(["explain", NEUBOT_SPEED_MEAN]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stages"][0]["historic"]["series"] == "speedtest"


def test_query_virtual_replay_writes_outputs(roots, tmp_path, capsys):
    log = tmp_path / "live.ndjson"
    _write_ndjson(log, _speed_tuples(240, period_ms=1_000))
    out = tmp_path / "results.ndjson"
    plot = tmp_path / "results.csv"
    rc = main(
        ["query", Q_STREAM, "--replay", str(log), "--output", str(out),
         "--plot-csv", str(plot)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    docs = [json.loads(line) for line in lines]
    # 239 s of feed at 1-minute triggers: derived bound covers 4 triggers.
    assert len(docs) == 4
    assert docs[0]["trigger_ts"] == 60_000
    assert all(d["count"] > 0 for d in docs)
    plot_lines = plot.read_text().strip().splitlines()
    assert plot_lines[0] == "trigger_ts,value"
    assert len(plot_lines) == 5


def test_query_virtual_needs_bound(roots, capsys):
    assert main(["query", Q_STREAM]) == 2
    assert "--duration" in capsys.readouterr().err


def test_query_hybrid_over_store(roots, tmp_path, capsys):
    log = tmp_path / "hist.ndjson"
    _write_ndjson(log, _speed_tuples(600, period_ms=1_000))
    assert main(
        ["ingest", str(log), "--provider", "influxdb", "--db", "neubot",
         "--series", "speedtest", "--store-root", str(roots)]
    ) == 0
    capsys.readouterr()
    out = tmp_path / "results.ndjson"
    rc = main(
        ["query", NEUBOT_SPEED_MEAN, "--duration", "60s",
         "--store-root", str(roots), "--output", str(out)]
    )
    assert rc == 0
    docs = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(docs) == 3
    # The clock starts one past the last stored tuple, so each ten-minute
    # window trails further past the end of history; no live tuples arrive.
    assert [d["hist_count"] for d in docs] == [580, 560, 540]
    assert all(d["live_count"] == 0 for d in docs)


def _failing_evaluate(*args, **kwargs):
    raise RuntimeError("evaluation exploded")


def test_query_virtual_stage_failure_exits_2(roots, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runtime, "hybrid_evaluate", _failing_evaluate)
    log = tmp_path / "live.ndjson"
    _write_ndjson(log, _speed_tuples(120))
    assert main(["query", Q_STREAM, "--replay", str(log)]) == 2
    err = capsys.readouterr().err
    assert "pipeline failed: RuntimeError: evaluation exploded" in err


def test_query_failure_keeps_emitted_results(roots, tmp_path, capsys, monkeypatch):
    calls = []
    evaluate = runtime.hybrid_evaluate

    def fail_third(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("evaluation exploded")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(runtime, "hybrid_evaluate", fail_third)
    log = tmp_path / "live.ndjson"
    _write_ndjson(log, _speed_tuples(300))
    assert main(["query", Q_STREAM, "--replay", str(log)]) == 2
    out, err = capsys.readouterr()
    assert [json.loads(line)["trigger_ts"] for line in out.splitlines()] == [60_000, 120_000]
    assert err.splitlines()[-1] == "error: pipeline failed: RuntimeError: evaluation exploded"


def test_query_real_stage_failure_exits_2(roots, capsys, monkeypatch):
    monkeypatch.setattr(runtime, "hybrid_evaluate", _failing_evaluate)
    every_second = Q_STREAM.replace("EVERY 1 minutes", "EVERY 1 seconds")
    rc = []
    runner = threading.Thread(
        target=lambda: rc.append(main(["query", every_second, "--clock", "real",
                                       "--duration", "2s"])),
        daemon=True,
    )
    runner.start()
    runner.join(timeout=15)
    assert rc == [2]
    assert "pipeline failed: RuntimeError: evaluation exploded" in capsys.readouterr().err


EVERY_SECOND_MAX = (
    "EVERY 1 seconds compute the max value of download_speed of the last 1 seconds "
    "from streaming rabbitmq queue neubotspeed"
)


def _real_replay(tmp_path, duration, speed):
    """A real-clock query over 30 tuples at 1 s gaps plus one malformed line."""
    log = tmp_path / "live.ndjson"
    _write_ndjson(log, _speed_tuples(30), junk=1)
    out = tmp_path / "results.ndjson"
    rc = main(
        ["query", EVERY_SECOND_MAX, "--clock", "real", "--duration", duration,
         "--replay", str(log), "--speed", speed, "--output", str(out)]
    )
    return rc, [json.loads(line) for line in out.read_text().splitlines()]


def test_query_real_replay_is_rebased_and_counted(roots, tmp_path, capsys):
    # At 10x the 29 s log spans 2.9 s from launch: 10 tuples per 1 s window.
    rc, docs = _real_replay(tmp_path, "3s", "10")
    assert rc == 0
    assert len(docs) == 3
    assert sum(d["live_count"] for d in docs) == 30


def test_query_real_replay_ends_with_its_duration(roots, tmp_path, capsys):
    # At 2x the log spans 14.5 s; the run ends after its 2 s duration.
    begin = time.monotonic()
    rc, docs = _real_replay(tmp_path, "2s", "2")
    assert time.monotonic() - begin < 5.0
    assert rc == 0
    assert len(docs) == 2


def test_query_real_replay_infinite_speed_lands_at_launch(roots, tmp_path, capsys):
    rc, docs = _real_replay(tmp_path, "1s", "inf")
    assert rc == 0
    assert [d["live_count"] for d in docs] == [30]


@pytest.mark.parametrize("speed", ["0", "-2", "nan", "-inf", "fast"])
def test_query_speed_must_be_positive(roots, speed, capsys):
    rc = main(["query", EVERY_SECOND_MAX, "--clock", "real", "--duration", "1s",
               f"--speed={speed}"])
    assert rc == 1
    assert "speed must be a positive number" in capsys.readouterr().err


def test_replay_subcommand_is_gone(roots, capsys):
    assert main(["replay", "log.ndjson", "--queue", "q"]) == 1


def test_query_on_a_never_numeric_attribute_is_plan_error(roots, tmp_path, capsys):
    # In series s2 no attribute is numeric at all.
    for series, other in (("s", {"w": 2.0}), ("s2", {})):
        log = tmp_path / f"{series}.ndjson"
        _write_ndjson(log, [
            StreamTuple(timestamp=k * 1_000, attributes={"v": v, **other}, source_id="")
            for k, v in enumerate(["n/a", "x"])
        ])
        assert main(["ingest", str(log), "--provider", "influxdb", "--db", "d",
                     "--series", series, "--store-root", str(roots)]) == 0
        rc = main(["query", "EVERY 1 seconds compute the mean value of v of the last 10 seconds "
                   f"FROM influxdb database d series {series}", "--duration", "2s",
                   "--store-root", str(roots)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("plan error: attribute 'v' not present"), err
        assert len(err.splitlines()) == 1


def test_query_unknown_series_is_plan_error(roots, capsys):
    rc = main(["query", NEUBOT_SPEED_MEAN, "--duration", "60s", "--store-root", str(roots)])
    assert rc == 1
    assert "plan error" in capsys.readouterr().err


def test_historic_query_without_store_root_is_plan_error(roots, capsys):
    assert main(["query", NEUBOT_SPEED_MEAN, "--duration", "60s"]) == 1
    assert capsys.readouterr().err == "plan error: unknown historic provider: influxdb\n"


def test_spill_root_removed_only_when_made_by_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CONFLUX_STORE_ROOT", raising=False)
    monkeypatch.delenv("CONFLUX_SPILL_ROOT", raising=False)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    log = tmp_path / "live.ndjson"
    _write_ndjson(log, _speed_tuples(240))
    out = tmp_path / "results.ndjson"
    assert main(["query", Q_STREAM, "--replay", str(log), "--output", str(out)]) == 0
    bench = ["bench", "--clock", "virtual", "--duration", "1s"]
    assert main(bench) == 0
    assert list(scratch.glob("conflux-spill-*")) == []
    given = tmp_path / "given"
    given.mkdir()
    assert main([*bench, "--spill-root", str(given)]) == 0
    assert given.is_dir()


def test_bench_virtual_matrix(roots, tmp_path, capsys):
    csv_out = tmp_path / "bench.csv"
    json_out = tmp_path / "bench.json"
    rc = main(
        ["bench", "--clock", "virtual", "--period", "100ms", "--duration", "2s",
         "--matrix", "things=2,4", "topology=shared,per-thing",
         "--csv-out", str(csv_out), "--json-out", str(json_out)]
    )
    assert rc == 0
    reports = json.loads(json_out.read_text())
    assert len(reports) == 4
    assert {(r["things"], r["topology"]) for r in reports} == {
        (2, "shared_queue"), (2, "queue_per_thing"),
        (4, "shared_queue"), (4, "queue_per_thing"),
    }
    assert all(r["published"] == r["things"] * 20 for r in reports)
    # On virtual time every tick starts exactly on its instant.
    assert all(r["jitter_ms"] == {"p50": 0.0, "p95": 0.0, "p99": 0.0} for r in reports)
    rows = csv_out.read_text().strip().splitlines()
    assert len(rows) == 5
    # stdout carried one JSON report per combo.
    assert capsys.readouterr().out.count('"published"') >= 4


def test_bench_config_file(roots, tmp_path, capsys):
    cfg = tmp_path / "farm.json"
    cfg.write_text(json.dumps({"things": 3, "period_ms": 100, "duration_ms": 1000, "seed": 4}))
    assert main(["bench", "--config", str(cfg), "--clock", "virtual"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["published"] == 30


@pytest.mark.parametrize(
    "config, message",
    [
        ({"things": 2, "period_ms": 100, "duration_ms": 1000,
          "attributes": {"v": "sine:1,1,0"}}, "bad generator spec"),
        ({"things": 2, "period_ms": 100, "duration_ms": 1000,
          "attributes": {"v": "sine:1,1,0.5"}}, "bad generator spec"),
        ({"things": 2, "period_ms": 100, "duration_ms": 1000, "bogus": 1},
         "unknown farm config keys: bogus"),
        ([1, 2], "must be a JSON object"),
        ({"things": "3", "period_ms": 100, "duration_ms": 1000}, "things must be an int"),
        ({"things": 2.5, "period_ms": 100, "duration_ms": 1000}, "things must be an int"),
        ({"things": 2, "period_ms": 100, "duration_ms": 1000, "queue": 5},
         "queue must be a str"),
    ],
)
def test_bench_bad_config_is_runtime_error(roots, tmp_path, capsys, config, message):
    cfg = tmp_path / "farm.json"
    cfg.write_text(json.dumps(config))
    assert main(["bench", "--config", str(cfg), "--clock", "virtual"]) == 2
    assert message in capsys.readouterr().err


def test_bench_generator_error_exits_2(roots, tmp_path, capsys):
    # A quarter period in, base + amplitude overflows to inf, which no tuple may carry.
    cfg = tmp_path / "farm.json"
    cfg.write_text(json.dumps({"things": 2, "period_ms": 100, "duration_ms": 1000,
                               "attributes": {"v": "sine:1e308,1e308,400"}}))
    assert main(["bench", "--config", str(cfg), "--clock", "virtual"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_queue_name_cannot_escape_the_spill_root(roots, tmp_path, capsys):
    sp = tmp_path / "sp"
    (sp / "inner").mkdir(parents=True)
    precious = sp / "precious.txt"
    precious.write_text("keep me")
    cfg = tmp_path / "farm.json"
    cfg.write_text(json.dumps({"things": 1, "period_ms": 100, "duration_ms": 1000,
                               "queue": ".."}))
    rc = main(["bench", "--config", str(cfg), "--clock", "virtual",
               "--spill-root", str(sp / "inner")])
    assert rc == 2
    assert "illegal queue name" in capsys.readouterr().err
    assert precious.read_text() == "keep me"


def test_bench_bad_matrix_axis(roots, capsys):
    for axis in ("wheels=4", "topology=bogus"):
        assert main(["bench", "--clock", "virtual", "--matrix", axis]) == 2
        assert "matrix" in capsys.readouterr().err
