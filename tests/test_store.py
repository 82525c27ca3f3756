import builtins
import random
import shutil
import tempfile
import zlib
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conflux import store as store_module
from conflux.model import StreamTuple, TimeUnit, is_numeric_value
from conflux.query import AggregationFunction
from conflux.store import (
    CHECKPOINT,
    AttributeTypeError,
    ClosedConnectionError,
    HistoricQuery,
    HistoricStore,
    SeriesDiagnostics,
    SeriesRef,
    StoreError,
    UnknownSeriesError,
)

from oracle import close, encode_tuple as oracle_encode, scan_group_rows

REF = SeriesRef("influxdb", "testdb", "s1")


def _t(ts: int, v, src: str = "") -> StreamTuple:
    return StreamTuple(timestamp=ts, attributes={"v": v}, source_id=src)


def _q(fn, start, end, n, unit=TimeUnit.MINUTES, value="v"):
    return HistoricQuery(
        function=fn, value=value, start=start, end=end, group_by_number=n, group_by_unit=unit
    )


@pytest.fixture
def store(empty_store):
    empty_store.register_series(REF)
    return empty_store


def test_series_ref_validation():
    with pytest.raises(ValueError):
        SeriesRef("", "db", "s")
    with pytest.raises(ValueError):
        SeriesRef("p/q", "db", "s")


def test_query_invariants():
    with pytest.raises(ValueError):
        _q(AggregationFunction.MEAN, 10, 5, 1)
    with pytest.raises(ValueError):
        _q(AggregationFunction.MEAN, 0, 5, 0)


def test_ingest_counts_and_dedup(store):
    batch = [_t(0, 1.0), _t(1, 2.0), _t(2, 3.0)]
    assert store.ingest(REF, batch) == 3
    assert store.ingest(REF, batch) == 0
    assert store.diagnostics(REF).tuples == 3
    assert store.diagnostics(REF).duplicates_ignored == 3


def test_ingest_unknown_series(empty_store):
    with pytest.raises(UnknownSeriesError):
        empty_store.ingest(SeriesRef("influxdb", "nope", "nope"), [_t(0, 1.0)])


def test_register_unknown_provider(empty_store):
    with pytest.raises(UnknownSeriesError):
        empty_store.register_series(SeriesRef("mongo", "db", "s"))


def test_grouped_mean_example(store):
    store.ingest(REF, [_t(0, 2.0), _t(30_000, 4.0), _t(90_000, 6.0)])
    rows = store.query_to_historic(REF, _q(AggregationFunction.MEAN, 0, 120_000, 1))
    assert [(r.bucket_start, r.count, r.result) for r in rows] == [
        (0, 2.0, 3.0),
        (60_000, 1.0, 6.0),
    ]


def test_grouped_max_example(store):
    store.ingest(REF, [_t(0, 2.0), _t(30_000, 4.0), _t(90_000, 6.0)])
    rows = store.query_to_historic(REF, _q(AggregationFunction.MAX, 0, 60_000, 1))
    assert [(r.bucket_start, r.count, r.result) for r in rows] == [(0, 2.0, 4.0)]


def test_empty_series_yields_empty_rows(store):
    rows = store.query_to_historic(REF, _q(AggregationFunction.MIN, 0, 180_000, 1))
    assert [(r.bucket_start, r.count, r.result) for r in rows] == [
        (0, 0.0, None),
        (60_000, 0.0, None),
        (120_000, 0.0, None),
    ]


def test_empty_range_yields_no_rows(store):
    assert store.query_to_historic(REF, _q(AggregationFunction.MIN, 500, 500, 1)) == []


def test_bucket_origin_anchored_at_query_start(store):
    store.ingest(REF, [_t(70_000, 5.0)])
    rows = store.query_to_historic(REF, _q(AggregationFunction.MEAN, 10_000, 130_000, 1))
    assert [r.bucket_start for r in rows] == [10_000, 70_000]
    assert rows[1].count == 1.0


def test_last_bucket_clipped(store):
    store.ingest(REF, [_t(100_000, 1.0)])
    rows = store.query_to_historic(REF, _q(AggregationFunction.MEAN, 0, 90_000, 1))
    # 90s span with 60s buckets: two rows, second covers [60s, 90s) only.
    assert [r.bucket_start for r in rows] == [0, 60_000]
    assert rows[1].count == 0.0


def test_never_numeric_attribute_is_type_error(store):
    store.ingest(REF, [StreamTuple(timestamp=0, attributes={"v": "fast"}, source_id="")])
    with pytest.raises(AttributeTypeError):
        store.query_to_historic(REF, _q(AggregationFunction.MEAN, 0, 60_000, 1))


def test_sometimes_numeric_attribute_skips_and_counts(store):
    store.ingest(REF, [_t(0, 1.0), _t(1_000, "slow"), _t(2_000, 3.0)])
    rows = store.query_to_historic(REF, _q(AggregationFunction.MEAN, 0, 60_000, 1))
    assert rows[0].count == 2.0
    assert rows[0].result == 2.0
    assert store.diagnostics(REF).non_numeric_skipped == 1


def test_int_beyond_float_range_is_skipped_as_non_numeric(store):
    store.ingest(REF, [_t(0, 1.0), _t(1_000, 10**400), _t(2_000, 3)])
    rows = store.query_to_historic(REF, _q(AggregationFunction.MEAN, 0, 60_000, 1))
    assert (rows[0].count, rows[0].result) == (2.0, 2.0)
    assert store.diagnostics(REF).non_numeric_skipped == 1
    assert store.diagnostics(REF).tuples == 3


def test_counts_sum_to_numeric_tuples_in_range(store):
    rng = random.Random(7)
    tuples = [_t(rng.randrange(0, 600_000), float(i), src=str(i)) for i in range(300)]
    store.ingest(REF, tuples)
    q = _q(AggregationFunction.MEAN, 60_000, 540_000, 2)
    rows = store.query_to_historic(REF, q)
    in_range = sum(1 for t in tuples if 60_000 <= t.timestamp < 540_000)
    assert sum(r.count for r in rows) == in_range


def test_out_of_order_ingest_equals_sorted(store):
    rng = random.Random(3)
    tuples = [_t(rng.randrange(0, 120_000), float(i), src=str(i)) for i in range(200)]
    store.ingest(REF, tuples)
    rows = store.query_to_historic(REF, _q(AggregationFunction.MAX, 0, 120_000, 1))
    want = scan_group_rows(tuples, AggregationFunction.MAX, "v", 0, 120_000, 60_000)
    assert [(r.bucket_start, int(r.count), r.result) for r in rows] == want


def test_connection_handles(store):
    store.ingest(REF, [_t(0, 1.0)])
    conn = store.open_connection(REF)
    q = _q(AggregationFunction.MEAN, 0, 60_000, 1)
    first = conn.query_to_historic(q)
    second = conn.query_to_historic(q)
    assert first == second
    other = store.open_connection(REF)
    conn.close()
    with pytest.raises(ClosedConnectionError):
        conn.query_to_historic(q)
    # Handles are independent.
    assert other.query_to_historic(q) == first
    other.close()


def test_open_connection_unknown_series(empty_store):
    with pytest.raises(UnknownSeriesError):
        empty_store.open_connection(SeriesRef("influxdb", "x", "y"))


def test_store_closed_errors(tmp_path):
    s = HistoricStore(tmp_path / "root")
    s.register_series(REF)
    s.close()
    with pytest.raises(StoreError):
        s.ingest(REF, [_t(0, 1.0)])


def test_durability_reopen_identical(tmp_path):
    root = tmp_path / "root"
    s = HistoricStore(root)
    s.register_series(REF)
    rng = random.Random(11)
    tuples = [_t(rng.randrange(0, 300_000), rng.uniform(1, 100), src=str(i)) for i in range(500)]
    s.ingest(REF, tuples)
    q = _q(AggregationFunction.MEAN, 0, 300_000, 1)
    before = s.query_to_historic(REF, q)
    s.close()
    s2 = HistoricStore(root)
    assert s2.diagnostics(REF).tuples == 500
    assert s2.query_to_historic(REF, q) == before
    # Re-ingesting the same tuples after reopen still deduplicates.
    assert s2.ingest(REF, tuples) == 0
    s2.close()


def test_torn_segment_line_is_counted(tmp_path):
    root = tmp_path / "root"
    s = HistoricStore(root)
    s.register_series(REF)
    s.ingest(REF, [_t(0, 1.0), _t(1_000, 2.0), _t(2_000, 3.0)])
    s.close()
    (segment,) = (root / REF.provider / REF.database / REF.series).glob("*.ndjson")
    segment.write_bytes(segment.read_bytes()[:-6])
    s2 = HistoricStore(root)
    d = s2.diagnostics(REF)
    assert (d.tuples, d.bad_lines) == (2, 1)
    assert s2.time_range(REF) == (0, 1_000)
    s2.close()


def test_deeply_nested_segment_line_is_counted(tmp_path):
    root = tmp_path / "root"
    s = HistoricStore(root)
    s.register_series(REF)
    s.ingest(REF, [_t(0, 1.0), _t(1_000, 2.0)])
    s.close()
    (segment,) = (root / REF.provider / REF.database / REF.series).glob("*.ndjson")
    with open(segment, "a", encoding="utf-8") as f:
        f.write('{"ts":2000,"v":' + "[" * 100_000 + "}\n")
    s2 = HistoricStore(root)
    d = s2.diagnostics(REF)
    assert (d.tuples, d.bad_lines) == (2, 1)
    s2.close()


@pytest.mark.parametrize("checkpoint", ["kept", "deleted"])
def test_non_utf8_segment_byte_is_a_bad_line(tmp_path, checkpoint):
    root = tmp_path / "root"
    s = HistoricStore(root)
    s.register_series(REF)
    s.ingest(REF, [_t(0, 1.0), _t(1_000, 2.0)])
    s.close()
    directory = root / REF.provider / REF.database / REF.series
    (segment,) = directory.glob("*.ndjson")
    data = segment.read_bytes()
    # A kept checkpoint no longer matches the segment's crc32, so it is ignored.
    segment.write_bytes(data[:-3] + b"\xff" + data[-2:])
    if checkpoint == "deleted":
        (directory / CHECKPOINT).unlink()
    s2 = HistoricStore(root)
    d = s2.diagnostics(REF)
    assert (d.tuples, d.bad_lines) == (1, 1)
    assert s2.time_range(REF) == (0, 0)
    assert s2.ingest(REF, [_t(0, 1.0), _t(1_000, 2.0)]) == 1
    s2.close()


def test_reopen_ignores_directories_of_unknown_providers(tmp_path):
    root = tmp_path / "root"
    s = HistoricStore(root)
    refs = [
        SeriesRef("influxdb", "d", "s"),
        SeriesRef("cassandra", "d", "s"),
        SeriesRef("cassandra", "a", "z"),
    ]
    for ref in refs:
        s.register_series(ref)
        s.ingest(ref, [_t(0, 1.0)])
    s.close()
    stray = root / "other" / "d" / "s"
    stray.mkdir(parents=True)
    (stray / "000000.ndjson").write_text('{"ts":0,"v":1.0}\n')
    (root / "notes.txt").write_text("not a provider\n")
    reopened = HistoricStore(root)
    assert reopened.series_refs() == sorted(refs, key=lambda r: (r.provider, r.database, r.series))
    assert all(reopened.diagnostics(ref).tuples == 1 for ref in refs)
    reopened.close()


def test_attributes_and_time_range(store):
    assert store.time_range(REF) is None
    store.ingest(REF, [StreamTuple(timestamp=5, attributes={"v": 1.0, "w": "x"}, source_id="")])
    store.ingest(REF, [_t(99, 2.0, src="b")])
    # "w" is never numeric, so no query may aggregate it.
    assert store.attributes(REF) == frozenset({"v"})
    assert store.time_range(REF) == (5, 99)


# -- randomized oracle equivalence ------------------------------------------

_fns = st.sampled_from(list(AggregationFunction))


@settings(max_examples=60, deadline=None)
@given(
    fn=_fns,
    data=st.data(),
)
def test_query_matches_scan_oracle(fn, data):
    n = data.draw(st.integers(0, 150))
    horizon = 400_000
    tuples = [
        _t(data.draw(st.integers(0, horizon)), data.draw(st.floats(0.001, 1e6)), src=str(i))
        for i in range(n)
    ]
    start = data.draw(st.integers(0, horizon))
    end = data.draw(st.integers(start, horizon + 60_000))
    width_n = data.draw(st.integers(1, 90))
    with tempfile.TemporaryDirectory() as root:
        store = HistoricStore(root)
        store.register_series(REF)
        store.ingest(REF, tuples)
        rows = store.query_to_historic(
            REF, _q(fn, start, end, width_n, unit=TimeUnit.SECONDS)
        )
        want = scan_group_rows(tuples, fn, "v", start, end, width_n * 1000)
        assert len(rows) == len(want)
        for got, (bs, count, result) in zip(rows, want):
            assert got.bucket_start == bs
            assert got.count == count
            if fn is AggregationFunction.MEAN:
                assert close(got.result, result)
            else:
                assert got.result == result
        store.close()


# -- block index against the scan oracle --------------------------------------


def _mixed_tuples(rng: random.Random, n: int, horizon: int, src: str) -> list[StreamTuple]:
    """Unsorted tuples whose "v" is an int, a float, a string or absent."""
    tuples = []
    for i in range(n):
        attrs = {"w": 1.0}
        kind = rng.randrange(4)
        if kind == 0:
            attrs["v"] = rng.randint(-50, 50)
        elif kind == 1:
            attrs["v"] = rng.uniform(-1e3, 1e3)
        elif kind == 2:
            attrs["v"] = rng.choice(["slow", "n/a"])
        tuples.append(StreamTuple(rng.randrange(0, horizon, 500), attrs, f"{src}{i}"))
    return tuples


def _check_against_oracle(s, tuples, queries):
    all_rows = []
    for fn, start, end, width_s in queries:
        skipped = s.diagnostics(REF).non_numeric_skipped
        rows = s.query_to_historic(REF, _q(fn, start, end, width_s, unit=TimeUnit.SECONDS))
        want = scan_group_rows(tuples, fn, "v", start, end, width_s * 1000)
        assert [(r.bucket_start, r.count) for r in rows] == [(b, c) for b, c, _ in want]
        for got, (_, _, result) in zip(rows, want):
            if fn is AggregationFunction.MEAN:
                assert close(got.result, result)
            else:
                assert got.result == result
        strings = sum(
            1
            for t in tuples
            if start <= t.timestamp < end and isinstance(t.attributes.get("v"), str)
        )
        assert s.diagnostics(REF).non_numeric_skipped - skipped == strings
        all_rows.append(rows)
    return all_rows


@pytest.mark.parametrize("seed", range(6))
def test_block_index_matches_scan_oracle(seed, tmp_path, monkeypatch):
    # Small blocks, so bucket ranges span full blocks plus both partial edges.
    monkeypatch.setattr(store_module, "BLOCK", 4)
    rng = random.Random(seed)
    horizon = 200_000
    first = _mixed_tuples(rng, 150, horizon, "a")
    second = _mixed_tuples(rng, 60, horizon, "b")
    queries = [(fn, 0, horizon, 200) for fn in AggregationFunction]
    for _ in range(30):
        # On the tuples' 500 ms grid, so bucket bounds hit equal timestamps.
        start = rng.randrange(0, horizon, 500)
        queries.append(
            (
                rng.choice(list(AggregationFunction)),
                start,
                rng.randrange(start, horizon + 60_000, 500),
                rng.randint(1, 90),
            )
        )
    root = tmp_path / "root"
    s = HistoricStore(root)
    s.register_series(REF)
    s.ingest(REF, first)
    _check_against_oracle(s, first, queries)
    # Interleaves with the first batch, after queries have built the index.
    s.ingest(REF, second)
    rows = _check_against_oracle(s, first + second, queries)
    assert s.diagnostics(REF).tuples == 210
    s.close()
    reopened = HistoricStore(root)
    assert _check_against_oracle(reopened, first + second, queries) == rows
    reopened.close()


def _count_summaries(monkeypatch) -> list:
    """The blocks refresh summarizes from now on: it takes the min of each,
    and MEAN and MAX queries take no other min of an array."""
    summarized = []

    def counting_min(*args):
        if len(args) == 1 and isinstance(args[0], array):
            summarized.append(args[0])
        return builtins.min(*args)

    monkeypatch.setattr(store_module, "min", counting_min, raising=False)
    return summarized


def test_in_order_ingest_summarizes_only_new_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "BLOCK", 4)
    summarized = _count_summaries(monkeypatch)
    rng = random.Random(3)
    s = HistoricStore(tmp_path / "root")
    s.register_series(REF)
    tuples = []
    top = 0
    for i in range(120):
        out_of_order = i % 40 == 39
        if out_of_order:
            ts = rng.randrange(0, top)
        else:
            ts = top = top + rng.choice([0, 500, 1_000])
        t = StreamTuple(ts, {"v": rng.choice([rng.uniform(-1e3, 1e3), "n/a"])}, str(i))
        tuples.append(t)
        s.ingest(REF, [t])
        summarized.clear()
        fn = rng.choice([AggregationFunction.MEAN, AggregationFunction.MAX])
        _check_against_oracle(s, tuples, [(fn, 0, top + 1_000, rng.randint(1, 30))])
        if not out_of_order:
            assert len(summarized) <= 1
    s.close()


def test_checkpoint_open_decodes_nothing(tmp_path, monkeypatch):
    root = tmp_path / "root"
    s = HistoricStore(root)
    s.register_series(REF)
    tuples = _mixed_tuples(random.Random(5), 300, 200_000, "a")
    s.ingest(REF, tuples)
    queries = [(fn, 0, 200_000, 7) for fn in AggregationFunction] + [
        (AggregationFunction.MEAN, 13_500, 150_000, 60)
    ]
    before = _check_against_oracle(s, tuples, queries)
    shape = (s.time_range(REF), s.attributes(REF), s.diagnostics(REF))
    s.close()
    assert (root / REF.provider / REF.database / REF.series / CHECKPOINT).is_file()

    def no_decode(line):
        raise AssertionError(f"decoded a segment line: {line}")

    monkeypatch.setattr(store_module, "decode_tuple", no_decode)
    reopened = HistoricStore(root)
    assert _check_against_oracle(reopened, tuples, queries) == before
    assert (reopened.time_range(REF), reopened.attributes(REF), reopened.diagnostics(REF)) == shape
    monkeypatch.undo()
    # The first ingest builds the deduplication keys from the log.
    assert reopened.ingest(REF, tuples) == 0
    assert reopened.ingest(REF, [_t(1, 1.0, src="new")]) == 1
    assert reopened.diagnostics(REF).duplicates_ignored == len(tuples)
    reopened.close()


def test_checkpoint_open_summarizes_no_block(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "BLOCK", 4)
    root = tmp_path / "root"
    tuples = _mixed_tuples(random.Random(11), 300, 200_000, "a")
    s = HistoricStore(root)
    s.register_series(REF)
    s.ingest(REF, tuples)
    numeric = len(s._series[REF].columns["v"].values)
    s.close()
    summarized = _count_summaries(monkeypatch)
    queries = [
        (AggregationFunction.MEAN, 0, 200_000, 7),
        (AggregationFunction.MAX, 13_500, 150_000, 60),
    ]
    rows = []
    for source in ("checkpoint", "log"):
        if source == "log":
            (root / REF.provider / REF.database / REF.series / CHECKPOINT).unlink()
        reopened = HistoricStore(root)
        summarized.clear()
        rows.append(repr(_check_against_oracle(reopened, tuples, queries)))
        # Only a log-decoded open summarizes every full block first.
        assert len(summarized) == (numeric // 4 if source == "log" else 0)
        reopened.close()
    assert rows[0] == rows[1]


@pytest.mark.parametrize("seed", range(4))
def test_checkpointed_summaries_equal_a_fresh_refresh(seed, tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "BLOCK", 4)
    rng = random.Random(seed)
    root = tmp_path / "root"
    tuples = []
    # Out-of-order batches land below top, in-order ones after every stored tuple.
    top = 50_000
    for session in range(2):
        s = HistoricStore(root)
        s.register_series(REF)
        for b in range(rng.randint(1, 4)):
            batch = _mixed_tuples(rng, rng.randint(1, 60), 50_000, f"{session}.{b}.")
            if rng.random() < 0.6:
                batch.sort(key=lambda t: t.timestamp)
                batch = [StreamTuple(top + t.timestamp, t.attributes, t.source_id) for t in batch]
                top = batch[-1].timestamp
            s.ingest(REF, batch)
            tuples += batch
            if rng.random() < 0.5:
                # Summarizes part of the columns before the close summarizes the rest.
                _check_against_oracle(s, tuples, [(AggregationFunction.MEAN, 0, top, 30)])
        s.close()
    loaded = HistoricStore(root)
    (root / REF.provider / REF.database / REF.series / CHECKPOINT).unlink()
    decoded = HistoricStore(root)
    got, want = loaded._series[REF], decoded._series[REF]
    assert got.columns.keys() == want.columns.keys()
    for name, column in want.columns.items():
        column.refresh(want)
        for a in ("ts", "values", "other_ts", "sums", "mins", "maxs"):
            assert getattr(got.columns[name], a) == getattr(column, a), (name, a)
    queries = [(fn, 0, top + 1, 40) for fn in AggregationFunction]
    queries += [(fn, 12_000, top // 2, 7) for fn in AggregationFunction]
    assert repr(_check_against_oracle(loaded, tuples, queries)) == repr(
        _check_against_oracle(decoded, tuples, queries)
    )
    assert loaded.diagnostics(REF) == decoded.diagnostics(REF)
    loaded.close()
    decoded.close()


@pytest.mark.parametrize("written", ["block", "version"])
def test_checkpoint_of_another_format_is_ignored(written, tmp_path, monkeypatch):
    # 30 values fill one block of 16 and one block of 17, so the payload has
    # the same length under either BLOCK, and only the header tells them apart.
    version = store_module.CHECKPOINT_VERSION
    monkeypatch.setattr(store_module, "BLOCK", 16)
    monkeypatch.setattr(store_module, "CHECKPOINT_VERSION", 1 if written == "version" else version)
    root = tmp_path / "root"
    tuples = [_t(k * 1_000, float(k)) for k in range(30)]
    s = HistoricStore(root)
    s.register_series(REF)
    s.ingest(REF, tuples)
    s.close()
    monkeypatch.setattr(store_module, "BLOCK", 17 if written == "block" else 16)
    monkeypatch.setattr(store_module, "CHECKPOINT_VERSION", version)
    decoded = []
    real_decode = store_module.decode_tuple

    def counted(line):
        decoded.append(line)
        return real_decode(line)

    monkeypatch.setattr(store_module, "decode_tuple", counted)
    queries = [(fn, 0, 30_000, w) for fn in AggregationFunction for w in (17, 30)]
    reopened = HistoricStore(root)
    assert len(decoded) == len(tuples)
    rows = repr(_check_against_oracle(reopened, tuples, queries))
    # An ingest that adds nothing still rewrites the checkpoint in this format.
    assert reopened.ingest(REF, tuples) == 0
    reopened.close()
    decoded.clear()
    again = HistoricStore(root)
    assert decoded == []
    assert repr(_check_against_oracle(again, tuples, queries)) == rows
    again.close()


@pytest.mark.parametrize("damage", ["none", "missing", "flipped", "truncated", "stale"])
def test_reopen_identical_whatever_the_checkpoint(tmp_path, damage):
    root = tmp_path / "root"
    s = HistoricStore(root)
    s.register_series(REF)
    tuples = _mixed_tuples(random.Random(9), 200, 200_000, "a")
    s.ingest(REF, tuples[:150])
    s.close()
    s = HistoricStore(root)
    s.ingest(REF, tuples[150:])
    s.close()
    directory = root / REF.provider / REF.database / REF.series
    checkpoint = directory / CHECKPOINT
    data = checkpoint.read_bytes()
    if damage == "missing":
        checkpoint.unlink()
    elif damage == "flipped":
        checkpoint.write_bytes(data[:-100] + bytes([data[-100] ^ 1]) + data[-99:])
    elif damage == "truncated":
        checkpoint.write_bytes(data[: len(data) // 2])
    torn = damage == "stale"
    if torn:
        # The first line torn in place after close: same size, other bytes.
        segment = min(directory.glob("*.ndjson"))
        segment.write_text(segment.read_text().replace("}\n", " \n", 1))
    reopened = HistoricStore(root)
    kept = tuples[torn:]
    _check_against_oracle(reopened, kept, [(fn, 0, 200_000, 9) for fn in AggregationFunction])
    d = reopened.diagnostics(REF)
    assert (d.tuples, d.duplicates_ignored, d.bad_lines) == (len(kept), 0, int(torn))
    assert reopened.ingest(REF, tuples) == int(torn)
    reopened.close()


def test_duplicate_log_line_counts_the_same_from_a_checkpoint(tmp_path, monkeypatch):
    root = tmp_path / "root"
    s = HistoricStore(root)
    s.register_series(REF)
    s.ingest(REF, [_t(0, 1.0), _t(1_000, 2.0)])
    s.close()
    (segment,) = (root / REF.provider / REF.database / REF.series).glob("*.ndjson")
    with open(segment, "a", encoding="utf-8") as f:
        f.write(segment.read_text().splitlines()[0] + "\n")
    s = HistoricStore(root)
    assert s.diagnostics(REF) == SeriesDiagnostics(2, 1, 0, 0)
    s.ingest(REF, [_t(2_000, 3.0)])
    s.close()
    monkeypatch.setattr(store_module, "decode_tuple", None)
    reopened = HistoricStore(root)
    assert reopened.diagnostics(REF) == SeriesDiagnostics(3, 1, 0, 0)
    reopened.close()


def test_ingest_that_stops_part_way_writes_no_checkpoint(tmp_path, monkeypatch):
    root = tmp_path / "root"
    s = HistoricStore(root)
    s.register_series(REF)
    s.ingest(REF, [_t(0, 1.0)])

    def full_disk(t):
        raise OSError("no space left on device")

    monkeypatch.setattr(store_module, "encode_tuple", full_disk)
    with pytest.raises(OSError):
        s.ingest(REF, [_t(1_000, 2.0)])
    monkeypatch.undo()
    # The failed tuple is in memory but not in the log, so no checkpoint may
    # be written this session, even after a later ingest completes.
    s.ingest(REF, [_t(2_000, 3.0)])
    assert s.diagnostics(REF).tuples == 3
    s.close()
    assert not (root / REF.provider / REF.database / REF.series / CHECKPOINT).exists()
    reopened = HistoricStore(root)
    assert reopened.diagnostics(REF).tuples == 2
    reopened.close()


class _TearingWriter:
    """A segment writer that writes the first half of a line, then fails."""

    def __init__(self, f):
        self.f = f

    def write(self, line: bytes) -> None:
        self.f.write(line[: len(line) // 2])
        raise OSError("no space left on device")

    def flush(self) -> None:
        self.f.flush()

    def close(self) -> None:
        self.f.close()


@pytest.mark.parametrize("colliding", [False, True])
@pytest.mark.parametrize("failure", ["encode", "torn"])
def test_failed_write_keeps_every_later_locator(failure, colliding, tmp_path, monkeypatch):
    # The failed tuple's locator is the one the next line takes, so its index
    # entry must stop pointing there, and the next line must not follow a
    # partial one.
    if colliding:
        monkeypatch.setattr(store_module, "_key", _colliding_key)
    root = tmp_path / "root"
    # 3 s apart, so all three collide under _colliding_key.
    a, b, c = (_t(k * 3_000, float(k)) for k in range(3))
    s = HistoricStore(root)
    s.register_series(REF)
    assert s.ingest(REF, [a]) == 1
    with monkeypatch.context() as m:
        if failure == "encode":

            def full_disk(t):
                raise OSError("no space left on device")

            m.setattr(store_module, "encode_tuple", full_disk)
        else:
            series = s._series[REF]
            series.writer = _TearingWriter(series.writer)
        with pytest.raises(OSError):
            s.ingest(REF, [b])
    assert s.ingest(REF, [c]) == 1
    # b is in memory, not in the log; every stored line still confirms.
    assert s.ingest(REF, [b]) == 0
    assert s.ingest(REF, [c, a]) == 0
    assert s.diagnostics(REF).tuples == 3
    _check_against_oracle(s, [a, b, c], [(fn, 0, 9_000, 2) for fn in AggregationFunction])
    s.close()
    reopened = HistoricStore(root)
    d = reopened.diagnostics(REF)
    assert (d.tuples, d.bad_lines) == (2, int(failure == "torn"))
    assert reopened.ingest(REF, [a, b, c]) == 1
    reopened.close()


def _varied(ts: int) -> StreamTuple:
    """Tuples whose lines differ in length, so every offset is distinct."""
    attributes = {"v": ts / 7, "n": -ts * 10**ts, "s": "\u00e9\"" * ts, "\U0001f600": 0.1}
    return StreamTuple(ts, attributes, f"src{ts}")


def test_log_bytes_and_locators_across_a_rollover(tmp_path, monkeypatch):
    # Each confirm read seeks to a locator the ingest loop computed, so a
    # wrong offset or segment position fails dedupe and adds the tuple again.
    monkeypatch.setattr(store_module, "SEGMENT_MAX_TUPLES", 3)
    root = tmp_path / "root"
    directory = root / REF.provider / REF.database / REF.series
    tuples = [_varied(ts) for ts in range(10)]
    s = HistoricStore(root)
    s.register_series(REF)
    assert s.ingest(REF, tuples) == 10
    segments = sorted(directory.glob("*.ndjson"))
    assert [p.name for p in segments] == [f"{k:06d}.ndjson" for k in range(4)]
    log = b"".join(p.read_bytes() for p in segments)
    assert log == "".join(oracle_encode(t) + "\n" for t in tuples).encode()
    assert s.ingest(REF, tuples) == 0
    s.close()
    s = HistoricStore(root)
    assert s.ingest(REF, tuples) == 0
    more = [_varied(ts) for ts in range(10, 14)]
    assert s.ingest(REF, more) == 4
    assert s.ingest(REF, tuples + more) == 0
    assert s.diagnostics(REF).tuples == 14
    s.close()


def test_duplicate_only_ingest_writes_nothing(tmp_path, monkeypatch):
    root = tmp_path / "root"
    directory = root / REF.provider / REF.database / REF.series
    tuples = [_t(ts, float(ts)) for ts in range(0, 5_000, 1_000)]
    s = HistoricStore(root)
    s.register_series(REF)
    s.ingest(REF, tuples)
    s.close()
    calls = []
    real = store_module.encode_tuple

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(store_module, "encode_tuple", counted)
    s = HistoricStore(root)
    segments = sorted(directory.glob("*.ndjson"))
    assert s.ingest(REF, tuples) == 0
    assert sorted(directory.glob("*.ndjson")) == segments
    assert calls == []
    new = [_t(ts, 1.0) for ts in range(10_000, 13_000, 1_000)]
    assert s.ingest(REF, tuples + new) == 3
    assert calls == new
    s.close()


def test_crc_of_a_file_read_in_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "CRC_CHUNK", 64)
    path = tmp_path / "segment"
    data = bytes(random.Random(2).randrange(256) for _ in range(1_000))
    for size in (0, 64, 1_000):
        path.write_bytes(data[:size])
        assert store_module._crc(path) == zlib.crc32(data[:size])


def test_close_checksums_only_the_segments_this_session_wrote(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "SEGMENT_MAX_TUPLES", 4)
    root = tmp_path / "root"
    tuples = [_t(ts, float(ts)) for ts in range(0, 10_000, 1_000)]
    s = HistoricStore(root)
    s.register_series(REF)
    s.ingest(REF, tuples)
    s.close()
    reopened = HistoricStore(root)
    checksummed = []
    real = store_module._crc

    def counted(path):
        checksummed.append(path.name)
        return real(path)

    monkeypatch.setattr(store_module, "_crc", counted)
    tuples.append(_t(20_000, 1.0))
    assert reopened.ingest(REF, tuples[-1:]) == 1
    queries = [(fn, 0, 21_000, 3) for fn in AggregationFunction]
    rows = _check_against_oracle(reopened, tuples, queries)
    reopened.close()
    # Three segments verified at open keep their crc32; only the new one is read.
    assert checksummed == ["000003.ndjson"]

    def no_decode(line):
        raise AssertionError(f"decoded a segment line: {line}")

    monkeypatch.setattr(store_module, "decode_tuple", no_decode)
    again = HistoricStore(root)
    assert _check_against_oracle(again, tuples, queries) == rows
    assert again.diagnostics(REF) == SeriesDiagnostics(11, 0, 0, 0)
    again.close()


# -- hash collisions -----------------------------------------------------------


class _CollidingKey:
    """A deduplication key equal exactly when the real one is, whose hash
    takes only three values, so distinct tuples collide all the time."""

    __slots__ = ("key",)

    def __init__(self, key: tuple):
        self.key = key

    def __hash__(self) -> int:
        return self.key[0] // 1_000 % 3

    def __eq__(self, other) -> bool:
        return isinstance(other, _CollidingKey) and self.key == other.key


def _colliding_key(t: StreamTuple, real=store_module._key) -> _CollidingKey:
    return _CollidingKey(real(t))


def test_colliding_hashes_keep_dedupe_exact(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "_key", _colliding_key)
    root = tmp_path / "root"
    tuples = [
        StreamTuple(k * 1_000, {"v": k % 5, "w": 1.0}, src) for k in range(40) for src in "ab"
    ]
    twins = [_float_twin(t) for t in tuples]
    queries = [(fn, 0, 40_000, 7) for fn in AggregationFunction]
    s = HistoricStore(root)
    s.register_series(REF)
    assert s.ingest(REF, tuples[::2]) == 40
    assert s.ingest(REF, tuples) == 40
    assert s.ingest(REF, twins) == 0
    assert s.diagnostics(REF) == SeriesDiagnostics(80, 40 + 80, 0, 0)
    _check_against_oracle(s, tuples, queries)
    s.close()
    directory = root / REF.provider / REF.database / REF.series
    for source in ("checkpoint", "log"):
        if source == "log":
            (directory / CHECKPOINT).unlink()
        s = HistoricStore(root)
        assert s.diagnostics(REF) == SeriesDiagnostics(len(tuples), 0, 0, 0)
        assert s.ingest(REF, twins + tuples) == 0
        new = [StreamTuple(k * 1_000, {"v": 9}, source) for k in range(3)]
        assert s.ingest(REF, new) == 3
        assert s.diagnostics(REF) == SeriesDiagnostics(len(tuples) + 3, 2 * len(tuples), 0, 0)
        tuples += new
        twins += [_float_twin(t) for t in new]
        _check_against_oracle(s, tuples, queries)
        s.close()


# -- stateful model of a store root --------------------------------------------

GRID = 1_000
_VALUES = st.sampled_from([1, 1.0, 2, 2.5, -3, -3.0, "n/a", 10**400]) | st.floats(-1e3, 1e3)


@st.composite
def _tuples(draw):
    items = [(name, draw(_VALUES)) for name in ("v", "w") if draw(st.booleans())]
    if draw(st.booleans()):
        items.reverse()
    ts = draw(st.integers(0, 40)) * GRID
    return StreamTuple(ts, dict(items or [("w", 1.0)]), draw(st.sampled_from(["", "a"])))


def _float_twin(t: StreamTuple) -> StreamTuple:
    """A duplicate of ``t`` under the store's key: 1.0 for 1, attributes reversed."""
    attrs = {
        k: float(v) if isinstance(v, int) and is_numeric_value(v) else v
        for k, v in reversed(t.attributes.items())
    }
    return StreamTuple(t.timestamp, attrs, t.source_id)


class StoreMachine(RuleBasedStateMachine):
    """A rooted store ingested into, queried, and closed and reopened with its
    last segment line torn or its checkpoint damaged in between, checked
    against a naive model: the distinct tuples the log holds, in ingest
    order, and the session's counters."""

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp())
        self.directory = self.root / REF.provider / REF.database / REF.series
        self.store = HistoricStore(self.root)
        self.store.register_series(REF)
        self.tuples: list[StreamTuple] = []
        self.bad_lines = self.duplicates = self.skipped = 0

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.root, ignore_errors=True)

    @rule(batch=st.lists(_tuples(), max_size=8))
    def ingest(self, batch):
        new = 0
        for t in batch:
            if t in self.tuples:
                self.duplicates += 1
            else:
                self.tuples.append(t)
                new += 1
        assert self.store.ingest(REF, batch) == new

    @precondition(lambda self: self.tuples)
    @rule(data=st.data())
    def ingest_duplicates(self, data):
        picks = data.draw(st.lists(st.sampled_from(self.tuples), min_size=1, max_size=4))
        self.duplicates += len(picks)
        assert self.store.ingest(REF, [_float_twin(t) for t in picks]) == 0

    @rule(
        fn=st.sampled_from(AggregationFunction),
        start=st.integers(0, 44),
        span=st.integers(0, 44),
        width=st.integers(1, 20),
    )
    def query(self, fn, start, span, width):
        self._query(fn, start, start + span, width)

    def _query(self, fn, start_s, end_s, width_s):
        start, end = start_s * GRID, end_s * GRID
        q = _q(fn, start, end, width_s, unit=TimeUnit.SECONDS)
        if self.tuples and not any(is_numeric_value(t.attributes.get("v")) for t in self.tuples):
            with pytest.raises(AttributeTypeError):
                self.store.query_to_historic(REF, q)
            return
        rows = self.store.query_to_historic(REF, q)
        want = scan_group_rows(self.tuples, fn, "v", start, end, width_s * GRID)
        assert [(r.bucket_start, r.count) for r in rows] == [(b, c) for b, c, _ in want]
        for got, (_, _, result) in zip(rows, want):
            if fn is AggregationFunction.MEAN:
                assert close(got.result, result)
            else:
                assert got.result == result
        if end > start:
            self.skipped += sum(
                1
                for t in self.tuples
                if start <= t.timestamp < end
                and "v" in t.attributes
                and not is_numeric_value(t.attributes["v"])
            )

    @rule(
        damage=st.sampled_from(
            [
                "none",
                "truncate line",
                "tear line",
                "flip checkpoint",
                "cut checkpoint",
                "delete checkpoint",
            ]
        ),
        at=st.floats(0, 1),
    )
    def reopen(self, damage, at):
        self.store.close()
        segments = sorted(self.directory.glob("*.ndjson"))
        checkpoint = self.directory / CHECKPOINT
        if damage in ("truncate line", "tear line") and segments:
            data = segments[-1].read_bytes()
            if data.endswith(b"}\n"):
                # The last intact line of the last segment is the latest
                # tuple the log accepted. Tearing it in place keeps the size.
                torn = data[:-2] if damage == "truncate line" else data[:-2] + b" \n"
                segments[-1].write_bytes(torn)
                self.tuples.pop()
                self.bad_lines += 1
        elif damage.endswith("checkpoint") and checkpoint.exists():
            data = checkpoint.read_bytes()
            i = int(at * (len(data) - 1))
            if damage == "flip checkpoint":
                # A checkpoint already cut to nothing has no byte to flip.
                flipped = bytes([data[i] ^ 0xFF]) if data else b""
                checkpoint.write_bytes(data[:i] + flipped + data[i + 1 :])
            elif damage == "cut checkpoint":
                checkpoint.write_bytes(data[:i])
            else:
                checkpoint.unlink()
        self.store = HistoricStore(self.root)
        self.duplicates = self.skipped = 0
        times = [t.timestamp for t in self.tuples]
        assert self.store.time_range(REF) == ((min(times), max(times)) if times else None)
        assert self.store.attributes(REF) == {
            k for t in self.tuples for k, v in t.attributes.items() if is_numeric_value(v)
        }
        for fn in AggregationFunction:
            self._query(fn, 0, 45, 7)

    @invariant()
    def diagnostics_match(self):
        assert self.store.diagnostics(REF) == SeriesDiagnostics(
            len(self.tuples), self.duplicates, self.skipped, self.bad_lines
        )


StoreMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=20, deadline=None)
test_store_machine = StoreMachine.TestCase


class CollidingStoreMachine(StoreMachine):
    """StoreMachine with every deduplication hash colliding three ways."""

    def __init__(self):
        self.real_key = store_module._key
        store_module._key = _colliding_key
        super().__init__()

    def teardown(self):
        try:
            super().teardown()
        finally:
            store_module._key = self.real_key


CollidingStoreMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)
test_store_machine_with_colliding_hashes = CollidingStoreMachine.TestCase


# -- the time-ordered run ------------------------------------------------------


def _indexed(series) -> tuple[list[int], int]:
    """The run's timestamps and how many locators the dict holds."""
    in_dict = sum(len(v) if type(v) is list else 1 for v in series.index.values())
    return list(series.run_ts), in_dict


def test_run_holds_in_order_rows_and_the_dict_the_rest(tmp_path):
    s = HistoricStore(tmp_path / "root")
    s.register_series(REF)
    assert s.ingest(REF, [_t(ts, 1.0) for ts in range(0, 50_000, 1_000)]) == 50
    series = s._series[REF]
    assert _indexed(series) == (list(range(0, 50_000, 1_000)), 0)
    tied = [_t(49_000, 2.0), _t(49_000, 1.0, src="b")]
    late = [_t(500, 1.0), _t(0, 3.0)]
    assert s.ingest(REF, tied + late) == 4
    assert s.ingest(REF, [_t(60_000, 1.0), _t(60_000, 2.0)]) == 2
    assert _indexed(series) == (list(range(0, 50_000, 1_000)) + [60_000], 5)
    assert s.ingest(REF, [_float_twin(t) for t in tied + late]) == 0
    assert s.ingest(REF, [_t(ts, 1.0) for ts in [*range(0, 50_000, 1_000), 60_000]]) == 0
    assert s.diagnostics(REF) == SeriesDiagnostics(56, 4 + 51, 0, 0)
    s.close()


@pytest.mark.parametrize("colliding", [False, True])
def test_failed_write_of_the_runs_last_row(colliding, tmp_path, monkeypatch):
    # b is the run's last row when its write fails, so it moves to the dict,
    # and a retry at its timestamp must still find it there.
    if colliding:
        monkeypatch.setattr(store_module, "_key", _colliding_key)
    root = tmp_path / "root"
    # 3 s apart, so under _colliding_key every one shares one hash.
    a, tied, b, other = _t(0, 0.0), _t(0, 5.0), _t(3_000, 1.0), _t(3_000, 2.0)
    s = HistoricStore(root)
    s.register_series(REF)
    assert s.ingest(REF, [a, tied]) == 2
    with monkeypatch.context() as m:

        def full_disk(t):
            raise OSError("no space left on device")

        m.setattr(store_module, "encode_tuple", full_disk)
        with pytest.raises(OSError):
            s.ingest(REF, [b])
    assert list(s._series[REF].run_ts) == [0]
    assert s.ingest(REF, [b]) == 0
    assert s.ingest(REF, [other]) == 1
    assert s.ingest(REF, [_float_twin(t) for t in (a, tied, b, other)]) == 0
    assert s.diagnostics(REF) == SeriesDiagnostics(4, 5, 0, 0)
    _check_against_oracle(s, [a, tied, b, other], [(fn, 0, 6_000, 2) for fn in AggregationFunction])
    s.close()
    reopened = HistoricStore(root)
    assert reopened.diagnostics(REF).tuples == 3
    assert reopened.ingest(REF, [a, tied, b, other]) == 1
    reopened.close()


_RUN_VALUES = st.sampled_from([1, 1.0, 2, 2.5, -3, -3.0]) | st.floats(-1e3, 1e3)


@st.composite
def _sessions(draw):
    """Two sessions' batches: tuples after, at or before the newest timestamp
    so far, and repeats of earlier tuples as they are or as float twins."""
    drawn: list[StreamTuple] = []
    top = 0
    sessions = []
    for _ in range(2):
        batches = []
        for _ in range(draw(st.integers(1, 4))):
            batch = []
            for _ in range(draw(st.integers(0, 10))):
                kind = draw(st.sampled_from(["next", "next", "tied", "late", "repeat", "twin"]))
                if kind in ("repeat", "twin") and drawn:
                    t = draw(st.sampled_from(drawn))
                    batch.append(t if kind == "repeat" else _float_twin(t))
                    continue
                if kind == "next":
                    top += draw(st.integers(1, 3)) * GRID
                ts = draw(st.integers(0, top // GRID)) * GRID if kind == "late" else top
                attrs = {"v": draw(_RUN_VALUES)}
                if draw(st.booleans()):
                    attrs["w"] = draw(st.sampled_from([1, "n/a"]))
                t = StreamTuple(ts, attrs, draw(st.sampled_from(["", "a"])))
                drawn.append(t)
                batch.append(t)
            batches.append(batch)
        sessions.append(batches)
    return sessions


@settings(max_examples=80, deadline=None)
@given(sessions=_sessions(), colliding=st.booleans())
def test_run_and_dict_dedupe_like_a_set_of_keys(sessions, colliding):
    real_key = store_module._key
    if colliding:
        store_module._key = _colliding_key
    root = Path(tempfile.mkdtemp())
    try:
        stored: list[StreamTuple] = []
        keys = set()
        for batches in sessions:
            s = HistoricStore(root)
            s.register_series(REF)
            duplicates = 0
            for batch in batches:
                new = 0
                for t in batch:
                    key = (t.timestamp, t.source_id, frozenset(t.attributes.items()))
                    if key in keys:
                        duplicates += 1
                    else:
                        keys.add(key)
                        stored.append(t)
                        new += 1
                assert s.ingest(REF, batch) == new
            assert s.diagnostics(REF) == SeriesDiagnostics(len(stored), duplicates, 0, 0)
            run_ts = s._series[REF].run_ts
            assert all(x < y for x, y in zip(run_ts, run_ts[1:]))
            if stored:
                top = max(t.timestamp for t in stored) + GRID
                _check_against_oracle(s, stored, [(fn, 0, top, 2) for fn in AggregationFunction])
            s.close()
    finally:
        store_module._key = real_key
        shutil.rmtree(root, ignore_errors=True)


def test_in_order_ingest_retains_under_80_bytes_a_tuple(tmp_path, retained_bytes_per_item):
    # Aim 3: an in-order history costs its columns (16 B per numeric
    # attribute) plus 24 B of run per tuple, with no per-tuple object.
    n = 50_000
    tuples = [StreamTuple(i * 1_000, {"v": i / 7, "w": i % 7}, "") for i in range(n)]
    s = HistoricStore(tmp_path / "root")
    s.register_series(REF)
    ingested, per_tuple = retained_bytes_per_item(lambda: s.ingest(REF, tuples), n)
    s.close()
    assert ingested == n
    assert per_tuple <= 80
