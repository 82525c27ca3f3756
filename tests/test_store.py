import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflux import store as store_module
from conflux.model import StreamTuple, TimeUnit
from conflux.query import AggregationFunction
from conflux.store import (
    AttributeTypeError,
    ClosedConnectionError,
    HistoricQuery,
    HistoricStore,
    SeriesRef,
    StoreError,
    UnknownSeriesError,
)

from oracle import close, scan_group_rows

REF = SeriesRef("influxdb", "testdb", "s1")


def _t(ts: int, v, src: str = "") -> StreamTuple:
    return StreamTuple(timestamp=ts, attributes={"v": v}, source_id=src)


def _q(fn, start, end, n, unit=TimeUnit.MINUTES, value="v"):
    return HistoricQuery(
        function=fn, value=value, start=start, end=end, group_by_number=n, group_by_unit=unit
    )


@pytest.fixture
def store(mem_store):
    mem_store.register_series(REF)
    return mem_store


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


def test_ingest_unknown_series(mem_store):
    with pytest.raises(UnknownSeriesError):
        mem_store.ingest(SeriesRef("influxdb", "nope", "nope"), [_t(0, 1.0)])


def test_register_unknown_provider(mem_store):
    with pytest.raises(UnknownSeriesError):
        mem_store.register_series(SeriesRef("mongo", "db", "s"))


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


def test_open_connection_unknown_series(mem_store):
    with pytest.raises(UnknownSeriesError):
        mem_store.open_connection(SeriesRef("influxdb", "x", "y"))


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
    store = HistoricStore(None)
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
