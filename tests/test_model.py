import dataclasses
import json
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from conflux import model
from conflux.broker import Broker, QueueConfig
from conflux.model import (
    MAX_MILLIS,
    AggregateRow,
    Interval,
    StreamTuple,
    TimeUnit,
    TupleDecodeError,
    decode_tuple,
    encode_tuple,
    is_numeric_value,
    to_millis,
)
from oracle import encode_tuple as oracle_encode


def test_time_unit_millis():
    assert TimeUnit.SECONDS.millis == 1_000
    assert TimeUnit.MINUTES.millis == 60_000
    assert TimeUnit.HOURS.millis == 3_600_000
    assert TimeUnit.DAYS.millis == 86_400_000


def test_to_millis():
    assert to_millis(0, TimeUnit.SECONDS) == 0
    assert to_millis(8, TimeUnit.MINUTES) == 480_000
    assert to_millis(120, TimeUnit.DAYS) == 10_368_000_000


def test_to_millis_rejects_negative():
    with pytest.raises(ValueError):
        to_millis(-1, TimeUnit.SECONDS)


def test_to_millis_overflow():
    with pytest.raises(OverflowError):
        to_millis(MAX_MILLIS, TimeUnit.DAYS)


def test_is_numeric_value():
    assert is_numeric_value(3)
    assert is_numeric_value(3.5)
    assert not is_numeric_value(True)
    assert not is_numeric_value("3")
    assert not is_numeric_value(None)
    assert is_numeric_value(2**1000)
    assert not is_numeric_value(10**400)
    assert not is_numeric_value(float("nan"))
    assert not is_numeric_value(float("inf"))


def test_interval_basic():
    iv = Interval(10, 20)
    assert (iv.start, iv.end) == (10, 20)


def test_interval_allows_negative_start():
    # Windows may reach back past the epoch; only ordering is enforced.
    iv = Interval(-100, 0)
    assert (iv.start, iv.end) == (-100, 0)


def test_interval_rejects_inverted():
    with pytest.raises(ValueError):
        Interval(5, 4)


def test_stream_tuple_validation():
    t = StreamTuple(timestamp=5, attributes={"v": 1.0}, source_id="a")
    assert t.attributes["v"] == 1.0
    # Too large for a float, yet still writable as JSON.
    assert StreamTuple(timestamp=5, attributes={"v": 10**400}).attributes["v"] == 10**400
    with pytest.raises(ValueError):
        StreamTuple(timestamp=-1, attributes={"v": 1.0})
    with pytest.raises(ValueError):
        StreamTuple(timestamp=True, attributes={"v": 1.0})
    for ts, attributes, src in (
        (5, {}, ""),
        (5, {"v": True}, ""),
        (5, {"v": None}, ""),
        (5, {"v": [1]}, ""),
        (5, {"v": float("nan")}, ""),
        (5, {"v": float("inf")}, ""),
        (5, {"v": float("-inf")}, ""),
        (5, {1: 1.0}, ""),
        (5, {"v": 1.0}, 5),
        (5, {"v": 1.0}, None),
        (5, {"ts": 9, "v": 2.0}, ""),
        (5, {"src": "b", "v": 2.0}, ""),
        (5, {"v": 10**5000}, ""),  # more digits than int-to-str allows
    ):
        with pytest.raises(ValueError):
            StreamTuple(timestamp=ts, attributes=attributes, source_id=src)


def test_aggregate_row_result_presence():
    AggregateRow(0, 0.0, None)
    AggregateRow(0, 2.0, 3.5)
    with pytest.raises(ValueError):
        AggregateRow(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        AggregateRow(0, 2.0, None)


def test_encode_decode_round_trip():
    t = StreamTuple(timestamp=1234, attributes={"a": 1.5, "b": "x"}, source_id="s1")
    assert decode_tuple(encode_tuple(t)) == t


def test_stream_tuple_is_slotted_and_frozen():
    t = StreamTuple(timestamp=1, attributes={"v": 2.0}, source_id="s")
    assert not hasattr(t, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.timestamp = 2
    assert dataclasses.replace(t, timestamp=2) == StreamTuple(2, {"v": 2.0}, "s")


def test_decoded_tuples_share_names_and_sources():
    originals = [
        StreamTuple(k, {"upload_speed": k / 3, "download_speed": k, "label": "x"}, "thing-7")
        for k in range(3)
    ]
    # The store hands decode_tuple bytes, the broker str.
    decoded = [decode_tuple(encode_tuple(originals[0]))]
    decoded += [decode_tuple(encode_tuple(t).encode()) for t in originals[1:]]
    assert decoded == originals
    assert [list(d.attributes) for d in decoded] == [list(t.attributes) for t in originals]
    first = decoded[0]
    for d in decoded[1:]:
        assert d.source_id is first.source_id
        assert all(a is b for a, b in zip(d.attributes, first.attributes))


def test_shared_name_table_stays_within_its_bound():
    for k in range(2 * model._SHARED_MAX + 3):
        t = decode_tuple(f'{{"ts":{k},"src":"thing-{k}","name-{k}":{k}}}')
        assert t == StreamTuple(k, {f"name-{k}": k}, f"thing-{k}")
        assert len(model._shared) <= model._SHARED_MAX
    wide = {f"wide-{k}": k for k in range(model._SHARED_MAX + 1)}
    assert decode_tuple(encode_tuple(StreamTuple(0, wide))).attributes == wide
    assert len(model._shared) <= model._SHARED_MAX


def test_encode_is_compact_single_line():
    line = encode_tuple(StreamTuple(timestamp=1, attributes={"v": 2.0}, source_id=""))
    assert "\n" not in line
    assert " " not in line
    assert json.loads(line)["ts"] == 1


def test_encode_rejects_non_finite():
    with pytest.raises(ValueError):
        encode_tuple(StreamTuple(timestamp=1, attributes={"v": float("inf")}))


def test_decode_rejects_malformed():
    for bad in (
        "not json",
        "[1,2]",
        '{"src":"a","v":1}',
        '{"ts":1.5,"v":1}',
        '{"ts":true,"v":1}',
        '{"ts":1,"src":"a"}',
        '{"ts":1,"src":"a","v":[1]}',
        '{"ts":1,"src":"a","v":true}',
        '{"ts":1,"src":2,"v":1}',
        "[" * 100_000,
        '{"ts":1,"v":' + "[" * 100_000 + "}",
    ):
        with pytest.raises(TupleDecodeError):
            decode_tuple(bad)


_attr_values = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(min_size=0, max_size=8),
)

_tuples = st.builds(
    StreamTuple,
    timestamp=st.integers(min_value=0, max_value=MAX_MILLIS),
    attributes=st.dictionaries(
        st.text(st.characters(whitelist_categories=("Ll",), max_codepoint=0x7F), min_size=1, max_size=6).filter(
            lambda k: k not in ("ts", "src")
        ),
        _attr_values,
        min_size=1,
        max_size=4,
    ),
    source_id=st.text(max_size=6),
)


@given(_tuples)
def test_tuple_codec_round_trip(t):
    assert decode_tuple(encode_tuple(t)) == t


class _Int(int):
    def __repr__(self):
        return "not an int"


class _Float(float):
    def __repr__(self):
        return "not a float"


class _Str(str):
    pass


# Every code point, lone surrogates included.
_unicode = st.text(st.characters(blacklist_categories=()), max_size=8)
_int_limit = 10 ** sys.get_int_max_str_digits() - 1
_oracle_values = st.one_of(
    st.integers(),
    st.integers(min_value=-_int_limit, max_value=_int_limit),
    st.sampled_from([_int_limit, -_int_limit, 0, -1, 2**63]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1, sys.float_info.max, -sys.float_info.max]),
    _unicode,
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\ud800", "\udfff\ud800", "\U0001f600", "\u2028"]),
    st.builds(_Int, st.integers()),
    st.builds(_Float, st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(_Str, _unicode),
)


@settings(max_examples=300, deadline=None)
@given(
    timestamp=st.integers(min_value=0, max_value=MAX_MILLIS),
    attributes=st.dictionaries(
        _unicode.filter(lambda k: k not in ("ts", "src")), _oracle_values, min_size=1, max_size=4
    ),
    source_id=_unicode,
)
def test_encode_equals_json_dumps(timestamp, attributes, source_id):
    """The hand-built line is byte-identical to the json.dumps oracle."""
    t = StreamTuple(timestamp, attributes, source_id)
    assert encode_tuple(t) == oracle_encode(t)


_any_values = st.one_of(
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.one_of(st.booleans(), st.none(), st.lists(st.integers(), max_size=2)),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    timestamp=st.integers(min_value=0, max_value=MAX_MILLIS),
    attributes=st.dictionaries(
        st.one_of(st.text(max_size=4), st.text("ab", max_size=2), st.sampled_from(["ts", "src"])),
        _any_values,
        min_size=1,
        max_size=2,
    ),
    source_id=st.text(max_size=4),
)
def test_type_and_layers_agree(timestamp, attributes, source_id):
    """Every tuple the type accepts survives the codec and a spilling queue."""
    try:
        t = StreamTuple(timestamp, attributes, source_id)
    except ValueError:
        reject()
    back = decode_tuple(encode_tuple(t))
    assert back == t
    assert encode_tuple(back) == encode_tuple(t)  # same order, same int/float types
    with tempfile.TemporaryDirectory() as root:
        broker = Broker(root)
        try:
            queue = broker.declare_queue(QueueConfig("q", memory_capacity=1))
            queue.publish_many([t, t, t])
            drained = broker.subscribe(queue).drain()
            stats = queue.stats()
        finally:
            broker.shutdown()
    assert [encode_tuple(d) for d in drained] == [encode_tuple(t)] * 3
    assert stats.published == stats.delivered == 3
