"""Tuple-oriented stream data model shared by every other module.

A stream is an unbounded sequence of tuples; each tuple is a timestamped set
of attribute-value pairs produced by some source (a "thing", a replayed log,
or an upstream operator). Timestamps are integer milliseconds since the UTC
Unix epoch. Time buckets and window extents are half-open intervals
[start, end), which makes equal-width buckets an exact partition of the
timeline.

All types in this module are immutable after construction and safe to hand
between threads.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass
from typing import Union

# Epoch-millisecond timestamps are kept within signed 64-bit range so they
# stay interoperable with stores and wire formats that use a long.
MAX_MILLIS = 2**63 - 1

Value = Union[int, float, str]

# Reserved keys of the NDJSON wire encoding; every other key is an attribute.
RESERVED_KEYS = frozenset({"ts", "src"})


class TimeUnit(enum.Enum):
    """Time units accepted by the query language and the store."""

    SECONDS = "seconds"
    MINUTES = "minutes"
    HOURS = "hours"
    DAYS = "days"

    @property
    def millis(self) -> int:
        return _UNIT_MILLIS[self]


_UNIT_MILLIS = {
    TimeUnit.SECONDS: 1_000,
    TimeUnit.MINUTES: 60_000,
    TimeUnit.HOURS: 3_600_000,
    TimeUnit.DAYS: 86_400_000,
}


def to_millis(n: int, unit: TimeUnit) -> int:
    """Convert ``n`` units to milliseconds.

    Raises OverflowError if the product exceeds the representable timestamp
    range instead of silently wrapping.
    """
    if n < 0:
        raise ValueError(f"duration must be non-negative, got {n}")
    result = n * unit.millis
    if result > MAX_MILLIS:
        raise OverflowError(f"{n} {unit.value} exceeds the representable range")
    return result


def is_numeric_value(v: Value) -> bool:
    """True for values aggregation functions accept: an int (not bool) or a
    float that converts to a finite float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class Interval:
    """Half-open time interval [start, end) in epoch milliseconds."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} exceeds end {self.end}")


def _too_many_digits(v: int) -> bool:
    """True if ``str(v)`` would exceed the interpreter's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    # An int of more than `limit` digits has more than 3 * limit bits, so the
    # bit length screens out every ordinary int before any power is built.
    return limit > 0 and v.bit_length() > 3 * limit and abs(v) >= 10**limit


@dataclass(frozen=True)
class StreamTuple:
    """One timestamped observation: source id plus attribute-value pairs.

    This type is the one place a tuple is validated; construction raises
    ValueError unless:

    * the timestamp is an int (not bool) in [0, MAX_MILLIS];
    * the source id is a str;
    * there is at least one attribute;
    * every attribute name is a str outside RESERVED_KEYS;
    * every value is an int (not bool) that ``str`` can convert, a str or a
      finite float.

    So every tuple that exists round-trips unchanged through the NDJSON
    codec, a spilling broker queue and the store. Attribute order is
    preserved by the codec.
    """

    timestamp: int
    attributes: dict[str, Value]
    source_id: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.timestamp, int) or isinstance(self.timestamp, bool):
            raise ValueError(f"timestamp must be an integer, got {self.timestamp!r}")
        if self.timestamp < 0 or self.timestamp > MAX_MILLIS:
            raise ValueError(f"timestamp out of range: {self.timestamp}")
        if not isinstance(self.source_id, str):
            raise ValueError(f"source id must be a string, got {self.source_id!r}")
        if not self.attributes:
            raise ValueError("tuple must carry at least one attribute")
        for name, v in self.attributes.items():
            if not isinstance(name, str) or name in RESERVED_KEYS:
                raise ValueError(f"attribute name {name!r} must be a str other than ts and src")
            if isinstance(v, float):
                if not math.isfinite(v):
                    raise ValueError(f"attribute {name!r} is non-finite")
            elif isinstance(v, bool) or not isinstance(v, (int, str)):
                raise ValueError(f"attribute {name!r} has non-atomic value {v!r}")
            elif isinstance(v, int) and _too_many_digits(v):
                raise ValueError(f"attribute {name!r} has more digits than JSON can write")


@dataclass(frozen=True)
class AggregateRow:
    """One group-by bucket of an aggregation: (bucket start, count, result).

    ``count`` is carried as a float on the wire contract; internally counts
    are integral. ``result`` is absent exactly when the bucket is empty.
    """

    bucket_start: int
    count: float
    result: float | None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")
        if (self.result is None) != (self.count == 0):
            raise ValueError("result must be absent exactly when count is zero")


class TupleDecodeError(ValueError):
    """Raised for a line that is not a well-formed tuple encoding."""


def encode_tuple(t: StreamTuple) -> str:
    """Encode a tuple as one compact JSON object (no trailing newline).

    The reserved keys ``ts`` and ``src`` come first, then the attributes in
    order, so encoding is deterministic and round-trips byte-identically.
    """
    return json.dumps(
        {"ts": t.timestamp, "src": t.source_id, **t.attributes},
        separators=(",", ":"),
        allow_nan=False,
    )


def decode_tuple(line: str) -> StreamTuple:
    """Decode one NDJSON line into a StreamTuple.

    Raises TupleDecodeError for malformed or too deeply nested JSON, a line
    that is not an object with ``ts``, or anything StreamTuple rejects.
    """
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise TupleDecodeError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "ts" not in obj:
        raise TupleDecodeError("tuple line must be a JSON object with 'ts'")
    ts = obj.pop("ts")
    src = obj.pop("src", "")
    try:
        return StreamTuple(ts, obj, src)
    except ValueError as exc:
        raise TupleDecodeError(str(exc)) from None
