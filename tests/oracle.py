"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive: plain scans, no sharing with the
package's own aggregation or bucketing code paths.
"""

from __future__ import annotations

import json
import math

from conflux.model import StreamTuple, is_numeric_value
from conflux.query import AggregationFunction

REL_TOL = 1e-9
ABS_TOL = 1e-12


def close(a: float | None, b: float | None) -> bool:
    """Equality up to the suite-wide mean tolerance; None only matches None."""
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def encode_tuple(t: StreamTuple) -> str:
    """The NDJSON line of a tuple, through ``json.dumps`` itself."""
    return json.dumps(
        {"ts": t.timestamp, "src": t.source_id, **t.attributes},
        separators=(",", ":"),
        allow_nan=False,
    )


def direct_aggregate(function: AggregationFunction, values: list[float]) -> float | None:
    if not values:
        return None
    if function is AggregationFunction.MIN:
        return min(values)
    if function is AggregationFunction.MAX:
        return max(values)
    return sum(values) / len(values)


def window_values(
    tuples: list[StreamTuple], attribute: str, start: int, end: int
) -> list[float]:
    return [
        t.attributes[attribute]
        for t in tuples
        if start <= t.timestamp < end and is_numeric_value(t.attributes.get(attribute))
    ]


def single_pass_window(
    tuples: list[StreamTuple],
    function: AggregationFunction,
    attribute: str,
    start: int,
    end: int,
) -> tuple[int, float | None]:
    """(count, aggregate) over one window, computed in one scan of raw tuples."""
    values = window_values(tuples, attribute, start, end)
    return len(values), direct_aggregate(function, values)


def scan_group_rows(
    tuples: list[StreamTuple],
    function: AggregationFunction,
    attribute: str,
    start: int,
    end: int,
    width: int,
) -> list[tuple[int, int, float | None]]:
    """Brute-force grouped aggregation: one full scan per bucket."""
    rows = []
    bucket_start = start
    while bucket_start < end:
        bucket_end = min(bucket_start + width, end)
        count, result = single_pass_window(tuples, function, attribute, bucket_start, bucket_end)
        rows.append((bucket_start, count, result))
        bucket_start += width
    return rows
