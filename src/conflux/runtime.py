"""Windowed aggregation operators over fused historic and live data.

An operator fires on a processing-time schedule (every trigger period) and
aggregates by event time: window membership is decided by tuple timestamps,
never by arrival order. The watermark split divides each window into a
historic part, answered by one grouped store query, and a live part,
answered from the operator's in-memory buffer. Both parts reduce to
mergeable partials, so the fusion is a single merge + finalize.

Window strategies:

* sliding: [trigger - duration, trigger)
* landmark: [anchor - duration, trigger), anchor fixed at execution start

Tumbling windows are sliding windows with duration equal to the trigger
period; the planner normalizes them, so no third kind exists here.

An operator never reads a clock, never reads a queue and never catches an
error. It is built anchored at one instant; ``admit`` buffers one stream
tuple, and each ``step(now)`` fires the triggers due at or before ``now``
and emits results to its sink queue. The pipeline that owns it drains the
source, admits every tuple, reads the clock, passes the same ``now`` to
every operator, and is the one place a stage failure lands.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass

from . import aggregates
from .broker import Queue
from .model import Interval, StreamTuple, TimeUnit, is_numeric_value
from .query import AggregationFunction, Frequency, WindowKind, WindowSpec
from .store import Connection, HistoricQuery


@dataclass(frozen=True)
class OperatorConfig:
    """Everything an operator needs beyond its wiring."""

    trigger: Frequency
    window: WindowSpec
    aggregation: AggregationFunction
    attribute: str

    def __post_init__(self) -> None:
        if not self.attribute:
            raise ValueError("attribute must be non-empty")


@dataclass(frozen=True)
class WindowResult:
    trigger_time: int
    window: Interval
    count: int
    value: float | None
    history_count: int
    live_count: int

    def __post_init__(self) -> None:
        if self.count != self.history_count + self.live_count:
            raise ValueError("count must equal history_count + live_count")
        if (self.value is None) != (self.count == 0):
            raise ValueError("value must be absent exactly when count is zero")


def window_extent(spec: WindowSpec, trigger_time: int, anchor: int) -> Interval:
    """The event-time interval a trigger aggregates over."""
    if trigger_time < anchor:
        raise ValueError(f"trigger {trigger_time} precedes anchor {anchor}")
    if spec.kind is WindowKind.SLIDING:
        return Interval(trigger_time - spec.duration_ms, trigger_time)
    return Interval(anchor - spec.duration_ms, trigger_time)


def hybrid_evaluate(
    trigger_time: int,
    window: Interval,
    split: int,
    live_tuples: list[StreamTuple],
    historic: Connection | None,
    config: OperatorConfig,
) -> WindowResult:
    """Aggregate one window from historic rows plus buffered live tuples.

    With a historic connection, [window.start, split) is answered by a
    single-bucket store query and the buffer only serves [split, window.end).
    Without one the buffer serves the whole window, so a live-only window
    counts exactly the tuples its stream delivered, however far back it
    reaches. ``live_tuples`` must be sorted by timestamp.
    """
    partial = aggregates.empty(config.aggregation)
    history_count = 0
    live_start = window.start
    if historic is not None and window.start < min(window.end, split):
        hist_end = min(window.end, split)
        span = hist_end - window.start
        group_by = max(1, -(-span // TimeUnit.SECONDS.millis))
        rows = historic.query_to_historic(
            HistoricQuery(
                function=config.aggregation,
                value=config.attribute,
                start=window.start,
                end=hist_end,
                group_by_number=group_by,
                group_by_unit=TimeUnit.SECONDS,
            )
        )
        for row in rows:
            partial = aggregates.merge(
                partial, aggregates.from_summary(config.aggregation, row.count, row.result)
            )
            history_count += int(row.count)
        live_start = max(window.start, split)

    live_count = 0
    lo = bisect_left(live_tuples, live_start, key=lambda t: t.timestamp)
    hi = bisect_left(live_tuples, window.end, key=lambda t: t.timestamp)
    for i in range(lo, hi):
        v = live_tuples[i].attributes.get(config.attribute)
        if is_numeric_value(v):
            partial = aggregates.merge(partial, aggregates.single(config.aggregation, v))
            live_count += 1

    return WindowResult(
        trigger_time=trigger_time,
        window=window,
        count=history_count + live_count,
        value=partial.finalize(),
        history_count=history_count,
        live_count=live_count,
    )


# -- result wire formats ---------------------------------------------------

def result_to_tuple(r: WindowResult, source_id: str) -> StreamTuple:
    """Results travel broker queues as ordinary tuples; value is omitted when empty."""
    attrs: dict[str, object] = {
        "win_start": r.window.start,
        "win_end": r.window.end,
        "count": r.count,
    }
    if r.value is not None:
        attrs["value"] = r.value
    attrs["hist_count"] = r.history_count
    attrs["live_count"] = r.live_count
    return StreamTuple(timestamp=r.trigger_time, attributes=attrs, source_id=source_id)


def result_from_tuple(t: StreamTuple) -> WindowResult:
    return WindowResult(
        trigger_time=t.timestamp,
        window=Interval(t.attributes["win_start"], t.attributes["win_end"]),
        count=t.attributes["count"],
        value=t.attributes.get("value"),
        history_count=t.attributes["hist_count"],
        live_count=t.attributes["live_count"],
    )


def encode_result(t: StreamTuple) -> str:
    """One NDJSON line per window result: trigger_ts, then the result tuple's attributes."""
    return json.dumps(
        {"trigger_ts": t.timestamp, **t.attributes}, separators=(",", ":"), allow_nan=False
    )


def decode_result(line: str) -> WindowResult:
    """Inverse of ``encode_result`` for window results."""
    obj = json.loads(line)
    return result_from_tuple(StreamTuple(timestamp=obj.pop("trigger_ts"), attributes=obj))


# -- operator ---------------------------------------------------------------


@dataclass
class OperatorMetrics:
    """Counters; every tuple in is buffered, late, behind the watermark or non-numeric.

    ``behind_watermark`` counts live tuples older than the anchor of an
    operator with a historic source, whose store already answers that time.
    """

    tuples_in: int = 0
    results_emitted: int = 0
    late_dropped: int = 0
    behind_watermark: int = 0
    non_numeric_skipped: int = 0
    buffered: int = 0


class Operator:
    """One scheduled aggregation stage: admits stream tuples, fires into a sink queue.

    A plain state machine: it never reads a clock. It is built anchored at
    ``anchor``, which is also the watermark (the pipeline's launch instant,
    so everything stored before it is history and everything after is
    live), and ``step`` is told the current instant by its caller. A
    bounded operator fires its last trigger at or before
    ``anchor + duration_ms``.
    """

    def __init__(
        self,
        name: str,
        config: OperatorConfig,
        sink: Queue,
        historic: Connection | None,
        anchor: int,
        duration_ms: int | None = None,
    ):
        self.name = name
        self.config = config
        self.sink = sink
        self.historic = historic
        self.anchor = anchor
        self.next_trigger_ms = anchor + config.trigger.period_ms
        self.end_ms = None if duration_ms is None else anchor + duration_ms
        self.metrics = OperatorMetrics()
        self._buffer: list[StreamTuple] = []
        self._stopped = False

    # -- lifecycle --------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once a bounded run has fired its last trigger or the operator stopped."""
        return self._stopped or (self.end_ms is not None and self.next_trigger_ms > self.end_ms)

    def stop(self) -> None:
        self._stopped = True

    def close(self) -> None:
        """Release the historic connection."""
        self.stop()
        if self.historic is not None:
            self.historic.close()

    # -- buffer -----------------------------------------------------------

    def _admission_bound(self) -> int:
        """Lower timestamp bound for admission: the next window's start."""
        return window_extent(self.config.window, self.next_trigger_ms, self.anchor).start

    def admit(self, t: StreamTuple) -> bool:
        """Buffer a tuple unless it is late, behind the watermark or not numeric."""
        self.metrics.tuples_in += 1
        if t.timestamp < self._admission_bound():
            self.metrics.late_dropped += 1
            return False
        if self.historic is not None and t.timestamp < self.anchor:
            self.metrics.behind_watermark += 1
            return False
        if not is_numeric_value(t.attributes.get(self.config.attribute)):
            self.metrics.non_numeric_skipped += 1
            return False
        insort(self._buffer, t, key=lambda x: x.timestamp)
        self.metrics.buffered = len(self._buffer)
        return True

    def _evict(self) -> None:
        bound = self._admission_bound()
        cut = bisect_left(self._buffer, bound, key=lambda t: t.timestamp)
        if cut:
            del self._buffer[:cut]
            self.metrics.buffered = len(self._buffer)

    # -- firing -----------------------------------------------------------

    def _fire(self, trigger_time: int) -> None:
        window = window_extent(self.config.window, trigger_time, self.anchor)
        result = hybrid_evaluate(
            trigger_time, window, self.anchor, self._buffer, self.historic, self.config
        )
        self.sink.publish(result_to_tuple(result, self.name))
        self.metrics.results_emitted += 1

    def step(self, now: int) -> int:
        """Fire every trigger due at or before ``now``; returns how many fired.

        An error, such as ``ClosedQueueError`` from a closed sink, propagates
        to the driver.
        """
        fired = 0
        while not self.finished and self.next_trigger_ms <= now:
            self._fire(self.next_trigger_ms)
            self.next_trigger_ms += self.config.trigger.period_ms
            self._evict()
            fired += 1
        return fired
