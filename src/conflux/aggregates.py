"""Mergeable partial aggregates for min, max and mean.

A window result is computed by combining partials from independent data
regions (historic buckets, live buffer slices) rather than from raw values,
so each region can be summarized once and reused. ``merge`` is associative
and commutative with ``empty`` as identity, which makes the combination
order irrelevant.

Mean carries (count, sum) and divides at finalization; min and max carry
(count, extremum). Finalizing an empty partial yields None, never NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .query import AggregationFunction


@dataclass(frozen=True)
class Partial:
    """Intermediate aggregate state; acc is the sum for mean, else the extremum."""

    function: AggregationFunction
    count: int
    acc: float

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.count == 0 and self.acc != 0.0:
            raise ValueError("empty partial must have acc == 0.0")

    def finalize(self) -> float | None:
        """Collapse to the window result; None when no values contributed."""
        if self.count == 0:
            return None
        if self.function is AggregationFunction.MEAN:
            return self.acc / self.count
        return self.acc


def empty(function: AggregationFunction) -> Partial:
    return Partial(function, 0, 0.0)


def single(function: AggregationFunction, value: float) -> Partial:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"aggregate input must be finite, got {value!r}")
    return Partial(function, 1, value)


def merge(a: Partial, b: Partial) -> Partial:
    if a.function is not b.function:
        raise ValueError(f"cannot merge {a.function.value} partial with {b.function.value}")
    if a.count == 0:
        return b
    if b.count == 0:
        return a
    if a.function is AggregationFunction.MEAN:
        acc = a.acc + b.acc
    elif a.function is AggregationFunction.MIN:
        acc = min(a.acc, b.acc)
    else:
        acc = max(a.acc, b.acc)
    return Partial(a.function, a.count + b.count, acc)


def of_values(function: AggregationFunction, values: Iterable[float]) -> Partial:
    """Fold a value sequence into one partial."""
    out = empty(function)
    for v in values:
        out = merge(out, single(function, v))
    return out


def from_summary(function: AggregationFunction, count: float, result: float | None) -> Partial:
    """Rebuild a partial from a (count, finalized result) pair.

    The inverse of finalize. No engine path calls it, since the store answers
    history as a partial; ``perfbench/tracer.py`` still counts it by name.
    """
    n = int(count)
    if n != count or n < 0:
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    if n == 0:
        if result is not None:
            raise ValueError("zero-count summary must have result None")
        return empty(function)
    if result is None:
        raise ValueError("non-empty summary must have a result")
    if function is AggregationFunction.MEAN:
        return Partial(function, n, result * n)
    return Partial(function, n, float(result))
