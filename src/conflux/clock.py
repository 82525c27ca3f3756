"""Time sources for pipelines and the load farm (operators are told the time).

Every component that schedules work takes a clock so that correctness tests
run on virtual time (instantaneous and deterministic) while throughput tests
run on the wall clock.
"""

from __future__ import annotations

import math
import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    def now_ms(self) -> int:
        """Current time in epoch milliseconds."""
        ...

    def sleep_ms(self, millis: float) -> None:
        """Let the given duration pass: block on a real clock, advance a
        virtual one; zero or less does nothing."""
        ...


class SystemClock:
    """Wall clock reporting epoch milliseconds."""

    def now_ms(self) -> int:
        return int(time.time() * 1000)

    def sleep_ms(self, millis: float) -> None:
        if millis > 0:
            time.sleep(millis / 1000.0)


class VirtualClock:
    """Manually advanced clock; time moves only when told to.

    Never moves backwards: ``set_ms`` to an earlier instant raises, which
    catches scheduling bugs in drivers early.
    """

    def __init__(self, start_ms: int = 0):
        self._now = start_ms

    def now_ms(self) -> int:
        return self._now

    def sleep_ms(self, millis: float) -> None:
        """Advance virtual time by ``millis``, rounded up to a whole millisecond."""
        if millis > 0:
            self._now += math.ceil(millis)

    def set_ms(self, t: int) -> None:
        if t < self._now:
            raise ValueError(f"clock cannot move backwards: {t} < {self._now}")
        self._now = t
