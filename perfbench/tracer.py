"""Layer-boundary tracing for the benchmark, installed from outside the package.

The tracer replaces public functions and methods of the imported ``conflux``
modules with wrappers and restores them on ``uninstall``; nothing under
``src/`` is edited. Two kinds of wrapper exist:

* timed: every call adds to per-name totals (calls, items, wall ns, self ns)
  and to its caller's child time. Calls listed as *recorded* also append a
  span (id, name, start, end, parent, trigger, child ns, items). Per-tuple
  boundaries (admit, publish, drain, encode, decode) are timed but not
  recorded, so a run keeps a few thousand spans instead of millions.
* counted: calls are only counted (the aggregates functions, which run once
  per live tuple inside every trigger).

A span's self time is its duration minus the time covered by its children.
Children never overlap because the traced pipeline is single-threaded.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conflux import aggregates, broker, runtime, store


def _result_len(args, result) -> int:
    return len(result)


def _arg_len(args, result) -> int:
    return len(args[1])


def _received(args, result) -> int:
    return 0 if result is None else 1


def _returned(args, result) -> int:
    return result


# (owner, attribute, total name, recorded, items per call; None counts 1)
TIMED = (
    (store.HistoricStore, "ingest", "store.ingest", True, _returned),
    (store.Connection, "query_to_historic", "store.query", True, None),
    (runtime, "hybrid_evaluate", "runtime.evaluate", True, None),
    (runtime.Operator, "admit", "runtime.admit", False, None),
    (broker.Queue, "publish", "broker.publish", False, None),
    (broker.Queue, "publish_many", "broker.publish_many", False, _arg_len),
    (broker.Subscription, "receive", "broker.receive", False, _received),
    (broker.Subscription, "receive_many", "broker.receive_many", False, _result_len),
    (broker.Subscription, "drain", "broker.drain", False, _result_len),
    (broker, "encode_tuple", "model.encode", False, None),
    (broker, "decode_tuple", "model.decode", False, None),
    (store, "encode_tuple", "model.encode", False, None),
    (store, "decode_tuple", "model.decode", False, None),
)

COUNTED = (
    (aggregates, "merge", "aggregates.merge"),
    (aggregates, "single", "aggregates.single"),
    (aggregates, "from_summary", "aggregates.from_summary"),
)


class _Span:
    """Context manager for a span opened by the benchmark's own driver code."""

    __slots__ = ("tracer", "name", "items")

    def __init__(self, tracer: "Tracer", name: str, items: int):
        self.tracer = tracer
        self.name = name
        self.items = items

    def __enter__(self):
        self.tracer._enter(True)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.name, True, self.items)
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    """Spans and per-name totals for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.totals: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.trigger = -1
        self.active = False
        self._ids = 0
        # Frames: [span id children attach to, child ns, start ns].
        self._stack: list[list[int]] = [[-1, 0, 0]]
        self._originals: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        for owner, attr, name, recorded, items in TIMED:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            self._wrappers.append((owner, attr, self._timed(original, name, recorded, items)))
        for owner, attr, name in COUNTED:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            self._wrappers.append((owner, attr, self._counted(original, name)))

    # -- switching --------------------------------------------------------

    def install(self) -> None:
        for owner, attr, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
        self.active = False

    # -- recording --------------------------------------------------------

    def span(self, name: str, items: int = 1):
        """A recorded span around driver code; a no-op while tracing is off."""
        return _Span(self, name, items) if self.active else _NO_SPAN

    def _enter(self, recorded: bool) -> None:
        if recorded:
            sid = self._ids
            self._ids += 1
        else:
            sid = self._stack[-1][0]
        self._stack.append([sid, 0, time.perf_counter_ns()])

    def _exit(self, name: str, recorded: bool, items: int) -> None:
        end = time.perf_counter_ns()
        sid, child, start = self._stack.pop()
        parent = self._stack[-1]
        dur = end - start
        parent[1] += dur
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0, 0]
        total[0] += 1
        total[1] += items
        total[2] += dur
        total[3] += dur - child
        if recorded:
            self.spans.append((sid, name, start, end, parent[0], self.trigger, child, items))

    def _timed(self, fn, name: str, recorded: bool, items):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(recorded)
            n = 0
            try:
                result = fn(*args, **kwargs)
                n = 1 if items is None else items(args, result)
                return result
            finally:
                tracer._exit(name, recorded, n)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading ----------------------------------------------------------

    def durations(self, name: str, self_time: bool = False) -> list[int]:
        """Wall (or self) nanoseconds of every recorded span with this name."""
        return [
            (end - start - child) if self_time else (end - start)
            for (_, n, start, end, _, _, child, _) in self.spans
            if n == name
        ]

    def total(self, *names: str) -> tuple[int, int, int]:
        """(calls, items, wall ns) summed over the given total names."""
        calls = items = ns = 0
        for name in names:
            t = self.totals.get(name)
            if t is not None:
                calls += t[0]
                items += t[1]
                ns += t[2]
        return calls, items, ns

    def write_ndjson(self, path: Path) -> None:
        """One line per recorded span, then one per total and one per count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            {
                "id": sid,
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "parent": parent,
                "trigger": trigger,
                "self_ns": end - start - child,
                "items": items,
            }
            for sid, name, start, end, parent, trigger, child, items in self.spans
        ]
        lines += [
            {"total": name, "calls": calls, "items": items, "ns": ns, "self_ns": self_ns}
            for name, (calls, items, ns, self_ns) in sorted(self.totals.items())
        ]
        lines += [{"count": name, "calls": calls} for name, calls in sorted(self.counts.items())]
        with open(path, "w", encoding="utf-8") as f:
            for line in lines:
                f.write(json.dumps(line, separators=(",", ":")) + "\n")
