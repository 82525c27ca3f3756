"""Command line entry point.

Subcommands: ingest (load NDJSON/CSV histories into the store), query (run
one continuous query under a virtual or real clock, optionally over a
replayed tuple log), bench (farm load runs), explain (print the plan for a
query without running it). A query runs on the calling thread, by
``Pipeline.run``, on either clock.

Exit codes are a stable scripting contract: 0 success, 1 usage or query
parse/validation error, 2 runtime failure. Store and spill roots come from
--store-root/--spill-root, falling back to CONFLUX_STORE_ROOT and
CONFLUX_SPILL_ROOT.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Iterator

from .broker import Broker, BrokerError
from .clock import SystemClock, VirtualClock
from .model import StreamTuple, TupleDecodeError, decode_tuple
from .planner import PipelineState, PlanError, launch, plan
from .query import Catalog, QueryError, QuerySpec, parse_query
from .runtime import encode_result
from .simulator import FarmConfig, Topology, farm_config_from_dict, run_farm
from .store import HistoricStore, SeriesRef, StoreError

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

_DURATION_RE = re.compile(r"^(\d+)(ms|s|m|h|d)?$")
_DURATION_FACTORS = {None: 1, "ms": 1, "s": 1000, "m": 60_000, "h": 3_600_000, "d": 86_400_000}


class CliError(Exception):
    """Runtime failure that should become exit code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract reserves 2 for
    # runtime failures, so remap.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_duration_ms(text: str) -> int:
    m = _DURATION_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad duration: {text!r} (use e.g. 500ms, 30s, 10m, 2h, 120d)")
    return int(m.group(1)) * _DURATION_FACTORS[m.group(2)]


def _speed(text: str) -> float:
    """A positive replay speed factor; inf lands a whole log at the launch instant."""
    try:
        if float(text) > 0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"speed must be a positive number, got {text!r}")


def _fraction(text: str) -> float:
    """A fraction in [0, 1]; NaN and infinities are refused."""
    try:
        if 0 <= float(text) <= 1:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a fraction in [0, 1], got {text!r}")


def _store_root(args) -> Path | None:
    root = args.store_root or os.environ.get("CONFLUX_STORE_ROOT")
    return Path(root) if root else None


@contextlib.contextmanager
def _broker(args) -> Iterator[Broker]:
    """A broker that is shut down on exit; a spill root it made itself is removed."""
    root = getattr(args, "spill_root", None) or os.environ.get("CONFLUX_SPILL_ROOT")
    made = None if root else tempfile.mkdtemp(prefix="conflux-spill-")
    broker = Broker(root or made)
    try:
        yield broker
    finally:
        broker.shutdown()
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)


# -- ingest -----------------------------------------------------------------


def _read_csv_tuples(path: Path) -> tuple[list[StreamTuple], int]:
    """CSV rows to tuples: header names attributes, ts column in ms, src optional.

    A row with an unparsable ts, or one StreamTuple rejects (a non-finite
    number, say), counts as malformed.
    """
    tuples: list[StreamTuple] = []
    bad = 0
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or "ts" not in reader.fieldnames:
            raise CliError(f"{path}: CSV needs a 'ts' column (epoch milliseconds)")
        for row in reader:
            try:
                ts = int(row.pop("ts"))
                src = row.pop("src", "") or ""
                attrs: dict[str, object] = {}
                for name, raw in row.items():
                    if raw is None or raw == "":
                        continue
                    try:
                        attrs[name] = float(raw)
                    except ValueError:
                        attrs[name] = raw
                tuples.append(StreamTuple(timestamp=ts, attributes=attrs, source_id=src))
            except (ValueError, TypeError):
                bad += 1
    return tuples, bad


def _read_ndjson_tuples(path: Path) -> tuple[list[StreamTuple], int]:
    tuples: list[StreamTuple] = []
    bad = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                tuples.append(decode_tuple(line))
            except TupleDecodeError:
                bad += 1
    return tuples, bad


def cmd_ingest(args) -> int:
    root = _store_root(args)
    if root is None:
        raise CliError("ingest needs --store-root or CONFLUX_STORE_ROOT")
    path = Path(args.file)
    if not path.is_file():
        raise CliError(f"no such file: {path}")
    if args.format == "csv" or (args.format == "auto" and path.suffix.lower() == ".csv"):
        tuples, bad = _read_csv_tuples(path)
    else:
        tuples, bad = _read_ndjson_tuples(path)
    total = len(tuples) + bad
    if total and bad / total > args.max_bad:
        raise CliError(
            f"{bad} of {total} lines malformed, above the {args.max_bad:.0%} threshold"
        )
    store = HistoricStore(root)
    try:
        ref = SeriesRef(args.provider, args.db, args.series)
        store.register_series(ref)
        added = store.ingest(ref, tuples)
    finally:
        store.close()
    duplicates = len(tuples) - added
    line = f"ingested {added}"
    if duplicates:
        line += f" ({duplicates} duplicates)"
    if bad:
        line += f" [{bad} malformed lines skipped]"
    print(line)
    return EXIT_OK


# -- query ------------------------------------------------------------------


def _catalog_for(spec: QuerySpec, store: HistoricStore | None, trust: bool = False) -> Catalog:
    """Catalog trusting the query's own stream queue; series come from the store.

    With no store, ``trust`` trusts the query's historic source too, with its
    attributes unknown, so a plan can be rendered without any data.
    """
    queues = set()
    if spec.sources.stream is not None:
        queues.add(spec.sources.stream.queue)
    series_attributes = {}
    if store is not None:
        for ref in store.series_refs():
            series_attributes[(ref.provider, ref.database, ref.series)] = store.attributes(ref)
    elif trust and spec.sources.historic is not None:
        h = spec.sources.historic
        series_attributes[(h.provider, h.database, h.series)] = None
    return Catalog(stream_queues=frozenset(queues), series_attributes=series_attributes)


def _write_results(pipeline, broker: Broker, args) -> int:
    stage = pipeline.plan.operator_stages[0]
    sub = broker.subscribe(stage.sink_queue)
    results = sub.drain()
    sub.close()
    out = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8")
    try:
        for t in results:
            out.write(encode_result(t))
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if args.plot_csv:
        with open(args.plot_csv, "w", encoding="utf-8") as f:
            f.write("trigger_ts,value\n")
            for t in results:
                if "value" in t.attributes:
                    f.write(f"{t.timestamp},{t.attributes['value']}\n")
    return len(results)


def _load_feed(path: Path) -> list[StreamTuple]:
    feed, bad = _read_ndjson_tuples(path)
    if bad:
        logger.warning("replay log: skipped %d malformed lines", bad)
    feed.sort(key=lambda t: t.timestamp)
    return feed


def cmd_query(args) -> int:
    spec = parse_query(args.query)
    store = HistoricStore(_store_root(args)) if _store_root(args) else None
    try:
        the_plan = plan(spec, _catalog_for(spec, store))
        duration_ms = parse_duration_ms(args.duration) if args.duration else None
        feed = _load_feed(Path(args.replay)) if args.replay else []
        if args.clock == "virtual":
            clock, duration_ms = _virtual_start(args, spec, store, feed, duration_ms)
        elif duration_ms is None:
            raise CliError("real-clock runs need --duration")
        else:
            clock = SystemClock()
        with _broker(args) as broker:
            pipeline = launch(the_plan, broker, store, clock=clock, duration_ms=duration_ms)
            if pipeline.state is PipelineState.FAILED:
                raise CliError(f"pipeline failed to start: {pipeline.cause}")
            if args.clock == "real":
                # Read after launch, so no replayed tuple precedes an operator's anchor.
                feed = _rebase(feed, clock.now_ms(), args.speed)
            try:
                pipeline.run(feed)
            except Exception:
                if pipeline.state is not PipelineState.FAILED:
                    raise
            # What the pipeline emitted before a stage failed is still written.
            failed = pipeline.stop().state is PipelineState.FAILED
            logger.info("emitted %d results", _write_results(pipeline, broker, args))
            if failed:
                raise CliError(f"pipeline failed: {pipeline.cause}")
    finally:
        if store is not None:
            store.close()
    return EXIT_OK


def _history_end(spec: QuerySpec, store: HistoricStore | None) -> int | None:
    if spec.sources.historic is None:
        return None
    h = spec.sources.historic
    span = store.time_range(SeriesRef(h.provider, h.database, h.series))
    return None if span is None else span[1]


def _virtual_start(args, spec, store, feed, duration_ms) -> tuple[VirtualClock, int]:
    """The virtual clock's origin and the run length, derived when not given."""
    if args.start_ms is not None:
        start_ms = args.start_ms
    elif feed:
        start_ms = feed[0].timestamp
    else:
        end = _history_end(spec, store)
        # One past the last stored tuple, so the whole history sits below
        # the watermark and nothing straddles it.
        start_ms = end + 1 if end is not None else 0
    period = spec.frequency.period_ms
    if duration_ms is None:
        if feed:
            span = max(0, feed[-1].timestamp - start_ms)
            duration_ms = (span // period + 1) * period
        else:
            raise CliError("virtual runs need --duration or --replay to bound them")
    return VirtualClock(start_ms), duration_ms


def _rebase(feed: list[StreamTuple], now_ms: int, speed: float) -> list[StreamTuple]:
    """Move a recorded log onto the real clock: the first tuple lands at now,
    the rest at their recorded gaps divided by speed."""
    first = feed[0].timestamp if feed else 0
    try:
        return [
            dataclasses.replace(t, timestamp=now_ms + int((t.timestamp - first) / speed))
            for t in feed
        ]
    except OverflowError as exc:
        raise CliError(f"replay log does not fit the clock at --speed {speed}") from exc


def cmd_explain(args) -> int:
    spec = parse_query(args.query)
    store = HistoricStore(_store_root(args)) if _store_root(args) else None
    try:
        print(plan(spec, _catalog_for(spec, store, trust=True)).to_json())
        return EXIT_OK
    finally:
        if store is not None:
            store.close()


# -- bench ------------------------------------------------------------------


_TOPOLOGY_NAMES = {"shared": Topology.SHARED_QUEUE, "per-thing": Topology.QUEUE_PER_THING}


def _topology(value: str) -> Topology:
    """A CLI name (shared, per-thing) or an enum value (shared_queue, queue_per_thing)."""
    return _TOPOLOGY_NAMES[value] if value in _TOPOLOGY_NAMES else Topology(value)


def _base_farm_config(args) -> FarmConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            return farm_config_from_dict(json.load(f))
    return FarmConfig(
        things=args.things,
        period_ms=parse_duration_ms(args.period),
        duration_ms=parse_duration_ms(args.bench_duration),
        topology=_TOPOLOGY_NAMES[args.topology],
        seed=args.seed,
    )


_MATRIX_AXES = {
    "things": ("things", int),
    "topology": ("topology", _topology),
    "period": ("period_ms", parse_duration_ms),
    "duration": ("duration_ms", parse_duration_ms),
}


def _matrix_combos(base: FarmConfig, matrix_args: list[str]) -> list[FarmConfig]:
    """The cross product of the axes; a later axis with the same key replaces an earlier one."""
    axes: dict[str, list] = {}
    for item in matrix_args:
        key, _, values = item.partition("=")
        if key not in _MATRIX_AXES or not values:
            raise CliError(f"bad matrix axis: {item!r} (keys: {', '.join(sorted(_MATRIX_AXES))})")
        field, parse = _MATRIX_AXES[key]
        try:
            axes[field] = [parse(v) for v in values.split(",")]
        except ValueError as exc:
            raise CliError(f"bad matrix axis: {item!r}: {exc}") from exc
    combos = [base]
    for field, values in axes.items():
        combos = [dataclasses.replace(cfg, **{field: v}) for cfg in combos for v in values]
    return combos


def cmd_bench(args) -> int:
    base = _base_farm_config(args)
    combos = _matrix_combos(base, args.matrix or [])
    reports = []
    for cfg in combos:
        with _broker(args) as broker:
            clock = VirtualClock() if args.clock == "virtual" else SystemClock()
            report = run_farm(cfg, broker, clock=clock)
        reports.append(report)
        print(report.to_json())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump([r.to_dict() for r in reports], f, indent=2)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as f:
            f.write(reports[0].CSV_HEADER + "\n")
            for r in reports:
                f.write(r.csv_row() + "\n")
    return EXIT_OK


# -- wiring -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="conflux", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a tuple file into the historic store")
    p.add_argument("file")
    p.add_argument("--provider", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--format", choices=("auto", "ndjson", "csv"), default="auto")
    p.add_argument("--max-bad", type=_fraction, default=0.1, help="malformed line fraction allowed")
    p.add_argument("--store-root")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("query", help="run a continuous query")
    p.add_argument("query", help="query text")
    p.add_argument("--clock", choices=("virtual", "real"), default="virtual")
    p.add_argument("--replay", help="NDJSON tuple log replayed as the live stream")
    p.add_argument(
        "--speed", type=_speed, default=1.0,
        help="real-clock replay speed factor: recorded gaps divided by it (inf: all at once)",
    )
    p.add_argument("--duration", help="run length, e.g. 30s, 10m")
    p.add_argument("--start-ms", type=int, default=None, help="virtual clock origin")
    p.add_argument("--output", help="results NDJSON path (default stdout)")
    p.add_argument("--plot-csv", help="also write trigger_ts,value CSV here")
    p.add_argument("--store-root")
    p.add_argument("--spill-root")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("explain", help="print the pipeline plan for a query")
    p.add_argument("query")
    p.add_argument("--store-root")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("bench", help="run the load farm and report throughput")
    p.add_argument("--config", help="farm config JSON file")
    p.add_argument("--things", type=int, default=3)
    p.add_argument("--period", default="100ms")
    p.add_argument("--duration", dest="bench_duration", default="10s")
    p.add_argument("--topology", choices=("shared", "per-thing"), default="shared")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clock", choices=("virtual", "real"), default="real")
    p.add_argument("--matrix", nargs="*", help="axes like things=3,800 topology=shared,per-thing")
    p.add_argument("--json-out")
    p.add_argument("--csv-out")
    p.add_argument("--spill-root")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except QueryError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PlanError as exc:
        print(f"plan error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (BrokerError, StoreError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
