"""Benchmark for conflux: one workload per process, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hist-120d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the same workload runs with the layer tracer and the result
carries the per-layer metrics, the spans are written as NDJSON under
``.perfbench/`` and a layer-stress self-check is printed. The last line of
standard output is always the JSON result; the lines before it name every
metric with its unit and sample count, plus the run metadata. The exit code
is 1 when any output was wrong and 2 when the package is missing.

``perfbench/README.md`` explains each workload and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_WHY = {
    "hist-120d": "Store-heavy: a 1-minute mean over 120 days of stored history plus a 1 tuple/s "
    "live stream, so nearly every trigger is the store range scan; set-up is the store ingest.",
    "live-fanout": "Runtime and aggregates: three live-only window queries fanned out from one "
    "25-thing stream with 5% late tuples, so trigger time is the rescan of the live buffers.",
    "spill-burst": "Broker and model: 100k-tuple bursts into a 1000-slot queue, 99% spilled to "
    "disk and drained in FIFO order, with no runtime or store work.",
}

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("first_result_s", "s", "lower", 0.25),
    ("latency_ms.p90", "ms", "lower", 0.25),
    ("tuples_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# (name, unit, better)
PER_LAYER = (
    ("store.ingest_us_per_tuple", "us", "lower"),
    ("store.bytes_per_tuple", "B", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.query_ms.p50", "ms", "lower"),
    ("store.query_calls_per_trigger", "count", "lower"),
    ("store.query_share", "ratio", "lower"),
    ("runtime.evaluate_self_ms.p50", "ms", "lower"),
    ("runtime.admit_us_per_tuple", "us", "lower"),
    ("runtime.buffered_max", "count", "lower"),
    ("runtime.late_dropped", "count", "lower"),
    ("aggregates.merge_calls_per_trigger", "count", "lower"),
    ("aggregates.partials_per_trigger", "count", "lower"),
    ("broker.publish_us_per_tuple", "us", "lower"),
    ("broker.drain_us_per_tuple", "us", "lower"),
    ("broker.spilled", "count", "lower"),
    ("broker.spill_bytes_per_tuple", "B", "lower"),
    ("broker.backlog_max", "count", "lower"),
    ("model.encode_us_per_tuple", "us", "lower"),
    ("model.decode_us_per_tuple", "us", "lower"),
    ("planner.launch_ms", "ms", "lower"),
    ("planner.fanout_copies_per_tuple", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Lower bound of aggregates.merge_calls_per_trigger on live-fanout and upper
# bound everywhere else. hist-120d merges at most 1 + 1800 partials per
# trigger (one history row plus 30 minutes of 1 tuple/s); live-fanout's full
# windows hold about 34k tuples.
LIVE_MERGE_FLOOR = 10_000

# Layer-stress self-check: each workload must still load the layer it exists
# for and bypass the others.
SELF_CHECK = {
    "hist-120d": (
        ("store.query_calls_per_trigger", ">", 0),
        ("store.query_share", ">", 0.5),
        ("broker.spilled", "==", 0),
        ("aggregates.merge_calls_per_trigger", "<", LIVE_MERGE_FLOOR),
    ),
    "live-fanout": (
        ("store.query_calls_per_trigger", "==", 0),
        ("broker.spilled", "==", 0),
        ("aggregates.merge_calls_per_trigger", ">=", LIVE_MERGE_FLOOR),
    ),
    "spill-burst": (
        ("store.query_calls_per_trigger", "==", 0),
        ("aggregates.merge_calls_per_trigger", "==", 0),
        ("broker.spilled", ">", 0),
    ),
}
OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "==": operator.eq}


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# -- metadata ----------------------------------------------------------------


def calibration_ms() -> float:
    """Median time of a fixed CPU loop; recorded to show host speed, never applied."""
    samples = []
    for _ in range(5):
        begin = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        samples.append((time.perf_counter() - begin) * 1000.0)
    return statistics.median(samples)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for path in sorted((SRC / "conflux").glob("*.py")):
        with open(path, encoding="utf-8") as f:
            total += sum(1 for _ in f)
    return total


# -- metrics -----------------------------------------------------------------


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end(out) -> tuple[dict[str, float], dict[str, str]]:
    """Metric values and, for the printout, what each sample set counts.

    Apart from setup_s, timings are upper percentiles. A shared host runs
    in a fast and a slow mode for seconds at a time, and the mix changes
    from run to run. A median flips between the modes. The slow mode shows
    up in every run, so its percentile repeats.
    """
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    segments = out.traced_s + out.untraced_s
    values = {
        "setup_s": statistics.median(out.setup_s),
        "first_result_s": p90(out.first_result_s),
        "latency_ms.p90": p90(out.latency_ms),
        # The rate held through the slowest tenth of segments: a live input
        # at this rate would not build a backlog.
        "tuples_per_s": out.tuples / len(segments) / p90(segments),
        "peak_rss_mb": rss_mb,
    }
    counts = {
        "setup_s": f"median of {len(out.setup_s)} set-ups",
        "first_result_s": f"p90 of {len(out.first_result_s)}",
        "latency_ms.p90": f"n={len(out.latency_ms)} {out.latency_of}",
        "tuples_per_s": (
            f"{out.tuples} tuples in {len(segments)} segments, "
            f"{sum(segments):.2f} s measured"
        ),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return values, counts


def per_layer(tracer, out) -> tuple[dict[str, float], dict[str, str]]:
    def per_item_us(*names: str) -> float:
        _, items, ns = tracer.total(*names)
        return ns / items / 1e3 if items else 0.0

    def median_span(name: str, scale: float, self_time: bool = False) -> float:
        d = tracer.durations(name, self_time)
        return statistics.median(d) / scale if d else 0.0

    trigger_ns = tracer.durations("drive.trigger")
    triggers = len(trigger_ns)
    query_ns = tracer.durations("store.query")
    counts = tracer.counts
    fetch_in = out.layer.get("fetch.tuples_in", 0)
    overhead = 0.0
    if out.traced_s and out.untraced_s:
        overhead = statistics.median(out.traced_s) / statistics.median(out.untraced_s) - 1.0
    values = {
        "store.ingest_us_per_tuple": per_item_us("store.ingest"),
        "store.bytes_per_tuple": out.layer.get("store.bytes_per_tuple", 0.0),
        "store.open_s": median_span("store.open", 1e9),
        "store.query_ms.p50": median_span("store.query", 1e6),
        "store.query_calls_per_trigger": len(query_ns) / triggers if triggers else 0.0,
        "store.query_share": sum(query_ns) / sum(trigger_ns) if triggers else 0.0,
        "runtime.evaluate_self_ms.p50": median_span("runtime.evaluate", 1e6, self_time=True),
        "runtime.admit_us_per_tuple": per_item_us("runtime.admit"),
        "runtime.buffered_max": out.layer.get("runtime.buffered_max", 0),
        "runtime.late_dropped": out.layer.get("runtime.late_dropped", 0),
        "aggregates.merge_calls_per_trigger": (
            counts["aggregates.merge"] / triggers if triggers else 0.0
        ),
        "aggregates.partials_per_trigger": (
            (counts["aggregates.single"] + counts["aggregates.from_summary"]) / triggers
            if triggers
            else 0.0
        ),
        "broker.publish_us_per_tuple": per_item_us("broker.publish", "broker.publish_many"),
        "broker.drain_us_per_tuple": per_item_us(
            "broker.receive", "broker.receive_many", "broker.drain"
        ),
        "broker.spilled": out.layer.get("broker.spilled", 0),
        "broker.spill_bytes_per_tuple": out.layer.get("broker.spill_bytes_per_tuple", 0.0),
        "broker.backlog_max": out.layer.get("broker.backlog_max", 0),
        "model.encode_us_per_tuple": per_item_us("model.encode"),
        "model.decode_us_per_tuple": per_item_us("model.decode"),
        "planner.launch_ms": median_span("planner.launch", 1e6),
        "planner.fanout_copies_per_tuple": (
            out.layer.get("fetch.tuples_out", 0) / fetch_in if fetch_in else 0.0
        ),
        "trace.overhead_frac": overhead,
    }
    notes = {
        "store.query_ms.p50": f"n={len(query_ns)} queries",
        "store.query_calls_per_trigger": f"{triggers} traced triggers",
        "store.open_s": f"n={len(tracer.durations('store.open'))} opens",
        "planner.launch_ms": f"n={len(tracer.durations('planner.launch'))} launches",
        "trace.overhead_frac": (
            f"median of {len(out.traced_s)} traced vs {len(out.untraced_s)} untraced segments"
        ),
    }
    return values, notes


def self_check(workload: str, values: dict[str, float]) -> bool:
    ok = True
    for name, op, limit in SELF_CHECK[workload]:
        passed = OPS[op](values[name], limit)
        ok &= passed
        print(
            f"self-check {workload}: {name} {op} {limit} ({values[name]:.6g}) "
            f"{'PASS' if passed else 'FAIL'}"
        )
    return ok


# -- running -----------------------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "conflux" / "__init__.py").is_file():
        print(f"perfbench: no conflux package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from workloads import WORKLOADS, Context

    calibration_start = calibration_ms()
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer()
    try:
        ctx = Context(args.seed, args.seconds, args.trace == 1, work, tracer)
        out = WORKLOADS[args.workload](ctx)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "src_lines": src_lines(),
        "calibration_ms": [round(calibration_start, 3), round(calibration_ms(), 3)],
        "failed_frac": out.failed / out.attempted,
        "latency_ms.p50": statistics.median(out.latency_ms),
        "latency_samples": len(out.latency_ms),
    }
    if args.trace:
        values, notes = per_layer(tracer, out)
        units = {n: u for n, u, _ in PER_LAYER}
        trace_path = OUT_DIR / f"trace-{args.workload}.ndjson"
        tracer.write_ndjson(trace_path)
        meta["trace_file"] = str(trace_path.relative_to(ROOT))
        meta["spans"] = len(tracer.spans)
        meta["self_check"] = self_check(args.workload, values)
    else:
        values, notes = end_to_end(out)
        units = {n: u for n, u, _, _ in END_TO_END}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    print(
        f"  {'latency_ms.p50':36s} {meta['latency_ms.p50']:14.6g} {'ms':6s} "
        f"n={len(out.latency_ms)} {out.latency_of} (not gated)"
    )
    print(
        f"  {'failed_frac':36s} {meta['failed_frac']:14.6g} {'ratio':6s} "
        f"{out.failed}/{out.attempted} operations"
    )
    for line in out.mismatches:
        print(f"  MISMATCH {line}")
    print("meta " + json.dumps(meta))
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if out.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh child process, so peak RSS is its own."""
    results = {}
    code = 0
    for name in WORKLOAD_WHY:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        code = max(code, proc.returncode)
    if args.trace and all(results.values()):
        merges = {
            n: r["metrics"]["aggregates.merge_calls_per_trigger"]["value"]
            for n, r in results.items()
        }
        largest = max(merges, key=merges.get)
        print(
            f"self-check all: aggregates.merge_calls_per_trigger largest on {largest} "
            f"{'PASS' if largest == 'live-fanout' else 'FAIL'}"
        )
    print(json.dumps(results), flush=True)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_WHY, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as f:
            json.dump(spec(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
