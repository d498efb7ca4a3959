#!/usr/bin/env python3
"""The IFDB end-to-end benchmark (see README.md beside this file).

One workload, as the benchmark driver runs it::

    python3 benchmarks/e2e/run.py --workload cartel_web --seed 1 \
        --seconds 10 --trace 0

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs in its own
fresh subprocess and one JSON document is written; ``--repeat K`` runs K
such sets and prints each metric's median, quartiles and spread.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: A ``--trace 0`` run repeats one stream this many times; each
#: repetition lasts ``--seconds`` divided by it.
REPETITIONS = 3
#: Slices a timed section is cut into; the host's speed is sampled at
#: every boundary.
SLICES = 20
#: The host kernel, and what it takes on the reference host: this
#: sandbox on a quiet stretch.  All times are reported as that host's.
KERNEL_LOOPS = 100_000
KERNEL_REFERENCE_S = 0.005
#: Share of ``--seconds`` each pass of a ``--trace 1`` run covers.
TRACE_FRACTION = 0.25

#: Counter groups of ``repro.db.metrics`` as ``Database.stats()`` nests
#: them, and the scalars it reports beside them.
STATS_GROUPS = ("labels", "index", "exec", "spill", "stats", "wal")
STATS_SCALARS = ("statements_executed", "rows_inserted", "rows_updated",
                 "rows_deleted", "commits", "aborts", "buffer_hits",
                 "buffer_misses")


def load_sibling(name: str):
    """Import a module of this directory by path: ``trace.py`` shares
    its name with a standard-library module, so it is never put on
    ``sys.path``."""
    spec = importlib.util.spec_from_file_location(
        "ifdb_e2e_" + name, os.path.join(HERE, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# one pass over a workload's op stream
# ---------------------------------------------------------------------------

def host_kernel() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the host runs
    bytecode at this moment."""
    start = time.perf_counter()
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Section:
    """One section of a pass: an op budget the clients share, cut into
    slices.

    The clients draw their ops from one budget, so that none of them
    runs on alone after another has used up a share of its own.  When a
    slice's budget is gone they meet; client 0 notes wall and process
    CPU time on arrival, times the host kernel, and notes them again on
    leaving, so the kernel's time is in no slice."""

    def __init__(self, clients: int, ops: int, slices: int):
        self.bounds = [k * ops // slices for k in range(slices + 1)]
        self.barrier = threading.Barrier(clients) if clients > 1 else None
        self.lock = threading.Lock()
        self.drawn = 0
        self.points = []

    def draw(self, limit: int) -> bool:
        """Take one op from the budget, while fewer than ``limit`` are
        taken."""
        with self.lock:
            if self.drawn >= limit:
                return False
            self.drawn += 1
            return True

    def mark(self, client: int) -> None:
        if self.barrier is not None:
            self.barrier.wait(timeout=600)
        if client == 0:
            arrived = (time.perf_counter(), time.process_time())
            kernel = host_kernel()
            self.points.append(arrived + (kernel, time.perf_counter(),
                                          time.process_time()))
        if self.barrier is not None:
            self.barrier.wait(timeout=600)


def reference_time(wall: float, cpu: float, factor: float) -> float:
    """``wall`` seconds of which ``cpu`` were spent on a processor, as
    the reference host would take: the time on a processor is divided
    by the host factor, the time blocked (a log flush) is not."""
    on_cpu = min(wall, cpu)
    return wall - on_cpu + on_cpu / factor


class Pass:
    """What one timed section measured, in reference-host time.

    The sandbox's speed wanders by a tenth and more over seconds, and
    the engine's time moves with it.  So each slice gets a host factor:
    the host kernel's time at the slice's two ends, over the time it
    takes on the reference host (``KERNEL_REFERENCE_S``).  The slice's
    CPU time is divided by it, its wall time goes through
    ``reference_time``, and its op latencies shrink as its wall time
    did."""

    def __init__(self, records, points, delta, gc_collections, warm_failed,
                 warm_ops):
        self.slice_wall = []
        self.slice_cpu = []
        shrink = []
        self.raw_wall = 0.0
        for a, b in zip(points, points[1:]):
            factor = (a[2] + b[2]) / 2 / KERNEL_REFERENCE_S
            wall, cpu = b[0] - a[3], b[1] - a[4]
            self.raw_wall += wall
            self.slice_wall.append(reference_time(wall, cpu, factor))
            self.slice_cpu.append(cpu / factor)
            shrink.append(self.slice_wall[-1] / wall)
        self.wall = sum(self.slice_wall)
        self.latencies = []
        self.raw_latency = 0.0
        for starts, ends, _failed, per_slice in records:
            done = 0
            for ratio, count in zip(shrink, per_slice):
                for i in range(done, done + count):
                    raw = ends[i] - starts[i]
                    self.raw_latency += raw
                    self.latencies.append(raw * ratio)
                done += count
        #: With one client: the latencies in the order of its stream.
        self.in_order = list(self.latencies)
        self.latencies.sort()
        self.ops = len(self.latencies)
        #: Raw over reference-host time, for what was timed elsewhere
        #: during this pass (the spans).
        self.host_factor = self.raw_latency / sum(self.latencies)
        self.delta = delta
        self.gc_collections = gc_collections
        self.attempted = self.ops + warm_ops
        self.failed = warm_failed + sum(record[2] for record in records)

    def percentile(self, p: float) -> float:
        values = self.latencies
        return values[min(len(values) - 1, int(p * len(values)))]

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / self.ops


def client_loop(workload, run_op, client, ops, section) -> tuple:
    """Run ops from this client's stream, one after the other and each
    timed, while the section's budget lasts."""
    starts, ends, per_slice = [], [], []
    failed = 0
    clock = time.perf_counter
    section.mark(client)
    for limit in section.bounds[1:]:
        done = len(starts)
        while section.draw(limit):
            op = next(ops)
            start = clock()
            try:
                ok = run_op(client, op)
            except Exception as error:     # an op that raises has failed
                ok = False
                workload.note_error(client, error)
            ends.append(clock())
            starts.append(start)
            if not ok:
                failed += 1
        per_slice.append(len(starts) - done)
        section.mark(client)
    return starts, ends, failed, per_slice


def run_clients(workload, run_op, streams, ops: int, slices: int):
    """Run ``ops`` ops drawn from the clients' streams: inline for one
    client, one thread each otherwise.  Returns the clients' records
    and the slice marks."""
    section = Section(len(streams), ops, slices)
    records = [None] * len(streams)
    if len(streams) == 1:
        records[0] = client_loop(workload, run_op, 0, streams[0], section)
        return records, section.points

    def body(client):
        try:
            records[client] = client_loop(workload, run_op, client,
                                          streams[client], section)
        except BaseException:
            section.barrier.abort()        # do not leave the others waiting
            raise

    threads = [threading.Thread(target=body, args=(client,))
               for client in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if any(record is None for record in records):
        raise RuntimeError("a client thread of %s died" % workload.name)
    return records, section.points


def read_counters(workload) -> Dict[str, float]:
    stats = workload.db.stats()
    flat = {"%s.%s" % (group, field): value
            for group in STATS_GROUPS
            for field, value in stats[group].items()}
    for key in STATS_SCALARS:
        flat[key] = stats[key]
    flat.update(workload.counters())
    return flat


def gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def run_pass(workload, seconds: float, tracer=None) -> Pass:
    """Warm up, then time the rest of the stream."""
    warm, timed = workload.plan(seconds)
    # Any client may end up running most of the budget.
    streams = [iter(workload.make_ops(client, warm + timed))
               for client in range(workload.clients)]
    run_op = workload.run_op
    if tracer is not None:
        run_op = tracer.wrap(tracer.OP_SPAN, run_op)
    # Set-up garbage is collected and the survivors frozen, so that the
    # collector's work in the timed section is the workload's own.
    gc.collect()
    gc.freeze()
    warm_records, _ = run_clients(workload, run_op, streams, warm, 1)
    if tracer is not None:
        tracer.spans.clear()
    before = read_counters(workload)
    collections = gc_collections()
    records, points = run_clients(workload, run_op, streams, timed,
                                  min(SLICES, timed))
    collections = gc_collections() - collections
    after = read_counters(workload)
    gc.unfreeze()
    delta = {key: after[key] - before[key] for key in after}
    return Pass(records, points, delta, collections,
                sum(record[2] for record in warm_records), warm)


def build(cls, args, ifc: bool = True):
    """Set one stack up; returns it with the set-up time, in
    reference-host seconds like every other time."""
    gc.collect()                           # the previous stack's remains
    workload = cls(args.seed, args.scale, ifc)
    kernel = host_kernel()
    start, cpu = time.perf_counter(), time.process_time()
    workload.setup()
    elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu
    factor = (kernel + host_kernel()) / 2 / KERNEL_REFERENCE_S
    return workload, reference_time(elapsed, cpu, factor)


def measure(cls, args, seconds: float, tracer=None, ifc: bool = True,
            digests: bool = False) -> Pass:
    """One stack's life: set-up, warm-up, timed section, final checks.
    What the workload has to say afterwards rides on the pass."""
    workload, setup_s = build(cls, args, ifc)
    try:
        if digests:
            workload.digests = []
        workload.prepare()
        measured = run_pass(workload, seconds, tracer)
        if tracer is not None:
            measured.spans = list(tracer.spans)    # before finish() adds any
        measured.setup_s = setup_s
        measured.problems = workload.finish() + workload.errors
        measured.digests = workload.digests
        measured.result_digests = workload.result_digests
        measured.recover_s = workload.recover_s
    finally:
        workload.close()
    return measured


# ---------------------------------------------------------------------------
# --trace 0: the end-to-end metrics
# ---------------------------------------------------------------------------

def run_end_to_end(cls, args) -> dict:
    """A run is ``REPETITIONS`` repetitions of one seeded stream, each
    on a fresh stack.  Slice k covers the same part of the stream in
    each, so its wall and CPU time are the median of the repetitions',
    and so is an op's latency where the ops line up.
    A stall of the host that hits one repetition drops out; what the
    engine does at a fixed point of the stream (a collector run, the
    statistics sweep) recurs in every repetition and stays in."""
    setups = []
    for _ in range(cls.setup_repeats - REPETITIONS):
        rehearsal, elapsed = build(cls, args)
        rehearsal.close()
        del rehearsal
        setups.append(elapsed)
    passes = [measure(cls, args, args.seconds / REPETITIONS)
              for _ in range(REPETITIONS)]
    setups += [p.setup_s for p in passes]
    problems = [problem for p in passes for problem in p.problems]
    median = statistics.median
    slice_wall = [median(t) for t in zip(*(p.slice_wall for p in passes))]
    slice_cpu = [median(t) for t in zip(*(p.slice_cpu for p in passes))]
    ops = passes[0].ops
    tail_p = 0.95 if ops >= 200 else 0.90 if ops >= 100 else 0.75
    if cls.clients == 1:
        # One client runs the same ops in the same order every time:
        # an op's latency is the median of its repetitions'.
        merged = sorted(median(t) for t in zip(*(p.in_order for p in passes)))
        p50, tail = (merged[int(q * ops)] for q in (0.5, tail_p))
    else:
        # Which client runs which op differs: take each repetition's
        # percentile.
        p50, tail = (median(p.percentile(q) for p in passes)
                     for q in (0.5, tail_p))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "metrics": {
            "throughput_ops_s": ops / sum(slice_wall),
            "latency_p50_ms": p50 * 1e3,
            "latency_tail_ms": tail * 1e3,
            "cpu_ms_per_op": sum(slice_cpu) / ops * 1e3,
            "setup_s": median(setups),
            "peak_rss_mb": peak_kb / 1024.0,
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "details": {
            "timed_ops": ops,
            "clients": cls.clients,
            "repetitions": REPETITIONS,
            "tail_percentile": tail_p,
            "repetition_wall_s": [p.wall for p in passes],
            "repetition_raw_wall_s": [p.raw_wall for p in passes],
            "host_factors": [p.host_factor for p in passes],
            "slice_throughput_ops_s": [
                ops / len(slice_wall) / t for t in slice_wall],
            "setup_runs_s": setups,
            "failed_ratio": failed / attempted,
            "result_digests": passes[0].result_digests,
        },
    }


# ---------------------------------------------------------------------------
# --trace 1: the per-layer metrics
# ---------------------------------------------------------------------------

def run_per_layer(cls, args) -> dict:
    tracing = load_sibling("trace")
    seconds = args.seconds * TRACE_FRACTION

    # Pass 1, tracing off: the counts, and the latency the traced pass
    # and the baseline are compared with.
    plain = measure(cls, args, seconds, digests=True)

    # Pass 2, the same ops on a fresh stack with span recorders around
    # the public entry points: the times.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(cls, args, seconds, tracer, digests=True)
    finally:
        tracer.uninstall()
    spans = tracing.summarize(traced.spans)
    tracer.write(os.path.join(OUT_DIR, "trace-%s.jsonl.gz" % cls.name))

    # Pass 3, the same ops with information flow control compiled out.
    baseline = measure(cls, args, seconds, ifc=False) \
        if cls.has_baseline else None

    passes = [p for p in (plain, traced, baseline) if p is not None]
    problems = [problem for p in passes for problem in p.problems]
    if traced.digests != plain.digests:
        problems.append("%s: traced and untraced outputs differ" % cls.name)

    # A span no pass recorded and a counter the workload does not keep
    # read 0: every metric is emitted for every workload.
    ops = plain.ops
    delta = collections.defaultdict(int, plain.delta)
    traced_s = traced.raw_latency

    def self_ms(name):
        return spans[name]["self_s"] / traced.host_factor / traced.ops * 1e3

    def share(name):
        return spans[name]["self_s"] / traced_s

    def count(name):
        return spans[name]["count"]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def per_op(key):
        return delta[key] / ops

    commits = delta["wal.commits"]
    buffer_reads = delta["buffer_hits"] + delta["buffer_misses"]
    cache_reads = delta["cache.hits"] + delta["cache.misses"]
    metrics = {
        "platform.web.handle_self_ms": self_ms("platform.web.handle"),
        "platform.web.requests": delta["web.requests"],
        "platform.connection.execute_self_ms":
            self_ms("platform.connection.execute"),
        "platform.connection.statements_per_request":
            ratio(delta["statements_executed"], delta["web.requests"]),
        "platform.cache.authority_hit_rate":
            ratio(delta["cache.hits"], cache_reads),
        "sql.parser.parse_ms": self_ms("sql.parser.parse_statement"),
        "sql.parser.parse_share": share("sql.parser.parse_statement"),
        "sql.parser.cache_miss_ratio":
            ratio(count("sql.parser.parse_statement"),
                  count("db.engine.parse")),
        "db.engine.prepare_self_ms":
            self_ms("db.engine.parse") + self_ms("db.engine.prepare"),
        "db.engine.plan_cache_miss_ratio":
            ratio(count("db.planner.plan"), count("db.engine.prepare")),
        "db.planner.plan_ms": self_ms("db.planner.plan"),
        "db.planner.plan_share": share("db.planner.plan"),
        "db.optimizer.optimize_ms": self_ms("db.optimizer.optimize"),
        "db.optimizer.optimize_share": share("db.optimizer.optimize"),
        "db.session.statement_ms":
            (spans["db.session.execute_statement"]["outer_s"]
             / traced.host_factor / traced.ops * 1e3),
        "db.session.statements_per_op": per_op("statements_executed"),
        "db.physical.exec_ms": self_ms("db.session.execute_statement"),
        "db.physical.exec_share": share("db.session.execute_statement"),
        "db.physical.rows_widened_per_op": per_op("exec.rows_widened"),
        "db.physical.columns_materialized_per_op":
            per_op("exec.columns_materialized"),
        "core.rules.covers_calls_per_op": per_op("labels.covers_calls"),
        "core.rules.strip_calls_per_op": per_op("labels.strip_calls"),
        "core.rules.rows_suppressed_per_op":
            per_op("labels.rows_suppressed"),
        "core.rules.ifc_overhead_ratio":
            plain.mean_latency / baseline.mean_latency if baseline else 0.0,
        "db.indexes.lookups_per_op": per_op("index.lookups"),
        "db.indexes.range_scans_per_op": per_op("index.range_scans"),
        "db.pages.buffer_hit_rate": ratio(delta["buffer_hits"], buffer_reads),
        "db.pages.buffer_misses": delta["buffer_misses"],
        "db.storage.rows_inserted": delta["rows_inserted"],
        "db.storage.rows_updated": delta["rows_updated"],
        "db.storage.rows_deleted": delta["rows_deleted"],
        "db.transactions.commit_self_ms": self_ms("db.session.commit"),
        "db.transactions.commits": delta["commits"],
        "db.transactions.aborts": delta["aborts"],
        "db.transactions.serialization_aborts":
            delta["tpcc.serialization_aborts"],
        "db.wal.log_commit_ms": self_ms("db.wal.log_commit"),
        "db.wal.fsyncs_per_commit": ratio(delta["wal.fsyncs"], commits),
        "db.wal.bytes_per_commit": ratio(delta["wal.bytes"], commits),
        "db.wal.group_commit_size":
            ratio(commits, delta["wal.commit_flushes"]),
        "db.wal.write_amplification":
            ratio(delta["wal.bytes"], delta["wal.user_bytes"]),
        "db.wal.recover_ms": plain.recover_s * 1e3,
        "db.spill.bytes_spilled_per_op": per_op("spill.bytes_spilled"),
        "db.spill.rows_spilled_per_op": per_op("spill.rows_spilled"),
        "db.spill.partitions_created": delta["spill.partitions_created"],
        "db.spill.repartitions": delta["spill.repartitions"],
        "db.spill.sort_runs": delta["spill.sort_runs"],
        "db.spill.agg_spills": delta["spill.agg_spills"],
        "db.stats.drift_refreshes": delta["stats.drift_refreshes"],
        "db.stats.tables_collected": delta["stats.tables_collected"],
        "driver.op_self_ms": self_ms(tracer.OP_SPAN),
        "driver.latency_p99_ms": plain.percentile(0.99) * 1e3,
        "driver.notpm":
            delta["tpcc.new_order_commits"] / plain.wall * 60.0,
        "driver.generator_share":
            1.0 - plain.raw_latency / (plain.raw_wall * cls.clients),
        "driver.gc_collections": plain.gc_collections,
        "driver.failed_ratio":
            sum(p.failed for p in passes) / sum(p.attempted for p in passes),
        "trace.overhead_ratio": traced.mean_latency / plain.mean_latency,
        "trace.self_time_coverage":
            sum(entry["self_s"] for entry in spans.values()) / traced_s,
        "trace.spans_per_op":
            sum(entry["count"] for entry in spans.values()) / traced.ops,
    }
    if abs(metrics["trace.self_time_coverage"] - 1.0) > 0.1:
        problems.append("%s: span self times cover %.2f of the traced op "
                        "latency" % (cls.name,
                                     metrics["trace.self_time_coverage"]))
    return {
        "metrics": metrics,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": problems,
        "details": {
            "timed_ops": ops,
            "clients": cls.clients,
            "traced_mean_op_ms": traced.mean_latency * 1e3,
            "untraced_mean_op_ms": plain.mean_latency * 1e3,
            "baseline_mean_op_ms":
                baseline.mean_latency * 1e3 if baseline else None,
            "span_counts": {name: entry["count"]
                            for name, entry in sorted(spans.items())},
        },
    }


# ---------------------------------------------------------------------------
# host fingerprint: stored beside every result
# ---------------------------------------------------------------------------

def commit_hash() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(args, timed_ops: int) -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit_hash(),
            "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
            "timed_ops": timed_ops, "host_kernel_s": host_kernel(),
            "kernel_reference_s": KERNEL_REFERENCE_S}


# ---------------------------------------------------------------------------
# one workload in this process (what the benchmark driver runs)
# ---------------------------------------------------------------------------

def run_workload(args, spec) -> int:
    # The benchmark chooses the engine's configuration itself; nothing
    # is inherited from the caller's environment.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # The engine spills to ``tempfile``'s directory; keep that, like
    # everything else a run writes, inside the checkout.
    os.makedirs(OUT_DIR, exist_ok=True)
    os.environ["TMPDIR"] = OUT_DIR
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no engine under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    cls = load_sibling("workloads").WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    result = (run_per_layer if args.trace else run_end_to_end)(cls, args)
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    if set(result["metrics"]) != set(declared):
        print("run.py: metrics emitted and declared in BENCHMARK.json "
              "differ: %s" % sorted(set(result["metrics"]) ^ set(declared)),
              file=sys.stderr)
        return 2
    for problem in result["problems"]:
        print("run.py: " + problem, file=sys.stderr)
    line = {
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in result["metrics"].items()},
    }
    detail = dict(line, workload=args.workload, kind=kind,
                  problems=result["problems"], details=result["details"],
                  fingerprint=fingerprint(
                      args, result["details"]["timed_ops"]))
    with open(os.path.join(OUT_DIR, "%s-trace%d.json"
                           % (args.workload, args.trace)), "w") as handle:
        json.dump(detail, handle, indent=1)
    for name, metric in line["metrics"].items():
        print("%-16s %-46s %14.4f %s" % (args.workload, name,
                                         metric["value"], metric["unit"]))
    print(json.dumps(line))
    return 0


# ---------------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ---------------------------------------------------------------------------

def run_child(args, seed: int, workload: str, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--scale", str(args.scale),
               "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit("run.py: %s (trace %d) exited with %d"
                         % (workload, trace, done.returncode))
    with open(os.path.join(OUT_DIR, "%s-trace%d.json"
                           % (workload, trace))) as handle:
        return json.load(handle)


def summarize_sets(sets: List[dict]) -> dict:
    """Per workload and end-to-end metric: median, quartiles and the
    spread (interquartile distance as a share of the median)."""
    summary: Dict[str, dict] = {}
    for workload in sets[0]:
        summary[workload] = {}
        for name, first in sets[0][workload]["end_to_end"].items():
            values = [s[workload]["end_to_end"][name]["value"] for s in sets]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _q2, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "runs": len(values),
                "unit": first["unit"]}
    return summary


def run_all(args, spec) -> int:
    names = [w["name"] for w in spec["workloads"]]
    sets = []
    correct = True
    document = {"benchmark": "ifdb-e2e", "sets": sets}
    for index in range(args.repeat):
        # Each set has its own seed, as the benchmark driver's runs do,
        # so the spread includes what the inputs contribute.
        seed = args.seed + index
        results = {}
        for workload in names:
            child = run_child(args, seed, workload, 0)
            entry = {"correct": child["correct"],
                     "attempted": child["attempted"],
                     "failed": child["failed"],
                     "end_to_end": child["metrics"],
                     "details": child["details"],
                     "fingerprint": child["fingerprint"]}
            if args.trace:
                layers = run_child(args, seed, workload, 1)
                entry["per_layer"] = layers["metrics"]
                entry["trace_details"] = layers["details"]
                entry["correct"] = entry["correct"] and layers["correct"]
                entry["failed"] += layers["failed"]
                entry["attempted"] += layers["attempted"]
            correct = correct and entry["correct"]
            results[workload] = entry
            print("seed %d  %-16s %s  failed %d of %d" % (
                seed, workload,
                "ok" if entry["correct"] else "INCORRECT",
                entry["failed"], entry["attempted"]))
            for kind in ("end_to_end", "per_layer"):
                for name, metric in entry.get(kind, {}).items():
                    print("    %-46s %14.4f %s" % (name, metric["value"],
                                                   metric["unit"]))
        # The two analytic workloads run the same statements on the same
        # data; their results must be the same.
        scan = results["analytic_scan"]["details"]["result_digests"]
        bounded = results["analytic_bounded"]["details"]["result_digests"]
        for template, digests in bounded.items():
            if scan[template] != digests:
                print("run.py: analytic_bounded's %s results differ from "
                      "analytic_scan's" % template, file=sys.stderr)
                correct = False
        sets.append(results)
    document["summary"] = summary = summarize_sets(sets)
    if args.repeat > 1:
        print("\n%-16s %-18s %12s %12s %12s %8s" % (
            "workload", "metric", "median", "q1", "q3", "spread"))
        for workload, metrics in summary.items():
            for name, s in metrics.items():
                print("%-16s %-18s %12.4f %12.4f %12.4f %7.2f%%" % (
                    workload, name, s["median"], s["q1"], s["q3"],
                    s["spread"] * 100))
    out = args.out or os.path.join(OUT_DIR, "result-seed%d.json" % args.seed)
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1)
    print("wrote %s" % out)
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this one in this process (default: all, "
                             "each in a subprocess)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of the timed section the op counts "
                             "are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass and the per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink data sets and op counts (self-test)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full sets to run, with seeds SEED, SEED+1, "
                             "... (all-workloads mode)")
    parser.add_argument("--out", help="where the JSON document goes")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
