"""Measurement harness shared by the benchmark suite.

Provides:

* stack builders that assemble a complete CarTel deployment (database +
  runtime + app + portal + accounts + GPS history) in either **IFDB**
  mode or **baseline** mode (``ifc_enabled=False`` — the same engine and
  platform with information flow control compiled out, standing in for
  stock PostgreSQL + PHP);
* a database-time meter that splits a request's cost into web-tier time
  and database time (used to parameterize the Figure 4 queueing model);
* latency/throughput measurement helpers and a paper-vs-measured table
  formatter used by every benchmark's report.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..apps.cartel import (
    CarTelApp,
    SensorProcessor,
    TraceGenerator,
    build_portal,
    install_driveupdate_trigger,
)
from ..core import counters
from ..core.authority import AuthorityState
from ..core.idgen import SeededIdGenerator
from ..db import session as dbsession
from ..db.engine import Database
from ..platform.runtime import IFRuntime
from ..platform.web import Request, WebApp
from ..workloads.cartel_mix import REQUEST_MIX
from ..workloads.loadgen import ServiceDemand

# ---------------------------------------------------------------------------
# generic statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile (0..1) of a non-empty sequence."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(p * len(ordered)))
    return ordered[index]


@dataclass
class Measurement:
    name: str
    samples: List[float]

    @property
    def median(self) -> float:
        return percentile(self.samples, 0.5)


# ---------------------------------------------------------------------------
# database-time metering
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def db_time_meter():
    """Temporarily instrument Session.execute_statement to accumulate the
    wall time spent inside the database (reentrancy-safe: nested trigger
    statements are not double counted)."""
    acc = {"time": 0.0, "depth": 0}
    original = dbsession.Session.execute_statement

    def timed(self, *args, **kwargs):
        if acc["depth"]:
            return original(self, *args, **kwargs)
        acc["depth"] += 1
        start = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            acc["time"] += time.perf_counter() - start
            acc["depth"] -= 1

    dbsession.Session.execute_statement = timed
    try:
        yield acc
    finally:
        dbsession.Session.execute_statement = original


# ---------------------------------------------------------------------------
# CarTel stack builder
# ---------------------------------------------------------------------------

@dataclass
class CarTelStack:
    """A fully populated CarTel deployment ready to serve requests."""

    db: Database
    runtime: IFRuntime
    app: CarTelApp
    web: WebApp
    tokens: List[str]               # one session token per user
    usernames: List[str]
    ifc_enabled: bool

    def request(self, rng: random.Random, path: str) -> Request:
        token = self.tokens[rng.randrange(len(self.tokens))]
        return Request(path, session_token=token)


def build_cartel_stack(*, ifc_enabled: bool = True, n_users: int = 8,
                       cars_per_user: int = 2, measurements: int = 1200,
                       friends_per_user: int = 2,
                       seed: int = 1234) -> CarTelStack:
    """Assemble CarTel with accounts, friendships, and GPS history."""
    authority = AuthorityState(idgen=SeededIdGenerator(seed))
    db = Database(authority, ifc_enabled=ifc_enabled, seed=seed)
    runtime = IFRuntime(authority, ifc_enabled=ifc_enabled)
    app = CarTelApp(db, runtime)
    install_driveupdate_trigger(app)
    web = build_portal(app)

    usernames = ["user%d" % i for i in range(1, n_users + 1)]
    userids = []
    car_ids = []
    for name in usernames:
        userid = app.signup(name, "pw-" + name)
        userids.append(userid)
        for _ in range(cars_per_user):
            car_ids.append(app.add_car(userid))
    rng = random.Random(seed)
    for i, userid in enumerate(userids):
        for k in range(1, friends_per_user + 1):
            friend = userids[(i + k) % len(userids)]
            if friend != userid:
                app.befriend(userid, friend)

    generator = TraceGenerator(car_ids, seed=seed)
    processor = SensorProcessor(app)
    processor.process_measurements(generator.measurements(measurements))
    # ANALYZE: plans cached while the tables were filling are dropped,
    # so the request handlers plan from the populated row counts.
    db.analyze()

    tokens = [web.login(name, "pw-" + name) for name in usernames]
    return CarTelStack(db=db, runtime=runtime, app=app, web=web,
                       tokens=tokens, usernames=usernames,
                       ifc_enabled=ifc_enabled)


# ---------------------------------------------------------------------------
# request measurements
# ---------------------------------------------------------------------------

def measure_request_latency(stack: CarTelStack, path: str,
                            repeats: int = 30,
                            seed: int = 7) -> Measurement:
    """Serial request latency on an idle system (Figure 5 methodology).

    Microsecond-scale handlers are at the mercy of GC pauses and OS
    scheduling, so callers should compare *medians*; garbage collection
    is forced out of the timed region.
    """
    import gc
    rng = random.Random(seed)
    samples = []
    # Warm up caches and plan/parse caches first.
    for _ in range(3):
        stack.web.handle(stack.request(rng, path))
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            request = stack.request(rng, path)
            start = time.perf_counter()
            response = stack.web.handle(request)
            samples.append(time.perf_counter() - start)
            assert response.status == 200, (path, response.status)
    finally:
        gc.enable()
    return Measurement(path, samples)


def measure_service_demands(stack: CarTelStack, repeats: int = 20,
                            seed: int = 11,
                            web_cpu_scale: float = 1.0
                            ) -> Dict[str, ServiceDemand]:
    """Split each request type's cost into web-tier and database time.

    ``web_cpu_scale`` models the hardware imbalance of the paper's
    testbed (hyper-threaded Pentium 4 web servers vs a 16-core database
    server): the measured web time is multiplied by it identically for
    IFDB and baseline.  Database time includes any simulated I/O charged
    by the buffer-cache model.
    """
    rng = random.Random(seed)
    demands: Dict[str, ServiceDemand] = {}
    for path, _weight in REQUEST_MIX:
        for _ in range(2):
            stack.web.handle(stack.request(rng, path))       # warm-up
        web_samples = []
        db_samples = []
        for _ in range(repeats):
            request = stack.request(rng, path)
            io_before = counters.snapshot()["simulated_io_time"]
            with db_time_meter() as meter:
                start = time.perf_counter()
                response = stack.web.handle(request)
                elapsed = time.perf_counter() - start
            assert response.status == 200, (path, response.status)
            io_delta = counters.snapshot()["simulated_io_time"] - io_before
            db_samples.append(meter["time"] + io_delta)
            web_samples.append(max(0.0, elapsed - meter["time"]))
        # Medians: request handling is microseconds-scale, where GC and
        # scheduler noise would otherwise dominate a mean.
        demands[path] = ServiceDemand(
            web=percentile(web_samples, 0.5) * web_cpu_scale,
            db=percentile(db_samples, 0.5))
    return demands


def _ingest_rig(*, ifc_enabled: bool, n_users: int, cars_per_user: int,
                seed: int):
    stack = build_cartel_stack(ifc_enabled=ifc_enabled, n_users=n_users,
                               cars_per_user=cars_per_user,
                               measurements=200,   # pre-existing history
                               seed=seed)
    car_ids = [row[0] for row in stack.db.connect(
        _probe_process(stack)).query("SELECT carid FROM Cars")]
    generator = TraceGenerator(car_ids, seed=seed + 1,
                               start_ts=2_000_000.0)
    return stack, generator, SensorProcessor(stack.app)


def _ingest_round(generator, processor, measurements: int) -> float:
    import gc
    batch = list(generator.measurements(measurements))
    gc.collect()
    start = time.perf_counter()
    processor.process_measurements(batch)
    return measurements / (time.perf_counter() - start)


def measure_ingest_pair(*, measurements: int = 2000, n_users: int = 6,
                        cars_per_user: int = 2, seed: int = 99,
                        rounds: int = 4) -> Tuple[float, float]:
    """(baseline, IFDB) sensor-processing throughput in measurements/s
    (section 8.2.2): the best of ``rounds`` replay rounds each, rounds
    interleaved so ambient machine noise hits both systems equally."""
    _b_stack, b_gen, b_proc = _ingest_rig(
        ifc_enabled=False, n_users=n_users, cars_per_user=cars_per_user,
        seed=seed)
    _i_stack, i_gen, i_proc = _ingest_rig(
        ifc_enabled=True, n_users=n_users, cars_per_user=cars_per_user,
        seed=seed)
    base_best = 0.0
    ifdb_best = 0.0
    for _round in range(rounds):
        base_best = max(base_best,
                        _ingest_round(b_gen, b_proc, measurements))
        ifdb_best = max(ifdb_best,
                        _ingest_round(i_gen, i_proc, measurements))
    return base_best, ifdb_best


def _probe_process(stack: CarTelStack):
    from ..core.process import IFCProcess
    process = IFCProcess(stack.app.authority, stack.app.ingestd.id)
    process.add_secrecy(stack.app.all_drives.id)
    return process


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

class ReportTable:
    """Fixed-width paper-vs-measured table printed by each benchmark."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add(self, *cells) -> None:
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = ["", "=== %s ===" % self.title]
        header = "  ".join(c.ljust(widths[i])
                           for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)


def relative(a: float, b: float) -> str:
    """Format a/b as a signed percentage difference of a versus b."""
    if b == 0:
        return "n/a"
    return "%+.1f%%" % (100.0 * (a - b) / b)
