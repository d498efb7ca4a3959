"""The six workloads of the end-to-end benchmark.

Each workload builds its inputs from the seed, drives the engine only
through its public API, and checks what comes back.  Why each one is
here, and which layers it exercises and bypasses, is in README.md.

Every workload is a closed loop with zero think time: a client sends
its next operation only when the previous one has returned, as the
paper's PHP scripts do.  ``rate`` is the number of timed operations per
second of ``--seconds``, frozen from a calibration on the 2-core
sandbox so that the timed section lasts about ``--seconds`` there.  Op
counts are fixed rather than durations so that counters repeat exactly
and a faster commit is not pushed further into version-chain growth
than a slower one.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import threading
import time
import zlib
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.apps.cartel import (
    CarTelApp,
    SensorProcessor,
    TraceGenerator,
    build_portal,
    install_driveupdate_trigger,
)
from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.db import Database
from repro.platform.runtime import IFRuntime
from repro.platform.web import Request
from repro.workloads.cartel_mix import sample_request
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def digest(value) -> int:
    return zlib.crc32(repr(value).encode())


class Workload:
    """One workload: set-up, a seeded op stream per client, an output
    check per op, and a final check."""

    name = ""
    clients = 1
    rate = 0.0
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Replayed on an ``ifc_enabled=False`` stack for
    #: ``core.rules.ifc_overhead_ratio``.
    has_baseline = False

    def __init__(self, seed: int, scale: float = 1.0, ifc: bool = True):
        self.seed = seed
        self.scale = scale
        self.ifc = ifc
        self.db: Optional[Database] = None
        self.errors: List[str] = []
        #: A list when the driver wants a digest of each op's output,
        #: to check that two passes agree on them.
        self.digests: Optional[List[int]] = None
        #: Per template, digests of the results the statements must
        #: return (the analytic workloads).
        self.result_digests: Optional[Dict[str, List[int]]] = None
        #: What ``Database.recover`` took in ``finish`` (durable_commit).
        self.recover_s = 0.0

    def rng(self, purpose: str) -> random.Random:
        return random.Random("%s:%s:%d" % (self.name, purpose, self.seed))

    def plan(self, seconds: float) -> Tuple[int, int]:
        """``(warm-up ops, timed ops)``, all clients together: the first
        5% of the stream (at least 50 ops) is untimed."""
        timed = max(1, round(self.rate * seconds * self.scale))
        return max(min(50, timed), timed // 20), timed

    def setup(self) -> None:
        """Schema + load + ANALYZE + login: what ``setup_s`` times."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Benchmark-side work after set-up (oracles); not timed."""

    def make_ops(self, client: int, count: int) -> list:
        raise NotImplementedError

    def run_op(self, client: int, op) -> bool:
        """Run one operation and check its output."""
        raise NotImplementedError

    def note_error(self, client: int, error: Exception) -> None:
        if len(self.errors) < 5:
            self.errors.append("%s: %r" % (self.name, error))

    def counters(self) -> Dict[str, float]:
        """Counters the engine keeps outside ``Database.stats()``."""
        return {}

    def finish(self) -> List[str]:
        """Checks after the last op; returns what is wrong."""
        return []

    def close(self) -> None:
        if self.db is not None:
            self.db.close()


# ---------------------------------------------------------------------------
# cartel_web: the paper's Figure 5 path
# ---------------------------------------------------------------------------

class CartelWeb(Workload):
    name = "cartel_web"
    rate = 1700.0
    has_baseline = True

    USERS = 12
    CARS_PER_USER = 2
    FRIENDS_PER_USER = 2
    GPS_POINTS = 3000

    def setup(self) -> None:
        seed = self.seed
        authority = AuthorityState(idgen=SeededIdGenerator(seed))
        self.db = Database(authority, ifc_enabled=self.ifc, seed=seed)
        self.runtime = IFRuntime(authority, ifc_enabled=self.ifc)
        app = CarTelApp(self.db, self.runtime)
        install_driveupdate_trigger(app)
        self.web = build_portal(app)
        names = ["user%d" % i for i in range(1, self.USERS + 1)]
        userids = []
        car_ids = []
        for name in names:
            userid = app.signup(name, "pw-" + name)
            userids.append(userid)
            for _ in range(self.CARS_PER_USER):
                car_ids.append(app.add_car(userid))
        for i, userid in enumerate(userids):
            for k in range(1, self.FRIENDS_PER_USER + 1):
                app.befriend(userid, userids[(i + k) % len(userids)])
        points = max(200, int(self.GPS_POINTS * self.scale))
        SensorProcessor(app).process_measurements(
            TraceGenerator(car_ids, seed=seed).measurements(points))
        self.db.analyze()
        self.tokens = [self.web.login(name, "pw-" + name) for name in names]

    def make_ops(self, client: int, count: int) -> list:
        rng = self.rng("ops")
        ops = []
        for i in range(count):
            path = sample_request(rng)
            user = rng.randrange(self.USERS)
            params = {}
            if path == "/edit_account.php":
                params["fullname"] = "User %d, edit %d" % (user + 1, i)
            ops.append(Request(path, params=params,
                               session_token=self.tokens[user]))
        return ops

    def run_op(self, client: int, op) -> bool:
        response = self.web.handle(op)
        if self.digests is not None:
            self.digests.append(digest(response.body))
        return response.status == 200

    def counters(self) -> Dict[str, float]:
        cache = self.runtime.cache
        return {"web.requests": self.web.requests_served,
                "cache.hits": cache.hits,
                "cache.misses": cache.misses}


# ---------------------------------------------------------------------------
# tpcc_mem: the paper's Figure 6 path
# ---------------------------------------------------------------------------

def tpcc_stack(seed: int, ifc: bool) -> Tuple[Database, TPCCWorkload]:
    db = Database(seed=seed, ifc_enabled=ifc)
    tpcc = TPCCWorkload(db, TPCCConfig(
        warehouses=2, districts_per_warehouse=4, customers_per_district=30,
        items=200, initial_orders_per_district=15, seed=seed,
        tags_per_label=4 if ifc else 0))
    tpcc.load()
    return db, tpcc


class TpccMem(Workload):
    name = "tpcc_mem"
    rate = 675.0
    has_baseline = True
    setup_repeats = 9

    def setup(self) -> None:
        self.db, self.tpcc = tpcc_stack(self.seed, self.ifc)

    def make_ops(self, client: int, count: int) -> list:
        # TPCCWorkload draws its own stream from TPCCConfig.seed.
        return [None] * count

    def run_op(self, client: int, op) -> bool:
        stats = self.tpcc.stats
        before = stats.serialization_aborts
        self.tpcc.run_one()
        # The 1% new-order rollbacks are the specification's, not
        # failures; with one client nothing can conflict.
        return stats.serialization_aborts == before

    def note_error(self, client: int, error: Exception) -> None:
        super().note_error(client, error)
        if self.tpcc.session.transaction is not None:
            self.tpcc.session.rollback()

    def counters(self) -> Dict[str, float]:
        stats = self.tpcc.stats
        return {"tpcc.new_order_commits": stats.new_order_commits,
                "tpcc.serialization_aborts": stats.serialization_aborts}

    def finish(self) -> List[str]:
        """TPC-C consistency conditions 1 and 2 (clause 3.3.2)."""
        session = self.tpcc.session
        problems = []
        for w_id, w_ytd in session.query("SELECT w_id, w_ytd FROM Warehouse"):
            d_ytd = session.execute(
                "SELECT SUM(d_ytd) FROM District WHERE d_w_id = ?",
                (w_id,)).scalar()
            # Both start at 10x the district figure and take the same
            # payments; float sums may differ in the last digits.
            if abs((w_ytd - 300000.0) - (d_ytd - 4 * 30000.0)) > 1e-3:
                problems.append("warehouse %d: w_ytd %r != sum(d_ytd) %r"
                                % (w_id, w_ytd, d_ytd))
        for w_id, d_id, next_o_id in session.query(
                "SELECT d_w_id, d_id, d_next_o_id FROM District"):
            newest = session.execute(
                "SELECT MAX(o_id) FROM Orders WHERE o_w_id = ? "
                "AND o_d_id = ?", (w_id, d_id)).scalar()
            if newest != next_o_id - 1:
                problems.append("district %d/%d: d_next_o_id %r, newest "
                                "order %r" % (w_id, d_id, next_o_id, newest))
        return problems


# ---------------------------------------------------------------------------
# durable_commit: transactions + WAL
# ---------------------------------------------------------------------------

class SteadyFlush:
    """``os.fsync`` that takes ``FLUSH_S``, however long the device took.

    The sandbox's virtual disk flushes in 0.1 to 0.4 ms depending on the
    hour, which moved this workload's throughput by half between two
    sessions of the same commit.  The real fsync still runs; the caller
    is then held until ``FLUSH_S`` has passed since it began, so the
    engine sees a device with one fixed flush time, slower than the
    sandbox's ever is."""

    FLUSH_S = 0.001

    def __init__(self):
        self.fsync = os.fsync

    def __call__(self, fd) -> None:
        start = time.perf_counter()
        self.fsync(fd)
        remaining = self.FLUSH_S - (time.perf_counter() - start)
        if remaining > 0:
            time.sleep(remaining)


class DurableCommit(Workload):
    name = "durable_commit"
    clients = 2
    rate = 1050.0
    setup_repeats = 9

    INSERT = "INSERT INTO ledger VALUES (?, ?, ?)"
    UPDATE = "UPDATE ledger SET amount = amount + 1 WHERE id = ?"
    KEY_RANGE = 10_000_000
    OPENING_ROWS = 2_000      # per client, loaded in one transaction

    def setup(self) -> None:
        if not isinstance(os.fsync, SteadyFlush):
            os.fsync = SteadyFlush()
        self.dir = tempfile.mkdtemp(prefix="wal-", dir=OUT_DIR)
        self.path = os.path.join(self.dir, "ledger.wal")
        authority = AuthorityState(idgen=SeededIdGenerator(self.seed))
        self.db = Database(authority, seed=self.seed, wal=self.path)
        self.db.connect().execute(
            "CREATE TABLE ledger (id INT PRIMARY KEY, account INT, "
            "amount INT)")
        self.teller = authority.create_principal("teller").id
        self.tags = []
        self.sessions = []
        for client in range(self.clients):
            tag = authority.create_tag("branch-%d" % client,
                                       owner=self.teller)
            process = IFCProcess(authority, self.teller)
            process.add_secrecy(tag.id)
            self.tags.append(tag.id)
            self.sessions.append(self.db.connect(process))
        # TransactionManager.begin and the heap have no latch of their
        # own, so the clients serialise begin + statements with this
        # one, the part a server's executor latch would play, and
        # commit outside it: WAL encode, write, fsync and the
        # leader/follower hand-off are what runs concurrently.
        self.latch = threading.Lock()
        #: Per client: acknowledged rows, their SUM(amount), user bytes.
        self.acked = [[0, 0, 0] for _ in range(self.clients)]
        # Opening balances: keys below the ones the op stream uses.
        for client, session in enumerate(self.sessions):
            session.begin()
            for i in range(self.OPENING_ROWS):
                session.execute(self.INSERT, (
                    (client + 1) * self.KEY_RANGE - 1 - i, i % 100, 100))
            session.commit()
            self.acked[client][0] += self.OPENING_ROWS
            self.acked[client][1] += self.OPENING_ROWS * 100

    def make_ops(self, client: int, count: int) -> list:
        rng = self.rng("client-%d" % client)
        base = client * self.KEY_RANGE
        return [(base + i, rng.randrange(100), rng.randrange(1, 1000))
                for i in range(count)]

    def run_op(self, client: int, op) -> bool:
        session = self.sessions[client]
        key, _account, amount = op
        user_bytes = 24                    # three 8-byte integers
        with self.latch:
            session.begin()
            ok = session.execute(self.INSERT, op).rowcount == 1
            if key % 4 == 3:
                # The client's previous row, already acknowledged.
                ok = (session.execute(self.UPDATE, (key - 1,)).rowcount == 1
                      and ok)
                amount += 1
                user_bytes += 8
        session.commit()
        acked = self.acked[client]
        acked[0] += 1
        acked[1] += amount
        acked[2] += user_bytes
        return ok

    def note_error(self, client: int, error: Exception) -> None:
        super().note_error(client, error)
        if self.sessions[client].transaction is not None:
            self.sessions[client].rollback()

    def counters(self) -> Dict[str, float]:
        return {"wal.user_bytes": sum(a[2] for a in self.acked)}

    def finish(self) -> List[str]:
        """Every acknowledged commit is readable after recovery of the
        log on a fresh instance."""
        self.db.close()
        fresh = Database(self.db.authority, seed=self.seed)
        start = time.perf_counter()
        fresh.recover(self.path)
        self.recover_s = time.perf_counter() - start
        reader = IFCProcess(self.db.authority, self.teller)
        for tag in self.tags:
            reader.add_secrecy(tag)
        row = fresh.connect(reader).execute(
            "SELECT COUNT(*), SUM(amount) FROM ledger").first()
        expected = (sum(a[0] for a in self.acked),
                    sum(a[1] for a in self.acked))
        if tuple(row) != expected:
            return ["recovered (rows, SUM(amount)) %r, acknowledged %r"
                    % (tuple(row), expected)]
        return []

    def close(self) -> None:
        super().close()
        if isinstance(os.fsync, SteadyFlush):
            os.fsync = os.fsync.fsync
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# analytic_scan / analytic_bounded: the batched executor, without and
# with a work_mem budget
# ---------------------------------------------------------------------------

class AnalyticScan(Workload):
    name = "analytic_scan"
    rate = 13.6

    FACT_ROWS = 40_000
    DIM_ROWS = 2_000
    TAGS = 16
    RUN = 64                  # consecutive rows that share a label
    GROUPS = 3_000
    DAYS = 400
    VARIANTS = 2              # parameter tuples per template
    WORK_MEM = 0              # REPRO_WORK_MEM; 0 leaves it unset

    TEMPLATES = {
        "filtered_agg": "SELECT COUNT(*), SUM(amount) FROM fact "
                        "WHERE day >= ? AND day < ?",
        "group_by": "SELECT grp, COUNT(*), SUM(amount) FROM fact "
                    "WHERE amount >= ? GROUP BY grp",
        "join_group_by": "SELECT d.name, COUNT(*), SUM(f.amount) "
                         "FROM fact f JOIN dim d ON d.id = f.dim_id "
                         "WHERE f.day >= ? GROUP BY d.name",
        "top_n": "SELECT id, amount FROM fact WHERE day >= ? "
                 "ORDER BY amount DESC, id LIMIT 20",
        "order_by": "SELECT id, amount, ts FROM fact "
                    "WHERE day >= ? AND day < ? ORDER BY amount, id",
        "distinct": "SELECT DISTINCT dim_id, grp FROM fact WHERE day >= ?",
        "index_range": "SELECT id, amount FROM fact "
                       "WHERE ts >= ? AND ts < ?",
        "count_all": "SELECT COUNT(*) FROM fact",
    }
    #: Templates whose result order the statement fixes.
    ORDERED = ("filtered_agg", "top_n", "order_by", "count_all")
    USED = tuple(TEMPLATES)

    def rng(self, purpose: str) -> random.Random:
        # Not keyed by the workload's name: analytic_bounded must get
        # the data and the parameters analytic_scan gets.
        return random.Random("analytic:%s:%d" % (purpose, self.seed))

    def plan(self, seconds: float) -> Tuple[int, int]:
        rounds = max(1, round(self.rate * seconds * self.scale
                              / len(self.USED)))
        # Warm-up is one fully checked run of every distinct statement.
        return len(self.USED) * self.VARIANTS, rounds * len(self.USED)

    def setup(self) -> None:
        scale = self.scale
        self.fact_rows = max(self.RUN * 10,
                             int(self.FACT_ROWS * scale) // self.RUN * self.RUN)
        self.dim_rows = max(50, int(self.DIM_ROWS * scale))
        self.groups = max(50, int(self.GROUPS * scale))
        authority = AuthorityState(idgen=SeededIdGenerator(self.seed))
        saved = os.environ.pop("REPRO_WORK_MEM", None)
        if self.WORK_MEM:
            os.environ["REPRO_WORK_MEM"] = str(
                max(8192, int(self.WORK_MEM * scale)))
        try:
            self.db = db = Database(authority, seed=self.seed)
        finally:
            os.environ.pop("REPRO_WORK_MEM", None)
            if saved is not None:
                os.environ["REPRO_WORK_MEM"] = saved
        loader = authority.create_principal("loader").id
        tags = [authority.create_tag("region-%d" % i, owner=loader).id
                for i in range(self.TAGS)]
        admin = db.connect()
        admin.execute("CREATE TABLE dim (id INT PRIMARY KEY, region INT, "
                      "name TEXT)")
        admin.execute("CREATE TABLE fact (id INT PRIMARY KEY, dim_id INT, "
                      "grp INT, day INT, amount INT, ts INT)")
        admin.execute("CREATE ORDERED INDEX fact_by_ts ON fact (ts)")
        admin.begin()
        for i in range(self.dim_rows):
            admin.insert("dim", id=i, region=i % 40, name="dim-%05d" % i)
        admin.commit()
        writers = []
        for tag in tags:
            process = IFCProcess(authority, loader)
            process.add_secrecy(tag)
            writers.append(db.connect(process))
        rng = self.rng("data")
        #: ``(tag index, (id, dim_id, grp, day, amount, ts))`` as loaded.
        self.fact: List[Tuple[int, tuple]] = []
        for run in range(self.fact_rows // self.RUN):
            tag_index = rng.randrange(self.TAGS)
            writer = writers[tag_index]
            writer.begin()
            for i in range(run * self.RUN, (run + 1) * self.RUN):
                row = (i, rng.randrange(self.dim_rows),
                       rng.randrange(self.groups), rng.randrange(self.DAYS),
                       rng.randrange(1, 10_000), i * 3 + rng.randrange(3))
                writer.insert("fact", id=row[0], dim_id=row[1], grp=row[2],
                              day=row[3], amount=row[4], ts=row[5])
                self.fact.append((tag_index, row))
            writer.commit()
        db.analyze()
        # The reader's label covers every second tag: Query by Label
        # suppresses the tuples of the other eight.
        reader = IFCProcess(authority, loader)
        for tag in tags[::2]:
            reader.add_secrecy(tag)
        self.session = db.connect(reader)

    # -- the Query-by-Label oracle ----------------------------------------
    def prepare(self) -> None:
        visible = [row for tag_index, row in self.fact if tag_index % 2 == 0]
        rng = self.rng("params")
        last_ts = self.fact_rows * 3
        self.statements: List[Tuple[str, tuple]] = []
        self.expected: List[Optional[list]] = []
        #: Per statement ``(rows, first row where the order is fixed)``:
        #: all the timed loop checks, so that checking costs it nothing.
        self.shape: List[Tuple[int, Optional[tuple]]] = []
        self.result_digests = defaultdict(list)
        # Draw for every template, used or not, so that analytic_bounded
        # gets the parameters analytic_scan gets from the same seed.  The
        # ranges are narrow: what differs between two seeds should be
        # which rows qualify, not how many.
        for template in self.TEMPLATES:
            for _ in range(self.VARIANTS):
                lo = rng.randrange(20, 40)
                params = {
                    "filtered_agg": (lo, lo + 250),
                    "group_by": (rng.randrange(100, 300),),
                    "join_group_by": (lo,),
                    "top_n": (lo,),
                    "order_by": (lo, lo + 300),
                    "distinct": (lo,),
                    "index_range": (last_ts // 4 + lo * 10,
                                    last_ts // 4 + lo * 10 + last_ts // 20),
                    "count_all": (),
                }[template]
                if template not in self.USED:
                    continue
                rows = self.oracle(template, params, visible)
                self.statements.append((template, params))
                self.expected.append(rows)
                self.shape.append(
                    (len(rows), rows[0] if template in self.ORDERED else None))
                self.result_digests[template].append(digest(rows))

    def oracle(self, template: str, params: tuple, visible: list) -> list:
        """What the statement must return, in plain Python, from the
        rows generated and the reader's label."""
        if template == "count_all":
            return [(len(visible),)]
        if template == "filtered_agg":
            amounts = [r[4] for r in visible if params[0] <= r[3] < params[1]]
            return [(len(amounts), sum(amounts))]
        if template == "group_by":
            groups = defaultdict(lambda: [0, 0])
            for r in visible:
                if r[4] >= params[0]:
                    entry = groups[r[2]]
                    entry[0] += 1
                    entry[1] += r[4]
            return sorted((k, v[0], v[1]) for k, v in groups.items())
        if template == "join_group_by":
            groups = defaultdict(lambda: [0, 0])
            for r in visible:
                if r[3] >= params[0]:
                    entry = groups["dim-%05d" % r[1]]
                    entry[0] += 1
                    entry[1] += r[4]
            return sorted((k, v[0], v[1]) for k, v in groups.items())
        if template == "top_n":
            rows = [(r[0], r[4]) for r in visible if r[3] >= params[0]]
            return sorted(rows, key=lambda r: (-r[1], r[0]))[:20]
        if template == "order_by":
            rows = [(r[0], r[4], r[5]) for r in visible
                    if params[0] <= r[3] < params[1]]
            return sorted(rows, key=lambda r: (r[1], r[0]))
        if template == "distinct":
            return sorted({(r[1], r[2]) for r in visible
                           if r[3] >= params[0]})
        if template == "index_range":
            return sorted((r[0], r[4]) for r in visible
                          if params[0] <= r[5] < params[1])
        raise ValueError(template)

    def make_ops(self, client: int, count: int) -> list:
        verify = [("verify", index) for index in range(len(self.statements))]
        timed = []
        per_round = len(self.USED)
        for i in range(count - len(verify)):
            template_index = i % per_round
            variant = (i // per_round) % self.VARIANTS
            timed.append(("run", template_index * self.VARIANTS + variant))
        return verify + timed

    def run_op(self, client: int, op) -> bool:
        kind, index = op
        template, params = self.statements[index]
        rows = self.session.execute(self.TEMPLATES[template], params).rows
        if kind == "verify":
            got = [tuple(row) for row in rows]
            if template not in self.ORDERED:
                got.sort()
            ok = got == self.expected[index]
            self.expected[index] = None        # checked; free the rows
            return ok
        count, first = self.shape[index]
        return len(rows) == count and (first is None
                                       or tuple(rows[0]) == first)

    def finish(self) -> List[str]:
        spill = self.db.stats()["spill"]
        spilled = sorted(k for k, v in spill.items() if v)
        if spilled:
            return ["analytic_scan spilled: %s" % spilled]
        return []


class AnalyticBounded(AnalyticScan):
    name = "analytic_bounded"
    rate = 4.8
    WORK_MEM = 1_048_576
    USED = ("group_by", "join_group_by", "order_by", "distinct")

    def finish(self) -> List[str]:
        spill = self.db.stats()["spill"]
        return ["analytic_bounded: no %s spilled" % what
                for what, field in (("sort", "sort_spills"),
                                    ("aggregate", "agg_spills"),
                                    ("join", "spills"))
                if not spill[field]]


# ---------------------------------------------------------------------------
# adhoc_sql: parse, optimize and plan on every statement
# ---------------------------------------------------------------------------

class AdhocSql(Workload):
    name = "adhoc_sql"
    rate = 1200.0
    setup_repeats = 9

    TEMPLATES = ("pk_lookup", "range_limit", "join2", "join3", "group_by",
                 "in_list")

    def setup(self) -> None:
        self.db, self.tpcc = tpcc_stack(self.seed, self.ifc)
        self.session = self.tpcc.session

    def prepare(self) -> None:
        """Read the loaded tables once; the oracle answers every
        statement from these copies in plain Python."""
        query = self.session.query
        self.items = {r[0]: (r[1], r[2]) for r in query(
            "SELECT i_id, i_name, i_price FROM Item")}
        self.customers = defaultdict(list)
        for w, d, c, discount in query(
                "SELECT c_w_id, c_d_id, c_id, c_discount FROM Customer"):
            self.customers[w, d].append((c, discount))
        self.orders = {(r[0], r[1], r[2]): r[3] for r in query(
            "SELECT o_w_id, o_d_id, o_id, o_c_id FROM Orders")}
        self.lines = defaultdict(list)
        for w, d, o, number, item, quantity, amount in query(
                "SELECT ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, "
                "ol_quantity, ol_amount FROM OrderLine"):
            self.lines[w, d, o].append((number, item, quantity, amount))
        self.stock = {(r[0], r[1]): r[2] for r in query(
            "SELECT s_w_id, s_i_id, s_quantity FROM Stock")}
        self.texts = set()

    def make_ops(self, client: int, count: int) -> list:
        rng = self.rng("ops")
        ops = []
        while len(ops) < count:
            template = self.TEMPLATES[len(ops) % len(self.TEMPLATES)]
            sql, expected = getattr(self, "_" + template)(rng)
            if sql not in self.texts:      # every statement text is new
                self.texts.add(sql)
                ops.append((sql, sorted(expected)))
        self.generated = count
        return ops

    def _district(self, rng) -> Tuple[int, int]:
        return rng.randint(1, 2), rng.randint(1, 4)

    def _pk_lookup(self, rng):
        i_id = rng.randint(1, len(self.items))
        price = "%.4f" % rng.uniform(0, 100)
        name, i_price = self.items[i_id]
        return ("SELECT i_name, i_price FROM Item WHERE i_id = %d "
                "AND i_price >= %s" % (i_id, price),
                [(name, i_price)] if i_price >= float(price) else [])

    def _range_limit(self, rng):
        w, d = self._district(rng)
        lo = rng.randint(1, 20)
        cap = "%.4f" % rng.uniform(0.1, 0.5)
        rows = sorted(c for c in self.customers[w, d]
                      if c[0] >= lo and c[1] < float(cap))[:5]
        return ("SELECT c_id, c_discount FROM Customer WHERE c_w_id = %d "
                "AND c_d_id = %d AND c_id >= %d AND c_discount < %s "
                "ORDER BY c_id LIMIT 5" % (w, d, lo, cap), rows)

    def _join2(self, rng):
        w, d = self._district(rng)
        o = rng.randint(1, 15)
        cap = "%.2f" % rng.uniform(0, 9999)
        customer = self.orders[w, d, o]
        rows = [(customer, number, item)
                for number, item, _q, amount in self.lines[w, d, o]
                if amount <= float(cap)]
        return ("SELECT o.o_c_id, ol.ol_number, ol.ol_i_id FROM Orders o "
                "JOIN OrderLine ol ON ol.ol_w_id = o.o_w_id "
                "AND ol.ol_d_id = o.o_d_id AND ol.ol_o_id = o.o_id "
                "WHERE o.o_w_id = %d AND o.o_d_id = %d AND o.o_id = %d "
                "AND ol.ol_amount <= %s" % (w, d, o, cap), rows)

    def _join3(self, rng):
        w, d = self._district(rng)
        o = rng.randint(1, 15)
        price = "%.4f" % rng.uniform(0, 60)
        rows = [(number, self.items[item][0])
                for number, item, _q, _a in self.lines[w, d, o]
                if self.items[item][1] >= float(price)]
        return ("SELECT ol.ol_number, i.i_name FROM Orders o "
                "JOIN OrderLine ol ON ol.ol_w_id = o.o_w_id "
                "AND ol.ol_d_id = o.o_d_id AND ol.ol_o_id = o.o_id "
                "JOIN Item i ON i.i_id = ol.ol_i_id "
                "WHERE o.o_w_id = %d AND o.o_d_id = %d AND o.o_id = %d "
                "AND i.i_price >= %s" % (w, d, o, price), rows)

    def _group_by(self, rng):
        w, d = self._district(rng)
        lo = rng.randint(1, 11)
        cap = "%.2f" % rng.uniform(0, 9999)
        rows = []
        for o in range(lo, lo + 5):
            quantities = [q for _n, _i, q, amount in self.lines[w, d, o]
                          if amount <= float(cap)]
            if quantities:
                rows.append((o, len(quantities), sum(quantities)))
        return ("SELECT ol_o_id, COUNT(*), SUM(ol_quantity) FROM OrderLine "
                "WHERE ol_w_id = %d AND ol_d_id = %d AND ol_o_id >= %d "
                "AND ol_o_id < %d AND ol_amount <= %s GROUP BY ol_o_id"
                % (w, d, lo, lo + 5, cap), rows)

    def _in_list(self, rng):
        w = rng.randint(1, 2)
        wanted = rng.sample(range(1, len(self.items) + 1), 4)
        return ("SELECT s_i_id, s_quantity FROM Stock WHERE s_w_id = %d "
                "AND s_i_id IN (%d, %d, %d, %d)" % (w, *wanted),
                [(i, self.stock[w, i]) for i in wanted])

    def run_op(self, client: int, op) -> bool:
        sql, expected = op
        rows = self.session.execute(sql).rows
        return sorted(tuple(row) for row in rows) == expected

    def finish(self) -> List[str]:
        if len(self.texts) != self.generated:
            return ["%d ops but %d distinct statement texts"
                    % (self.generated, len(self.texts))]
        return []


WORKLOADS = {cls.name: cls for cls in (
    CartelWeb, TpccMem, DurableCommit, AnalyticScan, AnalyticBounded,
    AdhocSql)}
