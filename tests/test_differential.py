"""Differential-execution harness for the unified query/DML planner.

Two identical databases execute one seeded random stream of
SELECT/UPDATE/DELETE/INSERT statements over small labeled tables:

* the **optimized** universe plans normally — cost-based access paths
  (equality probes, ``IndexRangeScan`` range scans), join strategies,
  pushdown, and stats-driven replanning all enabled;
* the **reference** universe runs with ``Database(naive_plans=True)``:
  forced full heap scans, nested-loop joins, no pushdown, and the same
  operators at batch size 1 — every candidate chunk is one version, so
  the scan leaf checks ``touch``/``visible``/``covers`` per tuple —
  the slowest, most obviously correct interpretation of every
  statement.

After every statement both universes must agree on the outcome (result
rows *and their labels* for SELECT, rowcount for DML, exception type on
failure) and, after every write, on the complete table state including
per-row labels.  None of the optimizer's choices may change *what* a
statement sees or touches — that is the paper's section 7.1 invariant
(visibility is decided below every optimization decision), and this
harness is its executable form.

The statement stream is adversarial about **joins**: besides
single-table DML it generates multi-join SELECTs over 2–4 tables with
mixed equality/range join predicates and duplicate-heavy join keys
(self-joins on a 10-value foreign key, equality on an unindexed
column so the optimizer must hash-join).  Every such plan shape —
index-nested-loop with batched probe dedup, hash join, nested loop,
LEFT JOIN NULL extension — must agree with the naive executor; the
``work_mem`` parametrization additionally re-runs the stream under
64KB and 1KB budgets so grace-spilled hash joins are cross-checked
row-for-row (rows, labels, rowcounts, error types) against both the
in-memory optimized and the naive execution.

A third leg, ``test_differential_inlined_literals``, runs the stream
on two optimized databases, one of them with every ``?`` written into
its text as a literal: a text's plan is then the one its plan key's
first text made (``repro.sql.template``), and nothing it returns or
writes may differ from the parameterized run.

Seeds come from the environment so CI can rotate them
(``REPRO_DIFF_SEED``; on failure every assertion message carries the
seed for reproduction).  ``REPRO_DIFF_STATEMENTS`` scales the run.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
from repro.db import Database
from repro.db.physical import IndexRangeScan, IndexScan, PreparedDML, Scan
from repro.errors import ReproError

FIXED_SEED = 0x1FDB
SEED = int(os.environ.get("REPRO_DIFF_SEED", str(FIXED_SEED)), 0)
N_STATEMENTS = int(os.environ.get("REPRO_DIFF_STATEMENTS", "600"))

SCHEMA = """
CREATE TABLE readings (id INT PRIMARY KEY, device INT, ts INT,
                       kind TEXT, value FLOAT);
CREATE ORDERED INDEX readings_dev_ts ON readings (device, ts);
CREATE INDEX readings_kind ON readings (kind);
CREATE TABLE devices (device INT PRIMARY KEY, owner TEXT, zone INT);
CREATE ORDERED INDEX devices_zone ON devices (zone);
CREATE TABLE zones (zone INT PRIMARY KEY, region TEXT);
"""

KINDS = ("temp", "gps", "speed", "fuel")


class Universe:
    """One database plus a public (empty-label) and a secret session.

    ``batch_size`` (optimized universe only; the naive reference always
    runs at batch size 1) exercises the executor at arbitrary
    batch boundaries — ``None`` means the engine default / the
    ``REPRO_BATCH_SIZE`` environment override.
    """

    def __init__(self, *, naive: bool, batch_size=None, work_mem=None,
                 inline: bool = False):
        #: Run every statement with its ``?`` parameters written into
        #: the text as SQL literals (:func:`inline_params`).
        self.inline = inline
        authority = AuthorityState(idgen=SeededIdGenerator(777))
        self.db = Database(authority, naive_plans=naive, seed=777,
                           batch_size=batch_size, work_mem=work_mem)
        owner = authority.create_principal("owner")
        self.tag = authority.create_tag("diff-secret", owner=owner.id)
        secret = IFCProcess(authority, owner.id)
        secret.add_secrecy(self.tag.id)
        self.sessions = {
            "public": self.db.connect(IFCProcess(authority, owner.id)),
            "secret": self.db.connect(secret),
        }
        self.sessions["public"].execute_script(SCHEMA)

    def state(self):
        """Full contents of every table — values *and* labels — as seen
        by the secret session (whose label covers every row)."""
        reader = self.sessions["secret"]
        out = {}
        for table in ("readings", "devices", "zones"):
            rows = reader.execute("SELECT * FROM " + table).rows
            out[table] = sorted(
                ((tuple(r), tuple(sorted(r.label))) for r in rows),
                key=repr)
        return out


def inline_params(sql: str, params) -> str:
    """``sql`` with each ``?`` replaced by its parameter written as a
    SQL literal — ``repr`` of a float reads back as the same float, and
    a negative number is a minus applied to a literal."""
    pieces = sql.split("?")
    assert len(pieces) == len(params) + 1, (sql, params)
    literals = ["'%s'" % value.replace("'", "''") if isinstance(value, str)
                else repr(value) for value in params]
    return "".join(piece + literal for piece, literal
                   in zip(pieces, literals)) + pieces[-1]


def run_one(universe: Universe, op: dict):
    """Execute one generated statement; normalize the outcome."""
    session = universe.sessions[op["session"]]
    sql, params = op["sql"], op.get("params", ())
    if universe.inline:
        sql, params = inline_params(sql, params), ()
    try:
        result = session.execute(sql, params)
    except ReproError as exc:
        return ("error", type(exc).__name__)
    if op["kind"] == "select":
        rows = sorted(((tuple(r), tuple(sorted(r.label)))
                       for r in result.rows), key=repr)
        return ("rows", rows)
    return ("rowcount", result.rowcount)


class StatementGenerator:
    """Seeded random SELECT/UPDATE/DELETE/INSERT statements over the
    harness schema, weighted so tables stay populated and the write
    rule fires sometimes (cross-label DML raising IFCViolation is an
    outcome both universes must agree on too)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.next_id = 0

    def session_kind(self) -> str:
        return "secret" if self.rng.random() < 0.3 else "public"

    def insert_reading(self) -> dict:
        rng = self.rng
        self.next_id += 1
        params = (self.next_id, rng.randint(0, 9), rng.randint(0, 999),
                  rng.choice(KINDS), round(rng.uniform(0, 100), 3))
        return {"kind": "insert", "session": self.session_kind(),
                "sql": "INSERT INTO readings VALUES (?, ?, ?, ?, ?)",
                "params": params}

    def _conjunct(self, alias: str = ""):
        rng = self.rng
        prefix = alias + "." if alias else ""
        col = rng.choice(("id", "device", "ts", "kind", "value"))
        if col == "kind":
            return "%skind = ?" % prefix, [rng.choice(KINDS)]
        if col == "id":
            value = rng.randint(0, max(self.next_id, 1))
        elif col == "device":
            value = rng.randint(0, 9)
        elif col == "ts":
            value = rng.randint(0, 999)
        else:
            value = round(rng.uniform(0, 100), 3)
        if rng.random() < 0.25:
            span = {"id": 40, "device": 3, "ts": 150}.get(col, 20.0)
            return ("%s%s BETWEEN ? AND ?" % (prefix, col),
                    [value, value + rng.uniform(0, span)
                     if col == "value" else value + rng.randint(0, span)])
        op = rng.choice(("=", "<", "<=", ">", ">="))
        return "%s%s %s ?" % (prefix, col, op), [value]

    def predicate(self, alias: str = ""):
        parts, params = [], []
        for _ in range(self.rng.randint(1, 3)):
            text, values = self._conjunct(alias)
            parts.append(text)
            params.extend(values)
        return " AND ".join(parts), params

    def statement(self) -> dict:
        rng = self.rng
        roll = rng.random()
        if roll < 0.40:
            return self.select()
        if roll < 0.62:
            return self.update()
        if roll < 0.76:
            return self.delete()
        if roll < 0.96:
            return self.insert_reading()
        return {"kind": "analyze", "session": "public",
                "sql": "ANALYZE readings"}

    def select(self) -> dict:
        rng = self.rng
        roll = rng.random()
        if roll < 0.40:
            return self.select_join()
        if roll < 0.70:
            return self.select_sorted()
        where, params = self.predicate()
        if rng.random() < 0.5:
            sql = ("SELECT device, COUNT(*), MAX(value) FROM readings "
                   "WHERE %s GROUP BY device" % where)
        else:
            sql = "SELECT * FROM readings WHERE " + where
        return {"kind": "select", "session": self.session_kind(),
                "sql": sql, "params": params}

    #: Multi-join SELECT templates (2–4 tables).  Join keys are chosen
    #: adversarially: ``r.device`` has only 10 distinct values over
    #: hundreds of readings (duplicate-heavy index-loop probes),
    #: ``ts`` and ``owner`` have no usable index (forced hash joins —
    #: the ones that spill under a work_mem budget), and the templates
    #: mix equality joins with range/inequality residuals and LEFT
    #: JOIN NULL extension.  ``{w}`` receives a seeded predicate on the
    #: ``r`` alias to keep outputs bounded.
    JOIN_TEMPLATES = (
        # 2 tables, indexed FK: batched IndexLoopJoin probe dedup.
        ("SELECT r.id, r.ts, r.value, d.owner FROM readings r "
         "JOIN devices d ON d.device = r.device WHERE {w}"),
        # 2 tables, unindexed equality key: HashJoin (spills when
        # work_mem is tight), duplicate-heavy on purpose.
        ("SELECT r.id, r2.id, r2.value FROM readings r "
         "JOIN readings r2 ON r2.ts = r.ts WHERE {w}"),
        # Mixed eq + range join condition: hash join with residual.
        ("SELECT r.id, r2.id FROM readings r "
         "JOIN readings r2 ON r2.ts = r.ts AND r2.value >= r.value "
         "WHERE {w}"),
        # LEFT JOIN over the unindexed key: NULL-extended spill probes.
        ("SELECT r.id, r2.id FROM readings r "
         "LEFT JOIN readings r2 ON r2.ts = r.ts AND r2.kind = r.kind "
         "WHERE {w}"),
        # 3 tables: index loop + index loop over tiny zones.
        ("SELECT r.id, d.owner, z.region FROM readings r "
         "JOIN devices d ON d.device = r.device "
         "JOIN zones z ON z.zone = d.zone WHERE {w}"),
        # 3 tables with a pure non-equi join: nested loop (batched
        # predicate over the inner side) above an index loop.
        ("SELECT r.id, d.owner, z.region FROM readings r "
         "JOIN devices d ON d.device = r.device "
         "JOIN zones z ON z.zone < d.zone WHERE {w}"),
        # 4 tables, duplicate-heavy self-join + dimension chain.
        ("SELECT r.id, r2.id, d.owner, z.region FROM readings r "
         "JOIN readings r2 ON r2.device = r.device "
         "JOIN devices d ON d.device = r.device "
         "JOIN zones z ON z.zone = d.zone "
         "WHERE {w} AND r2.value <= r.value"),
        # Aggregation over a hash join (labels union across tables).
        ("SELECT r2.kind, COUNT(*), MAX(r2.value) FROM readings r "
         "JOIN readings r2 ON r2.ts = r.ts WHERE {w} "
         "GROUP BY r2.kind"),
        # Narrow projection over a join: pushdown strips every column
        # the plan does not read from both scans — the one-column
        # output (and its joined labels) must not notice.
        ("SELECT d.zone FROM readings r "
         "JOIN devices d ON d.device = r.device WHERE {w}"),
        # Aggregation over the duplicate-heavy self-join with nothing
        # projected but the join key: both scans run at minimum width.
        ("SELECT COUNT(*) FROM readings r "
         "JOIN readings r2 ON r2.device = r.device WHERE {w}"),
    )

    def select_join(self) -> dict:
        where, params = self.predicate("r")
        sql = self.rng.choice(self.JOIN_TEMPLATES).format(w=where)
        return {"kind": "select", "session": self.session_kind(),
                "sql": sql, "params": params}

    #: Memory-bounded Sort/Aggregate/Distinct/Top-N templates.  The
    #: harness compares result *sets*, so every LIMIT template orders
    #: by a chain ending in the unique ``id`` (or the full group key):
    #: a tie at the cut boundary would otherwise let both universes
    #: legally return different-but-correct rows.  Under the 1KB
    #: work_mem leg these are the statements that force external merge
    #: sort runs and grace-partitioned aggregation (readings holds
    #: ~250 rows ≈ 25KB).
    SORT_TEMPLATES = (
        # Full external sort (runs spooled + k-way merged at 1KB).
        "SELECT r.id, r.value FROM readings r WHERE {w} "
        "ORDER BY r.value DESC, r.id",
        # Top-N bounded heap, unique tail key.
        "SELECT r.id, r.kind, r.value FROM readings r WHERE {w} "
        "ORDER BY r.kind, r.value, r.id LIMIT 7",
        # Top-N with offset; heap bound is limit+offset.
        "SELECT r.id FROM readings r WHERE {w} "
        "ORDER BY r.ts, r.id LIMIT 5 OFFSET 3",
        # Heap-busting limit: TopN falls back to the external sort.
        "SELECT r.id, r.device, r.ts FROM readings r WHERE {w} "
        "ORDER BY r.device, r.ts, r.id LIMIT 200 OFFSET 2",
        # Grace-partitioned DISTINCT (duplicate-heavy key pair).
        "SELECT DISTINCT r.device, r.kind FROM readings r WHERE {w}",
        # DISTINCT below its Sort: the sort sees the distinct rows.
        "SELECT DISTINCT r.kind FROM readings r WHERE {w} "
        "ORDER BY r.kind",
        # Grace aggregation, then Top-N over the group rows.
        "SELECT r.device, COUNT(*), MIN(r.value), MAX(r.value) "
        "FROM readings r WHERE {w} GROUP BY r.device "
        "ORDER BY r.device LIMIT 4",
        # Wide aggregate state over the high-cardinality group key.
        # SUM stays on an INT column: float summation is
        # order-sensitive, and the access path legally reorders rows.
        "SELECT r.ts, COUNT(*), SUM(r.device) FROM readings r WHERE {w} "
        "GROUP BY r.ts ORDER BY COUNT(*) DESC, r.ts LIMIT 6",
    )

    def select_sorted(self) -> dict:
        rng = self.rng
        if rng.random() < 0.5:
            where, params = self.predicate("r")
        else:
            # Single-table sorts don't explode like joins, so half the
            # time keep most of the table: a handful of filtered rows
            # fits any budget, and the 1KB leg must genuinely spool
            # sort runs and grace-partition aggregate state.
            where, params = "r.value >= ?", [round(rng.uniform(0, 25), 3)]
        sql = rng.choice(self.SORT_TEMPLATES).format(w=where)
        return {"kind": "select", "session": self.session_kind(),
                "sql": sql, "params": params}

    def update(self) -> dict:
        rng = self.rng
        where, params = self.predicate()
        assignment = rng.choice((
            ("value = value + ?", [round(rng.uniform(-5, 5), 3)]),
            ("kind = ?", [rng.choice(KINDS)]),
            ("ts = ?", [rng.randint(0, 999)]),          # indexed column
            ("device = ?, value = ?",
             [rng.randint(0, 9), round(rng.uniform(0, 100), 3)]),
        ))
        return {"kind": "update", "session": self.session_kind(),
                "sql": "UPDATE readings SET %s WHERE %s"
                       % (assignment[0], where),
                "params": assignment[1] + params}

    def delete(self) -> dict:
        where, params = self.predicate()
        return {"kind": "delete", "session": self.session_kind(),
                "sql": "DELETE FROM readings WHERE " + where,
                "params": params}


def _populate(universes, gen: StatementGenerator) -> None:
    rng = gen.rng
    device_rows = [(d, "owner%d" % (d % 4), d % 3) for d in range(10)]
    zone_rows = [(z, "region%d" % (z % 2)) for z in range(3)]
    inserts = [gen.insert_reading() for _ in range(250)]
    for universe in universes:
        for device, owner, zone in device_rows:
            universe.sessions["public"].execute(
                "INSERT INTO devices VALUES (?, ?, ?)",
                (device, owner, zone))
        for zone, region in zone_rows:
            universe.sessions["public"].execute(
                "INSERT INTO zones VALUES (?, ?)", (zone, region))
    for op in inserts:
        for universe in universes:
            status = run_one(universe, op)
            assert status[0] == "rowcount", status
    for universe in universes:
        universe.sessions["public"].execute("ANALYZE")


def _plan_shapes(db) -> set:
    shapes = set()
    for _stmt, prepared, _tables in db._plan_cache.values():
        if isinstance(prepared, PreparedDML):
            shapes.add(type(prepared.plan))
    return shapes


def _run_differential(seed: int, n_statements: int,
                      batch_size=None, work_mem=None,
                      require_spill: bool = False) -> None:
    tag = "[REPRO_DIFF_SEED=%d]" % seed
    rng = random.Random(seed)
    gen = StatementGenerator(rng)
    optimized = Universe(naive=False, batch_size=batch_size,
                         work_mem=work_mem)
    reference = Universe(naive=True, work_mem=0)
    # The reference is per-tuple whatever REPRO_BATCH_SIZE says.
    assert reference.db.planner.batch_size == 1, tag
    assert reference.db.prepare_select(
        reference.db.parse("SELECT * FROM readings"), None
    ).plan.batch_size == 1, tag
    universes = (optimized, reference)
    _populate(universes, gen)
    assert optimized.state() == reference.state(), \
        "%s populated state diverged" % tag
    spilled_before = counters.snapshot()["spill"]

    executed = 0
    optimized_shapes, reference_shapes = set(), set()
    for i in range(n_statements):
        op = gen.statement()
        got = run_one(optimized, op)
        want = run_one(reference, op)
        assert got == want, (
            "%s statement %d diverged\n  op: %r\n  optimized: %r\n"
            "  reference: %r" % (tag, i, op, got, want))
        if op["kind"] in ("update", "delete", "insert"):
            assert optimized.state() == reference.state(), (
                "%s table state diverged after statement %d: %r"
                % (tag, i, op))
        # Sample the cached DML plans each round (ANALYZE evicts them).
        optimized_shapes |= _plan_shapes(optimized.db)
        reference_shapes |= _plan_shapes(reference.db)
        executed += 1

    # Sanity: the optimized side must actually have exercised indexed
    # DML plans — otherwise this was full-scan vs full-scan and proved
    # nothing about the unified planner — while the reference side must
    # never have strayed from full scans.
    assert optimized_shapes & {IndexScan, IndexRangeScan}, optimized_shapes
    assert reference_shapes <= {Scan}, reference_shapes
    # Under a tight budget the run must actually have exercised the
    # grace-spill machinery — hash joins, external sorts, AND grace
    # aggregation/distinct — or the work_mem matrix proves nothing.
    if require_spill:
        spilled_after = counters.snapshot()["spill"]
        for counter in ("spills", "sort_spills", "agg_spills"):
            assert spilled_after[counter] > spilled_before[counter], (
                "%s no %s under work_mem=%r" % (tag, counter, work_mem))


def test_differential_seeded():
    """The headline run: 500+ statements under the configured seed
    (the floor holds even when REPRO_DIFF_STATEMENTS is set lower)."""
    _run_differential(SEED, max(N_STATEMENTS, 500))


def test_differential_shifted_seed():
    """A short independent run on a derived seed, so a single lucky
    seed cannot hide a divergence class entirely."""
    _run_differential(SEED ^ 0x5EED, 150)


def test_differential_batch_size_one():
    """Degenerate one-row batches: every batch boundary that can exist
    does exist, so any result that depends on where a batch ends (the
    label-run memo, the MVCC fast path, limit/offset slicing) diverges
    from the naive reference here."""
    _run_differential(SEED ^ 0xBA7C1, 150, batch_size=1)


def test_differential_batch_size_two():
    """Two-row batches: the smallest size where a batch can actually
    mix labels, visibilities, and predicate outcomes."""
    _run_differential(SEED ^ 0xBA7C2, 150, batch_size=2)


def test_differential_batch_size_32():
    """A batch size (32) that cuts the ~250-row tables into several
    chunks, each holding a mix of labels and versions."""
    _run_differential(SEED ^ 0x70C5, 150, batch_size=32)


@pytest.mark.parametrize("work_mem,batch_size", [
    (64 * 1024, None),
    (64 * 1024, 1),
    (1024, None),
    (1024, 1),
])
def test_differential_work_mem(work_mem, batch_size):
    """The spill matrix: the same adversarial join stream under 64KB
    and 1KB budgets, at the default and degenerate batch sizes.  A 1KB
    budget forces every hash-join build over a few rows through the
    grace partitioner (recursively), so spilled and in-memory
    executions are cross-checked row-for-row against the naive
    executor — including labels, rowcounts, and error types."""
    _run_differential(SEED ^ 0x53A1 ^ work_mem ^ (batch_size or 0), 120,
                      batch_size=batch_size, work_mem=work_mem,
                      require_spill=(work_mem <= 1024))


def test_differential_inlined_literals():
    """The seeded stream twice on optimized databases: once with its
    ``?`` parameters, once with every parameter written into the text
    as a SQL literal — so nearly every statement is a new text, run by
    the plan its plan key's first text made (``sql.template``).  Rows,
    labels, rowcounts, error types and, after every write, the table
    state must agree statement by statement, and some texts must run a
    plan another text made (most are of a shape new to the run)."""
    seed = SEED ^ 0x11E7
    tag = "[REPRO_DIFF_SEED=%d]" % seed
    gen = StatementGenerator(random.Random(seed))
    parameterized = Universe(naive=False)
    inlined = Universe(naive=False, inline=True)
    universes = (parameterized, inlined)
    _populate(universes, gen)
    assert parameterized.state() == inlined.state(), \
        "%s populated state diverged" % tag
    before = counters.snapshot()["plans"]["key_hits"]
    for i in range(max(N_STATEMENTS // 2, 300)):
        op = gen.statement()
        want = run_one(parameterized, op)
        got = run_one(inlined, op)
        assert got == want, (
            "%s statement %d diverged\n  op: %r\n  inlined: %r\n"
            "  parameterized: %r" % (tag, i, op, got, want))
        if op["kind"] in ("update", "delete", "insert"):
            assert inlined.state() == parameterized.state(), (
                "%s table state diverged after statement %d: %r"
                % (tag, i, op))
    assert counters.snapshot()["plans"]["key_hits"] - before > i // 10, tag


# ---------------------------------------------------------------------------
# label layout × fold: the set-at-a-time executor against the reference
# ---------------------------------------------------------------------------

#: Row → secrecy-tag index.  The reader covers tags 0–7 of 16.
LABEL_LAYOUTS = {
    "uniform": lambda i: 0,                 # one label, one run
    "alternating": lambda i: i % 16,        # run length 1, 16 labels
    "straddling": lambda i: (i // 5) % 4,   # runs of 5 across batches of 7
    "all_suppressed": lambda i: 15,         # nothing is visible
}

#: NULL-bearing (``x``) and mixed-type (``CASE``: INT or TEXT per row)
#: aggregate arguments; the mixed ones must fail with the same error
#: type in both universes where comparing or adding them fails.
_MIXED = "CASE WHEN f.id % 2 = 0 THEN f.x ELSE f.t END"
_AGGREGATES = ("COUNT(*), COUNT(f.x), COUNT(DISTINCT f.x), SUM(f.x), "
               "AVG(f.x), MIN(f.x), MAX(f.x)")
FOLD_QUERIES = (
    "SELECT %s FROM f" % _AGGREGATES,
    "SELECT %s FROM f WHERE f.x >= 3" % _AGGREGATES,
    "SELECT COUNT(%s), COUNT(DISTINCT %s) FROM f" % (_MIXED, _MIXED),
    "SELECT MIN(%s) FROM f" % _MIXED,
    "SELECT MAX(%s) FROM f" % _MIXED,
    "SELECT SUM(%s) FROM f" % _MIXED,
    "SELECT f.g, %s FROM f GROUP BY f.g" % _AGGREGATES,
    "SELECT f.g, f.k, %s FROM f GROUP BY f.g, f.k" % _AGGREGATES,
    "SELECT f.g, MAX(%s) FROM f GROUP BY f.g" % _MIXED,
    "SELECT DISTINCT f.g, f.x FROM f",
    "SELECT DISTINCT f.g FROM f ORDER BY f.g",
    # DISTINCT is the aggregation with no aggregates: over a join, over
    # a GROUP BY … HAVING, and under a Top-N cut.
    "SELECT DISTINCT f.g, d.name FROM f JOIN d ON d.w = f.g",
    "SELECT DISTINCT f.k, COUNT(*) FROM f GROUP BY f.g, f.k "
    "HAVING COUNT(*) > 2",
    "SELECT DISTINCT f.g, f.k FROM f ORDER BY f.g DESC, f.k "
    "LIMIT 4 OFFSET 2",
    "SELECT f.id, f.g FROM f ORDER BY f.g DESC, f.x, f.id",
    "SELECT f.id FROM f ORDER BY f.g DESC, f.id LIMIT 5 OFFSET 3",
    "SELECT f.id, f.x FROM f ORDER BY f.x, f.id LIMIT 4",
    # g and w carry no index: hash joins, inner and LEFT, with residuals.
    "SELECT f.id, d.name FROM f JOIN d ON d.w = f.g AND d.k < f.x",
    "SELECT f.id, d.name FROM f LEFT JOIN d ON d.w = f.g AND d.k < f.x",
    "SELECT d.name, COUNT(*), SUM(f.x) FROM f JOIN d ON d.w = f.g "
    "GROUP BY d.name",
)


def _layout_universe(layout: str, *, naive: bool, batch_size):
    """96 fact rows labelled by ``layout`` (every third one endorsed
    with an integrity tag) and a 12-row dimension, half of it secret."""
    authority = AuthorityState(idgen=SeededIdGenerator(4711))
    kwargs = {"work_mem": 0} if naive else {"batch_size": batch_size}
    db = Database(authority, naive_plans=naive, seed=4711, **kwargs)
    owner = authority.create_principal("owner")
    tags = [authority.create_tag("layout-%d" % i, owner=owner.id)
            for i in range(16)]
    endorsed = authority.create_tag("vetted", owner=owner.id,
                                    kind="integrity")
    admin = db.connect(IFCProcess(authority, owner.id))
    admin.execute_script(
        "CREATE TABLE f (id INT PRIMARY KEY, k INT, g INT, x INT, t TEXT);"
        "CREATE TABLE d (k INT PRIMARY KEY, w INT, name TEXT);")
    writers = {}
    for i in range(96):
        key = (LABEL_LAYOUTS[layout](i), i % 3 == 0)
        if key not in writers:
            process = IFCProcess(authority, owner.id)
            process.add_secrecy(tags[key[0]].id)
            if key[1]:
                process.endorse(endorsed.id)
            writers[key] = db.connect(process)
        writers[key].execute(
            "INSERT INTO f VALUES (?, ?, ?, ?, ?)",
            (i, i % 3, i % 5, None if i % 7 == 0 else (i * 11) % 13,
             "t%d" % (i % 4)))
    secret = IFCProcess(authority, owner.id)
    secret.add_secrecy(tags[1].id)
    secret_writer = db.connect(secret)
    for k in range(12):
        (secret_writer if k % 2 else admin).execute(
            "INSERT INTO d VALUES (?, ?, ?)", (k, k % 5, "dim-%d" % (k % 4)))
    admin.execute("ANALYZE")
    reader = IFCProcess(authority, owner.id)
    for tag in tags[:8]:
        reader.add_secrecy(tag.id)
    return db.connect(reader)


def _labeled_rows(session, sql):
    """Execute through the physical layer so integrity labels — which
    ``Row`` drops — are part of the comparison."""
    db = session.db
    prepared = db.prepare_select(db.parse(sql), sql)
    try:
        with session._autocommit():
            ctx = session._context((), prepared.slot_values)
            rows = [row for batch in prepared.plan.batches(ctx)
                    for row in zip(batch.rows(), batch.labels,
                                   batch.ilabels)]
    except ReproError as exc:
        return ("error", type(exc).__name__)
    return ("rows", sorted(
        ((tuple(values), tuple(sorted(label)), tuple(sorted(ilabel)))
         for values, label, ilabel in rows), key=repr))


@pytest.mark.parametrize("batch_size", [None, 7])
@pytest.mark.parametrize("layout", sorted(LABEL_LAYOUTS))
def test_label_layout_cross_fold(layout, batch_size):
    """Every blocking operator of the batched path, over every label
    layout the label routine treats differently: optimized ≡ naive on
    rows, labels *and* integrity labels.  ``batch_size=None`` takes the
    engine default, so the ``REPRO_BATCH_SIZE`` / ``REPRO_WORK_MEM`` CI
    legs re-run this matrix at one-row batches and spilled."""
    optimized = _layout_universe(layout, naive=False, batch_size=batch_size)
    reference = _layout_universe(layout, naive=True, batch_size=None)
    for sql in FOLD_QUERIES:
        got = _labeled_rows(optimized, sql)
        want = _labeled_rows(reference, sql)
        assert got == want, (layout, batch_size, sql, got, want)
        if layout == "all_suppressed" and got[0] == "rows":
            assert all(label == () for _v, label, _i in got[1]), sql


#: One ordering of one DISTINCT, spelled by alias, by ordinal and by the
#: expression itself; the keys are total over the distinct rows.
DISTINCT_ORDER_SPELLINGS = (
    "SELECT DISTINCT f.g + f.k AS s, f.k FROM f ORDER BY s DESC, f.k",
    "SELECT DISTINCT f.g + f.k AS s, f.k FROM f ORDER BY 1 DESC, 2",
    "SELECT DISTINCT f.g + f.k AS s, f.k FROM f ORDER BY f.g + f.k DESC, f.k",
    "SELECT DISTINCT f.g + f.k AS s, f.k FROM f "
    "ORDER BY 0 - (f.g + f.k), k",
)

#: ORDER BY keys that are not functions of the distinct row.
DISTINCT_ORDER_REJECTED = (
    "SELECT DISTINCT f.g FROM f ORDER BY f.x DESC",
    "SELECT DISTINCT f.g FROM f ORDER BY f.g, f.x + 1 LIMIT 3",
    "SELECT DISTINCT f.g + f.k AS s FROM f ORDER BY f.g",
    "SELECT DISTINCT f.g FROM f GROUP BY f.g, f.k ORDER BY f.k",
    "SELECT DISTINCT f.g FROM f GROUP BY f.g ORDER BY COUNT(*)",
    "SELECT DISTINCT f.g FROM f ORDER BY _label",
)


def _ordered_rows(session, sql):
    return [(tuple(row), tuple(sorted(row.label)))
            for row in session.execute(sql).rows]


@pytest.mark.parametrize("layout", sorted(LABEL_LAYOUTS))
def test_distinct_sorts_its_own_rows(layout):
    """ORDER BY above a DISTINCT reads the distinct row: the alias, the
    ordinal and the expression name the same output slot, on both
    planners, in the order the statement fixes."""
    optimized = _layout_universe(layout, naive=False, batch_size=None)
    reference = _layout_universe(layout, naive=True, batch_size=None)
    want = _ordered_rows(reference, DISTINCT_ORDER_SPELLINGS[0])
    values = [row for row, _label in want]
    assert values == sorted(set(values), key=lambda r: (-r[0], r[1]))
    assert values or layout == "all_suppressed"
    for sql in DISTINCT_ORDER_SPELLINGS:
        for session in (optimized, reference):
            assert _ordered_rows(session, sql) == want, (layout, sql)


#: Orderings keyed on the label itself.  Labels are sets and have no
#: order of their own (``{1} < {2}`` and ``{2} < {1}`` are both false
#: as sets), so every one of these must fall back to the sort's
#: type-tolerant total order — ``id`` breaks the ties within a label.
LABEL_ORDERINGS = (
    "SELECT f.id FROM f ORDER BY _label, f.id",
    "SELECT f.id FROM f ORDER BY _label DESC, f.id",
    "SELECT f.id FROM f ORDER BY _label, f.id LIMIT 9 OFFSET 2",
    "SELECT f.id, d.k FROM f JOIN d ON d.w = f.g "
    "ORDER BY f._label, f.id, d.k",
)


@pytest.mark.parametrize("batch_size", [None, 7])
@pytest.mark.parametrize("layout", sorted(LABEL_LAYOUTS))
def test_order_by_label_is_total_and_insertion_blind(layout, batch_size):
    """ORDER BY over incomparable labels: the same sequence on both
    planners (``batch_size=None`` re-runs spilled and forked on the CI
    legs), equal labels contiguous — which a sort by the sets' partial
    ``<`` does not give — and aggregates that would need a label order
    refuse on both."""
    optimized = _layout_universe(layout, naive=False, batch_size=batch_size)
    reference = _layout_universe(layout, naive=True, batch_size=None)
    for sql in LABEL_ORDERINGS:
        got = _ordered_rows(optimized, sql)
        assert got == _ordered_rows(reference, sql), (layout, sql)
        if "LIMIT" not in sql and "JOIN" not in sql:    # whole, f's own
            labels = [label for _row, label in got]
            runs = [label for i, label in enumerate(labels)
                    if i == 0 or labels[i - 1] != label]
            assert len(runs) == len(set(labels)), (layout, sql, runs)
    for sql, error in (("SELECT MIN(_label) FROM f", "ExpressionError"),
                       ("SELECT MAX(_label) FROM f", "ExpressionError"),
                       ("SELECT f.id FROM f WHERE _label < _label",
                        "ExpressionError")):
        got = _labeled_rows(optimized, sql)
        assert got == _labeled_rows(reference, sql), (layout, sql)
        assert got == ("error", error) \
            or layout in ("uniform", "all_suppressed"), (layout, sql, got)


@pytest.mark.parametrize("naive", [False, True])
def test_distinct_order_by_outside_the_select_list_is_rejected(naive):
    """Duplicates may disagree on such a key, so which one orders the
    collapsed row would be decided by arrival order: the same error
    type and message on both planners, even with nothing visible."""
    from repro.errors import DatabaseError

    for layout in ("uniform", "all_suppressed"):
        session = _layout_universe(layout, naive=naive, batch_size=None)
        for sql in DISTINCT_ORDER_REJECTED:
            for text in (sql, "EXPLAIN " + sql):
                with pytest.raises(DatabaseError) as caught:
                    session.execute(text)
                assert type(caught.value) is DatabaseError, sql
                assert str(caught.value) == (
                    "for SELECT DISTINCT, ORDER BY expressions must "
                    "appear in the select list"), sql


#: ``IN (subquery)`` above a GROUP BY — in HAVING, in ORDER BY and in
#: the select list, over a group column and over an aggregate — with
#: the rows each returns under the ``uniform`` layout (``f.g = id % 5``
#: over 96 rows: 20 rows in group 0, 19 in the others; ``d.k`` is
#: 0..11).  The operand must be rewritten to its post-aggregation slot
#: like any other sub-expression.
GROUPED_IN_SUBQUERY = (
    ("SELECT f.g, COUNT(*) FROM f GROUP BY f.g "
     "HAVING f.g IN (SELECT d.k FROM d WHERE d.k < 3) ORDER BY f.g",
     [(0, 20), (1, 19), (2, 19)]),
    ("SELECT f.g, COUNT(*) FROM f GROUP BY f.g "
     "HAVING COUNT(*) IN (SELECT d.k + 8 FROM d) ORDER BY f.g",
     [(1, 19), (2, 19), (3, 19), (4, 19)]),
    ("SELECT f.g FROM f GROUP BY f.g "
     "ORDER BY f.g IN (SELECT d.k FROM d WHERE d.k < 2), f.g",
     [(2,), (3,), (4,), (0,), (1,)]),
    ("SELECT f.g, CASE WHEN COUNT(*) IN (SELECT d.k + 8 FROM d) "
     "THEN 1 ELSE 0 END FROM f GROUP BY f.g ORDER BY f.g",
     [(0, 0), (1, 1), (2, 1), (3, 1), (4, 1)]),
)


@pytest.mark.parametrize("layout", sorted(LABEL_LAYOUTS))
def test_grouped_in_subquery(layout):
    optimized = _layout_universe(layout, naive=False, batch_size=None)
    reference = _layout_universe(layout, naive=True, batch_size=None)
    for sql, expected in GROUPED_IN_SUBQUERY:
        got = _labeled_rows(optimized, sql)
        assert got == _labeled_rows(reference, sql), (layout, sql, got)
        assert got[0] == "rows", (layout, sql, got)
        if layout == "uniform":
            for session in (optimized, reference):
                rows = [tuple(r) for r in session.execute(sql).rows]
                assert rows == expected, (sql, rows)


# ---------------------------------------------------------------------------
# plan-node shape: the children a class declares are the plans it holds
# ---------------------------------------------------------------------------

def test_plan_nodes_declare_exactly_the_plans_they_hold():
    """``Plan.CHILDREN`` is the one declaration behind EXPLAIN, the
    batch-size stamp, plan-cache eviction and EXPLAIN ANALYZE's
    rewiring.  For every operator class the corpus lowers — cost-based
    and naive, in memory and spilling — the declared attributes are
    exactly the instance attributes holding a ``Plan``."""
    from repro.db.physical import Plan

    rng = random.Random(SEED)
    gen = StatementGenerator(rng)
    universes = (Universe(naive=False, work_mem=1024),
                 Universe(naive=True, work_mem=0))
    lowered = []
    for universe in universes:
        planner = universe.db.planner
        for name in ("plan_select", "plan_dml"):
            def recording(statement, _plan=getattr(planner, name)):
                prepared = _plan(statement)
                lowered.append(prepared.plan)
                return prepared
            setattr(planner, name, recording)
    _populate(universes, gen)
    universes[0].sessions["public"].execute(
        "CREATE VIEW busy AS SELECT device, COUNT(*) AS n FROM readings "
        "GROUP BY device")
    universes[0].sessions["public"].execute(
        "SELECT DISTINCT n FROM busy ORDER BY n LIMIT 3 OFFSET 1")
    for _ in range(200):
        op = gen.statement()
        for universe in universes:
            run_one(universe, op)

    seen = set()

    def check(node):
        seen.add(type(node))
        holding = [name for name, value in vars(node).items()
                   if isinstance(value, Plan)]
        assert sorted(holding) == sorted(node.CHILDREN), type(node)
        children = node.children()
        assert [id(c) for c in children] \
            == [id(getattr(node, name)) for name in node.CHILDREN]
        for child in children:
            check(child)

    for plan in lowered:
        check(plan)
    names = {cls.__name__ for cls in seen}
    assert names >= {"Scan", "IndexScan", "IndexRangeScan", "Filter",
                     "Project", "HashJoin", "IndexLoopJoin",
                     "NestedLoopJoin", "AggregateNode", "Sort", "TopN",
                     "Limit", "ViewPlan"}, names
