"""Noninterference of the collapse: a two-world check.

The paper's claim (sections 4.2, 7.1) is stronger than "hidden rows are
not returned": *nothing* a process can observe may depend on tuples
whose label it does not cover.  The operator where that is easiest to
get wrong is the one where a result row comes to stand for several
stored tuples — DISTINCT / GROUP BY, one fold since
``AggregateNode._fold`` — because a hidden duplicate could raise a
visible row's label, add a group, win a Top-N cut, or change what
spills.

So: the same seeded visible tuples are loaded into several *worlds*
that differ only in tuples labeled with a tag the reader does not hold.
The hidden tuples are aimed at the collapse: they **duplicate** visible
groups, **extend** the group set with keys no visible tuple has (some
sorting before every visible key, some after), and **precede** the
visible tuples in the heap.  For every statement, in every executor
configuration, every world must show the reader the same rows in the
same order, the same row labels and integrity labels, the same
``rowcount`` and the same error type and message — and a collapsed
row's label must be the union over exactly its *visible* duplicates.

Plan shape is declared high (ARCHITECTURE.md, "Low and high"): the
optimizer's one cardinality, a heap's version count, counts hidden
versions too, so a hidden tuple may change a plan.  What is low is
what a *given* plan does: so wherever two worlds plan a statement
alike (EXPLAIN, estimates removed), they must also show the same delta
of every counter the schema marks low (``counters.LOW``: the spill
traffic, the range scans, the statements run and the rows written, the
cells the scans emit and the rows built from batches — for the result
and, by a predicate without a column kernel, for label survivors,
never for a hidden tuple) and, for a SELECT, the same EXPLAIN ANALYZE
lines once time and estimates are removed.  One rule, no allowlist:
where a hidden world does turn a plan, its low counters are rightly
not compared — but none here does, and the poison family and the
recovered leg pin that at zero.

A second family of worlds aims at the scan leaf instead of the
collapse: their hidden tuples carry values on which the **pushed
predicate raises** (a divisor that hits zero, a TEXT where the visible
rows hold NULL and the predicate compares with an INT).  An expression
evaluated over a hidden tuple's cell would turn that tuple into an
error the reader can see, so through every access path — heap scan,
index scan, index-range scan, the index-loop-join probe, UPDATE and
DELETE target enumeration — every world must answer alike, and without
an error.

A third family aims at the constraints (section 5.2): hidden parents,
children and unique codes under a tag the reader's principal does not
own.  A child of a key only a hidden parent has must fail as if no
parent existed, a duplicate of a hidden key or code must polyinstantiate
(by INSERT and by UPDATE), and RESTRICT must answer alike — every world
raises the same error with the same message, or writes the same rows.

A fourth family reads through a declassifying view (section 4.3):
rows under the tag it declassifies come through stripped, and hidden
rows under a tag the reader's principal does not own must stay hidden
under every collapse, cut, join and ``IN (subquery)`` over the view.

Every family also runs recovered from the WAL: each world is logged,
and the reader queries a fresh ``Database.recover()`` of its log.
Replay is a trusted operation that writes hidden tuples back, so the
recovered worlds must agree like the live ones, and recovered D must
answer as live D does.

This is the first slice of ROADMAP item 2; the statement stream and
the other observables are still to come.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
from repro.db import Database
from repro.db.storage import SET_AT_A_TIME_MIN
from repro.errors import ForeignKeyViolation

SEED = 1813

#: Executor configurations (``Database`` keyword arguments).  At batch
#: size 7 a scan's batches end where heap segments do, so hidden tuples
#: move the boundaries between visible rows.
CONFIGS = {
    "default": {},
    "batch_size=1": {"batch_size": 1},
    "batch_size=7": {"batch_size": 7},
    "work_mem=1024": {"work_mem": 1024},
}

#: World → seed of its hidden tuples (``None``: it has none).
WORLDS = {"D": None, "D'": 7, "D''": 8}

#: Visible secrecy labels, as indexes into the reader's two tags.
VISIBLE_LABELS = ((), (0,), (1,), (0, 1))

#: Statements every world must fail alike → the error's type.  A fold's
#: message names its first failing pair in row order, wherever batches
#: end.
FAILING = {
    "SELECT DISTINCT a FROM t ORDER BY b": "DatabaseError",
    "SELECT SUM(CASE WHEN id < 30 THEN a ELSE c END) FROM t":
        "ExpressionError",
    "SELECT a, MIN(CASE WHEN id < 30 THEN b ELSE c END) FROM t GROUP BY a":
        "ExpressionError",
}

STATEMENTS = (
    # DISTINCT, bare and under ORDER BY … LIMIT/OFFSET cuts.
    "SELECT DISTINCT a, b FROM t",
    "SELECT DISTINCT a, b FROM t ORDER BY a DESC, b",
    "SELECT DISTINCT a, b FROM t ORDER BY a, b LIMIT 5 OFFSET 2",
    "SELECT DISTINCT a FROM t ORDER BY a LIMIT 3",
    "SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 2 OFFSET 1",
    "SELECT DISTINCT c, a + b AS s FROM t ORDER BY s DESC, c LIMIT 4",
    "SELECT DISTINCT a, b FROM t LIMIT 4",
    # IN over constants, a set lookup per label survivor; BETWEEN has no
    # column kernel: the scan builds a row per label survivor.
    "SELECT DISTINCT a FROM t WHERE b IN (0, 1, 3)",
    "SELECT DISTINCT a FROM t WHERE b BETWEEN 1 AND 2",
    # GROUP BY without and with aggregates.
    "SELECT a, b FROM t GROUP BY a, b",
    "SELECT a, COUNT(*), SUM(b), MIN(c), COUNT(DISTINCT b) FROM t "
    "GROUP BY a",
    "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY COUNT(*) DESC, a "
    "LIMIT 3",
    "SELECT DISTINCT b, COUNT(*) FROM t GROUP BY a, b HAVING COUNT(*) > 1",
    "SELECT COUNT(*), MAX(a), MIN(a) FROM t",
    # The collapse inside a subquery and a derived table.
    "SELECT k FROM u WHERE a IN (SELECT DISTINCT a FROM t WHERE b < 2) "
    "ORDER BY k",
    "SELECT COUNT(*) FROM (SELECT DISTINCT a, b FROM t) d",
    # Only hidden tuples have z = 0: no world may raise.
    "SELECT DISTINCT 12 / z FROM t",
    # A plain scan and an index point lookup: hidden tuples sit between
    # the visible ones, and EXPLAIN ANALYZE must not tell.
    "SELECT id, a FROM t",
    "SELECT a, c FROM t WHERE id = 40",
    # Errors are observables too.
    *FAILING,
    # rowcount of a write fed by the collapse.
    "INSERT INTO sink SELECT DISTINCT a, b FROM t",
)


def _visible_tuples():
    """``(id, a, b, c, z, label indexes, endorsed)``: 120 tuples over
    24 ``(a, b)`` groups, each group under several labels."""
    rng = random.Random(SEED)
    return [(2 * i, rng.randrange(1, 7), rng.randrange(4), "c%d" % (i % 7),
             rng.randrange(1, 4), rng.choice(VISIBLE_LABELS), i % 5 == 0)
            for i in range(120)]


def _hidden_tuples(seed, visible):
    """Tuples the reader must not be able to tell are there; odd ids.
    ``z = 0`` only ever appears here."""
    rng = random.Random(seed)
    hidden = []
    for i in range(rng.randrange(50, 70)):
        kind = rng.choice(("duplicate", "duplicate", "before", "after"))
        if kind == "duplicate":
            _id, a, b, c, _z, _label, _e = rng.choice(visible)
        elif kind == "before":
            a, b, c = -rng.randrange(1, 4), rng.randrange(4), "a0"
        else:
            a, b, c = rng.randrange(7, 11), rng.randrange(4, 8), "z9"
        hidden.append((2 * i + 1, a, b, c, 0,
                       rng.choice(((), (0,), (1,))), rng.random() < 0.3))
    return hidden


def _world(hidden_seed, config, wal=None):
    """One world's database (logged to ``wal``, if given) and the
    reader's session."""
    authority = AuthorityState(idgen=SeededIdGenerator(SEED))
    db = Database(authority, seed=SEED, wal=wal, **config)
    owner = authority.create_principal("owner")
    low = [authority.create_tag("low-%d" % i, owner=owner.id)
           for i in range(2)]
    high = authority.create_tag("high", owner=owner.id)
    vetted = authority.create_tag("vetted", owner=owner.id,
                                  kind="integrity")
    admin = db.connect(IFCProcess(authority, owner.id))
    admin.execute_script(
        "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c TEXT, z INT);"
        "CREATE TABLE u (k INT PRIMARY KEY, a INT);"
        "CREATE TABLE sink (a INT, b INT);")
    for k in range(-4, 12):                       # public, every world
        admin.execute("INSERT INTO u VALUES (?, ?)", (k, k))

    # Ten hidden tuples precede every visible one in the heap; the
    # rest fall between them.
    visible = _visible_tuples()
    hidden = [] if hidden_seed is None \
        else _hidden_tuples(hidden_seed, visible)
    rng = random.Random(hidden_seed)
    pending = [(row, True) for row in hidden[:10]]
    del hidden[:10]
    for row in visible:
        pending.append((row, False))
        while hidden and rng.random() < 0.4:
            pending.append((hidden.pop(), True))
    pending.extend((row, True) for row in hidden)
    writers = {}
    for (ident, a, b, c, z, labels, endorsed), secret in pending:
        key = (labels, endorsed, secret)
        if key not in writers:
            process = IFCProcess(authority, owner.id)
            for index in labels:
                process.add_secrecy(low[index].id)
            if secret:
                process.add_secrecy(high.id)
            if endorsed:
                process.endorse(vetted.id)
            writers[key] = db.connect(process)
        writers[key].execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)",
                             (ident, a, b, c, z))
    reader = IFCProcess(authority, owner.id)
    for tag in low:
        reader.add_secrecy(tag.id)
    return db.connect(reader), [tag.id for tag in low]


#: What EXPLAIN and EXPLAIN ANALYZE print that is declared high: the
#: optimizer's estimates (two spaces before each) and wall time.
_HIGH_TEXT = re.compile(
    r"  \(cost=[^)]*\)|  (?:spill_partitions|runs)=\d+|  mem=\d+B"
    r"| time=[\d.]+ms")


def _low_lines(lines):
    """A plan's lines with what is high removed."""
    return [_HIGH_TEXT.sub("", line) for line in lines
            if not line.startswith("Execution time:")]


def _observe(session, sql):
    """Everything the reader can see of one statement, and its plan
    where EXPLAIN applies (an INSERT's is its source query's; an
    ``INSERT … VALUES`` has none)."""
    db = session.db
    statement = db.parse(sql)
    explained = getattr(statement, "select", statement)
    seen = {}
    try:
        if explained is not None:
            seen["plan"] = _low_lines(db.explain(explained))
        result = session.execute(sql)
        seen["rows"] = [(tuple(row), tuple(sorted(row.label)))
                        for row in result.rows]
        seen["rowcount"] = result.rowcount
        metrics = db.last_statement_metrics()
        seen["low"] = {"%s.%s" % (group, field):
                       (metrics[group] if group else metrics)[field]
                       for group, field in counters.LOW}
        if sql.startswith("SELECT"):
            # Integrity labels travel below the Row: drain the plan.
            prepared = db.prepare_select(statement, sql)
            with session._autocommit():
                ctx = session._context((), prepared.slot_values)
                seen["ilabels"] = [
                    tuple(sorted(ilabel)) for batch in
                    prepared.plan.batches(ctx)
                    for ilabel in batch.ilabels]
            seen["analyze"] = _low_lines(
                row[0] for row in session.execute("EXPLAIN ANALYZE " + sql))
    except Exception as exc:      # whatever is raised is the observable
        seen["error"] = (type(exc).__name__, str(exc))
    return seen


def _assert_alike(want, got, where):
    """Rows, labels, ilabels, rowcount and errors always; the low
    counters and EXPLAIN ANALYZE between equal plans only.  Whether the
    plans were equal."""
    same_plan = got.get("plan") == want.get("plan")
    for what in sorted(set(want) | set(got)):
        if same_plan or what not in ("plan", "low", "analyze"):
            assert got.get(what) == want.get(what), where + (what,)
    return same_plan


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_the_collapse_shows_the_same_in_every_world(config):
    worlds = {name: _world(seed, CONFIGS[config])
              for name, seed in WORLDS.items()}
    base = worlds["D"][0]
    spilled = dict.fromkeys(("spill.agg_spills", "spill.sort_spills",
                             "spill.rows_spilled"), 0)
    for sql in STATEMENTS:
        want = _observe(base, sql)
        for name in ("D'", "D''"):
            # No hidden tuple changes a plan here: every low counter
            # and EXPLAIN ANALYZE line is compared.
            assert _assert_alike(want, _observe(worlds[name][0], sql),
                                 (config, name, sql)), (config, name, sql)
        for what in spilled:
            spilled[what] += want.get("low", {}).get(what, 0)
        if sql in FAILING:
            assert want["error"][0] == FAILING[sql], want
        else:
            assert "error" not in want, (sql, want)
            assert want["rowcount"] == len(want["rows"]) or \
                sql.startswith("INSERT"), (sql, want)
    # The statements did collapse, and — under a budget — did spill.
    assert len(_observe(base, STATEMENTS[0])["rows"]) == 24
    if "work_mem" in CONFIGS[config]:
        assert all(spilled.values()), spilled


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_collapsed_row_is_labeled_by_its_visible_duplicates(config):
    """The union is over every visible tuple of the group — not the
    first one met — and over none of the hidden ones."""
    expected = {}
    for _id, a, b, _c, _z, labels, _endorsed in _visible_tuples():
        expected.setdefault((a, b), set()).update(labels)
    assert any(len(labels) == 2 for labels in expected.values())
    for name, seed in WORLDS.items():
        session, tags = _world(seed, CONFIGS[config])
        for sql in ("SELECT DISTINCT a, b FROM t",
                    "SELECT a, b FROM t GROUP BY a, b",
                    "SELECT DISTINCT a, b FROM t ORDER BY b, a DESC"):
            got = {tuple(row): set(row.label)
                   for row in session.execute(sql).rows}
            want = {key: {tags[index] for index in labels}
                    for key, labels in expected.items()}
            assert got == want, (config, name, sql)


# ---------------------------------------------------------------------------
# a predicate never meets a hidden cell
# ---------------------------------------------------------------------------

_DIVIDES = "100 / (amount - 7) > 0"     # amount = 7 only on hidden tuples
_COMPARES = "note > 5"                  # note is NULL on every visible one

#: ``(statement, the access path its EXPLAIN must show)``.  The DML
#: statements run last and in this order in every world.
POISON_STATEMENTS = (
    ("SELECT id, amount FROM p WHERE " + _DIVIDES, "Scan p"),
    ("SELECT id FROM p WHERE " + _COMPARES, "Scan p"),
    ("SELECT COUNT(*), SUM(amount) FROM p WHERE amount > 20 AND "
     + _DIVIDES, "Scan p"),
    ("SELECT id FROM p WHERE amount IN (7, 12, 30)", "Scan p"),
    ("SELECT id, amount FROM p WHERE k = 3 AND " + _DIVIDES, "IndexScan"),
    ("SELECT id FROM p WHERE k = 3 AND amount IN (7, 12, 30)", "IndexScan"),
    ("SELECT id FROM p WHERE k = 11 AND " + _COMPARES, "IndexScan"),
    ("SELECT id, amount FROM p WHERE ts >= 30 AND ts < 90 AND " + _DIVIDES,
     "IndexRangeScan"),
    ("SELECT id FROM p WHERE ts >= 30 AND ts < 90 AND " + _COMPARES,
     "IndexRangeScan"),
    ("SELECT o.k, p.id FROM o JOIN p ON p.k = o.k AND 100 / (p.amount - 7) "
     "> 0 ORDER BY o.k, p.id", "IndexLoopJoin"),
    ("SELECT o.k, p.id FROM o JOIN p ON p.k = o.k AND p.note > 5",
     "IndexLoopJoin"),
    ("UPDATE p SET amount = amount + 100 WHERE k = 1 AND " + _DIVIDES,
     "IndexScan"),
    ("UPDATE p SET amount = amount + 100 WHERE ts >= 120 AND ts < 150 AND "
     + _DIVIDES, "IndexRangeScan"),
    ("UPDATE p SET amount = amount + 1 WHERE amount < 15 AND " + _DIVIDES,
     "Scan p"),
    ("DELETE FROM p WHERE k = 2 AND " + _COMPARES, "IndexScan"),
    ("DELETE FROM p WHERE ts >= 200 AND ts < 230 AND " + _DIVIDES,
     "IndexRangeScan"),
    ("DELETE FROM p WHERE amount > 140 AND " + _DIVIDES, "Scan p"),
    ("SELECT id, k, ts, amount FROM p ORDER BY id", "Scan p"),
)

def _poison_world(hidden_seed, config, wal=None):
    """90 tuples under exactly the reader's label (so its UPDATEs and
    DELETEs pass the write rule), a third of them endorsed; the hidden
    ones — poisoned — share their index keys and their ``ts`` ranges,
    singly (key 11: the per-version loop) and in runs."""
    authority = AuthorityState(idgen=SeededIdGenerator(SEED))
    db = Database(authority, seed=SEED, wal=wal, **config)
    owner = authority.create_principal("owner")
    low = [authority.create_tag("low-%d" % i, owner=owner.id)
           for i in range(2)]
    high = authority.create_tag("high", owner=owner.id)
    vetted = authority.create_tag("vetted", owner=owner.id,
                                  kind="integrity")
    admin = db.connect(IFCProcess(authority, owner.id))
    admin.execute_script(
        "CREATE TABLE p (id INT PRIMARY KEY, k INT, ts INT, amount INT, "
        "note TEXT);"
        "CREATE INDEX p_k ON p (k);"
        "CREATE ORDERED INDEX p_ts ON p (ts);"
        "CREATE TABLE o (k INT PRIMARY KEY);")
    for k in (1, 2, 3, 11, 40):                   # public, every world
        admin.execute("INSERT INTO o VALUES (?)", (k,))

    def session(secret, endorsed):
        process = IFCProcess(authority, owner.id)
        for tag in low:
            process.add_secrecy(tag.id)
        if secret:
            process.add_secrecy(high.id)
        if endorsed:
            process.endorse(vetted.id)
        return db.connect(process)

    sessions = {key: session(*key) for key in
                ((False, False), (False, True), (True, False))}
    rng = random.Random(hidden_seed)
    for i in range(90):
        k = 11 if i == 44 else i % 6
        sessions[False, i % 3 == 0].execute(
            "INSERT INTO p VALUES (?, ?, ?, ?, NULL)",
            (2 * i, k, 3 * i, 10 + i % 40))
        if hidden_seed is not None and rng.random() < 0.5:
            poison = rng.choice(((7, None), (7, "poison"), (12, "poison")))
            sessions[True, False].execute(
                "INSERT INTO p VALUES (?, ?, ?, ?, ?)",
                (2 * i + 1, rng.choice((k, 11, rng.randrange(6))),
                 3 * i + rng.randrange(3)) + poison)
    admin.execute("ANALYZE")
    return session(False, False)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_predicate_never_meets_a_hidden_cell(config):
    worlds = {name: _poison_world(seed, CONFIGS[config])
              for name, seed in WORLDS.items()}
    base = worlds["D"]
    unequal = 0
    for sql, operator in POISON_STATEMENTS:
        want = _observe(base, sql)
        assert "error" not in want, (config, sql, want)
        assert any(operator in line for line in want["plan"]), \
            (config, sql, want["plan"])
        for name in ("D'", "D''"):
            unequal += not _assert_alike(want, _observe(worlds[name], sql),
                                         (config, name, sql))
        if sql.startswith(("UPDATE", "DELETE")) and _DIVIDES in sql:
            assert want["rowcount"] > 0, sql      # the DML found targets
    assert len(want["rows"]) > 50                 # …and left most rows
    # Plans are costed from row counts alone, and the hidden rows here
    # turn none of them; a flip is news for ROADMAP 2(b).
    assert unequal == 0, unequal


# ---------------------------------------------------------------------------
# a constraint never tells of a hidden row
# ---------------------------------------------------------------------------

#: The statements run in this order in every world.  Keys 201–206 and
#: codes ``h201``–``h206`` belong only to hidden rows.  Each write
#: names the error every world must raise, or ``None``.
CONSTRAINT_STATEMENTS = (
    # The Foreign Key Rule: a child of a key only a hidden parent has —
    # bare, declassifying the hidden tag (no authority), declassifying
    # the reader's own, and under MATCH LABEL.
    ("INSERT INTO child VALUES (100, 201)", "ForeignKeyViolation"),
    ("INSERT INTO child VALUES (101, 202) DECLASSIFYING (secret)",
     "AuthorityError"),
    ("INSERT INTO child VALUES (102, 203) DECLASSIFYING (low)",
     "ForeignKeyViolation"),
    ("INSERT INTO pinned VALUES (1, 204)", "ForeignKeyViolation"),
    ("UPDATE child SET pid = 205 WHERE cid = 1", "ForeignKeyViolation"),
    # A visible parent that may share its key with a hidden one.
    ("INSERT INTO child VALUES (103, 3)", None),
    ("INSERT INTO pinned VALUES (2, 3)", None),
    # Uniqueness: duplicates of a hidden key and a hidden code
    # polyinstantiate, by INSERT and by UPDATE.
    ("INSERT INTO parent VALUES (206, 'v206')", None),
    ("INSERT INTO parent VALUES (20, 'h201')", None),
    ("UPDATE parent SET id = 202 WHERE id = 9", None),
    ("UPDATE parent SET code = 'h203' WHERE id = 10", None),
    ("SELECT id, code FROM parent ORDER BY id", None),
    # RESTRICT: a visible parent with visible children, and ones without
    # (9, now 202, and 11 have hidden twins with hidden children).
    ("UPDATE parent SET id = 204 WHERE id = 2", "ForeignKeyViolation"),
    ("DELETE FROM parent WHERE id = 1", "ForeignKeyViolation"),
    ("DELETE FROM parent WHERE id = 11", None),
    ("SELECT cid, pid FROM child ORDER BY cid", None),
    ("SELECT k, pid FROM pinned ORDER BY k", None),
    ("SELECT COUNT(*), MIN(code), MAX(id) FROM parent", None),
)


def _constraint_world(hidden_seed, config, wal=None):
    """Twelve parents, ten children and a MATCH LABEL child, all under
    exactly the reader's label; the hidden rows sit under ``secret``,
    owned by a principal other than the reader's.  Hidden parents hold
    keys 201–206 (and the seed's others), and every hidden parent has a
    hidden child.  Some share a visible parent's key — always 9 and 11,
    whose visible parents a key UPDATE and a DELETE then write — and
    their hidden twin still serves their hidden child, so the child
    blocks neither.  (A hidden child of a visible parent alone would,
    the channel section 5.2.2 charges to the child's inserter.)"""
    authority = AuthorityState(idgen=SeededIdGenerator(SEED))
    db = Database(authority, seed=SEED, wal=wal, **config)
    owner = authority.create_principal("owner")
    other = authority.create_principal("other")
    low = authority.create_tag("low", owner=owner.id)
    secret = authority.create_tag("secret", owner=other.id)
    admin = db.connect(IFCProcess(authority, owner.id))
    admin.execute_script(
        "CREATE TABLE parent (id INT PRIMARY KEY, code TEXT UNIQUE);"
        "CREATE TABLE child (cid INT PRIMARY KEY, "
        "pid INT REFERENCES parent(id));"
        "CREATE TABLE pinned (k INT PRIMARY KEY, "
        "pid INT REFERENCES parent(id) MATCH LABEL);")

    def session(principal, *tags):
        process = IFCProcess(authority, principal.id)
        for tag in tags:
            process.add_secrecy(tag.id)
        return db.connect(process)

    reader = session(owner, low)
    pending = [(reader, "INSERT INTO parent VALUES (?, ?)", (i, "v%d" % i))
               for i in range(1, 13)]
    pending += [(reader, "INSERT INTO child VALUES (?, ?)", (i, i % 6 + 1))
                for i in range(10)]
    pending.append((reader, "INSERT INTO pinned VALUES (0, 5)", ()))
    if hidden_seed is not None:
        rng = random.Random(hidden_seed)
        writers = (session(other, secret), session(other, low, secret))
        shared = [9, 11] + rng.sample([1, 2, 3, 4, 5, 6, 7, 8, 10, 12], 2)
        for key in [201, 202, 203, 204, 205, 206] \
                + rng.sample(range(207, 260), 6) + shared:
            # One that shares a visible key must not see it.
            writer = rng.choice(writers) if key > 200 else writers[0]
            rows = [(writer, "INSERT INTO parent VALUES (?, ?)",
                     (key, "h%d" % key)),
                    (writer, "INSERT INTO child VALUES (?, ?)",
                     (300 + key, key))]
            at = rng.randrange(len(pending) + 1)
            pending[at:at] = rows
    for writer, sql, params in pending:
        writer.execute(sql, params)
    return reader


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_constraint_never_tells_of_a_hidden_row(config):
    """Every world answers every write alike — the same error type and
    message, or the same rowcount — and every read after it: a hidden
    parent is no parent to a writer who may not learn of it, a hidden
    duplicate is polyinstantiated, and RESTRICT finds only visible
    children here."""
    worlds = {name: _constraint_world(seed, CONFIGS[config])
              for name, seed in WORLDS.items()}
    parent = worlds["D'"].db.catalog.get_table("parent")
    before = parent.polyinstantiation_count
    for sql, error in CONSTRAINT_STATEMENTS:
        want = _observe(worlds["D"], sql)
        for name in ("D'", "D''"):
            assert _assert_alike(want, _observe(worlds[name], sql),
                                 (config, name, sql)), (config, name, sql)
        assert want.get("error", (None,))[0] == error, (config, sql, want)
    # The five parent writes aimed at a hidden key or code collided
    # (the key UPDATE that RESTRICT then refuses among them).
    assert parent.polyinstantiation_count - before == 5


def _restrict_world(hidden):
    """A visible parent with key 3 and no children; with ``hidden``, a
    parent polyinstantiated on key 3 and its child, both under
    ``secret``, which the reader's principal does not own."""
    authority = AuthorityState(idgen=SeededIdGenerator(SEED))
    db = Database(authority, seed=SEED)
    owner = authority.create_principal("owner")
    other = authority.create_principal("other")
    low = authority.create_tag("low", owner=owner.id)
    secret = authority.create_tag("secret", owner=other.id)
    sessions = []
    for principal, tag in ((owner, low), (other, secret)):
        process = IFCProcess(authority, principal.id)
        process.add_secrecy(tag.id)
        sessions.append(db.connect(process))
    reader, writer = sessions
    reader.execute_script(
        "CREATE TABLE parent (id INT PRIMARY KEY);"
        "CREATE TABLE child (cid INT PRIMARY KEY, "
        "pid INT REFERENCES parent(id));"
        "INSERT INTO parent VALUES (3);")
    if hidden:
        writer.execute_script("INSERT INTO parent VALUES (3);"
                              "INSERT INTO child VALUES (300, 3);")
    return reader


def test_restrict_never_tells_of_a_hidden_child():
    """RESTRICT finds referencing rows ignoring labels, but the hidden
    child of a hidden parent that shares the visible parent's key is
    still served by that parent: it does not block the visible parent's
    DELETE, which goes through as it does when no hidden rows exist."""
    sql = "DELETE FROM parent WHERE id = 3"
    want = _observe(_restrict_world(False), sql)
    assert "error" not in want, want
    _assert_alike(want, _observe(_restrict_world(True), sql), (sql,))


def _reanchor_world(hidden):
    """A visible parent with key 3; with ``hidden``, a writer whose
    label ``{low, secret}`` dominates the reader's ``{low}`` first
    inserts its own parent 3 (the reader's then polyinstantiates), a
    child of key 3 that links to that twin with nothing declassified,
    and then tries to delete its twin alone."""
    authority = AuthorityState(idgen=SeededIdGenerator(SEED))
    db = Database(authority, seed=SEED)
    owner = authority.create_principal("owner")
    other = authority.create_principal("other")
    low = authority.create_tag("low", owner=owner.id)
    secret = authority.create_tag("secret", owner=other.id)
    reader_process = IFCProcess(authority, owner.id)
    reader_process.add_secrecy(low.id)
    reader = db.connect(reader_process)
    writer_process = IFCProcess(authority, other.id)
    writer_process.add_secrecy(low.id)
    writer_process.add_secrecy(secret.id)
    writer = db.connect(writer_process)
    reader.execute_script(
        "CREATE TABLE parent (id INT PRIMARY KEY);"
        "CREATE TABLE child (cid INT PRIMARY KEY, "
        "pid INT REFERENCES parent(id));")
    if hidden:
        writer.execute("INSERT INTO parent VALUES (3)")
    reader.execute("INSERT INTO parent VALUES (3)")
    if hidden:
        writer.execute("INSERT INTO child VALUES (300, 3)")
        # The twin still serves the child, which the visible parent
        # could serve only through a DECLASSIFYING clause: refused.
        with pytest.raises(ForeignKeyViolation, match="would orphan rows"):
            writer.execute("DELETE FROM parent WHERE id = 3 "
                           "AND LABEL_CONTAINS(_label, 'secret')")
    return reader


def test_a_hidden_child_is_not_re_anchored_on_a_visible_parent():
    """Deleting a hidden twin may not leave its child hanging on the
    visible parent, whose own DELETE would then fail only in the world
    with hidden rows: the child's writer declassified nothing."""
    sql = "DELETE FROM parent WHERE id = 3"
    want = _observe(_reanchor_world(False), sql)
    assert "error" not in want, want
    _assert_alike(want, _observe(_reanchor_world(True), sql), (sql,))


@pytest.mark.parametrize("hidden", (False, True))
def test_restrict_still_refuses_to_orphan_a_visible_child(hidden):
    """A visible child whose one visible parent is deleted still blocks
    the DELETE: a hidden parent sharing the key is one the child's
    label does not cover."""
    reader = _restrict_world(hidden)
    reader.execute("INSERT INTO child VALUES (30, 3)")
    with pytest.raises(ForeignKeyViolation, match="would orphan rows"):
        reader.execute("DELETE FROM parent WHERE id = 3")


# ---------------------------------------------------------------------------
# a declassifying view never tells of a hidden row
# ---------------------------------------------------------------------------

#: The statements run in this order in every world; the reader holds no
#: tag, so only a declassifying view shows it ``{a}`` rows.
VIEW_STATEMENTS = (
    # Reads through the view: what it declassifies leaves the label.
    "SELECT id, g, v, w, _label FROM pub ORDER BY id",
    "SELECT id, g FROM pub WHERE LABEL_CONTAINS(_label, 'a') ORDER BY id",
    "SELECT id FROM pub WHERE v > 2 AND g < 4 ORDER BY id",
    # Collapses under ORDER BY … LIMIT cuts.
    "SELECT g, COUNT(*), SUM(v), MIN(w) FROM pub GROUP BY g ORDER BY g",
    "SELECT DISTINCT g FROM pub ORDER BY g LIMIT 3",
    "SELECT DISTINCT g FROM pub ORDER BY g DESC LIMIT 2 OFFSET 1",
    "SELECT g, COUNT(*) FROM pub GROUP BY g ORDER BY COUNT(*) DESC, g "
    "LIMIT 3",
    "SELECT DISTINCT w FROM pub ORDER BY w LIMIT 2",
    # A self-join and a derived table.
    "SELECT x.id, y.id FROM pub x JOIN pub y ON x.g = y.g AND x.id < y.id "
    "ORDER BY x.id, y.id LIMIT 40",
    "SELECT COUNT(*), MAX(s), MIN(g) FROM "
    "(SELECT g, SUM(v) AS s FROM pub GROUP BY g) d",
    # IN (subquery) under GROUP BY, in WHERE and in HAVING.
    "SELECT g, COUNT(*) FROM k WHERE g IN (SELECT g FROM pub WHERE v > 2) "
    "GROUP BY g ORDER BY g",
    "SELECT g, COUNT(*) FROM k GROUP BY g HAVING g IN (SELECT g FROM pub) "
    "ORDER BY g",
    # A plain view declassifies nothing.
    "SELECT g, COUNT(*) FROM open GROUP BY g ORDER BY g",
    # A write fed by the view.
    "INSERT INTO sink SELECT g, v FROM pub WHERE v > 1",
)


def _view_world(hidden_seed, config, wal=None):
    """Sixty rows of ``r`` under ``{}`` and ``{a}``, where ``a`` is owned
    by the creator of ``pub``, a view declassifying ``a``; the hidden
    rows sit under ``{secret}`` and ``{a, secret}``, and ``secret`` is
    owned by a principal other than the reader's, so stripping ``a``
    leaves them hidden.  They duplicate visible groups, extend the group
    keys before and after, and ten of them precede every visible row in
    the heap.  ``k`` is public: eight groups of three."""
    authority = AuthorityState(idgen=SeededIdGenerator(SEED))
    db = Database(authority, seed=SEED, wal=wal, **config)
    creator = authority.create_principal("creator")
    other = authority.create_principal("other")
    reader = authority.create_principal("reader")
    a = authority.create_tag("a", owner=creator.id)
    secret = authority.create_tag("secret", owner=other.id)
    admin = db.connect(IFCProcess(authority, creator.id))
    admin.execute_script(
        "CREATE TABLE r (id INT PRIMARY KEY, g INT, v INT, w TEXT);"
        "CREATE TABLE k (id INT PRIMARY KEY, g INT);"
        "CREATE TABLE sink (g INT, v INT);"
        "CREATE VIEW pub AS SELECT id, g, v, w FROM r "
        "WITH DECLASSIFYING (a);"
        "CREATE VIEW open AS SELECT id, g, v FROM r WHERE v > 1;")
    for i in range(24):
        admin.execute("INSERT INTO k VALUES (?, ?)", (i, i % 8 - 1))

    def session(principal, *tags):
        process = IFCProcess(authority, principal.id)
        for tag in tags:
            process.add_secrecy(tag.id)
        return db.connect(process)

    rng = random.Random(SEED)
    visible = [(2 * i, rng.randrange(1, 7), rng.randrange(1, 5),
                "w%d" % rng.randrange(5), rng.random() < 0.5)
               for i in range(60)]
    hidden = []
    if hidden_seed is not None:
        rng = random.Random(hidden_seed)
        for i in range(rng.randrange(30, 40)):
            kind = rng.choice(("duplicate", "duplicate", "before", "after"))
            g = {"duplicate": rng.choice(visible)[1],
                 "before": -rng.randrange(1, 4),
                 "after": rng.randrange(7, 10)}[kind]
            hidden.append((2 * i + 1, g, rng.randrange(1, 6),
                           rng.choice(("a0", "w2", "z9")),
                           rng.random() < 0.5))
    writers = {(False, False): session(creator),
               (False, True): session(creator, a),
               (True, False): session(other, secret),
               (True, True): session(other, a, secret)}
    pending = [(row, True) for row in hidden[:10]]
    del hidden[:10]
    for row in visible:
        pending.append((row, False))
        while hidden and rng.random() < 0.4:
            pending.append((hidden.pop(), True))
    pending.extend((row, True) for row in hidden)
    for (ident, g, v, w, labeled), is_hidden in pending:
        writers[is_hidden, labeled].execute(
            "INSERT INTO r VALUES (?, ?, ?, ?)", (ident, g, v, w))
    return session(reader)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_declassifying_view_never_tells_of_a_hidden_row(config):
    """Every world answers every statement through ``pub`` and ``open``
    alike, the rows the view fed to ``sink`` among them: what ``pub``
    declassifies shows the ``{a}`` rows and no hidden one."""
    worlds = {name: _view_world(seed, CONFIGS[config])
              for name, seed in WORLDS.items()}
    for sql in VIEW_STATEMENTS + ("SELECT g, v, _label FROM sink "
                                  "ORDER BY g, v",):
        want = _observe(worlds["D"], sql)
        assert "error" not in want, (config, sql, want)
        for name in ("D'", "D''"):
            assert _assert_alike(want, _observe(worlds[name], sql),
                                 (config, name, sql)), (config, name, sql)
    # The view did declassify: both visible labels came through, bare.
    rows = _observe(worlds["D"], VIEW_STATEMENTS[0])["rows"]
    assert len(rows) == 60 and {label for _row, label in rows} == {()}


#: Family → ``(build(hidden seed, config, wal), its statements)``.
FAMILIES = {
    "collapse": (lambda seed, config, wal: _world(seed, config, wal)[0],
                 STATEMENTS),
    "poison": (_poison_world, [sql for sql, _path in POISON_STATEMENTS]),
    "constraints": (_constraint_world,
                    [sql for sql, _error in CONSTRAINT_STATEMENTS]),
    "views": (_view_world, VIEW_STATEMENTS),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_second_pass_shows_what_the_first_did(config, family):
    """The label cuts heap segments keep between statements are no
    observable: each world's reads run twice in one process — the
    second pass answered from the cuts the first one left — and every
    observable repeats (rows, labels, integrity labels, rowcount,
    errors, every low counter).  The writes that change what a second
    pass would read — UPDATE, DELETE, ``INSERT … VALUES`` — are left
    out."""
    build, statements = FAMILIES[family]
    reads = [sql for sql in statements
             if not sql.startswith(("UPDATE", "DELETE"))
             and " VALUES " not in sql]
    reused = counters.snapshot()["labels"]["cuts_reused"]
    for name, seed in WORLDS.items():
        session = build(seed, CONFIGS[config], None)
        first = [_observe(session, sql) for sql in reads]
        assert [_observe(session, sql) for sql in reads] == first, \
            (config, family, name)
    reused = counters.snapshot()["labels"]["cuts_reused"] - reused
    # One-version segments take the per-version loop and keep nothing.
    assert bool(reused) == (session.db.batch_size >= SET_AT_A_TIME_MIN)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_recovered_world_shows_what_the_live_one_does(config, family,
                                                         tmp_path):
    """The recovered-from-WAL leg: every world is built on a logged
    database, and the reader queries a fresh ``Database.recover()`` of
    that log.  The recovered worlds agree on every observable, and
    recovered D shows what live D does: the same rows, labels,
    integrity labels, rowcount and errors."""
    build, statements = FAMILIES[family]
    worlds = {}
    for number, (name, seed) in enumerate(WORLDS.items()):
        path = str(tmp_path / ("world-%d.wal" % number))
        session = build(seed, CONFIGS[config], path)
        session.db.close()
        recovered = Database(session.db.authority, seed=SEED,
                             **CONFIGS[config])
        recovered.recover(path)
        worlds[name] = recovered.connect(session.process)
    live = build(None, CONFIGS[config], None)
    unequal = 0
    for sql in statements:
        want = _observe(worlds["D"], sql)
        seen = _observe(live, sql)
        for what in ("rows", "ilabels", "rowcount", "error"):
            assert seen.get(what) == want.get(what), \
                (config, "live D", sql, what)
        for name in ("D'", "D''"):
            unequal += not _assert_alike(want, _observe(worlds[name], sql),
                                         (config, name, sql))
    # As live: no hidden row turns a plan.
    assert unequal == 0, unequal
