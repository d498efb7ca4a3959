"""Every join operator computes the same join, spilled or not.

All three joins hold their right side the same way — columns plus row
numbers (:class:`repro.db.spill.JoinSide`) — as does every grace
partition of a spilled hash join.  Seeded random labelled tables with
duplicate and NULL keys are joined INNER and LEFT, with a residual ON
conjunct, through ``NestedLoopJoin``, ``IndexLoopJoin`` and
``HashJoin`` (unspilled, and spilled at a small ``work_mem``); every
run must return the same rows, labels and integrity labels, and widen
exactly its result rows.  A hash join on one column keys its table by
the column's values, not 1-tuples: it must find the matches a table of
1-tuples finds, for NULL, NaN, ``1``/``1.0``/``True`` and text keys.
The index join, which runs one visibility pass over all of an outer
batch's candidates, is held to the other two over the probe shapes that
pass must get right: more candidates than a chunk, only hidden or only
dead ones, and a version chain grown inside the open transaction.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from types import SimpleNamespace

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
from repro.core.counters import tally
from repro.core.labels import Label
from repro.db import Database
from repro.db import physical
from repro.db.spill import Spools

#: The same join through each operator: ``r`` has no index (a hash
#: join), ``ri`` holds the same rows under an index on ``k`` (an index
#: join), and keys that are expressions on both sides leave no
#: equi-pair (a nested loop).
JOINS = (
    ("hash", physical.HashJoin,
     "FROM l {kind} JOIN r ON r.k = l.k AND r.w > l.v"),
    ("index", physical.IndexLoopJoin,
     "FROM l {kind} JOIN ri r ON r.k = l.k AND r.w > l.v"),
    ("nested", physical.NestedLoopJoin,
     "FROM l {kind} JOIN r ON r.k + 0 = l.k + 0 AND r.w > l.v"),
)
SELECT = "SELECT l.id, l.v, r.id, r.w "


def _world(seed: int, work_mem: int):
    """Tables ``l``, ``r`` and ``ri`` written under five (secrecy,
    integrity) label pairs, read by a session that covers two of the
    three secrecy tags: rows under the third are suppressed."""
    authority = AuthorityState(idgen=SeededIdGenerator(seed))
    db = Database(authority, seed=seed, work_mem=work_mem)
    owner = authority.create_principal("owner").id
    secret = [authority.create_tag("s%d" % i, owner=owner).id
              for i in range(3)]
    vouch = [authority.create_tag("i%d" % i, owner=owner,
                                  kind="integrity").id for i in range(2)]
    writers = []
    for s, i in ((None, None), (0, None), (1, 0), (2, 1), (0, 1)):
        process = IFCProcess(authority, owner)
        if s is not None:
            process.add_secrecy(secret[s])
        if i is not None:
            process.endorse(vouch[i])
        writers.append(db.connect(process))
    admin = writers[0]
    admin.execute("CREATE TABLE l (id INT PRIMARY KEY, k INT, v INT)")
    for table in ("r", "ri"):
        admin.execute("CREATE TABLE %s (id INT PRIMARY KEY, k INT, w INT)"
                      % table)
    admin.execute("CREATE INDEX ri_k ON ri (k)")
    rng = random.Random(seed)
    keys = rng.randint(3, 8)
    for i in range(rng.randint(8, 20)):
        key = None if rng.random() < 0.15 else rng.randrange(keys)
        rng.choice(writers).execute("INSERT INTO l VALUES (?, ?, ?)",
                                    (i, key, rng.randrange(10)))
    for i in range(rng.randint(60, 150)):
        row = (i, None if rng.random() < 0.15 else rng.randrange(keys + 2),
               rng.randrange(10))
        writer = rng.choice(writers)
        for table in ("r", "ri"):
            writer.execute("INSERT INTO %s VALUES (?, ?, ?)" % table, row)
    reader = IFCProcess(authority, owner)
    for tag in secret[:2]:
        reader.add_secrecy(tag)
    session = db.connect(reader)
    session.execute("ANALYZE")
    return db, session


def _run(db, session, sql):
    """``(rows, widened, operators, spills)``: the statement's rows as
    ``(values, label, ilabel)`` in a canonical order, the rows it
    widened, its plan's operator classes and the grace spills it
    made."""
    prepared = db.prepare_select(db.parse(sql), sql)
    operators = set()
    pending = [prepared.plan]
    while pending:
        plan = pending.pop()
        operators.add(type(plan))
        pending.extend(plan.children())
    spills = counters.snapshot()["spill"]["spills"]
    widened = tally().rows_widened
    with session._autocommit():
        ctx = session._context((), prepared.slot_values)
        rows = [(tuple(values), tuple(sorted(label)), tuple(sorted(ilabel)))
                for batch in prepared.plan.batches(ctx)
                for values, label, ilabel
                in zip(batch.rows(), batch.labels, batch.ilabels)]
    return (sorted(rows, key=repr), tally().rows_widened - widened,
            operators, counters.snapshot()["spill"]["spills"] - spills)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ("", "LEFT"))
def test_every_join_operator_agrees(seed, kind):
    memory = _world(seed, 0)
    bounded = _world(seed, 256)
    results = {}
    for name, operator, clause in JOINS:
        sql = SELECT + clause.format(kind=kind)
        rows, widened, operators, spills = _run(*memory, sql)
        assert operator in operators, (name, operators)
        assert not spills
        results[name] = rows, widened
        if operator is physical.HashJoin:
            rows, widened, operators, spills = _run(*bounded, sql)
            assert operator in operators and spills, (name, operators)
            results["spilled " + name] = rows, widened
    reference = results["nested"]
    assert reference[1] == len(reference[0])
    if kind == "LEFT":
        # Every visible left row comes out, NULL-extended or matched.
        assert {row[0][0] for row in reference[0]} \
            == {row[0][0] for row in _run(*memory, "SELECT l.id, l.v, "
                                          "NULL, NULL FROM l")[0]}
    for name, result in results.items():
        assert result == reference, (seed, kind, name)


# ---------------------------------------------------------------------------
# the index join's one visibility pass per outer batch
# ---------------------------------------------------------------------------

#: ``r``/``ri`` row ids by what the reader's join may find of them.
CROWDED = range(0, 20)       # key 0: more candidates than a 7-row chunk
HIDDEN = range(20, 26)       # key 1: every candidate under an uncovered tag
DEAD = range(26, 31)         # key 2: deleted, held by an older snapshot
CHAIN = 40                   # key 3: updated thrice in the open transaction


def _probe_world(batch_size: int):
    """``(db, reader, holder)``: ``l`` joined to ``r``/``ri`` (``ri``
    indexed on ``k``) where one key has more candidates than a chunk,
    some hidden, one key only hidden ones, one only dead versions a
    second session's snapshot keeps from reclamation, and one a row the
    reader's open transaction updated three times."""
    authority = AuthorityState(idgen=SeededIdGenerator(47))
    db = Database(authority, seed=47, batch_size=batch_size)
    owner = authority.create_principal("owner").id
    secret = [authority.create_tag("s%d" % i, owner=owner).id
              for i in range(3)]
    vouch = authority.create_tag("i0", owner=owner, kind="integrity").id
    writers = []
    for s, endorsed in ((None, False), (0, False), (1, True), (2, False)):
        process = IFCProcess(authority, owner)
        if s is not None:
            process.add_secrecy(secret[s])
        if endorsed:
            process.endorse(vouch)
        writers.append(db.connect(process))
    admin = writers[0]
    admin.execute("CREATE TABLE l (id INT PRIMARY KEY, k INT, v INT)")
    for table in ("r", "ri"):
        admin.execute("CREATE TABLE %s (id INT PRIMARY KEY, k INT, w INT)"
                      % table)
    admin.execute("CREATE INDEX ri_k ON ri (k)")
    process = IFCProcess(authority, owner)
    for tag in secret[:2]:
        process.add_secrecy(tag)
    reader = db.connect(process)
    # Key 0's first ten candidates are visible, so the leaf drops a
    # version only from its second 7-row chunk on.
    rows = ([(i, 0, i % 5, writers[i % 3 if i < 10 else i % 4])
             for i in CROWDED]
            + [(i, 1, 3, writers[3]) for i in HIDDEN]
            + [(i, 2, 4, admin) for i in DEAD]
            + [(CHAIN, 3, 0, reader), (41, 4, 2, writers[1])])
    for row_id, key, w, writer in rows:
        for table in ("r", "ri"):
            writer.execute("INSERT INTO %s VALUES (?, ?, ?)" % table,
                           (row_id, key, w))
    for i, key in enumerate((0, 0, 1, 2, 3, 3, 4, 5, None, 0, 2, 1, 4)):
        writers[i % 3].execute("INSERT INTO l VALUES (?, ?, ?)",
                               (i, key, i % 3))
    holder = db.connect()
    holder.begin()
    for table in ("r", "ri"):
        admin.execute("DELETE FROM %s WHERE k = 2" % table)
    reader.execute("ANALYZE")
    reader.begin()
    for _ in range(3):
        for table in ("r", "ri"):
            reader.execute("UPDATE %s SET w = w + 1 WHERE id = ?" % table,
                           (CHAIN,))
    return db, reader, holder


@pytest.mark.parametrize("batch_size", (1, 7))
@pytest.mark.parametrize("kind", ("", "LEFT"))
def test_index_join_probe_shapes(batch_size, kind):
    """At chunk sizes 7 and 1, the index join's pass over a whole outer
    batch's candidates agrees with the hash join and the nested loop —
    rows, labels, integrity labels and rows widened — over a key with
    more candidates than a chunk, keys whose only candidates are hidden
    or dead but not yet reclaimed, and a version chain grown three
    times inside the reader's open transaction."""
    db, reader, holder = _probe_world(batch_size)
    index = db.catalog.get_table("ri").indexes["ri_k"]
    assert len(index.lookup((2,))) == len(DEAD)       # not reclaimed
    assert len(index.lookup((3,))) == 4               # the chain
    results = {}
    for name, operator, clause in JOINS:
        rows, widened, operators, _ = _run(
            db, reader, SELECT + clause.format(kind=kind))
        assert operator in operators, (name, operators)
        results[name] = rows, widened
    reader.rollback()
    holder.rollback()
    reference = results["nested"]
    assert reference[1] == len(reference[0])
    found = {values[2]: values[3] for values, _, _ in reference[0]}
    assert found[CHAIN] == 3                          # the newest version
    assert not set(found) & (set(HIDDEN) | set(DEAD))
    assert set(found) & set(CROWDED)
    for name, result in results.items():
        assert result == reference, (batch_size, kind, name)


# ---------------------------------------------------------------------------
# a one-column equality keys its hash table by the value itself
# ---------------------------------------------------------------------------

class _Leaf(physical.Plan):
    """Given columns and labels, in batches of the plan's size."""

    def __init__(self, columns, labels, ilabels):
        self.data = columns, labels, ilabels

    def batches(self, ctx):
        columns, labels, ilabels = self.data
        for lo in range(0, len(labels), self.batch_size):
            cut = slice(lo, lo + self.batch_size)
            yield physical.RowBatch([column[cut] for column in columns],
                                    labels[cut], ilabels[cut])


_NAN, _OTHER_NAN = float("nan"), float("nan")
#: NULL, one NaN object met twice and another NaN, the equal
#: ``1``/``1.0``/``True`` (and ``0``/``0.0``/``False``), and text beside
#: the numbers it spells.
ONE_COLUMN_KEYS = (None, _NAN, _NAN, _OTHER_NAN, 1, 1.0, True, "1", "a",
                   0, False, 0.0, 2, "a", None, _OTHER_NAN)


def _is_nan(value) -> bool:
    return isinstance(value, float) and value != value


def _side(rng, n: int, name: str):
    """``(columns, labels, ilabels)`` of ``n`` labelled rows: a key
    drawn from :data:`ONE_COLUMN_KEYS`, and the row's name."""
    tags = range(len(name) * 10, len(name) * 10 + 6)
    labels = [Label(rng.sample(tags, rng.randrange(3))) for _ in range(n)]
    ilabels = [Label(rng.sample(range(90, 93), rng.randrange(2)))
               for _ in range(n)]
    return ([[rng.choice(ONE_COLUMN_KEYS) for _ in range(n)],
             ["%s%d" % (name, i) for i in range(n)]], labels, ilabels)


def _join_model(left, right, kind: str) -> list:
    """The join a hash table keyed by 1-tuples computes: for each left
    row in order, the right rows whose key tuple equals its own
    (identity, then ``==``) in right order; NULL matches nothing; LEFT
    extends an unmatched row with NULLs.  Labels are each pair's
    union."""
    (lkeys, lnames), llabels, lilabels = left
    (rkeys, rnames), rlabels, rilabels = right
    out = []
    for i, key in enumerate(lkeys):
        matches = [j for j, other in enumerate(rkeys)
                   if key is not None and (other,) == (key,)]
        out += [((key, lnames[i], rkeys[j], rnames[j]),
                 Label(llabels[i] | rlabels[j]),
                 Label(lilabels[i] | rilabels[j])) for j in matches]
        if not matches and kind == "left":
            out.append(((key, lnames[i], None, None), llabels[i],
                        lilabels[i]))
    return out


@pytest.mark.parametrize("kind", ("inner", "left"))
def test_one_column_hash_key(kind):
    """A hash join on one column whose values are NULL, NaN (the same
    object, and distinct objects), ``1``/``1.0``/``True`` and text
    beside numbers finds exactly the matches of a table keyed by
    1-tuples — rows in left order, labels the interned unions — at
    batch sizes 1, 7 and the default.  Spilled, every left row keyed by
    anything but NaN gets exactly those matches in some order; a NaN
    read back from a spill file is a new object, so a NaN-keyed row
    gets some of them (or, LEFT, its NULL extension)."""
    rng = random.Random(0x1C02)
    left, right = _side(rng, 40, "l"), _side(rng, 120, "rr")
    expected = _join_model(left, right, kind)
    assert any(_is_nan(values[0]) and values[2] is not None
               for values, _, _ in expected)
    by_name = defaultdict(Counter)
    for values, label, ilabel in expected:
        by_name[values[1]][repr(values), label, ilabel] += 1
    key = [lambda batch, ctx: batch.column(0)]
    for size in (1, 7, physical.DEFAULT_BATCH_SIZE):
        node = physical.stamp_batch_size(physical.HashJoin(
            _Leaf(*left), _Leaf(*right), key, key, None, kind, 2), size)
        for work_mem in (0, 256, 2048):
            spills = counters.snapshot()["spill"]["spills"]
            ctx = SimpleNamespace(work_mem=work_mem,
                                  spools=Spools(work_mem, size))
            got = [(tuple(values), label, ilabel)
                   for batch in node.batches(ctx)
                   for values, label, ilabel
                   in zip(batch.rows(), batch.labels, batch.ilabels)]
            if not work_mem:
                assert got == expected, size
                assert all(label is expected_label and ilabel is expected_i
                           for (_, label, ilabel), (_, expected_label,
                                                    expected_i)
                           in zip(got, expected))
                continue
            assert counters.snapshot()["spill"]["spills"] > spills
            found = defaultdict(Counter)
            for values, label, ilabel in got:
                assert label is Label(label) and ilabel is Label(ilabel)
                found[values[1]][repr(values), label, ilabel] += 1
            for i, lkey in enumerate(left[0][0]):
                name = left[0][1][i]
                if not _is_nan(lkey):
                    assert found[name] == by_name[name], (size, work_mem)
                    continue
                allowed = by_name[name] + Counter(
                    [(repr((lkey, name, None, None)), left[1][i],
                      left[2][i])] if kind == "left" else [])
                assert not found[name] - allowed, (size, work_mem, name)
                assert kind == "inner" or found[name], (size, work_mem)
