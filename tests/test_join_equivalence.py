"""Every join operator computes the same join, spilled or not.

All three joins hold their right side the same way — columns plus row
numbers (:class:`repro.db.spill.JoinSide`) — as does every grace
partition of a spilled hash join.  Seeded random labelled tables with
duplicate and NULL keys are joined INNER and LEFT, with a residual ON
conjunct, through ``NestedLoopJoin``, ``IndexLoopJoin`` and
``HashJoin`` (unspilled, and spilled at a small ``work_mem``); every
run must return the same rows, labels and integrity labels, and widen
exactly its result rows.
"""

from __future__ import annotations

import random

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
from repro.core.counters import tally
from repro.db import Database
from repro.db import physical

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
        rows = [(tuple(values), tuple(sorted(label)), tuple(sorted(ilabel)))
                for batch in prepared.plan.batches(session._context(()))
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
