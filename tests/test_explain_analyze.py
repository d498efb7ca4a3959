"""EXPLAIN ANALYZE: executed plans annotated with measured actuals.

The contract under test (db/metrics.py ``PlanRecorder`` + the session's
``_explain_analyze``):

* the statement really executes — root-operator actual rows equal the
  row count the plain statement returns, across the differential
  executors (optimized vs naive plans, batch sizes 1/3/default);
* per-operator counters are *exclusive* (self-only) and sum exactly to
  the statement-total line — execution is single-threaded and
  pull-based, so counter attribution has no slack, even when the plan
  spills;
* ANALYZE of DML applies its writes exactly once (the instrumented
  plan replaces, not precedes, the normal execution);
* plain EXPLAIN is unchanged: no actuals, nothing executed.
"""

from __future__ import annotations

import re

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.db import Database
from repro.errors import DatabaseError

_ACTUAL = re.compile(r"\(actual (.*)\)\s*$")


def _parse_pairs(text):
    out = {}
    for part in text.split():
        key, _, value = part.partition("=")
        if not _:
            continue
        if key == "time":
            out[key] = float(value[:-2])          # strip "ms"
        elif key == "io":
            out[key] = value
        elif key == "labels/batch":               # a ratio, not a count
            out[key] = float(value)
        else:
            out[key] = int(value)
    return out


def _actuals(line):
    """The ``(actual …)`` pairs of one plan line, or None."""
    match = _ACTUAL.search(line)
    return _parse_pairs(match.group(1)) if match else None


def _analyze(session, sql):
    lines = [row[0] for row in session.execute("EXPLAIN ANALYZE " + sql)]
    ops = [a for a in map(_actuals, lines) if a is not None]
    summary = next(line for line in lines
                   if line.startswith("Statement counters:"))
    totals = _parse_pairs(summary[len("Statement counters:"):])
    return lines, ops, totals


def _stack(batch_size=None, **db_kwargs):
    authority = AuthorityState(idgen=SeededIdGenerator(2024))
    kwargs = dict(db_kwargs)
    if batch_size is not None:
        kwargs["batch_size"] = batch_size
    db = Database(authority, seed=2024, **kwargs)
    owner = authority.create_principal("owner")
    tag = authority.create_tag("ea-secret", owner=owner.id)
    public = db.connect(IFCProcess(authority, owner.id))
    secret_proc = IFCProcess(authority, owner.id)
    secret_proc.add_secrecy(tag.id)
    secret = db.connect(secret_proc)
    public.execute("CREATE TABLE m (id INT PRIMARY KEY, grp INT, v INT)")
    public.execute("CREATE ORDERED INDEX m_grp ON m (grp, v)")
    for i in range(40):
        session = secret if i % 3 == 0 else public
        session.execute("INSERT INTO m VALUES (?, ?, ?)",
                        (i, i % 4, (i * 7) % 23))
    return db, public, secret


QUERIES = [
    "SELECT * FROM m",
    "SELECT id, v FROM m WHERE v < 12",
    "SELECT grp, COUNT(*), SUM(v) FROM m GROUP BY grp",
    "SELECT DISTINCT grp FROM m WHERE v >= 5",
    "SELECT id FROM m ORDER BY v DESC, id LIMIT 7 OFFSET 3",
    "SELECT a.id, b.id FROM m a JOIN m b ON b.grp = a.grp "
    "WHERE a.v < 5 AND b.v < 5",
]


@pytest.mark.parametrize("variant", ["default", "batch1", "batch3", "naive"])
def test_root_actual_rows_match_the_real_result(variant):
    kwargs = {"default": {}, "batch1": {"batch_size": 1},
              "batch3": {"batch_size": 3},
              "naive": {"naive_plans": True}}[variant]
    _db, _public, secret = _stack(**kwargs)
    for sql in QUERIES:
        expected = len(secret.execute(sql).rows)
        lines, ops, _totals = _analyze(secret, sql)
        assert ops, lines
        assert ops[0]["rows"] == expected, (variant, sql, lines)


def test_per_operator_counters_sum_exactly_to_statement_totals():
    """The acceptance pin: a spilling aggregate-over-join, every
    counter family in motion, per-operator exclusive figures summing
    to the statement's registry delta with zero slack."""
    authority = AuthorityState(idgen=SeededIdGenerator(7))
    db = Database(authority, seed=7, work_mem=2048)
    owner = authority.create_principal("o")
    session = db.connect(IFCProcess(authority, owner.id))
    session.execute("CREATE TABLE r (id INT PRIMARY KEY, k INT, pad TEXT)")
    session.execute("CREATE TABLE s (sid INT PRIMARY KEY, k INT, v INT)")
    for i in range(200):
        session.execute("INSERT INTO r VALUES (?, ?, ?)",
                        (i, i % 25, "pad-%06d" % i))
        session.execute("INSERT INTO s VALUES (?, ?, ?)",
                        (i, i % 25, i * 3))
    sql = ("SELECT r.k, COUNT(*), SUM(s.v) FROM r JOIN s ON s.k = r.k "
           "GROUP BY r.k")
    lines, ops, totals = _analyze(session, sql)
    assert any("HashJoin" in line for line in lines), lines
    # The join really spilled, and EXPLAIN ANALYZE attributed it there.
    join_actuals = next(a for line, a in zip(lines, map(_actuals, lines))
                        if a and "HashJoin" in line)
    assert join_actuals["spills"] >= 1
    assert join_actuals["spill_partitions"] > 0
    assert join_actuals["spill_bytes"] > 0
    # Zero-slack attribution: every counter key, summed over operators,
    # equals the statement-total delta (time/io excluded — wall time
    # nests, it does not partition).
    summed = {}
    for op in ops:
        for key, value in op.items():
            # labels/batch is a per-scan ratio; a scan line prints
            # suppressed=0 where the summary omits a zero counter.
            if key in ("rows", "batches", "time", "io", "labels/batch") \
                    or not value:
                continue
            summed[key] = summed.get(key, 0) + value
    totals.pop("io", None)
    assert summed == totals, (summed, totals, lines)
    # And the statement's answer is unchanged by instrumentation.
    assert ops[0]["rows"] == len(session.execute(sql).rows) == 25


def test_analyze_update_applies_writes_exactly_once():
    _db, public, secret = _stack()
    before = {r[0]: r[2] for r in secret.execute("SELECT id, grp, v FROM m")}
    lines = [r[0] for r in public.execute(
        "EXPLAIN ANALYZE UPDATE m SET v = v + 1 WHERE id = 5")]
    assert lines[0].startswith("Update m")
    assert "actual rows=1" in lines[0], lines
    after = {r[0]: r[2] for r in secret.execute("SELECT id, grp, v FROM m")}
    assert after[5] == before[5] + 1        # once, not twice
    assert all(after[i] == before[i] for i in before if i != 5)
    assert any("Execution time:" in line for line in lines)


def test_analyze_delete_applies_writes_exactly_once():
    _db, public, secret = _stack()
    assert len(secret.execute("SELECT id FROM m").rows) == 40
    # The write rule scopes the DELETE to the session's own rows: the
    # secret session inserted exactly the id % 3 == 0 tuples (14).
    lines = [r[0] for r in secret.execute(
        "EXPLAIN ANALYZE DELETE FROM m WHERE id % 3 = 0")]
    assert lines[0].startswith("Delete m")
    assert "actual rows=14" in lines[0], lines
    assert len(secret.execute("SELECT id FROM m").rows) == 26


def test_analyze_insert_is_rejected():
    _db, public, _secret = _stack()
    with pytest.raises(DatabaseError):
        public.execute("EXPLAIN ANALYZE INSERT INTO m VALUES (99, 0, 0)")
    assert 99 not in [r[0] for r in public.execute("SELECT id FROM m")]


def test_plain_explain_still_estimates_only():
    _db, public, secret = _stack()
    lines = [r[0] for r in public.execute(
        "EXPLAIN SELECT * FROM m WHERE v < 5")]
    assert not any("actual" in line for line in lines), lines
    assert not any("Execution time" in line for line in lines)
    # and it did not execute: DML via plain EXPLAIN leaves data alone
    public.execute("EXPLAIN UPDATE m SET v = 0")
    assert any(r[0] != 0 for r in public.execute("SELECT v FROM m"))


def test_analyze_result_shape_matches_explain():
    _db, public, _secret = _stack()
    result = public.execute("EXPLAIN ANALYZE SELECT * FROM m")
    assert result.columns == ["QUERY PLAN"]
    assert all(len(row) == 1 for row in result.rows)


def test_analyze_row_counts_per_operator_make_sense():
    """Interior operators see pre-limit cardinalities; the probe counts
    what each operator *emitted*, not what the statement returned.
    ORDER BY … LIMIT plans as a TopN bounded heap, which emits only the
    post-offset rows — the scan below it still shows the full input."""
    _db, _public, secret = _stack()
    lines, ops, _totals = _analyze(
        secret, "SELECT id FROM m ORDER BY v DESC, id LIMIT 7 OFFSET 3")
    by_line = {line.strip().split()[0]: a
               for line, a in zip(lines, map(_actuals, lines)) if a}
    assert by_line["TopN"]["rows"] == 7
    assert by_line["Scan"]["rows"] == 40


def test_every_scan_line_shows_suppression_and_label_diversity():
    """Label diversity — the variable fig6 sweeps — is visible per
    statement: every scan line carries ``suppressed=N`` (zero included)
    and ``labels/batch`` = label checks per candidate chunk (its
    distinct labels set-at-a-time, its versions in the per-version
    loop)."""
    # 40 rows, every third one secret, batches of 10: each chunk mixes
    # the two labels → 2.0 labels per batch.
    _db, public, secret = _stack(10)
    _lines, ops, _totals = _analyze(secret, "SELECT id FROM m WHERE v < 12")
    scan = ops[-1]
    assert scan["suppressed"] == 0 and scan["labels/batch"] == 2.0
    assert scan["covers"] == 2 * 4              # the same sum, un-averaged
    lines, ops, _totals = _analyze(public, "SELECT id FROM m WHERE v < 12")
    scan = ops[-1]
    assert scan["suppressed"] == 14 and scan["labels/batch"] == 2.0, lines
    # Index scans are scans too: a one-candidate probe runs the
    # per-version loop, one check for its one version.
    lines, ops, _totals = _analyze(public, "SELECT v FROM m WHERE id = 3")
    assert "IndexScan" in lines[-3] and ops[-1]["suppressed"] == 1, lines
    assert ops[-1]["labels/batch"] == 1.0
