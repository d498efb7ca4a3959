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
* SQL shows only what is low: the statement-total line is exactly the
  low counters the plain statement counts, and no line names a counter
  the schema marks high;
* plain EXPLAIN is unchanged: no actuals, nothing executed.
"""

from __future__ import annotations

import re

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
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
    summary = next((line for line in lines
                    if line.startswith("Statement counters:")), "")
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


def _aggregate_over_join():
    """A spilling aggregate-over-join: the database, a confined session
    on it (empty label, nothing hidden from it) and the statement."""
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
    return db, session, ("SELECT r.k, COUNT(*), SUM(s.v) FROM r JOIN s "
                         "ON s.k = r.k GROUP BY r.k")


def test_per_operator_counters_sum_exactly_to_statement_totals():
    """The acceptance pin: a spilling aggregate-over-join, every
    counter family in motion, per-operator exclusive figures summing
    to the statement's registry delta with zero slack."""
    _db, session, sql = _aggregate_over_join()
    lines, ops, totals = _analyze(session, sql)
    assert any("HashJoin" in line for line in lines), lines
    # The join really spilled, and EXPLAIN ANALYZE attributed it there.
    join_actuals = next(a for line, a in zip(lines, map(_actuals, lines))
                        if a and "HashJoin" in line)
    assert join_actuals["spills"] >= 1
    assert join_actuals["spill_partitions"] > 0
    assert join_actuals["spill_bytes"] > 0
    # Zero-slack attribution: every counter key, summed over operators,
    # equals the statement-total delta (time excluded — wall time
    # nests, it does not partition) — but for the rows the cursor
    # widens, one per result row, which no operator built.
    summed = {}
    for op in ops:
        for key, value in op.items():
            if key not in ("rows", "time"):
                summed[key] = summed.get(key, 0) + value
    assert totals.pop("widened") - summed.pop("widened", 0) == 25, lines
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


def test_suppression_and_label_diversity_reach_only_the_embedder():
    """What Query by Label did is high: the statement's metrics carry
    the suppressed tuples and the label checks per candidate segment
    (its distinct labels set-at-a-time, its versions in the per-version
    loop), and no EXPLAIN ANALYZE line does."""
    # 40 rows, every third one secret, batches of 10: each chunk mixes
    # the two labels → 2 label checks per segment.
    db, public, secret = _stack(10)

    def labels(session, sql):
        session.execute(sql)
        metrics = db.last_statement_metrics()
        lines, _ops, _totals = _analyze(session, sql)
        assert not any("suppressed" in line or "covers" in line
                       for line in lines), lines
        return (metrics["labels"]["rows_suppressed"],
                metrics["labels"]["covers_calls"],
                metrics["exec"]["segments_scanned"])

    assert labels(secret, "SELECT id FROM m WHERE v < 12") == (0, 8, 4)
    assert labels(public, "SELECT id FROM m WHERE v < 12") == (14, 8, 4)
    # Index scans are scans too: a one-candidate probe runs the
    # per-version loop, one check for its one version.
    assert labels(public, "SELECT v FROM m WHERE id = 3") == (1, 1, 1)


#: What an operator line may carry besides the schema's named counters.
_ACTUALS = {"rows", "time"}
_LOW_NAMES = {label for _group, _field, _kind, label, _level
              in counters.SCHEMA if label}


@pytest.mark.parametrize("reader", ["confined", "connect"])
def test_statement_totals_are_the_low_counts_of_the_plain_statement(reader):
    """The ``Statement counters:`` line of an analyzed SELECT equals the
    low cells of ``last_statement_metrics()`` after the plain statement
    ran — the cursor's widened rows included — and every pair on every
    line is an actual or a low counter: a counter marked high is never
    printed, for a confined session and for ``db.connect()`` alike
    (each has 14 of the 40 rows hidden from it)."""
    db, public, _secret = _stack()
    spilled_db, spilled, spilled_sql = _aggregate_over_join()
    if reader == "connect":
        public, spilled = db.connect(), spilled_db.connect()
    runs = [(db, public, sql) for sql in QUERIES]
    runs.append((spilled_db, spilled, spilled_sql))
    suppressed = 0
    for database, session, sql in runs:
        session.execute(sql)
        metrics = database.last_statement_metrics()
        suppressed += metrics["labels"]["rows_suppressed"]
        want = {}
        for group, field, _kind, label, level in counters.SCHEMA:
            value = (metrics[group] if group else metrics)[field]
            if level == "low" and value:
                want[label] = value
        lines, ops, totals = _analyze(session, sql)
        assert totals == want, (sql, lines)
        assert want["widened"] == len(session.execute(sql).rows)
        for op in ops:
            assert set(op) <= _ACTUALS | _LOW_NAMES, (sql, lines)
    assert suppressed           # there were hidden tuples to count
