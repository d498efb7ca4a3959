"""Memory-bounded Sort and Aggregate — DISTINCT included, as the
aggregation with no aggregates — (external merge sort, grace hash
aggregation, Top-N) plus the IFC label union in the collapse.

Covers the PR-8 operator family end-to-end through the session layer:

* an ORDER BY whose input exceeds ``work_mem`` spools sorted runs and
  k-way merges them — the ordered output is *identical* to the
  unbounded sort, and ``sort_spills``/``sort_runs`` prove the external
  path actually ran;
* GROUP BY and DISTINCT grace-partition overflowing group state and
  recursively re-aggregate it, with ``agg_spills``/``agg_partitions``
  accounting and EXPLAIN ``spill_partitions=``/``mem=`` annotations;
* ORDER BY … LIMIT plans as a TopN bounded heap (no Limit node, no
  full sort, no spill for small limits) that falls back to the
  external sort when the heap itself could not fit the budget;
* DISTINCT unions the labels and ilabels of *all* collapsed
  duplicates — the regression where two equal rows under different
  secrecy labels used to keep only the first row's label;
* mixed-type sort keys (INT/TEXT from a CASE expression) fall back to
  the type-tagged total order instead of raising, in memory and
  across spilled runs;
* LIMIT/OFFSET edges (LIMIT 0, OFFSET beyond the input, a limit
  exactly on a batch boundary) agree across the row and batch
  executors, and a bound that is not an integer is a typed error;
* DESC keys — negated numbers, wrapped text, NULLs, NaN, signed zeros,
  int/float mixes, and runs that differ in whether they hold a NULL —
  order as a plain-Python oracle sort does;
* a spilled, re-partitioning fold returns the rows, labels, ilabels
  and spill counters recorded for it, at every batch size.
"""

from __future__ import annotations

import random
from functools import cmp_to_key, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
from repro.db import Database
from repro.db.spill import SPILL_FANOUT
from repro.errors import DatabaseError


def _stack(work_mem, batch_size=None, naive=False, n_rows=600, seed=5):
    """One database + session over a populated ``m`` table whose full
    contents weigh ~40KB — comfortably over the tight budgets below."""
    authority = AuthorityState(idgen=SeededIdGenerator(31))
    db = Database(authority, seed=31, work_mem=work_mem,
                  batch_size=batch_size, naive_plans=naive)
    session = db.connect(IFCProcess(authority,
                                    authority.create_principal("p").id))
    session.execute("CREATE TABLE m (id INT PRIMARY KEY, k TEXT,"
                    " grp INT, v FLOAT)")
    rng = random.Random(seed)
    for i in range(n_rows):
        session.execute("INSERT INTO m VALUES (?, ?, ?, ?)",
                        (i, "key-%04d" % rng.randint(0, 199),
                         rng.randint(0, 49), round(rng.uniform(0, 100), 3)))
    session.execute("ANALYZE")
    return session


def _ordered(session, sql, params=()):
    """Order-sensitive result rows with labels."""
    return [(tuple(r), tuple(sorted(r.label)))
            for r in session.execute(sql, params).rows]


def _explain(session, sql):
    return [r[0] for r in session.execute("EXPLAIN " + sql).rows]


# ---------------------------------------------------------------------------
# external merge sort
# ---------------------------------------------------------------------------

def test_external_sort_matches_unbounded_and_counts():
    sql = "SELECT * FROM m ORDER BY v DESC, id"
    expected = _ordered(_stack(0), sql)
    session = _stack(1024)
    before = counters.snapshot()["spill"]
    got = _ordered(session, sql)
    after = counters.snapshot()["spill"]
    assert got == expected                     # ordered, labels included
    assert after["sort_spills"] > before["sort_spills"]
    assert after["sort_runs"] >= before["sort_runs"] + 2
    assert after["rows_spilled"] > before["rows_spilled"]


def test_external_sort_explain_shows_runs_and_budget_mem():
    session = _stack(1024)
    sort_line = next(line for line in
                     _explain(session, "SELECT * FROM m ORDER BY v")
                     if "Sort" in line)
    assert "runs=" in sort_line, sort_line
    runs = int(sort_line.split("runs=")[1].split()[0])
    assert runs >= 2
    # Peak resident estimate is one budget-sized chunk, not the input.
    est_mem = int(sort_line.split("mem=")[1].split("B")[0])
    assert est_mem <= 1024
    # Unbounded: no run annotation, the estimate is the materialized
    # input.
    free_line = next(line for line in
                     _explain(_stack(0), "SELECT * FROM m ORDER BY v")
                     if "Sort" in line)
    assert "runs=" not in free_line


def test_external_sort_batch_and_row_modes_agree():
    sql = "SELECT id, v FROM m ORDER BY k, id"
    by_mode = [_ordered(_stack(1024, batch_size=size), sql)
               for size in (None, 1, 7)]
    assert by_mode[0] == by_mode[1] == by_mode[2]


# ---------------------------------------------------------------------------
# grace hash aggregation
# ---------------------------------------------------------------------------

def test_grace_aggregation_matches_unbounded_and_counts():
    sql = ("SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM m "
           "GROUP BY k ORDER BY k")
    expected = _ordered(_stack(0), sql)
    session = _stack(1024)
    before = counters.snapshot()["spill"]
    got = _ordered(session, sql)
    after = counters.snapshot()["spill"]
    assert got == expected
    assert after["agg_spills"] > before["agg_spills"]
    assert after["agg_partitions"] > before["agg_partitions"]


def test_grace_aggregation_explain_annotations():
    session = _stack(1024)
    agg_line = next(line for line in
                    _explain(session, "SELECT k, COUNT(*) FROM m GROUP BY k")
                    if "Aggregate" in line)
    assert "spill_partitions=" in agg_line, agg_line
    assert int(agg_line.split("spill_partitions=")[1].split()[0]) >= 1
    # Peak resident estimate is the per-partition share, in budget.
    assert int(agg_line.split("mem=")[1].split("B")[0]) <= 1024, agg_line
    # A global aggregate holds one group: never predicted to spill.
    global_line = next(line for line in
                       _explain(session, "SELECT COUNT(*) FROM m")
                       if "Aggregate" in line)
    assert "spill_partitions=" not in global_line


def test_grace_aggregation_with_distinct_aggs_and_recursion():
    """COUNT(DISTINCT …) state survives the spool round trip, and an
    adversarial 1KB budget forces recursive re-partitioning."""
    sql = ("SELECT grp, COUNT(DISTINCT k), AVG(v) FROM m "
           "GROUP BY grp ORDER BY grp")
    expected = _ordered(_stack(0), sql)
    assert _ordered(_stack(1024), sql) == expected
    assert _ordered(_stack(1024, batch_size=1), sql) == expected


# ---------------------------------------------------------------------------
# Top-N
# ---------------------------------------------------------------------------

def test_topn_rewrite_plan_shape_and_parity():
    session = _stack(1024)
    sql = "SELECT id, v FROM m ORDER BY v DESC, id LIMIT 7 OFFSET 3"
    lines = _explain(session, sql)
    assert any("TopN" in line for line in lines), lines
    assert not any(line.strip().startswith(("Sort", "Limit"))
                   for line in lines), lines
    # Naive/reference plans keep the literal Sort + Limit pair.
    naive_lines = _explain(_stack(0, naive=True), sql)
    assert any("Sort" in line for line in naive_lines)
    assert any("Limit" in line for line in naive_lines)
    assert not any("TopN" in line for line in naive_lines)
    assert _ordered(session, sql) == _ordered(_stack(0, naive=True), sql)


def test_topn_small_limit_never_spills():
    """A 5-row heap fits a 2KB budget even though the 600-row input
    (~40KB) never could: the bounded heap must not touch disk."""
    session = _stack(2048)
    tally = counters.tally()
    before = (tally.sort_spills, tally.rows_spilled)
    got = _ordered(session, "SELECT * FROM m ORDER BY v, id LIMIT 5")
    assert len(got) == 5
    # Bounded heap: no runs, not a row on disk.
    assert (tally.sort_spills, tally.rows_spilled) == before
    assert got == _ordered(_stack(0),
                           "SELECT * FROM m ORDER BY v, id LIMIT 5")


def test_topn_falls_back_to_external_sort_for_huge_limits():
    """A limit within a constant of the input would need an over-budget
    heap; the operator must external-sort instead — and still match."""
    sql = "SELECT * FROM m ORDER BY v, id LIMIT 590"
    expected = _ordered(_stack(0), sql)
    session = _stack(1024)
    before = counters.tally().sort_spills
    assert _ordered(session, sql) == expected
    assert counters.tally().sort_spills > before


def test_topn_parameterized_limit():
    sql = "SELECT id FROM m ORDER BY id LIMIT ?"
    session = _stack(1024)
    assert [r[0][0] for r in _ordered(session, sql, (4,))] == [0, 1, 2, 3]
    assert _ordered(session, sql, (0,)) == []


def _operators(lines):
    return [line.split("  (")[0].strip() for line in lines]


def test_distinct_order_by_limit_plans_as_its_group_by_spelling():
    distinct = "SELECT DISTINCT k, grp FROM m ORDER BY k LIMIT 3"
    grouped = "SELECT k, grp FROM m GROUP BY k, grp ORDER BY k LIMIT 3"
    session = _stack(0, n_rows=60)
    assert _explain(session, distinct) == _explain(session, grouped)
    assert _operators(_explain(session, distinct)) == [
        "TopN [k] (limit 3)", "Aggregate [] group by [k, grp]", "Scan m"]
    naive = _stack(0, naive=True, n_rows=60)
    assert _explain(naive, distinct) == _explain(naive, grouped)
    assert _operators(_explain(naive, distinct)) == [
        "Limit (limit 3)", "Sort [k]", "Aggregate [] group by [k, grp]",
        "Scan m"]


def test_limit_estimates_its_own_rows():
    """A literal LIMIT caps the Limit node's row estimate (as it does
    TopN's); a parameter or a bare OFFSET leaves the child's."""
    for naive in (False, True):
        session = _stack(0, naive=naive, n_rows=60)
        for sql, rows in (("SELECT id FROM m LIMIT 3", 3),
                          ("SELECT id FROM m LIMIT 3 OFFSET 2", 3),
                          ("SELECT DISTINCT grp FROM m LIMIT 3", 3),
                          ("SELECT id FROM m LIMIT 1000", 60),
                          ("SELECT id FROM m LIMIT ?", 60),
                          ("SELECT id FROM m OFFSET 2", 60)):
            params = (3,) if "?" in sql else ()
            line = session.execute("EXPLAIN " + sql, params).rows[0][0]
            assert line.startswith("Limit ("), (naive, sql, line)
            assert " rows=%d)" % rows in line, (naive, sql, line)


# ---------------------------------------------------------------------------
# DISTINCT: label union + spill
# ---------------------------------------------------------------------------

def _labeled_duplicates():
    """Two sessions insert the *same* tuple values under different
    secrecy labels; a reader tagged with both sees both rows."""
    authority = AuthorityState(idgen=SeededIdGenerator(77))
    db = Database(authority, seed=77)
    owner = authority.create_principal("owner")
    tag_a = authority.create_tag("dup-a", owner=owner.id)
    tag_b = authority.create_tag("dup-b", owner=owner.id)
    proc_a = IFCProcess(authority, owner.id)
    proc_a.add_secrecy(tag_a.id)
    proc_b = IFCProcess(authority, owner.id)
    proc_b.add_secrecy(tag_b.id)
    reader_proc = IFCProcess(authority, owner.id)
    reader_proc.add_secrecy(tag_a.id)
    reader_proc.add_secrecy(tag_b.id)
    public = db.connect(IFCProcess(authority, owner.id))
    session_a = db.connect(proc_a)
    session_b = db.connect(proc_b)
    reader = db.connect(reader_proc)
    public.execute("CREATE TABLE d (k TEXT, v INT)")
    session_a.execute("INSERT INTO d VALUES (?, ?)", ("dup", 1))
    session_b.execute("INSERT INTO d VALUES (?, ?)", ("dup", 1))
    session_a.execute("INSERT INTO d VALUES (?, ?)", ("only-a", 2))
    return reader, tag_a.id, tag_b.id


def test_distinct_unions_labels_of_collapsed_duplicates():
    """Regression: DISTINCT used to keep the first-seen row's label,
    silently declassifying the collapsed duplicates.  A result row must
    be labeled with the union of every tuple that influenced it —
    exactly AggregateNode's group semantics (section 4.2)."""
    reader, tag_a, tag_b = _labeled_duplicates()
    rows = reader.execute("SELECT DISTINCT k, v FROM d").rows
    by_key = {tuple(r): set(r.label) for r in rows}
    assert by_key[("dup", 1)] == {tag_a, tag_b}
    assert by_key[("only-a", 2)] == {tag_a}


def test_distinct_label_union_matches_group_by():
    """DISTINCT and the equivalent GROUP BY must label rows alike."""
    reader, _tag_a, _tag_b = _labeled_duplicates()
    distinct = sorted((tuple(r), tuple(sorted(r.label))) for r in
                      reader.execute("SELECT DISTINCT k, v FROM d").rows)
    grouped = sorted((tuple(r), tuple(sorted(r.label))) for r in
                     reader.execute("SELECT k, v FROM d GROUP BY k, v").rows)
    assert distinct == grouped


def test_distinct_collapses_below_its_sort():
    """``SELECT DISTINCT … ORDER BY`` is the aggregation with no
    aggregates *under* the sort: with both spilling, the output is the
    unbounded run's in the order the statement fixes, and what the
    sort buffers and spools is the distinct rows, not the table."""
    sql = "SELECT DISTINCT grp FROM m ORDER BY grp DESC"
    expected = _ordered(_stack(0), sql)
    values = [row[0] for row, _label in expected]
    assert values == sorted(set(values), reverse=True) and len(values) > 40
    session = _stack(1024)
    before = counters.snapshot()["spill"]
    got = _ordered(session, sql)
    after = counters.snapshot()["spill"]
    assert got == expected                     # ordered comparison
    assert after["agg_spills"] > before["agg_spills"]
    assert after["sort_spills"] > before["sort_spills"]
    lines = [r[0].strip() for r in
             session.execute("EXPLAIN ANALYZE " + sql).rows]
    assert lines[0].startswith("Sort [grp DESC]"), lines
    assert lines[1].startswith("Aggregate [] group by [grp]"), lines
    assert lines[2].startswith("Scan m"), lines
    assert "actual rows=600 " in lines[2], lines
    assert "actual rows=%d " % len(values) in lines[1], lines
    assert " spill_rows=%d " % len(values) in lines[0], lines


# ---------------------------------------------------------------------------
# mixed-type sort keys
# ---------------------------------------------------------------------------

MIXED_SQL = ("SELECT id, CASE WHEN grp < 25 THEN grp ELSE k END FROM m "
             "ORDER BY CASE WHEN grp < 25 THEN grp ELSE k END, id")


def test_mixed_type_order_by_does_not_raise():
    """The natural per-column key raises TypeError on INT/TEXT mixes
    that DeterministicOrder handles fine; Sort must fall back to the
    type-tagged total order — numbers before strings, natural order
    within each class — identically in memory and across spilled runs
    (different runs may hold mutually incomparable types)."""
    in_memory = _ordered(_stack(0), MIXED_SQL)
    assert len(in_memory) == 600
    mixed_values = [row[0][1] for row in in_memory]
    ints = [v for v in mixed_values if isinstance(v, int)]
    strs = [v for v in mixed_values if isinstance(v, str)]
    assert ints and strs
    # Numbers first (sorted), then strings (sorted): the tagged order.
    assert mixed_values[:len(ints)] == sorted(ints)
    assert mixed_values[len(ints):] == sorted(strs)


def test_mixed_type_order_by_spilled_matches_in_memory():
    expected = _ordered(_stack(0), MIXED_SQL)
    session = _stack(1024)
    before = counters.tally().sort_spills
    assert _ordered(session, MIXED_SQL) == expected
    assert counters.tally().sort_spills > before
    assert _ordered(_stack(1024, batch_size=1), MIXED_SQL) == expected


def test_mixed_type_topn():
    sql = MIXED_SQL + " LIMIT 8"
    expected = _ordered(_stack(0, naive=True), sql)
    assert _ordered(_stack(1024), sql) == expected


# ---------------------------------------------------------------------------
# LIMIT/OFFSET edges: row/batch executor parity
# ---------------------------------------------------------------------------

EDGE_QUERIES = (
    # Plain Limit node (no ORDER BY: heap order is deterministic and
    # identical across executors on identically-populated databases).
    ("SELECT id FROM m LIMIT 0", ()),
    ("SELECT id FROM m LIMIT ? OFFSET ?", (5, 10_000)),   # offset past end
    ("SELECT id FROM m LIMIT 8", ()),                     # = batch boundary
    ("SELECT id FROM m LIMIT 7 OFFSET 1", ()),            # spans boundary
    # TopN edges.
    ("SELECT id FROM m ORDER BY v, id LIMIT 0", ()),
    ("SELECT id FROM m ORDER BY v, id LIMIT 5 OFFSET 10000", ()),
    ("SELECT id FROM m ORDER BY v, id LIMIT 8 OFFSET 8", ()),
    # Sort + Limit without a limit: OFFSET alone.
    ("SELECT id FROM m ORDER BY v, id OFFSET 595", ()),
)


def test_limit_offset_edges_row_batch_parity():
    sessions = [_stack(0, naive=True),        # size-1 naive reference
                _stack(0),                    # default batches
                _stack(0, batch_size=1),      # every boundary exists
                _stack(0, batch_size=8)]      # limits land on boundaries
    for sql, params in EDGE_QUERIES:
        results = [_ordered(s, sql, params) for s in sessions]
        assert results.count(results[0]) == len(results), \
            (sql, [len(r) for r in results])


def test_limit_zero_and_far_offset_return_nothing():
    session = _stack(0)
    assert session.execute("SELECT * FROM m LIMIT 0").rows == []
    assert session.execute(
        "SELECT * FROM m ORDER BY id LIMIT 3 OFFSET 10000").rows == []


def _limit_operator(session, sql):
    """The operator that applies a statement's LIMIT/OFFSET."""
    lines = " ".join(_explain(session, sql))
    return "TopN" if "TopN" in lines else "Limit"


#: ``(clause, parameters, the value named in the error)``.
BAD_BOUNDS = (
    ("LIMIT 2.0", (), "2.0"),
    ("LIMIT ?", ("x",), "'x'"),
    ("LIMIT 2 OFFSET ?", (1.5,), "1.5"),
)


@pytest.mark.parametrize("clause,params,shown", BAD_BOUNDS,
                         ids=[clause for clause, _, _ in BAD_BOUNDS])
def test_a_non_integer_limit_or_offset_is_a_typed_error(clause, params,
                                                        shown):
    """A LIMIT or OFFSET that is not an integer raises DatabaseError
    naming the clause and the value — from the Limit node and from
    TopN alike — rather than a TypeError from deep in the operator."""
    session = _stack(0, n_rows=20)
    name = clause.split()[-2]
    seen = set()
    for order in ("", "ORDER BY v DESC "):
        sql = "SELECT id FROM m " + order + clause
        seen.add(_limit_operator(session, sql))
        with pytest.raises(DatabaseError) as caught:
            session.execute(sql, params)
        assert name in str(caught.value) and shown in str(caught.value)
    assert seen == {"Limit", "TopN"}


def test_negative_limit_returns_nothing_and_negative_offset_skips_none():
    """Pinned: a negative LIMIT returns no rows, with or without an
    OFFSET; a negative OFFSET skips nothing — in both operators."""
    session = _stack(0, n_rows=20)
    for order in ("", "ORDER BY id "):
        sql = "SELECT id FROM m " + order + "LIMIT ? OFFSET ?"
        assert session.execute(sql, (-1, 0)).rows == []
        assert session.execute(sql, (-3, 5)).rows == []
        assert [r[0] for r in session.execute(sql, (3, -2)).rows] \
            == [0, 1, 2]


# ---------------------------------------------------------------------------
# DESC keys: negated numbers, wrapped text, NULLs and mixes
# ---------------------------------------------------------------------------

def _sql_order(rows, keys):
    """The plain-Python ORDER BY oracle: a stable sort of ``rows`` by
    ``keys`` — ``(key function, descending)`` pairs — with NULLs last
    ascending and first descending, and values that compare neither
    way tied (so NaN ties with everything)."""
    def compare(a, b):
        for key, desc in keys:
            x, y = key(a), key(b)
            if x is None or y is None:
                if x is None and y is None:
                    continue
                sign = 1 if x is None else -1
            elif x < y:
                sign = -1
            elif y < x:
                sign = 1
            else:
                continue
            return -sign if desc else sign
        return 0
    return sorted(rows, key=cmp_to_key(compare))


def _hazards(work_mem=None, batch_size=None, n_rows=240):
    """Table ``h``: an INT with ties, a FLOAT of signed zeros and ties,
    a BOOL, a TEXT and an INT whose NULLs all sit in the second half
    of the heap (so the early runs of an external sort hold none);
    returns the session and the rows in heap order."""
    authority = AuthorityState(idgen=SeededIdGenerator(61))
    db = Database(authority, seed=61, work_mem=work_mem,
                  batch_size=batch_size)
    session = db.connect()
    session.execute("CREATE TABLE h (id INT PRIMARY KEY, i INT, f FLOAT,"
                    " b BOOL, t TEXT, n INT)")
    rng = random.Random(61)
    rows = []
    for id_ in range(n_rows):
        row = (id_, rng.randrange(-5, 6),
               rng.choice((-0.0, 0.0, 1.5, -2.25, 7.0, 1e300)),
               rng.random() < 0.5, "t%02d" % rng.randrange(12),
               None if id_ >= n_rows // 2 and rng.random() < 0.3
               else rng.randrange(9))
        session.execute("INSERT INTO h VALUES (?, ?, ?, ?, ?, ?)", row)
        rows.append(row)
    return session, rows


def _mixed(row):
    """``CASE WHEN id % 3 = 0 THEN i ELSE f END``: an INT or a FLOAT."""
    return row[1] if row[0] % 3 == 0 else row[2]


def _at(i):
    return lambda row: row[i]


#: ``(ORDER BY, oracle keys)``; every statement selects ``id`` first.
DESC_ORDERS = (
    ("f DESC", [(_at(2), True)]),                     # -0.0 ties 0.0
    ("i DESC", [(_at(1), True)]),                     # ties keep arrival
    ("b DESC, i", [(_at(3), True), (_at(1), False)]),
    ("CASE WHEN id % 3 = 0 THEN i ELSE f END DESC",   # int and float
     [(_mixed, True)]),
    ("t DESC", [(_at(4), True)]),                     # text: wrapped
    ("n DESC, id", [(_at(5), True), (_at(0), False)]),
    ("n DESC, f DESC, t", [(_at(5), True), (_at(2), True),
                           (_at(4), False)]),
)


@pytest.mark.parametrize("order,keys", DESC_ORDERS,
                         ids=[order for order, _ in DESC_ORDERS])
def test_desc_keys_match_the_oracle(order, keys):
    """At the suite's settings (whatever ``REPRO_BATCH_SIZE`` and
    ``REPRO_WORK_MEM`` say), as a full sort and as a Top-N."""
    session, rows = _hazards()
    expected = [row[0] for row in _sql_order(rows, keys)]
    got = [r[0] for r in session.execute(
        "SELECT id FROM h ORDER BY %s" % order).rows]
    assert got == expected
    got = [r[0] for r in session.execute(
        "SELECT id FROM h ORDER BY %s LIMIT 9 OFFSET 2" % order).rows]
    assert got == expected[2:11]


@pytest.mark.parametrize("work_mem,batch_size",
                         [(1024, None), (1024, 1), (4096, 7)])
def test_external_sort_runs_that_differ_in_nulls_merge_in_order(
        work_mem, batch_size):
    """The early runs hold no NULL ``n`` and the late ones do, so a run
    alone would key ``n DESC`` by negation and the merge must not:
    every run of one merge is keyed from the types of all of them."""
    session, rows = _hazards(work_mem, batch_size)
    before = counters.tally().sort_runs
    got = [r[0] for r in session.execute(
        "SELECT id FROM h ORDER BY n DESC, i DESC").rows]
    assert counters.tally().sort_runs - before > 2
    assert got == [row[0] for row in _sql_order(
        rows, [(_at(5), True), (_at(1), True)])]


def test_nan_desc_matches_the_oracle_in_memory():
    """NaN compares neither way with anything, so only a single
    comparison sort over the whole input has a defined result: in
    memory, a NaN-bearing DESC column orders exactly as the oracle's
    stable sort under the same comparisons."""
    authority = AuthorityState(idgen=SeededIdGenerator(67))
    session = Database(authority, seed=67, work_mem=0).connect()
    session.execute("CREATE TABLE z (id INT PRIMARY KEY, f FLOAT)")
    rng = random.Random(67)
    rows = [(i, rng.choice((float("nan"), 2.5, -1.0, 0.0, 9.75)))
            for i in range(60)]
    for row in rows:
        session.execute("INSERT INTO z VALUES (?, ?)", row)
    got = [r[0] for r in session.execute(
        "SELECT id FROM z ORDER BY f DESC").rows]
    assert got == [row[0] for row in _sql_order(rows, [(_at(1), True)])]



@pytest.mark.parametrize("work_mem,batch_size", [(65536, 7),
                                                 (262144, 1024)])
def test_spilled_nan_sort_loses_no_row(work_mem, batch_size):
    """A NaN leaves a run out of order (``sorted`` gives it no place),
    so a block's last key need not be its largest; the merge must still
    emit every row, in multi-row blocks too.  Where NaN only breaks
    ties — ``ORDER BY g, f DESC`` — the primary column keeps the
    oracle's order."""
    authority = AuthorityState(idgen=SeededIdGenerator(71))
    session = Database(authority, seed=71, work_mem=work_mem,
                       batch_size=batch_size).connect()
    session.execute("CREATE TABLE z (id INT PRIMARY KEY, g INT, f FLOAT,"
                    " pad TEXT)")
    rng = random.Random(71)
    rows = [(i, rng.randrange(5), rng.choice(
        (float("nan"), 2.5, -1.0, 0.0, 9.75, 1.0, 5.0)), "p" * 40)
        for i in range(3000)]
    for row in rows:
        session.execute("INSERT INTO z VALUES (?, ?, ?, ?)", row)
    for order in ("f", "f DESC", "g, f DESC"):
        before = counters.tally().sort_runs
        got = session.execute("SELECT id, g FROM z ORDER BY " + order).rows
        assert counters.tally().sort_runs - before >= 2, order
        assert sorted(r[0] for r in got) == list(range(len(rows))), order
    assert [r[1] for r in got] == sorted(row[1] for row in rows)


def test_numeric_desc_keys_are_negated_not_wrapped():
    """A NULL-free numeric DESC column is keyed by its negation — no
    object per row; text, NULL-bearing and mixed columns keep the
    wrapper."""
    from repro.db.physical import Sort, _Desc

    sort = Sort(None, [None], [True])
    assert sort._keys([[3, 1.5, True]], [{int, float, bool}]) \
        == [[-3, -1.5, -1]]
    for column in (["b", "a"], [2, None], [2, "a"]):
        (keys,) = sort._keys([column], [set(map(type, column))])
        assert all(type(key) is _Desc for key in keys), column


# ---------------------------------------------------------------------------
# metrics wiring
# ---------------------------------------------------------------------------

def test_explain_analyze_reports_sort_and_agg_counters():
    session = _stack(1024)
    text = "\n".join(r[0] for r in session.execute(
        "EXPLAIN ANALYZE SELECT k, COUNT(*) FROM m GROUP BY k ORDER BY k"))
    assert "sort_runs=" in text, text
    assert "agg_spills=" in text, text


def test_snapshot_has_sort_and_agg_fields():
    snap = counters.snapshot()["spill"]
    for field in ("sort_spills", "sort_runs", "agg_spills",
                  "agg_partitions"):
        assert field in snap


# ---------------------------------------------------------------------------
# block-at-a-time spilling: budget × batch-size parity matrix
# ---------------------------------------------------------------------------

#: Rows per budget: enough to overflow it several times over, few
#: enough that the 1 KiB sort's one-temp-file-per-run stays well under
#: the descriptor limit.
PARITY_ROWS = {1024: 300, 65536: 1500, 1 << 20: 7000}

PARITY_QUERIES = (
    # (sql, the statement fixes the result order)
    # Hash joins: NULL keys on both sides never match; LEFT NULL-extends
    # them and the unmatched keys.
    ("SELECT a.id, b.id, b.w FROM a JOIN b ON a.k = b.k", False),
    ("SELECT a.id, a.s, b.id FROM a LEFT JOIN b ON a.k = b.k "
     "AND b.id > 3", False),
    # Grace aggregation with DISTINCT aggregates.
    ("SELECT g, COUNT(DISTINCT k), COUNT(*), SUM(v), MIN(s) FROM a "
     "GROUP BY g", False),
    # DISTINCT below its sort: the keys are total over the distinct
    # rows (which duplicate a spilled collapse meets first is not).
    ("SELECT DISTINCT g, k FROM a ORDER BY g, k", True),
    # DESC, NULLs, and ties that only arrival order breaks.
    ("SELECT id, k, g FROM a ORDER BY k DESC, g", True),
    ("SELECT id, g FROM a ORDER BY g", True),
    # INT in the early runs, TEXT in the late ones.
    ("SELECT id FROM a ORDER BY CASE WHEN id < HALF THEN id ELSE s END",
     True),
)


def _parity_stack(work_mem, batch_size, n_rows):
    authority = AuthorityState(idgen=SeededIdGenerator(47))
    db = Database(authority, seed=47, work_mem=work_mem,
                  batch_size=batch_size)
    owner = authority.create_principal("owner").id
    tags = [authority.create_tag("t%d" % i, owner=owner).id
            for i in range(3)]
    writers = []
    for held in ((), tags[:1], tags[1:]):
        process = IFCProcess(authority, owner)
        for tag in held:
            process.add_secrecy(tag)
        writers.append(db.connect(process))
    writers[0].execute("CREATE TABLE a (id INT PRIMARY KEY, k INT, g INT,"
                       " s TEXT, v FLOAT)")
    writers[0].execute("CREATE TABLE b (id INT PRIMARY KEY, k INT, w TEXT)")
    rng = random.Random(n_rows)
    keys = max(8, n_rows // 3)
    for i in range(n_rows):
        # Labels change every few rows, so blocks hold several.
        writer = writers[(i // 5) % 3]
        writer.execute(
            "INSERT INTO a VALUES (?, ?, ?, ?, ?)",
            (i, None if i % 11 == 0 else rng.randrange(keys),
             rng.randrange(max(4, n_rows // 2)), "s-%05d" % rng.randrange(n_rows),
             round(rng.uniform(0, 50), 2)))
        writer.execute(
            "INSERT INTO b VALUES (?, ?, ?)",
            (i, None if i % 13 == 0 else rng.randrange(2 * keys),
             "w-%d" % (i % 97)))
    reader = IFCProcess(authority, owner)
    for tag in tags:
        reader.add_secrecy(tag)
    session = db.connect(reader)
    session.execute("ANALYZE")
    return session


def test_spill_parity_matrix():
    """work_mem ∈ {1 KiB, 64 KiB, 1 MiB} × batch_size ∈ {1, 7, 1024}:
    one-row blocks, multi-row blocks with partial tails, and blocks of
    a hundred rows — every spilling operator must return the unbounded
    executor's rows and labels (in its order, where the statement fixes
    one), and must actually have spilled."""
    for work_mem, n_rows in PARITY_ROWS.items():
        queries = [(sql.replace("HALF", str(n_rows // 2)), ordered)
                   for sql, ordered in PARITY_QUERIES]
        reference = _parity_stack(0, None, n_rows)
        expected = []
        for sql, ordered in queries:
            rows = _ordered(reference, sql)
            expected.append(rows if ordered else sorted(rows, key=repr))
        for batch_size in (1, 7, 1024):
            session = _parity_stack(work_mem, batch_size, n_rows)
            before = counters.snapshot()["spill"]
            for (sql, ordered), want in zip(queries, expected):
                got = _ordered(session, sql)
                if not ordered:
                    got.sort(key=repr)
                assert got == want, (work_mem, batch_size, sql)
            after = counters.snapshot()["spill"]
            for field in ("spills", "agg_spills", "sort_spills"):
                assert after[field] > before[field], \
                    (work_mem, batch_size, field)


# ---------------------------------------------------------------------------
# the spilled fold, pinned: rows, labels, ilabels and counters
# ---------------------------------------------------------------------------

def _pinned_stack(batch_size):
    """48 rows over 16 groups, written under five (secrecy, integrity)
    label pairs, read by a session that covers every secrecy tag.
    Group keys are ints only, so partition routing does not depend on
    the process's string or ``None`` hashes."""
    authority = AuthorityState(idgen=SeededIdGenerator(59))
    db = Database(authority, seed=59, work_mem=512, batch_size=batch_size)
    owner = authority.create_principal("owner").id
    secret = [authority.create_tag("s%d" % i, owner=owner).id
              for i in range(3)]
    vouch = [authority.create_tag("i%d" % i, owner=owner,
                                  kind="integrity").id for i in range(2)]
    names = {tag: "s%d" % i for i, tag in enumerate(secret)}
    names.update((tag, "i%d" % i) for i, tag in enumerate(vouch))
    writers = []
    for s, i in ((None, None), (0, None), (1, 0), (2, 1), (0, 1)):
        process = IFCProcess(authority, owner)
        if s is not None:
            process.add_secrecy(secret[s])
        if i is not None:
            process.endorse(vouch[i])
        writers.append(db.connect(process))
    writers[0].execute("CREATE TABLE a (id INT PRIMARY KEY, g INT, k INT,"
                       " v INT)")
    rng = random.Random(59)
    for n in range(48):
        writers[rng.randrange(len(writers))].execute(
            "INSERT INTO a VALUES (?, ?, ?, ?)",
            (n, rng.randrange(16), None if n % 7 == 0 else rng.randrange(5),
             rng.randrange(100)))
    reader = IFCProcess(authority, owner)
    for tag in secret:
        reader.add_secrecy(tag)
    return db.connect(reader), names


#: (statement, rows in output order as (values, label, ilabel) with tags
#: by name, the statement's spill counters), recorded from the per-row
#: fold this engine had before the fold went batch-at-a-time.
PINNED_SPILLS = (
    ("SELECT g, COUNT(*), SUM(v), COUNT(DISTINCT k) FROM a GROUP BY g",
     [((2, 3, 199, 2), ("s0",), ()),
      ((10, 6, 362, 4), ("s0", "s1"), ("i0", "i1")),
      ((7, 6, 292, 4), ("s0",), ("i1",)),
      ((1, 2, 160, 1), ("s0", "s1"), ("i0",)),
      ((13, 3, 99, 2), ("s0", "s1"), ("i0", "i1")),
      ((4, 2, 109, 1), ("s0",), ()),
      ((15, 3, 144, 2), ("s1", "s2"), ("i0", "i1")),
      ((6, 1, 95, 0), (), ()),
      ((3, 3, 163, 1), ("s1",), ("i0",)),
      ((12, 2, 156, 2), ("s0",), ("i1",)),
      ((0, 6, 238, 4), ("s1", "s2"), ("i0", "i1")),
      ((9, 3, 276, 3), ("s0", "s2"), ("i1",)),
      ((14, 2, 83, 2), ("s0",), ()),
      ((11, 3, 98, 2), ("s0", "s1"), ("i0", "i1")),
      ((5, 3, 143, 2), ("s0", "s1", "s2"), ("i0", "i1"))],
     {"agg_spills": 1, "agg_partitions": 14, "repartitions": 7,
      "rows_spilled": 68, "bytes_spilled": 3991}),
    ("SELECT DISTINCT g % 4, v % 5 FROM a",
     [((2, 3), ("s0",), ()),
      ((0, 3), ("s2",), ("i1",)),
      ((1, 4), ("s1", "s2"), ("i0", "i1")),
      ((3, 4), (), ()),
      ((2, 0), ("s0",), ()),
      ((3, 1), ("s0",), ("i1",)),
      ((1, 1), ("s0",), ()),
      ((1, 3), ("s1", "s2"), ("i0", "i1")),
      ((3, 3), ("s0", "s1"), ("i0",)),
      ((2, 2), ("s0", "s1"), ("i0", "i1")),
      ((3, 0), ("s0", "s1", "s2"), ("i0", "i1")),
      ((0, 0), ("s0", "s1"), ("i0",)),
      ((1, 0), ("s0", "s1"), ("i0", "i1")),
      ((0, 2), ("s0", "s2"), ("i1",)),
      ((2, 1), (), ()),
      ((2, 4), ("s0",), ("i1",)),
      ((3, 2), (), ()),
      ((0, 4), ("s0",), ())],
     {"agg_spills": 1, "agg_partitions": 11, "repartitions": 2,
      "rows_spilled": 47, "bytes_spilled": 2435}),
)


@pytest.mark.parametrize("batch_size", [1, 7, 1024])
def test_spilled_fold_is_pinned(batch_size):
    """A GROUP BY with two aggregates and a DISTINCT one, and a SELECT
    DISTINCT, under a 512-byte budget that spills and re-partitions:
    the rows in output order (resident groups first-seen, then the
    partitions), their labels and integrity labels, and every spill
    counter are what they were recorded as, at every batch size."""
    session, names = _pinned_stack(batch_size)
    db = session.db

    def named(label):
        return tuple(sorted(names[tag] for tag in label))

    for sql, rows, spilled in PINNED_SPILLS:
        before = counters.snapshot()["spill"]
        prepared = db.prepare_select(db.parse(sql), sql)
        with session._autocommit():
            ctx = session._context((), prepared.slot_values)
            got = [(tuple(values), named(label), named(ilabel))
                   for batch in prepared.plan.batches(ctx)
                   for values, label, ilabel
                   in zip(batch.rows(), batch.labels, batch.ilabels)]
        after = counters.snapshot()["spill"]
        assert got == rows, sql
        assert {field: after[field] - before[field]
                for field in spilled} == spilled, sql


def test_merge_compares_tagged_when_runs_disagree_on_key_types():
    """Two runs, each sorted naturally — INT keys in one, TEXT in the
    other, so neither needed the tagged order — must still merge: the
    stored keys' type sets disagree, so the merge compares under the
    tagged order (numbers before strings) instead of raising."""
    from repro.core.labels import EMPTY_LABEL
    from repro.db.physical import Sort
    from repro.db.spill import SortRuns, Spools

    sort = Sort(None, [None], [False])
    runs = SortRuns(Spools(4096, 3), 1)
    for keys in ([5, 1, 3, 1], ["b", "a", "c"]):
        n = len(keys)
        sort._spool_run(
            runs, [list(range(n)), [EMPTY_LABEL] * n, [EMPTY_LABEL] * n,
                   keys], 1)
    assert runs.key_types == [{int, str}]
    merged = [row for columns, _labels, _ilabels
              in runs.merged(partial(sort._row_keys, runs.key_types))
              for row in zip(*columns)]
    # Run 0's rows by key (ties in arrival order), then run 1's.
    assert merged == [(1,), (3,), (2,), (0,), (1,), (0,), (2,)]


# ---------------------------------------------------------------------------
# the block merge: stable, bounded fan-in, cascaded
# ---------------------------------------------------------------------------

#: Sort-key columns for the merge property: ties, DESC text, NULLs and
#: a mix of INT and TEXT (the type-tagged order).
_KEY_COLUMNS = st.sampled_from((
    st.integers(0, 4),
    st.text("ab", max_size=2),
    st.one_of(st.none(), st.integers(-3, 3)),
    st.one_of(st.none(), st.text("xy", max_size=2)),
    st.one_of(st.integers(0, 3), st.text("pq", max_size=1)),
))


@st.composite
def _spooled_runs(draw):
    """``(descending, runs)``: one DESC flag per key column, and runs of
    key rows — 1 to 20 runs, so below and above ``SPILL_FANOUT``."""
    kinds = draw(st.lists(_KEY_COLUMNS, min_size=1, max_size=2))
    descending = draw(st.lists(st.booleans(), min_size=len(kinds),
                               max_size=len(kinds)))
    row = st.tuples(*kinds)
    runs = draw(st.lists(st.lists(row, min_size=1, max_size=12),
                         min_size=1, max_size=20))
    return descending, runs


@given(_spooled_runs(), st.sampled_from((1, 7, 1024)),
       st.sampled_from((1024, 4096, 65536)), st.integers(0, 8),
       st.one_of(st.none(), st.integers(0, 40)))
@settings(max_examples=150, deadline=None)
def test_merge_is_a_stable_sort_of_every_spooled_row(
        drawn, batch_size, work_mem, offset, limit):
    """The merge of spooled runs — each ordered under its own key
    types — is the stable sort of all their rows in run order, keyed
    under the types of all of them: ties go to the earlier run, then
    the earlier row.  At every block size, at run counts below and
    above the fan-in (a cascade), and windowed as OFFSET/LIMIT cut it."""
    from repro.core.labels import EMPTY_LABEL
    from repro.db.physical import Sort, _windowed
    from repro.db.spill import SortRuns, Spools

    descending, run_rows = drawn
    width = len(descending)
    sort = Sort(None, [None] * width, descending)
    runs = SortRuns(Spools(work_mem, batch_size), width)
    ident = iter(range(10 ** 6))
    spooled = []                    # (id, key row), each run in its order
    for rows in run_rows:
        n = len(rows)
        ids = [next(ident) for _ in rows]
        keys = [list(column) for column in zip(*rows)]
        sort._spool_run(runs, [ids, [EMPTY_LABEL] * n, [EMPTY_LABEL] * n,
                               *keys], 1)
        order = sort._order(keys, None)
        spooled += [(ids[i], rows[i]) for i in order]
    every = [list(column) for column in zip(*[row for _, row in spooled])]
    expected = [spooled[i][0] for i in sort._order(every, None)]
    stop = None if limit is None else offset + limit
    try:
        batches = list(_windowed(
            runs.merged(partial(sort._row_keys, runs.key_types)),
            offset, stop, batch_size))
    finally:
        runs.close()
    assert [value for batch in batches for value in batch.column(0)] \
        == expected[offset:stop]
    # Merge rounds are coalesced: every batch but the last is full.
    assert all(len(batch) == batch_size for batch in batches[:-1])
    assert all(len(batch) for batch in batches)
    cascades = 0
    count = len(run_rows)
    while count > SPILL_FANOUT:
        cascades += count // SPILL_FANOUT + (count % SPILL_FANOUT > 1)
        count = -(-count // SPILL_FANOUT)
    assert len(runs.runs) == len(run_rows) + cascades


@pytest.mark.parametrize("batch_size", [1, 7, 1024])
@pytest.mark.parametrize("work_mem", [1024, 16384],
                         ids=["cascaded", "one pass"])
def test_spilled_order_by_matches_the_oracle_below_and_above_fanin(
        work_mem, batch_size):
    """End to end: an ORDER BY over DESC text, a NULL-bearing column and
    ties, spilled to more runs than the fan-in (a cascade) or fewer,
    equals the oracle's stable sort — whole, and under OFFSET/LIMIT
    (a limit too large for a Top-N heap external-sorts and windows the
    merge)."""
    session, rows = _hazards(work_mem, batch_size)
    expected = [row[0] for row in _sql_order(
        rows, [(_at(4), True), (_at(5), False), (_at(1), False)])]
    sql = "SELECT id FROM h ORDER BY t DESC, n, i"
    before = counters.tally().sort_runs
    assert [r[0] for r in session.execute(sql).rows] == expected
    runs = counters.tally().sort_runs - before
    assert runs > SPILL_FANOUT if work_mem == 1024 else 2 <= runs <= 8
    for limit, offset in ((200, 0), (150, 37), (3, 230), (50, 300)):
        got = [r[0] for r in session.execute(
            sql + " LIMIT ? OFFSET ?", (limit, offset)).rows]
        assert got == expected[offset:offset + limit]


def test_the_merge_never_holds_more_than_fanin_blocks(monkeypatch):
    """However many runs a sort spools, no more than ``SPILL_FANOUT``
    of them are being read at once — one held block each — and the
    cascade's runs count in ``sort_runs`` and in the rows spilled."""
    from repro.db.spill import SpillFile

    reading = [0, 0]                          # now, most at once
    blocks = SpillFile.blocks

    def counted(self):
        reading[0] += 1
        reading[1] = max(reading)
        try:
            yield from blocks(self)
        finally:
            reading[0] -= 1

    monkeypatch.setattr(SpillFile, "blocks", counted)
    session, rows = _hazards(1024, 7, n_rows=600)
    before = counters.snapshot()["spill"]
    got = [r[0] for r in session.execute(
        "SELECT id FROM h ORDER BY t DESC, id").rows]
    after = counters.snapshot()["spill"]
    assert got == [row[0] for row in _sql_order(
        rows, [(_at(4), True), (_at(0), False)])]
    runs = after["sort_runs"] - before["sort_runs"]
    assert runs > SPILL_FANOUT ** 2           # two cascade passes
    assert reading == [0, SPILL_FANOUT]
    # Every row is written once as a run and once more per cascade pass.
    assert after["rows_spilled"] - before["rows_spilled"] == 3 * len(rows)


def test_the_sort_estimate_charges_one_pass_per_cascade_level():
    """``estimate_sort_spill`` charges ``ceil(log_F runs)`` write+read
    cycles per row: one up to ``SPILL_FANOUT`` runs, two up to its
    square, three past it."""
    from repro.db.optimizer import COST_SPILL_ROW, estimate_sort_spill

    for runs, passes in ((2, 1), (8, 1), (9, 2), (64, 2), (65, 3)):
        got_runs, mem, cost = estimate_sort_spill(1000, runs * 4096.0, 4096)
        assert (got_runs, mem) == (runs, 4096.0)
        assert cost == COST_SPILL_ROW * 1000 * passes
