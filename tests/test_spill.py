"""Property-based tests for the hash-join spill layer (db/spill.py).

Seeded-random "properties" in the style of tests/test_stats.py: each
test draws many random inputs from a fixed seed and asserts invariants
that must hold for *all* of them —

* the block codec and the spool files round-trip arbitrary execution
  rows exactly, in the order of the positions written, at every block
  size and with a partial tail block — ``None``, strings with
  newlines/quotes/unicode, floats, and labels — and a label read back
  from a spill file is *identical* (``is``) to the live interned
  instance, so the scan-level label memos keep working across a spill;
  no block any spilling operator writes exceeds its ``block_rows``;
* batch byte accounting equals the per-row estimate row for row, and
  on average a row container plus its mean value widths;
* partitioning is a function: every input row lands in exactly one
  partition, nothing is lost or duplicated, and a probe row meets
  exactly the build rows that share its key (cross-checked against a
  plain dict join); the grace join and the grace aggregate route a key
  to the same spool;
* recursive re-partitioning terminates — in particular on an
  all-equal-key build side, which no amount of re-hashing can split;
* a spilled HashJoin observes the statement's snapshot: a writer
  committing mid-statement (after the probe spooled) changes nothing
  (see also the audit note on ``committed_horizon`` in
  ARCHITECTURE.md).
"""

from __future__ import annotations

import json
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
from repro.core.labels import EMPTY_LABEL, Label
from repro.db import Database
from repro.db import spill as spill_module
from repro.db.faultinject import SpoolFaults
from repro.db.spill import (
    MAX_RECURSION,
    SPILL_FANOUT,
    Partitions,
    SpilledHashBuild,
    SpillFile,
    Spools,
    column_keys,
    decode_block,
    decode_labeled_row,
    encode_block,
    encode_labeled_row,
    estimate_batch_bytes,
    estimate_row_bytes,
    estimate_spill_plan,
    estimate_value_bytes,
)
from repro.errors import SpillError

NASTY_STRINGS = (
    "", "plain", "with\nnewline", "with\ttab", "quote'and\"double",
    "semi;colon", "ünïcödé-λ", "line1\nline2\nline3", "\x00binary\x01",
)


def _random_values(rng: random.Random) -> list:
    values = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if roll < 0.2:
            values.append(None)
        elif roll < 0.45:
            values.append(rng.randint(-10**9, 10**9))
        elif roll < 0.65:
            values.append(round(rng.uniform(-1e6, 1e6), 6))
        elif roll < 0.9:
            values.append(rng.choice(NASTY_STRINGS))
        else:
            values.append(Label(rng.sample(range(1, 50),
                                           rng.randint(0, 4))))
    return values


def _random_label(rng: random.Random) -> Label:
    if rng.random() < 0.3:
        return EMPTY_LABEL
    return Label(rng.sample(range(1, 30), rng.randint(1, 5)))


def _random_row(rng: random.Random):
    return (_random_values(rng), _random_label(rng), _random_label(rng))


def test_labeled_row_codec_round_trips_and_reinterns():
    rng = random.Random(0x5B11)
    for _ in range(200):
        values, label, ilabel = _random_row(rng)
        out_values, out_label, out_ilabel = decode_labeled_row(
            encode_labeled_row(values, label, ilabel))
        assert out_values == values
        assert out_label is label            # interned identity
        assert out_ilabel is ilabel


# -- the block codec --------------------------------------------------------

_LABELS = st.builds(Label, st.frozensets(st.integers(1, 40), max_size=4))
_VALUES = st.one_of(st.none(), st.integers(-10**12, 10**12),
                    st.floats(allow_nan=False), st.text(max_size=12), _LABELS)


@st.composite
def _blocks(draw):
    """``(key_columns, columns, labels, ilabels)`` of one row count;
    columns may be projected away (None) and label columns uniform."""
    n = draw(st.integers(1, 40))
    column = st.lists(_VALUES, min_size=n, max_size=n)
    label_column = st.one_of(
        st.lists(_LABELS, min_size=n, max_size=n),
        _LABELS.map(lambda label: [label] * n))
    return (draw(st.lists(column, max_size=2)),
            draw(st.lists(st.one_of(st.none(), column), max_size=4)),
            draw(label_column), draw(label_column))


@given(_blocks())
@settings(max_examples=150, deadline=None)
def test_block_codec_round_trips_and_reinterns(block):
    key_columns, columns, labels, ilabels = block
    got_keys, got_columns, got_labels, got_ilabels = decode_block(
        pickle.loads(pickle.dumps(encode_block(*block))))
    assert got_keys == key_columns
    assert got_columns == columns            # None stays projected away
    for original, reloaded in zip(labels + ilabels,
                                  got_labels + got_ilabels):
        assert reloaded is original          # interned identity
    # Labels *inside* a value column survive pickling too (the _label
    # pseudo-column rides in the execution row).
    for original, reloaded in zip(columns, got_columns):
        for a, b in zip(original or (), reloaded or ()):
            if isinstance(a, Label):
                assert b is a


@given(st.lists(st.tuples(st.tuples(st.integers(0, 9)),
                          st.tuples(_VALUES, _VALUES), _LABELS, _LABELS),
                max_size=60),
       st.integers(1, 17), st.data())
@settings(max_examples=100, deadline=None)
def test_spill_file_round_trips_at_every_block_size(rows, block_rows, data):
    """Rows written as columns and a permuted list of their positions
    come back in that order whatever the block size: full blocks
    first, the partial tail block last."""
    spools = Spools(0, block_rows)
    spools.block_bytes = 1 << 30            # let max_rows decide
    spool = SpillFile(spools)
    order = data.draw(st.permutations(range(len(rows))))
    keys, values, labels, ilabels = (list(part) for part in zip(*rows)) \
        if rows else ([], [], [], [])
    before = counters.snapshot()["spill"]
    spool.write(order, [list(column) for column in zip(*keys)] or [[]],
                [list(column) for column in zip(*values)] or [[], []],
                labels, ilabels)
    assert spool.count == len(rows)
    got = []
    sizes = []
    for key_columns, columns, labels, ilabels in spool.blocks():
        sizes.append(len(labels))
        got.extend(zip(zip(*key_columns), zip(*columns), labels, ilabels))
    assert sizes == ([block_rows] * (len(rows) // block_rows)
                     + [len(rows) % block_rows] * bool(len(rows) % block_rows))
    assert len(got) == len(rows)
    for (key, values, label, ilabel), i in zip(got, order):
        assert (key, values) == rows[i][:2]
        assert label is rows[i][2] and ilabel is rows[i][3]
    after = counters.snapshot()["spill"]
    assert after["rows_spilled"] - before["rows_spilled"] == len(rows)


def test_block_rows_derive_from_the_budget():
    """No knob: a block gets ``work_mem / SPILL_FANOUT`` bytes — the
    merge holds at most ``SPILL_FANOUT`` of them — at most a batch of
    rows and at least one, so the 1 KB CI leg (128-byte blocks) spools
    row by row, as before blocks existed."""
    assert Spools(1024, 1024).block_rows(200) == 1
    assert Spools(65536, 7).block_rows(200) == 7
    assert Spools(65536, 7).block_rows(100) == 7
    assert Spools(1 << 20, 1024).block_rows(160) == 819
    assert Spools(1 << 30, 1024).block_rows(160) == 1024


def test_spill_write_after_read_is_a_typed_error():
    spool = SpillFile(Spools(1024, 4))
    spool.write([0], [[1]], [[1], ["x"]], [EMPTY_LABEL], [EMPTY_LABEL])
    assert len(list(spool.blocks())) == 1
    with pytest.raises(SpillError):
        spool.write([0], [[2]], [[2], ["y"]], [EMPTY_LABEL], [EMPTY_LABEL])


# -- byte accounting ----------------------------------------------------------

def test_batch_accounting_equals_per_row_estimates():
    """``estimate_batch_bytes`` is ``estimate_row_bytes`` row for row —
    for every column shape it special-cases and for ragged ones."""
    rng = random.Random(0x5B15)
    shapes = (lambda: rng.randint(-10**9, 10**9),
              lambda: rng.choice((1, 2.5, True)),
              lambda: None,
              lambda: rng.choice(NASTY_STRINGS),
              lambda: _random_label(rng),
              lambda: _random_values(rng)[0])        # ragged
    for _round in range(60):
        n = rng.randint(1, 50)
        columns = [None if rng.random() < 0.15
                   else [rng.choice(shapes)() for _ in range(n)]
                   if rng.random() < 0.3
                   else [shape() for _ in range(n)]
                   for shape in (rng.choice(shapes)
                                 for _ in range(rng.randint(0, 6)))]
        labels = ([_random_label(rng)] * n if rng.random() < 0.4
                  else [_random_label(rng) for _ in range(n)])
        rows = zip(*[column or [None] * n for column in columns]) \
            if columns else [()] * n
        assert estimate_batch_bytes(columns, labels, 96) == [
            estimate_row_bytes(values, label) + 96
            for values, label in zip(rows, labels)]
    assert estimate_batch_bytes([[1, 2]], []) == []


@pytest.mark.parametrize("label_column", [
    [Label((4, 5))] * 9,                                  # one label
    [Label((4, 5)), Label((6,)), EMPTY_LABEL] * 3,        # several
    [EMPTY_LABEL] * 9,                                    # public
], ids=["one label", "several labels", "public"])
def test_a_column_of_labels_weighs_as_its_rows_do(label_column):
    """A column of labels — the ``_label`` pseudo-column a scan appends
    — is weighed once per distinct label, and the batch estimate stays
    ``estimate_row_bytes`` row for row, beside the row labels and
    other columns."""
    n = len(label_column)
    labels = [Label((4,)), Label((7, 8, 9)), EMPTY_LABEL] * (n // 3)
    for columns in ([label_column], [list(range(n)), label_column],
                    [label_column, ["x" * i for i in range(n)], None,
                     label_column[::-1]]):
        rows = list(zip(*[column or [None] * n for column in columns]))
        for row_labels in (labels, [EMPTY_LABEL] * n):
            assert estimate_batch_bytes(columns, row_labels, 96) == [
                estimate_row_bytes(values, label) + 96
                for values, label in zip(rows, row_labels)]


#: Column strategies for the weigher property, one value kind each or
#: mixed: what typed storage, a projection and untyped storage hold.
_WEIGHED = st.sampled_from((
    st.integers(-10**12, 10**12), st.floats(), st.booleans(), st.none(),
    st.text(max_size=6), _LABELS,
    st.one_of(st.none(), st.integers()),
    st.one_of(st.none(), st.text(max_size=6)),
    st.one_of(st.integers(), st.floats(), st.booleans()),
    st.one_of(st.none(), _LABELS),
    _VALUES,
))


@st.composite
def _weighed_batches(draw):
    """``(columns, labels)``: columns of one kind each (or mixed, or
    projected away), and sometimes the batch's own labels as a column —
    the same list, or an equal copy as a spool round trip leaves it.
    Without labels (a group key's weight) the first column gives the
    row count, so it holds values."""
    n = draw(st.integers(1, 30))
    labels = draw(st.one_of(
        st.lists(_LABELS, min_size=n, max_size=n),
        _LABELS.map(lambda label: [label] * n)))
    charged = draw(st.booleans())
    columns = []
    for i in range(draw(st.integers(0 if charged else 1, 5))):
        kind = draw(st.sampled_from(("values", "projected", "own",
                                     "own copy")))
        if kind == "values" or not (i or charged):
            columns.append(draw(st.lists(draw(_WEIGHED), min_size=n,
                                         max_size=n)))
        else:
            columns.append({"projected": None, "own": labels,
                            "own copy": list(labels)}[kind])
    return columns, labels if charged else None


@given(_weighed_batches(), st.integers(0, 200))
@settings(max_examples=300, deadline=None)
def test_batch_weigher_equals_the_per_row_estimate(batch, extra):
    """``estimate_batch_bytes`` is ``estimate_row_bytes`` (plus
    ``extra``) row for row over ints, floats, bools, NULLs, TEXT and
    labels, mixed columns, projected-away columns, ``labels=None`` (a
    group key, no label charged) and the ``_label`` column by identity
    and as an equal copy."""
    columns, labels = batch
    n = len(labels) if labels is not None else len(columns[0])
    rows = zip(*[column or [None] * n for column in columns]) \
        if columns else [()] * n
    assert estimate_batch_bytes(columns, labels, extra) == [
        estimate_row_bytes(values, label) + extra for values, label
        in zip(rows, labels if labels is not None else [None] * n)]


def test_a_batch_weighs_its_row_containers_plus_its_values():
    """On average a row of a batch weighs its container and label slot
    plus the mean ``estimate_value_bytes`` of each of its columns."""
    rows = [(i, "x" * (i % 9), None if i % 4 == 0 else i / 3)
            for i in range(120)]
    widths = [sum(map(estimate_value_bytes, column)) / len(rows)
              for column in zip(*rows)]
    weights = estimate_batch_bytes([list(c) for c in zip(*rows)],
                                   [EMPTY_LABEL] * len(rows))
    assert sum(weights) / len(rows) == pytest.approx(64 + 16 + sum(widths))


# -- the grace partitioner ----------------------------------------------------

def _chunks(pairs, rng):
    """Split ``(key, row)`` pairs of one-column keys into the
    ``(key_columns, rows)`` chunks the partitioner takes, at random
    chunk sizes."""
    pairs = list(pairs)
    while pairs:
        n = rng.randint(1, 40)
        chunk, pairs = pairs[:n], pairs[n:]
        yield [[key for key, _ in chunk]], [row for _, row in chunk]


def _block(rows):
    """The ``(columns, labels, ilabels)`` block of ``(values, label,
    ilabel)`` rows of one width."""
    values, labels, ilabels = zip(*rows)
    return [list(column) for column in zip(*values)], list(labels), \
        list(ilabels)


def _rows_of(side, numbers):
    """The ``(values, label, ilabel)`` rows numbered ``numbers`` of a
    join side."""
    return [(tuple(column[r] for column in side.columns), side.labels[r],
             side.ilabels[r]) for r in numbers]


def _joined(spill):
    """``(probe_row, matches)`` per spooled probe row: a side's buckets
    are keyed as the join keys them (``column_keys``)."""
    for (key_columns, columns, labels, ilabels), side in spill.joined():
        rows = zip(zip(*columns), labels, ilabels)
        for key, row in zip(column_keys(key_columns, len(labels)), rows):
            yield row, _rows_of(side, side.buckets.get(key, ()))


def test_every_row_lands_in_exactly_one_partition():
    rng = random.Random(0x5B13)
    for _round in range(10):
        spill = SpilledHashBuild(512, Spools(512, rng.choice((1, 7, 64))),
                                 1, depth=1)
        keys = [rng.randint(0, 20) for _ in range(300)]
        # Routing is a pure function of the key.
        routes = spill.builds.route([keys], len(keys))
        assert routes == spill.builds.route([keys], len(keys))
        assert all(0 <= index < SPILL_FANOUT for index in routes)
        for key_columns, rows in _chunks(
                ((key, ([i], EMPTY_LABEL, EMPTY_LABEL))
                 for i, key in enumerate(keys)), rng):
            spill.add_build(key_columns, *_block(rows))
        counts = [spool.count for spool in spill.builds.spools]
        assert sum(counts) == len(keys)
        # Same key, same partition.
        landed = {}
        for index, spool in enumerate(spill.builds.spools):
            for key_columns, _c, _l, _i in spool.blocks():
                for key in zip(*key_columns):
                    assert landed.setdefault(key, index) == index
        spill.close()


def test_spilled_join_matches_dict_join():
    """The partition machinery must produce exactly the matches a
    plain in-memory dict join would, for every probe row, across
    random duplicate-heavy key distributions, tiny budgets (which
    force recursive re-partitioning) and block sizes from one row up
    (64 KiB / batch 7 leaves partial tail blocks)."""
    rng = random.Random(0x5B14)
    for _round in range(12):
        budget = rng.choice((256, 1024, 4096, 65536))
        def side(n_rows, n_keys, tag):
            # One row width per side; slot 0 makes every row distinct.
            width = rng.randint(1, 5)
            return [(rng.randint(0, n_keys),
                     ((tag, i, *[_random_values(rng)[0]
                                 for _ in range(width)]),
                      _random_label(rng), _random_label(rng)))
                    for i in range(n_rows)]
        build = side(rng.randint(50, 250), 12, "b")
        probe = side(rng.randint(20, 120), 15, "p")
        reference: dict = {}
        for key, row in build:
            reference.setdefault(key, []).append(row)

        spill = SpilledHashBuild(budget, Spools(budget,
                                                rng.choice((1, 7, 1024))),
                                 len(build[0][1][0]))
        for key_columns, rows in _chunks(build, rng):
            spill.add_build(key_columns, *_block(rows))
        results = []
        for key_columns, rows in _chunks(probe, rng):
            for row, matches in zip(rows, spill.probe(key_columns,
                                                      *_block(rows))):
                if matches is not None:
                    results.append((row, _rows_of(spill.resident, matches)))
        results.extend(_joined(spill))
        spill.close()
        # Every probe row surfaces exactly once...
        assert len(results) == len(probe)
        # ...with exactly the dict join's matches (order-insensitive).
        probe_index = {repr(row): key for key, row in probe}
        for row, matches in results:
            key = probe_index[repr(row)]
            expected = reference.get(key, [])
            assert sorted(repr(m) for m in matches) \
                == sorted(repr(m) for m in expected), key


def test_recursion_terminates_on_all_equal_keys():
    """A single-key build side cannot be split by re-hashing; the
    partitioner must detect that and finish in memory (over budget)
    instead of recursing forever."""
    before = counters.tally().repartitions
    spill = SpilledHashBuild(256, Spools(256, 16), 2, depth=1)
    n = 500
    spill.add_build([[7] * n, ["same"] * n], *_block(
        [((i, "payload"), EMPTY_LABEL, EMPTY_LABEL) for i in range(n)]))
    spill.spool_probe([[7], ["same"]], *_block([(("probe",), EMPTY_LABEL,
                                                 EMPTY_LABEL)]))
    results = list(_joined(spill))
    assert len(results) == 1
    _row, matches = results[0]
    assert len(matches) == n
    # Recursion depth is bounded even though the budget was blown.
    assert counters.tally().repartitions - before <= MAX_RECURSION


def test_recursion_terminates_on_skewed_keys():
    """One dominant key plus a long tail: recursion isolates the heavy
    key and stops, returning complete matches for both."""
    spill = SpilledHashBuild(512, Spools(512, 16), 1, depth=1)
    keys = [1] * 400 + [1000 + i for i in range(40)]
    spill.add_build([keys], *_block([((i,), EMPTY_LABEL, EMPTY_LABEL)
                                     for i in range(len(keys))]))
    spill.spool_probe([[1, 1005, 9999]],
                      *_block([((name,), EMPTY_LABEL, EMPTY_LABEL)
                               for name in ("hot", "cold", "miss")]))
    by_row = {row[0][0]: matches for row, matches in _joined(spill)}
    assert len(by_row["hot"]) == 400
    assert len(by_row["cold"]) == 1
    assert by_row["miss"] == []


def test_join_and_aggregate_route_a_key_alike(monkeypatch):
    """One partitioner: at the same depth, a grace join and a grace
    aggregate send the same key row to the same spool index."""
    routed = {"join": {}, "aggregate": {}}
    current = []
    real = Partitions.write

    def recording(self, routes, rows, key_columns, *block):
        landed = routed[current[0]]
        for row in rows:
            key = (self.salt, tuple(column[row] for column in key_columns))
            assert landed.setdefault(key, routes[row]) == routes[row]
        return real(self, routes, rows, key_columns, *block)

    monkeypatch.setattr(Partitions, "write", recording)
    _db, session = _stack(1024)
    for name, sql in (("join", JOIN_SQL),
                      ("aggregate", "SELECT g, COUNT(*) FROM fact "
                                    "GROUP BY g")):
        current[:] = [name]
        session.execute(sql)
    join, aggregate = routed["join"], routed["aggregate"]
    shared = join.keys() & aggregate.keys()
    assert len(shared) > SPILL_FANOUT
    assert all(join[key] == aggregate[key] for key in shared)


@pytest.mark.parametrize("work_mem,batch_size", [(1024, 16), (262144, 64),
                                                 (65536, 7)])
def test_no_block_exceeds_block_rows(monkeypatch, work_mem, batch_size):
    """Every block a spilling join, aggregate, DISTINCT or sort writes
    holds at most ``Spools.block_rows`` of the first row its spool
    received — never more than a batch — and a block never spans two
    writes."""
    spools = Spools(work_mem, batch_size)
    blocks = []

    class Recorded(SpillFile):
        __slots__ = ("limit",)

        def write(self, rows, key_columns, columns, labels, ilabels):
            if not self.count:
                first = rows[0]
                self.limit = spools.block_rows(estimate_row_bytes(
                    [None if column is None else column[first]
                     for column in columns], labels[first]))
            blocks.append([])
            super().write(rows, key_columns, columns, labels, ilabels)
            assert sum(blocks[-1]) == len(rows)

        def _write(self, key_columns, columns, labels, ilabels):
            blocks[-1].append(len(labels))
            assert len(labels) <= min(self.limit, batch_size)
            super()._write(key_columns, columns, labels, ilabels)

    monkeypatch.setattr(spill_module, "SpillFile", Recorded)
    _db, session = _stack(work_mem, batch_size)
    for _name, sql in FAULT_SWEEP:
        session.execute(sql)
    # At 1 KB a block is one row; a larger budget writes some wider.
    widest = max(map(max, filter(None, blocks)))
    assert (widest > 1) == (work_mem > 1024)


def test_estimate_row_bytes_monotone():
    """Sanity on the budget arithmetic: adding data never shrinks the
    estimate, and labels charge 4 bytes per tag like the page model."""
    base = estimate_row_bytes([1, "ab"])
    assert estimate_row_bytes([1, "ab", None]) > base
    assert estimate_row_bytes([1, "abcdef"]) > base
    with_label = estimate_row_bytes([1, "ab"], Label((1, 2, 3)))
    assert with_label == base + 16 + 12


def test_estimate_spill_plan_levels():
    partitions, per_bytes, levels = estimate_spill_plan(0, 1024)
    assert (partitions, levels) == (0, 0)
    partitions, per_bytes, levels = estimate_spill_plan(100, 1024)
    assert (partitions, levels) == (0, 0) and per_bytes == 100
    partitions, per_bytes, levels = estimate_spill_plan(8_000, 1024)
    assert partitions == 8 and levels == 1 and per_bytes <= 1024
    partitions, per_bytes, levels = estimate_spill_plan(10_000, 1024)
    assert partitions == 8 ** levels and per_bytes <= 1024
    partitions, per_bytes, levels = estimate_spill_plan(1_000_000, 1024)
    assert partitions == 8 ** levels
    assert per_bytes <= 1024 or levels == MAX_RECURSION


def _stack(work_mem, batch_size=None):
    authority = AuthorityState(idgen=SeededIdGenerator(31))
    db = Database(authority, seed=31, work_mem=work_mem,
                  batch_size=batch_size)
    session = db.connect(IFCProcess(authority,
                                    authority.create_principal("p").id))
    session.execute("CREATE TABLE fact (k INT PRIMARY KEY, g INT, t TEXT)")
    session.execute("CREATE TABLE probe (id INT PRIMARY KEY, g INT)")
    for i in range(800):
        session.execute("INSERT INTO fact VALUES (?, ?, ?)",
                        (i, i % 60, "payload-%d" % i))
    for i in range(30):
        session.execute("INSERT INTO probe VALUES (?, ?)", (i, i % 80))
    session.execute("ANALYZE")
    return db, session


JOIN_SQL = "SELECT p.id, f.k FROM probe p JOIN fact f ON f.g = p.g"


def _normalized(session, sql):
    return sorted((tuple(r), tuple(sorted(r.label)))
                  for r in session.execute(sql).rows)


def test_session_level_spilled_join_parity_and_explain():
    """End-to-end: an unindexed equi-join over an 800-row build side
    under a 2KB budget must spill (stats prove it), report
    ``spill_partitions``/``mem`` in EXPLAIN with peak estimated memory
    within the budget, and return exactly the unbounded result."""
    _db0, unbounded = _stack(0)
    before = counters.snapshot()["spill"]
    _db1, bounded = _stack(2048)
    expected = _normalized(unbounded, JOIN_SQL)
    got = _normalized(bounded, JOIN_SQL)
    assert got == expected
    after = counters.snapshot()["spill"]
    assert after["spills"] > before["spills"]
    assert after["rows_spilled"] > before["rows_spilled"]

    plan_lines = [r[0] for r in bounded.execute("EXPLAIN " + JOIN_SQL)]
    join_line = next(line for line in plan_lines if "HashJoin" in line)
    assert "spill_partitions=" in join_line, join_line
    partitions = int(join_line.split("spill_partitions=")[1].split()[0])
    assert partitions >= 1
    est_mem = int(join_line.split("mem=")[1].split("B")[0])
    assert est_mem <= 2048
    # The unbounded database plans the same join without spill fields.
    free_line = next(line for line in
                     (r[0] for r in unbounded.execute("EXPLAIN " + JOIN_SQL))
                     if "HashJoin" in line)
    assert "spill_partitions=" not in free_line


def test_a_projection_earns_its_build_side_memory_back():
    """The optimizer weighs a hash join's build rows by the columns the
    plan reads (``spill.estimated_tuple_bytes``, 8 bytes per
    projected-away slot, as the executor charges): 300 rows of four
    read columns blow a 50 KB budget, and a projection that reads only
    the join key fits it."""
    authority = AuthorityState(idgen=SeededIdGenerator(77))
    db = Database(authority, seed=77, work_mem=50_000)
    session = db.connect(IFCProcess(authority,
                                    authority.create_principal("q").id))
    session.execute("CREATE TABLE wide (k INT PRIMARY KEY, g INT,"
                    " a TEXT, b TEXT, c TEXT)")
    session.execute("CREATE TABLE slim (id INT PRIMARY KEY, g INT)")
    for i in range(300):
        session.execute("INSERT INTO wide VALUES (?, ?, 'x', 'y', 'z')",
                        (i, i % 50))
    for i in range(40):
        session.execute("INSERT INTO slim VALUES (?, ?)", (i, i % 50))

    def join_line(sql):
        return next(r[0] for r in session.execute("EXPLAIN " + sql)
                    if "HashJoin" in r[0])

    wide = join_line("SELECT s.id, w.a, w.b, w.c FROM slim s "
                     "JOIN wide w ON w.g = s.g")
    narrow = join_line("SELECT s.id FROM slim s JOIN wide w ON w.g = s.g")
    assert "spill_partitions=" in wide, wide
    assert "spill_partitions=" not in narrow, narrow


def test_spilled_hash_join_sees_statement_snapshot():
    """Regression for the committed_horizon()/spill interaction: a
    writer that was in flight when the statement's snapshot was taken
    commits *mid-statement* — after the probe side spooled, before the
    partition phase joined it.  The spilled join must not see the
    writer's rows, exactly like the in-memory join: the MVCC batch
    fast path is anchored on the snapshot's ``xmax`` and
    ``min_in_progress``, which do not move, so the advancing committed
    horizon alone can never admit a snapshot-invisible version."""
    results = {}
    for label, work_mem in (("spilled", 2048), ("in-memory", 0)):
        # batch_size=16 so the join emits output *while* probing: the
        # writer's commit genuinely lands between two output batches,
        # with the probe scan still running and partitions unspooled.
        db, session = _stack(work_mem, batch_size=16)
        writer = db.connect(IFCProcess(db.authority,
                                       db.authority.create_principal(
                                           "w%d" % work_mem).id))
        writer.begin()                       # in flight before snapshot
        for i in range(5):
            writer.execute("INSERT INTO fact VALUES (?, ?, ?)",
                           (9000 + i, i % 60, "late"))
            writer.execute("INSERT INTO probe VALUES (?, ?)",
                           (9000 + i, i % 60))
        session.begin()                      # reader snapshot taken here
        prepared = db.prepare_select(db.parse(JOIN_SQL), JOIN_SQL)
        ctx = session._context(())
        batches = prepared.plan.batches(ctx)
        first = next(batches)                # build consumed, probing...
        writer.commit()                      # ...commits mid-statement
        rows = first.rows()
        for batch in batches:
            rows.extend(batch.rows())
        session.commit()
        results[label] = sorted(rows)
        # Neither the writer's build rows (fact.k >= 9000) nor its
        # probe rows (probe.id >= 9000) may surface: the committed
        # horizon advanced mid-statement, but the snapshot's xmax and
        # min_in_progress still exclude the writer.
        assert not any(pid >= 9000 or k >= 9000
                       for pid, k in results[label]), label
    assert results["spilled"] == results["in-memory"]

def _open_fds() -> int:
    """Number of open file descriptors in this process."""
    return len(os.listdir("/proc/self/fd"))


def test_mid_join_error_releases_spill_descriptors():
    """Regression: a spilled join's partition spools used to close only
    on clean exhaustion — an error raised while the join was mid-output
    (a downstream expression blowing up, a client disconnect) leaked
    every partition's TemporaryFile descriptor.  The operator-level
    ``finally`` must now release them the moment the error unwinds."""
    db, session = _stack(2048, batch_size=16)
    session.begin()
    prepared = db.prepare_select(db.parse(JOIN_SQL), JOIN_SQL)
    ctx = session._context(())
    baseline = _open_fds()
    batches = prepared.plan.batches(ctx)
    next(batches)            # build spilled, probe underway
    assert _open_fds() > baseline      # the spools are genuinely open
    with pytest.raises(RuntimeError, match="boom"):
        batches.throw(RuntimeError("boom"))
    assert _open_fds() == baseline
    session.rollback()


def test_abandoned_spilled_join_iterator_releases_descriptors():
    """Closing (abandoning) a suspended spilled-join iterator — what a
    LIMIT above the join, or a cursor dropped mid-fetch, does — must
    release the partition spools, not wait for garbage collection."""
    db, session = _stack(2048, batch_size=16)
    session.begin()
    prepared = db.prepare_select(db.parse(JOIN_SQL), JOIN_SQL)
    ctx = session._context(())
    baseline = _open_fds()
    batches = prepared.plan.batches(ctx)
    next(batches)
    assert _open_fds() > baseline
    batches.close()
    assert _open_fds() == baseline
    session.rollback()


def test_mid_aggregate_error_releases_group_spill_descriptors():
    """Same contract for grace-spilled aggregation: an error while the
    fold is emitting resident groups (partitions still spooled) must
    close every partition spool."""
    db, session = _stack(1024, batch_size=4)
    sql = "SELECT g, COUNT(*) FROM fact GROUP BY g"
    session.begin()
    prepared = db.prepare_select(db.parse(sql), sql)
    ctx = session._context(())
    baseline = _open_fds()
    batches = prepared.plan.batches(ctx)
    next(batches)            # fold done, resident groups emitting
    assert _open_fds() > baseline
    with pytest.raises(RuntimeError, match="boom"):
        batches.throw(RuntimeError("boom"))
    assert _open_fds() == baseline
    session.rollback()


def test_mid_sort_error_releases_run_descriptors():
    """And for external sort: killing the merge mid-stream must close
    every spooled run."""
    db, session = _stack(1024, batch_size=4)
    sql = "SELECT k, t FROM fact ORDER BY t"
    session.begin()
    prepared = db.prepare_select(db.parse(sql), sql)
    ctx = session._context(())
    baseline = _open_fds()
    batches = prepared.plan.batches(ctx)
    next(batches)            # runs spooled, merge underway
    assert _open_fds() > baseline
    with pytest.raises(RuntimeError, match="boom"):
        batches.throw(RuntimeError("boom"))
    assert _open_fds() == baseline
    session.rollback()


def test_unread_spools_still_count_their_bytes(monkeypatch):
    """Regression: ``bytes_spilled`` used to be added when a spool
    flipped to reading, so partitions a ``LIMIT`` never reached
    vanished from the statement's ``spill_bytes``.  Bytes count as
    each block reaches its file: the statement reports exactly what
    the temp files received."""
    from repro.db import spill as spill_mod

    written = []
    real = spill_mod.tempfile.TemporaryFile

    def counting(*args, **kwargs):
        handle = real(*args, **kwargs)

        class Tally:
            def write(self, data):
                written.append(len(data))
                return handle.write(data)

            def __getattr__(self, name):
                return getattr(handle, name)
        return Tally()

    monkeypatch.setattr(spill_mod.tempfile, "TemporaryFile", counting)
    db, session = _stack(2048, batch_size=16)
    sql = JOIN_SQL + " LIMIT 1"
    assert len(session.execute(sql).rows) == 1
    metrics = db.last_statement_metrics()
    assert sum(written) > 0
    assert metrics["spill"]["bytes_spilled"] == sum(written)
    (statement,) = [entry for query, entry
                    in db.stats()["statements"].items() if "LIMIT" in query]
    assert statement["spill_bytes"] == sum(written)


FAULT_SWEEP = (
    ("join", JOIN_SQL),
    ("aggregate", "SELECT t, COUNT(*), SUM(g) FROM fact GROUP BY t"),
    ("distinct", "SELECT DISTINCT g, t FROM fact"),
    ("sort", "SELECT k, t FROM fact ORDER BY t, k"),
)


#: Runs one statement on :func:`_stack` (4 KB, 16-row batches) and
#: prints the spill counters it moved, as JSON.
_SPILL_COUNTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_spill import _stack
from repro.core import counters
_db, session = _stack(4096, batch_size=16)
before = counters.snapshot()["spill"]
session.execute(sys.argv[2])
after = counters.snapshot()["spill"]
print(json.dumps({name: after[name] - before[name] for name in after}))
"""


def _spill_counts_in_process(sql: str, hash_seed: str) -> dict:
    import repro
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _SPILL_COUNTS, os.path.dirname(__file__),
         sql], env=env, capture_output=True, text=True, timeout=300,
        check=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("sql", (
    "SELECT t, COUNT(*), SUM(g) FROM fact GROUP BY t",
    "SELECT CASE WHEN g = 7 THEN NULL ELSE t END, COUNT(*) FROM fact "
    "GROUP BY CASE WHEN g = 7 THEN NULL ELSE t END"))
def test_text_keys_spill_alike_in_every_process(sql):
    """A grace aggregate over a TEXT key routes each row by a hash that
    no per-process salt moves (``str`` hashes are salted by
    ``PYTHONHASHSEED``, and NULL's by its address before Python 3.12):
    two processes spill it into the same partitions."""
    first = _spill_counts_in_process(sql, "1")
    assert first["agg_spills"] and first["repartitions"]
    assert _spill_counts_in_process(sql, "2") == first


@pytest.mark.parametrize("name,sql", FAULT_SWEEP, ids=[n for n, _ in
                                                       FAULT_SWEEP])
def test_spill_io_faults_are_typed_and_release_everything(name, sql):
    """ENOSPC on block write N / EIO on block read N, swept over the
    statement's blocks: the statement fails with ``SpillError``, no
    descriptor outlives it, and the same session then runs it to the
    right answer."""
    _db0, unbounded = _stack(0)
    expected = _normalized(unbounded, sql)
    db, session = _stack(4096, batch_size=16)
    db.spill_faults = clean = SpoolFaults()
    assert _normalized(session, sql) == expected
    assert clean.writes > 1
    assert clean.reads == clean.writes
    baseline = _open_fds()
    for mode, total in (("write", clean.writes), ("read", clean.reads)):
        for n in sorted({0, 1, total // 3, total // 2, total - 1}):
            db.spill_faults = SpoolFaults(mode, n)
            with pytest.raises(SpillError):
                session.execute(sql)
            assert _open_fds() == baseline, (mode, n)
            db.spill_faults = None
            assert _normalized(session, sql) == expected, (mode, n)
