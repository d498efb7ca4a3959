"""A statement makes no cyclic garbage.

Everything a statement allocates — parse and plan, operators, batches,
a join's right side, a fold's group table, spill state — must be freed
by reference counting the moment the statement drops it.  Anything a
statement leaves in a reference cycle lives until the cyclic collector
runs, and every collection on the way walks it: on the analytic
templates that walk was the largest cost after the label checks.

Each test disables the collector, runs one statement (or request, or
transaction) of every shape the engine's workloads run, and asserts
that ``gc.collect()`` then finds nothing unreachable.  Collector policy
stays the embedder's: the engine never calls ``gc`` itself, it only
stops feeding it.
"""

from __future__ import annotations

import gc
import random
from collections import Counter

import pytest

from repro.apps.cartel import (CarTelApp, SensorProcessor, TraceGenerator,
                               build_portal, install_driveupdate_trigger)
from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.db import Database
from repro.platform import IFRuntime, Request
from repro.workloads.cartel_mix import REQUEST_MIX
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload


@pytest.fixture
def no_collector():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        if enabled:
            gc.enable()


def assert_acyclic(run, what) -> None:
    """Run ``run()`` and assert it left nothing for the collector,
    naming the types of whatever it did leave."""
    gc.collect()
    run()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert found == 0, (what, kinds.most_common(8))


# -- the analytic templates ---------------------------------------------------

#: One statement of each analytic template shape, with its parameters.
ANALYTIC = (
    ("SELECT COUNT(*), SUM(amount) FROM fact WHERE day >= ? AND day < ?",
     (5, 30)),
    ("SELECT grp, COUNT(*), SUM(amount) FROM fact WHERE amount >= ? "
     "GROUP BY grp", (200,)),
    ("SELECT d.name, COUNT(*), SUM(f.amount) FROM fact f "
     "JOIN dim d ON d.id = f.dim_id WHERE f.day >= ? GROUP BY d.name", (5,)),
    ("SELECT id, amount FROM fact WHERE day >= ? "
     "ORDER BY amount DESC, id LIMIT 20", (5,)),
    ("SELECT id, amount, ts FROM fact WHERE day >= ? AND day < ? "
     "ORDER BY amount, id", (5, 30)),
    ("SELECT DISTINCT dim_id, grp FROM fact WHERE day >= ?", (5,)),
    ("SELECT id, amount FROM fact WHERE ts >= ? AND ts < ?", (300, 900)),
    ("SELECT COUNT(*) FROM fact", ()),
    # The other two joins and a LEFT join.
    ("SELECT f.id, d.name FROM fact f LEFT JOIN dim d "
     "ON d.id = f.dim_id AND d.region < ? WHERE f.day < ?", (3, 4)),
    ("SELECT f.id, d.id FROM fact f JOIN dim d ON d.id < f.dim_id "
     "WHERE f.id < ? AND d.region = ?", (4, 1)),
)


def _analytic_session():
    """A small copy of the analytic data set: fact rows in runs that
    share one of four labels, a reader that covers two of them."""
    authority = AuthorityState(idgen=SeededIdGenerator(3))
    db = Database(authority, seed=3)
    loader = authority.create_principal("loader").id
    tags = [authority.create_tag("region-%d" % i, owner=loader).id
            for i in range(4)]
    admin = db.connect()
    admin.execute("CREATE TABLE dim (id INT PRIMARY KEY, region INT, "
                  "name TEXT)")
    admin.execute("CREATE TABLE fact (id INT PRIMARY KEY, dim_id INT, "
                  "grp INT, day INT, amount INT, ts INT)")
    admin.execute("CREATE ORDERED INDEX fact_by_ts ON fact (ts)")
    for i in range(40):
        admin.insert("dim", id=i, region=i % 5, name="dim-%03d" % i)
    rng = random.Random(3)
    for run in range(12):
        process = IFCProcess(authority, loader)
        process.add_secrecy(tags[run % len(tags)])
        writer = db.connect(process)
        writer.begin()
        for i in range(run * 32, (run + 1) * 32):
            writer.insert("fact", id=i, dim_id=rng.randrange(40),
                          grp=rng.randrange(30), day=rng.randrange(40),
                          amount=rng.randrange(1, 1000), ts=i * 3)
        writer.commit()
    db.analyze()
    reader = IFCProcess(authority, loader)
    for tag in tags[::2]:
        reader.add_secrecy(tag)
    return db.connect(reader)


@pytest.mark.parametrize("sql,params", ANALYTIC,
                         ids=[str(i) for i in range(len(ANALYTIC))])
def test_analytic_statements_make_no_cycles(no_collector, sql, params):
    session = _analytic_session()
    # Parsed, planned and run; then run again from the plan cache.
    for attempt in ("planned", "cached"):
        assert_acyclic(lambda: session.execute(sql, params).rows,
                       (sql, attempt))


# -- ad-hoc texts and TPC-C ---------------------------------------------------

def _tpcc():
    db = Database(seed=5)
    tpcc = TPCCWorkload(db, TPCCConfig(
        warehouses=1, districts_per_warehouse=2, customers_per_district=10,
        items=40, initial_orders_per_district=6, seed=5, tags_per_label=2))
    tpcc.load()
    return tpcc


#: One text per ad-hoc shape, literals inlined; ``{}`` takes a literal
#: that differs between the two texts of a shape.
ADHOC = (
    "SELECT i_name, i_price FROM Item WHERE i_id = {} AND i_price >= 1.5",
    "SELECT c_id, c_discount FROM Customer WHERE c_w_id = 1 AND c_d_id = 1 "
    "AND c_id >= {} AND c_discount < 0.25 ORDER BY c_id LIMIT 5",
    "SELECT o.o_c_id, ol.ol_number, ol.ol_i_id FROM Orders o "
    "JOIN OrderLine ol ON ol.ol_w_id = o.o_w_id AND ol.ol_d_id = o.o_d_id "
    "AND ol.ol_o_id = o.o_id WHERE o.o_w_id = 1 AND o.o_d_id = 2 "
    "AND o.o_id = {} AND ol.ol_amount <= 5000.5",
    "SELECT ol.ol_number, i.i_name FROM Orders o "
    "JOIN OrderLine ol ON ol.ol_w_id = o.o_w_id AND ol.ol_d_id = o.o_d_id "
    "AND ol.ol_o_id = o.o_id JOIN Item i ON i.i_id = ol.ol_i_id "
    "WHERE o.o_w_id = 1 AND o.o_d_id = 1 AND o.o_id = {} "
    "AND i.i_price >= 20.25",
    "SELECT ol_o_id, COUNT(*), SUM(ol_quantity) FROM OrderLine "
    "WHERE ol_w_id = 1 AND ol_d_id = 2 AND ol_o_id >= {} AND ol_o_id < 6 "
    "AND ol_amount <= 9000.5 GROUP BY ol_o_id",
    "SELECT s_i_id, s_quantity FROM Stock WHERE s_w_id = 1 "
    "AND s_i_id IN ({}, 7, 9, 11)",
)


def test_fresh_adhoc_texts_make_no_cycles(no_collector):
    """Each shape's first text is parsed, its second bound into the
    shape's template; both are new texts, so both are planned."""
    session = _tpcc().session
    for text in ADHOC:
        for literal in (2, 3):
            sql = text.format(literal)
            assert_acyclic(lambda: session.execute(sql).rows, sql)


def test_tpcc_transactions_make_no_cycles(no_collector):
    tpcc = _tpcc()
    for kind in ("new_order", "payment", "order_status", "delivery",
                 "stock_level"):
        assert_acyclic(lambda: tpcc.run_one(kind), kind)


# -- CarTel requests ----------------------------------------------------------

def test_cartel_requests_make_no_cycles(no_collector):
    authority = AuthorityState(idgen=SeededIdGenerator(9))
    db = Database(authority, seed=9)
    app = CarTelApp(db, IFRuntime(authority))
    install_driveupdate_trigger(app)
    web = build_portal(app)
    names = ["user%d" % i for i in range(3)]
    cars = []
    for name in names:
        userid = app.signup(name, "pw-" + name)
        cars.append(app.add_car(userid))
    SensorProcessor(app).process_measurements(
        TraceGenerator(cars, seed=9).measurements(200))
    db.analyze()
    token = web.login(names[0], "pw-" + names[0])
    for path, _weight in REQUEST_MIX:
        params = {"fullname": "User"} if path == "/edit_account.php" else {}
        for attempt in ("first", "again"):
            request = Request(path, params=params, session_token=token)
            assert_acyclic(lambda: web.handle(request), (path, attempt))
