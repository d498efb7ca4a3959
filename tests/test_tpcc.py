"""TPC-C workload tests: load correctness and transaction semantics."""

import pytest

from repro.core import counters
from repro.db import Database
from repro.db.physical import DEFAULT_BATCH_SIZE
from repro.workloads import TPCCConfig, TPCCWorkload, customer_last_name


@pytest.fixture(scope="module")
def loaded():
    db = Database(seed=7)
    config = TPCCConfig(warehouses=1, districts_per_warehouse=2,
                        customers_per_district=12, items=40,
                        initial_orders_per_district=9, seed=7)
    workload = TPCCWorkload(db, config)
    workload.load()
    return db, workload


class TestLoader:
    def test_cardinalities(self, loaded):
        db, workload = loaded
        cfg = workload.config
        session = db.connect(workload.process)
        counts = {
            "Warehouse": cfg.warehouses,
            "District": cfg.warehouses * cfg.districts_per_warehouse,
            "Customer": (cfg.warehouses * cfg.districts_per_warehouse
                         * cfg.customers_per_district),
            "Item": cfg.items,
            "Stock": cfg.warehouses * cfg.items,
            "Orders": (cfg.warehouses * cfg.districts_per_warehouse
                       * cfg.initial_orders_per_district),
        }
        for table, expected in counts.items():
            assert session.execute(
                "SELECT COUNT(*) FROM %s" % table).scalar() == expected

    def test_new_orders_are_undelivered_tail(self, loaded):
        db, workload = loaded
        session = db.connect(workload.process)
        rows = session.query(
            "SELECT o.o_carrier_id FROM NewOrder n JOIN Orders o "
            "ON o.o_w_id = n.no_w_id AND o.o_d_id = n.no_d_id "
            "AND o.o_id = n.no_o_id")
        assert rows and all(r[0] is None for r in rows)

    def test_last_name_generation(self):
        assert customer_last_name(0) == "BARBARBAR"
        assert customer_last_name(371) == "PRICALLYOUGHT"
        assert customer_last_name(999) == "EINGEINGEING"


class TestTransactions:
    def test_new_order_advances_district_counter(self, loaded):
        db, workload = loaded
        session = db.connect(workload.process)
        before = session.execute(
            "SELECT SUM(d_next_o_id) FROM District").scalar()
        commits_before = workload.stats.new_order_commits
        rollbacks_before = workload.stats.rollbacks
        for _ in range(5):
            workload.txn_new_order()
        after = session.execute(
            "SELECT SUM(d_next_o_id) FROM District").scalar()
        committed = workload.stats.new_order_commits - commits_before
        assert committed + (workload.stats.rollbacks
                            - rollbacks_before) == 5
        assert after - before == committed

    def test_payment_moves_balances(self, loaded):
        db, workload = loaded
        session = db.connect(workload.process)
        ytd_before = session.execute(
            "SELECT SUM(w_ytd) FROM Warehouse").scalar()
        workload.txn_payment()
        ytd_after = session.execute(
            "SELECT SUM(w_ytd) FROM Warehouse").scalar()
        assert ytd_after > ytd_before
        assert session.execute(
            "SELECT COUNT(*) FROM History").scalar() >= 1

    def test_delivery_consumes_new_orders(self, loaded):
        db, workload = loaded
        session = db.connect(workload.process)
        before = session.execute("SELECT COUNT(*) FROM NewOrder").scalar()
        workload.txn_delivery()
        after = session.execute("SELECT COUNT(*) FROM NewOrder").scalar()
        assert after <= before

    def test_order_status_and_stock_level_read_only(self, loaded):
        db, workload = loaded
        before = counters.read()
        workload.txn_order_status()
        workload.txn_stock_level()
        delta = counters.delta(before, counters.read())
        assert delta["statements_executed"] > 0
        assert delta["rows_inserted"] == delta["rows_updated"] \
            == delta["rows_deleted"] == 0

    def test_mix_distribution(self, loaded):
        _db, workload = loaded
        kinds = [workload._sample_mix() for _ in range(4000)]
        share = kinds.count("new_order") / len(kinds)
        assert 0.40 < share < 0.50
        share = kinds.count("payment") / len(kinds)
        assert 0.38 < share < 0.48


class TestLabelledTPCC:
    def test_tuples_carry_configured_label(self):
        db = Database(seed=8)
        workload = TPCCWorkload(db, TPCCConfig(
            warehouses=1, districts_per_warehouse=1,
            customers_per_district=3, items=5,
            initial_orders_per_district=2, tags_per_label=3, seed=8))
        workload.load()
        table = db.catalog.get_table("Customer")
        for version in table.all_versions():
            assert version.label == workload.label
            assert len(version.label) == 3

    def test_runs_under_labels(self):
        db = Database(seed=9)
        workload = TPCCWorkload(db, TPCCConfig(
            warehouses=1, districts_per_warehouse=1,
            customers_per_district=5, items=10,
            initial_orders_per_district=3, tags_per_label=2, seed=9))
        workload.load()
        stats = workload.run(30)
        assert sum(stats.transactions.values()) + \
            stats.serialization_aborts == 30


def _seeded_config(tags_per_label):
    """The small seeded load the counter tests below run on."""
    return TPCCConfig(warehouses=1, districts_per_warehouse=2,
                      customers_per_district=10, items=50,
                      initial_orders_per_district=5,
                      tags_per_label=tags_per_label, seed=13)


def _label_checks(**db_options):
    """``covers`` calls over two phases of one seeded stream.

    The transaction phase is the TPC-C mix: index probes that find a few
    candidate versions each.  The scan phase is full-table aggregates
    over OrderLine and Stock, where label-run batching checks each
    distinct label once per batch instead of once per tuple.  Equal
    seeds give equal statements, so the executors differ only in loop
    shape and, for naive plans, in the plans.
    """
    db = Database(ifc_enabled=True, seed=13, **db_options)
    workload = TPCCWorkload(db, _seeded_config(4))
    workload.load()
    workload.run(5)                                # warm the plan caches
    before = counters.tally().covers_calls
    workload.run(20)
    mid = counters.tally().covers_calls
    for _ in range(2):
        workload.session.execute(
            "SELECT COUNT(*), SUM(ol_amount) FROM OrderLine")
        workload.session.execute(
            "SELECT COUNT(*) FROM Stock WHERE s_quantity >= 0")
    return {"transactions": mid - before,
            "scan": counters.tally().covers_calls - mid}


@pytest.fixture(scope="module")
def label_checks():
    # Batch sizes are passed explicitly, so REPRO_BATCH_SIZE does not
    # move these counts.
    return {"batched": _label_checks(batch_size=DEFAULT_BATCH_SIZE),
            "size_1": _label_checks(batch_size=1),
            "naive": _label_checks(batch_size=1, naive_plans=True)}


class TestLabelCheckCounts:
    """Figure 6's Query-by-Label checks: batching never checks more
    than the one-check-per-tuple legs, and collapses the scans."""

    def test_transaction_mix_never_checks_more(self, label_checks):
        batched = label_checks["batched"]["transactions"]
        assert batched <= label_checks["size_1"]["transactions"]
        assert batched <= label_checks["naive"]["transactions"]
        # A scan or probe segment of four or more candidate versions
        # checks each distinct label once; an index join gathers all of
        # an outer batch's candidates into such segments, so
        # stock_level's one-probe-per-item join checks each label once
        # per outer batch, not once per probe.
        assert batched == 765
        assert label_checks["size_1"]["transactions"] == 1000

    def test_scans_collapse_to_one_check_per_label_run(self, label_checks):
        batched = label_checks["batched"]["scan"]
        size_1 = label_checks["size_1"]["scan"]
        assert batched <= size_1
        assert batched < size_1 * 0.1, (batched, size_1)
        assert batched == 2


def _simulated_io(*, ifc_enabled, tags_per_label):
    """Simulated I/O seconds of one seeded 30-transaction stream, from
    an empty bounded buffer."""
    db = Database(ifc_enabled=ifc_enabled, seed=13, buffer_pages=96,
                  page_size=2048, io_penalty=0.0005)
    workload = TPCCWorkload(db, _seeded_config(tags_per_label))
    workload.load()
    db.buffer_cache.reset()
    before = counters.tally().simulated_io_time
    workload.run(30)
    return counters.tally().simulated_io_time - before


class TestLabelsOnDisk:
    """Figure 6's on-disk slope comes from the page model (section
    8.3): a label adds bytes to every tuple, so fewer tuples fit on a
    page and a bounded buffer misses more."""

    def test_each_tag_costs_pages(self):
        io = {tags: _simulated_io(ifc_enabled=True, tags_per_label=tags)
              for tags in (0, 4, 8)}
        assert io[0] < io[4] < io[8]
        assert (io[0], io[4], io[8]) == pytest.approx((0.018, 0.0205,
                                                       0.0235))

    def test_no_tags_cost_what_no_ifc_costs(self):
        assert _simulated_io(ifc_enabled=False, tags_per_label=0) \
            == _simulated_io(ifc_enabled=True, tags_per_label=0)
