"""TPC-C workload (the DBT-2-derived benchmark of section 8.3).

Implements the five TPC-C transaction profiles — New-Order, Payment,
Order-Status, Delivery, Stock-Level — with the standard 45/43/4/4/4 mix,
zero think time, and a fixed warehouse count, matching the paper's
methodology ("Unlike TPC-C, we set the think time of simulated clients
to zero and held the number of warehouses constant").

Scale is configurable because the substrate is a pure-Python engine: the
default loads are far below the spec's 100 000 items and 3 000 customers
per district, but every table, index, and transaction step is present,
so label overhead shows up on the same code paths.

The IFDB angle (Figure 6): ``tags_per_label`` attaches that many tags to
every tuple written and to the driver's process label, making tuples
4 bytes/tag bigger and every visibility check a real label comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.labels import Label
from ..core.process import IFCProcess
from ..db.engine import Database
from ..errors import SerializationError

SCHEMA_SQL = """
CREATE TABLE Warehouse (
    w_id INT PRIMARY KEY,
    w_name TEXT, w_street TEXT, w_city TEXT, w_state TEXT, w_zip TEXT,
    w_tax REAL NOT NULL,
    w_ytd REAL NOT NULL
);
CREATE TABLE District (
    d_w_id INT NOT NULL REFERENCES Warehouse(w_id),
    d_id INT NOT NULL,
    d_name TEXT, d_street TEXT, d_city TEXT, d_state TEXT, d_zip TEXT,
    d_tax REAL NOT NULL,
    d_ytd REAL NOT NULL,
    d_next_o_id INT NOT NULL,
    PRIMARY KEY (d_w_id, d_id)
);
CREATE TABLE Customer (
    c_w_id INT NOT NULL,
    c_d_id INT NOT NULL,
    c_id INT NOT NULL,
    c_first TEXT, c_middle TEXT, c_last TEXT,
    c_street TEXT, c_city TEXT, c_state TEXT, c_zip TEXT, c_phone TEXT,
    c_since TIMESTAMP,
    c_credit TEXT,
    c_credit_lim REAL,
    c_discount REAL NOT NULL,
    c_balance REAL NOT NULL,
    c_ytd_payment REAL NOT NULL,
    c_payment_cnt INT NOT NULL,
    c_delivery_cnt INT NOT NULL,
    c_data TEXT,
    PRIMARY KEY (c_w_id, c_d_id, c_id)
);
CREATE TABLE History (
    h_id INT PRIMARY KEY,
    h_c_id INT, h_c_d_id INT, h_c_w_id INT,
    h_d_id INT, h_w_id INT,
    h_date TIMESTAMP,
    h_amount REAL,
    h_data TEXT
);
CREATE TABLE NewOrder (
    no_w_id INT NOT NULL,
    no_d_id INT NOT NULL,
    no_o_id INT NOT NULL,
    PRIMARY KEY (no_w_id, no_d_id, no_o_id)
);
CREATE TABLE Orders (
    o_w_id INT NOT NULL,
    o_d_id INT NOT NULL,
    o_id INT NOT NULL,
    o_c_id INT NOT NULL,
    o_entry_d TIMESTAMP,
    o_carrier_id INT,
    o_ol_cnt INT NOT NULL,
    o_all_local INT NOT NULL,
    PRIMARY KEY (o_w_id, o_d_id, o_id)
);
CREATE TABLE OrderLine (
    ol_w_id INT NOT NULL,
    ol_d_id INT NOT NULL,
    ol_o_id INT NOT NULL,
    ol_number INT NOT NULL,
    ol_i_id INT NOT NULL,
    ol_supply_w_id INT,
    ol_delivery_d TIMESTAMP,
    ol_quantity INT NOT NULL,
    ol_amount REAL NOT NULL,
    ol_dist_info TEXT,
    PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number)
);
CREATE TABLE Item (
    i_id INT PRIMARY KEY,
    i_im_id INT,
    i_name TEXT,
    i_price REAL NOT NULL,
    i_data TEXT
);
CREATE TABLE Stock (
    s_w_id INT NOT NULL,
    s_i_id INT NOT NULL,
    s_quantity INT NOT NULL,
    s_dist TEXT,
    s_ytd REAL NOT NULL,
    s_order_cnt INT NOT NULL,
    s_remote_cnt INT NOT NULL,
    s_data TEXT,
    PRIMARY KEY (s_w_id, s_i_id)
);
CREATE ORDERED INDEX customer_by_name ON Customer (c_w_id, c_d_id, c_last);
CREATE ORDERED INDEX orders_by_customer ON Orders (o_w_id, o_d_id, o_c_id, o_id);
CREATE ORDERED INDEX neworder_by_district ON NewOrder (no_w_id, no_d_id, no_o_id);
CREATE ORDERED INDEX orderline_by_order ON OrderLine (ol_w_id, ol_d_id, ol_o_id, ol_number);
"""

#: The standard TPC-C transaction mix.
MIX = (
    ("new_order", 0.45),
    ("payment", 0.43),
    ("order_status", 0.04),
    ("delivery", 0.04),
    ("stock_level", 0.04),
)

_LAST_NAMES = ("BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI",
               "CALLY", "ATION", "EING")


def customer_last_name(number: int) -> str:
    """TPC-C last-name generation from a three-digit number."""
    return (_LAST_NAMES[(number // 100) % 10]
            + _LAST_NAMES[(number // 10) % 10]
            + _LAST_NAMES[number % 10])


@dataclass
class TPCCConfig:
    """Scale parameters (defaults are laptop-scale, structure-complete)."""

    warehouses: int = 2
    districts_per_warehouse: int = 4
    customers_per_district: int = 30
    items: int = 200
    initial_orders_per_district: int = 15
    seed: int = 42
    tags_per_label: int = 0


@dataclass
class TPCCStats:
    transactions: Dict[str, int] = field(default_factory=dict)
    new_order_commits: int = 0
    rollbacks: int = 0
    serialization_aborts: int = 0

    def bump(self, kind: str) -> None:
        self.transactions[kind] = self.transactions.get(kind, 0) + 1


class TPCCWorkload:
    """Loader and driver for the TPC-C-derived benchmark."""

    def __init__(self, db: Database, config: Optional[TPCCConfig] = None):
        self.db = db
        self.config = config or TPCCConfig()
        self.rng = random.Random(self.config.seed)
        self.stats = TPCCStats()
        authority = db.authority
        self._driver = authority.create_principal("tpcc-driver")
        self._tags = [
            authority.create_tag("tpcc-tag-%d" % i, owner=self._driver.id)
            for i in range(self.config.tags_per_label)
        ]
        self.label = Label(t.id for t in self._tags)
        self.process = IFCProcess(authority, self._driver.id)
        for tag in self._tags:
            self.process.add_secrecy(tag.id)
        self.session = db.connect(self.process)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load(self) -> None:
        """Create the schema and populate every table."""
        cfg = self.config
        rng = self.rng
        session = self.session
        session.execute_script(SCHEMA_SQL)
        session.begin()
        for i_id in range(1, cfg.items + 1):
            session.insert("Item", i_id=i_id, i_im_id=rng.randint(1, 10000),
                           i_name="item-%d" % i_id,
                           i_price=round(rng.uniform(1.0, 100.0), 2),
                           i_data="data-%d" % rng.randint(0, 9999))
        for w_id in range(1, cfg.warehouses + 1):
            session.insert("Warehouse", w_id=w_id, w_name="W%d" % w_id,
                           w_street="1 Main", w_city="Boston", w_state="MA",
                           w_zip="02139", w_tax=round(rng.uniform(0, 0.2), 4),
                           w_ytd=300000.0)
            for i_id in range(1, cfg.items + 1):
                session.insert("Stock", s_w_id=w_id, s_i_id=i_id,
                               s_quantity=rng.randint(10, 100),
                               s_dist="dist-%02d" % rng.randint(1, 10),
                               s_ytd=0.0, s_order_cnt=0, s_remote_cnt=0,
                               s_data="stock-%d" % rng.randint(0, 9999))
            for d_id in range(1, cfg.districts_per_warehouse + 1):
                session.insert("District", d_w_id=w_id, d_id=d_id,
                               d_name="D%d" % d_id, d_street="2 Side",
                               d_city="Boston", d_state="MA", d_zip="02139",
                               d_tax=round(rng.uniform(0, 0.2), 4),
                               d_ytd=30000.0,
                               d_next_o_id=cfg.initial_orders_per_district + 1)
                self._load_customers(w_id, d_id)
                self._load_orders(w_id, d_id)
        session.commit()
        # Re-cost any plan cached while the tables were still filling, so
        # the transaction mix runs plans made from the loaded row counts.
        self.db.analyze()

    def _load_customers(self, w_id: int, d_id: int) -> None:
        cfg = self.config
        rng = self.rng
        for c_id in range(1, cfg.customers_per_district + 1):
            last = customer_last_name(
                c_id - 1 if c_id <= 100 else rng.randint(0, 999))
            self.session.insert(
                "Customer", c_w_id=w_id, c_d_id=d_id, c_id=c_id,
                c_first="first-%d" % c_id, c_middle="OE", c_last=last,
                c_street="3 Elm", c_city="Boston", c_state="MA",
                c_zip="02139", c_phone="617-555-0000", c_since=0.0,
                c_credit="GC" if rng.random() < 0.9 else "BC",
                c_credit_lim=50000.0,
                c_discount=round(rng.uniform(0, 0.5), 4),
                c_balance=-10.0, c_ytd_payment=10.0, c_payment_cnt=1,
                c_delivery_cnt=0, c_data="customer-data")

    def _load_orders(self, w_id: int, d_id: int) -> None:
        cfg = self.config
        rng = self.rng
        for o_id in range(1, cfg.initial_orders_per_district + 1):
            c_id = rng.randint(1, cfg.customers_per_district)
            ol_cnt = rng.randint(5, 15)
            delivered = o_id <= cfg.initial_orders_per_district * 2 // 3
            self.session.insert(
                "Orders", o_w_id=w_id, o_d_id=d_id, o_id=o_id, o_c_id=c_id,
                o_entry_d=0.0,
                o_carrier_id=rng.randint(1, 10) if delivered else None,
                o_ol_cnt=ol_cnt, o_all_local=1)
            for number in range(1, ol_cnt + 1):
                self.session.insert(
                    "OrderLine", ol_w_id=w_id, ol_d_id=d_id, ol_o_id=o_id,
                    ol_number=number, ol_i_id=rng.randint(1, cfg.items),
                    ol_supply_w_id=w_id,
                    ol_delivery_d=0.0 if delivered else None,
                    ol_quantity=5,
                    ol_amount=0.0 if delivered else
                    round(rng.uniform(0.01, 9999.99), 2),
                    ol_dist_info="dist-info")
            if not delivered:
                self.session.insert("NewOrder", no_w_id=w_id, no_d_id=d_id,
                                    no_o_id=o_id)

    # ------------------------------------------------------------------
    # transaction profiles
    # ------------------------------------------------------------------
    def run_one(self, kind: Optional[str] = None) -> str:
        """Execute one transaction of the given (or mix-sampled) type."""
        if kind is None:
            kind = self._sample_mix()
        fn = getattr(self, "txn_" + kind)
        try:
            fn()
            self.stats.bump(kind)
        except SerializationError:
            self.stats.serialization_aborts += 1
            if self.session.transaction is not None:
                self.session.rollback()
        return kind

    def run(self, n_transactions: int) -> TPCCStats:
        for _ in range(n_transactions):
            self.run_one()
        return self.stats

    def _sample_mix(self) -> str:
        roll = self.rng.random()
        acc = 0.0
        for kind, weight in MIX:
            acc += weight
            if roll < acc:
                return kind
        return MIX[-1][0]

    def _random_customer(self):
        cfg = self.config
        return (self.rng.randint(1, cfg.warehouses),
                self.rng.randint(1, cfg.districts_per_warehouse),
                self.rng.randint(1, cfg.customers_per_district))

    # -- New-Order (45%) -------------------------------------------------
    def txn_new_order(self) -> None:
        cfg = self.config
        rng = self.rng
        session = self.session
        w_id = rng.randint(1, cfg.warehouses)
        d_id = rng.randint(1, cfg.districts_per_warehouse)
        c_id = rng.randint(1, cfg.customers_per_district)
        ol_cnt = rng.randint(5, 15)
        # TPC-C: 1% of new-order transactions roll back on a bad item.
        bad_item = rng.random() < 0.01
        session.begin()
        try:
            warehouse = session.execute(
                "SELECT w_tax FROM Warehouse WHERE w_id = ?",
                (w_id,)).first()
            district = session.execute(
                "SELECT d_tax, d_next_o_id FROM District "
                "WHERE d_w_id = ? AND d_id = ?", (w_id, d_id)).first()
            o_id = district["d_next_o_id"]
            session.execute(
                "UPDATE District SET d_next_o_id = ? "
                "WHERE d_w_id = ? AND d_id = ?", (o_id + 1, w_id, d_id))
            customer = session.execute(
                "SELECT c_discount, c_last, c_credit FROM Customer "
                "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
                (w_id, d_id, c_id)).first()
            session.execute(
                "INSERT INTO Orders (o_w_id, o_d_id, o_id, o_c_id, "
                "o_entry_d, o_carrier_id, o_ol_cnt, o_all_local) "
                "VALUES (?, ?, ?, ?, ?, NULL, ?, 1)",
                (w_id, d_id, o_id, c_id, self.db.clock(), ol_cnt))
            session.execute(
                "INSERT INTO NewOrder (no_w_id, no_d_id, no_o_id) "
                "VALUES (?, ?, ?)", (w_id, d_id, o_id))
            total = 0.0
            for number in range(1, ol_cnt + 1):
                if bad_item and number == ol_cnt:
                    raise _Rollback()
                i_id = rng.randint(1, cfg.items)
                item = session.execute(
                    "SELECT i_price FROM Item WHERE i_id = ?",
                    (i_id,)).first()
                stock = session.execute(
                    "SELECT s_quantity, s_ytd, s_order_cnt FROM Stock "
                    "WHERE s_w_id = ? AND s_i_id = ?", (w_id, i_id)).first()
                quantity = rng.randint(1, 10)
                new_quantity = stock["s_quantity"] - quantity
                if new_quantity < 10:
                    new_quantity += 91
                session.execute(
                    "UPDATE Stock SET s_quantity = ?, s_ytd = s_ytd + ?, "
                    "s_order_cnt = s_order_cnt + 1 "
                    "WHERE s_w_id = ? AND s_i_id = ?",
                    (new_quantity, quantity, w_id, i_id))
                amount = quantity * item["i_price"]
                total += amount
                session.execute(
                    "INSERT INTO OrderLine (ol_w_id, ol_d_id, ol_o_id, "
                    "ol_number, ol_i_id, ol_supply_w_id, ol_delivery_d, "
                    "ol_quantity, ol_amount, ol_dist_info) "
                    "VALUES (?, ?, ?, ?, ?, ?, NULL, ?, ?, 'info')",
                    (w_id, d_id, o_id, number, i_id, w_id, quantity, amount))
            total *= (1 - customer["c_discount"]) * \
                (1 + warehouse["w_tax"] + district["d_tax"])
            session.commit()
            self.stats.new_order_commits += 1
        except _Rollback:
            session.rollback()
            self.stats.rollbacks += 1

    # -- Payment (43%) ----------------------------------------------------
    def txn_payment(self) -> None:
        rng = self.rng
        session = self.session
        w_id, d_id, c_id = self._random_customer()
        amount = round(rng.uniform(1.0, 5000.0), 2)
        by_name = rng.random() < 0.4
        session.begin()
        session.execute(
            "UPDATE Warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
            (amount, w_id))
        session.execute(
            "UPDATE District SET d_ytd = d_ytd + ? "
            "WHERE d_w_id = ? AND d_id = ?", (amount, w_id, d_id))
        if by_name:
            last = customer_last_name(rng.randint(0, 99))
            rows = session.query(
                "SELECT c_id FROM Customer WHERE c_w_id = ? AND c_d_id = ? "
                "AND c_last = ? ORDER BY c_first", (w_id, d_id, last))
            if rows:
                c_id = rows[len(rows) // 2][0]
        session.execute(
            "UPDATE Customer SET c_balance = c_balance - ?, "
            "c_ytd_payment = c_ytd_payment + ?, "
            "c_payment_cnt = c_payment_cnt + 1 "
            "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
            (amount, amount, w_id, d_id, c_id))
        session.execute(
            "INSERT INTO History (h_id, h_c_id, h_c_d_id, h_c_w_id, h_d_id, "
            "h_w_id, h_date, h_amount, h_data) VALUES (?,?,?,?,?,?,?,?,?)",
            (self.db.next_sequence("history"), c_id, d_id, w_id, d_id, w_id,
             self.db.clock(), amount, "payment"))
        session.commit()

    # -- Order-Status (4%) -------------------------------------------------
    def txn_order_status(self) -> None:
        session = self.session
        w_id, d_id, c_id = self._random_customer()
        session.begin()
        session.execute(
            "SELECT c_balance, c_first, c_middle, c_last FROM Customer "
            "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
            (w_id, d_id, c_id))
        order = session.execute(
            "SELECT o_id, o_entry_d, o_carrier_id FROM Orders "
            "WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ? "
            "ORDER BY o_id DESC LIMIT 1", (w_id, d_id, c_id)).first()
        if order is not None:
            session.query(
                "SELECT ol_i_id, ol_quantity, ol_amount, ol_delivery_d "
                "FROM OrderLine WHERE ol_w_id = ? AND ol_d_id = ? "
                "AND ol_o_id = ?", (w_id, d_id, order["o_id"]))
        session.commit()

    # -- Delivery (4%) -----------------------------------------------------
    def txn_delivery(self) -> None:
        cfg = self.config
        session = self.session
        w_id = self.rng.randint(1, cfg.warehouses)
        carrier = self.rng.randint(1, 10)
        session.begin()
        for d_id in range(1, cfg.districts_per_warehouse + 1):
            oldest = session.execute(
                "SELECT no_o_id FROM NewOrder WHERE no_w_id = ? "
                "AND no_d_id = ? ORDER BY no_o_id LIMIT 1",
                (w_id, d_id)).first()
            if oldest is None:
                continue
            o_id = oldest[0]
            # Range-form consumption of the queue head (o_id is the
            # minimum, so "<= o_id" deletes exactly that order): the
            # DML planner serves the bound from neworder_by_district's
            # ordered index instead of probing the equality prefix and
            # filtering the district's whole pending queue.
            session.execute(
                "DELETE FROM NewOrder WHERE no_w_id = ? AND no_d_id = ? "
                "AND no_o_id <= ?", (w_id, d_id, o_id))
            order = session.execute(
                "SELECT o_c_id FROM Orders WHERE o_w_id = ? AND o_d_id = ? "
                "AND o_id = ?", (w_id, d_id, o_id)).first()
            session.execute(
                "UPDATE Orders SET o_carrier_id = ? WHERE o_w_id = ? "
                "AND o_d_id = ? AND o_id = ?", (carrier, w_id, d_id, o_id))
            session.execute(
                "UPDATE OrderLine SET ol_delivery_d = ? WHERE ol_w_id = ? "
                "AND ol_d_id = ? AND ol_o_id = ?",
                (self.db.clock(), w_id, d_id, o_id))
            total = session.execute(
                "SELECT SUM(ol_amount) FROM OrderLine WHERE ol_w_id = ? "
                "AND ol_d_id = ? AND ol_o_id = ?",
                (w_id, d_id, o_id)).scalar() or 0.0
            session.execute(
                "UPDATE Customer SET c_balance = c_balance + ?, "
                "c_delivery_cnt = c_delivery_cnt + 1 "
                "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
                (total, w_id, d_id, order["o_c_id"]))
        session.commit()

    # -- Stock-Level (4%) ---------------------------------------------------
    def txn_stock_level(self) -> None:
        cfg = self.config
        session = self.session
        w_id = self.rng.randint(1, cfg.warehouses)
        d_id = self.rng.randint(1, cfg.districts_per_warehouse)
        threshold = self.rng.randint(10, 20)
        session.begin()
        next_o_id = session.execute(
            "SELECT d_next_o_id FROM District WHERE d_w_id = ? "
            "AND d_id = ?", (w_id, d_id)).scalar()
        session.execute(
            "SELECT COUNT(DISTINCT s.s_i_id) FROM OrderLine ol "
            "JOIN Stock s ON s.s_w_id = ol.ol_w_id AND s.s_i_id = ol.ol_i_id "
            "WHERE ol.ol_w_id = ? AND ol.ol_d_id = ? "
            "AND ol.ol_o_id >= ? AND ol.ol_o_id < ? AND s.s_quantity < ?",
            (w_id, d_id, max(1, next_o_id - 20), next_o_id, threshold))
        session.commit()


class _Rollback(Exception):
    """Internal: the deliberate 1% New-Order rollback."""
