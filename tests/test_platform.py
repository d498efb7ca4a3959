"""Platform tests (section 7.2): output interposition, the label-sync
protocol's lazy coalescing, and the authority cache."""

import gc
import weakref

import pytest

from repro.core import IFCProcess, Label
from repro.db import SERIALIZABLE, SNAPSHOT, Database
from repro.errors import AuthorityError, ReleaseError
from repro.platform import AuthorityCache, IFRuntime
from repro.platform.web import Request, WebApp


@pytest.fixture
def world(authority, db):
    runtime = IFRuntime(authority)
    alice = authority.create_principal("alice")
    tag = authority.create_tag("alice_tag", owner=alice.id)
    return authority, db, runtime, alice, tag


class TestOutputInterposition:
    def test_clean_process_sends(self, world):
        _a, _db, runtime, alice, _tag = world
        process = runtime.spawn(alice.id)
        process.send("hello")
        assert process.outputs[-1][0] == "hello"

    def test_contaminated_process_blocked(self, world):
        _a, _db, runtime, alice, tag = world
        process = runtime.spawn(alice.id)
        process.add_secrecy(tag.id)
        with pytest.raises(ReleaseError):
            process.send("secret")
        assert not process.outputs
        assert not process.try_send("secret")

    def test_a_served_request_keeps_nothing_of_its_process(self, world):
        """What a request let escape lives on its process alone: once
        ``handle`` returns, nothing holds the process or its response
        body, so serving requests does not grow the runtime."""
        _a, db, runtime, alice, _tag = world
        app = WebApp(runtime, db, authenticator=lambda user, pw: alice.id)
        seen = []

        def page(ctx):
            seen.append(weakref.ref(ctx.process))
            return "body"

        app.add_route("/page", page)
        response = app.handle(Request("/page", session_token=app.login(
            "alice", "pw")))
        assert response.ok and response.body == "body"
        gc.collect()
        assert seen[0]() is None

    def test_send_to_labelled_destination(self, world):
        _a, _db, runtime, alice, tag = world
        process = runtime.spawn(alice.id)
        process.add_secrecy(tag.id)
        process.send("for alice only", Label([tag.id]))

    def test_declassify_then_send(self, world):
        _a, _db, runtime, alice, tag = world
        process = runtime.spawn(alice.id)
        process.add_secrecy(tag.id)
        process.declassify(tag.id)      # owner, via cache
        process.send("ok")

    def test_cached_declassify_requires_authority(self, world):
        authority, _db, runtime, _alice, tag = world
        mallory = authority.create_principal("mallory")
        process = runtime.spawn(mallory.id)
        process.add_secrecy(tag.id)
        with pytest.raises(AuthorityError):
            process.declassify(tag.id)

    def test_anonymous_process_has_no_authority(self, world):
        _a, _db, runtime, _alice, tag = world
        process = runtime.spawn_anonymous()
        process.add_secrecy(tag.id)
        with pytest.raises(AuthorityError):
            process.declassify(tag.id)


class TestProtocolCoalescing:
    """Section 7.1: label changes are coalesced and sent lazily."""

    @pytest.fixture
    def connection(self, world):
        authority, db, runtime, alice, tag = world
        session = db.connect()
        session.execute("CREATE TABLE t (x INT PRIMARY KEY)")
        process = runtime.spawn(alice.id)
        return process, process.connect(db), tag

    def test_first_statement_syncs_once(self, connection):
        process, conn, _tag = connection
        conn.execute("SELECT * FROM t")
        assert conn.stats.label_updates_sent == 1
        assert conn.stats.statements_sent == 1

    def test_no_change_no_update(self, connection):
        process, conn, _tag = connection
        conn.execute("SELECT * FROM t")
        conn.execute("SELECT * FROM t")
        assert conn.stats.label_updates_sent == 1

    def test_many_changes_one_update(self, connection):
        """Multiple label flips between statements ride one message."""
        process, conn, tag = connection
        conn.execute("SELECT * FROM t")
        for _ in range(5):
            process.add_secrecy(tag.id)
            process.declassify(tag.id)
        conn.execute("SELECT * FROM t")
        assert conn.stats.label_updates_sent == 2
        assert conn.stats.label_changes_coalesced >= 9

    def test_query_by_label_through_connection(self, connection):
        process, conn, tag = connection
        process.add_secrecy(tag.id)
        conn.execute("INSERT INTO t VALUES (1)")
        process.declassify(tag.id)
        assert conn.query("SELECT * FROM t") == []      # hidden again


class TestAuthorityCache:
    def test_hits_after_first_lookup(self, world):
        authority, _db, _runtime, alice, tag = world
        cache = AuthorityCache(authority)
        assert cache.has_authority(alice.id, tag.id)
        assert cache.has_authority(alice.id, tag.id)
        assert cache.hits == 1 and cache.misses == 1

    def test_invalidated_by_authority_changes(self, world):
        authority, _db, _runtime, alice, tag = world
        bob = authority.create_principal("bob")
        cache = AuthorityCache(authority)
        assert not cache.has_authority(bob.id, tag.id)
        authority.delegate(tag.id, alice.id, bob.id)
        assert cache.has_authority(bob.id, tag.id)      # sees the change
        assert cache.invalidations == 1

    def test_revocation_visible_through_cache(self, world):
        authority, _db, _runtime, alice, tag = world
        bob = authority.create_principal("bob")
        authority.delegate(tag.id, alice.id, bob.id)
        cache = AuthorityCache(authority)
        assert cache.has_authority(bob.id, tag.id)
        authority.revoke(tag.id, alice.id, bob.id)
        assert not cache.has_authority(bob.id, tag.id)


class TestConnectionTransactions:
    """``IFConnection.begin``/``commit``/``rollback``: each one round
    trip, and the statements between share one transaction."""

    @pytest.mark.parametrize("isolation", [None, SERIALIZABLE, SNAPSHOT])
    def test_a_transaction_through_the_connection(self, world, isolation):
        _a, db, runtime, alice, _tag = world
        conn = runtime.spawn(alice.id).connect(db)
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        stats = conn.stats

        def round_trip(call, *args):
            sent, received = stats.statements_sent, stats.results_received
            call(*args)
            assert (stats.statements_sent, stats.results_received) == (
                sent + 1, received + 1)

        round_trip(conn.begin, isolation)
        txn = conn.session.transaction
        assert txn.isolation == (isolation or SNAPSHOT)
        conn.execute("INSERT INTO t VALUES (1)")
        assert conn.session.transaction is txn
        assert conn.query("SELECT id FROM t") == [[1]]
        round_trip(conn.rollback)
        assert conn.session.transaction is None
        assert conn.query("SELECT id FROM t") == []

        round_trip(conn.begin, isolation)
        conn.execute("INSERT INTO t VALUES (2)")
        round_trip(conn.commit)
        assert conn.session.transaction is None
        assert db.connect().query("SELECT id FROM t") == [[2]]
