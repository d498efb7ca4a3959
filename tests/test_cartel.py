"""End-to-end CarTel tests (section 6.1): tag scheme, ingest pipeline,
portal behaviour, and the attacks IFDB neutralizes."""

import random
from collections import Counter

import pytest

from repro.core import AuthorityState, IFCProcess, Label, SeededIdGenerator
from repro.db import Database
from repro.platform import IFRuntime, Request
from repro.apps.cartel import (
    CarTelApp,
    SensorProcessor,
    TraceGenerator,
    build_portal,
    drives_tag_name,
    install_driveupdate_trigger,
    location_tag_name,
)
from repro.workloads import REQUEST_MIX, sample_request


@pytest.fixture
def cartel():
    authority = AuthorityState(idgen=SeededIdGenerator(77))
    db = Database(authority, seed=77)
    runtime = IFRuntime(authority)
    app = CarTelApp(db, runtime)
    install_driveupdate_trigger(app)
    web = build_portal(app)
    alice = app.signup("alice", "pwa")
    bob = app.signup("bob", "pwb")
    car_a = app.add_car(alice)
    car_b = app.add_car(bob)
    app.befriend(alice, bob)       # alice shares her drives with bob
    generator = TraceGenerator([car_a, car_b], seed=5)
    SensorProcessor(app).process_measurements(generator.measurements(100))
    return app, web, db, alice, bob, car_a, car_b


class TestIngestPipeline:
    def test_locations_labelled_per_user(self, cartel):
        app, _web, db, alice, _bob, car_a, _car_b = cartel
        table = db.catalog.get_table("Locations")
        expected = app.user_labels(alice)
        labels = {v.label for v in table.all_versions()
                  if v.values[1] == car_a}
        assert labels == {expected}

    def test_drives_derived_with_drives_tag_only(self, cartel):
        app, _web, db, alice, _bob, car_a, _car_b = cartel
        registry = app.authority.tags
        drives_tag = registry.lookup(drives_tag_name(alice)).id
        location_tag = registry.lookup(location_tag_name(alice)).id
        table = db.catalog.get_table("Drives")
        for version in table.all_versions():
            if version.values[1] != car_a:
                continue
            assert drives_tag in version.label
            assert location_tag not in version.label

    def test_ingest_process_ends_clean(self, cartel):
        app, *_ = cartel
        processor = SensorProcessor(app)
        car = next(iter(processor._owner_of.__self__.app.accounts)) \
            if False else None
        assert len(processor.process.label) == 0

    def test_drive_segmentation(self, cartel):
        """Multiple drives appear when traces have parking gaps."""
        _app, _web, db, _alice, _bob, car_a, _car_b = cartel
        probe = db.connect(_probe(cartel))
        count = probe.execute(
            "SELECT COUNT(*) FROM Drives WHERE carid = ?",
            (car_a,)).scalar()
        assert count >= 2


def _probe(cartel):
    app = cartel[0]
    process = IFCProcess(app.authority, app.ingestd.id)
    process.add_secrecy(app.all_drives.id)
    process.add_secrecy(app.all_locations.id)
    return process


class TestPortal:
    def test_owner_sees_own_locations(self, cartel):
        _app, web, *_ = cartel
        token = web.login("alice", "pwa")
        response = web.handle(Request("/get_cars.php", session_token=token))
        assert response.status == 200
        assert len(response.body["cars"]) == 1

    def test_friend_sees_shared_drives(self, cartel):
        app, web, _db, alice, bob, *_ = cartel
        token = web.login("bob", "pwb")
        response = web.handle(Request("/drives.php", session_token=token))
        assert response.status == 200
        users = {d["user"] for d in response.body["drives"]}
        assert users == {alice, bob}

    def test_nonfriend_coerced_url_blocked(self, cartel):
        """Section 6.1's URL-manipulation attack: contaminated with a tag
        it cannot declassify, the script produces no output."""
        _app, web, *_ = cartel
        token = web.login("alice", "pwa")     # bob did NOT share with alice
        response = web.handle(Request("/drives.php",
                                      params={"user": "bob"},
                                      session_token=token))
        assert response.status == 403
        assert response.body is None

    def test_friend_cannot_see_current_location(self, cartel):
        """Only the owner can see the current location (alice-location
        was never delegated)."""
        app, web, db, alice, bob, *_ = cartel
        process = app.runtime.spawn(app.accounts["bob"][1])
        registry = app.authority.tags
        location_tag = registry.lookup(location_tag_name(alice))
        process.add_secrecy(registry.lookup(drives_tag_name(alice)).id)
        process.add_secrecy(location_tag.id)
        session = process.connect(db)
        rows = session.query("SELECT * FROM LocationsLatest")
        assert rows                           # reading is fine, but...
        assert not process.can_release()      # ...bob can't release it
        from repro.errors import AuthorityError
        with pytest.raises(AuthorityError):
            process.declassify(location_tag.id)

    def test_unauthenticated_script_has_no_authority(self, cartel):
        """The twelve unauthenticated CarTel scripts: under IFDB they run
        with no authority and can't release anything sensitive."""
        _app, web, *_ = cartel
        response = web.handle(Request("/get_cars.php"))
        assert response.status == 401

    def test_traffic_stats_closure_aggregates_all_users(self, cartel):
        app, web, *_ = cartel
        token = web.login("alice", "pwa")
        response = web.handle(Request("/drives_top.php",
                                      session_token=token))
        assert response.status == 200
        stats = response.body["stats"]
        assert stats["drivers"] == 2          # aggregate over everyone
        assert stats["drives"] >= 2

    def test_friends_page_delegation(self, cartel):
        app, web, db, alice, bob, *_ = cartel
        token = web.login("bob", "pwb")
        response = web.handle(Request("/friends.php",
                                      params={"add": "alice"},
                                      session_token=token))
        assert response.status == 200
        assert alice in response.body["friends"]
        # Now alice can see bob's drives too.
        token_a = web.login("alice", "pwa")
        response = web.handle(Request("/drives.php",
                                      params={"user": "bob"},
                                      session_token=token_a))
        assert response.status == 200

    def test_edit_account(self, cartel):
        _app, web, *_ = cartel
        token = web.login("alice", "pwa")
        response = web.handle(Request(
            "/edit_account.php",
            params={"fullname": "Alice Q.", "email": "a@x.org"},
            session_token=token))
        assert response.status == 200
        assert response.body["account"]["fullname"] == "Alice Q."

    def test_bad_login(self, cartel):
        _app, web, *_ = cartel
        from repro.errors import AuthenticationError
        with pytest.raises(AuthenticationError):
            web.login("alice", "wrong")


class TestRequestMix:
    def test_mix_is_figure_3(self):
        assert dict(REQUEST_MIX) == {
            "/get_cars.php": 0.50, "/cars.php": 0.30, "/drives.php": 0.08,
            "/drives_top.php": 0.08, "/friends.php": 0.03,
            "/edit_account.php": 0.01}
        assert sum(weight for _path, weight in REQUEST_MIX) \
            == pytest.approx(1.0)

    def test_sampled_requests_follow_the_mix(self):
        rng = random.Random(3)
        samples = 40000
        drawn = Counter(sample_request(rng) for _ in range(samples))
        assert set(drawn) == set(dict(REQUEST_MIX))
        for path, weight in REQUEST_MIX:
            assert drawn[path] / samples == pytest.approx(weight, abs=0.01)


USERS = 6


def _populated_stack(ifc_enabled, seed=21):
    """Six users with two cars each, each sharing drives with the next
    two, and 300 replayed GPS points: the stack the benchmarks build,
    at a small size.  ``ifc_enabled=False`` is their baseline."""
    authority = AuthorityState(idgen=SeededIdGenerator(seed))
    db = Database(authority, ifc_enabled=ifc_enabled, seed=seed)
    app = CarTelApp(db, IFRuntime(authority, ifc_enabled=ifc_enabled))
    install_driveupdate_trigger(app)
    web = build_portal(app)
    names = ["user%d" % i for i in range(1, USERS + 1)]
    userids = [app.signup(name, "pw-" + name) for name in names]
    car_ids = [app.add_car(userid) for userid in userids for _ in range(2)]
    for i, userid in enumerate(userids):
        for k in (1, 2):
            app.befriend(userid, userids[(i + k) % USERS])
    SensorProcessor(app).process_measurements(
        TraceGenerator(car_ids, seed=seed).measurements(300))
    tokens = [web.login(name, "pw-" + name) for name in names]
    return db, web, tokens


@pytest.fixture(scope="module")
def stacks():
    return {ifc: _populated_stack(ifc) for ifc in (True, False)}


class TestBaseline:
    """Every IFC-versus-baseline measurement assumes the baseline (the
    same engine and platform with IFC disabled) does the same work: it
    ingests the same rows and answers every Figure 3 script alike."""

    @pytest.mark.parametrize("path", [path for path, _w in REQUEST_MIX])
    def test_every_script_answers_as_with_ifc(self, stacks, path):
        for user in range(USERS):
            ifdb, base = (
                web.handle(Request(path, session_token=tokens[user]))
                for _db, web, tokens in (stacks[True], stacks[False]))
            assert ifdb.status == base.status == 200
            assert ifdb.body == base.body

    def test_ingest_derives_the_same_rows(self, stacks):
        for name in ("Cars", "Locations", "LocationsLatest", "Drives"):
            ifdb, base = (
                sorted(version.values for version in
                       db.catalog.get_table(name).all_versions())
                for db, _web, _tokens in (stacks[True], stacks[False]))
            assert ifdb and ifdb == base, name
        drives = stacks[False][0].catalog.get_table("Drives")
        assert all(version.label == Label()
                   for version in drives.all_versions())

    def test_only_ifc_blocks_the_coerced_url(self, stacks):
        """user2 shares drives with user3 and user4, not with user1:
        the baseline's handler releases them, IFDB's cannot."""
        responses = {
            ifc: web.handle(Request("/drives.php", params={"user": "user2"},
                                    session_token=tokens[0]))
            for ifc, (_db, web, tokens) in stacks.items()}
        assert responses[True].status == 403
        assert responses[True].body is None
        assert responses[False].status == 200
        assert responses[False].body["drives"]
