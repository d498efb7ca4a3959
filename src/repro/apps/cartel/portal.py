"""The CarTel web portal: the scripts of Figure 3.

Each handler mirrors one PHP script from the paper's workload:

========  ==================  =====================================
weight    script              behaviour
========  ==================  =====================================
0.50      get_cars.php        AJAX: latest locations of own cars
0.30      cars.php            page: car list with locations
0.08      drives.php          drive log for self and all friends
0.08      drives_top.php      common driving patterns (closure)
0.03      friends.php         view and set friends
0.01      edit_account.php    edit personal info
========  ==================  =====================================

The handlers demonstrate the untrusted-code property: they freely read
sensitive rows after raising their label, and they can only produce
output because the logged-in user's principal is authoritative (or was
delegated authority) for the tags they picked up.  A coerced request
for a non-friend's drives contaminates the process with a tag it cannot
declassify, and the release gate yields an empty response — the
section 6.1 attack, neutralized.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...platform.web import WebApp, WebContext
from .schema import CarTelApp, drives_tag_name, location_tag_name


def build_portal(app: CarTelApp) -> WebApp:
    """Assemble the web application with all portal routes."""
    web = WebApp(app.runtime, app.db, authenticator=app.authenticate)
    _install_traffic_stats(app)

    def _tags(userid: int):
        registry = app.authority.tags
        return (registry.lookup(drives_tag_name(userid)),
                registry.lookup(location_tag_name(userid)))

    # -- get_cars.php (0.50): AJAX location updates ------------------------
    @web.route("/get_cars.php")
    def get_cars(ctx: WebContext):
        userid = app.userid_of(ctx.user)
        drives_tag, location_tag = _tags(userid)
        ctx.process.add_secrecy(drives_tag.id)
        ctx.process.add_secrecy(location_tag.id)
        rows = ctx.db.query(
            "SELECT c.carid, l.lat, l.lon, l.speed, l.ts "
            "FROM Cars c JOIN LocationsLatest l ON l.carid = c.carid "
            "WHERE c.userid = ?", (userid,))
        payload = [{"carid": r[0], "lat": r[1], "lon": r[2],
                    "speed": r[3], "ts": r[4]} for r in rows]
        ctx.process.declassify(location_tag.id)
        ctx.process.declassify(drives_tag.id)
        return {"cars": payload}

    # -- cars.php (0.30): car list page -----------------------------------
    @web.route("/cars.php")
    def cars(ctx: WebContext):
        userid = app.userid_of(ctx.user)
        drives_tag, location_tag = _tags(userid)
        ctx.process.add_secrecy(drives_tag.id)
        my_cars = ctx.db.query(
            "SELECT carid, make, model FROM Cars WHERE userid = ? "
            "ORDER BY carid", (userid,))
        ctx.process.add_secrecy(location_tag.id)
        page = []
        for car in my_cars:
            latest = ctx.db.execute(
                "SELECT lat, lon, speed, ts FROM LocationsLatest "
                "WHERE carid = ?", (car[0],)).first()
            page.append({
                "carid": car[0],
                "title": "%s %s" % (car[1], car[2]),
                "position": None if latest is None else
                            (round(latest[0], 5), round(latest[1], 5)),
                "speed": None if latest is None else latest[2],
            })
        ctx.process.declassify(location_tag.id)
        ctx.process.declassify(drives_tag.id)
        return {"title": "Your cars", "cars": page}

    # -- drives.php (0.08): drive log, self + friends ----------------------
    @web.route("/drives.php")
    def drives(ctx: WebContext):
        userid = app.userid_of(ctx.user)
        # Which users can I see?  Me, plus everyone who befriended me.
        sharers = [userid]
        for row in ctx.db.query(
                "SELECT userid FROM Friends WHERE friendid = ?", (userid,)):
            sharers.append(row[0])
        requested = ctx.param("user")
        if requested is not None:
            # The section 6.1 attack surface: the URL names any user.
            sharers = [app.userid_of(requested)]
        log: List[Dict] = []
        registry = app.authority.tags
        for sharer in sharers:
            drives_tag = registry.lookup(drives_tag_name(sharer))
            ctx.process.add_secrecy(drives_tag.id)
            rows = ctx.db.query(
                "SELECT d.driveid, d.carid, d.start_ts, d.end_ts, "
                "d.distance, d.npoints FROM Drives d "
                "JOIN Cars c ON c.carid = d.carid WHERE c.userid = ? "
                "ORDER BY d.start_ts DESC LIMIT 20", (sharer,))
            for r in rows:
                log.append({"user": sharer, "drive": r[0], "car": r[1],
                            "km": round(r[4], 2), "points": r[5]})
            # Needs authority: own tag, or a friend's delegation.  For a
            # coerced non-friend this raises and the response is blocked.
            ctx.process.declassify(drives_tag.id)
        return {"title": "Drive log", "drives": log}

    # -- drives_top.php (0.08): common driving patterns --------------------
    @web.route("/drives_top.php")
    def drives_top(ctx: WebContext):
        stats = ctx.db.call("traffic_stats")
        return {"title": "Common driving patterns", "stats": stats}

    # -- friends.php (0.03): view and set friends ---------------------------
    @web.route("/friends.php")
    def friends(ctx: WebContext):
        userid = app.userid_of(ctx.user)
        add = ctx.param("add")
        if add is not None:
            friendid, friend_principal = app.accounts[add]
            ctx.db.execute(
                "INSERT INTO Friends (userid, friendid) VALUES (?, ?)",
                (userid, friendid))
            drives_tag = app.authority.tags.lookup(drives_tag_name(userid))
            # Delegation requires an empty label; the handler has not
            # contaminated itself, so this succeeds.
            ctx.process.delegate(drives_tag.id, friend_principal)
        mine = [r[0] for r in ctx.db.query(
            "SELECT friendid FROM Friends WHERE userid = ? ORDER BY friendid",
            (userid,))]
        listing_me = [r[0] for r in ctx.db.query(
            "SELECT userid FROM Friends WHERE friendid = ? ORDER BY userid",
            (userid,))]
        return {"friends": mine, "friend_of": listing_me}

    # -- edit_account.php (0.01) -----------------------------------------
    @web.route("/edit_account.php")
    def edit_account(ctx: WebContext):
        userid = app.userid_of(ctx.user)
        fullname = ctx.param("fullname")
        email = ctx.param("email")
        if fullname is not None:
            ctx.db.execute("UPDATE Users SET fullname = ? WHERE userid = ?",
                           (fullname, userid))
        if email is not None:
            ctx.db.execute("UPDATE Users SET email = ? WHERE userid = ?",
                           (email, userid))
        row = ctx.db.execute(
            "SELECT username, fullname, email FROM Users WHERE userid = ?",
            (userid,)).first()
        return {"account": None if row is None else row.as_dict()}

    return web


def _install_traffic_stats(app: CarTelApp) -> None:
    """The drives_top aggregation as a stored authority closure.

    The closure's principal is delegated ``all_drives``: it may read
    everyone's drives and declassify the *summary*, the exact pattern of
    section 3.2's "computing the average speed of all CarTel users".
    """
    authority = app.authority
    stats_principal = authority.create_principal("closure:traffic-stats")
    authority.delegate(app.all_drives.id, app.cartel.id, stats_principal.id)
    all_drives_id = app.all_drives.id

    def traffic_stats(session):
        session.acting.add_secrecy(all_drives_id)
        rows = session.query(
            "SELECT c.userid, COUNT(*), AVG(d.distance), SUM(d.npoints) "
            "FROM Drives d JOIN Cars c ON c.carid = d.carid "
            "GROUP BY c.userid")
        # Summarize across users: the released result is an aggregate.
        total_drives = sum(r[1] for r in rows)
        avg_km = (sum((r[2] or 0.0) * r[1] for r in rows) / total_drives
                  if total_drives else 0.0)
        session.acting.declassify(all_drives_id)
        return {"drivers": len(rows), "drives": total_drives,
                "avg_km": round(avg_km, 3)}

    app.db.create_procedure("traffic_stats", traffic_stats,
                            closure_principal=stats_principal.id)
