"""A minimal IFC-aware web framework.

Models the Apache + PHP-IF tier of Figure 1.  Each request runs in a
fresh :class:`AppProcess` whose principal is the authenticated user (or
a fresh no-authority principal for unauthenticated requests — the IFDB
behaviour that defanged CarTel's twelve unauthenticated scripts,
section 6.1).  The handler's return value passes through the release
gate: a contaminated process produces **no output**, exactly like the
coerced-URL attack of section 6.1 ("it would produce no output
regardless of what it read").
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..core.labels import EMPTY_LABEL
from ..errors import AuthenticationError, IFCError, ReleaseError
from .runtime import AppProcess, IFRuntime


@dataclass
class Request:
    path: str
    params: Dict[str, object] = field(default_factory=dict)
    session_token: Optional[str] = None


@dataclass
class Response:
    status: int
    body: object = None

    @property
    def ok(self) -> bool:
        return self.status == 200


class WebContext:
    """Everything a request handler gets: the process, a DB connection,
    and the request."""

    def __init__(self, process: AppProcess, connection, request: Request,
                 user: Optional[str]):
        self.process = process
        self.db = connection
        self.request = request
        self.user = user          # authenticated username, or None

    def param(self, name: str, default=None):
        return self.request.params.get(name, default)


class WebApp:
    """Routes, cookie sessions, and the per-request IFC lifecycle."""

    def __init__(self, runtime: IFRuntime, db, *,
                 authenticator: Optional[Callable] = None):
        """``authenticator(username, password)`` returns a principal id on
        success and None on failure.  It is part of the trusted base
        (Figure 1): it decides whose authority a request wields."""
        self.runtime = runtime
        self.database = db
        self.authenticator = authenticator
        self._routes: Dict[str, Callable] = {}
        self._route_requires_auth: Dict[str, bool] = {}
        self._sessions: Dict[str, tuple] = {}    # token -> (user, principal)
        self.requests_served = 0
        self.releases_blocked = 0

    # -- registration -------------------------------------------------------
    def route(self, path: str, *, authenticate: bool = True):
        def register(handler: Callable) -> Callable:
            self._routes[path] = handler
            self._route_requires_auth[path] = authenticate
            return handler
        return register

    def add_route(self, path: str, handler: Callable, *,
                  authenticate: bool = True) -> None:
        self._routes[path] = handler
        self._route_requires_auth[path] = authenticate

    # -- authentication -----------------------------------------------------
    def login(self, username: str, password: str) -> str:
        """Authenticate and mint a session token (login.php analogue)."""
        if self.authenticator is None:
            raise AuthenticationError("no authenticator configured")
        principal = self.authenticator(username, password)
        if principal is None:
            raise AuthenticationError("bad credentials for %r" % username)
        token = secrets.token_hex(16)
        self._sessions[token] = (username, principal)
        return token

    # -- request lifecycle -----------------------------------------------
    def handle(self, request: Request) -> Response:
        """Serve one request under information flow control."""
        self.requests_served += 1
        handler = self._routes.get(request.path)
        if handler is None:
            return Response(404)

        user = None
        principal = None
        if request.session_token is not None:
            entry = self._sessions.get(request.session_token)
            if entry is not None:
                user, principal = entry
        if principal is None:
            if self._route_requires_auth.get(request.path, True):
                return Response(401)
            # Unauthenticated: a fresh principal with no authority.
            process = self.runtime.spawn_anonymous()
        else:
            process = self.runtime.spawn(principal)

        connection = process.connect(self.database)
        ctx = WebContext(process, connection, request, user)
        try:
            body = handler(ctx)
        except IFCError:
            # The handler tripped over the flow rules (e.g. it tried to
            # declassify a tag it has no authority for).  Per the paper,
            # the script "would produce no output regardless of what it
            # read" — an empty, non-committal response.
            self.releases_blocked += 1
            return Response(403, None)
        finally:
            connection.close()

        # The release gate: the response goes to the outside world
        # (empty label).  A contaminated handler produces no output.
        try:
            process.send(body, EMPTY_LABEL)
        except ReleaseError:
            self.releases_blocked += 1
            return Response(403, None)
        return Response(200, body)
