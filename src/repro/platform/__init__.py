"""The IFC application platform (PHP-IF / Python-IF analogue, section 7.2).

Provides :class:`IFRuntime` (spawn processes with interposed output),
:class:`AppProcess`, label-synchronized :class:`IFConnection` objects,
the platform authority cache, and a small IFC-aware web framework.
"""

from .cache import AuthorityCache
from .connection import IFConnection, ProtocolStats
from .runtime import AppProcess, IFRuntime
from .web import Request, Response, WebApp, WebContext

__all__ = [
    "AppProcess",
    "AuthorityCache",
    "IFConnection",
    "IFRuntime",
    "ProtocolStats",
    "Request",
    "Response",
    "WebApp",
    "WebContext",
]
