"""The CarTel web benchmark request mix (Figure 3, login excluded)."""

from __future__ import annotations

import random
from typing import Tuple

#: Figure 3 — distribution of HTTP requests (excluding login).
REQUEST_MIX: Tuple[Tuple[str, float], ...] = (
    ("/get_cars.php", 0.50),
    ("/cars.php", 0.30),
    ("/drives.php", 0.08),
    ("/drives_top.php", 0.08),
    ("/friends.php", 0.03),
    ("/edit_account.php", 0.01),
)


def sample_request(rng: random.Random) -> str:
    """Draw one request path from the Figure 3 distribution."""
    roll = rng.random()
    acc = 0.0
    for path, weight in REQUEST_MIX:
        acc += weight
        if roll < acc:
            return path
    return REQUEST_MIX[-1][0]
