"""Synthetic GPS trace generation.

The paper replayed 18 GB of real measurements (177 million points over
27 months).  We have no such corpus, so this module generates seeded
random-walk drives per car: a drive starts at a point near the car's
home, moves with plausible speeds for a bounded number of samples, then
parks for a while.  The benchmark code paths (per-measurement labelling,
trigger firing, drive segmentation) are identical regardless of trace
realism, which is what the substitution must preserve (DESIGN.md).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence

#: Sampling interval between GPS points, seconds.
SAMPLE_INTERVAL = 20.0
#: Gap (seconds) that splits two measurements into separate drives.
DRIVE_GAP = 300.0
#: Timestamp around which every car's first drive starts.
START_TS = 1_000_000.0


@dataclass(frozen=True)
class Measurement:
    """One GPS sample from a car's transponder."""

    carid: int
    lat: float
    lon: float
    speed: float
    ts: float


def euclid_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Small-area flat-earth distance (adequate for city-scale drives)."""
    dlat = (lat2 - lat1) * 111.0
    dlon = (lon2 - lon1) * 111.0 * math.cos(math.radians(lat1))
    return math.hypot(dlat, dlon)


class TraceGenerator:
    """Seeded generator of interleaved measurements for many cars."""

    def __init__(self, car_ids: Sequence[int], seed: int = 1234):
        self.car_ids = list(car_ids)
        self.rng = random.Random(seed)
        # Per-car state: home position and clock.
        self._state = {}
        for carid in self.car_ids:
            self._state[carid] = {
                "lat": 42.36 + self.rng.uniform(-0.1, 0.1),
                "lon": -71.06 + self.rng.uniform(-0.1, 0.1),
                "ts": START_TS + self.rng.uniform(0, 60.0),
            }

    def drive(self, carid: int, n_points: int) -> List[Measurement]:
        """One drive for one car: ``n_points`` consecutive samples."""
        state = self._state[carid]
        rng = self.rng
        heading = rng.uniform(0, 2 * math.pi)
        points: List[Measurement] = []
        for _ in range(n_points):
            speed = max(0.0, rng.gauss(40.0, 15.0))      # km/h
            step_km = speed * SAMPLE_INTERVAL / 3600.0
            heading += rng.gauss(0.0, 0.3)
            state["lat"] += (step_km / 111.0) * math.cos(heading)
            state["lon"] += (step_km / 111.0) * math.sin(heading)
            state["ts"] += SAMPLE_INTERVAL
            points.append(Measurement(carid=carid, lat=state["lat"],
                                      lon=state["lon"], speed=speed,
                                      ts=state["ts"]))
        # Park: leave a gap so the next drive segments separately.
        state["ts"] += DRIVE_GAP + rng.uniform(60.0, 3600.0)
        return points

    def measurements(self, total: int, *,
                     drive_points: int = 12) -> Iterator[Measurement]:
        """Yield ``total`` measurements, round-robin across cars in
        drive-sized bursts (mimicking replayed real traffic)."""
        produced = 0
        while produced < total:
            for carid in self.car_ids:
                if produced >= total:
                    return
                n_points = min(drive_points, total - produced)
                for point in self.drive(carid, n_points):
                    yield point
                    produced += 1
                    if produced >= total:
                        return
