"""Section 8.2.2: sensor data processing throughput.

Replays GPS measurements as fast as possible (200 inserts per
transaction, two derived-state triggers per insert).  Paper: PostgreSQL
2479 vs IFDB 2439 measurements/s — a 1.6% penalty for labelling data
and storing labels.  Expected shape: a single-digit-percent penalty.
"""

from repro.bench import ReportTable, measure_ingest_pair, relative

from .common import SMOKE, report, smoke

PAPER_BASE = 2479.0
PAPER_IFDB = 2439.0
N_MEASUREMENTS = smoke(3000, 300)


def test_sensor_ingest_throughput():
    base, ifdb = measure_ingest_pair(measurements=N_MEASUREMENTS)

    table = ReportTable(
        "Section 8.2.2 — sensor ingest throughput (measurements/s)",
        ["system", "paper", "measured", "delta vs base"])
    table.add("PostgreSQL / baseline", "%.0f" % PAPER_BASE,
              "%.0f" % base, "")
    table.add("IFDB", "%.0f" % PAPER_IFDB, "%.0f" % ifdb,
              relative(ifdb, base))
    table.add("paper overhead", "-1.6%", "", "")
    report(table)

    # Shape: IFDB within 15% of baseline (paper: 1.6%).  Smoke mode
    # runs a few hundred inserts — pure noise, so no shape claims.
    if not SMOKE:
        assert ifdb < base * 1.02        # labels are never free
        assert ifdb > base * 0.85
