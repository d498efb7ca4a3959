"""Benchmark harness: stack builders, timing meters, report tables."""

from .harness import (
    CarTelStack,
    Measurement,
    ReportTable,
    build_cartel_stack,
    db_time_meter,
    measure_ingest_pair,
    measure_request_latency,
    measure_service_demands,
    percentile,
    relative,
)

__all__ = [
    "CarTelStack",
    "Measurement",
    "ReportTable",
    "build_cartel_stack",
    "db_time_meter",
    "measure_ingest_pair",
    "measure_request_latency",
    "measure_service_demands",
    "percentile",
    "relative",
]
