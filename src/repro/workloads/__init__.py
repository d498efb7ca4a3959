"""Benchmark workloads: TPC-C (Figure 6) and the CarTel request mix
(Figure 3)."""

from .cartel_mix import REQUEST_MIX, sample_request
from .tpcc import MIX, TPCCConfig, TPCCStats, TPCCWorkload, customer_last_name

__all__ = [
    "MIX",
    "REQUEST_MIX",
    "TPCCConfig",
    "TPCCStats",
    "TPCCWorkload",
    "customer_last_name",
    "sample_request",
]
