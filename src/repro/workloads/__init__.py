"""Workload generators: DPI packets, TPC-H, OpenMessaging-style driver."""

from repro.workloads.packets import (PacketGenerator, PACKET_NOMINAL_BYTES,
    tenant_of)
from repro.workloads.tpch import TPCHGenerator, generate_query_workload
from repro.workloads.openmessaging import (DriverReport,
    MultiTenantOpenMessagingDriver, MultiTenantReport, OpenMessagingDriver,
    TenantLoad, TenantOutcome, zipf_rates)

__all__ = [
    "PacketGenerator",
    "PACKET_NOMINAL_BYTES",
    "tenant_of",
    "TPCHGenerator",
    "generate_query_workload",
    "OpenMessagingDriver",
    "DriverReport",
    "MultiTenantOpenMessagingDriver",
    "MultiTenantReport",
    "TenantLoad",
    "TenantOutcome",
    "zipf_rates",
]
