"""repro.fleet: a nova-style scheduler service over the migration sim.

The fleet layer closes the loop the single-migration stack leaves
open: *where VMs come from*. A seeded demand generator produces tenant
churn (:mod:`~repro.fleet.demand`); a host-manager view snapshots the
cluster as host columns sharing the planner's reservation ledger
(:mod:`~repro.fleet.hostview`); a composable filter/weigher pipeline
picks boot destinations (:mod:`~repro.fleet.pipeline`); the scheduler
service owns boots, retries, departures, decommission-drain, and crash
reactions (:mod:`~repro.fleet.service`); and a rebalancer sheds
overload with greedy moves or destination swaps
(:mod:`~repro.fleet.swap`).
"""

from repro.fleet.demand import DemandConfig, DemandGenerator, VmSpec
from repro.fleet.hostview import FleetHostView, HostState, HostTable
from repro.fleet.pipeline import (
    AntiAffinityFilter, AvailabilityFilter, CongestionWeigher,
    DomainSpreadWeigher, Filter, HeadroomFilter, HeadroomWeigher,
    HealthFilter, PlacementDecision, PlacementPipeline,
    RackSpreadWeigher, WatermarkFilter, Weigher,
)
from repro.fleet.service import FleetScheduler, FleetServiceConfig
from repro.fleet.swap import RebalanceConfig, SwapRebalancer

__all__ = [
    "AntiAffinityFilter", "AvailabilityFilter", "CongestionWeigher",
    "DemandConfig", "DemandGenerator", "DomainSpreadWeigher", "Filter",
    "FleetHostView",
    "FleetScheduler", "FleetServiceConfig", "HeadroomFilter",
    "HeadroomWeigher", "HealthFilter", "HostState", "HostTable",
    "PlacementDecision",
    "PlacementPipeline", "RackSpreadWeigher", "RebalanceConfig",
    "SwapRebalancer", "VmSpec", "WatermarkFilter", "Weigher",
]
