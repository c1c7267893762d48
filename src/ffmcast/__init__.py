"""Fault-tolerant multicast trees compiled to an emulated switch dataplane."""

from .errors import (
    BudgetExceeded,
    DataplaneError,
    InvalidPathError,
    TagSpaceExhausted,
    TopologyError,
)
from .topology import Link, Network, bfs_distances, complete_graph, geant, load_topology, shortest_path
from .trees import MulticastTree, apply_path, dst_join, join, spt_join
from .dataplane import MAX_TAG, FlowInstaller, SwitchFabric
from .protection import GroupState, ProtectionConfig, protect_join, protect_leave
from .failsim import (
    DeliveryReport,
    RecoveryModel,
    ToleranceReport,
    depth_hopcounts,
    expected_deliverable,
    simulate_delivery,
    simulate_recovery,
    verify_tolerance,
)
from .harness import (
    GeoreplayResult,
    Scenario,
    georeplay,
    load_scenario,
    run_scenario,
    write_deliveries_csv,
    write_metrics_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DataplaneError",
    "DeliveryReport",
    "FlowInstaller",
    "GeoreplayResult",
    "GroupState",
    "InvalidPathError",
    "Link",
    "MAX_TAG",
    "MulticastTree",
    "Network",
    "ProtectionConfig",
    "RecoveryModel",
    "Scenario",
    "SwitchFabric",
    "TagSpaceExhausted",
    "ToleranceReport",
    "TopologyError",
    "apply_path",
    "bfs_distances",
    "complete_graph",
    "depth_hopcounts",
    "dst_join",
    "expected_deliverable",
    "geant",
    "georeplay",
    "join",
    "load_scenario",
    "load_topology",
    "protect_join",
    "protect_leave",
    "run_scenario",
    "shortest_path",
    "simulate_delivery",
    "simulate_recovery",
    "spt_join",
    "verify_tolerance",
    "write_deliveries_csv",
    "write_metrics_csv",
]
