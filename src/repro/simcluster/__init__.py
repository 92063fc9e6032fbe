"""Discrete-event cluster simulator: the MPI/Platinum-cluster stand-in."""

from .engine import EventQueue
from .workload import (
    Workload,
    cyclic10_workload,
    rps_workload,
    uniform_workload,
    workload_from_results,
)
from .cluster import (
    ClusterSpec,
    SimResult,
    simulate_dynamic,
    simulate_static,
    speedup_table,
)
from .pieri_sim import PieriSimResult, default_level_cost, simulate_pieri_tree
from .fleet_sim import (
    FleetSimResult,
    fleet_job_record,
    resume_fleet,
    simulate_fleet,
)

__all__ = [
    "EventQueue",
    "Workload",
    "cyclic10_workload",
    "rps_workload",
    "uniform_workload",
    "workload_from_results",
    "ClusterSpec",
    "SimResult",
    "simulate_dynamic",
    "simulate_static",
    "speedup_table",
    "PieriSimResult",
    "default_level_cost",
    "simulate_pieri_tree",
    "FleetSimResult",
    "fleet_job_record",
    "resume_fleet",
    "simulate_fleet",
]
