"""Fault models and fault simulation (S3).

Public API:

* :class:`~repro.faults.models.StuckAtFault` / :class:`~repro.faults.models.TransitionFault`,
* :class:`~repro.faults.fault_list.StuckAtTable` -- the canonical stuck-at
  fault table of a compiled kernel (:func:`~repro.faults.fault_list.stuck_at_table`),
* :class:`~repro.faults.fault_list.FaultList` and the fault enumeration helpers,
* :func:`~repro.faults.collapse.collapse_stuck_at` -- structural equivalence collapsing,
* :class:`~repro.faults.fault_sim.FaultSimulator` -- PPSFP stuck-at simulation
  with fault dropping and fault-effect profiling,
* :class:`~repro.faults.transition_sim.TransitionFaultSimulator` -- launch-on-capture
  transition fault simulation for the double-capture scheme,
* the statistics helpers in :mod:`repro.faults.statistics`.

Both simulators run on the compiled integer-indexed kernel
(:mod:`repro.simulation.kernel`): nets are interned to dense IDs at
construction, good values live in flat ``list[int]`` tables, fanout cones are
pre-compiled into per-site ID schedules, and pattern blocks of any width
(64 / 256 / 1024 patterns per word) stream through
:meth:`~repro.faults.fault_sim.FaultSimulator.simulate_blocks` without
per-pattern dicts.  Faults are integers too: a stuck-at fault is its row in
the kernel's stuck-at table (a transition fault is the row of its equivalent
stuck-at fault), which collapsing, both simulators' scans, the
numpy scan compile, shard merges and TPI's coverage sets all index; fault
lists keep statuses in arrays by position.  Fault objects and the name-keyed
entry points remain as thin adapters at the API edge.
"""

from .models import OUTPUT_PIN, Fault, FaultStatus, StuckAtFault, TransitionFault
from .fault_list import (
    FaultList,
    FaultRecord,
    StuckAtTable,
    enumerate_stuck_at_faults,
    enumerate_transition_faults,
    stuck_at_table,
)
from .collapse import CollapsedFaults, collapse_stuck_at
from .fault_sim import (
    FaultSimShardState,
    FaultSimulationResult,
    FaultSimulator,
)
from .transition_sim import TransitionFaultSimulator, TransitionSimulationResult
from .statistics import (
    coverage_plateau_slope,
    detection_summary,
    patterns_to_reach,
)

__all__ = [
    "OUTPUT_PIN",
    "Fault",
    "FaultStatus",
    "StuckAtFault",
    "TransitionFault",
    "FaultList",
    "FaultRecord",
    "StuckAtTable",
    "stuck_at_table",
    "enumerate_stuck_at_faults",
    "enumerate_transition_faults",
    "CollapsedFaults",
    "collapse_stuck_at",
    "FaultSimShardState",
    "FaultSimulationResult",
    "FaultSimulator",
    "TransitionFaultSimulator",
    "TransitionSimulationResult",
    "coverage_plateau_slope",
    "detection_summary",
    "patterns_to_reach",
]
