"""Test point insertion (S6).

Public API:

* :class:`~repro.tpi.observation_points.FaultSimGuidedObservationTpi` -- the
  paper's fault-simulation-guided observation-point selector,
* :func:`~repro.tpi.observation_points.apply_observation_points` /
  :func:`~repro.tpi.observation_points.observation_point_flops`,
* :class:`~repro.tpi.observability_tpi.ObservabilityGuidedTpi` -- the
  SCOAP observability baseline selector (ablation A1).

The paper inserts observation points only, so no control-point inserter is
provided.  The fault simulators TPI profiles with are checked against the
name-keyed oracle simulators of :mod:`repro.oracle.reference`.
"""

from .observation_points import (
    FaultSimGuidedObservationTpi,
    ObservationPointPlan,
    apply_observation_points,
    observation_point_flops,
)
from .observability_tpi import ObservabilityGuidedTpi

__all__ = [
    "FaultSimGuidedObservationTpi",
    "ObservationPointPlan",
    "apply_observation_points",
    "observation_point_flops",
    "ObservabilityGuidedTpi",
]
