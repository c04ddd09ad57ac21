"""Observability-calculation-based observation-point insertion (baseline).

This is the method the paper contrasts itself against: pick test-point
locations from static SCOAP observability *without* running fault
simulation.  It is cheaper to compute but blind to which faults the random
patterns actually miss, which is exactly what the ablation benchmark (A1)
measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..netlist.circuit import Circuit
from ..testability.scoap import hardest_to_observe
from .observation_points import ObservationPointPlan


@dataclass
class ObservabilityGuidedTpi:
    """Static-testability-driven observation-point selector.

    Attributes
    ----------
    circuit:
        The netlist.
    budget:
        Maximum number of observation points; candidates are ranked by
        highest SCOAP CO (hardest to observe,
        :func:`~repro.testability.scoap.hardest_to_observe`).
    """

    circuit: Circuit
    budget: int = 32

    def select(self, exclude: Optional[Sequence[str]] = None) -> ObservationPointPlan:
        """Choose the ``budget`` hardest-to-observe combinational nets."""
        plan = ObservationPointPlan()
        plan.nets = hardest_to_observe(self.circuit, self.budget, set(exclude or ()))
        plan.covered_faults = {}
        return plan
