"""Testability analysis (S5): SCOAP measures.

Public API: :func:`~repro.testability.scoap.compute_scoap` and
:func:`~repro.testability.scoap.hardest_to_observe`.  They rank the
candidates of the observability-calculation TPI baseline
(:class:`~repro.tpi.observability_tpi.ObservabilityGuidedTpi`).
"""

from .scoap import INFINITE, ScoapMeasures, compute_scoap, hardest_to_observe

__all__ = [
    "INFINITE",
    "ScoapMeasures",
    "compute_scoap",
    "hardest_to_observe",
]
