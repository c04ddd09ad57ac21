"""BIST components (S8): PRPG, phase shifter, MISR, STUMPS, input selector.

Public API:

* :class:`~repro.bist.lfsr.FibonacciLfsr` / :class:`~repro.bist.lfsr.Prpg`,
* :class:`~repro.bist.phase_shifter.PhaseShifter`,
* :class:`~repro.bist.space.SpaceExpander` / :class:`~repro.bist.space.SpaceCompactor`,
* :class:`~repro.bist.misr.Misr` and the signature helpers,
* :class:`~repro.bist.stumps.StumpsArchitecture` / :class:`~repro.bist.stumps.StumpsDomain`,
* :class:`~repro.bist.input_selector.InputSelector`,
* the primitive-polynomial table in :mod:`repro.bist.polynomials`.

The BIST controller and the Boundary-Scan TAP are not modelled: the flow
charges them a fixed area estimate.  The scalar sequential simulator that
checks a STUMPS session cycle by cycle is an oracle in
:mod:`repro.oracle.sequential`.
"""

from .polynomials import (
    PRIMITIVE_POLYNOMIALS,
    is_primitive,
    polynomial_degree,
    polynomial_str,
    polynomial_taps,
    polynomial_to_mask,
    primitive_polynomial,
)
from .lfsr import FibonacciLfsr, Prpg
from .phase_shifter import PhaseShifter, identity_phase_shifter
from .space import SpaceCompactor, SpaceExpander, identity_compactor
from .misr import (
    Misr,
    estimate_aliasing_rate,
    golden_signature,
    signatures_differ,
)
from .stumps import StumpsArchitecture, StumpsDomain, StumpsDomainConfig
from .input_selector import InputSelector, InputSource

__all__ = [
    "PRIMITIVE_POLYNOMIALS",
    "is_primitive",
    "polynomial_degree",
    "polynomial_str",
    "polynomial_taps",
    "polynomial_to_mask",
    "primitive_polynomial",
    "FibonacciLfsr",
    "Prpg",
    "PhaseShifter",
    "identity_phase_shifter",
    "SpaceCompactor",
    "SpaceExpander",
    "identity_compactor",
    "Misr",
    "estimate_aliasing_rate",
    "golden_signature",
    "signatures_differ",
    "StumpsArchitecture",
    "StumpsDomain",
    "StumpsDomainConfig",
    "InputSelector",
    "InputSource",
]
