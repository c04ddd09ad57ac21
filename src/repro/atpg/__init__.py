"""Deterministic test generation (S4).

Public API:

* :class:`~repro.atpg.podem.PodemAtpg` -- PODEM ATPG over the full-scan view,
* :class:`~repro.atpg.podem.TestCube` / :class:`~repro.atpg.podem.AtpgResult`,
* :class:`~repro.atpg.topup.TopUpAtpg` -- the top-up pattern campaign used by
  the logic BIST flow (Table 1's "# of Top-Up Patterns" / "Fault Coverage 2"),
  with block-batched candidate screening on the compiled engine,
* the static compaction helpers in :mod:`repro.atpg.compaction`,
* the five-valued D-calculus values in :mod:`repro.atpg.dcalc`, the
  name-keyed reference implication engine in :mod:`repro.atpg.implication`
  and its kernel-indexed event-driven counterpart (the default) in
  :mod:`repro.atpg.compiled`.
"""

from .dcalc import D, D_BAR, ONE, X, ZERO, Value5, from_symbol, value5
from .implication import FaultedEvaluator
from .compiled import CompiledFaultedEvaluator, atpg_adjacency, scoap_guidance
from .podem import (
    BACKTRACE_FIRST_X,
    BACKTRACE_SCOAP,
    COMPILED_ENGINE,
    REFERENCE_ENGINE,
    AtpgOutcome,
    AtpgResult,
    PodemAtpg,
    TestCube,
)
from .compaction import merge_compatible_cubes, reverse_order_compaction
from .topup import TOPUP_PATTERN_BASE, TopUpAtpg, TopUpResult

__all__ = [
    "Value5",
    "ZERO",
    "ONE",
    "X",
    "D",
    "D_BAR",
    "from_symbol",
    "value5",
    "FaultedEvaluator",
    "CompiledFaultedEvaluator",
    "atpg_adjacency",
    "scoap_guidance",
    "AtpgOutcome",
    "AtpgResult",
    "PodemAtpg",
    "TestCube",
    "COMPILED_ENGINE",
    "REFERENCE_ENGINE",
    "BACKTRACE_FIRST_X",
    "BACKTRACE_SCOAP",
    "merge_compatible_cubes",
    "reverse_order_compaction",
    "TOPUP_PATTERN_BASE",
    "TopUpAtpg",
    "TopUpResult",
]
