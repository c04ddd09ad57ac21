"""Deterministic test generation (S4).

Public API:

* :class:`~repro.atpg.podem.PodemAtpg` -- PODEM ATPG over the full-scan view,
* :class:`~repro.atpg.podem.TestCube` / :class:`~repro.atpg.podem.AtpgResult`,
* :class:`~repro.atpg.topup.TopUpAtpg` -- the top-up pattern campaign used by
  the logic BIST flow (Table 1's "# of Top-Up Patterns" / "Fault Coverage 2"),
  with block-batched candidate screening on the compiled engine,
* static cube merging in :mod:`repro.atpg.compaction`,
* the five-valued D-calculus values in :mod:`repro.atpg.dcalc` and the
  kernel-indexed event-driven implication engine in
  :mod:`repro.atpg.compiled`.

The name-keyed PODEM search, its implication engine and the
one-pattern-at-a-time top-up walk these replaced are oracles in
:mod:`repro.oracle`.
"""

from .dcalc import D, D_BAR, ONE, X, ZERO, Value5, from_symbol, value5
from .compiled import CompiledFaultedEvaluator, atpg_adjacency
from .podem import AtpgOutcome, AtpgResult, PodemAtpg, TestCube
from .compaction import merge_compatible_cubes
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
    "CompiledFaultedEvaluator",
    "atpg_adjacency",
    "AtpgOutcome",
    "AtpgResult",
    "PodemAtpg",
    "TestCube",
    "merge_compatible_cubes",
    "TOPUP_PATTERN_BASE",
    "TopUpAtpg",
    "TopUpResult",
]
