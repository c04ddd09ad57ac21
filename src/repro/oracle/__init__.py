"""Oracles: the slow, obvious models the production engines are tested against.

Nothing outside this package imports it (``tests/test_oracle_boundary.py``
walks the imports of ``src/repro`` to keep it that way); tests and
benchmarks call it directly.  Each oracle checks one production path:

* :class:`~repro.oracle.reference.ReferencePackedSimulator` /
  :class:`~repro.oracle.reference.ReferenceFaultSimulator` -- the pre-kernel
  name-keyed dict simulators.  The compiled kernel's good values and the
  PPSFP fault scans (python and numpy backends) must equal them bit for bit
  (``tests/simulation/test_kernel_equivalence.py``,
  ``tests/faults/test_fault_ids_differential.py``; the "before" engine of
  ``benchmarks/bench_fault_sim.py``).
* :class:`~repro.oracle.sequential.SequentialSimulator` -- a scalar,
  cycle-accurate model with per-domain clock pulses and scan shifting.  It
  checks the STUMPS session, the derived capture cycle and the packed
  transition path against explicit clocking
  (``tests/simulation/test_sequential.py``,
  ``tests/faults/test_transition_sim.py``,
  ``tests/bist/test_stumps_controller.py``,
  ``tests/integration/test_end_to_end.py``).
* :class:`~repro.oracle.implication.FaultedEvaluator` -- the name-keyed
  five-valued implication engine that re-implies the whole netlist per
  decision.  :class:`~repro.atpg.compiled.CompiledFaultedEvaluator`'s
  incremental values, D-frontier and X-path answers must equal it
  (``tests/atpg/test_compiled_podem.py``, ``tests/atpg/test_podem.py``).
* :func:`~repro.oracle.podem.generate_reference` -- the name-keyed PODEM
  search.  :meth:`PodemAtpg.generate <repro.atpg.podem.PodemAtpg.generate>`
  must return the same cube, outcome, backtracks and decisions per fault
  (``tests/atpg/test_compiled_podem.py``, ``benchmarks/bench_topup.py``).
* :func:`~repro.oracle.topup.run_topup_reference` -- the
  one-pattern-at-a-time top-up walk.  :class:`~repro.atpg.topup.TopUpAtpg`'s
  block-batched screening must give the same result and fault dispositions
  at any block width (``tests/atpg/test_topup_batched.py``,
  ``benchmarks/bench_topup.py``).
* :func:`~repro.oracle.transition.derive_capture_patterns` /
  :func:`~repro.oracle.transition.simulate_with_derived_capture` -- the
  per-pattern launch-on-capture path.  The packed pair blocks, the transition
  shard stages and the numpy transition scan must agree with it
  (``tests/faults/test_transition_sim.py``,
  ``tests/faults/test_packed_transition_prep.py``,
  ``tests/campaign/test_campaign_equivalence.py``,
  ``tests/simulation/test_numpy_backend.py``,
  ``benchmarks/bench_backends.py``, ``bench_ablation_capture.py``).

* :mod:`repro.oracle.patterns` -- the per-pattern session paths.
  Production holds a session only as packed blocks; these take and return
  one dict per pattern:

  - :func:`~repro.oracle.patterns.generate_load` /
    :func:`~repro.oracle.patterns.generate_pattern` /
    :func:`~repro.oracle.patterns.generate_patterns` step the PRPG once per
    shift cycle.  The bit-sliced ``generate_packed_load`` /
    ``generate_packed_blocks`` must equal them pattern for pattern and leave
    the PRPGs in the same state (``tests/bist/test_lfsr_properties.py``,
    ``tests/bist/test_numpy_streaming.py``; the "stepping" side of
    ``benchmarks/bench_backends.py``).
  - :func:`~repro.oracle.patterns.compact_domain_response` /
    :func:`~repro.oracle.patterns.compact_response` /
    :func:`~repro.oracle.patterns.fold_response_patterns` clock the MISR
    once per unload slice.  The packed
    :meth:`StumpsDomain.fold_responses
    <repro.bist.stumps.StumpsDomain.fold_responses>` and the campaign's
    signature stage must sign the same (``tests/bist/test_misr_fold.py``,
    ``tests/campaign/test_campaign_equivalence.py``); the sequential
    session checks use them too (``tests/bist/test_stumps_controller.py``,
    ``tests/integration/test_end_to_end.py``).
  - :func:`~repro.oracle.patterns.prpg_step`,
    :func:`~repro.oracle.patterns.phase_shifter_outputs`,
    :func:`~repro.oracle.patterns.expander_outputs` and
    :func:`~repro.oracle.patterns.compactor_outputs` are one cycle of each
    block those walks step (``tests/bist/test_lfsr_misr.py``).
  - :func:`~repro.oracle.patterns.block_pattern` /
    :func:`~repro.oracle.patterns.block_patterns` unpack a block
    (``tests/simulation/test_comb_sim.py`` checks they invert packing).
  - :func:`~repro.oracle.patterns.simulate_patterns` packs a pattern list
    and scans it with ``FaultSimulator.simulate_blocks``: the tests' and
    benchmarks' pattern-list driver, and the top-up walk's screen above.

:meth:`TransitionFaultSimulator.simulate_pairs
<repro.faults.transition_sim.TransitionFaultSimulator.simulate_pairs>`, the
tests' pair oracle, stays on the simulator: the benchmark tracer wraps it
there.
"""

from .implication import FaultedEvaluator
from .patterns import (
    block_pattern,
    block_patterns,
    compact_domain_response,
    compact_response,
    compactor_outputs,
    expander_outputs,
    fold_response_patterns,
    generate_load,
    generate_pattern,
    generate_patterns,
    phase_shifter_outputs,
    prpg_step,
    simulate_patterns,
)
from .podem import generate_reference
from .reference import ReferenceFaultSimulator, ReferencePackedSimulator
from .sequential import SequentialSimulator
from .topup import run_topup_reference
from .transition import derive_capture_patterns, simulate_with_derived_capture

__all__ = [
    "FaultedEvaluator",
    "block_pattern",
    "block_patterns",
    "compact_domain_response",
    "compact_response",
    "compactor_outputs",
    "expander_outputs",
    "fold_response_patterns",
    "generate_load",
    "generate_pattern",
    "generate_patterns",
    "phase_shifter_outputs",
    "prpg_step",
    "simulate_patterns",
    "generate_reference",
    "ReferenceFaultSimulator",
    "ReferencePackedSimulator",
    "SequentialSimulator",
    "run_topup_reference",
    "derive_capture_patterns",
    "simulate_with_derived_capture",
]
