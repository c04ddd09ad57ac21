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

:meth:`TransitionFaultSimulator.simulate_pairs
<repro.faults.transition_sim.TransitionFaultSimulator.simulate_pairs>`, the
tests' pair oracle, stays on the simulator: the benchmark tracer wraps it
there.
"""

from .implication import FaultedEvaluator
from .podem import generate_reference
from .reference import ReferenceFaultSimulator, ReferencePackedSimulator
from .sequential import SequentialSimulator
from .topup import run_topup_reference
from .transition import derive_capture_patterns, simulate_with_derived_capture

__all__ = [
    "FaultedEvaluator",
    "generate_reference",
    "ReferenceFaultSimulator",
    "ReferencePackedSimulator",
    "SequentialSimulator",
    "run_topup_reference",
    "derive_capture_patterns",
    "simulate_with_derived_capture",
]
