"""The one-pattern-at-a-time top-up walk: the oracle of :class:`~repro.atpg.topup.TopUpAtpg`.

Both walks target the undetected faults in :meth:`TopUpAtpg.plan_targets
<repro.atpg.topup.TopUpAtpg.plan_targets>` order with the name-keyed PODEM
search (:func:`repro.oracle.podem.generate_reference`), random-fill each cube
from ``random.Random(seed)`` and retire every new pattern with its own
width-1 fault-simulation scan.  A fresh :class:`TopUpAtpg` with the same
arguments must return the same :class:`~repro.atpg.topup.TopUpResult` and
leave the fault list in the same state, at any screening block width.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ..atpg.compaction import merge_compatible_cubes
from ..atpg.podem import AtpgOutcome, TestCube
from ..atpg.topup import TOPUP_PATTERN_BASE, TopUpAtpg, TopUpResult
from ..faults.fault_list import FaultList
from ..faults.fault_sim import FaultSimulator
from ..faults.models import StuckAtFault
from ..netlist.circuit import Circuit
from .podem import generate_reference


def run_topup_reference(
    circuit: Circuit,
    fault_list: FaultList,
    observe_nets: Optional[Sequence[str]] = None,
    backtrack_limit: int = 200,
    seed: int = 2005,
    max_faults: Optional[int] = None,
) -> TopUpResult:
    """The oracle of :meth:`TopUpAtpg.run <repro.atpg.topup.TopUpAtpg.run>`."""
    rng = random.Random(seed)
    simulator = FaultSimulator(circuit, observe_nets)
    targets, skipped = TopUpAtpg(circuit, max_faults=max_faults).plan_targets(fault_list)
    result = TopUpResult(
        patterns=[],
        cubes=[],
        coverage_before=fault_list.coverage(),
        skipped_targets=skipped,
    )

    stimulus_nets = circuit.stimulus_nets()
    for fault in targets:
        # The fault may have been covered by a pattern generated for an
        # earlier fault in this very loop.
        if fault not in set(fault_list.undetected()):
            continue
        result.attempted_faults += 1
        attempt = generate_reference(circuit, fault, observe_nets, backtrack_limit)
        result.backtracks += attempt.backtracks
        if attempt.outcome is AtpgOutcome.UNTESTABLE:
            fault_list.mark_untestable(fault)
            result.untestable_faults += 1
            continue
        if attempt.outcome is AtpgOutcome.ABORTED:
            fault_list.mark_aborted(fault)
            result.aborted_faults += 1
            continue
        result.successful_faults += 1
        result.cubes.append(attempt.cube)
        pattern = attempt.cube.fill_random(rng, stimulus_nets)
        pattern_index = TOPUP_PATTERN_BASE + len(result.patterns)
        simulator.simulate(
            fault_list, [pattern], drop_detected=True, pattern_offset=pattern_index
        )
        result.patterns.append(pattern)

    result.coverage_after = fault_list.coverage()
    return result


def run_topup_with_compaction_reference(
    circuit: Circuit,
    fault_list: FaultList,
    observe_nets: Optional[Sequence[str]] = None,
    backtrack_limit: int = 200,
    seed: int = 2005,
    max_faults: Optional[int] = None,
) -> TopUpResult:
    """The oracle of :meth:`TopUpAtpg.run_with_compaction
    <repro.atpg.topup.TopUpAtpg.run_with_compaction>`."""
    rng = random.Random(seed)
    targets, skipped = TopUpAtpg(circuit, max_faults=max_faults).plan_targets(fault_list)
    result = TopUpResult(
        patterns=[],
        cubes=[],
        coverage_before=fault_list.coverage(),
        skipped_targets=skipped,
    )

    # Scratch list used only to skip faults already covered by a cube
    # generated earlier in this loop.
    scratch = FaultList(targets)
    scratch_sim = FaultSimulator(circuit, observe_nets)
    stimulus_nets = circuit.stimulus_nets()
    cubes: list[TestCube] = []
    untestable: list[StuckAtFault] = []
    aborted: list[StuckAtFault] = []
    for fault in targets:
        if fault not in set(scratch.undetected()):
            continue
        result.attempted_faults += 1
        attempt = generate_reference(circuit, fault, observe_nets, backtrack_limit)
        result.backtracks += attempt.backtracks
        if attempt.outcome is AtpgOutcome.UNTESTABLE:
            untestable.append(fault)
            result.untestable_faults += 1
            continue
        if attempt.outcome is AtpgOutcome.ABORTED:
            aborted.append(fault)
            result.aborted_faults += 1
            continue
        result.successful_faults += 1
        cubes.append(attempt.cube)
        filled = attempt.cube.fill_random(rng, stimulus_nets)
        scratch_sim.simulate(scratch, [filled], drop_detected=True)

    result.cubes = cubes
    merged = merge_compatible_cubes(cubes)
    patterns = [cube.fill_random(rng, stimulus_nets) for cube in merged]

    # Apply the final (compacted) pattern set to the real fault list.
    simulator = FaultSimulator(circuit, observe_nets)
    simulator.simulate(
        fault_list, patterns, drop_detected=True, pattern_offset=TOPUP_PATTERN_BASE
    )
    for fault in untestable:
        fault_list.mark_untestable(fault)
    for fault in aborted:
        fault_list.mark_aborted(fault)
    result.patterns = patterns
    result.coverage_after = fault_list.coverage()
    return result
