"""The one-pattern-at-a-time top-up walk: the oracle of :class:`~repro.atpg.topup.TopUpAtpg`.

The walk targets the undetected faults in :meth:`TopUpAtpg.plan_targets
<repro.atpg.topup.TopUpAtpg.plan_targets>` order with the name-keyed PODEM
search (:func:`repro.oracle.podem.generate_reference`), random-fills each cube
from ``random.Random(seed)`` and screens every new pattern with its own
width-1 fault-simulation scan.  The cubes are then merged, filled afresh and
applied to the fault list, and the screened faults those patterns miss are
targeted again the same way.  A fresh :class:`TopUpAtpg` with the same
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
from .patterns import simulate_patterns
from .podem import generate_reference


def run_topup_reference(
    circuit: Circuit,
    fault_list: FaultList,
    observe_nets: Optional[Sequence[str]] = None,
    backtrack_limit: int = 200,
    seed: int = 2005,
    max_faults: Optional[int] = None,
) -> TopUpResult:
    """The oracle of :meth:`TopUpAtpg.run
    <repro.atpg.topup.TopUpAtpg.run>`."""
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
    screened: list[StuckAtFault] = []
    untestable: list[StuckAtFault] = []
    aborted: list[StuckAtFault] = []

    def attempt(fault: StuckAtFault) -> Optional[TestCube]:
        result.attempted_faults += 1
        outcome = generate_reference(circuit, fault, observe_nets, backtrack_limit)
        result.backtracks += outcome.backtracks
        if outcome.outcome is AtpgOutcome.UNTESTABLE:
            untestable.append(fault)
            result.untestable_faults += 1
            return None
        if outcome.outcome is AtpgOutcome.ABORTED:
            aborted.append(fault)
            result.aborted_faults += 1
            return None
        result.successful_faults += 1
        return outcome.cube

    for fault in targets:
        if fault not in set(scratch.undetected()):
            screened.append(fault)
            continue
        cube = attempt(fault)
        if cube is None:
            continue
        cubes.append(cube)
        filled = cube.fill_random(rng, stimulus_nets)
        simulate_patterns(scratch_sim, scratch, [filled], drop_detected=True)

    # Apply the final (compacted) pattern set to the real fault list.
    simulator = FaultSimulator(circuit, observe_nets)
    patterns = [cube.fill_random(rng, stimulus_nets) for cube in merge_compatible_cubes(cubes)]
    simulate_patterns(
        simulator, fault_list, patterns, drop_detected=True,
        pattern_offset=TOPUP_PATTERN_BASE,
    )

    # The merged cubes are filled afresh, so they can miss a screened target:
    # target those and apply their (compacted) patterns after the others.
    undetected = set(fault_list.undetected())
    missed = [fault for fault in screened if fault in undetected]
    repairs = [cube for cube in map(attempt, missed) if cube is not None]
    repair_patterns = [
        cube.fill_random(rng, stimulus_nets) for cube in merge_compatible_cubes(repairs)
    ]
    simulate_patterns(
        simulator,
        fault_list,
        repair_patterns,
        drop_detected=True,
        pattern_offset=TOPUP_PATTERN_BASE + len(patterns),
    )
    patterns += repair_patterns
    result.cubes = cubes + repairs
    for fault in untestable:
        fault_list.mark_untestable(fault)
    for fault in aborted:
        fault_list.mark_aborted(fault)
    result.patterns = patterns
    result.coverage_after = fault_list.coverage()
    return result
