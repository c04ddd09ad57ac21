"""Per-pattern launch-on-capture helpers: the list-of-dicts transition path.

The flow and the campaign derive capture blocks in packed form
(:func:`repro.faults.transition_sim.derive_pair_blocks`).  These helpers
take and return one stimulus dict per pattern instead, so a test can build
launch/capture pairs by hand, compare them with a cycle-accurate
:class:`~repro.oracle.sequential.SequentialSimulator` run, and feed them to
:meth:`TransitionFaultSimulator.simulate_pairs
<repro.faults.transition_sim.TransitionFaultSimulator.simulate_pairs>`.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..faults.fault_list import FaultList
from ..faults.fault_sim import check_strict_patterns
from ..faults.transition_sim import (
    TransitionFaultSimulator,
    TransitionSimulationResult,
    capture_group_updates,
    derive_capture_block,
)
from ..netlist.circuit import Circuit
from ..simulation.kernel import shared_kernel
from ..simulation.packed import DEFAULT_BLOCK_SIZE, iter_blocks
from .patterns import block_patterns


def derive_capture_patterns(
    circuit: Circuit,
    launch_patterns: Sequence[Mapping[str, int]],
    pulse_order: Optional[Sequence[Sequence[str]]] = None,
    hold_cells: Optional[Sequence[str]] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> list[dict[str, int]]:
    """Compute the capture-cycle stimulus for each launch pattern.

    Packs the launch list, runs
    :func:`~repro.faults.transition_sim.derive_capture_block` per block and
    unpacks the result.

    Parameters
    ----------
    circuit:
        The (BIST-ready) netlist.
    launch_patterns:
        Per-pattern stimulus: primary inputs and flop outputs (the scan-loaded
        state), exactly what the shift window establishes.
    pulse_order, hold_cells:
        As for :func:`~repro.faults.transition_sim.capture_group_updates`.

    Returns
    -------
    list
        One stimulus dict per launch pattern describing the circuit state
        after the launch pulse(s): same primary inputs, flop outputs replaced
        by the captured values, applied domain group by domain group so that a
        later group sees the already-updated state of an earlier group (this
        is where cross-domain logic differs from the simultaneous case).
    """
    kernel = shared_kernel(circuit)
    group_updates = capture_group_updates(kernel, pulse_order, hold_cells)
    results: list[dict[str, int]] = []
    for block in iter_blocks(
        launch_patterns, block_size=block_size, nets=kernel.stimulus_names
    ):
        results.extend(block_patterns(derive_capture_block(kernel, block, group_updates)))
    return results


def simulate_with_derived_capture(
    simulator: TransitionFaultSimulator,
    fault_list: FaultList,
    launch_patterns: Sequence[Mapping[str, int]],
    pulse_order: Optional[Sequence[Sequence[str]]] = None,
    hold_cells: Optional[Sequence[str]] = None,
    strict: bool = False,
    **kwargs: object,
) -> TransitionSimulationResult:
    """Derive the capture patterns from the launch patterns, then simulate.

    ``strict`` is checked *before* deriving the capture patterns: a
    misspelled or missing launch net would otherwise flow through
    :func:`derive_capture_patterns` as a silent 0 and corrupt every
    derived capture state.  Derived capture patterns are complete over
    the stimulus nets by construction, so one validation pass over the
    launch list suffices.  ``kwargs`` go to ``simulator.simulate_pairs``.
    """
    if strict:
        check_strict_patterns(
            simulator.circuit, launch_patterns, require_complete=True,
            label="launch pattern",
        )
    capture_patterns = derive_capture_patterns(
        simulator.circuit, launch_patterns, pulse_order, hold_cells
    )
    return simulator.simulate_pairs(
        fault_list, launch_patterns, capture_patterns, **kwargs
    )
