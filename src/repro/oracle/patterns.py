"""Per-pattern session paths: the stepping PRPG, the per-cycle unload,
block unpacking and the dict fault simulation.

Production code holds a BIST session only as packed blocks: the bit-sliced
generator (:meth:`StumpsArchitecture.generate_packed_blocks
<repro.bist.stumps.StumpsArchitecture.generate_packed_blocks>`) loads every
scan cell's word for a whole block of patterns, and the packed fold
(:meth:`StumpsDomain.fold_responses
<repro.bist.stumps.StumpsDomain.fold_responses>`) compacts the captured
words.  These helpers take and return one dict per pattern instead, the way
the hardware of Fig. 1 runs: the PRPG steps once per shift cycle, the MISR
absorbs one scan-out slice per unload cycle, and a fault simulation packs a
pattern list first.  They are what the packed paths are checked against.
The per-cycle models of the blocks they step -- the PRPG advanced one
cycle, one cycle of the phase shifter, space expander and space compactor
XOR networks -- live here too: production only reads those blocks' taps.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..bist.lfsr import Prpg
from ..bist.phase_shifter import PhaseShifter
from ..bist.space import SpaceCompactor, SpaceExpander
from ..bist.stumps import StumpsArchitecture, StumpsDomain
from ..faults.fault_list import FaultList
from ..faults.fault_sim import FaultSimulationResult, FaultSimulator
from ..simulation.packed import DEFAULT_BLOCK_SIZE, PatternBlock, iter_blocks


def prpg_step(prpg: Prpg) -> list[int]:
    """Advance the PRPG one shift cycle and return its parallel state bits."""
    prpg.lfsr.step()
    return prpg.lfsr.state_bits()


def _xor_taps(bits: Sequence[int], output_taps: Sequence[Sequence[int]]) -> list[int]:
    """One cycle of an XOR network: output *k* is the XOR of its taps' bits."""
    outputs = []
    for taps in output_taps:
        value = 0
        for tap in taps:
            value ^= bits[tap]
        outputs.append(value)
    return outputs


def phase_shifter_outputs(shifter: PhaseShifter, state_bits: Sequence[int]) -> list[int]:
    """Channel values for one PRPG state (one per scan chain)."""
    if len(state_bits) < shifter.prpg_length:
        raise ValueError("state_bits shorter than prpg_length")
    return _xor_taps(state_bits, shifter.channel_taps)


def expander_outputs(expander: SpaceExpander, inputs: Sequence[int]) -> list[int]:
    """One cycle of space expansion: TPG channel bits -> chain input bits."""
    if len(inputs) < expander.num_inputs:
        raise ValueError("not enough input bits")
    return _xor_taps(inputs, expander.output_taps)


def compactor_outputs(compactor: SpaceCompactor, inputs: Sequence[int]) -> list[int]:
    """One cycle of space compaction: chain output bits -> MISR input bits."""
    if len(inputs) != compactor.num_inputs:
        raise ValueError(f"expected {compactor.num_inputs} bits, got {len(inputs)}")
    outputs = [0] * compactor.num_outputs
    for index, bit in enumerate(inputs):
        outputs[compactor.group_of(index)] ^= bit
    return outputs


def generate_load(
    domain: StumpsDomain, shift_cycles: Optional[int] = None
) -> dict[str, int]:
    """Emulate one shift window of ``domain``: scan-cell name -> loaded value.

    The PRPG advances once per shift cycle; the phase-shifter output for
    chain *c* at cycle *t* enters the chain's scan-in and ends up at
    position ``shift_cycles - 1 - t`` if it has not fallen off the end.
    """
    cycles = shift_cycles if shift_cycles is not None else domain.max_chain_length
    per_cycle_channels: list[list[int]] = []
    for _ in range(cycles):
        channels = phase_shifter_outputs(domain.phase_shifter, prpg_step(domain.prpg))
        if domain.expander is not None:
            channels = expander_outputs(domain.expander, channels)
        per_cycle_channels.append(channels)

    load: dict[str, int] = {}
    for chain_index, chain in enumerate(domain.chains):
        for position, cell in enumerate(chain.cells):
            source_cycle = cycles - 1 - position
            if source_cycle < 0:
                load[cell] = 0
            else:
                load[cell] = per_cycle_channels[source_cycle][chain_index]
    return load


def generate_pattern(stumps: StumpsArchitecture) -> dict[str, int]:
    """One shift window across every domain: scan-cell name -> loaded value.

    All domains shift simultaneously (they share the shift window in
    Fig. 2), each for its own chain length; the slow SE signal spans the
    longest domain, shorter domains simply idle afterwards, which does not
    change the loaded values.
    """
    load: dict[str, int] = {}
    for domain in stumps.domains.values():
        load.update(generate_load(domain))
    return load


def generate_patterns(stumps: StumpsArchitecture, count: int) -> list[dict[str, int]]:
    """Generate ``count`` consecutive scan-load patterns by stepping."""
    return [generate_pattern(stumps) for _ in range(count)]


def compact_domain_response(domain: StumpsDomain, captured: Mapping[str, int]) -> int:
    """Shift one captured response out of ``domain`` into its MISR.

    ``captured`` maps scan-cell names to their post-capture values.  Cells
    missing from the mapping contribute 0.  Each unload cycle reads one
    slice (the cell at position ``length - 1 - cycle`` of every chain, 0
    past a chain's head), folds it through the space compactor and clocks
    the MISR once.  Returns the MISR state after the unload.
    """
    for cycle in range(domain.max_chain_length):
        slice_bits: list[int] = []
        for chain in domain.chains:
            position = chain.length - 1 - cycle
            if position < 0:
                slice_bits.append(0)
            else:
                slice_bits.append(int(captured.get(chain.cells[position], 0)) & 1)
        domain.misr.compact(compactor_outputs(domain.compactor, slice_bits))
    return domain.misr.state


def compact_response(
    stumps: StumpsArchitecture, captured: Mapping[str, int]
) -> dict[str, int]:
    """Fold one captured response into every domain's MISR; returns the states."""
    return {
        name: compact_domain_response(domain, captured)
        for name, domain in stumps.domains.items()
    }


def fold_response_patterns(
    domain: StumpsDomain, responses: Sequence[Mapping[str, int]]
) -> int:
    """Unload a sequence of per-pattern responses cycle by cycle; returns the
    final MISR state (what the packed ``fold_responses`` must equal)."""
    for captured in responses:
        compact_domain_response(domain, captured)
    return domain.misr.state


def block_pattern(block: PatternBlock, pattern_index: int) -> dict[str, int]:
    """One pattern of a packed block as a net -> value dict."""
    if not 0 <= pattern_index < block.num_patterns:
        raise IndexError(f"pattern index {pattern_index} out of range")
    return {
        net: (word >> pattern_index) & 1 for net, word in block.assignments.items()
    }


def block_patterns(block: PatternBlock) -> list[dict[str, int]]:
    """Expand a whole packed block into a pattern list."""
    return [block_pattern(block, i) for i in range(block.num_patterns)]


def simulate_patterns(
    simulator: FaultSimulator,
    fault_list: FaultList,
    patterns: Sequence[Mapping[str, int]],
    block_size: int = DEFAULT_BLOCK_SIZE,
    drop_detected: bool = True,
    pattern_offset: int = 0,
) -> FaultSimulationResult:
    """Fault-simulate a pattern list: pack it over the stimulus nets (missing
    nets read 0) and scan the blocks with ``simulator.simulate_blocks``.

    ``pattern_offset`` is the index of the first pattern within the overall
    campaign, so first-detection indices stay globally meaningful.
    """
    blocks = iter_blocks(
        patterns, block_size=block_size, nets=simulator.circuit.stimulus_nets()
    )
    return simulator.simulate_blocks(
        fault_list, blocks, drop_detected=drop_detected, pattern_offset=pattern_offset
    )
