"""Reference name-keyed simulators: the pre-kernel oracle path.

These classes preserve, verbatim in behaviour, the original string-keyed
implementation of :class:`~repro.simulation.comb_sim.PackedSimulator` and the
pattern-parallel single-fault-propagation engine from before the compiled
integer-indexed kernel (:mod:`repro.simulation.kernel`) replaced them on the
hot path.  They exist for two reasons:

* the randomized equivalence suite (``tests/simulation/test_kernel_equivalence.py``)
  asserts the compiled kernel's results are bit-identical to this path across
  block sizes and seeds,
* the benchmark regression harness (``benchmarks/bench_fault_sim.py``) uses
  them as the "before" engine when recording the fault-simulation speedup in
  ``BENCH_fault_sim.json``.

Every gate evaluation here goes through ``dict[str, int]`` lookups keyed by
net names -- exactly the overhead the kernel removes.  Do not use these
classes in production paths.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..netlist.circuit import Circuit
from ..netlist.gates import GateType, evaluate_packed
from ..simulation.packed import DEFAULT_BLOCK_SIZE, iter_blocks, mask_for


class ReferencePackedSimulator:
    """The original name-keyed, dict-based pattern-parallel simulator."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._stimulus = set(circuit.stimulus_nets())
        self._schedule: list[tuple[str, GateType, tuple[str, ...]]] = []
        for name in circuit.topological_order():
            gate = circuit.gate(name)
            if gate.is_primary_input or gate.is_flop:
                continue
            self._schedule.append((name, gate.gate_type, tuple(gate.inputs)))

    def simulate_block(
        self, stimulus: Mapping[str, int], num_patterns: int
    ) -> dict[str, int]:
        """Simulate one packed block; nets not supplied default to all-zero."""
        mask = mask_for(num_patterns)
        values: dict[str, int] = {}
        for net in self._stimulus:
            values[net] = stimulus.get(net, 0) & mask
        for name, gate_type, inputs in self._schedule:
            values[name] = evaluate_packed(
                gate_type, [values[net] for net in inputs], mask
            )
        return values

    def resimulate_cone(
        self,
        base_values: Mapping[str, int],
        overrides: Mapping[str, int],
        cone: set[str],
        num_patterns: int,
    ) -> dict[str, int]:
        """Re-evaluate only the gates inside ``cone`` with some nets overridden."""
        mask = mask_for(num_patterns)
        local: dict[str, int] = {net: value & mask for net, value in overrides.items()}

        def value_of(net: str) -> int:
            if net in local:
                return local[net]
            return base_values[net]

        for name, gate_type, inputs in self._schedule:
            if name not in cone or name in local:
                continue
            local[name] = evaluate_packed(gate_type, [value_of(n) for n in inputs], mask)
        return local


class ReferenceFaultSimulator:
    """The original dict-based PPSFP stuck-at engine with fault dropping.

    Mirrors :class:`~repro.faults.fault_sim.FaultSimulator` as it existed
    before the kernel refactor: same cone caching by site net name, same
    detection semantics, same campaign bookkeeping.  Returns plain data
    (detection maps and coverage curves) so the equivalence tests can diff it
    against the production engine without sharing result classes.
    """

    def __init__(
        self,
        circuit: Circuit,
        observe_nets: Optional[Sequence[str]] = None,
    ) -> None:
        self.circuit = circuit
        self.simulator = ReferencePackedSimulator(circuit)
        self.observe_nets = (
            list(observe_nets) if observe_nets is not None else circuit.observation_nets()
        )
        self._cone_cache: dict[str, tuple[set[str], list[str]]] = {}
        #: Aggregate count of gate (re-)evaluations, for throughput reporting.
        self.gate_evals = 0

    def _cone_and_observed(self, site_net: str) -> tuple[set[str], list[str]]:
        cached = self._cone_cache.get(site_net)
        if cached is None:
            cone = self.circuit.fanout_cone(site_net)
            observed = [net for net in self.observe_nets if net in cone]
            cached = (cone, observed)
            self._cone_cache[site_net] = cached
        return cached

    def _faulty_site_value(self, fault, good_values, mask):
        if fault.is_stem:
            return fault.gate, (mask if fault.value else 0)
        gate = self.circuit.gate(fault.gate)
        inputs = []
        for pin, net in enumerate(gate.inputs):
            if pin == fault.pin:
                inputs.append(mask if fault.value else 0)
            else:
                inputs.append(good_values[net])
        if gate.is_flop:
            return gate.inputs[fault.pin], (mask if fault.value else 0)
        faulty_output = evaluate_packed(gate.gate_type, inputs, mask)
        return fault.gate, faulty_output

    def detection_mask(self, fault, good_values, num_patterns: int) -> int:
        """Packed mask of patterns (within the block) that detect ``fault``."""
        mask = mask_for(num_patterns)
        override_net, faulty_value = self._faulty_site_value(fault, good_values, mask)
        if faulty_value == good_values[override_net]:
            return 0
        cone, observed = self._cone_and_observed(override_net)
        if not observed:
            return 0
        faulty = self.simulator.resimulate_cone(
            good_values, {override_net: faulty_value}, cone, num_patterns
        )
        self.gate_evals += max(0, len(faulty) - 1)
        detection = 0
        for net in observed:
            detection |= (faulty.get(net, good_values[net]) ^ good_values[net])
        return detection & mask

    def simulate(
        self,
        fault_list,
        patterns: Sequence[Mapping[str, int]],
        block_size: int = DEFAULT_BLOCK_SIZE,
        drop_detected: bool = True,
        pattern_offset: int = 0,
    ):
        """Fault-simulate ``patterns``; returns (fault -> first detecting index, curve)."""
        detected: dict[object, int] = {}
        coverage_curve: list[tuple[int, float]] = []
        active = list(fault_list.undetected())
        simulated = 0
        stimulus_nets = self.circuit.stimulus_nets()
        for block in iter_blocks(patterns, block_size=block_size, nets=stimulus_nets):
            good = self.simulator.simulate_block(block.assignments, block.num_patterns)
            self.gate_evals += len(self.simulator._schedule)
            still_active = []
            for fault in active:
                detection = self.detection_mask(fault, good, block.num_patterns)
                if detection:
                    first_bit = (detection & -detection).bit_length() - 1
                    pattern_index = pattern_offset + simulated + first_bit
                    fault_list.mark_detected(fault, pattern_index)
                    detected[fault] = pattern_index
                    if not drop_detected:
                        still_active.append(fault)
                else:
                    still_active.append(fault)
            active = still_active
            simulated += block.num_patterns
            coverage_curve.append((pattern_offset + simulated, fault_list.coverage()))
        return detected, coverage_curve
