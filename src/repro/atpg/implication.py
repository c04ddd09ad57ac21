"""Composite (good/faulty) three-valued implication engine for ATPG.

Given a partial assignment of the stimulus nets (primary inputs and scan flop
outputs), :class:`FaultedEvaluator` forward-simulates both the fault-free and
the faulty circuit in three-valued logic and answers the questions PODEM asks
on every decision:

* what are the implied values everywhere (``implied_values``),
* is the current assignment already a test (``is_test``),
* which gates form the D-frontier (``d_frontier``),
* can the discrepancy still reach an observation net through X-valued nets
  (``x_path_exists``) -- the classical X-path check used to prune dead ends.

This is the *reference* engine: it re-implies the whole netlist through
name-keyed dicts on every decision, and is preserved as the bit-exactness
oracle and benchmark baseline of the kernel-indexed event-driven engine in
:mod:`repro.atpg.compiled` (the default since the compiled ATPG refactor).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..netlist.circuit import Circuit
from ..netlist.gates import GateType
from ..faults.models import StuckAtFault
from .dcalc import Value5, value5 as _value5


def _eval3(gate_type: GateType, inputs: Sequence[Optional[int]]) -> Optional[int]:
    """Scalar three-valued gate evaluation (None = X)."""
    if gate_type in (GateType.AND, GateType.NAND):
        if any(v == 0 for v in inputs):
            out: Optional[int] = 0
        elif all(v == 1 for v in inputs):
            out = 1
        else:
            out = None
        if gate_type is GateType.NAND and out is not None:
            out = 1 - out
        return out
    if gate_type in (GateType.OR, GateType.NOR):
        if any(v == 1 for v in inputs):
            out = 1
        elif all(v == 0 for v in inputs):
            out = 0
        else:
            out = None
        if gate_type is GateType.NOR and out is not None:
            out = 1 - out
        return out
    if gate_type in (GateType.XOR, GateType.XNOR):
        if any(v is None for v in inputs):
            return None
        parity = 0
        for v in inputs:
            parity ^= v
        return parity if gate_type is GateType.XOR else 1 - parity
    if gate_type is GateType.NOT:
        return None if inputs[0] is None else 1 - inputs[0]
    if gate_type is GateType.BUF:
        return inputs[0]
    if gate_type is GateType.MUX:
        sel, a, b = inputs
        if sel == 0:
            return a
        if sel == 1:
            return b
        if a is not None and a == b:
            return a
        return None
    if gate_type is GateType.CONST0:
        return 0
    if gate_type is GateType.CONST1:
        return 1
    raise ValueError(f"cannot evaluate gate type {gate_type.name}")


class FaultedEvaluator:
    """Three-valued good/faulty implication engine for one stuck-at fault."""

    def __init__(
        self,
        circuit: Circuit,
        fault: StuckAtFault,
        observe_nets: Optional[Sequence[str]] = None,
    ) -> None:
        self.circuit = circuit
        self.fault = fault
        self.observe_nets = (
            list(observe_nets) if observe_nets is not None else circuit.observation_nets()
        )
        self._observe_set = set(self.observe_nets)
        self.stimulus_nets = circuit.stimulus_nets()
        self._stimulus_set = set(self.stimulus_nets)
        self._schedule = [
            (name, circuit.gate(name).gate_type, tuple(circuit.gate(name).inputs))
            for name in circuit.topological_order()
            if not circuit.gate(name).is_primary_input and not circuit.gate(name).is_flop
        ]
        self._fanout = circuit.fanout_map()

    # ------------------------------------------------------------------ #
    # Forward implication
    # ------------------------------------------------------------------ #
    def implied_values(self, assignment: Mapping[str, int]) -> dict[str, Value5]:
        """Forward-implicate a partial stimulus assignment.

        Unassigned stimulus nets are X.  The faulty component injects the
        stuck value at the fault site: on the whole net for stem faults, and
        only into the owning gate's evaluation for branch faults.
        """
        fault = self.fault
        values: dict[str, Value5] = {}
        for net in self.stimulus_nets:
            assigned = assignment.get(net)
            good: Optional[int] = None if assigned is None else int(assigned)
            faulty = good
            if fault.is_stem and fault.gate == net:
                faulty = fault.value
            values[net] = _value5(good, faulty)

        for name, gate_type, inputs in self._schedule:
            good_inputs = [values[n].good for n in inputs]
            faulty_inputs = [values[n].faulty for n in inputs]
            if not fault.is_stem and fault.gate == name:
                faulty_inputs[fault.pin] = fault.value
            good = _eval3(gate_type, good_inputs) if inputs or gate_type.is_source else None
            faulty = _eval3(gate_type, faulty_inputs) if inputs or gate_type.is_source else None
            if fault.is_stem and fault.gate == name:
                faulty = fault.value
            values[name] = _value5(good, faulty)

        # Branch fault on a flop's D pin: the discrepancy is observed at the
        # D net as seen by that flop.  Model it by exposing a pseudo net value
        # at the flop's data input when that input is the faulted pin.
        if not fault.is_stem:
            gate = self.circuit.gate(fault.gate)
            if gate.is_flop:
                data_net = gate.inputs[fault.pin]
                good = values[data_net].good
                values[f"{fault.gate}.D"] = _value5(good, fault.value)
        return values

    # ------------------------------------------------------------------ #
    # Test / frontier queries
    # ------------------------------------------------------------------ #
    def is_test(self, values: Mapping[str, Value5]) -> bool:
        """True when some observation net carries D or D'."""
        for net in self.observe_nets:
            if net in values and values[net].is_discrepancy:
                return True
        # Flop-D-pin branch faults expose their pseudo observation net.
        if not self.fault.is_stem:
            pseudo = f"{self.fault.gate}.D"
            gate = self.circuit.gate(self.fault.gate)
            if gate.is_flop and pseudo in values and values[pseudo].is_discrepancy:
                return True
        return False

    def fault_activated(self, values: Mapping[str, Value5]) -> Optional[bool]:
        """Is the fault site set opposite to the stuck value in the good circuit?

        Returns ``True``/``False`` when the site's good value is known, ``None``
        while it is still X.
        """
        site_net = self.fault.faulted_net(self.circuit)
        good = values[site_net].good
        if good is None:
            return None
        return good != self.fault.value

    def d_frontier(self, values: Mapping[str, Value5]) -> list[str]:
        """Gates with a discrepancy on an input and an X on the output.

        For an input-branch fault the discrepancy is *created inside* the
        owning gate (the forced pin differs from the good value of the driving
        net), so that gate belongs to the frontier as soon as the fault is
        activated even though none of its input nets carries D/D' yet.
        """
        frontier = []
        for name, _, inputs in self._schedule:
            value = values[name]
            if value.good is not None and value.faulty is not None:
                continue
            if any(values[n].is_discrepancy for n in inputs):
                frontier.append(name)
                continue
            if not self.fault.is_stem and name == self.fault.gate:
                site_good = values[inputs[self.fault.pin]].good
                if site_good is not None and site_good != self.fault.value:
                    frontier.append(name)
        return frontier

    def x_path_exists(self, values: Mapping[str, Value5], frontier: Sequence[str]) -> bool:
        """Can a discrepancy at any frontier gate still reach an observation net?

        Breadth-first over nets whose value is not fully known yet; reaching an
        observation net (or the D input of a flop, which is a pseudo primary
        output in the scan view) means propagation is still possible.
        """
        visited: set[str] = set()
        queue = list(frontier)
        while queue:
            net = queue.pop()
            if net in visited:
                continue
            visited.add(net)
            if net in self._observe_set:
                return True
            for successor in self._fanout.get(net, ()):  # gates fed by this net
                gate = self.circuit.gate(successor)
                if gate.is_flop:
                    # Reaching a flop's D pin means reaching a pseudo-PO.
                    if net in self._observe_set or gate.inputs[0] == net:
                        return True
                    continue
                successor_value = values[successor]
                if successor_value.good is None or successor_value.faulty is None:
                    queue.append(successor)
        return False
