"""The name-keyed PODEM search: the oracle of :class:`~repro.atpg.podem.PodemAtpg`.

The same classical search as the production generator -- objective, first-X
backtrace, implication, X-path pruning, backtrack on the latest unflipped
decision -- run on the name-keyed
:class:`~repro.oracle.implication.FaultedEvaluator`, which re-implies the
whole netlist through dicts on every decision.  Its cubes, backtrack counts,
decision counts and outcomes are what ``PodemAtpg`` must reproduce fault
for fault.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..atpg.dcalc import Value5
from ..atpg.podem import AtpgOutcome, AtpgResult, TestCube
from ..faults.models import StuckAtFault
from ..netlist.circuit import Circuit
from ..netlist.gates import CONTROLLING_VALUE, GateType
from .implication import FaultedEvaluator


def generate_reference(
    circuit: Circuit,
    fault: StuckAtFault,
    observe_nets: Optional[Sequence[str]] = None,
    backtrack_limit: int = 200,
) -> AtpgResult:
    """Attempt to generate a test cube for ``fault`` with the name-keyed engine."""
    evaluator = FaultedEvaluator(circuit, fault, observe_nets)
    assignment: dict[str, int] = {}
    # Decision stack entries: (net, value, already_flipped).
    stack: list[tuple[str, int, bool]] = []
    backtracks = 0
    decisions = 0

    values = evaluator.implied_values(assignment)
    while True:
        if evaluator.is_test(values):
            return AtpgResult(AtpgOutcome.SUCCESS, TestCube(dict(assignment), fault),
                              backtracks, decisions)

        objective = _objective(circuit, evaluator, values, fault)
        dead_end = objective is None
        if not dead_end:
            frontier = evaluator.d_frontier(values)
            activated = evaluator.fault_activated(values)
            if activated is False:
                dead_end = True
            elif activated is True and not frontier and not evaluator.is_test(values):
                # Fault activated but the discrepancy vanished entirely.
                dead_end = True
            elif frontier and not evaluator.x_path_exists(values, frontier):
                dead_end = True

        if not dead_end:
            target_net, target_value = _backtrace(circuit, evaluator, values, *objective)
            if target_net is None:
                dead_end = True
            else:
                assignment[target_net] = target_value
                stack.append((target_net, target_value, False))
                decisions += 1
                values = evaluator.implied_values(assignment)
                continue

        # Dead end: backtrack.
        flipped = False
        while stack:
            net, value, already_flipped = stack.pop()
            del assignment[net]
            if not already_flipped:
                backtracks += 1
                if backtracks > backtrack_limit:
                    return AtpgResult(AtpgOutcome.ABORTED, None, backtracks, decisions)
                assignment[net] = 1 - value
                stack.append((net, 1 - value, True))
                values = evaluator.implied_values(assignment)
                flipped = True
                break
        if not flipped:
            return AtpgResult(AtpgOutcome.UNTESTABLE, None, backtracks, decisions)


def _objective(
    circuit: Circuit,
    evaluator: FaultedEvaluator,
    values: dict[str, Value5],
    fault: StuckAtFault,
) -> Optional[tuple[str, int]]:
    """Classical PODEM objective: activate the fault, then advance the D-frontier."""
    activated = evaluator.fault_activated(values)
    if activated is None:
        # Drive the fault site to the complement of the stuck value.
        return fault.faulted_net(circuit), 1 - fault.value
    if activated is False:
        return None
    frontier = evaluator.d_frontier(values)
    if not frontier:
        return None
    # Advance the frontier gate closest to an observation net (approximated
    # by the deepest level, which tends to be nearest the outputs).
    levels = circuit.levels()
    gate_name = max(frontier, key=lambda name: levels.get(name, 0))
    gate = circuit.gate(gate_name)
    control = CONTROLLING_VALUE.get(gate.gate_type)
    non_controlling = 1 - control if control is not None else 1
    for net in gate.inputs:
        value = values[net]
        if value.good is None or value.faulty is None:
            return net, non_controlling
    return None


def _backtrace(
    circuit: Circuit,
    evaluator: FaultedEvaluator,
    values: dict[str, Value5],
    objective_net: str,
    objective_value: int,
) -> tuple[Optional[str], int]:
    """Trace the objective back to an unassigned stimulus net.

    Follows X-valued nets from the objective toward the inputs, inverting
    the target value through inverting gate types, and picking the easiest
    input heuristically (the first X input, which in a levelised netlist is
    a stable deterministic choice).
    """
    stimulus = set(evaluator.stimulus_nets)
    net, value = objective_net, objective_value
    guard = 0
    max_steps = len(circuit) + 10
    while net not in stimulus:
        guard += 1
        if guard > max_steps:
            return None, value
        gate = circuit.gate(net)
        if gate.gate_type.is_source:
            return None, value
        if gate.gate_type in (GateType.NOT, GateType.NAND, GateType.NOR, GateType.XNOR):
            value = 1 - value
        x_inputs = [
            n
            for n in gate.inputs
            if values[n].good is None or values[n].faulty is None
        ]
        if not x_inputs:
            return None, value
        net = x_inputs[0]
    if values[net].good is not None:
        return None, value
    return net, value
