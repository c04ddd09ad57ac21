"""SCOAP testability measures (combinational controllability / observability).

SCOAP (Sandia Controllability/Observability Analysis Program) assigns every
net three integer measures:

* ``CC0`` -- effort to set the net to 0,
* ``CC1`` -- effort to set the net to 1,
* ``CO``  -- effort to observe the net at an output.

Conventional logic BIST flows use these (or the probabilistic COP measures) to
pick test-point locations.  The paper's key point is that its observation
points are chosen from *fault simulation* results instead; this module exists
both as the baseline for that comparison (ablation A1) and as a general
testability-analysis utility.

The computation uses the full-scan view: primary inputs and scan flop outputs
have CC0 = CC1 = 1, primary outputs and flop data inputs have CO = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..netlist.circuit import Circuit
from ..netlist.gates import GateType

#: Value used for unreachable / infinite effort.
INFINITE = 10**9


@dataclass(frozen=True)
class ScoapMeasures:
    """SCOAP triple for one net."""

    cc0: int
    cc1: int
    co: int

    @property
    def controllability(self) -> int:
        """The harder of the two controllabilities (used for ranking)."""
        return max(self.cc0, self.cc1)


def _combine_and(cc0s: list[int], cc1s: list[int], invert: bool) -> tuple[int, int]:
    """Controllability of an AND (or NAND when ``invert``) output."""
    cc1 = sum(cc1s) + 1
    cc0 = min(cc0s) + 1
    return (cc1, cc0) if invert else (cc0, cc1)


def _combine_or(cc0s: list[int], cc1s: list[int], invert: bool) -> tuple[int, int]:
    """Controllability of an OR (or NOR when ``invert``) output."""
    cc0 = sum(cc0s) + 1
    cc1 = min(cc1s) + 1
    return (cc1, cc0) if invert else (cc0, cc1)


def _combine_xor(cc0s: list[int], cc1s: list[int], invert: bool) -> tuple[int, int]:
    """Controllability of an XOR/XNOR output (two-input formula folded left)."""
    cc0, cc1 = cc0s[0], cc1s[0]
    for next_cc0, next_cc1 in zip(cc0s[1:], cc1s[1:]):
        new_cc0 = min(cc0 + next_cc0, cc1 + next_cc1) + 1
        new_cc1 = min(cc0 + next_cc1, cc1 + next_cc0) + 1
        cc0, cc1 = new_cc0, new_cc1
    return (cc1, cc0) if invert else (cc0, cc1)


def compute_scoap(circuit: Circuit) -> Dict[str, ScoapMeasures]:
    """Compute SCOAP CC0/CC1/CO for every net of ``circuit`` (full-scan view)."""
    cc0: dict[str, int] = {}
    cc1: dict[str, int] = {}

    # Controllability: forward pass in topological order.
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        if gate.is_primary_input or gate.is_flop:
            cc0[name] = 1
            cc1[name] = 1
            continue
        gate_type = gate.gate_type
        if gate_type is GateType.CONST0:
            cc0[name], cc1[name] = 1, INFINITE
            continue
        if gate_type is GateType.CONST1:
            cc0[name], cc1[name] = INFINITE, 1
            continue
        in_cc0 = [cc0[n] for n in gate.inputs]
        in_cc1 = [cc1[n] for n in gate.inputs]
        if gate_type in (GateType.AND, GateType.NAND):
            cc0[name], cc1[name] = _combine_and(in_cc0, in_cc1, gate_type is GateType.NAND)
        elif gate_type in (GateType.OR, GateType.NOR):
            cc0[name], cc1[name] = _combine_or(in_cc0, in_cc1, gate_type is GateType.NOR)
        elif gate_type in (GateType.XOR, GateType.XNOR):
            cc0[name], cc1[name] = _combine_xor(in_cc0, in_cc1, gate_type is GateType.XNOR)
        elif gate_type is GateType.NOT:
            cc0[name], cc1[name] = in_cc1[0] + 1, in_cc0[0] + 1
        elif gate_type is GateType.BUF:
            cc0[name], cc1[name] = in_cc0[0] + 1, in_cc1[0] + 1
        elif gate_type is GateType.MUX:
            sel0, sel1 = cc0[gate.inputs[0]], cc1[gate.inputs[0]]
            a0, a1 = cc0[gate.inputs[1]], cc1[gate.inputs[1]]
            b0, b1 = cc0[gate.inputs[2]], cc1[gate.inputs[2]]
            cc0[name] = min(sel0 + a0, sel1 + b0) + 1
            cc1[name] = min(sel0 + a1, sel1 + b1) + 1
        else:  # pragma: no cover - exhaustive over GateType
            raise ValueError(f"unsupported gate type {gate_type}")

    # Observability: backward pass in reverse topological order.
    co: dict[str, int] = {name: INFINITE for name in circuit.gates}
    for net in circuit.observation_nets():
        co[net] = 0
    for name in reversed(circuit.topological_order()):
        gate = circuit.gate(name)
        if gate.is_primary_input or gate.is_flop or gate.gate_type.is_source:
            continue
        gate_type = gate.gate_type
        output_co = co[name]
        if output_co >= INFINITE:
            continue
        for pin, net in enumerate(gate.inputs):
            others = [n for i, n in enumerate(gate.inputs) if i != pin]
            if gate_type in (GateType.AND, GateType.NAND):
                effort = output_co + sum(cc1[n] for n in others) + 1
            elif gate_type in (GateType.OR, GateType.NOR):
                effort = output_co + sum(cc0[n] for n in others) + 1
            elif gate_type in (GateType.XOR, GateType.XNOR):
                effort = output_co + sum(min(cc0[n], cc1[n]) for n in others) + 1
            elif gate_type in (GateType.NOT, GateType.BUF):
                effort = output_co + 1
            elif gate_type is GateType.MUX:
                sel = gate.inputs[0]
                if pin == 0:
                    effort = output_co + min(cc0[gate.inputs[1]] + cc1[gate.inputs[2]],
                                             cc1[gate.inputs[1]] + cc0[gate.inputs[2]]) + 1
                elif pin == 1:
                    effort = output_co + cc0[sel] + 1
                else:
                    effort = output_co + cc1[sel] + 1
            else:  # pragma: no cover
                raise ValueError(f"unsupported gate type {gate_type}")
            co[net] = min(co[net], effort)

    return {
        name: ScoapMeasures(cc0[name], cc1[name], co[name]) for name in circuit.gates
    }


def hardest_to_observe(
    circuit: Circuit, count: int, exclude: set[str] | None = None
) -> list[str]:
    """The ``count`` combinational nets with the highest SCOAP CO.

    This is the classical observability-calculation heuristic for observation
    test-point placement -- the baseline the paper's fault-simulation-guided
    method is compared against.  Primary inputs, flops and constant sources
    are never candidates; ties break by net name.
    """
    measures = compute_scoap(circuit)
    exclude = exclude or set()
    candidates = []
    for name, m in measures.items():
        gate = circuit.gate(name)
        if gate.is_primary_input or gate.is_flop or gate.gate_type.is_source:
            continue
        if name not in exclude:
            candidates.append((name, m.co))
    candidates.sort(key=lambda item: (-item[1], item[0]))
    return [name for name, _ in candidates[:count]]
