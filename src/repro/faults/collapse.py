"""Structural equivalence fault collapsing.

Commercial tools report coverage over the *collapsed* fault list; the paper's
93-97 % numbers are of that kind.  This module implements the classical
structural equivalence rules:

* for an AND/NAND gate, s-a-0 at any input is equivalent to s-a-0 (AND) or
  s-a-1 (NAND) at the output,
* for an OR/NOR gate, s-a-1 at any input is equivalent to s-a-1 (OR) or
  s-a-0 (NOR) at the output,
* for NOT/BUF, each input fault is equivalent to the complementary/same
  output fault,
* on fanout-free nets, the branch fault is equivalent to the stem fault
  (already handled by not enumerating such branches).

Each equivalence class keeps one representative (the fault closest to the
primary inputs, which is the conventional choice); the mapping from every
fault to its representative is retained so detection credit can be shared.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netlist.circuit import Circuit
from ..netlist.gates import GateType
from .fault_list import FaultList, enumerate_stuck_at_faults
from .models import OUTPUT_PIN, StuckAtFault


@dataclass
class CollapsedFaults:
    """Result of equivalence collapsing.

    Attributes
    ----------
    representatives:
        One fault per equivalence class (the collapsed fault list).
    representative_of:
        Mapping from every original fault to its class representative.
    classes:
        Mapping representative -> all members of its class.
    """

    representatives: list[StuckAtFault]
    representative_of: dict[StuckAtFault, StuckAtFault]
    classes: dict[StuckAtFault, list[StuckAtFault]]

    @property
    def collapse_ratio(self) -> float:
        """|collapsed| / |original| (typically around 0.5-0.7 for random logic)."""
        total = len(self.representative_of)
        if total == 0:
            return 1.0
        return len(self.representatives) / total

    def to_fault_list(self) -> FaultList:
        """Fresh :class:`FaultList` over the representatives."""
        return FaultList(self.representatives)


def _input_output_equivalences(
    gate_type: GateType, num_inputs: int
) -> list[tuple[int, int, int]]:
    """Equivalent (input pin, its stuck value, output stem's stuck value)
    triples for one gate."""
    if gate_type in (GateType.AND, GateType.NAND):
        controlled = 0 if gate_type is GateType.AND else 1
        return [(pin, 0, controlled) for pin in range(num_inputs)]
    if gate_type in (GateType.OR, GateType.NOR):
        controlled = 1 if gate_type is GateType.OR else 0
        return [(pin, 1, controlled) for pin in range(num_inputs)]
    if gate_type is GateType.NOT:
        return [(0, 0, 1), (0, 1, 0)]
    if gate_type in (GateType.BUF, GateType.DFF):
        return [(0, 0, 0), (0, 1, 1)]
    return []


def collapse_stuck_at(
    circuit: Circuit, faults: list[StuckAtFault] | None = None
) -> CollapsedFaults:
    """Equivalence-collapse the stuck-at fault universe of ``circuit``.

    Parameters
    ----------
    circuit:
        The netlist.
    faults:
        Optional explicit fault universe; defaults to
        :func:`~repro.faults.fault_list.enumerate_stuck_at_faults`.

    Notes
    -----
    Only *local* gate equivalences plus the single-fanout stem/branch identity
    are applied (the textbook structural collapsing).  Dominance collapsing is
    deliberately not applied because dominance does not preserve detection
    credit under arbitrary pattern sets.

    The union-find runs over positions in the (de-duplicated) universe, found
    by ``(gate, pin, value)`` keys; fault objects are hashed only when the
    result mappings are assembled.  Classes are listed in the universe order
    of their first member.
    """
    if faults is None:
        faults = enumerate_stuck_at_faults(circuit)
    universe: list[StuckAtFault] = []
    slot: dict[tuple[str, int, int], int] = {}
    for fault in faults:
        key = (fault.gate, fault.pin, fault.value)
        if key not in slot:
            slot[key] = len(universe)
            universe.append(fault)
    parent = list(range(len(universe)))

    def find(item: int) -> int:
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    fanout = circuit.fanout_map()
    lookup = slot.get
    for gate in circuit:
        name = gate.name
        inputs = gate.inputs
        for pin, branch_value, stem_value in _input_output_equivalences(
            gate.gate_type, len(inputs)
        ):
            stem_equiv = lookup((name, OUTPUT_PIN, stem_value))
            if stem_equiv is None:
                continue
            # The equivalence links a fault on this gate's input pin to the
            # fault on this gate's *output* stem.
            branch = lookup((name, pin, branch_value))
            if branch is not None:
                union(stem_equiv, branch)
            # On a fanout-free input net the branch fault is identical to the
            # driving stem fault, so the gate-local equivalence extends to it
            # even when the branch fault itself is not enumerated.
            net = inputs[pin]
            if len(fanout.get(net, ())) == 1:
                driving_stem = lookup((net, OUTPUT_PIN, branch_value))
                if driving_stem is not None:
                    union(stem_equiv, driving_stem)
        # Fanout-free nets: when branch faults *are* enumerated explicitly,
        # also merge them with the driving stem fault directly.
        for pin, net in enumerate(inputs):
            if len(fanout.get(net, ())) == 1:
                for value in (0, 1):
                    branch = lookup((name, pin, value))
                    if branch is None:
                        continue
                    stem = lookup((net, OUTPUT_PIN, value))
                    if stem is not None:
                        union(stem, branch)

    groups: dict[int, list[StuckAtFault]] = {}
    for position, fault in enumerate(universe):
        groups.setdefault(find(position), []).append(fault)
    # Choose a deterministic representative per class: prefer stem faults at
    # the lowest circuit level (closest to the inputs), ties broken by name.
    levels = circuit.levels()

    def representative_key(fault: StuckAtFault) -> tuple:
        return (levels.get(fault.gate, 0), 0 if fault.is_stem else 1, fault.gate, fault.pin, fault.value)

    representative_of: dict[StuckAtFault, StuckAtFault] = {}
    classes: dict[StuckAtFault, list[StuckAtFault]] = {}
    representatives: list[StuckAtFault] = []
    for members in groups.values():
        ordered = sorted(members, key=representative_key) if len(members) > 1 else members
        rep = ordered[0]
        representatives.append(rep)
        classes[rep] = ordered
        for member in members:
            representative_of[member] = rep
    representatives.sort(key=representative_key)
    return CollapsedFaults(representatives, representative_of, classes)
