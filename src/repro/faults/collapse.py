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

from functools import cached_property

from ..netlist.circuit import Circuit
from ..netlist.gates import GateType
from .fault_list import FaultList, StuckAtTable, fault_code, stuck_at_table
from .models import OUTPUT_PIN, StuckAtFault


class CollapsedFaults:
    """Result of equivalence collapsing, held as stuck-at table IDs.

    Attributes
    ----------
    table:
        The :class:`~repro.faults.fault_list.StuckAtTable` the IDs index.
    representative_ids:
        One fault ID per equivalence class (the collapsed fault list).
    universe:
        The collapsed universe's fault IDs, in order.
    class_positions:
        Per class, in the universe order of its first member, the universe
        positions of its members, representative first.

    ``representatives``, ``representative_of`` and ``classes`` are the
    same result as fault objects, built on first access.
    """

    def __init__(
        self,
        table: StuckAtTable,
        representative_ids: list[int],
        universe: list[int],
        class_positions: list[list[int]],
    ) -> None:
        self.table = table
        self.representative_ids = representative_ids
        self.universe = universe
        self.class_positions = class_positions

    @cached_property
    def representatives(self) -> list[StuckAtFault]:
        """One fault per equivalence class, closest to the inputs first."""
        return self.table.faults(self.representative_ids)

    @cached_property
    def _universe_faults(self) -> list[StuckAtFault]:
        return self.table.faults(self.universe)

    @cached_property
    def representative_of(self) -> dict[StuckAtFault, StuckAtFault]:
        """Every original fault -> its class representative (class by
        class, members in universe order)."""
        faults = self._universe_faults
        return {
            faults[member]: faults[positions[0]]
            for positions in self.class_positions
            for member in sorted(positions)
        }

    @cached_property
    def classes(self) -> dict[StuckAtFault, list[StuckAtFault]]:
        """Representative -> every member of its class (representative first)."""
        faults = self._universe_faults
        return {
            faults[positions[0]]: [faults[p] for p in positions]
            for positions in self.class_positions
        }

    @property
    def collapse_ratio(self) -> float:
        """|collapsed| / |original| (typically around 0.5-0.7 for random logic)."""
        total = len(self.universe)
        if total == 0:
            return 1.0
        return len(self.representative_ids) / total

    def to_fault_list(self) -> FaultList:
        """Fresh :class:`FaultList` over the representatives."""
        return FaultList.from_table(self.table, self.representative_ids)


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

    The union-find runs over positions in the (de-duplicated) universe,
    found through the circuit's stuck-at table; representatives are chosen
    by one packed int key per fault.  No fault object is built.  Classes are
    listed in the universe order of their first member.
    """
    table = stuck_at_table(circuit)
    if faults is None:
        universe = list(range(table.universe))
    else:
        universe = list(dict.fromkeys(table.ids_of(faults)))
    kernel = table.kernel
    net_id = kernel.net_id
    gates, pins, values = table.gate, table.pin, table.value
    # Universe position of each stem fault, by (net ID, value), and of each
    # branch fault, by table code.
    stem_at = [-1] * (2 * kernel.num_nets)
    branch_at: dict[int, int] = {}
    for position, fid in enumerate(universe):
        if pins[fid] == OUTPUT_PIN:
            stem_at[2 * gates[fid] + values[fid]] = position
        else:
            branch_at[fault_code(gates[fid], pins[fid], values[fid])] = position
    fanout = circuit.fanout_map()
    single = [len(fanout.get(name, ())) == 1 for name in kernel.net_names]
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

    for gate in circuit:
        inputs = gate.inputs
        equivalences = _input_output_equivalences(gate.gate_type, len(inputs))
        if not equivalences:
            continue
        gid = net_id[gate.name]
        for pin, branch_value, stem_value in equivalences:
            stem_equiv = stem_at[2 * gid + stem_value]
            if stem_equiv < 0:
                continue
            # The equivalence links a fault on this gate's input pin to the
            # fault on this gate's *output* stem.
            branch = branch_at.get(fault_code(gid, pin, branch_value))
            if branch is not None:
                union(stem_equiv, branch)
            # On a fanout-free input net the branch fault is identical to the
            # driving stem fault, so the gate-local equivalence extends to it
            # even when the branch fault itself is not enumerated.
            driver = net_id[inputs[pin]]
            if single[driver]:
                driving_stem = stem_at[2 * driver + branch_value]
                if driving_stem >= 0:
                    union(stem_equiv, driving_stem)
    # Fanout-free nets: when branch faults *are* enumerated explicitly, also
    # merge them with the driving stem fault directly.
    for position in branch_at.values():
        fid = universe[position]
        driver = table.faulted_net(fid)
        if single[driver]:
            stem = stem_at[2 * driver + values[fid]]
            if stem >= 0:
                union(stem, position)

    groups: dict[int, list[int]] = {}
    for position in range(len(universe)):
        groups.setdefault(find(position), []).append(position)
    # Choose a deterministic representative per class: prefer stem faults at
    # the lowest circuit level (closest to the inputs), ties broken by name,
    # pin and value -- one int per fault orders as that tuple does.
    names = kernel.net_names
    name_rank = [0] * len(names)
    for rank, nid in enumerate(sorted(range(len(names)), key=names.__getitem__)):
        name_rank[nid] = rank
    levels = kernel.net_levels
    pin_span = max((pins[fid] for fid in universe), default=0) + 2
    keys = []
    for fid in universe:
        gid, pin = gates[fid], pins[fid]
        key = (levels[gid] * 2 + (pin != OUTPUT_PIN)) * len(names) + name_rank[gid]
        keys.append((key * pin_span + pin + 1) * 2 + values[fid])

    class_positions = [
        sorted(members, key=keys.__getitem__) if len(members) > 1 else members
        for members in groups.values()
    ]
    representatives = sorted(
        (positions[0] for positions in class_positions), key=keys.__getitem__
    )
    return CollapsedFaults(
        table, [universe[p] for p in representatives], universe, class_positions
    )
