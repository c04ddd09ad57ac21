"""Kernel-indexed 5-valued implication engine for PODEM.

This is the ATPG counterpart of the compiled simulation kernel: the
reference :class:`~repro.atpg.implication.FaultedEvaluator` rebuilds a full
``dict[str, Value5]`` on every PODEM decision, which made ATPG the last hot
path still running on name-keyed dicts.  :class:`CompiledFaultedEvaluator`
lowers the same composite (good/faulty) three-valued implication onto the
shared :class:`~repro.simulation.kernel.CompiledKernel`:

* values live in two flat lists indexed by dense net ID (``None`` = X),
* implication is **event-driven**: assigning or retracting one stimulus
  net evaluates the gates reading it and, in topological order, the readers
  of every gate whose good or faulty value actually changed -- for a
  feed-forward netlist this reaches exactly the fixpoint the reference
  engine computes from scratch, while a change masked by a controlling
  input stops at the net's direct readers,
* gates are evaluated through a table of per-opcode three-valued
  evaluators; an evaluator starts from a copy of the fault-free all-X
  state and injects its fault with the same event-driven pass,
* the D-frontier scan walks only the fault site's cone (a discrepancy can
  exist nowhere else), and the X-path check runs over interned ID adjacency
  arrays,
* per-kernel derived analyses -- the ATPG fanout adjacency, the all-X
  state and the SCOAP backtrace guidance -- are computed once per circuit
  digest and memoised in ``CompiledKernel.analysis_cache``, so every
  fault targeted through :func:`~repro.simulation.kernel.shared_kernel`
  reuses them.

Equivalence contract: for any assignment sequence the flat arrays hold
exactly the values the reference engine's ``implied_values`` would produce,
and the frontier / X-path / test predicates agree decision for decision --
``tests/atpg/test_compiled_podem.py`` asserts this differentially, which is
what lets the compiled engine be the default without perturbing a single
generated cube.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Optional, Sequence

from ..netlist.circuit import Circuit
from ..netlist.gates import CONTROLLING_VALUE, OPCODE_GATE_TYPES, GateType
from ..faults.models import StuckAtFault
from ..simulation.kernel import CompiledKernel, shared_kernel

#: Opcode -> controlling input value (AND/NAND: 0, OR/NOR: 1), as in
#: :data:`repro.netlist.gates.CONTROLLING_VALUE` but keyed by opcode.
OP_CONTROLLING_VALUE: dict[int, int] = {
    op: CONTROLLING_VALUE[gate_type]
    for op, gate_type in OPCODE_GATE_TYPES.items()
    if gate_type in CONTROLLING_VALUE
}

#: Opcodes that complement the value on the way through (backtrace parity).
INVERTING_OPS = frozenset(
    op for op, gate_type in OPCODE_GATE_TYPES.items() if gate_type.is_inverting
)


def _mux3(v: list) -> Optional[int]:
    sel, a, b = v
    if sel == 0:
        return a
    if sel == 1:
        return b
    return a if a is not None and a == b else None


#: Gate type -> scalar three-valued evaluator over the gate's input values
#: (``None`` = X), semantically identical to
#: :func:`repro.atpg.implication._eval3`.
_EVAL3_BY_TYPE = {
    GateType.AND: lambda v: 0 if 0 in v else None if None in v else 1,
    GateType.NAND: lambda v: 1 if 0 in v else None if None in v else 0,
    GateType.OR: lambda v: 1 if 1 in v else None if None in v else 0,
    GateType.NOR: lambda v: 0 if 1 in v else None if None in v else 1,
    GateType.XOR: lambda v: None if None in v else sum(v) & 1,
    GateType.XNOR: lambda v: None if None in v else 1 - (sum(v) & 1),
    GateType.NOT: lambda v: None if v[0] is None else 1 - v[0],
    GateType.BUF: lambda v: v[0],
    GateType.MUX: _mux3,
    GateType.CONST0: lambda v: 0,
    GateType.CONST1: lambda v: 1,
}
#: The evaluators indexed by opcode (opcodes are dense small integers; the
#: 2-input specialisations share their gate type's evaluator).
_EVAL3 = tuple(
    _EVAL3_BY_TYPE[OPCODE_GATE_TYPES[op]] for op in range(len(OPCODE_GATE_TYPES))
)


# --------------------------------------------------------------------------- #
# Per-kernel derived analyses (cached in CompiledKernel.analysis_cache)
# --------------------------------------------------------------------------- #
class AtpgAdjacency:
    """ID-space structural facts the PODEM queries need.

    Attributes
    ----------
    comb_readers:
        Per net ID, the output IDs of the combinational gates reading the
        net (the X-path successors).
    feeds_flop_d:
        Per net ID, 1 when the net drives some flop's D pin -- reaching such
        a net means reaching a pseudo primary output in the scan view.
    stimulus:
        Per net ID, 1 for stimulus nets (primary inputs and flop outputs).
    observe_ids:
        IDs of the circuit's default observation nets
        (``Circuit.observation_nets()``).
    """

    def __init__(self, kernel: CompiledKernel) -> None:
        circuit = kernel.circuit
        net_id = kernel.net_id
        self.feeds_flop_d = bytearray(kernel.num_nets)
        for gate in circuit.flops():
            if gate.inputs:
                self.feeds_flop_d[net_id[gate.inputs[0]]] = 1
        self.comb_readers: tuple[tuple[int, ...], ...] = kernel.comb_readers
        self.stimulus = bytearray(kernel.num_nets)
        for sid in kernel.stimulus_ids:
            self.stimulus[sid] = 1
        self.observe_ids = tuple(net_id[name] for name in circuit.observation_nets())


def atpg_adjacency(kernel: CompiledKernel) -> AtpgAdjacency:
    """The kernel's cached :class:`AtpgAdjacency` (computed once per digest)."""
    adjacency = kernel.analysis_cache.get("atpg_adjacency")
    if adjacency is None:
        adjacency = AtpgAdjacency(kernel)
        kernel.analysis_cache["atpg_adjacency"] = adjacency
    return adjacency


def scoap_guidance(kernel: CompiledKernel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """SCOAP controllability arrays ``(cc0, cc1)`` indexed by net ID.

    Backtrace guidance for :class:`~repro.atpg.podem.PodemAtpg`'s ``"scoap"``
    mode: when several gate inputs are still X, descend into the one whose
    required value is cheapest to justify.  Computed once per kernel (one
    forward SCOAP pass) and cached via ``analysis_cache``, so the cost is
    shared by every fault targeted against the same circuit content.
    """
    cached = kernel.analysis_cache.get("scoap_guidance")
    if cached is None:
        from ..testability.scoap import compute_scoap

        measures = compute_scoap(kernel.circuit)
        cc0 = tuple(measures[name].cc0 for name in kernel.net_names)
        cc1 = tuple(measures[name].cc1 for name in kernel.net_names)
        cached = (cc0, cc1)
        kernel.analysis_cache["scoap_guidance"] = cached
    return cached


def all_x_state(kernel: CompiledKernel) -> tuple[Optional[int], ...]:
    """Fault-free three-valued net values with every stimulus net at X.

    Every :class:`CompiledFaultedEvaluator` starts from this state: only
    constants and what they alone decide are known.  It does not depend on
    the fault, so it is computed once per kernel (one forward pass) and
    cached via ``analysis_cache``; each evaluator copies it into its own
    good and faulty lists and injects its fault with one event-driven pass.
    """
    cached = kernel.analysis_cache.get("atpg_all_x_state")
    if cached is None:
        values: list[Optional[int]] = [None] * kernel.num_nets
        for op, out, ins in zip(kernel.ops, kernel.outs, kernel.operands):
            values[out] = _EVAL3[op]([values[i] for i in ins])
        cached = tuple(values)
        kernel.analysis_cache["atpg_all_x_state"] = cached
    return cached


# --------------------------------------------------------------------------- #
# The compiled composite evaluator
# --------------------------------------------------------------------------- #
class CompiledFaultedEvaluator:
    """Event-driven good/faulty implication for one stuck-at fault, in ID space.

    The engine holds one persistent pair of value arrays.  ``assign`` /
    ``retract`` update a stimulus net and re-evaluate only the gates its
    change reaches (see :meth:`_propagate`); every query then reads the flat
    arrays directly.  All net identities are kernel IDs;
    :class:`~repro.atpg.podem.PodemAtpg` translates back to names only when
    it packages the final test cube.
    """

    def __init__(
        self,
        circuit: Circuit,
        fault: StuckAtFault,
        observe_nets: Optional[Sequence[str]] = None,
        kernel: Optional[CompiledKernel] = None,
    ) -> None:
        self.circuit = circuit
        self.fault = fault
        self.kernel = kernel if kernel is not None else shared_kernel(circuit)
        kern = self.kernel
        self.adjacency = atpg_adjacency(kern)
        net_id = kern.net_id

        self.observe_ids: tuple[int, ...] = (
            self.adjacency.observe_ids
            if observe_nets is None
            else tuple(net_id[name] for name in observe_nets)
        )
        self._observe_mask = bytearray(kern.num_nets)
        for oid in self.observe_ids:
            self._observe_mask[oid] = 1

        # Fault-site resolution, mirroring the reference engine exactly:
        # stem faults force the whole net in the faulty component; branch
        # faults on a combinational gate force only that gate's view of the
        # driving net; branch faults on a flop's D pin leave the real
        # circuit untouched and are observed at a pseudo net.
        self._stem_site: Optional[int] = None  # forced faulty net ID (stem)
        self._branch_owner: Optional[int] = None  # owning gate out ID (comb branch)
        self._branch_pin: int = fault.pin
        self._flop_pseudo = False
        if fault.is_stem:
            self._stem_site = net_id[fault.gate]
        else:
            gate = circuit.gate(fault.gate)
            if gate.is_flop:
                self._flop_pseudo = True
            else:
                self._branch_owner = net_id[fault.gate]
        #: Net whose good value decides activation (= ``fault.faulted_net``).
        self.site_net_id: int = net_id[fault.faulted_net(circuit)]

        # The fault's region: the fault site's cone (plus, for a
        # combinational branch fault, the owning gate itself, which precedes
        # its cone in topological order).  Discrepancies cannot exist
        # anywhere else, so the D-frontier scan walks only this region and
        # implication evaluates the faulty circuit only inside it.
        cone_outs: tuple[int, ...] = ()
        if self._stem_site is not None:
            cone_outs = kern.cone_plan(self._stem_site).outs
        elif self._branch_owner is not None:
            cone_outs = (self._branch_owner,) + kern.cone_plan(self._branch_owner).outs
        self._frontier_schedule = tuple(
            (out, kern.operands[kern.sched_pos[out]]) for out in cone_outs
        )
        self._in_cone = bytearray(kern.num_nets)
        for out in cone_outs:
            self._in_cone[out] = 1

        base = all_x_state(kern)
        self.good: list[Optional[int]] = list(base)
        self.faulty: list[Optional[int]] = list(base)
        if self._stem_site is not None:
            self.faulty[self._stem_site] = fault.value
            self._propagate(self.adjacency.comb_readers[self._stem_site])
        elif self._branch_owner is not None:
            self._propagate((self._branch_owner,))

    # ------------------------------------------------------------------ #
    # Implication
    # ------------------------------------------------------------------ #
    def _propagate(self, seeds: Sequence[int]) -> None:
        """Event-driven re-implication starting at the gates ``seeds``.

        ``seeds`` are gate output IDs.  Net IDs are topological positions,
        so popping the smallest pending ID evaluates each gate once, after
        every input that changed; a gate's readers are queued only when its
        good or faulty value actually changed.  On a feed-forward netlist
        this reaches the same fixpoint as re-evaluating the whole cone.
        """
        good = self.good
        faulty = self.faulty
        kern = self.kernel
        sched_pos = kern.sched_pos
        ops = kern.ops
        operands = kern.operands
        readers = self.adjacency.comb_readers
        evaluators = _EVAL3
        stem = self._stem_site
        owner = self._branch_owner
        pin = self._branch_pin
        fault_value = self.fault.value
        in_cone = self._in_cone
        heap = list(seeds)
        heapify(heap)
        last = -1
        while heap:
            out = heappop(heap)
            if out == last:  # a gate queued by several changed inputs
                continue
            last = out
            pos = sched_pos[out]
            ins = operands[pos]
            evaluate = evaluators[ops[pos]]
            good_out = evaluate([good[i] for i in ins])
            if out == stem:
                faulty_out = fault_value
            elif in_cone[out]:
                faulty_ins = [faulty[i] for i in ins]
                if out == owner:
                    faulty_ins[pin] = fault_value
                faulty_out = evaluate(faulty_ins)
            else:
                faulty_out = good_out
            if good_out != good[out] or faulty_out != faulty[out]:
                good[out] = good_out
                faulty[out] = faulty_out
                for reader in readers[out]:
                    heappush(heap, reader)

    def assign(self, net_id: int, value: int) -> None:
        """Set one stimulus net to 0/1 and incrementally re-implicate."""
        self.good[net_id] = value
        self.faulty[net_id] = (
            self.fault.value if net_id == self._stem_site else value
        )
        self._propagate(self.adjacency.comb_readers[net_id])

    def retract(self, net_id: int) -> None:
        """Return one stimulus net to X and incrementally re-implicate."""
        self.good[net_id] = None
        self.faulty[net_id] = (
            self.fault.value if net_id == self._stem_site else None
        )
        self._propagate(self.adjacency.comb_readers[net_id])

    # ------------------------------------------------------------------ #
    # PODEM queries
    # ------------------------------------------------------------------ #
    def is_test(self) -> bool:
        """True when some observation net carries D or D'."""
        good = self.good
        faulty = self.faulty
        for oid in self.observe_ids:
            g = good[oid]
            if g is not None:
                f = faulty[oid]
                if f is not None and f != g:
                    return True
        if self._flop_pseudo:
            g = good[self.site_net_id]
            if g is not None and g != self.fault.value:
                return True
        return False

    def fault_activated(self) -> Optional[bool]:
        """Good value at the fault site vs the stuck value (None while X)."""
        g = self.good[self.site_net_id]
        if g is None:
            return None
        return g != self.fault.value

    def d_frontier(self) -> list[int]:
        """Output IDs of D-frontier gates, in schedule (topological) order."""
        good = self.good
        faulty = self.faulty
        frontier: list[int] = []
        branch_owner = self._branch_owner
        for out, ins in self._frontier_schedule:
            if good[out] is not None and faulty[out] is not None:
                continue
            advanced = False
            for i in ins:
                g = good[i]
                if g is not None:
                    f = faulty[i]
                    if f is not None and f != g:
                        frontier.append(out)
                        advanced = True
                        break
            if advanced:
                continue
            if out == branch_owner:
                site_good = good[ins[self._branch_pin]]
                if site_good is not None and site_good != self.fault.value:
                    frontier.append(out)
        return frontier

    def x_path_exists(self, frontier: Sequence[int]) -> bool:
        """Can a frontier discrepancy still reach an observation net?"""
        good = self.good
        faulty = self.faulty
        observe = self._observe_mask
        feeds_flop_d = self.adjacency.feeds_flop_d
        readers = self.adjacency.comb_readers
        visited = bytearray(self.kernel.num_nets)
        stack = list(frontier)
        while stack:
            nid = stack.pop()
            if visited[nid]:
                continue
            visited[nid] = 1
            if observe[nid] or feeds_flop_d[nid]:
                return True
            for successor in readers[nid]:
                if good[successor] is None or faulty[successor] is None:
                    stack.append(successor)
        return False

    def is_x(self, net_id: int) -> bool:
        """True when the net's composite value is not fully known."""
        return self.good[net_id] is None or self.faulty[net_id] is None

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def values_by_name(self):
        """Name-keyed :class:`~repro.atpg.dcalc.Value5` view of the state.

        Shaped exactly like the reference engine's ``implied_values`` return
        (including the pseudo ``<flop>.D`` net for flop-D-pin branch faults),
        so differential tests can compare the two engines dict-for-dict.
        Diagnostics only -- the search itself never materialises this.
        """
        from .dcalc import value5

        values = {
            name: value5(self.good[nid], self.faulty[nid])
            for nid, name in enumerate(self.kernel.net_names)
        }
        if self._flop_pseudo:
            values[f"{self.fault.gate}.D"] = value5(
                self.good[self.site_net_id], self.fault.value
            )
        return values
