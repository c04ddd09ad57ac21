"""Kernel-indexed composite-valued implication engine for PODEM.

This is the ATPG counterpart of the compiled simulation kernel: the
reference :class:`~repro.oracle.implication.FaultedEvaluator` rebuilds a full
``dict[str, Value5]`` on every PODEM decision.  :class:`CompiledFaultedEvaluator`
lowers the same composite (good/faulty) three-valued implication onto the
shared :class:`~repro.simulation.kernel.CompiledKernel`:

* each net holds one composite code ``3*good + faulty`` over {0, 1, X=2}
  in one flat list indexed by dense net ID,
* a gate is evaluated by one tuple lookup on its input codes, in a
  per-gate-type table built once from the three-valued evaluators below (a
  gate wider than 3 inputs folds them pairwise, then inverts).  Outside the
  fault's cone the faulty component equals the good one, so one lookup
  serves both circuits; only the stem gate and a branch fault's owning gate
  take a special path that injects the stuck value,
* implication is event-driven: one :meth:`~CompiledFaultedEvaluator.apply`
  call sets stimulus nets (one for a PODEM decision; for a backtrack, every
  retracted decision plus the flipped one) and runs one pass that evaluates,
  in topological order, the gates reading a changed net -- on a
  feed-forward netlist exactly the fixpoint the reference engine computes
  from scratch, while a change masked by a controlling input stops at the
  net's direct readers,
* the D-frontier scan and the test check read only the fault site's cone (a
  discrepancy can exist nowhere else),
* the ATPG adjacency (with the per-net gate tables) and the all-X state are
  memoised per kernel in ``CompiledKernel.analysis_cache``.

Equivalence contract: after any sequence of ``apply`` calls the code array
holds exactly the values the reference engine's ``implied_values`` would
produce, and the frontier / X-path / test predicates agree decision for
decision -- ``tests/atpg/test_compiled_podem.py`` asserts this
differentially, so the compiled engine perturbs no generated cube.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import product
from typing import Iterable, Optional, Sequence

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

#: The X component of a composite code ``3*good + faulty``.
X3 = 2
#: Composite code -> True when its good or faulty component is X.
HAS_X: tuple[bool, ...] = tuple(code // 3 == X3 or code % 3 == X3 for code in range(9))
#: Composite code -> True for D (1/0) and D' (0/1).
IS_DISCREPANCY: tuple[bool, ...] = tuple(code in (1, 3) for code in range(9))
#: Component -> its three-valued form (``None`` = X), and back.
_TRIT_VALUE = (0, 1, None)
_TRIT_CODE = {0: 0, 1: 1, None: X3}


def _mux3(v: list) -> Optional[int]:
    sel, a, b = v
    if sel == 0:
        return a
    if sel == 1:
        return b
    return a if a is not None and a == b else None


#: Gate type -> scalar three-valued evaluator over the gate's input values
#: (``None`` = X), semantically identical to
#: :func:`repro.oracle.implication._eval3`; the lookup tables' only input.
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
#: Inverting gate type -> the type whose 2-input table folds a wide gate.
_FOLD_BASE = {GateType.NAND: GateType.AND, GateType.NOR: GateType.OR, GateType.XNOR: GateType.XOR}
_FOLD = 4  # lookup kind of a gate wider than 3 inputs


@lru_cache(maxsize=None)
def _lookup_table(gate_type: GateType, arity: int) -> tuple[int, ...]:
    """Composite output code for every tuple of ``arity`` input codes, indexed
    by the input codes read as a base-9 number (first input most significant)."""
    evaluate = _EVAL3_BY_TYPE[gate_type]
    return tuple(
        3 * _TRIT_CODE[evaluate([_TRIT_VALUE[code // 3] for code in codes])]
        + _TRIT_CODE[evaluate([_TRIT_VALUE[code % 3] for code in codes])]
        for codes in product(range(9), repeat=arity)
    )


def _gate_lookup(op: int, num_inputs: int) -> tuple[int, object]:
    """A gate's ``(kind, table)``: ``kind`` is how many leading input codes
    index ``table`` (0 to 3), or :data:`_FOLD` with ``table`` = (2-input
    table of the non-inverting base type, the gate's own 1-input table)."""
    gate_type = OPCODE_GATE_TYPES[op]
    if gate_type in (GateType.CONST0, GateType.CONST1):
        num_inputs = 0
    elif gate_type in (GateType.NOT, GateType.BUF):
        num_inputs = 1  # only the first input is read
    if num_inputs > 3:
        base = _FOLD_BASE.get(gate_type, gate_type)
        return _FOLD, (_lookup_table(base, 2), _lookup_table(gate_type, 1))
    return num_inputs, _lookup_table(gate_type, num_inputs)


def _evaluate_codes(kind: int, table, codes: Sequence[int]) -> int:
    """One gate's output code from its input codes."""
    if kind == _FOLD:
        fold, post = table
        code = codes[0]
        for other in codes[1:]:
            code = fold[code * 9 + other]
        return post[code]
    index = 0
    for code in codes[:kind]:
        index = index * 9 + code
    return table[index]


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
    gates:
        Per net ID, ``(kind, table, input IDs)`` for a combinational gate's
        output (see :func:`_gate_lookup`), ``None`` for a stimulus net.
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
        self.gates: list[Optional[tuple[int, object, tuple[int, ...]]]] = [None] * kernel.num_nets
        for op, out, ins in zip(kernel.ops, kernel.outs, kernel.operands):
            self.gates[out] = (*_gate_lookup(op, len(ins)), ins)


def atpg_adjacency(kernel: CompiledKernel) -> AtpgAdjacency:
    """The kernel's cached :class:`AtpgAdjacency` (computed once per digest)."""
    adjacency = kernel.analysis_cache.get("atpg_adjacency")
    if adjacency is None:
        adjacency = AtpgAdjacency(kernel)
        kernel.analysis_cache["atpg_adjacency"] = adjacency
    return adjacency


def all_x_state(kernel: CompiledKernel) -> tuple[int, ...]:
    """Fault-free composite codes with every stimulus net at X.

    Every :class:`CompiledFaultedEvaluator` starts from this state: only
    constants and what they alone decide are known.  It does not depend on
    the fault, so it is computed once per kernel (one forward pass) and
    cached via ``analysis_cache``; each evaluator copies it into its own
    code list and injects its fault with one event-driven pass.
    """
    cached = kernel.analysis_cache.get("atpg_all_x_state")
    if cached is None:
        gates = atpg_adjacency(kernel).gates
        codes = [3 * X3 + X3] * kernel.num_nets
        for out in kernel.outs:
            kind, table, ins = gates[out]
            codes[out] = _evaluate_codes(kind, table, [codes[i] for i in ins])
        cached = tuple(codes)
        kernel.analysis_cache["atpg_all_x_state"] = cached
    return cached


# --------------------------------------------------------------------------- #
# The compiled composite evaluator
# --------------------------------------------------------------------------- #
class CompiledFaultedEvaluator:
    """Event-driven good/faulty implication for one stuck-at fault, in ID space.

    The engine holds one persistent composite-code array, ``codes``, and
    counts its gate evaluations in ``gate_evals``; :meth:`apply` updates it
    and every query reads it directly.  All net identities are kernel IDs;
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
        # Where an X-path ends: an observation net or a flop's D net.
        self._sinks = bytearray(self.adjacency.feeds_flop_d)
        for oid in self.observe_ids:
            self._sinks[oid] = 1

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
        # The one gate whose evaluation injects the fault (-1: none).
        self._fault_gate = net_id[fault.gate] if not self._flop_pseudo else -1
        #: Net whose good value decides activation (= ``fault.faulted_net``).
        self.site_net_id: int = net_id[fault.faulted_net(circuit)]

        # The fault's region: the fault site's cone (plus, for a
        # combinational branch fault, the owning gate itself, which precedes
        # its cone in topological order).  Discrepancies cannot exist
        # anywhere else, so the D-frontier scan walks only this region and the
        # test check reads only the observation nets inside it.
        cone_outs: tuple[int, ...] = ()
        if self._stem_site is not None:
            cone_outs = kern.cone_plan(self._stem_site).outs
        elif self._branch_owner is not None:
            cone_outs = (self._branch_owner,) + kern.cone_plan(self._branch_owner).outs
        self._frontier_schedule = tuple(
            (out, kern.operands[kern.sched_pos[out]]) for out in cone_outs
        )
        region = {self._stem_site, *cone_outs}
        self._observed_in_region = tuple(oid for oid in self.observe_ids if oid in region)

        self.codes: list[int] = list(all_x_state(kern))
        self.gate_evals = 0
        if self._stem_site is not None and self.adjacency.stimulus[self._stem_site]:
            self.apply(((self._stem_site, None),))
        elif self._fault_gate >= 0:
            self._propagate((self._fault_gate,))

    # ------------------------------------------------------------------ #
    # Implication
    # ------------------------------------------------------------------ #
    def _inject(self, out: int, code: int) -> int:
        """The fault gate's ``code`` with the stuck value injected: into the
        stem's faulty component, or into the branch owner's faulted input."""
        value = self.fault.value
        if out == self._stem_site:
            return code - code % 3 + value
        kind, table, ins = self.adjacency.gates[out]
        codes = [self.codes[i] for i in ins]
        codes[self._branch_pin] += value - codes[self._branch_pin] % 3
        return _evaluate_codes(kind, table, codes)

    def _propagate(self, seeds: Sequence[int]) -> None:
        """Event-driven re-implication starting at the gates ``seeds``.

        ``seeds`` are gate output IDs.  Net IDs are topological positions,
        so popping the smallest pending ID evaluates each gate once, after
        every input that changed; a gate's readers are queued only when its
        code actually changed.  On a feed-forward netlist this reaches the
        same fixpoint as re-evaluating the whole cone.
        """
        codes = self.codes
        gates = self.adjacency.gates
        readers = self.adjacency.comb_readers
        fault_gate = self._fault_gate
        heap = list(seeds)
        heapify(heap)
        last = -1
        evals = 0
        while heap:
            out = heappop(heap)
            if out == last:  # a gate queued by several changed inputs
                continue
            last = out
            evals += 1
            kind, table, ins = gates[out]
            if kind == 2:  # the bulk of every netlist
                a, b = ins
                code = table[codes[a] * 9 + codes[b]]
            else:
                code = _evaluate_codes(kind, table, [codes[i] for i in ins])
            if out == fault_gate:
                code = self._inject(out, code)
            if code != codes[out]:
                codes[out] = code
                for reader in readers[out]:
                    heappush(heap, reader)
        self.gate_evals += evals

    def apply(self, changes: Iterable[tuple[int, Optional[int]]]) -> None:
        """Set stimulus nets to 0/1 (``None``: back to X) and re-imply once."""
        codes = self.codes
        readers = self.adjacency.comb_readers
        seeds: list[int] = []
        for net_id, value in changes:
            good = X3 if value is None else value
            faulty = self.fault.value if net_id == self._stem_site else good
            codes[net_id] = 3 * good + faulty
            seeds += readers[net_id]
        self._propagate(seeds)

    # ------------------------------------------------------------------ #
    # PODEM queries
    # ------------------------------------------------------------------ #
    def is_test(self) -> bool:
        """True when some observation net carries D or D'."""
        codes = self.codes
        for oid in self._observed_in_region:
            if IS_DISCREPANCY[codes[oid]]:
                return True
        # A flop-D-pin branch fault shows at its pseudo net (good = not stuck).
        return self._flop_pseudo and codes[self.site_net_id] // 3 == 1 - self.fault.value

    def fault_activated(self) -> Optional[bool]:
        """Good value at the fault site vs the stuck value (None while X)."""
        good = self.codes[self.site_net_id] // 3
        if good == X3:
            return None
        return good != self.fault.value

    def d_frontier(self) -> list[int]:
        """Output IDs of D-frontier gates, in schedule (topological) order."""
        codes = self.codes
        frontier: list[int] = []
        branch_owner = self._branch_owner
        for out, ins in self._frontier_schedule:
            if not HAS_X[codes[out]]:
                continue
            for i in ins:
                if IS_DISCREPANCY[codes[i]]:
                    frontier.append(out)
                    break
            else:
                if (
                    out == branch_owner
                    and codes[ins[self._branch_pin]] // 3 == 1 - self.fault.value
                ):
                    frontier.append(out)
        return frontier

    def x_path_exists(self, frontier: Sequence[int]) -> bool:
        """Can a frontier discrepancy still reach an observation net?"""
        codes = self.codes
        sinks = self._sinks
        readers = self.adjacency.comb_readers
        visited: set[int] = set()
        stack = list(frontier)
        while stack:
            nid = stack.pop()
            if nid in visited:
                continue
            visited.add(nid)
            if sinks[nid]:
                return True
            for successor in readers[nid]:
                if HAS_X[codes[successor]]:
                    stack.append(successor)
        return False

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
            name: value5(_TRIT_VALUE[code // 3], _TRIT_VALUE[code % 3])
            for name, code in zip(self.kernel.net_names, self.codes)
        }
        if self._flop_pseudo:
            values[f"{self.fault.gate}.D"] = value5(
                _TRIT_VALUE[self.codes[self.site_net_id] // 3], self.fault.value
            )
        return values
