"""PODEM (Path-Oriented DEcision Making) deterministic test generation.

The paper's flow closes the coverage gap left by 20 K random patterns with a
small number of deterministic *top-up* patterns (135 for Core X, 528 for
Core Y).  Those patterns come from an ATPG engine; this module implements the
classical PODEM algorithm on the full-scan combinational view:

1. pick an *objective* -- first activate the fault, then advance the
   D-frontier through a gate by setting one of its X inputs to the gate's
   non-controlling value,
2. *backtrace* the objective to an unassigned stimulus net through X-valued
   nets, complementing the target value through inverting gates,
3. assign that stimulus net, run the implication engine, and check for a test
   / prune with the X-path check,
4. on a dead end, flip the most recent unflipped decision (backtrack).

The search is bounded by a backtrack limit; exceeding it marks the fault
*aborted*, while exhausting the decision tree proves the fault *untestable*.

Two implication engines execute the same search:

* ``engine="compiled"`` (the default) runs on the kernel-indexed
  event-driven engine of :mod:`repro.atpg.compiled` -- flat ID arrays,
  re-implication of only the gates whose inputs changed, interned
  frontier/X-path checks.  Its decisions (and hence its cubes, backtrack
  counts and outcomes) are identical to the reference engine's by
  construction and by differential test.
* ``engine="reference"`` runs on the original name-keyed
  :class:`~repro.atpg.implication.FaultedEvaluator`, preserved as the
  bit-exactness oracle and benchmark baseline.

``backtrace="scoap"`` additionally switches the backtrace heuristic from
"first X input" to SCOAP-guided easiest-to-justify input selection; the
guidance tables are precomputed once per compiled kernel
(:func:`repro.atpg.compiled.scoap_guidance`) and shared across faults.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from ..faults.models import StuckAtFault
from ..netlist.circuit import Circuit
from ..netlist.gates import CONTROLLING_VALUE, GateType, OP_CONST0, OP_CONST1
from .implication import FaultedEvaluator
from .compiled import (
    INVERTING_OPS,
    OP_CONTROLLING_VALUE,
    CompiledFaultedEvaluator,
    scoap_guidance,
)
from .dcalc import Value5

#: Supported implication engines.
COMPILED_ENGINE = "compiled"
REFERENCE_ENGINE = "reference"

#: Supported backtrace heuristics ("first_x" is the classical deterministic
#: choice and the oracle-identical default; "scoap" is guided).
BACKTRACE_FIRST_X = "first_x"
BACKTRACE_SCOAP = "scoap"


class AtpgOutcome(enum.Enum):
    """Result classification for one ATPG attempt."""

    #: A test cube was found.
    SUCCESS = "success"
    #: The decision tree was exhausted: the fault is untestable (redundant).
    UNTESTABLE = "untestable"
    #: The backtrack limit was hit before a conclusion.
    ABORTED = "aborted"


@dataclass
class TestCube:
    """A (partially specified) test: stimulus net -> 0/1 for assigned nets only."""

    #: Tell pytest this is not a test class despite the name.
    __test__ = False

    assignments: dict[str, int]
    fault: StuckAtFault

    def specified_bits(self) -> int:
        """Number of care bits."""
        return len(self.assignments)

    def conflicts_with(self, other: "TestCube") -> bool:
        """True when the two cubes assign some net to opposite values."""
        small, large = (
            (self.assignments, other.assignments)
            if len(self.assignments) <= len(other.assignments)
            else (other.assignments, self.assignments)
        )
        return any(net in large and large[net] != value for net, value in small.items())

    def merged_with(self, other: "TestCube") -> "TestCube":
        """Union of two compatible cubes (caller must check compatibility)."""
        merged = dict(self.assignments)
        merged.update(other.assignments)
        return TestCube(merged, self.fault)

    def fill_random(self, rng, stimulus_nets: Sequence[str]) -> dict[str, int]:
        """Fully-specified pattern: unassigned stimulus nets take random values."""
        return {
            net: self.assignments.get(net, rng.randint(0, 1)) for net in stimulus_nets
        }


@dataclass
class AtpgResult:
    """Outcome of one :meth:`PodemAtpg.generate` call."""

    outcome: AtpgOutcome
    cube: Optional[TestCube] = None
    backtracks: int = 0
    decisions: int = 0


@dataclass
class PodemAtpg:
    """PODEM test generator over a full-scan combinational circuit view."""

    circuit: Circuit
    observe_nets: Optional[Sequence[str]] = None
    backtrack_limit: int = 200
    #: Implication engine: "compiled" (kernel-indexed, default) or
    #: "reference" (name-keyed oracle).
    engine: str = COMPILED_ENGINE
    #: Backtrace heuristic: "first_x" (oracle-identical) or "scoap" (guided).
    backtrace: str = BACKTRACE_FIRST_X

    def generate(self, fault: StuckAtFault) -> AtpgResult:
        """Attempt to generate a test cube for ``fault``."""
        if self.engine == REFERENCE_ENGINE:
            return self._generate_reference(fault)
        if self.engine != COMPILED_ENGINE:
            raise ValueError(f"unknown ATPG engine {self.engine!r}")
        return self._generate_compiled(fault)

    # ------------------------------------------------------------------ #
    # Compiled (kernel-indexed) search
    # ------------------------------------------------------------------ #
    def _generate_compiled(self, fault: StuckAtFault) -> AtpgResult:
        if self.backtrace not in (BACKTRACE_FIRST_X, BACKTRACE_SCOAP):
            raise ValueError(f"unknown backtrace heuristic {self.backtrace!r}")
        evaluator = CompiledFaultedEvaluator(self.circuit, fault, self.observe_nets)
        kernel = evaluator.kernel
        guidance = (
            scoap_guidance(kernel) if self.backtrace == BACKTRACE_SCOAP else None
        )
        assignment: dict[int, int] = {}
        # Decision stack entries: (net ID, value, already_flipped).
        stack: list[tuple[int, int, bool]] = []
        backtracks = 0
        decisions = 0

        while True:
            if evaluator.is_test():
                names = kernel.net_names
                cube = TestCube(
                    {names[nid]: value for nid, value in assignment.items()}, fault
                )
                return AtpgResult(AtpgOutcome.SUCCESS, cube, backtracks, decisions)

            # One activation / frontier evaluation per decision, shared by
            # the objective and the dead-end checks.  (An unactivated fault
            # yields no objective; is_test() is False past the check above.)
            activated = evaluator.fault_activated()
            frontier = evaluator.d_frontier() if activated is not False else []
            objective = self._objective_ids(evaluator, fault, activated, frontier)
            dead_end = objective is None
            if not dead_end:
                if activated is True and not frontier:
                    # Fault activated but the discrepancy vanished entirely.
                    dead_end = True
                elif frontier and not evaluator.x_path_exists(frontier):
                    dead_end = True

            if not dead_end:
                target_net, target_value = self._backtrace_ids(
                    evaluator, guidance, *objective
                )
                if target_net is None:
                    dead_end = True
                else:
                    assignment[target_net] = target_value
                    stack.append((target_net, target_value, False))
                    decisions += 1
                    evaluator.assign(target_net, target_value)
                    continue

            # Dead end: backtrack.
            flipped = False
            while stack:
                net, value, already_flipped = stack.pop()
                del assignment[net]
                evaluator.retract(net)
                if not already_flipped:
                    backtracks += 1
                    if backtracks > self.backtrack_limit:
                        return AtpgResult(AtpgOutcome.ABORTED, None, backtracks, decisions)
                    assignment[net] = 1 - value
                    stack.append((net, 1 - value, True))
                    evaluator.assign(net, 1 - value)
                    flipped = True
                    break
            if not flipped:
                return AtpgResult(AtpgOutcome.UNTESTABLE, None, backtracks, decisions)

    def _objective_ids(
        self,
        evaluator: CompiledFaultedEvaluator,
        fault: StuckAtFault,
        activated: Optional[bool],
        frontier: list[int],
    ) -> Optional[tuple[int, int]]:
        """Classical PODEM objective in ID space (mirrors the reference).

        ``activated`` and ``frontier`` are the evaluator's current
        ``fault_activated()`` and ``d_frontier()``.
        """
        if activated is None:
            # Drive the fault site to the complement of the stuck value.
            return evaluator.site_net_id, 1 - fault.value
        if activated is False or not frontier:
            return None
        # Advance the frontier gate closest to an observation net (deepest
        # level; ties resolve to the first in schedule order, exactly as the
        # reference engine's ``max`` does).
        levels = evaluator.kernel.net_levels
        gate_id = frontier[0]
        best_level = levels[gate_id]
        for candidate in frontier[1:]:
            if levels[candidate] > best_level:
                gate_id = candidate
                best_level = levels[candidate]
        kernel = evaluator.kernel
        pos = kernel.sched_pos[gate_id]
        op = kernel.ops[pos]
        control = OP_CONTROLLING_VALUE.get(op)
        non_controlling = 1 - control if control is not None else 1
        for nid in kernel.operands[pos]:
            if evaluator.is_x(nid):
                return nid, non_controlling
        return None

    def _backtrace_ids(
        self,
        evaluator: CompiledFaultedEvaluator,
        guidance: Optional[tuple[tuple[int, ...], tuple[int, ...]]],
        objective_net: int,
        objective_value: int,
    ) -> tuple[Optional[int], int]:
        """Trace the objective back to an unassigned stimulus net (ID space).

        ``guidance`` is ``None`` for the classical first-X-input descent or
        the per-kernel ``(cc0, cc1)`` SCOAP arrays for guided descent (pick
        the X input whose required value is cheapest to justify).
        """
        kernel = evaluator.kernel
        stimulus = evaluator.adjacency.stimulus
        sched_pos = kernel.sched_pos
        net, value = objective_net, objective_value
        guard = 0
        max_steps = kernel.num_nets + 10
        while not stimulus[net]:
            guard += 1
            if guard > max_steps:
                return None, value
            pos = sched_pos.get(net)
            if pos is None:
                return None, value
            op = kernel.ops[pos]
            if op == OP_CONST0 or op == OP_CONST1:
                return None, value
            if op in INVERTING_OPS:
                value = 1 - value
            chosen: Optional[int] = None
            if guidance is None:
                for nid in kernel.operands[pos]:
                    if evaluator.is_x(nid):
                        chosen = nid
                        break
            else:
                cc = guidance[value]
                best_cost: Optional[int] = None
                for nid in kernel.operands[pos]:
                    if evaluator.is_x(nid) and (
                        best_cost is None or cc[nid] < best_cost
                    ):
                        chosen = nid
                        best_cost = cc[nid]
            if chosen is None:
                return None, value
            net = chosen
        if evaluator.good[net] is not None:
            return None, value
        return net, value

    # ------------------------------------------------------------------ #
    # Reference (name-keyed) search -- the preserved oracle
    # ------------------------------------------------------------------ #
    def _generate_reference(self, fault: StuckAtFault) -> AtpgResult:
        evaluator = FaultedEvaluator(self.circuit, fault, self.observe_nets)
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

            objective = self._objective(evaluator, values, fault)
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
                target_net, target_value = self._backtrace(evaluator, values, *objective)
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
                    if backtracks > self.backtrack_limit:
                        return AtpgResult(AtpgOutcome.ABORTED, None, backtracks, decisions)
                    assignment[net] = 1 - value
                    stack.append((net, 1 - value, True))
                    values = evaluator.implied_values(assignment)
                    flipped = True
                    break
            if not flipped:
                return AtpgResult(AtpgOutcome.UNTESTABLE, None, backtracks, decisions)

    # ------------------------------------------------------------------ #
    # Objective selection
    # ------------------------------------------------------------------ #
    def _objective(
        self,
        evaluator: FaultedEvaluator,
        values: dict[str, Value5],
        fault: StuckAtFault,
    ) -> Optional[tuple[str, int]]:
        """Classical PODEM objective: activate the fault, then advance the D-frontier."""
        activated = evaluator.fault_activated(values)
        if activated is None:
            # Drive the fault site to the complement of the stuck value.
            return fault.faulted_net(self.circuit), 1 - fault.value
        if activated is False:
            return None
        frontier = evaluator.d_frontier(values)
        if not frontier:
            return None
        # Advance the frontier gate closest to an observation net (approximated
        # by the deepest level, which tends to be nearest the outputs).
        levels = self.circuit.levels()
        gate_name = max(frontier, key=lambda name: levels.get(name, 0))
        gate = self.circuit.gate(gate_name)
        control = CONTROLLING_VALUE.get(gate.gate_type)
        non_controlling = 1 - control if control is not None else 1
        for net in gate.inputs:
            value = values[net]
            if value.good is None or value.faulty is None:
                return net, non_controlling
        return None

    # ------------------------------------------------------------------ #
    # Backtrace
    # ------------------------------------------------------------------ #
    def _backtrace(
        self,
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
        max_steps = len(self.circuit) + 10
        while net not in stimulus:
            guard += 1
            if guard > max_steps:
                return None, value
            gate = self.circuit.gate(net)
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
