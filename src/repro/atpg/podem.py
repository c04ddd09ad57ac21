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

Implication runs on the composite-code engine of :mod:`repro.atpg.compiled`:
a decision is one ``apply`` call, and so is a backtrack (it retracts every
popped decision and sets the flipped value in one pass).  The name-keyed
search it replaced is kept as an oracle,
:func:`repro.oracle.podem.generate_reference`: the cubes, backtrack and
decision counts and outcomes of both are identical fault for fault (by
differential test).  The backtrace always descends into the first X input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from ..faults.models import StuckAtFault
from ..netlist.circuit import Circuit
from ..netlist.gates import OP_CONST0, OP_CONST1
from .compiled import HAS_X, INVERTING_OPS, OP_CONTROLLING_VALUE, X3, CompiledFaultedEvaluator


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
        """Fully-specified pattern: unassigned stimulus nets take random values.

        One ``rng.randint(0, 1)`` is drawn for every stimulus net, assigned or
        not (a care bit discards its draw), so the RNG stream does not depend
        on the cube's care bits."""
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

    def generate(self, fault: StuckAtFault) -> AtpgResult:
        """Attempt to generate a test cube for ``fault``."""
        evaluator = CompiledFaultedEvaluator(self.circuit, fault, self.observe_nets)
        kernel = evaluator.kernel
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
                target_net, target_value = self._backtrace_ids(evaluator, *objective)
                if target_net is None:
                    dead_end = True
                else:
                    assignment[target_net] = target_value
                    stack.append((target_net, target_value, False))
                    decisions += 1
                    evaluator.apply(((target_net, target_value),))
                    continue

            # Dead end: retract the flipped decisions, flip the latest unflipped one.
            changes: list[tuple[int, Optional[int]]] = []
            while stack:
                net, value, already_flipped = stack.pop()
                del assignment[net]
                if already_flipped:
                    changes.append((net, None))
                    continue
                backtracks += 1
                if backtracks > self.backtrack_limit:
                    return AtpgResult(AtpgOutcome.ABORTED, None, backtracks, decisions)
                assignment[net] = 1 - value
                stack.append((net, 1 - value, True))
                changes.append((net, 1 - value))
                evaluator.apply(changes)
                break
            else:
                return AtpgResult(AtpgOutcome.UNTESTABLE, None, backtracks, decisions)

    def _objective_ids(
        self,
        evaluator: CompiledFaultedEvaluator,
        fault: StuckAtFault,
        activated: Optional[bool],
        frontier: list[int],
    ) -> Optional[tuple[int, int]]:
        """Classical PODEM objective in ID space (mirrors the oracle search).

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
        # oracle search's ``max`` does).
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
            if HAS_X[evaluator.codes[nid]]:
                return nid, non_controlling
        return None

    def _backtrace_ids(
        self,
        evaluator: CompiledFaultedEvaluator,
        objective_net: int,
        objective_value: int,
    ) -> tuple[Optional[int], int]:
        """Trace the objective back to an unassigned stimulus net (ID space),
        descending into the first X input of each gate."""
        kernel = evaluator.kernel
        codes = evaluator.codes
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
            for nid in kernel.operands[pos]:
                if HAS_X[codes[nid]]:
                    chosen = nid
                    break
            if chosen is None:
                return None, value
            net = chosen
        if codes[net] // 3 != X3:  # the good value is already assigned
            return None, value
        return net, value
