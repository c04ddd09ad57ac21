"""Transition-delay fault simulation for the double-capture (launch-on-capture) scheme.

The at-speed value of the paper's scheme is that the *last shift pulse and the
first capture pulse* create transitions at scan flip-flop outputs, and the
*second capture pulse* samples the response one functional period later
(Fig. 2).  In fault-model terms that is launch-on-capture transition testing:

* launch pattern ``V1`` = scan-loaded flop state + primary-input values,
* capture pattern ``V2`` = the state the pulse order's capture pulses leave
  in the flops (same PIs; :func:`derive_capture_block`),
* a slow-to-rise fault at net *n* is detected by the pair when *n* is 0 under
  ``V1``, 1 under ``V2``, and the corresponding stuck-at-0 fault at *n* is
  detected (observable) under ``V2``.

This module derives ``V2`` from ``V1`` for an arbitrary per-domain capture
order (so the staggered multi-domain capture of Fig. 2 is modelled faithfully).
Detection needs no second engine: a transition fault *is* one row of the
circuit's stuck-at table -- the row of its equivalent stuck-at fault, whose
stuck value is the launch value (s-a-0 for slow-to-rise) and whose faulted
net is the transition's site.  So :class:`TransitionFaultSimulator` resolves
faults to rows and runs the stuck-at engine's drop loop of either backend
over ``(launch, capture)`` block pairs, where a row's detection mask under
the capture block is ANDed with its activation (the transition at its site
from launch to capture) instead of the block mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ..netlist.circuit import Circuit
from ..simulation.kernel import CompiledKernel, shared_kernel
from ..simulation.numpy_backend import PYTHON_BACKEND
from ..simulation.packed import DEFAULT_BLOCK_SIZE, PatternBlock, iter_blocks, mask_for
from .fault_list import FaultList
from .fault_sim import FaultSimShardState, FaultSimulator
from .models import TransitionFault


#: Per pulse group: the (flop Q net ID, flop D net ID) pairs the pulse updates.
GroupUpdates = list[list[tuple[int, int]]]


def capture_group_updates(
    kernel: CompiledKernel,
    pulse_order: Optional[Sequence[Sequence[str]]] = None,
) -> GroupUpdates:
    """Resolve a capture pulse order to the flop updates of each pulse group.

    ``pulse_order`` lists the ordered groups of clock domains receiving their
    *first* capture pulse, e.g. ``[["clk1"], ["clk2"]]`` for the staggered
    two-domain capture of Fig. 2; ``None`` pulses every domain
    simultaneously.  Every flop captures, input wrapper cells included:
    they capture the statically driven pad value at the launch pulse like
    every other flop.  The result is what :func:`derive_capture_block`
    applies.
    """
    circuit = kernel.circuit
    if pulse_order is None:
        pulse_order = [circuit.clock_domains()]
    net_id = kernel.net_id
    # One pass over the gates buckets the updates by domain; a group of
    # several domains merges its buckets back into insertion order.
    by_domain: dict[str, list[tuple[int, int, int]]] = {}
    for position, flop in enumerate(circuit.flops()):
        by_domain.setdefault(flop.clock_domain, []).append(
            (position, net_id[flop.name], net_id[flop.inputs[0]])
        )
    return [
        [
            (q_id, d_id)
            for _, q_id, d_id in sorted(
                update for domain in set(group) for update in by_domain.get(domain, ())
            )
        ]
        for group in pulse_order
    ]


def derive_capture_block(
    kernel: CompiledKernel,
    launch_block: PatternBlock,
    group_updates: GroupUpdates,
) -> PatternBlock:
    """The packed capture-cycle stimulus of one packed launch block.

    The single home of the pulse semantics: the launch words are
    loaded into a fresh kernel table, then each pulse group evaluates the
    combinational logic and moves its flops' D values onto their Q nets, so
    a later group sees the already-updated state of an earlier group.  The
    returned block holds every stimulus net (same primary inputs, captured
    flop outputs), in stimulus order.
    """
    num = launch_block.num_patterns
    mask = mask_for(num)
    table = kernel.make_table()
    kernel.set_stimulus(table, launch_block.assignments, mask)
    for updates in group_updates:
        kernel.evaluate(table, mask)
        # Snapshot the captured D values before applying them, so chained
        # flops within one pulse group capture the pre-pulse state.
        captured = [(q_id, table[d_id]) for q_id, d_id in updates]
        for q_id, word in captured:
            table[q_id] = word
    return PatternBlock(
        {
            net: table[nid]
            for net, nid in zip(kernel.stimulus_names, kernel.stimulus_ids)
        },
        num,
    )


def derive_pair_blocks(
    circuit: Circuit,
    launch_blocks: Iterable[PatternBlock],
    pulse_order: Optional[Sequence[Sequence[str]]] = None,
) -> tuple[tuple[int, PatternBlock, PatternBlock], ...]:
    """Packed launch blocks -> ``(offset, launch, capture)`` pair triples.

    Equal to packing a launch list and its capture list (as derived by the
    per-pattern oracle :func:`repro.oracle.transition.derive_capture_patterns`)
    block by block, without building a per-pattern dict: each launch
    block is restricted to the stimulus nets (missing nets read 0, as when a
    pattern list is packed) and its capture block is derived in place.
    """
    kernel = shared_kernel(circuit)
    group_updates = capture_group_updates(kernel, pulse_order)
    pair_blocks: list[tuple[int, PatternBlock, PatternBlock]] = []
    cursor = 0
    for block in launch_blocks:
        words = block.assignments
        launch = PatternBlock(
            {net: words.get(net, 0) for net in kernel.stimulus_names},
            block.num_patterns,
        )
        pair_blocks.append(
            (cursor, launch, derive_capture_block(kernel, launch, group_updates))
        )
        cursor += block.num_patterns
    return tuple(pair_blocks)


#: Journals of older code pickle transition shard states under this name.
TransitionSimShardState = FaultSimShardState


@dataclass
class TransitionSimulationResult:
    """Outcome of a transition-fault campaign."""

    fault_list: FaultList
    pairs_simulated: int
    coverage_curve: list[tuple[int, float]] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Final transition-fault coverage in [0, 1]."""
        return self.fault_list.coverage()


class TransitionFaultSimulator:
    """Launch-on-capture transition fault simulator on the stuck-at engine.

    ``backend`` mirrors :class:`~repro.faults.fault_sim.FaultSimulator`:
    ``"python"`` (default oracle) or ``"numpy"``; detection results are
    bit-identical across backends.  A transition fault is scanned as the
    stuck-at table row of its equivalent stuck-at fault
    (:meth:`~repro.faults.fault_list.StuckAtTable.id_of` reads its launch
    value as the stuck value).
    """

    def __init__(
        self,
        circuit: Circuit,
        observe_nets: Optional[Sequence[str]] = None,
        backend: str = PYTHON_BACKEND,
        memory_budget_mb: Optional[float] = None,
    ) -> None:
        self.circuit = circuit
        self.stuck_engine = FaultSimulator(
            circuit, observe_nets, backend=backend,
            memory_budget_mb=memory_budget_mb,
        )
        self.backend = self.stuck_engine.backend

    @property
    def gate_evals(self) -> int:
        """Gate evaluations of the embedded stuck-at engine."""
        return self.stuck_engine.gate_evals

    def simulate_pairs(
        self,
        fault_list: FaultList,
        launch_patterns: Sequence[Mapping[str, int]],
        capture_patterns: Sequence[Mapping[str, int]],
        block_size: int = DEFAULT_BLOCK_SIZE,
        drop_detected: bool = True,
        pattern_offset: int = 0,
    ) -> TransitionSimulationResult:
        """Simulate aligned launch/capture pattern pairs against the list's
        undetected transition faults.

        ``launch_patterns[i]`` and ``capture_patterns[i]`` form pair *i*;
        :func:`repro.oracle.patterns.check_strict_patterns` validates a
        hand-built list first.
        """
        if len(launch_patterns) != len(capture_patterns):
            raise ValueError("launch and capture pattern lists must have equal length")
        undetected = fault_list.undetected_positions()
        positions = [
            position
            for position, fault in zip(undetected, fault_list.faults_at(undetected))
            if isinstance(fault, TransitionFault)
        ]
        stimulus_nets = self.circuit.stimulus_nets()
        pairs = zip(
            iter_blocks(launch_patterns, block_size=block_size, nets=stimulus_nets),
            iter_blocks(capture_patterns, block_size=block_size, nets=stimulus_nets),
        )
        result = self.stuck_engine.simulate_list(
            fault_list, positions, pairs, drop_detected, pattern_offset
        )
        return TransitionSimulationResult(
            fault_list, len(launch_patterns), result.coverage_curve
        )

    # ------------------------------------------------------------------ #
    # Sharded-campaign primitives
    # ------------------------------------------------------------------ #
    def first_detections(
        self,
        faults: Sequence[int],
        pair_blocks: Iterable[tuple[int, PatternBlock, PatternBlock]],
    ) -> dict[int, int]:
        """First-detection scan over packed launch/capture block pairs.

        ``faults`` are the stuck-at table rows of transition faults and
        ``pair_blocks`` is a stream of ``(global pair offset, launch block,
        capture block)`` triples; results are keyed by the fault's index in
        ``faults``, as for
        :meth:`~repro.faults.fault_sim.FaultSimulator.first_detections`.
        """

        def checked():
            for offset, launch_block, capture_block in pair_blocks:
                if launch_block.num_patterns != capture_block.num_patterns:
                    raise ValueError("launch and capture blocks must pair up 1:1")
                yield offset, launch_block, capture_block

        return self.stuck_engine.first_detections_over(faults, checked())
