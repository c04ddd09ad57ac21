"""Transition-delay fault simulation for the double-capture (launch-on-capture) scheme.

The at-speed value of the paper's scheme is that the *last shift pulse and the
first capture pulse* create transitions at scan flip-flop outputs, and the
*second capture pulse* samples the response one functional period later
(Fig. 2).  In fault-model terms that is launch-on-capture transition testing:

* launch pattern ``V1`` = scan-loaded flop state + primary-input values,
* capture pattern ``V2`` = the state after the first capture pulse (same PIs),
* a slow-to-rise fault at net *n* is detected by the pair when *n* is 0 under
  ``V1``, 1 under ``V2``, and the corresponding stuck-at-0 fault at *n* is
  detected (observable) under ``V2``.

This module derives ``V2`` from ``V1`` for an arbitrary per-domain capture
order (so the staggered multi-domain capture of Fig. 2 is modelled faithfully)
and reuses the stuck-at PPSFP engine for the observability part.

Like the stuck-at engine, the simulator runs on the compiled integer-indexed
kernel: launch/capture good values are flat ``list[int]`` tables, and each
fault is resolved once per scan to its faulted net ID and the stuck-at table
row of its equivalent stuck-at fault, whose detection the stuck-at engine
computes in ID space -- no name-keyed dict or fault object per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ..netlist.circuit import Circuit
from ..simulation.kernel import CompiledKernel, shared_kernel
from ..simulation.numpy_backend import (
    NUMPY_BACKEND,
    PYTHON_BACKEND,
    np as _np,
    plane_to_word,
    width_cache,
    words_for,
)
from ..simulation.packed import DEFAULT_BLOCK_SIZE, PatternBlock, iter_blocks, mask_for
from .fault_list import FaultList
from .fault_sim import FaultSimulator, check_strict_patterns
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


@dataclass(frozen=True)
class TransitionSimShardState:
    """Pickleable shard state for campaign fan-out of transition-fault simulation.

    Mirrors :class:`~repro.faults.fault_sim.FaultSimShardState`: a worker
    process rebuilds the full launch-on-capture engine (compiled kernel plus
    stuck-at observability machinery) from the circuit, the observation nets,
    and the faults (every fault in canonical order, or one shard's own).
    """

    circuit: Circuit
    observe_nets: tuple[str, ...]
    faults: tuple[TransitionFault, ...]
    #: Execution backend the shard worker compiles ("python" or "numpy").
    sim_backend: str = PYTHON_BACKEND
    #: Peak scan-memory budget every pooled worker obeys (numpy backend;
    #: ``None`` = unbounded), mirroring ``FaultSimShardState``.
    sim_memory_budget_mb: Optional[float] = None

    def build_simulator(self) -> "TransitionFaultSimulator":
        """Compile a fresh :class:`TransitionFaultSimulator` for this state."""
        return TransitionFaultSimulator(
            self.circuit,
            list(self.observe_nets),
            backend=self.sim_backend,
            memory_budget_mb=self.sim_memory_budget_mb,
        )


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


class _NumpyPairScan:
    """Compiled launch/capture scan state for one canonical transition order.

    Activation is vectorised across faults (one gather of the launch and
    capture site rows plus a select on the slow-to-rise mask); observability
    reuses the stuck-at engine's fault-vectorised scan over the equivalent
    stuck-at fault IDs, compiled positionally so duplicate equivalents are
    harmless.
    """

    def __init__(self, simulator: "TransitionFaultSimulator", order: tuple) -> None:
        stuck_ids, site_ids, slow_to_rise = order
        self.stuck_scan = simulator.stuck_engine._numpy_scan(stuck_ids)
        self.np_kernel = self.stuck_scan.nk
        self.site_ids = _np.array(site_ids, dtype=_np.intp)
        self.slow_to_rise = _np.array(slow_to_rise, dtype=bool)
        # Per-width launch tables, bounded to the two most-recent widths so
        # a session mixing block sizes never holds every width it touched.
        self._launch_tables = width_cache()

    def launch_table_for(self, num_words: int):
        """The (cached) launch-value bit-plane table for one width."""
        return self._launch_tables.get_or_build(
            num_words, lambda: self.np_kernel.make_table(num_words)
        )

    def activation_planes(self, launch_table, capture_table, mask_plane):
        """Per-fault activation rows: launch/capture transition at the site."""
        launch = launch_table[self.site_ids]
        capture = capture_table[self.site_ids]
        rise = ~launch & capture
        fall = launch & ~capture
        return _np.where(self.slow_to_rise[:, None], rise, fall) & mask_plane


class TransitionFaultSimulator:
    """Launch-on-capture transition fault simulator built on the stuck-at engine.

    ``backend`` mirrors :class:`~repro.faults.fault_sim.FaultSimulator`:
    ``"python"`` (default oracle) or ``"numpy"`` (vectorised activation plus
    the fault-vectorised stuck-at observability scan); detection results are
    bit-identical across backends.  A transition fault is resolved once per
    scan to its faulted net ID, its direction and the stuck-at table ID of
    its equivalent stuck-at fault.
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
        # Most-recently compiled numpy pair-scan state: (order, scan).
        self._np_pair_scan: Optional[tuple[tuple, _NumpyPairScan]] = None

    def add_observation_net(self, net: str) -> None:
        """Add an observation point (shared with the stuck-at engine)."""
        self.stuck_engine.add_observation_net(net)
        self._np_pair_scan = None

    def _resolve(self, faults: Iterable[TransitionFault]) -> tuple:
        """``(equivalent stuck-at IDs, faulted net IDs, slow-to-rise flags)``."""
        table = self.stuck_engine.table
        net_id = self.stuck_engine.kernel.net_id
        stuck_ids, site_ids, rises = [], [], []
        for fault in faults:
            gid = net_id[fault.gate]
            fid = table.find(gid, fault.pin, fault.initial_value)
            if fid is None:
                fid = table.id_of(fault.equivalent_stuck_at())
            stuck_ids.append(fid)
            site_ids.append(table.faulted_net(fid))
            rises.append(fault.slow_to_rise)
        return tuple(stuck_ids), tuple(site_ids), tuple(rises)

    def _numpy_pair_scan(self, order: tuple) -> _NumpyPairScan:
        cached = self._np_pair_scan
        if cached is not None and cached[0] == order:
            return cached[1]
        scan = _NumpyPairScan(self, order)
        self._np_pair_scan = (order, scan)
        return scan

    def _np_pair_pass(
        self,
        scan: _NumpyPairScan,
        launch_block: PatternBlock,
        capture_block: PatternBlock,
    ):
        """Load and forward-evaluate one launch/capture block pair.

        The single home of the numpy pair-block setup (see
        :meth:`_numpy_pairs`).  The capture values land in the stuck scan's
        table (good rows + cone slots), the launch values in a plain
        net-rows table.
        """
        num = launch_block.num_patterns
        mask = mask_for(num)
        num_words = words_for(num)
        np_kernel = scan.np_kernel
        mask_plane = np_kernel.mask_plane(mask, num_words)
        capture_table = scan.stuck_scan.table_for(num_words)
        np_kernel.set_stimulus(capture_table, capture_block.assignments, mask, num_words)
        np_kernel.evaluate(capture_table, mask_plane)
        launch_table = scan.launch_table_for(num_words)
        np_kernel.set_stimulus(launch_table, launch_block.assignments, mask, num_words)
        np_kernel.evaluate(launch_table, mask_plane)
        return launch_table, capture_table, mask_plane, num_words

    def _numpy_pairs(self, order: tuple, pairs, drop_detected: bool = True):
        """Per (launch, capture) block pair: ``(patterns, [(index into the
        order, first bit)])``.  Activation rows are computed for the whole
        canonical order, faults with a live transition feed the vectorised
        stuck-at observability scan, and the per-fault detection masks
        (activation AND observation) are bit-identical to
        :meth:`_python_pairs`."""
        scan = None
        active = list(range(len(order[0])))
        for launch_block, capture_block in pairs:
            if scan is None:
                scan = self._numpy_pair_scan(order)
                scan.stuck_scan.ensure_live(active)
            launch_table, capture_table, mask_plane, num_words = self._np_pair_pass(
                scan, launch_block, capture_block
            )
            activation = scan.activation_planes(launch_table, capture_table, mask_plane)
            activated = activation.any(axis=1)
            candidates = [position for position in active if activated[position]]
            if candidates:
                rows, resim_evals = scan.stuck_scan.scan_positions(
                    capture_table, mask_plane, num_words, candidates
                )
                self.stuck_engine.gate_evals += resim_evals
            else:
                rows = {}
            detections: list[tuple[int, int]] = []
            still_active: list[int] = []
            for position in active:
                row = rows.get(position) if activated[position] else None
                detection = (
                    plane_to_word(activation[position] & row) if row is not None else 0
                )
                if detection:
                    detections.append((position, (detection & -detection).bit_length() - 1))
                    if not drop_detected:
                        still_active.append(position)
                else:
                    still_active.append(position)
            active = still_active
            yield launch_block.num_patterns, detections

    def _python_pairs(self, order: tuple, pairs, drop_detected: bool = True):
        """The python backend form of :meth:`_numpy_pairs`: per active fault,
        the activation word at its site AND the stuck-at engine's detection
        mask of its equivalent stuck-at fault."""
        stuck = self.stuck_engine
        spec = stuck.table.spec
        active = [
            (index, site_id, rise, spec(fid))
            for index, (fid, site_id, rise) in enumerate(zip(*order))
        ]
        kernel = stuck.kernel
        good_launch = kernel.make_table()
        good_capture = kernel.make_table()
        for launch_block, capture_block in pairs:
            num = launch_block.num_patterns
            mask = mask_for(num)
            kernel.set_stimulus(good_launch, launch_block.assignments, mask)
            kernel.evaluate(good_launch, mask)
            kernel.set_stimulus(good_capture, capture_block.assignments, mask)
            kernel.evaluate(good_capture, mask)
            detections: list[tuple[int, int]] = []
            still_active = []
            for entry in active:
                index, site_id, rise, spec = entry
                launch_value = good_launch[site_id]
                capture_value = good_capture[site_id]
                if rise:
                    activation = (~launch_value & capture_value) & mask
                else:
                    activation = (launch_value & ~capture_value) & mask
                detection = (
                    activation & stuck._detection(spec, good_capture, mask)
                    if activation
                    else 0
                )
                if detection:
                    detections.append((index, (detection & -detection).bit_length() - 1))
                    if not drop_detected:
                        still_active.append(entry)
                else:
                    still_active.append(entry)
            active = still_active
            yield num, detections

    def simulate_pairs(
        self,
        fault_list: FaultList,
        launch_patterns: Sequence[Mapping[str, int]],
        capture_patterns: Sequence[Mapping[str, int]],
        block_size: int = DEFAULT_BLOCK_SIZE,
        drop_detected: bool = True,
        pattern_offset: int = 0,
        strict: bool = False,
    ) -> TransitionSimulationResult:
        """Simulate aligned launch/capture pattern pairs against transition faults.

        ``launch_patterns[i]`` and ``capture_patterns[i]`` form pair *i*.
        With ``strict``, any launch or capture pattern that assigns a
        non-stimulus net (a misspelled name) *or* omits a stimulus net --
        either of which would otherwise silently read as 0 and fake a
        transition -- raises
        :class:`~repro.simulation.kernel.StrictStimulusError`.
        """
        if len(launch_patterns) != len(capture_patterns):
            raise ValueError("launch and capture pattern lists must have equal length")
        if strict:
            check_strict_patterns(
                self.circuit, launch_patterns, require_complete=True, label="launch pattern"
            )
            check_strict_patterns(
                self.circuit, capture_patterns, require_complete=True, label="capture pattern"
            )
        result = TransitionSimulationResult(fault_list, len(launch_patterns))
        undetected = fault_list.undetected_positions()
        faults = fault_list.faults_at(undetected)
        positions = [
            p for p, fault in zip(undetected, faults) if isinstance(fault, TransitionFault)
        ]
        order = self._resolve(f for f in faults if isinstance(f, TransitionFault))
        stimulus_nets = self.circuit.stimulus_nets()
        pairs = zip(
            iter_blocks(launch_patterns, block_size=block_size, nets=stimulus_nets),
            iter_blocks(capture_patterns, block_size=block_size, nets=stimulus_nets),
        )
        scan = self._numpy_pairs if self.backend == NUMPY_BACKEND else self._python_pairs
        simulated = 0
        for num, detections in scan(order, pairs, drop_detected):
            for index, first_bit in detections:
                fault_list.mark_detected_at(
                    positions[index], pattern_offset + simulated + first_bit
                )
            simulated += num
            result.coverage_curve.append((pattern_offset + simulated, fault_list.coverage()))
        return result

    # ------------------------------------------------------------------ #
    # Sharded-campaign primitives
    # ------------------------------------------------------------------ #
    def first_detections(
        self,
        faults: Sequence[TransitionFault],
        pair_blocks: Iterable[tuple[int, PatternBlock, PatternBlock]],
    ) -> dict[int, int]:
        """First-detection scan over packed launch/capture block pairs.

        ``pair_blocks`` is a stream of ``(global pair offset, launch block,
        capture block)`` triples; results are keyed by the fault's index in
        ``faults``.  Per-fault results are independent of every other fault,
        so fault sharding plus min-merge reproduces the serial pair
        simulation bit for bit (the shard primitive of the campaign runner).
        """
        order = self._resolve(faults)
        scan = self._numpy_pairs if self.backend == NUMPY_BACKEND else self._python_pairs
        detections: dict[int, int] = {}
        remaining = len(order[0])
        offsets = []

        def stream():
            for offset, launch_block, capture_block in pair_blocks:
                if len(detections) == remaining:
                    return
                if launch_block.num_patterns != capture_block.num_patterns:
                    raise ValueError("launch and capture blocks must pair up 1:1")
                offsets.append(offset)
                yield launch_block, capture_block

        for _num, found in scan(order, stream()):
            for index, first_bit in found:
                detections[index] = offsets[-1] + first_bit
        return detections
