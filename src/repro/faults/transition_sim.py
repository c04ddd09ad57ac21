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
kernel: launch/capture good values are flat ``list[int]`` tables, fault sites
are pre-resolved to net IDs, and observability checks go through
:meth:`~repro.faults.fault_sim.FaultSimulator.detection_mask_ids` so no
name-keyed dict is built per block.
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
    hold_cells: Optional[Sequence[str]] = None,
) -> GroupUpdates:
    """Resolve a capture pulse order to the flop updates of each pulse group.

    ``pulse_order`` and ``hold_cells`` mean what they mean for
    :func:`derive_capture_patterns`; the result is what
    :func:`derive_capture_block` applies.
    """
    circuit = kernel.circuit
    if pulse_order is None:
        pulse_order = [circuit.clock_domains()]
    held = set(hold_cells or ())
    net_id = kernel.net_id
    group_updates: GroupUpdates = []
    for group in pulse_order:
        group_set = set(group)
        group_updates.append(
            [
                (net_id[flop.name], net_id[flop.inputs[0]])
                for flop in circuit.flops()
                if flop.clock_domain in group_set and flop.name not in held
            ]
        )
    return group_updates


def derive_capture_block(
    kernel: CompiledKernel,
    launch_block: PatternBlock,
    group_updates: GroupUpdates,
) -> PatternBlock:
    """The packed capture-cycle stimulus of one packed launch block.

    The single home of the pulse and hold semantics: the launch words are
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


def derive_capture_patterns(
    circuit: Circuit,
    launch_patterns: Sequence[Mapping[str, int]],
    pulse_order: Optional[Sequence[Sequence[str]]] = None,
    hold_cells: Optional[Sequence[str]] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> list[dict[str, int]]:
    """Compute the capture-cycle stimulus for each launch pattern.

    Packs the launch list, runs :func:`derive_capture_block` per block and
    unpacks the result.

    Parameters
    ----------
    circuit:
        The (BIST-ready) netlist.
    launch_patterns:
        Per-pattern stimulus: primary inputs and flop outputs (the scan-loaded
        state), exactly what the shift window establishes.
    pulse_order:
        Ordered groups of clock domains receiving their *first* capture pulse,
        e.g. ``[["clk1"], ["clk2"]]`` for the staggered two-domain capture of
        Fig. 2.  ``None`` pulses every domain simultaneously.
    hold_cells:
        Flops that keep their scan-loaded value through the capture window,
        e.g. wrapper cells modelled in hold mode.  The flow and the campaign
        pass none: their input wrapper cells capture the statically driven
        pad value at the launch pulse like every other flop, which is how
        they contribute launch transitions.

    Returns
    -------
    list
        One stimulus dict per launch pattern describing the circuit state
        after the launch pulse(s): same primary inputs, flop outputs replaced
        by the captured values, applied domain group by domain group so that a
        later group sees the already-updated state of an earlier group (this
        is where cross-domain logic differs from the simultaneous case).
    """
    kernel = shared_kernel(circuit)
    group_updates = capture_group_updates(kernel, pulse_order, hold_cells)
    results: list[dict[str, int]] = []
    for block in iter_blocks(
        launch_patterns, block_size=block_size, nets=kernel.stimulus_names
    ):
        results.extend(derive_capture_block(kernel, block, group_updates).patterns())
    return results


def derive_pair_blocks(
    circuit: Circuit,
    launch_blocks: Iterable[PatternBlock],
    pulse_order: Optional[Sequence[Sequence[str]]] = None,
    hold_cells: Optional[Sequence[str]] = None,
) -> tuple[tuple[int, PatternBlock, PatternBlock], ...]:
    """Packed launch blocks -> ``(offset, launch, capture)`` pair triples.

    Equal to packing a launch list and its :func:`derive_capture_patterns`
    result block by block, without building a per-pattern dict: each launch
    block is restricted to the stimulus nets (missing nets read 0, as when a
    pattern list is packed) and its capture block is derived in place.
    """
    kernel = shared_kernel(circuit)
    group_updates = capture_group_updates(kernel, pulse_order, hold_cells)
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
    and the canonical fault ordering that shard tasks index into.
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
    stuck-at faults, compiled positionally so duplicate equivalents are
    harmless.
    """

    def __init__(self, simulator: "TransitionFaultSimulator", faults: tuple) -> None:
        stuck = simulator.stuck_engine
        self.faults = faults
        self.stuck_scan = stuck._numpy_scan(
            tuple(fault.equivalent_stuck_at() for fault in faults)
        )
        self.np_kernel = self.stuck_scan.np_kernel
        net_id = stuck.kernel.net_id
        circuit = simulator.circuit
        self.site_ids = _np.fromiter(
            (net_id[fault.faulted_net(circuit)] for fault in faults),
            dtype=_np.intp,
            count=len(faults),
        )
        self.slow_to_rise = _np.fromiter(
            (fault.slow_to_rise for fault in faults),
            dtype=bool,
            count=len(faults),
        )
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
    bit-identical across backends.
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
        self.simulator = self.stuck_engine.simulator
        # Most-recently compiled numpy pair-scan state: (fault tuple, scan).
        self._np_pair_scan: Optional[tuple[tuple, _NumpyPairScan]] = None

    def add_observation_net(self, net: str) -> None:
        """Add an observation point (shared with the stuck-at engine)."""
        self.stuck_engine.add_observation_net(net)
        self._np_pair_scan = None

    def _numpy_pair_scan(self, faults: tuple) -> _NumpyPairScan:
        cached = self._np_pair_scan
        if cached is not None and cached[0] == faults:
            return cached[1]
        scan = _NumpyPairScan(self, faults)
        self._np_pair_scan = (faults, scan)
        return scan

    def _np_pair_pass(
        self,
        scan: _NumpyPairScan,
        launch_block: PatternBlock,
        capture_block: PatternBlock,
    ):
        """Load and forward-evaluate one launch/capture block pair.

        The single home of the numpy pair-block setup, shared by the serial
        pair simulation and the shard primitive (mirroring the python
        backend's `_scan_pair_block` discipline).  The capture values land in
        the stuck scan's table (good rows + cone slots), the launch values in
        a plain net-rows table.
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

    def _scan_pair_block_numpy(
        self,
        scan: _NumpyPairScan,
        active: list[int],
        launch_table,
        capture_table,
        mask_plane,
        num_words: int,
        drop_detected: bool = True,
    ) -> tuple[list[tuple[int, int]], list[int]]:
        """Positional ``"numpy"`` form of :meth:`_scan_pair_block`.

        ``capture_table`` is the stuck scan state's table (capture-cycle good
        rows followed by the cone slot rows); activation rows are computed
        for the whole canonical order, faults with a live transition feed the
        vectorised stuck-at observability scan, and the per-fault detection
        masks (activation AND observation) are bit-identical to the python
        pair scan.
        """
        activation = scan.activation_planes(launch_table, capture_table, mask_plane)
        activated = activation.any(axis=1)
        candidates = [position for position in active if activated[position]]
        if candidates:
            rows, resim_evals = scan.stuck_scan.scan.scan_positions(
                capture_table, mask_plane, num_words, candidates
            )
            self.stuck_engine.gate_evals += resim_evals
        else:
            rows = {}
        detections: list[tuple[int, int]] = []
        still_active: list[int] = []
        for position in active:
            if not activated[position]:
                still_active.append(position)
                continue
            row = rows.get(position)
            detection = (
                plane_to_word(activation[position] & row) if row is not None else 0
            )
            if detection:
                first_bit = (detection & -detection).bit_length() - 1
                detections.append((position, first_bit))
                if not drop_detected:
                    still_active.append(position)
            else:
                still_active.append(position)
        return detections, still_active

    def _scan_pair_block(
        self,
        active: list[TransitionFault],
        site_ids: Mapping[TransitionFault, int],
        good_launch: list[int],
        good_capture: list[int],
        num: int,
        drop_detected: bool = True,
    ) -> tuple[list[tuple[TransitionFault, int]], list[TransitionFault]]:
        """One launch/capture pass of all ``active`` faults over a block pair.

        Returns ``(detections, still_active)`` with detections as
        ``(fault, first detecting bit within the block)``.  Single home of
        the activation/observation logic, shared by the serial pair
        simulation (:meth:`simulate_pairs`) and the sharded scan
        (:meth:`first_detections`) so oracle and shard primitive cannot
        drift apart.
        """
        mask = mask_for(num)
        detections: list[tuple[TransitionFault, int]] = []
        still_active: list[TransitionFault] = []
        for fault in active:
            site_id = site_ids[fault]
            launch_value = good_launch[site_id]
            capture_value = good_capture[site_id]
            if fault.slow_to_rise:
                activation = (~launch_value & capture_value) & mask
            else:
                activation = (launch_value & ~capture_value) & mask
            if not activation:
                still_active.append(fault)
                continue
            observation = self.stuck_engine.detection_mask_ids(
                fault.equivalent_stuck_at(), good_capture, num
            )
            detection = activation & observation
            if detection:
                first_bit = (detection & -detection).bit_length() - 1
                detections.append((fault, first_bit))
                if not drop_detected:
                    still_active.append(fault)
            else:
                still_active.append(fault)
        return detections, still_active

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
        active = [f for f in fault_list.undetected() if isinstance(f, TransitionFault)]
        simulated = 0
        stimulus_nets = self.circuit.stimulus_nets()
        launch_blocks = iter_blocks(launch_patterns, block_size=block_size, nets=stimulus_nets)
        capture_blocks = iter_blocks(capture_patterns, block_size=block_size, nets=stimulus_nets)
        if self.backend == NUMPY_BACKEND:
            faults = tuple(active)
            scan = self._numpy_pair_scan(faults)
            positions = list(range(len(faults)))
            scan.stuck_scan.scan.ensure_live(positions)
            for launch_block, capture_block in zip(launch_blocks, capture_blocks):
                num = launch_block.num_patterns
                launch_table, capture_table, mask_plane, num_words = (
                    self._np_pair_pass(scan, launch_block, capture_block)
                )
                detections_np, positions = self._scan_pair_block_numpy(
                    scan,
                    positions,
                    launch_table,
                    capture_table,
                    mask_plane,
                    num_words,
                    drop_detected,
                )
                for position, first_bit in detections_np:
                    fault_list.mark_detected(
                        faults[position], pattern_offset + simulated + first_bit
                    )
                simulated += num
                result.coverage_curve.append(
                    (pattern_offset + simulated, fault_list.coverage())
                )
            return result
        kernel = self.simulator.kernel
        net_id = kernel.net_id
        site_ids = {
            fault: net_id[fault.faulted_net(self.circuit)] for fault in active
        }
        good_launch = kernel.make_table()
        good_capture = kernel.make_table()
        for launch_block, capture_block in zip(launch_blocks, capture_blocks):
            num = launch_block.num_patterns
            mask = mask_for(num)
            kernel.set_stimulus(good_launch, launch_block.assignments, mask)
            kernel.evaluate(good_launch, mask)
            kernel.set_stimulus(good_capture, capture_block.assignments, mask)
            kernel.evaluate(good_capture, mask)
            detections, active = self._scan_pair_block(
                active, site_ids, good_launch, good_capture, num, drop_detected
            )
            for fault, first_bit in detections:
                fault_list.mark_detected(fault, pattern_offset + simulated + first_bit)
            simulated += num
            result.coverage_curve.append((pattern_offset + simulated, fault_list.coverage()))
        return result

    def simulate_with_derived_capture(
        self,
        fault_list: FaultList,
        launch_patterns: Sequence[Mapping[str, int]],
        pulse_order: Optional[Sequence[Sequence[str]]] = None,
        hold_cells: Optional[Sequence[str]] = None,
        strict: bool = False,
        **kwargs: object,
    ) -> TransitionSimulationResult:
        """Convenience: derive the capture patterns from the launch patterns, then simulate.

        ``strict`` is checked *before* deriving the capture patterns: a
        misspelled or missing launch net would otherwise flow through
        :func:`derive_capture_patterns` as a silent 0 and corrupt every
        derived capture state.  Derived capture patterns are complete over
        the stimulus nets by construction, so one validation pass over the
        launch list suffices.
        """
        if strict:
            check_strict_patterns(
                self.circuit, launch_patterns, require_complete=True, label="launch pattern"
            )
        capture_patterns = derive_capture_patterns(
            self.circuit, launch_patterns, pulse_order, hold_cells
        )
        return self.simulate_pairs(
            fault_list, launch_patterns, capture_patterns, **kwargs
        )

    # ------------------------------------------------------------------ #
    # Sharded-campaign primitives
    # ------------------------------------------------------------------ #
    def first_detections(
        self,
        faults: Sequence[TransitionFault],
        pair_blocks: Sequence[tuple[int, PatternBlock, PatternBlock]],
    ) -> dict[TransitionFault, int]:
        """First-detection scan over packed launch/capture block pairs.

        ``pair_blocks`` is a stream of ``(global pair offset, launch block,
        capture block)`` triples.  Per-fault results are independent of every
        other fault, so fault/pattern sharding plus min-merge reproduces the
        serial pair simulation bit for bit (the shard primitive of the
        campaign runner).
        """
        detections: dict[TransitionFault, int] = {}
        if self.backend == NUMPY_BACKEND:
            fault_order = tuple(faults)
            scan = self._numpy_pair_scan(fault_order)
            positions = list(range(len(fault_order)))
            scan.stuck_scan.scan.ensure_live(positions)
            for offset, launch_block, capture_block in pair_blocks:
                if not positions:
                    break
                if launch_block.num_patterns != capture_block.num_patterns:
                    raise ValueError("launch and capture blocks must pair up 1:1")
                launch_table, capture_table, mask_plane, num_words = (
                    self._np_pair_pass(scan, launch_block, capture_block)
                )
                found_np, positions = self._scan_pair_block_numpy(
                    scan, positions, launch_table, capture_table, mask_plane, num_words
                )
                for position, first_bit in found_np:
                    detections[fault_order[position]] = offset + first_bit
            return detections
        active = list(faults)
        kernel = self.simulator.kernel
        net_id = kernel.net_id
        site_ids = {
            fault: net_id[fault.faulted_net(self.circuit)] for fault in active
        }
        good_launch = kernel.make_table()
        good_capture = kernel.make_table()
        for offset, launch_block, capture_block in pair_blocks:
            if not active:
                break
            if launch_block.num_patterns != capture_block.num_patterns:
                raise ValueError("launch and capture blocks must pair up 1:1")
            num = launch_block.num_patterns
            mask = mask_for(num)
            kernel.set_stimulus(good_launch, launch_block.assignments, mask)
            kernel.evaluate(good_launch, mask)
            kernel.set_stimulus(good_capture, capture_block.assignments, mask)
            kernel.evaluate(good_capture, mask)
            found, active = self._scan_pair_block(
                active, site_ids, good_launch, good_capture, num
            )
            for fault, first_bit in found:
                detections[fault] = offset + first_bit
        return detections
