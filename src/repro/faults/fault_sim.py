"""Pattern-parallel single-fault-propagation (PPSFP) stuck-at fault simulation.

For every block of packed patterns (the block width is a free parameter --
64 / 256 / 1024 patterns per bigint word) the simulator runs one fault-free
simulation, then for each still-undetected fault:

1. computes the faulty value at the fault site (constant for stem faults; a
   re-evaluation of the owning gate for input-branch faults),
2. re-simulates only the fanout cone of the site with that value forced,
3. compares the faulty and fault-free values at the observation nets that lie
   inside the cone -- any differing pattern detects the fault.

Detected faults are dropped from subsequent blocks (classical fault dropping),
which is what makes simulating thousands of random patterns tractable.

Since the compiled-kernel refactor the whole engine runs in *integer ID
space*: good values live in a flat ``list[int]`` indexed by interned net ID,
fault sites are pre-resolved to ``(site ID, opcode, operand IDs)`` records,
and every fanout cone is lowered once into a per-site
:class:`~repro.simulation.kernel.ConePlan` (sorted schedule slices plus the
frontier nets read from the fault-free base).  The name-keyed entry points
(:meth:`FaultSimulator.detection_mask`, :meth:`FaultSimulator.simulate` with
pattern dicts) are thin adapters over the ID path, so ATPG, TPI and the tests
keep their original API.  :meth:`FaultSimulator.simulate_blocks` consumes
pre-packed :class:`~repro.simulation.packed.PatternBlock` streams (e.g. from
``StumpsArchitecture.generate_packed_blocks``) without ever materialising
per-pattern dicts.

The same engine exposes :meth:`FaultSimulator.fault_effect_profile`, which the
paper's fault-simulation-guided test-point insertion uses: instead of asking
"did the effect reach an observation net?" it records *which internal nets*
the effect of each undetected fault reaches, so that observation points can be
placed where they convert the most undetected faults into detected ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ..netlist.circuit import Circuit
from ..netlist.gates import evaluate_packed
from ..simulation.comb_sim import PackedSimulator
from ..simulation.kernel import StrictStimulusError
from ..simulation.numpy_backend import (
    NUMPY_BACKEND,
    PYTHON_BACKEND,
    FaultScanKernel,
    ScanFault,
    numpy_kernel_for,
    plane_to_word,
    resolve_backend,
    resolve_memory_budget_mb,
    scan_kernel_for,
    words_for,
)
from ..simulation.packed import DEFAULT_BLOCK_SIZE, PatternBlock, iter_blocks, mask_for
from .fault_list import FaultList
from .models import StuckAtFault

#: Fault-site kinds pre-resolved into ID space (see ``_fault_spec``).
_SITE_CONST = 0  # output stem or flop D-pin branch: forced constant word
_SITE_GATE = 1  # combinational input-branch: re-evaluate the owning gate


def check_strict_patterns(
    circuit: Circuit,
    patterns: Sequence[Mapping[str, int]],
    require_complete: bool = False,
    label: str = "pattern",
) -> None:
    """Validate a pattern list against the circuit's stimulus nets.

    Raises :class:`~repro.simulation.kernel.StrictStimulusError` when a
    pattern assigns a net that is not a stimulus net (the classic misspelled
    name, which the packing step would otherwise silently drop to 0) or --
    with ``require_complete`` -- when a stimulus net is missing from a
    pattern (which would otherwise silently read as 0).
    """
    stimulus_nets = circuit.stimulus_nets()
    allowed = set(stimulus_nets)
    for index, pattern in enumerate(patterns):
        unknown = [net for net in pattern if net not in allowed]
        if unknown:
            raise StrictStimulusError(
                f"{label} {index} assigns non-stimulus nets "
                f"{unknown[:5]!r}{'...' if len(unknown) > 5 else ''}"
            )
        if require_complete and len(pattern) < len(allowed):
            missing = [net for net in stimulus_nets if net not in pattern]
            if missing:
                raise StrictStimulusError(
                    f"{label} {index} is missing stimulus nets "
                    f"{missing[:5]!r}{'...' if len(missing) > 5 else ''}"
                )


@dataclass(frozen=True)
class FaultSimShardState:
    """Pickleable description of one fault-simulation shard's compiled state.

    A shard worker reconstructs the full compiled-kernel engine from this
    record alone: the circuit (plain dataclasses all the way down), the
    observation nets, and the *canonical fault ordering* of the campaign.
    Shard tasks then reference faults by index into ``faults``, which keeps
    the merge step (and the pickles) small and makes merged results
    independent of shard order and worker count.
    """

    circuit: Circuit
    observe_nets: tuple[str, ...]
    faults: tuple[StuckAtFault, ...]
    #: Execution backend the shard worker compiles ("python" or "numpy").
    sim_backend: str = PYTHON_BACKEND
    #: Peak scan-memory budget every pooled worker obeys (numpy backend;
    #: ``None`` = unbounded).  Carried in the shard state so a campaign's
    #: budget survives pickling into worker processes.
    sim_memory_budget_mb: Optional[float] = None

    def build_simulator(self) -> "FaultSimulator":
        """Compile a fresh :class:`FaultSimulator` for this shard state."""
        return FaultSimulator(
            self.circuit,
            list(self.observe_nets),
            backend=self.sim_backend,
            memory_budget_mb=self.sim_memory_budget_mb,
        )


@dataclass
class FaultSimulationResult:
    """Outcome of one fault-simulation campaign.

    Attributes
    ----------
    fault_list:
        The (mutated) fault list with detection status updated.
    patterns_simulated:
        Number of patterns simulated.
    coverage_curve:
        List of (patterns simulated so far, coverage) samples, one per block.
    detections_per_pattern:
        Number of *new* fault detections credited to each pattern index.
    """

    fault_list: FaultList
    patterns_simulated: int
    coverage_curve: list[tuple[int, float]] = field(default_factory=list)
    detections_per_pattern: list[int] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Final fault coverage in [0, 1]."""
        return self.fault_list.coverage()


class _NumpyFaultScan:
    """Compiled fault-vectorised scan state for one canonical fault order.

    Thin faults-layer shim over
    :class:`~repro.simulation.numpy_backend.FaultScanKernel`: it translates
    the engine's pre-resolved site records and cone plans into backend
    :class:`~repro.simulation.numpy_backend.ScanFault` descriptions (one per
    fault, positionally -- duplicate faults are legal) and owns the per-width
    bit-plane tables the scans run over.
    """

    def __init__(self, engine: "FaultSimulator", faults: tuple) -> None:
        self.faults = faults
        self.np_kernel = numpy_kernel_for(engine.kernel)

        def build() -> FaultScanKernel:
            scan_faults = []
            for fault in faults:
                spec = engine._fault_spec(fault)
                plan, observed_ids = engine._site_plan(spec[1])
                if spec[0] == _SITE_CONST:
                    scan_faults.append(
                        ScanFault(spec[1], plan, observed_ids, const_value=spec[2])
                    )
                else:
                    _, site_id, value, gate_type, input_ids, pin = spec
                    scan_faults.append(
                        ScanFault(
                            site_id,
                            plan,
                            observed_ids,
                            gate_type=gate_type,
                            operand_ids=input_ids,
                            pin=pin,
                            value=value,
                        )
                    )
            return FaultScanKernel(
                self.np_kernel,
                scan_faults,
                memory_budget_bytes=engine._memory_budget_bytes,
            )

        # The budget is part of the cache key: a cached scan compiled for
        # one budget must not serve an engine configured with another.
        self.scan = scan_kernel_for(
            self.np_kernel,
            (faults, tuple(engine.observe_nets), engine._memory_budget_bytes),
            build,
        )

    def table_for(self, num_words: int):
        """The scan's good-rows + fault-slot-rows table for one width."""
        return self.scan.table_for(num_words)


class FaultSimulator:
    """PPSFP stuck-at fault simulator with fault dropping (compiled-kernel engine).

    ``backend`` selects how the campaign-level loops execute: ``"python"``
    (default; per-fault bigint cone resimulation, the oracle) or ``"numpy"``
    (the fault-vectorised bit-plane scan of
    :mod:`repro.simulation.numpy_backend`).  Detection masks, statuses,
    first-detection indices and coverage curves are bit-identical across
    backends; only throughput differs.
    """

    def __init__(
        self,
        circuit: Circuit,
        observe_nets: Optional[Sequence[str]] = None,
        backend: str = PYTHON_BACKEND,
        memory_budget_mb: Optional[float] = None,
    ) -> None:
        self.circuit = circuit
        self.backend = resolve_backend(backend)
        #: Peak scan-memory budget in MB (numpy backend; ``None`` =
        #: unbounded).  Bounds the vectorised scan's slot arena plus
        #: per-block workspaces -- see ``FaultScanKernel``.
        self.memory_budget_mb = memory_budget_mb
        self._memory_budget_bytes = resolve_memory_budget_mb(memory_budget_mb)
        self.simulator = PackedSimulator(
            circuit, backend=backend, memory_budget_mb=memory_budget_mb
        )
        self.kernel = self.simulator.kernel
        self.observe_nets = (
            list(observe_nets) if observe_nets is not None else circuit.observation_nets()
        )
        self._observe_set = set(self.observe_nets)
        # Net ID -> its positions in ``observe_nets`` (built on first use).
        self._observe_positions: Optional[dict[int, list[int]]] = None
        # Cache of (ConePlan, observed IDs inside the plan), keyed by site ID.
        self._site_cache: dict[int, tuple[object, tuple[int, ...]]] = {}
        # Cache of fault -> pre-resolved site record, keyed by the fault itself.
        self._fault_specs: dict[StuckAtFault, tuple] = {}
        # Reusable good-value table (one slot per interned net).
        self._good = self.kernel.make_table()
        # Most-recently compiled numpy scan state: (fault tuple, scan).
        self._np_scan: Optional[tuple[tuple, _NumpyFaultScan]] = None
        #: Aggregate count of gate (re-)evaluations, for throughput reporting.
        self.gate_evals = 0

    # ------------------------------------------------------------------ #
    # Observation management (used by test-point insertion)
    # ------------------------------------------------------------------ #
    def add_observation_net(self, net: str) -> None:
        """Add an observation point; subsequent simulations observe it."""
        if net not in self.circuit.gates:
            raise KeyError(f"unknown net {net!r}")
        if net not in self._observe_set:
            self.observe_nets.append(net)
            self._observe_set.add(net)
            self._observe_positions = None
            self._site_cache.clear()
            self._np_scan = None

    # ------------------------------------------------------------------ #
    # Fault injection helpers (ID space)
    # ------------------------------------------------------------------ #
    def _fault_spec(self, fault: StuckAtFault) -> tuple:
        """Pre-resolved site record: how to compute (site ID, faulty word)."""
        spec = self._fault_specs.get(fault)
        if spec is None:
            net_id = self.kernel.net_id
            if fault.is_stem:
                spec = (_SITE_CONST, net_id[fault.gate], fault.value)
            else:
                gate = self.circuit.gate(fault.gate)
                if gate.is_flop:
                    # A branch fault on a flop's D pin is observed at the D net
                    # itself in the scan view; represent it as a constant
                    # override on the D net (see the pre-kernel engine).
                    spec = (_SITE_CONST, net_id[gate.inputs[fault.pin]], fault.value)
                else:
                    spec = (
                        _SITE_GATE,
                        net_id[fault.gate],
                        fault.value,
                        gate.gate_type,
                        tuple(net_id[n] for n in gate.inputs),
                        fault.pin,
                    )
            self._fault_specs[fault] = spec
        return spec

    def _faulty_site_value_ids(
        self, fault: StuckAtFault, good: Sequence[int], mask: int
    ) -> tuple[int, int]:
        """Return (site net ID, packed faulty word) for ``fault``."""
        spec = self._fault_spec(fault)
        if spec[0] == _SITE_CONST:
            return spec[1], (mask if spec[2] else 0)
        _, site_id, value, gate_type, input_ids, pin = spec
        forced = mask if value else 0
        inputs = [
            forced if index == pin else good[nid]
            for index, nid in enumerate(input_ids)
        ]
        return site_id, evaluate_packed(gate_type, inputs, mask)

    def _site_plan(self, site_id: int) -> tuple[object, tuple[int, ...]]:
        """Cone plan plus the observed net IDs it recomputes (or forces).

        The observed IDs follow ``observe_nets`` order, duplicates included.
        """
        cached = self._site_cache.get(site_id)
        if cached is None:
            plan = self.kernel.cone_plan(site_id)
            index = self._observe_positions
            if index is None:
                index = self._observe_positions = {}
                net_id = self.kernel.net_id
                for position, net in enumerate(self.observe_nets):
                    index.setdefault(net_id[net], []).append(position)
            observed = [
                (position, nid)
                for nid in (*plan.computed, site_id)
                for position in index.get(nid, ())
            ]
            observed.sort()
            cached = (plan, tuple(nid for _, nid in observed))
            self._site_cache[site_id] = cached
        return cached

    def _detection_ids(
        self, fault: StuckAtFault, good: list[int], mask: int
    ) -> int:
        """Detection mask computed entirely in ID space (the hot path)."""
        site_id, faulty_word = self._faulty_site_value_ids(fault, good, mask)
        if faulty_word == good[site_id]:
            return 0
        plan, observed_ids = self._site_plan(site_id)
        if not observed_ids:
            return 0
        scratch = self.kernel.resimulate_plan(plan, good, faulty_word, mask)
        self.gate_evals += len(plan.ops)
        detection = 0
        for nid in observed_ids:
            detection |= scratch[nid] ^ good[nid]
        return detection & mask

    # ------------------------------------------------------------------ #
    # Name-keyed adapters (public API unchanged from the pre-kernel engine)
    # ------------------------------------------------------------------ #
    def detection_mask_ids(
        self, fault: StuckAtFault, good_values: list[int], num_patterns: int
    ) -> int:
        """Detection mask against an integer-indexed good-value table."""
        return self._detection_ids(fault, good_values, mask_for(num_patterns))

    def detection_mask(
        self,
        fault: StuckAtFault,
        good_values: Mapping[str, int],
        num_patterns: int,
    ) -> int:
        """Packed mask of patterns (within the block) that detect ``fault``.

        ``good_values`` is a name-keyed fault-free block result (what
        :meth:`PackedSimulator.simulate_block` returns); it is interned into
        the ID table once per call, so prefer :meth:`detection_mask_ids` in
        loops over many faults.  Keys that are not circuit nets are ignored;
        a circuit net missing from the mapping raises ``KeyError`` (fail
        fast, never a silent all-zero default).
        """
        mask = mask_for(num_patterns)
        table = self._table_from_mapping(good_values)
        return self._detection_ids(fault, table, mask)

    def _table_from_mapping(self, good_values: Mapping[str, int]) -> list[int]:
        return [good_values[name] for name in self.kernel.net_names]

    # ------------------------------------------------------------------ #
    # Campaign-level simulation
    # ------------------------------------------------------------------ #
    def _scan_block(
        self,
        active: list[StuckAtFault],
        good: list[int],
        mask: int,
        drop_detected: bool = True,
    ) -> tuple[list[tuple[StuckAtFault, int]], list[StuckAtFault]]:
        """One PPSFP pass of all ``active`` faults over a simulated block.

        Returns ``(detections, still_active)`` where each detection is
        ``(fault, first detecting bit within the block)``.  This is the one
        place the per-block detection logic lives: the serial campaign
        (:meth:`simulate_blocks`) and the sharded scan
        (:meth:`first_detections`) both run through it, so the serial oracle
        and the shard primitive cannot drift apart.
        """
        detections: list[tuple[StuckAtFault, int]] = []
        still_active: list[StuckAtFault] = []
        for fault in active:
            detection = self._detection_ids(fault, good, mask)
            if detection:
                first_bit = (detection & -detection).bit_length() - 1
                detections.append((fault, first_bit))
                if not drop_detected:
                    still_active.append(fault)
            else:
                still_active.append(fault)
        return detections, still_active

    def _numpy_scan(self, faults: tuple) -> _NumpyFaultScan:
        """Compiled vectorised scan for a canonical fault order (1-deep cache).

        The per-site cone lowerings are cached on the shared numpy kernel, so
        recompiling for a different fault order (the ATPG top-up after the
        random phase) only pays the cheap per-fault assembly.
        """
        cached = self._np_scan
        if cached is not None and cached[0] == faults:
            return cached[1]
        scan = _NumpyFaultScan(self, faults)
        self._np_scan = (faults, scan)
        return scan

    def simulate(
        self,
        fault_list: FaultList,
        patterns: Sequence[Mapping[str, int]],
        block_size: int = DEFAULT_BLOCK_SIZE,
        drop_detected: bool = True,
        pattern_offset: int = 0,
        strict: bool = False,
    ) -> FaultSimulationResult:
        """Fault-simulate ``patterns`` against ``fault_list``.

        Parameters
        ----------
        fault_list:
            Faults to simulate; their status is updated in place.
        patterns:
            Sequence of stimulus dicts (primary inputs and flop outputs).
        block_size:
            Patterns per packed block (wider blocks amortise the interpreter
            loop over more patterns; 256 is a good throughput choice).
        drop_detected:
            Stop simulating a fault once it has been detected (the paper's BIST
            coverage numbers use dropping; N-detect studies disable it).
        pattern_offset:
            Index of the first pattern within the overall campaign, used so
            that first-detection indices stay globally meaningful when random
            and top-up phases are simulated in separate calls.
        strict:
            When true, any pattern containing a net that is not a stimulus net
            (e.g. a misspelled name, which the packing step would otherwise
            silently drop to 0) raises
            :class:`~repro.simulation.kernel.StrictStimulusError`.
        """
        if strict:
            check_strict_patterns(self.circuit, patterns)
        stimulus_nets = self.circuit.stimulus_nets()
        blocks = iter_blocks(patterns, block_size=block_size, nets=stimulus_nets)
        return self.simulate_blocks(
            fault_list,
            blocks,
            drop_detected=drop_detected,
            pattern_offset=pattern_offset,
        )

    def simulate_blocks(
        self,
        fault_list: FaultList,
        blocks: Iterable[PatternBlock],
        drop_detected: bool = True,
        pattern_offset: int = 0,
    ) -> FaultSimulationResult:
        """Fault-simulate a stream of pre-packed pattern blocks.

        This is the streaming entry point: blocks may come from
        ``iter_blocks`` over a pattern list or directly from
        ``StumpsArchitecture.generate_packed_blocks`` without any per-pattern
        dict ever being built.  Scan cells / stimulus nets missing from a
        block's assignments default to the all-zero word, exactly as in the
        pattern-list path.
        """
        if self.backend == NUMPY_BACKEND:
            return self._simulate_blocks_numpy(
                fault_list, blocks, drop_detected, pattern_offset
            )
        result = FaultSimulationResult(fault_list, 0)
        active = list(fault_list.undetected())
        simulated = 0
        kernel = self.kernel
        good = self._good
        for block in blocks:
            num = block.num_patterns
            mask = mask_for(num)
            kernel.set_stimulus(good, block.assignments, mask)
            kernel.evaluate(good, mask)
            self.gate_evals += kernel.num_gates
            result.detections_per_pattern.extend([0] * num)
            detections, active = self._scan_block(active, good, mask, drop_detected)
            for fault, first_bit in detections:
                fault_list.mark_detected(fault, pattern_offset + simulated + first_bit)
                result.detections_per_pattern[simulated + first_bit] += 1
            simulated += num
            result.coverage_curve.append((pattern_offset + simulated, fault_list.coverage()))
        result.patterns_simulated = simulated
        return result

    def _np_block_pass(
        self, scan_state: _NumpyFaultScan, block: PatternBlock, active: list[int]
    ) -> tuple[dict, int]:
        """One numpy-backend block: load, forward-evaluate, scan the actives.

        The single home of the per-block numpy execution, shared by the
        serial campaign (:meth:`_simulate_blocks_numpy`) and the shard
        primitive (:meth:`_first_detections_numpy`) exactly like
        :meth:`_scan_block` is for the python backend -- so oracle and shard
        primitive cannot drift apart.  Returns ``(detection rows by
        canonical position, block pattern count)``.  The fault-free pass
        always runs (the python backend does too, and its gate-evaluation
        accounting must match); the fault scan is skipped when nothing is
        active.
        """
        num = block.num_patterns
        mask = mask_for(num)
        num_words = words_for(num)
        scan = scan_state.scan
        np_kernel = scan_state.np_kernel
        table = scan.table_for(num_words)
        mask_plane = np_kernel.mask_plane(mask, num_words)
        np_kernel.set_stimulus(table, block.assignments, mask, num_words)
        np_kernel.evaluate(table, mask_plane)
        self.gate_evals += self.kernel.num_gates
        if not active:
            return {}, num
        rows, resim_evals = scan.scan_positions(table, mask_plane, num_words, active)
        self.gate_evals += resim_evals
        return rows, num

    def _simulate_blocks_numpy(
        self,
        fault_list: FaultList,
        blocks: Iterable[PatternBlock],
        drop_detected: bool,
        pattern_offset: int,
    ) -> FaultSimulationResult:
        """The ``"numpy"`` backend form of :meth:`simulate_blocks`.

        Identical bookkeeping, but every block runs through
        :meth:`_np_block_pass` (level-batched bit-plane forward simulation
        plus the fault-vectorised union-cone scan) instead of per-fault
        bigint cone resimulation.  The active set is tracked as positions
        into the compiled canonical fault order.
        """
        result = FaultSimulationResult(fault_list, 0)
        faults = tuple(fault_list.undetected())
        scan_state = self._numpy_scan(faults)
        scan = scan_state.scan
        active = list(range(len(faults)))
        scan.ensure_live(active)
        simulated = 0
        for block in blocks:
            rows, num = self._np_block_pass(scan_state, block, active)
            result.detections_per_pattern.extend([0] * num)
            still_active: list[int] = []
            for position in active:
                row = rows.get(position)
                if row is None:
                    still_active.append(position)
                    continue
                word = plane_to_word(row)
                first_bit = (word & -word).bit_length() - 1
                fault_list.mark_detected(
                    faults[position], pattern_offset + simulated + first_bit
                )
                result.detections_per_pattern[simulated + first_bit] += 1
                if not drop_detected:
                    still_active.append(position)
            active = still_active
            scan.maybe_prune(active)
            simulated += num
            result.coverage_curve.append(
                (pattern_offset + simulated, fault_list.coverage())
            )
        result.patterns_simulated = simulated
        return result

    # ------------------------------------------------------------------ #
    # Sharded-campaign primitives
    # ------------------------------------------------------------------ #
    def shard_state(self, faults: Sequence[StuckAtFault]) -> FaultSimShardState:
        """Pickleable shard state for campaign fan-out over ``faults``.

        The returned record carries everything a worker process needs to
        rebuild this simulator bit for bit (circuit, observation nets,
        execution backend) plus the canonical fault ordering that shard
        tasks index into.
        """
        return FaultSimShardState(
            circuit=self.circuit,
            observe_nets=tuple(self.observe_nets),
            faults=tuple(faults),
            sim_backend=self.backend,
            sim_memory_budget_mb=self.memory_budget_mb,
        )

    def first_detections(
        self,
        faults: Sequence[StuckAtFault],
        blocks: Iterable[tuple[int, PatternBlock]],
    ) -> dict[StuckAtFault, int]:
        """First-detection scan: the shard primitive of the campaign runner.

        ``blocks`` is a stream of ``(global pattern offset, PatternBlock)``
        pairs.  For every fault the *global index of the first detecting
        pattern* within the stream is returned (faults never detected are
        absent).  Detection of one fault never depends on any other fault --
        fault dropping is a pure optimisation here -- so partitioning faults
        and/or pattern blocks across shards and min-merging the returned
        indices reproduces the serial result bit for bit.
        """
        if self.backend == NUMPY_BACKEND:
            return self._first_detections_numpy(faults, blocks)
        detections: dict[StuckAtFault, int] = {}
        active = list(faults)
        kernel = self.kernel
        good = self._good
        for offset, block in blocks:
            if not active:
                break
            num = block.num_patterns
            mask = mask_for(num)
            kernel.set_stimulus(good, block.assignments, mask)
            kernel.evaluate(good, mask)
            self.gate_evals += kernel.num_gates
            found, active = self._scan_block(active, good, mask)
            for fault, first_bit in found:
                detections[fault] = offset + first_bit
        return detections

    def _first_detections_numpy(
        self,
        faults: Sequence[StuckAtFault],
        blocks: Iterable[tuple[int, PatternBlock]],
    ) -> dict[StuckAtFault, int]:
        """The ``"numpy"`` backend form of :meth:`first_detections`."""
        detections: dict[StuckAtFault, int] = {}
        fault_order = tuple(faults)
        scan_state = self._numpy_scan(fault_order)
        scan = scan_state.scan
        active = list(range(len(fault_order)))
        scan.ensure_live(active)
        for offset, block in blocks:
            if not active:
                break
            rows, _num = self._np_block_pass(scan_state, block, active)
            still_active: list[int] = []
            for position in active:
                row = rows.get(position)
                if row is None:
                    still_active.append(position)
                    continue
                word = plane_to_word(row)
                detections[fault_order[position]] = (
                    offset + (word & -word).bit_length() - 1
                )
            active = still_active
            scan.maybe_prune(active)
        return detections

    def detects(self, pattern: Mapping[str, int], fault: StuckAtFault) -> bool:
        """True when the single ``pattern`` detects ``fault`` (used to verify ATPG)."""
        kernel = self.kernel
        good = self._good
        stimulus = {
            net: (1 if pattern.get(net, 0) else 0)
            for net in self.circuit.stimulus_nets()
        }
        kernel.set_stimulus(good, stimulus, 1)
        kernel.evaluate(good, 1)
        return bool(self._detection_ids(fault, good, 1))

    # ------------------------------------------------------------------ #
    # Fault-effect profiling (drives the paper's test-point insertion)
    # ------------------------------------------------------------------ #
    def fault_effect_profile(
        self,
        faults: Iterable[StuckAtFault],
        blocks: Iterable[PatternBlock],
        candidate_nets: Optional[Sequence[str]] = None,
    ) -> dict[str, dict[StuckAtFault, int]]:
        """Where do the effects of (undetected) faults travel?

        For every candidate net, count per fault in how many of the given
        patterns the fault effect is visible at that net.  The test-point
        insertion engine turns this into a set-cover problem: pick the nets
        that expose the most undetected faults.

        Parameters
        ----------
        faults:
            Faults to profile (typically the random-resistant ones).
        blocks:
            Packed sample of patterns (typically the leading blocks of the
            random-pattern session; see
            :func:`~repro.simulation.packed.leading_blocks`).  A pattern list
            is packed with :func:`~repro.simulation.packed.iter_blocks`
            first.  The counts do not depend on the block width; the
            insertion order of the returned mappings does (first block a net
            or fault appears in, then fault order).
        candidate_nets:
            Nets eligible to become observation points; defaults to every
            combinational net that is not already observed.

        Returns
        -------
        dict
            Mapping candidate net -> {fault: number of patterns whose effect
            reaches the net}.  Nets never reached by any fault are omitted.
        """
        if candidate_nets is None:
            candidate_nets = [
                gate.name
                for gate in self.circuit.combinational_gates()
                if gate.name not in self._observe_set
            ]
        kernel = self.kernel
        net_id = kernel.net_id
        is_candidate = bytearray(kernel.num_nets)
        for net in candidate_nets:
            is_candidate[net_id[net]] = 1
        net_names = kernel.net_names
        profile: dict[str, dict[StuckAtFault, int]] = {}
        fault_seq = list(faults)
        good = self._good
        for block in blocks:
            num = block.num_patterns
            mask = mask_for(num)
            kernel.set_stimulus(good, block.assignments, mask)
            kernel.evaluate(good, mask)
            self.gate_evals += kernel.num_gates
            for fault in fault_seq:
                site_id, faulty_word = self._faulty_site_value_ids(fault, good, mask)
                if faulty_word == good[site_id]:
                    continue
                plan = kernel.cone_plan(site_id)
                scratch = kernel.resimulate_plan(plan, good, faulty_word, mask)
                self.gate_evals += len(plan.ops)
                # scratch holds the forced site word too, so the site and the
                # recomputed cone nets share one accumulation loop.
                for nid in (*plan.computed, site_id):
                    if not is_candidate[nid]:
                        continue
                    diff = (scratch[nid] ^ good[nid]) & mask
                    if diff:
                        bucket = profile.setdefault(net_names[nid], {})
                        bucket[fault] = bucket.get(fault, 0) + diff.bit_count()
        return profile
