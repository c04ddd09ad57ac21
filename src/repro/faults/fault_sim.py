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
frontier nets read from the fault-free base).
:meth:`FaultSimulator.simulate_blocks` consumes pre-packed
:class:`~repro.simulation.packed.PatternBlock` streams (e.g. from
``StumpsArchitecture.generate_packed_blocks``) without ever materialising
per-pattern dicts; the pattern-list form the tests use is
:func:`repro.oracle.patterns.simulate_patterns`.

The same engine exposes :meth:`FaultSimulator.fault_effect_profile_ids`,
which the paper's fault-simulation-guided test-point insertion uses: instead
of asking "did the effect reach an observation net?" it records *which
internal nets* the effect of each undetected fault reaches, so that
observation points can be placed where they convert the most undetected
faults into detected ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ..netlist.circuit import Circuit
from ..netlist.gates import evaluate_packed
from ..simulation.kernel import StrictStimulusError, shared_kernel
from ..simulation.numpy_backend import (
    NUMPY_BACKEND,
    PYTHON_BACKEND,
    FaultArrays,
    FaultScanKernel,
    np,
    numpy_kernel_for,
    plane_to_word,
    resolve_backend,
    resolve_memory_budget_mb,
    scan_kernel_for,
    words_for,
)
from ..simulation.packed import PatternBlock, mask_for
from ..util.cache import KeyedLruCache
from .fault_list import SITE_CONST, FaultList, stuck_at_table
from .models import StuckAtFault


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
    observation nets, and the faults.  A scenario's state holds every fault
    in the campaign's *canonical order*; each shard ships a copy holding
    only its own faults, and reports them by their canonical indices, which
    keeps the merge step (and the pickles) small and makes merged results
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


class _SitePlans:
    """Cone plan plus observed net IDs per fault site, for one (kernel,
    observation set): resolved once per site and shared by every engine on
    that kernel (see :func:`site_plans`).

    The observed IDs follow the observation order, duplicates included.
    """

    def __init__(self, kernel, observe_nets: Sequence[str]) -> None:
        self.kernel = kernel
        # Net ID -> its positions in the observation order.
        self._positions: dict[int, list[int]] = {}
        net_id = kernel.net_id
        for position, net in enumerate(observe_nets):
            self._positions.setdefault(net_id[net], []).append(position)
        self._plans: dict[int, tuple[object, tuple[int, ...]]] = {}

    def __call__(self, site_id: int) -> tuple[object, tuple[int, ...]]:
        cached = self._plans.get(site_id)
        if cached is None:
            plan = self.kernel.cone_plan(site_id)
            index = self._positions
            observed = [
                (position, nid)
                for nid in (*plan.computed, site_id)
                for position in index.get(nid, ())
            ]
            observed.sort()
            cached = self._plans[site_id] = (plan, tuple(nid for _, nid in observed))
        return cached


#: Observation sets whose site plans one kernel keeps.
_SITE_PLAN_SETS = 4


def site_plans(kernel, observe_nets: Sequence[str]) -> _SitePlans:
    """The shared site-plan resolver of ``kernel`` for one observation set."""
    cache = kernel.analysis_cache.get("site_plans")
    if cache is None:
        cache = kernel.analysis_cache["site_plans"] = KeyedLruCache(_SITE_PLAN_SETS)
    key = tuple(observe_nets)
    return cache.get_or_build(key, lambda: _SitePlans(kernel, key))


class FaultSimulator:
    """PPSFP stuck-at fault simulator with fault dropping (compiled-kernel engine).

    ``backend`` selects how the campaign-level loops execute: ``"python"``
    (default; per-fault bigint cone resimulation, the oracle) or ``"numpy"``
    (the fault-vectorised bit-plane scan of
    :mod:`repro.simulation.numpy_backend`).  Detection masks, statuses,
    first-detection indices and coverage curves are bit-identical across
    backends; only throughput differs.  Internally faults are rows of the
    kernel's :class:`~repro.faults.fault_list.StuckAtTable` (``table``).
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
        self.kernel = shared_kernel(circuit)
        #: The kernel's canonical stuck-at table (fault IDs are its rows).
        self.table = stuck_at_table(self.kernel)
        self.observe_nets = (
            list(observe_nets) if observe_nets is not None else circuit.observation_nets()
        )
        self._observe_set = set(self.observe_nets)
        self._site_plan = site_plans(self.kernel, self.observe_nets)
        # Reusable good-value table (one slot per interned net).
        self._good = self.kernel.make_table()
        # Most-recently compiled numpy scan: (fault-ID bytes, scan).
        self._np_scan: Optional[tuple[bytes, FaultScanKernel]] = None
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
            self._site_plan = site_plans(self.kernel, self.observe_nets)
            self._np_scan = None

    # ------------------------------------------------------------------ #
    # Fault injection (ID space)
    # ------------------------------------------------------------------ #
    def _faulty_site_value(
        self, spec: tuple, good: Sequence[int], mask: int
    ) -> tuple[int, int]:
        """Return (site net ID, packed faulty word) of one table spec."""
        kind, site_id, value, gate_type, input_ids, pin = spec
        forced = mask if value else 0
        if kind == SITE_CONST:
            return site_id, forced
        inputs = [
            forced if index == pin else good[nid]
            for index, nid in enumerate(input_ids)
        ]
        return site_id, evaluate_packed(gate_type, inputs, mask)

    def _detection(self, spec: tuple, good: list[int], mask: int) -> int:
        """Detection mask of one table spec (the python backend's hot path)."""
        site_id, faulty_word = self._faulty_site_value(spec, good, mask)
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

    def detection_mask_ids(
        self, fault: StuckAtFault, good_values: list[int], num_patterns: int
    ) -> int:
        """Detection mask against an integer-indexed good-value table."""
        return self.detection_mask_at(
            self.table.id_of(fault), good_values, mask_for(num_patterns)
        )

    def detection_mask_at(self, fault_id: int, good_values: list[int], mask: int) -> int:
        """Detection mask of one fault ID against a good-value table."""
        return self._detection(self.table.spec(fault_id), good_values, mask)

    # ------------------------------------------------------------------ #
    # Campaign-level simulation
    # ------------------------------------------------------------------ #
    def _scan_block(
        self,
        active: list[tuple[int, tuple]],
        good: list[int],
        mask: int,
        drop_detected: bool = True,
    ) -> tuple[list[tuple[int, int]], list[tuple[int, tuple]]]:
        """One PPSFP pass of all ``active`` ``(tag, table spec)`` pairs over a
        simulated block.

        Returns ``(detections, still_active)`` where each detection is
        ``(tag, first detecting bit within the block)``.  This is the one
        place the per-block detection logic lives: the serial campaign
        (:meth:`simulate_blocks`) and the sharded scan
        (:meth:`first_detections`) both run through it, so the serial oracle
        and the shard primitive cannot drift apart.
        """
        detections: list[tuple[int, int]] = []
        still_active: list[tuple[int, tuple]] = []
        detect = self._detection
        for entry in active:
            detection = detect(entry[1], good, mask)
            if detection:
                first_bit = (detection & -detection).bit_length() - 1
                detections.append((entry[0], first_bit))
                if not drop_detected:
                    still_active.append(entry)
            else:
                still_active.append(entry)
        return detections, still_active

    def _numpy_scan(self, ids: Sequence[int]) -> FaultScanKernel:
        """Compiled vectorised scan for a canonical fault-ID order.

        Cached 1-deep here and by (order, observation set, budget) on the
        shared numpy kernel (:func:`scan_kernel_for`), so the engines of one
        fault universe share a compilation.  The compile reads the stuck-at
        table's columns for ``ids`` (one row per fault, positionally --
        duplicate faults are legal) plus the shared plan of every distinct
        site, so recompiling for a different fault order (the ATPG top-up
        after the random phase) only pays the array assembly.
        """
        ids = np.asarray(ids, dtype=np.intp)
        key = ids.tobytes()
        cached = self._np_scan
        if cached is not None and cached[0] == key:
            return cached[1]
        nk = numpy_kernel_for(self.kernel)

        def build() -> FaultScanKernel:
            columns = self.table.arrays()
            site_ids = columns["site"][ids]
            sites, site_index = np.unique(site_ids, return_inverse=True)
            faults = FaultArrays(
                site_ids=site_ids,
                site_index=site_index,
                const_value=np.where(
                    columns["kind"][ids] == SITE_CONST, columns["value"][ids], -1
                ),
                gate_ids=columns["gate"][ids],
                gate_types=columns["gate_type"][ids],
                pins=columns["pin"][ids],
                values=columns["value"][ids],
            )
            return FaultScanKernel(
                nk,
                faults,
                [self._site_plan(site) for site in sites.tolist()],
                memory_budget_bytes=self._memory_budget_bytes,
            )

        # The budget is part of the cache key: a cached scan compiled for
        # one budget must not serve an engine configured with another.
        scan = scan_kernel_for(
            nk, (key, tuple(self.observe_nets), self._memory_budget_bytes), build
        )
        self._np_scan = (key, scan)
        return scan

    def simulate_blocks(
        self,
        fault_list: FaultList,
        blocks: Iterable[PatternBlock],
        drop_detected: bool = True,
        pattern_offset: int = 0,
    ) -> FaultSimulationResult:
        """Fault-simulate a stream of pre-packed pattern blocks.

        This is the one scan entry point: blocks may come from
        ``iter_blocks`` over a pattern list (the top-up screen's filled
        cubes) or directly from ``StumpsArchitecture.generate_packed_blocks``
        without any per-pattern dict ever being built.  Scan cells /
        stimulus nets missing from a block's assignments default to the
        all-zero word.  Faults are tracked as (list position, table ID)
        pairs; detections mark the list by position.
        """
        positions = fault_list.undetected_positions()
        ids = fault_list.table_ids(self.table, positions)
        result = FaultSimulationResult(fault_list, 0)
        simulated = 0
        if self.backend == NUMPY_BACKEND:
            scan_blocks = self._numpy_blocks(ids, blocks, drop_detected)
        else:
            scan_blocks = self._python_blocks(ids, blocks, drop_detected)
        for num, detections in scan_blocks:
            result.detections_per_pattern.extend([0] * num)
            for index, first_bit in detections:
                fault_list.mark_detected_at(
                    positions[index], pattern_offset + simulated + first_bit
                )
                result.detections_per_pattern[simulated + first_bit] += 1
            simulated += num
            result.coverage_curve.append((pattern_offset + simulated, fault_list.coverage()))
        result.patterns_simulated = simulated
        return result

    def _python_blocks(self, ids: Sequence[int], blocks, drop_detected: bool = True):
        """Per block: ``(patterns, [(index into ids, first bit)])``, the
        python backend's PPSFP with dropping."""
        spec = self.table.spec
        active = [(index, spec(fid)) for index, fid in enumerate(ids)]
        kernel = self.kernel
        good = self._good
        for block in blocks:
            num = block.num_patterns
            mask = mask_for(num)
            kernel.set_stimulus(good, block.assignments, mask)
            kernel.evaluate(good, mask)
            self.gate_evals += kernel.num_gates
            detections, active = self._scan_block(active, good, mask, drop_detected)
            yield num, detections

    def _np_block_pass(
        self, scan: FaultScanKernel, block: PatternBlock, active: list[int]
    ) -> tuple[dict, int]:
        """One numpy-backend block: load, forward-evaluate, scan the actives.

        The single home of the per-block numpy execution, shared by the
        campaign loop and the shard primitive through
        :meth:`_numpy_blocks`.  Returns ``(detection rows by canonical
        position, block pattern count)``.  The fault-free pass always runs
        (the python backend does too, and its gate-evaluation accounting must
        match); the fault scan is skipped when nothing is active.
        """
        num = block.num_patterns
        mask = mask_for(num)
        num_words = words_for(num)
        np_kernel = scan.nk
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

    def _numpy_blocks(self, ids: Sequence[int], blocks, drop_detected: bool = True):
        """The ``"numpy"`` backend form of :meth:`_python_blocks`: level-
        batched bit-plane forward simulation plus the fault-vectorised
        union-cone scan, over the active positions of one compiled order
        (compiled at the first block)."""
        scan = None
        active = list(range(len(ids)))
        for block in blocks:
            if scan is None:
                scan = self._numpy_scan(ids)
                scan.ensure_live(active)
            rows, num = self._np_block_pass(scan, block, active)
            detections: list[tuple[int, int]] = []
            still_active: list[int] = []
            for position in active:
                row = rows.get(position)
                if row is None:
                    still_active.append(position)
                    continue
                word = plane_to_word(row)
                detections.append((position, (word & -word).bit_length() - 1))
                if not drop_detected:
                    still_active.append(position)
            active = still_active
            scan.maybe_prune(active)
            yield num, detections

    # ------------------------------------------------------------------ #
    # Sharded-campaign primitives
    # ------------------------------------------------------------------ #
    def first_detections(
        self,
        faults: Sequence[StuckAtFault],
        blocks: Iterable[tuple[int, PatternBlock]],
    ) -> dict[int, int]:
        """First-detection scan: the shard primitive of the campaign runner.

        ``blocks`` is a stream of ``(global pattern offset, PatternBlock)``
        pairs.  For every fault the *global index of the first detecting
        pattern* within the stream is returned, keyed by the fault's index
        in ``faults`` (faults never detected are absent).  Detection of one
        fault never depends on any other fault -- fault dropping is a pure
        optimisation here -- so partitioning faults and/or pattern blocks
        across shards and min-merging the returned indices reproduces the
        serial result bit for bit.
        """
        ids = self.table.ids_of(faults)
        scan = self._numpy_blocks if self.backend == NUMPY_BACKEND else self._python_blocks
        detections: dict[int, int] = {}
        remaining = len(ids)
        offsets = []

        def stream():
            for offset, block in blocks:
                if len(detections) == remaining:
                    return
                offsets.append(offset)
                yield block

        for _num, found in scan(ids, stream()):
            for index, first_bit in found:
                detections[index] = offsets[-1] + first_bit
        return detections

    # ------------------------------------------------------------------ #
    # Fault-effect profiling (drives the paper's test-point insertion)
    # ------------------------------------------------------------------ #
    def fault_effect_profile_ids(
        self,
        ids: Sequence[int],
        blocks: Iterable[PatternBlock],
        candidate_nets: Optional[Sequence[str]] = None,
    ) -> dict[str, dict[int, int]]:
        """Where do the effects of (undetected) faults travel?

        For every candidate net, count per fault in how many of the given
        patterns the fault effect is visible at that net.  The test-point
        insertion engine turns this into a set-cover problem: pick the nets
        that expose the most undetected faults.

        Parameters
        ----------
        ids:
            Stuck-at table IDs of the faults to profile (typically the
            random-resistant ones).
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
            Mapping candidate net -> {index into ``ids``: number of patterns
            whose effect reaches the net}.  Nets never reached by any fault
            are omitted.
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
        profile: dict[str, dict[int, int]] = {}
        fault_specs = [self.table.spec(fid) for fid in ids]
        good = self._good
        for block in blocks:
            num = block.num_patterns
            mask = mask_for(num)
            kernel.set_stimulus(good, block.assignments, mask)
            kernel.evaluate(good, mask)
            self.gate_evals += kernel.num_gates
            for index, spec in enumerate(fault_specs):
                site_id, faulty_word = self._faulty_site_value(spec, good, mask)
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
                        bucket[index] = bucket.get(index, 0) + diff.bit_count()
        return profile
