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
:func:`repro.oracle.patterns.simulate_patterns`.  Each backend has one drop
loop, and it scans the launch-on-capture transition model too
(:mod:`repro.faults.transition_sim`): a row's detection mask is ANDed with
a gate word, the block mask for a stuck-at scan or the row's activation
under a launch block.

The same engine exposes :meth:`FaultSimulator.fault_effect_profile_ids`,
which the paper's fault-simulation-guided test-point insertion uses: instead
of asking "did the effect reach an observation net?" it records *which
internal nets* the effect of each undetected fault reaches, so that
observation points can be placed where they convert the most undetected
faults into detected ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Iterable, Optional, Sequence

from ..netlist.circuit import Circuit
from ..netlist.gates import evaluate_packed
from ..simulation.kernel import shared_kernel
from ..simulation.numpy_backend import (
    NUMPY_BACKEND,
    PYTHON_BACKEND,
    FaultArrays,
    FaultScanKernel,
    load_numpy,
    numpy_kernel_for,
    plane_to_word,
    resolve_backend,
    resolve_memory_budget_mb,
    scan_kernel_for,
    width_cache,
    words_for,
)
from ..simulation.packed import PatternBlock, mask_for
from ..util.cache import KeyedLruCache
from .fault_list import SITE_CONST, FaultList, stuck_at_table
from .models import StuckAtFault


@dataclass(frozen=True)
class FaultSimShardState:
    """Pickleable description of one fault-simulation shard, of either fault
    model.

    A shard worker rebuilds the compiled engine from this record alone: the
    circuit (plain dataclasses all the way down), the observation nets and
    the faults as rows of the circuit's stuck-at table.  Only enumerated
    rows (below ``table.universe``) ship, so a worker's own compile of the
    circuit names the same faults.  Under ``transition`` each row is the
    equivalent stuck-at row of a transition fault (an s-a-0 row is
    slow-to-rise) and the engine scans launch-on-capture pairs.  A
    scenario's shards each hold only their own rows, and report them by
    their canonical indices, which keeps the merge step (and the pickles)
    small and makes merged results independent of shard order and worker
    count.
    """

    circuit: Circuit
    observe_nets: tuple[str, ...]
    rows: tuple[int, ...]
    #: Execution backend the shard worker compiles ("python" or "numpy").
    sim_backend: str = PYTHON_BACKEND
    #: Peak scan-memory budget every pooled worker obeys (numpy backend;
    #: ``None`` = unbounded).  Carried in the shard state so a campaign's
    #: budget survives pickling into worker processes.
    sim_memory_budget_mb: Optional[float] = None
    #: The fault model: transition faults under launch/capture pairs.
    transition: bool = False

    def build_simulator(self):
        """Compile a fresh engine for this shard state: a
        :class:`FaultSimulator`, or a
        :class:`~repro.faults.transition_sim.TransitionFaultSimulator` under
        ``transition``."""
        engine = FaultSimulator
        if self.transition:
            from .transition_sim import TransitionFaultSimulator as engine
        return engine(
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
        np = load_numpy()
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
        return self.simulate_list(
            fault_list,
            fault_list.undetected_positions(),
            ((None, block) for block in blocks),
            drop_detected,
            pattern_offset,
        )

    def simulate_list(
        self,
        fault_list: FaultList,
        positions: Sequence[int],
        pairs: Iterable[tuple[Optional[PatternBlock], PatternBlock]],
        drop_detected: bool = True,
        pattern_offset: int = 0,
    ) -> FaultSimulationResult:
        """Scan the faults at ``positions`` of ``fault_list`` over
        ``(launch, block)`` pairs (see :meth:`_python_blocks`), marking
        detections by list position: the list driver of both fault models
        (:meth:`simulate_blocks`, and
        :meth:`~repro.faults.transition_sim.TransitionFaultSimulator.simulate_pairs`
        with launch blocks)."""
        ids = fault_list.table_ids(self.table, positions)
        result = FaultSimulationResult(fault_list, 0)
        simulated = 0
        for num, detections in self._scan(ids, pairs, drop_detected):
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

    def _scan(self, ids: Sequence[int], pairs, drop_detected: bool = True):
        """The backend's drop loop over ``(launch, block)`` pairs."""
        if self.backend == NUMPY_BACKEND:
            return self._numpy_blocks(ids, pairs, drop_detected)
        return self._python_blocks(ids, pairs, drop_detected)

    def _load(self, good: list[int], block: PatternBlock, mask: int) -> None:
        """Load ``block`` into a good-value table and forward-evaluate it."""
        self.kernel.set_stimulus(good, block.assignments, mask)
        self.kernel.evaluate(good, mask)
        self.gate_evals += self.kernel.num_gates

    def _np_load(self, nk, table, block: PatternBlock, mask_plane) -> None:
        """:meth:`_load` on a numpy bit-plane table."""
        num = block.num_patterns
        nk.set_stimulus(table, block.assignments, mask_for(num), words_for(num))
        nk.evaluate(table, mask_plane)
        self.gate_evals += self.kernel.num_gates

    def _launch_sites(self, ids: Sequence[int]) -> tuple[list[int], list[int]]:
        """Per row: the net its transition is launched at, and its stuck
        value (0: slow-to-rise, the site must rise; 1: slow-to-fall)."""
        table = self.table
        return [table.faulted_net(fid) for fid in ids], [table.value[fid] for fid in ids]

    def _activation(self, ids: Sequence[int]):
        """The python activation gate of the rows ``ids``: ``gate(launch,
        good, mask, active)`` loads the launch block and returns each
        ``(index, spec)`` entry's launch-on-capture activation word -- the
        transition at its site from the launch values to ``good`` that its
        stuck value names."""
        sites = list(zip(*self._launch_sites(ids)))
        launch_good = self.kernel.make_table()

        def gate(launch: PatternBlock, good: list[int], mask: int, active) -> list[int]:
            self._load(launch_good, launch, mask)
            words = []
            for index, _ in active:
                site, value = sites[index]
                before, after = launch_good[site], good[site]
                words.append((before & ~after if value else after & ~before) & mask)
            return words

        return gate

    def _np_activation(self, nk, ids: Sequence[int]):
        """:meth:`_activation` on bit planes: ``gate(launch, table,
        mask_plane)`` returns the activation rows of the whole order."""
        np = load_numpy()
        site_list, values = self._launch_sites(ids)
        sites = np.array(site_list, dtype=np.intp)
        falls = np.array(values, dtype=bool)[:, None]
        launch_tables = width_cache()

        def gate(launch: PatternBlock, table, mask_plane):
            num_words = table.shape[1]
            launch_table = launch_tables.get_or_build(
                num_words, lambda: nk.make_table(num_words)
            )
            self._np_load(nk, launch_table, launch, mask_plane)
            before, after = launch_table[sites], table[sites]
            return np.where(falls, before & ~after, ~before & after) & mask_plane

        return gate

    def _python_blocks(self, ids: Sequence[int], pairs, drop_detected: bool = True):
        """Per ``(launch, block)`` pair: ``(patterns, [(index into ids, first
        bit)])``, the python backend's PPSFP with dropping.

        A row's detection mask under ``block`` is ANDed with its gate word:
        the block mask when ``launch`` is ``None`` (a stuck-at scan), else
        its launch-on-capture activation (:meth:`_activation`).  A row whose
        gate word is 0 skips the cone resimulation.
        """
        spec = self.table.spec
        active = [(index, spec(fid)) for index, fid in enumerate(ids)]
        good = self._good
        detect = self._detection
        activation = None
        for launch, block in pairs:
            num = block.num_patterns
            mask = mask_for(num)
            self._load(good, block, mask)
            if launch is None:
                gates = repeat(mask)
            else:
                activation = activation or self._activation(ids)
                gates = activation(launch, good, mask, active)
            detections: list[tuple[int, int]] = []
            still_active = []
            for entry, gate in zip(active, gates):
                detection = gate and gate & detect(entry[1], good, mask)
                if detection:
                    detections.append((entry[0], (detection & -detection).bit_length() - 1))
                    if not drop_detected:
                        still_active.append(entry)
                else:
                    still_active.append(entry)
            active = still_active
            yield num, detections

    def _np_block_pass(
        self, scan: FaultScanKernel, block: PatternBlock, active: list[int], gate=None
    ) -> tuple[dict, int]:
        """One numpy-backend block: load, forward-evaluate, scan the actives.

        The single home of the per-block numpy execution (see
        :meth:`_numpy_blocks`).  Returns ``(detection rows by canonical
        position, block pattern count)``.  With a ``gate`` (a bound
        :meth:`_np_activation` gate) only positions with a live activation
        are scanned and each row is ANDed with its activation, so a row may
        be all zero.  The fault-free pass always runs (the python backend
        does too, and its gate-evaluation accounting must match).
        """
        num = block.num_patterns
        num_words = words_for(num)
        nk = scan.nk
        table = scan.table_for(num_words)
        mask_plane = nk.mask_plane(mask_for(num), num_words)
        self._np_load(nk, table, block, mask_plane)
        gates = None
        if gate is not None:
            gates = gate(table, mask_plane)
            live = gates.any(axis=1)
            active = [position for position in active if live[position]]
        if not active:
            return {}, num
        rows, resim_evals = scan.scan_positions(table, mask_plane, num_words, active)
        self.gate_evals += resim_evals
        if gates is not None:
            rows = {position: row & gates[position] for position, row in rows.items()}
        return rows, num

    def _numpy_blocks(self, ids: Sequence[int], pairs, drop_detected: bool = True):
        """The ``"numpy"`` backend form of :meth:`_python_blocks`: level-
        batched bit-plane forward simulation plus the fault-vectorised
        union-cone scan, over the active positions of one compiled order
        (compiled at the first block)."""
        scan = activation = None
        active = list(range(len(ids)))
        for launch, block in pairs:
            if scan is None:
                scan = self._numpy_scan(ids)
                scan.ensure_live(active)
            gate = None
            if launch is not None:
                activation = activation or self._np_activation(scan.nk, ids)
                gate = partial(activation, launch)
            rows, num = self._np_block_pass(scan, block, active, gate)
            detections: list[tuple[int, int]] = []
            still_active: list[int] = []
            for position in active:
                row = rows.get(position)
                word = 0 if row is None else plane_to_word(row)
                if word:
                    detections.append((position, (word & -word).bit_length() - 1))
                    if not drop_detected:
                        still_active.append(position)
                else:
                    still_active.append(position)
            active = still_active
            scan.maybe_prune(active)
            yield num, detections

    # ------------------------------------------------------------------ #
    # Sharded-campaign primitives
    # ------------------------------------------------------------------ #
    def first_detections(
        self,
        faults: Sequence[int],
        blocks: Iterable[tuple[int, PatternBlock]],
    ) -> dict[int, int]:
        """First-detection scan: the shard primitive of the campaign runner.

        ``faults`` are stuck-at table rows and ``blocks`` is a stream of
        ``(global pattern offset, PatternBlock)`` pairs.  For every fault
        the *global index of the first detecting pattern* within the stream
        is returned, keyed by the fault's index in ``faults`` (faults never
        detected are absent).  Detection of one fault never depends on any
        other fault -- fault dropping is a pure optimisation here -- so
        partitioning faults and/or pattern blocks across shards and
        min-merging the returned indices reproduces the serial result bit
        for bit.
        """
        return self.first_detections_over(
            faults, ((offset, None, block) for offset, block in blocks)
        )

    def first_detections_over(
        self,
        ids: Sequence[int],
        triples: Iterable[tuple[int, Optional[PatternBlock], PatternBlock]],
    ) -> dict[int, int]:
        """:meth:`first_detections` over ``(offset, launch, block)``
        triples, the stream both fault models' shard primitives scan."""
        detections: dict[int, int] = {}
        offsets = []

        def stream():
            for offset, launch, block in triples:
                if len(detections) == len(ids):
                    return
                offsets.append(offset)
                yield launch, block

        for _num, found in self._scan(ids, stream()):
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
