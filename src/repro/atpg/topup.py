"""Top-up ATPG: deterministic patterns for the faults random BIST missed.

This is the "# of Top-Up Patterns / Fault Coverage 2" row of Table 1: after
the 20 K random patterns plateau (Fault Coverage 1), the remaining
random-pattern-resistant faults are targeted one by one with PODEM, the
resulting cubes are compacted, X bits are random-filled, and every new pattern
is fault-simulated against the whole remaining fault population (with
dropping) so that one deterministic pattern usually retires many faults.

The candidate screening is **block-batched**: generated patterns are
buffered, incrementally packed into ``block_size``-wide words, and retired
against the remaining fault population with *one* PPSFP scan per block
(either simulation backend) instead of one width-1 scan of the whole
population per pattern -- which is where most of the top-up wall time used
to go.  Whether a pending target is already covered by a buffered (not yet
flushed) pattern is answered by a single cone resimulation of that fault
over the packed buffer, so the skip decisions -- and with them the PODEM
invocations, the random-fill RNG stream and every pattern byte -- exactly
match the one-pattern-at-a-time walk, which is kept as an oracle in
:mod:`repro.oracle.topup`.

In silicon the top-up patterns would be scanned in through the
Boundary-Scan port (Fig. 1's input selector) instead of coming from the
PRPG; here they are packed and screened like any block.  Their campaign
pattern indices live in their own range starting at
:data:`TOPUP_PATTERN_BASE`, so they can never collide with random-phase
indices.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from ..faults.fault_list import FaultList
from ..faults.fault_sim import FaultSimulator
from ..faults.models import FaultStatus, StuckAtFault
from ..netlist.circuit import Circuit
from ..simulation.packed import DEFAULT_BLOCK_SIZE, PatternBlock, iter_blocks, mask_for
from .compaction import merge_compatible_cubes
from .podem import AtpgOutcome, AtpgResult, PodemAtpg, TestCube

logger = logging.getLogger(__name__)

#: First campaign pattern index of the top-up phase.  Random-phase indices
#: are always below this base (a 20 K-pattern session uses [0, 20480)), so
#: top-up first-detection indices can never collide with random-phase ones.
TOPUP_PATTERN_BASE = 1_000_000


@dataclass
class TopUpResult:
    """Outcome of a top-up ATPG campaign."""

    patterns: list[dict[str, int]]
    #: PODEM cubes in generation order (before merging), repair cubes last.
    cubes: list[TestCube]
    attempted_faults: int = 0
    successful_faults: int = 0
    untestable_faults: int = 0
    aborted_faults: int = 0
    coverage_before: float = 0.0
    coverage_after: float = 0.0
    backtracks: int = 0
    #: Targets dropped by the ``max_faults`` cap before any ATPG ran (0 when
    #: every undetected fault was eligible) -- recorded so a capped run can
    #: never silently masquerade as a full one.
    skipped_targets: int = 0

    @property
    def pattern_count(self) -> int:
        """Number of top-up patterns produced (post compaction and random fill)."""
        return len(self.patterns)


class _ScreenBuffer:
    """Block-batched screening state: buffered patterns, packed incrementally.

    Patterns append into per-net packed words (bit *i* = pattern *i* of the
    buffer); :meth:`detects` answers "does any buffered pattern detect this
    fault?" with one fault-free evaluation per buffer change plus one cone
    resimulation per query, and :meth:`flush` retires the whole buffer
    against a fault list with a single PPSFP block scan.
    """

    def __init__(
        self,
        simulator: FaultSimulator,
        stimulus_nets: Sequence[str],
        block_size: int,
    ) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.simulator = simulator
        self.stimulus_nets = list(stimulus_nets)
        self.block_size = block_size
        self._count = 0
        self._words: dict[str, int] = {}
        self._table = simulator.kernel.make_table()
        self._dirty = False

    def append(self, pattern: Mapping[str, int]) -> None:
        """Buffer one fully-specified pattern (flush separately when full).

        Packing is incremental -- the per-net words *are* the buffer; no
        per-pattern dict is retained or re-packed at flush time.
        """
        bit = 1 << self._count
        words = self._words
        for net, value in pattern.items():
            if value:
                words[net] = words.get(net, 0) | bit
        self._count += 1
        self._dirty = True

    @property
    def full(self) -> bool:
        return self._count >= self.block_size

    def detects(self, fault: StuckAtFault) -> bool:
        """Does any *buffered* (unflushed) pattern detect ``fault``?"""
        num = self._count
        if not num:
            return False
        if self._dirty:
            mask = mask_for(num)
            kernel = self.simulator.kernel
            kernel.set_stimulus(self._table, self._words, mask)
            kernel.evaluate(self._table, mask)
            self._dirty = False
        return bool(self.simulator.detection_mask_ids(fault, self._table, num))

    def flush(self, fault_list: FaultList) -> None:
        """Retire the buffered patterns with one PPSFP scan (with dropping).

        Only the dropping counts: ``fault_list`` is the scratch list of
        targets, so detection indices are not kept.
        """
        if not self._count:
            return
        block = PatternBlock(
            {net: self._words.get(net, 0) for net in self.stimulus_nets},
            self._count,
        )
        self.simulator.simulate_blocks(fault_list, [block], drop_detected=True)
        self._count = 0
        self._words = {}
        self._dirty = False


@dataclass
class TopUpAtpg:
    """Driver that turns undetected faults into a compacted top-up pattern set."""

    circuit: Circuit
    observe_nets: Optional[Sequence[str]] = None
    backtrack_limit: int = 200
    seed: int = 2005
    #: Upper bound on targeted faults (None = all undetected faults).
    max_faults: Optional[int] = None
    #: Screening block width: generated patterns buffered per PPSFP scan.
    block_size: int = DEFAULT_BLOCK_SIZE
    #: Simulation backend for the screening scans ("python" or "numpy").
    sim_backend: str = "python"
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError(
                f"max_faults must be >= 0 or None, got {self.max_faults!r}"
            )
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------ #
    # Target planning (shared by every path, including the campaign stage)
    # ------------------------------------------------------------------ #
    def plan_targets(
        self, fault_list: FaultList, log: bool = True
    ) -> tuple[list[StuckAtFault], int]:
        """The ordered ATPG target list and the count dropped by ``max_faults``.

        Deterministic given the fault list state, so the campaign's pooled
        top-up expander and the serial walk always agree on the targets.
        ``log=False`` silences the dropped-target notice for the planning
        re-runs the campaign stages perform (the count is always recorded in
        ``TopUpResult.skipped_targets`` regardless).
        """
        targets = [f for f in fault_list.undetected() if isinstance(f, StuckAtFault)]
        skipped = 0
        if self.max_faults is not None and len(targets) > self.max_faults:
            skipped = len(targets) - self.max_faults
            targets = targets[: self.max_faults]
            if log:
                logger.info(
                    "top-up max_faults=%d drops %d of %d undetected targets",
                    self.max_faults,
                    skipped,
                    skipped + len(targets),
                )
        return targets, skipped

    def podem(self) -> PodemAtpg:
        """The PODEM generator this driver's runs use.

        Public because the campaign's :class:`PodemShardStage` workers must
        generate with exactly the backtrack limit the merge replay assumes.
        """
        return PodemAtpg(self.circuit, self.observe_nets, self.backtrack_limit)

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #
    def run(self, fault_list: FaultList) -> TopUpResult:
        """Generate compacted top-up patterns for the undetected faults.

        The generation loop is incremental (faults already covered by earlier
        cubes are skipped, so PODEM is only invoked for faults that still
        need a pattern).  The collected cubes are then merged, random-filled,
        and the *merged* patterns are fault-simulated against the real fault
        list -- so both the reported pattern count and the final coverage
        describe exactly the pattern set that would be scanned into silicon.
        A skipped target the merged patterns miss (its cover was an earlier
        cube's random fill, which merging redraws) is targeted again, and
        those cubes are merged and applied after the others.  The fault list
        is updated in place: every target ends detected, untestable (proven
        redundant) or aborted.
        """
        targets, skipped = self.plan_targets(fault_list)
        return self._run(fault_list, targets, skipped, self.podem().generate)

    def run_prepared(
        self,
        fault_list: FaultList,
        prepared: Mapping[StuckAtFault, AtpgResult],
    ) -> TopUpResult:
        """Replay a top-up campaign from pre-generated PODEM attempts.

        ``prepared`` maps every planned target to its (speculatively
        generated) :class:`AtpgResult` -- the campaign pipeline fans PODEM
        out across pool workers and then calls this to screen and compact
        deterministically.  Because a PODEM attempt depends only on the
        circuit and the fault, replaying the serial skip/fill/screen walk
        over prepared attempts is byte-identical to generating lazily.
        """
        targets, skipped = self.plan_targets(fault_list)
        missing = [fault for fault in targets if fault not in prepared]
        if missing:
            raise KeyError(
                f"run_prepared is missing attempts for {len(missing)} targets "
                f"(first: {missing[0]})"
            )
        return self._run(fault_list, targets, skipped, prepared.__getitem__)

    # ------------------------------------------------------------------ #
    # Block-batched screening
    # ------------------------------------------------------------------ #
    def _run(
        self,
        fault_list: FaultList,
        targets: Sequence[StuckAtFault],
        skipped: int,
        generate: Callable[[StuckAtFault], AtpgResult],
    ) -> TopUpResult:
        result = TopUpResult(
            patterns=[],
            cubes=[],
            coverage_before=fault_list.coverage(),
            skipped_targets=skipped,
        )
        # Scratch list used only to skip faults already covered by a cube
        # generated earlier in this loop.
        scratch = FaultList(targets)
        scratch_sim = FaultSimulator(
            self.circuit, self.observe_nets, backend=self.sim_backend
        )
        stimulus_nets = self.circuit.stimulus_nets()
        screen = _ScreenBuffer(scratch_sim, stimulus_nets, self.block_size)
        cubes: list[TestCube] = []
        screened: list[StuckAtFault] = []
        untestable: list[StuckAtFault] = []
        aborted: list[StuckAtFault] = []
        for fault in targets:
            covered = scratch.record(fault).status is FaultStatus.DETECTED
            if covered or screen.detects(fault):
                screened.append(fault)
                continue
            cube = self._attempt(fault, generate, result, untestable, aborted)
            if cube is None:
                continue
            cubes.append(cube)
            filled = cube.fill_random(self._rng, stimulus_nets)
            screen.append(filled)
            if screen.full:
                screen.flush(scratch)

        # Apply the final (compacted) pattern set to the real fault list in
        # block_size-wide packed words (detections are block-size invariant).
        simulator = FaultSimulator(
            self.circuit, self.observe_nets, backend=self.sim_backend
        )
        patterns = self._apply(simulator, fault_list, cubes, stimulus_nets, [])
        # A screened target was covered by an earlier cube's *first* fill,
        # but the merged cubes are filled afresh and may miss it: target the
        # ones they miss.  A merged pattern contains each of its cubes, so it
        # always detects their own faults and one repair pass suffices.
        repairs: list[TestCube] = []
        for fault in screened:
            if fault_list.record(fault).status is FaultStatus.UNDETECTED:
                cube = self._attempt(fault, generate, result, untestable, aborted)
                if cube is not None:
                    repairs.append(cube)
        patterns = self._apply(simulator, fault_list, repairs, stimulus_nets, patterns)
        result.cubes = cubes + repairs
        for fault in untestable:
            fault_list.mark_untestable(fault)
        for fault in aborted:
            fault_list.mark_aborted(fault)
        result.patterns = patterns
        result.coverage_after = fault_list.coverage()
        return result

    @staticmethod
    def _attempt(
        fault: StuckAtFault,
        generate: Callable[[StuckAtFault], AtpgResult],
        result: TopUpResult,
        untestable: list[StuckAtFault],
        aborted: list[StuckAtFault],
    ) -> Optional[TestCube]:
        """One PODEM attempt, counted in ``result``; its cube on success."""
        result.attempted_faults += 1
        attempt = generate(fault)
        result.backtracks += attempt.backtracks
        if attempt.outcome is AtpgOutcome.UNTESTABLE:
            untestable.append(fault)
            result.untestable_faults += 1
            return None
        if attempt.outcome is AtpgOutcome.ABORTED:
            aborted.append(fault)
            result.aborted_faults += 1
            return None
        result.successful_faults += 1
        return attempt.cube

    def _apply(
        self,
        simulator: FaultSimulator,
        fault_list: FaultList,
        cubes: Sequence[TestCube],
        stimulus_nets: Sequence[str],
        patterns: list[dict[str, int]],
    ) -> list[dict[str, int]]:
        """Merge and random-fill ``cubes``, then retire the new patterns.

        The new patterns follow ``patterns`` in the top-up index range; the
        extended list is returned.
        """
        if not cubes:
            return patterns
        new = [
            cube.fill_random(self._rng, stimulus_nets)
            for cube in merge_compatible_cubes(cubes)
        ]
        simulator.simulate_blocks(
            fault_list,
            iter_blocks(new, block_size=self.block_size, nets=stimulus_nets),
            drop_detected=True,
            pattern_offset=TOPUP_PATTERN_BASE + len(patterns),
        )
        return patterns + new
