"""Order-independent merging of per-shard campaign outcomes.

Every shard task reports, for each of its faults, the global index of the
first pattern (within the shard's pattern range) that detects the fault.
Because per-fault detection depends only on the fault-free values and the
fault itself -- never on other faults -- the serial result is recovered
exactly by

1. taking the **minimum** first-detection index per fault over all shards
   (a commutative, associative reduction: shard order and worker count
   cannot change it), and
2. rebuilding the coverage curve / per-pattern detection credits from the
   merged indices and the serial block boundaries.

Step 2 reproduces the serial :class:`~repro.faults.fault_sim.FaultSimulationResult`
bit for bit: the serial engine samples ``fault_list.coverage()`` after every
block, and a fault contributes to that sample iff its first detection falls
before the block boundary -- which is precisely what the merged indices
encode.  The same integer counts divide to the same floats, so even the
curve's floating-point values are identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ..faults.fault_list import FaultList
from ..faults.fault_sim import FaultSimulationResult
from .scheduler import StageFailure


@dataclass(frozen=True)
class ShardOutcome:
    """What one fault-simulation shard task reports back to the merger.

    Attributes
    ----------
    scenario_key:
        Which scenario of the campaign this shard belongs to.
    shard_id:
        Position of the task in the scenario's shard plan (diagnostic only;
        the merge never depends on it).
    first_detections:
        Mapping fault index (into the scenario's canonical fault ordering)
        -> global index of the first detecting pattern in this shard's range.
    gate_evals:
        Gate (re-)evaluations performed by the shard, for throughput
        accounting.
    seconds:
        Wall-clock compute time inside the worker (excludes task pickling).
    """

    scenario_key: str
    shard_id: int
    first_detections: dict[int, int]
    gate_evals: int = 0
    seconds: float = 0.0


def merge_first_detections(
    outcomes: Iterable[ShardOutcome],
) -> dict[int, int]:
    """Min-merge per-fault first detections across shards (order-independent)."""
    merged: dict[int, int] = {}
    for outcome in outcomes:
        for fault_index, pattern_index in outcome.first_detections.items():
            current = merged.get(fault_index)
            if current is None or pattern_index < current:
                merged[fault_index] = pattern_index
    return merged


def build_simulation_result(
    fault_list: FaultList,
    positions: Sequence[int],
    merged: Mapping[int, int],
    block_boundaries: Sequence[int],
) -> FaultSimulationResult:
    """Materialise the serial-equivalent result from merged detections.

    Parameters
    ----------
    fault_list:
        The campaign's fault list; detected faults are marked in place with
        their merged global first-detection index (exactly once each, as the
        serial engine does under fault dropping).
    positions:
        Fault-list position of each fault of the canonical ordering the
        merged indices refer to.
    merged:
        Fault index -> global first-detection pattern index.
    block_boundaries:
        Cumulative pattern counts after each serial block (e.g. ``[256, 512]``
        for two 256-pattern blocks); these are the serial coverage-curve
        sample points.
    """
    total_patterns = block_boundaries[-1] if block_boundaries else 0
    detections_per_pattern = [0] * total_patterns
    # Mark in canonical fault order, as the serial engine does.
    for fault_index, pattern_index in sorted(merged.items()):
        fault_list.mark_detected_at(positions[fault_index], pattern_index)
        detections_per_pattern[pattern_index] += 1

    result = FaultSimulationResult(fault_list, total_patterns)
    result.detections_per_pattern = detections_per_pattern
    # The serial curve sample after block k counts the detections at pattern
    # indices below its boundary, plus every credit from outside the campaign
    # (the chain-flush test, index -1, or an earlier phase): exactly what
    # ``coverage_curve`` counts, against the same denominator.
    result.coverage_curve = fault_list.coverage_curve(block_boundaries)
    return result


# --------------------------------------------------------------------- #
# Canonical failure records (graceful degradation)
# --------------------------------------------------------------------- #
#: Reserved top-level key of the canonical campaign report holding the
#: per-scenario failure records of a degraded (partial) run.  Scenario names
#: must not collide with it -- the runner and the service reject the name.
FAILURES_KEY = "failures"


def canonical_failure(failure: StageFailure, scenario_key: str) -> dict:
    """The byte-deterministic report record of one permanent stage failure.

    The stage key is made relative to its scenario graph root, so the same
    logical failure -- "``tpi`` of scenario X raised ``ValueError`` after 3
    attempts" -- serialises identically whatever worker count, run or tier
    produced it.  The swept descendant keys stay *out* of the record: the
    cancelled set depends on shard geometry (fan-out width follows the
    worker count), which would break byte-identity across worker counts for
    no informational gain -- descendants are implied by "everything
    downstream of this stage".
    """
    stage = failure.key.removeprefix(scenario_key + "/")
    return {
        "stage": stage,
        "phase": failure.phase,
        "error_type": failure.error_type,
        "error": failure.error,
        "attempts": failure.attempts,
    }


def sort_failures(records: Iterable[dict]) -> list[dict]:
    """Deterministic ordering of a scenario's failure records.

    Used by every producer of a ``failures`` section (runner, service,
    stream reassembler) so partial reports agree byte for byte.
    """
    return sorted(
        records,
        key=lambda record: (
            record["stage"],
            record["error_type"],
            record["error"],
            record["attempts"],
        ),
    )


# --------------------------------------------------------------------- #
# Scenario / campaign reports
# --------------------------------------------------------------------- #
def canonical_report_bytes(canonical: dict) -> bytes:
    """The one canonical JSON serialisation: equal dicts <=> equal bytes.

    Every report-byte producer (scenario, campaign, and the service tier's
    stream reassembler) funnels through this function, so "byte-identical"
    can never drift between the in-process path and a reassembled stream.
    """
    return json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()


#: Names of the streamable fragments of a scenario's canonical report, in
#: canonical-assembly order.  ``base``/``topup``/``transition``/``skew`` are
#: :meth:`ScenarioResult.canonical_sections` payloads; the coverage curves
#: (``random``/``transition``) stream separately as incremental deltas.
SECTION_NAMES = ("base", "topup", "transition", "skew")
CURVE_NAMES = ("random", "transition")


def assemble_scenario_canonical(
    sections: Mapping[str, dict], curves: Mapping[str, Sequence[Sequence]]
) -> dict:
    """Rebuild a scenario's canonical dict from streamed fragments.

    Inverse of :meth:`ScenarioResult.canonical_sections` plus the coverage
    curves: given the section payloads and the (reassembled, index-ordered)
    ``random`` / ``transition`` curves, this produces exactly
    ``ScenarioResult.canonical_dict()`` -- the property the stream suite
    pins down for arbitrary event interleavings.
    """
    if "base" not in sections:
        raise KeyError("cannot assemble a scenario without its 'base' section")
    canonical = dict(sections["base"])
    canonical["coverage_curve"] = [list(point) for point in curves.get("random", ())]
    if "topup" in sections:
        canonical.update(sections["topup"])
    if "transition" in sections:
        transition = dict(sections["transition"])
        transition["coverage_curve"] = [
            list(point) for point in curves.get("transition", ())
        ]
        canonical["transition"] = transition
    if "skew" in sections:
        canonical["skew"] = sections["skew"]
    return canonical


@dataclass
class ScenarioResult:
    """Merged, canonical outcome of one (core, config) campaign scenario."""

    name: str
    core_name: str
    total_faults: int
    patterns_simulated: int
    coverage: float
    coverage_curve: list[tuple[int, float]]
    #: ``str(fault)`` -> global first-detection pattern index (-1 = chain
    #: flush; >= ``TOPUP_PATTERN_BASE`` = top-up pattern).
    first_detections: dict[str, int]
    #: Per-clock-domain MISR signatures (empty when signatures are disabled).
    signatures: dict[str, int] = field(default_factory=dict)
    #: Top-up phase accounting (populated only when the scenario ran the
    #: deterministic ATPG top-up; ``coverage`` is then post-top-up while
    #: ``coverage_random`` preserves the random-phase plateau).
    coverage_random: Optional[float] = None
    topup_pattern_count: Optional[int] = None
    topup_attempted: int = 0
    topup_successful: int = 0
    topup_untestable: int = 0
    topup_aborted: int = 0
    topup_skipped_targets: int = 0
    #: At-speed transition measurement (populated only when the scenario's
    #: config set ``measure_transition_coverage``; the ``transition`` section
    #: of the canonical report).
    transition_coverage: Optional[float] = None
    transition_total_faults: int = 0
    transition_detected: int = 0
    transition_patterns: int = 0
    transition_coverage_curve: list[tuple[int, float]] = field(default_factory=list)
    transition_first_detections: dict[str, int] = field(default_factory=dict)
    #: Fig. 3 Monte-Carlo skew sweep (populated when ``skew_trials > 0``):
    #: the canonical dict of a :class:`~repro.campaign.pipeline.SkewOutcome`.
    skew: Optional[dict] = None
    #: Diagnostics (excluded from the canonical report bytes).
    num_shards: int = 1
    num_workers: int = 1
    gate_evals: int = 0
    seconds: float = 0.0
    fault_list: Optional[FaultList] = None

    def canonical_dict(self) -> dict:
        """Deterministic content-only view (no timings, no worker counts)."""
        canonical = {
            "name": self.name,
            "core": self.core_name,
            "total_faults": self.total_faults,
            "patterns_simulated": self.patterns_simulated,
            "coverage": self.coverage,
            "coverage_curve": [list(point) for point in self.coverage_curve],
            "first_detections": dict(sorted(self.first_detections.items())),
            "signatures": dict(sorted(self.signatures.items())),
        }
        if self.topup_pattern_count is not None:
            canonical["coverage_random"] = self.coverage_random
            canonical["topup"] = {
                "patterns": self.topup_pattern_count,
                "attempted": self.topup_attempted,
                "successful": self.topup_successful,
                "untestable": self.topup_untestable,
                "aborted": self.topup_aborted,
                "skipped_targets": self.topup_skipped_targets,
            }
        if self.transition_coverage is not None:
            canonical["transition"] = {
                "coverage": self.transition_coverage,
                "total_faults": self.transition_total_faults,
                "detected": self.transition_detected,
                "patterns": self.transition_patterns,
                "coverage_curve": [
                    list(point) for point in self.transition_coverage_curve
                ],
                "first_detections": dict(
                    sorted(self.transition_first_detections.items())
                ),
            }
        if self.skew is not None:
            canonical["skew"] = self.skew
        return canonical

    def canonical_sections(self) -> dict[str, dict]:
        """The streamable curve-free fragments of :meth:`canonical_dict`.

        Keys are a subset of :data:`SECTION_NAMES`; ``base`` is always
        present, the rest only when the scenario ran that phase.  Coverage
        curves are deliberately excluded -- they stream incrementally as
        deltas -- and
        :func:`assemble_scenario_canonical` recombines both halves.
        """
        canonical = self.canonical_dict()
        base = {
            key: value
            for key, value in canonical.items()
            if key
            not in ("coverage_curve", "coverage_random", "topup", "transition", "skew")
        }
        sections: dict[str, dict] = {"base": base}
        if "topup" in canonical:
            sections["topup"] = {
                "coverage_random": canonical["coverage_random"],
                "topup": canonical["topup"],
            }
        if "transition" in canonical:
            sections["transition"] = {
                key: value
                for key, value in canonical["transition"].items()
                if key != "coverage_curve"
            }
        if "skew" in canonical:
            sections["skew"] = canonical["skew"]
        return sections

    def report_bytes(self) -> bytes:
        """Canonical byte-exact report: equal results <=> equal bytes.

        Shard order, shard count and worker count must not leak into this
        serialisation -- the regression suite compares these bytes across
        permuted shard assignments and worker counts.
        """
        return canonical_report_bytes(self.canonical_dict())


@dataclass
class CampaignResult:
    """Merged outcome of a whole multi-scenario campaign.

    ``scenarios`` holds the completed scenarios; ``failures`` the canonical
    failure records (:func:`canonical_failure`, sorted by
    :func:`sort_failures`) of scenarios that were quarantined after a stage
    exhausted its retries.  A clean run has an empty ``failures`` and its
    report bytes are unchanged from the pre-resilience format; a degraded
    run is *partial* -- sibling results intact, plus one reserved
    ``"failures"`` top-level section.
    """

    scenarios: dict[str, ScenarioResult]
    #: Scenario name -> sorted canonical failure records.
    failures: dict[str, list[dict]] = field(default_factory=dict)
    num_workers: int = 1
    seconds: float = 0.0

    def __getitem__(self, name: str) -> ScenarioResult:
        return self.scenarios[name]

    @property
    def partial(self) -> bool:
        """Did any scenario fail permanently (degraded run)?"""
        return bool(self.failures)

    def canonical_dict(self) -> dict:
        canonical = {
            name: result.canonical_dict()
            for name, result in sorted(self.scenarios.items())
        }
        if self.failures:
            canonical[FAILURES_KEY] = {
                name: sort_failures(records)
                for name, records in sorted(self.failures.items())
            }
        return canonical

    def report_bytes(self) -> bytes:
        """Canonical byte-exact report across every scenario."""
        return canonical_report_bytes(self.canonical_dict())
