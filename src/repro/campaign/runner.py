"""Multi-scenario campaign runner: many (core, config) pairs, one pool.

:class:`CampaignRunner` turns each :class:`CampaignScenario` into its stage
subgraph (:func:`~repro.campaign.pipeline.scenario_stage_nodes`: scan prep
-> TPI -> STUMPS/session -> fault-sim fan-out -> signature -> report),
concatenates the subgraphs into one DAG and drains it through one
scheduler, so scenario B's TPI profiling -- itself a full fault simulation
under ``tpi_method="fault_sim"`` -- runs while scenario A's shards are still
in flight.  With ``num_workers <= 1`` the same DAG executes on the
in-process :class:`~repro.campaign.scheduler.SerialScheduler`, the
deterministic fallback and the bit-exactness oracle; otherwise on the
resilient :class:`~repro.campaign.scheduler.PooledScheduler`.

Fault shards are planned by :mod:`repro.campaign.sharding` (site-local
keyed round-robin, each shard over the whole session) and executed by the
pipeline's :class:`~repro.campaign.pipeline.ShardScanStage`.  Shard results come back
as per-fault first-detection indices and are min-merged by
:mod:`repro.campaign.results` -- a reduction independent of shard order and
worker count, which is what makes the canonical report bytes
**bit-identical** to the serial compiled-kernel path (``tests/campaign``
asserts it across shard counts, block sizes, permuted shard assignments,
worker counts and both execution backends).

The runner is the one scenario driver: :meth:`CampaignRunner.run` is
:meth:`~CampaignRunner.plan` (name checks, the stage graph),
:meth:`~CampaignRunner.scheduler` and :meth:`~CampaignRunner.collect`
(canonical failures, the :class:`~repro.campaign.results.CampaignResult`).
:class:`~repro.service.CampaignService` drives its jobs through the same
three calls, and so does :class:`~repro.core.flow.LogicBistFlow`: the flow
is a one-scenario campaign with top-up on and degradation off, which also
reads the BIST-ready structures out of the finished run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..core.config import LogicBistConfig, RetryPolicy
from ..netlist.circuit import Circuit
from ..netlist.library import CellLibrary
from .pipeline import scenario_stage_nodes
from .results import (
    FAILURES_KEY,
    CampaignResult,
    ScenarioResult,
    canonical_failure,
    sort_failures,
)
from .scheduler import _ResilientPool, make_scheduler


@dataclass
class CampaignScenario:
    """One (core, config) pair of a campaign.

    ``circuit`` is the raw IP-core netlist; the pipeline performs the
    BIST-ready preparation (scan insertion, test-point insertion, per-domain
    STUMPS, chain-flush credit) before fault-simulating the random-pattern
    session.
    """

    name: str
    circuit: Circuit
    config: LogicBistConfig = field(default_factory=LogicBistConfig)


def check_scenario_names(scenarios: Iterable[CampaignScenario]) -> None:
    """Raise ``ValueError`` unless every scenario name is distinct and none
    is the report's reserved ``failures`` section."""
    names = [scenario.name for scenario in scenarios]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate scenario names {duplicates!r}: results are keyed "
            "by name, so every scenario needs a distinct one"
        )
    if FAILURES_KEY in names:
        raise ValueError(
            f"scenario name {FAILURES_KEY!r} is reserved for the "
            "canonical report's failure section"
        )


@dataclass(frozen=True)
class CampaignPlan:
    """One campaign's stage graph, as :meth:`CampaignRunner.plan` built it."""

    #: Every scenario's stage nodes, concatenated in scenario order.
    nodes: tuple
    #: Scenario name -> that scenario's artifact keys
    #: (:func:`~repro.campaign.pipeline.scenario_stage_nodes`).
    artifact_keys: dict[str, dict[str, str]]
    #: Scenario name -> its graph key ``<prefix>s<i>:<name>``.
    key_by_name: dict[str, str]

    def failure_record(self, failure) -> dict:
        """The canonical report record of one permanent stage failure, its
        stage key made relative to its scenario's graph key."""
        return canonical_failure(failure, self.key_by_name[failure.scenario])


class CampaignRunner:
    """Fans many (core, config) scenarios out over one worker pool.

    Each scenario becomes a stage subgraph (scan prep -> TPI -> STUMPS +
    session -> fault-sim shard fan-out -> signature -> report); the
    subgraphs concatenate into one multi-scenario DAG that a single
    :class:`~repro.campaign.scheduler.PooledScheduler` drains, so the heavy
    work -- scan insertion, TPI profiling and every fault and PODEM shard
    -- keeps every worker busy even while small scenarios finish early.
    Stages that compute less than one pooled dispatch costs (the bundle,
    signature, transition preparation, skew sweep, shard planning, merges
    and report) run in the parent; see :mod:`repro.campaign.pipeline`.

    With ``num_workers <= 1`` the identical DAG runs on the in-process
    :class:`~repro.campaign.scheduler.SerialScheduler` -- the deterministic
    fallback and the bit-exactness oracle.  ``fault_shards`` (default:
    ``max(1, num_workers)``) must be at least 1.

    Fault tolerance: ``retry_policy`` (default: single-attempt) grants
    stages retries with deterministic backoff, plus soft timeouts and
    worker-crash recovery in the pooled schedule.  With ``degrade=True``
    (the default), a stage that exhausts its attempts quarantines only its
    scenario -- siblings finish, and the returned
    :class:`~repro.campaign.results.CampaignResult` is *partial*: the failed
    scenario moves from ``scenarios`` into the canonical ``failures``
    section.  ``degrade=False`` restores fail-the-whole-campaign semantics.
    ``chaos`` threads a :class:`~repro.campaign.chaos.ChaosPlan` through the
    scheduler (test / drill support).

    Pool ownership: :meth:`open_pool` opens :attr:`pool`, and every pooled
    scheduler the runner makes from then on drains through its workers,
    and the kernels they compiled, until :meth:`close` reaps them.  A
    campaign that ends early (cancel, deadline, fatal error) replaces only
    the workers still running its stages.  With no pool open, each pooled
    :meth:`run` opens one and reaps it before returning, so a standalone
    run leaves no process behind.
    """

    def __init__(
        self,
        num_workers: int = 1,
        fault_shards: Optional[int] = None,
        mp_context=None,
        retry_policy=None,
        chaos=None,
        degrade: bool = True,
    ) -> None:
        if fault_shards is None:
            fault_shards = max(1, num_workers)
        if fault_shards < 1:
            raise ValueError(
                f"fault_shards must be at least 1, got {fault_shards!r}"
            )
        self.num_workers = num_workers
        self.fault_shards = fault_shards
        self.mp_context = mp_context
        self.retry_policy = retry_policy
        self.chaos = chaos
        self.degrade = degrade
        self.library = CellLibrary()
        #: The last campaign's stage trace, as a trace-only
        #: :class:`~repro.campaign.scheduler.PipelineRun` (no artifact
        #: store) -- timing and resilience diagnostics (``trace``,
        #: ``retries``, ``failures``, ``cancelled``) only, never part of
        #: the canonical report.
        self.last_run = None
        #: The worker pool every pooled scheduler of this runner drains
        #: through; ``None`` until :meth:`open_pool`, and again after
        #: :meth:`close`.
        self.pool: Optional[_ResilientPool] = None

    # ------------------------------------------------------------------ #
    def run(
        self, scenarios: Iterable[CampaignScenario], cancel_token=None
    ) -> CampaignResult:
        """Run every scenario's random-pattern fault-sim + signature session.

        ``cancel_token`` (a :class:`~repro.campaign.scheduler.CancelToken`)
        stops the schedule cooperatively at the next stage boundary:
        :class:`~repro.campaign.scheduler.ScheduleCancelled` propagates to
        the caller carrying the half-finished run.  The service tier layers
        checkpointing on top; here the token is the raw mechanism (and the
        clean-run overhead probe ``benchmarks/bench_resilience.py`` arms).

        Scenarios whose config sets ``campaign_topup=True`` additionally run
        the deterministic ATPG top-up phase: PODEM target shards fan out
        through the same pool as everything else (site-local keyed
        round-robin), and a deterministic screen / compact replay merges the
        cubes -- the scenario's reported coverage and first detections then
        include the top-up patterns (indices >=
        :data:`repro.atpg.topup.TOPUP_PATTERN_BASE`), byte-identical to the
        serial walk at any worker count.

        Scenarios whose config sets ``measure_transition_coverage`` run the
        launch-on-capture transition fan-out and their canonical report
        gains a ``transition`` section; ``skew_trials > 0`` adds the Fig. 3
        Monte-Carlo skew sweep (one stage in the parent) as a ``skew``
        section.  Both are byte-identical to the serial walk at any
        worker/shard count.
        """
        start = time.perf_counter()
        plan = self.plan(scenarios)
        pipeline_run = self.scheduler().run(plan.nodes, cancel_token=cancel_token)
        # Keep the trace (the Amdahl/benchmark diagnostics), drop the
        # artifact store: it holds every scenario's circuits and faults.
        self.last_run = pipeline_run.trace_only()
        return self.collect(plan, pipeline_run, start)

    def plan(
        self, scenarios: Iterable[CampaignScenario], prefix: str = ""
    ) -> CampaignPlan:
        """Check the names and build every scenario's stage subgraph, keyed
        ``<prefix>s<i>:<name>`` (the service prefixes its job id)."""
        scenarios = list(scenarios)
        check_scenario_names(scenarios)
        nodes = []
        artifact_keys: dict[str, dict[str, str]] = {}
        key_by_name: dict[str, str] = {}
        for index, scenario in enumerate(scenarios):
            key = f"{prefix}s{index}:{scenario.name}"
            scenario_nodes, keys = scenario_stage_nodes(
                key,
                scenario.circuit,
                scenario.config,
                library=self.library,
                scenario_name=scenario.name,
                fault_shards=self.fault_shards,
                num_workers=self.num_workers,
            )
            nodes.extend(scenario_nodes)
            artifact_keys[scenario.name] = keys
            key_by_name[scenario.name] = key
        return CampaignPlan(tuple(nodes), artifact_keys, key_by_name)

    def scheduler(self):
        """A fresh scheduler for one campaign: serial at one worker, else
        pooled on :attr:`pool` when one is open, or on a pool of its own
        that its run reaps."""
        return make_scheduler(
            self.num_workers,
            mp_context=self.mp_context,
            retry_policy=self.retry_policy,
            chaos=self.chaos,
            degrade=self.degrade,
            pool=self.pool,
        )

    def open_pool(self) -> None:
        """Open :attr:`pool` (at ``num_workers >= 2``, unless one is open);
        every later :meth:`scheduler` runs on it until :meth:`close`."""
        if self.num_workers >= 2 and self.pool is None:
            self.pool = _ResilientPool(
                self.num_workers, self.retry_policy or RetryPolicy(), self.mp_context
            )

    def close(self) -> None:
        """Reap :attr:`pool`'s workers (a no-op when none is open)."""
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def collect(self, plan: CampaignPlan, run, start: float) -> CampaignResult:
        """The campaign result of a finished ``run`` of ``plan``: degraded
        scenarios' canonical failure records, every other scenario's report;
        ``start`` is the campaign's ``time.perf_counter()`` start."""
        failures: dict[str, list[dict]] = {}
        for failure in run.failures:
            failures.setdefault(failure.scenario, []).append(
                plan.failure_record(failure)
            )
        failures = {
            name: sort_failures(records)
            for name, records in sorted(failures.items())
        }
        results: dict[str, ScenarioResult] = {
            name: run.value(keys["report"])
            for name, keys in plan.artifact_keys.items()
            if name not in failures
        }
        return CampaignResult(
            scenarios=results,
            failures=failures,
            num_workers=self.num_workers,
            seconds=time.perf_counter() - start,
        )
