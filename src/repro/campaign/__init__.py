"""Sharded multi-process fault-simulation campaigns.

Public API:

* :class:`~repro.campaign.runner.CampaignRunner` /
  :class:`~repro.campaign.runner.CampaignScenario` -- fan many
  (core, :class:`~repro.core.config.LogicBistConfig`) scenario pairs out
  over one worker pool.  The runner drives the **stage-graph pipeline**:
  scan insertion and TPI profiling are pooled work alongside the fault-sim
  and PODEM shards, and the stages that compute less than one pooled
  dispatch costs (STUMPS assembly, the signature, the transition
  preparation, the skew sweep) run in the parent,
* :mod:`repro.campaign.pipeline` -- the typed stage tasks
  (:class:`~repro.campaign.pipeline.PrepareCoreStage`,
  :class:`~repro.campaign.pipeline.TpiProfileStage`, ...) and the
  per-scenario graph builder
  :func:`~repro.campaign.pipeline.scenario_stage_nodes`,
* :class:`~repro.campaign.pipeline.ShardScanStage` -- the one shard of a
  stuck-at or transition fault simulation, which regenerates its session
  from a :class:`~repro.campaign.pipeline.SessionSpec`, built per fault
  shard by
  :func:`~repro.campaign.pipeline.shard_stage_nodes` from the fault
  planner in :mod:`repro.campaign.sharding` and min-merged by
  :func:`~repro.campaign.results.merge_first_detections`,
* :mod:`repro.campaign.scheduler` -- one completion loop that drains a
  stage graph, run by two schedulers that differ only in their executor:
  the deterministic in-process
  :class:`~repro.campaign.scheduler.SerialScheduler` (the oracle; the
  one-scenario campaign :class:`~repro.core.flow.LogicBistFlow` runs on) and the
  :class:`~repro.campaign.scheduler.PooledScheduler`, whose non-local
  stages run on a resilient worker pool.

The serial compiled-kernel path remains the default and the bit-exactness
oracle: merged campaign results (detection records, coverage curves, MISR
signatures) are bit-identical to it across shard counts, block sizes,
shard-assignment permutations, worker counts and execution backends --
``tests/campaign`` asserts all of this with a randomized differential
harness, TPI-heavy pipelined preparation included.
"""

from .chaos import (
    ChaosError,
    ChaosFault,
    ChaosPlan,
    ExplicitChaosPlan,
    Injection,
    LifecycleChaosPlan,
    LifecycleInjection,
    RecordingChaosPlan,
    SeededChaosPlan,
    ServiceCrashError,
)
from .results import (
    FAILURES_KEY,
    CampaignResult,
    ScenarioResult,
    ShardOutcome,
    assemble_scenario_canonical,
    build_simulation_result,
    canonical_failure,
    canonical_report_bytes,
    merge_first_detections,
    sort_failures,
)
from .runner import CampaignRunner, CampaignScenario
from .scheduler import (
    CancelToken,
    Expansion,
    PipelineRun,
    PooledScheduler,
    ScheduleCancelled,
    SerialScheduler,
    StageFailure,
    StageNode,
    StageObserver,
    StageRetry,
    StageTimeoutError,
    StageTrace,
    WorkerCrashError,
)
from .pipeline import (
    BuildStumpsStage,
    FaultSimStage,
    PrepareCoreStage,
    ReportStage,
    ScenarioBundle,
    SessionSpec,
    ShardScanStage,
    SignatureStage,
    SkewOutcome,
    SkewTrialsStage,
    TopUpStage,
    TpiProfileStage,
    TransitionOutcome,
    scenario_stage_nodes,
    shard_stage_nodes,
)
from ..util.cache import KeyedLruCache
from .sharding import keyed_round_robin_shards

__all__ = [
    "CampaignResult",
    "ChaosError",
    "ChaosFault",
    "ChaosPlan",
    "ExplicitChaosPlan",
    "FAILURES_KEY",
    "Injection",
    "LifecycleChaosPlan",
    "LifecycleInjection",
    "RecordingChaosPlan",
    "ServiceCrashError",
    "ScenarioResult",
    "SeededChaosPlan",
    "ShardOutcome",
    "assemble_scenario_canonical",
    "build_simulation_result",
    "canonical_failure",
    "canonical_report_bytes",
    "merge_first_detections",
    "sort_failures",
    "CampaignRunner",
    "CampaignScenario",
    "KeyedLruCache",
    "CancelToken",
    "Expansion",
    "PipelineRun",
    "PooledScheduler",
    "ScheduleCancelled",
    "SerialScheduler",
    "StageFailure",
    "StageNode",
    "StageObserver",
    "StageRetry",
    "StageTimeoutError",
    "StageTrace",
    "WorkerCrashError",
    "BuildStumpsStage",
    "FaultSimStage",
    "PrepareCoreStage",
    "ReportStage",
    "ScenarioBundle",
    "SessionSpec",
    "ShardScanStage",
    "SignatureStage",
    "SkewOutcome",
    "SkewTrialsStage",
    "TopUpStage",
    "TpiProfileStage",
    "TransitionOutcome",
    "scenario_stage_nodes",
    "shard_stage_nodes",
    "keyed_round_robin_shards",
]
