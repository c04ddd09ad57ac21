"""Campaign-as-a-service: a long-lived front-end over the stage graph.

The :mod:`repro.campaign` schedulers run one campaign per call; this package
turns them into infrastructure:

* :mod:`repro.service.queue` -- :class:`CampaignService`, an asyncio job
  queue accepting scenario submissions and draining them through the
  existing :class:`~repro.campaign.scheduler.PooledScheduler` /
  :class:`~repro.campaign.scheduler.SerialScheduler`,
* :mod:`repro.service.events` -- the incremental event stream (stage
  start/done/error, coverage-curve deltas, section completions) published
  to subscribers *while the campaign runs*, plus the reassembler that
  rebuilds the canonical report bytes from any event interleaving,
* :mod:`repro.service.checkpoint` -- durable per-job checkpoints: an
  append-only journal of finished non-local stage values, so a killed
  service restarts, preloads them and re-runs only the unfinished and the
  local stages, byte-identical by test,
* :mod:`repro.service.cache` -- the service-tier prepared-scenario LRU that
  skips scan insertion and TPI profiling for jobs whose circuit content
  (``Circuit.digest``) and config were prepared before.

Everything here is observability and durability *around* the campaign; the
report bytes a service job produces are identical to an in-process
:class:`~repro.campaign.runner.CampaignRunner` run of the same scenarios
(``tests/service`` pins this down with crash injection and stream replay).
"""

from .cache import ScenarioPrepCache
from .checkpoint import CheckpointStore
from .events import (
    CoverageDelta,
    EventReassembler,
    JobAccepted,
    JobCancelled,
    JobCounters,
    JobEvent,
    JobFailed,
    JobFinished,
    JobQuarantined,
    JobStarted,
    ScenarioCompleted,
    ScenarioFailed,
    SectionCompleted,
    StageFailed,
    StageFinished,
    StageRetrying,
    StageStarted,
)
from .queue import (
    TERMINAL_STATES,
    CampaignService,
    JobRecord,
    JobSpec,
    QueueFullError,
    ServiceStoppedError,
)

__all__ = [
    "CampaignService",
    "CheckpointStore",
    "CoverageDelta",
    "EventReassembler",
    "JobAccepted",
    "JobCancelled",
    "JobCounters",
    "JobEvent",
    "JobFailed",
    "JobFinished",
    "JobQuarantined",
    "JobRecord",
    "JobSpec",
    "JobStarted",
    "QueueFullError",
    "ScenarioCompleted",
    "ScenarioFailed",
    "ScenarioPrepCache",
    "SectionCompleted",
    "ServiceStoppedError",
    "StageFailed",
    "StageFinished",
    "StageRetrying",
    "StageStarted",
    "TERMINAL_STATES",
]
