"""Configuration of the end-to-end logic BIST flow."""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..scan.insertion import ScanInsertionConfig
from ..simulation.packed import BACKENDS, DEFAULT_BLOCK_SIZE

#: Every recognised ``tpi_method``: the paper's fault-simulation-guided
#: selection, the observability-calculation baseline, or no test points.
TPI_METHODS = ("fault_sim", "observability", "none")

#: Functional frequency (MHz) of a clock domain that
#: ``LogicBistConfig.clock_frequencies_mhz`` does not name.
DEFAULT_FREQUENCY_MHZ = 250.0


@dataclass(frozen=True)
class RetryPolicy:
    """Per-stage retry/timeout policy of the campaign schedulers.

    The default policy (``max_attempts=1``, no timeout) reproduces the
    pre-resilience behavior exactly: one attempt, any stage exception is
    terminal.  Everything here is deterministic by construction -- backoff
    jitter is seeded per stage key and attempt number, so the
    serial oracle and every pooled schedule replay identical retry
    sequences (:func:`delay_for` never consults global RNG state).

    Classification: ``KeyboardInterrupt``, ``SystemExit`` and any other
    non-``Exception`` ``BaseException`` are *always* fatal -- they abort the
    whole schedule immediately and are never retried, regardless of
    ``retryable_errors``.  Among ordinary exceptions, ``fatal_errors`` wins
    over ``retryable_errors``.
    """

    #: Total attempts per stage (1 = no retries).
    max_attempts: int = 1
    #: First retry delay in seconds (0 disables backoff sleeps entirely).
    backoff_base_s: float = 0.05
    #: Multiplier applied per additional attempt.
    backoff_factor: float = 2.0
    #: Ceiling on any single backoff delay.
    backoff_max_s: float = 2.0
    #: +/- fraction of the delay drawn from the per-stage-key seeded RNG.
    jitter_fraction: float = 0.1
    #: Seed of the deterministic jitter stream.
    seed: int = 0
    #: Soft per-stage timeout (seconds) enforced by the pooled scheduler's
    #: completion loop: a stage past its deadline has its worker terminated
    #: and counts as a failed attempt.  ``None`` disables timeouts.  The
    #: serial scheduler cannot preempt a running stage, so there the timeout
    #: only shapes injected-chaos ``hang`` faults (kept consistent so serial
    #: remains the oracle for chaos replays).
    stage_timeout_s: Optional[float] = None
    #: Pooled completion-loop heartbeat (seconds): the longest the parent
    #: waits on results before polling worker health and stage deadlines.
    heartbeat_s: float = 0.25
    #: Exception types eligible for retry (subject to ``fatal_errors``).
    retryable_errors: tuple = (Exception,)
    #: Exception types never retried even if listed as retryable.
    fatal_errors: tuple = ()

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")
        if self.stage_timeout_s is not None and self.stage_timeout_s <= 0:
            raise ValueError("stage_timeout_s must be positive or None")
        if self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")

    def retryable(self, error: BaseException) -> bool:
        """May ``error`` consume another attempt?  (Fatal classes never.)"""
        if isinstance(error, (KeyboardInterrupt, SystemExit)):
            return False
        if not isinstance(error, Exception):
            return False
        if self.fatal_errors and isinstance(error, tuple(self.fatal_errors)):
            return False
        return isinstance(error, tuple(self.retryable_errors))

    def delay_for(self, stage_key: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``stage_key``.

        Exponential in ``attempt``, capped, with deterministic jitter from a
        private RNG seeded by ``(seed, stage key, attempt)`` --
        identical for the same stage whichever scheduler (or run) asks.
        """
        if self.backoff_base_s <= 0:
            return 0.0
        delay = min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )
        if self.jitter_fraction > 0:
            rng = random.Random(f"{self.seed}:{stage_key}:{attempt}")
            delay *= 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return delay


@dataclass
class LogicBistConfig:
    """Every knob of the flexible logic BIST flow (Fig. 1 + Section 3 notes).

    The defaults mirror the paper's application choices: PI/PO wrapper cells,
    one 19-bit PRPG and one MISR per clock domain, no space compactor in front
    of the MISR, observation-only test points chosen by fault simulation, and
    a random phase followed by top-up ATPG.
    """

    # ------------------------------------------------------------------ #
    # Scan architecture
    # ------------------------------------------------------------------ #
    #: Scan-insertion options (PI/PO wrapping, X-blocking, chain sizing).
    scan: ScanInsertionConfig = field(default_factory=ScanInsertionConfig)
    #: Global scan-chain budget used when the scan config does not size chains.
    total_scan_chains: Optional[int] = 16

    # ------------------------------------------------------------------ #
    # STUMPS structure
    # ------------------------------------------------------------------ #
    #: PRPG length (the paper uses 19-bit PRPGs for both cores).
    prpg_length: int = 19
    #: Use a space compactor in front of each MISR.  The paper explicitly does
    #: not (to avoid chain->MISR setup violations); the ablation flips this.
    use_space_compactor: bool = False
    #: MISR length when a space compactor *is* used.
    compacted_misr_length: int = 19
    #: Seed controlling PRPG seeds and phase-shifter construction.
    bist_seed: int = 1

    # ------------------------------------------------------------------ #
    # Test points
    # ------------------------------------------------------------------ #
    #: Observation-point budget (the paper inserts 1 K observe-only points).
    observation_point_budget: int = 16
    #: TPI method, one of :data:`TPI_METHODS`: "fault_sim" (the paper),
    #: "observability" (baseline) or "none".
    tpi_method: str = "fault_sim"
    #: Patterns used for the preliminary fault simulation that guides TPI.
    #: The fault-sim selector profiles fault effects over at most the first
    #: 128 of them (``insert_test_points`` caps its ``profile_patterns``).
    tpi_profile_patterns: int = 256

    # ------------------------------------------------------------------ #
    # Pattern budgets
    # ------------------------------------------------------------------ #
    #: Random (PRPG) patterns for the main BIST session (paper: 20 K).
    random_patterns: int = 2048
    #: Upper bound on top-up ATPG targets (None = every remaining fault).
    #: When the cap drops targets, the count lands in
    #: ``TopUpResult.skipped_targets`` -- a capped run is never silent.
    topup_max_faults: Optional[int] = None
    #: PODEM backtrack limit for top-up ATPG.
    topup_backtrack_limit: int = 100
    #: Seed for top-up random fill.
    topup_seed: int = 2005

    # ------------------------------------------------------------------ #
    # Clocking
    # ------------------------------------------------------------------ #
    #: Functional frequency per clock domain (MHz).  Domains missing from the
    #: mapping default to :data:`DEFAULT_FREQUENCY_MHZ`.
    clock_frequencies_mhz: Mapping[str, float] = field(default_factory=dict)
    #: Worst-case intra-domain clock skew (ns) used by the capture scheduler.
    intra_domain_skew_ns: float = 0.1
    #: Phase advance (ns) of the PRPG/MISR clock versus the scan-chain clock
    #: (the Fig. 3 technique).
    bist_clock_advance_ns: float = 0.5

    # ------------------------------------------------------------------ #
    # Measurement options
    # ------------------------------------------------------------------ #
    #: Also run launch-on-capture transition-fault simulation (at-speed value).
    #: Honoured by the flow *and* by campaign scenarios: the scenario graph
    #: grows the transition stages and the canonical report gains a
    #: ``transition`` section (coverage, detected/total faults, pattern
    #: budget) whenever this is set.
    measure_transition_coverage: bool = False
    #: Patterns used for the transition-coverage measurement.
    transition_patterns: int = 256
    #: Monte-Carlo shift-path skew trials (the Fig. 3 sweep) run per
    #: scenario as one stage in the campaign parent; 0 disables the sweep.  Each trial
    #: seeds its own RNG from its index
    #: (:func:`~repro.timing.skew_analysis.sample_shift_path_report`).
    skew_trials: int = 0
    #: Chain-clock arrival range (ns) the skew trials sample uniformly.
    skew_range_ns: float = 2.0
    #: Seed of the trial-indexed skew sampling.
    skew_seed: int = 2005
    #: Compute per-domain MISR signatures for this many leading random patterns
    #: (0 disables signature emulation; coverage never depends on it).
    signature_patterns: int = 64
    #: Fault-simulation block width: patterns packed per bigint word.  Any
    #: width works (coverage results are block-size invariant); wider blocks
    #: (256 / 1024) amortise the compiled kernel's interpreter loop over more
    #: patterns per pass at the cost of wider bigint operands.
    block_size: int = DEFAULT_BLOCK_SIZE
    #: Simulation execution backend: ``"python"`` (default; bigint
    #: interpreter, always available, the bit-exactness oracle) or
    #: ``"numpy"`` (uint64 bit-plane arrays with level-batched gate
    #: evaluation and a fault-vectorised PPSFP scan -- several times faster
    #: on fault-simulation campaigns, results bit-identical; requires the
    #: optional NumPy dependency, ``pip install "repro[fast]"``, and raises
    #: a clear error when it is absent).  Applies to the TPI profiling
    #: simulation, the random-pattern phase, the transition-coverage
    #: measurement and -- via the shard payloads -- every campaign worker;
    #: pattern generation is one bit-sliced path on either backend.
    sim_backend: str = "python"
    #: Peak fault-scan memory budget in MB for the ``"numpy"`` backend (None
    #: = unbounded, the historical behavior).  The vectorised PPSFP scan
    #: tiles the live fault set into groups whose union-cone slot demand
    #: fits the budget and recycles one slot arena across the tiles, so
    #: peak slot-table + workspace bytes per block width stay under this
    #: ceiling instead of growing with total cone size -- results remain
    #: bit-identical to the unbounded scan and the python oracle at any
    #: budget (tiling only changes *when* rows are computed, never what).
    #: Campaign shard payloads carry the budget, so every worker honors it.
    #: Ignored by the ``"python"`` backend (the bigint interpreter has no
    #: slot table); setting it there emits a :class:`UserWarning`.
    sim_memory_budget_mb: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Campaign scenarios
    # ------------------------------------------------------------------ #
    #: Run the deterministic ATPG top-up phase inside campaign scenarios
    #: (:class:`~repro.campaign.runner.CampaignRunner`): PODEM target shards
    #: fan out through the campaign pool (site-local keyed round-robin) and
    #: a deterministic screen/compact replay merges the cubes, so reported
    #: coverage and first detections include the top-up patterns and stay
    #: byte-identical across worker counts.  The flow is a one-scenario
    #: campaign with top-up on: it plans the caller's config with this set.
    campaign_topup: bool = False

    def __post_init__(self) -> None:
        if self.tpi_method not in TPI_METHODS:
            raise ValueError(
                f"unknown tpi_method {self.tpi_method!r}: expected one of {TPI_METHODS}"
            )
        if self.sim_backend not in BACKENDS:
            raise ValueError(
                f"unknown sim_backend {self.sim_backend!r}: expected one of {BACKENDS}"
            )
        if self.topup_max_faults is not None and self.topup_max_faults < 0:
            raise ValueError(
                f"topup_max_faults must be >= 0 or None, got {self.topup_max_faults!r}"
            )
        if self.sim_memory_budget_mb is not None:
            if self.sim_memory_budget_mb <= 0:
                raise ValueError(
                    "sim_memory_budget_mb must be positive, got "
                    f"{self.sim_memory_budget_mb!r}"
                )
            if self.sim_backend == "python":
                warnings.warn(
                    "sim_memory_budget_mb only bounds the numpy fault scan; "
                    'the "python" backend ignores it',
                    UserWarning,
                    stacklevel=2,
                )


@dataclass
class ServiceConfig:
    """Tuning knobs of the long-lived :class:`~repro.service.CampaignService`.

    None of these affect result *content* -- checkpoints, event chunking and
    caching are byte-invisible by construction (and by the crash-injection /
    stream-replay suites under ``tests/service``).
    """

    #: Append the job's buffered stage-journal records to disk after every
    #: N completed stages (1 = after every stage, the tightest resume
    #: granularity).  Values are pickled when their stage finishes either
    #: way; larger values trade re-executed stages after a crash for fewer
    #: file appends.  Cancel and shutdown flush the buffer.
    checkpoint_every: int = 1
    #: Maximum coverage-curve points per streamed ``CoverageDelta`` event;
    #: longer curves are split into consecutive chunks (the reassembled
    #: curve is chunking-invariant).
    event_chunk: int = 32
    #: Capacity of the service-tier prepared-scenario cache
    #: (:class:`~repro.service.cache.ScenarioPrepCache`): distinct
    #: (circuit digest, config) pairs whose scan-inserted + TPI-profiled
    #: cores stay warm across jobs.
    prep_cache_size: int = 8
    #: Completed/failed jobs whose in-memory records (event logs, results)
    #: the service retains for late subscribers before discarding the
    #: oldest (checkpointed reports on disk are never discarded).
    retain_jobs: int = 16
    #: Submissions allowed to wait in the queue before ``submit`` raises
    #: (0 = unbounded).
    max_queue_depth: int = 0
    #: Stage retry/timeout policy of service jobs (``None`` = the default
    #: single-attempt :class:`RetryPolicy`).
    retry: Optional[RetryPolicy] = None
    #: Quarantine a scenario whose stage exhausts its retries -- cancel only
    #: its descendant stages, let sibling scenarios finish, and finish the
    #: job in the ``"partial"`` state with a canonical ``failures`` report
    #: section -- instead of failing the whole job.
    degrade_scenarios: bool = True
    #: Default wall-clock budget per job, seconds (``None`` = unbounded;
    #: per-submit override wins).  An over-deadline job is cooperatively
    #: stopped at the next stage boundary, checkpointed, and finishes in
    #: the ``"timeout"`` terminal state -- composing with (not replacing)
    #: the per-*stage* deadlines of :attr:`retry`.
    job_deadline_s: Optional[float] = None
    #: Crash-loop guard: a checkpointed job recovered (i.e. found pending
    #: and actually *started*) more than this many times is quarantined --
    #: spec and partial progress kept on disk, terminal ``"quarantined"``
    #: state -- instead of re-enqueued, so one poison job cannot take the
    #: service down on every restart.
    max_resume_attempts: int = 3

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.event_chunk < 1:
            raise ValueError("event_chunk must be >= 1")
        if self.prep_cache_size < 1:
            raise ValueError("prep_cache_size must be >= 1")
        if self.retain_jobs < 0:
            raise ValueError("retain_jobs must be >= 0")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if self.job_deadline_s is not None and self.job_deadline_s <= 0:
            raise ValueError("job_deadline_s must be positive (or None)")
        if self.max_resume_attempts < 0:
            raise ValueError("max_resume_attempts must be >= 0")
