"""Chaos-injection differential suite for the fault-tolerant schedulers.

The resilience layer's contract is differential and byte-exact:

* any injected fault schedule that *eventually succeeds* (transient
  raises, worker kills, hangs past the soft timeout) yields canonical
  report bytes identical to the clean serial run, across worker counts
  and execution backends;
* a scenario that *permanently fails* is quarantined -- its descendants
  cancelled, its siblings untouched -- and the resulting partial report
  (with its canonical ``failures`` section) is byte-identical across
  worker counts and schedulers;
* ``KeyboardInterrupt`` / ``SystemExit`` abort immediately, bypassing
  retries and degradation entirely.

Everything is driven by the deterministic plans in
:mod:`repro.campaign.chaos` -- seeded hashes over canonical stage keys,
so the serial oracle and every pooled schedule draw the *same* faults.
"""

import dataclasses
import functools
import json
import time

import pytest

from repro.campaign import (
    FAILURES_KEY,
    CampaignRunner,
    CampaignScenario,
    ChaosError,
    ChaosFault,
    ExplicitChaosPlan,
    Injection,
    RecordingChaosPlan,
    SeededChaosPlan,
    SerialScheduler,
    StageNode,
    StageObserver,
)
from repro.core import LogicBistConfig
from repro.core.config import RetryPolicy
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core

pytestmark = pytest.mark.chaos

WORKER_COUNTS = (
    1,
    pytest.param(2, marks=pytest.mark.multiprocess),
    pytest.param(4, marks=pytest.mark.multiprocess),
)
BACKENDS = ("python", pytest.param("numpy", marks=pytest.mark.numpy))

#: Fast-clock policy for tests: real retry semantics, negligible backoff.
FAST_RETRY = RetryPolicy(
    max_attempts=3,
    backoff_base_s=0.001,
    backoff_max_s=0.002,
    stage_timeout_s=2.0,
    heartbeat_s=0.05,
)


def make_core(seed: int, domains: int = 2):
    config = SyntheticCoreConfig(
        name=f"chaos_core_{seed}",
        clock_domains=tuple(f"clk{i + 1}" for i in range(domains)),
        num_inputs=8,
        num_outputs=5,
        register_width=6,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(6,),
        decode_cone_width=5,
        cross_domain_links=1,
        seed=seed,
    )
    return generate_synthetic_core(config).circuit


def small_config(sim_backend="python", **overrides):
    defaults = dict(
        total_scan_chains=4,
        tpi_method="none",
        observation_point_budget=0,
        random_patterns=64,
        signature_patterns=8,
        sim_backend=sim_backend,
    )
    defaults.update(overrides)
    return LogicBistConfig(**defaults)


def chaos_scenarios(sim_backend="python"):
    return [
        CampaignScenario("alpha", make_core(61), small_config(sim_backend)),
        CampaignScenario("beta", make_core(62, domains=1), small_config(sim_backend)),
        CampaignScenario("gamma", make_core(63, domains=3), small_config(sim_backend)),
    ]


@functools.lru_cache(maxsize=None)
def clean_bytes(sim_backend="python") -> bytes:
    """The uninjected serial oracle bytes (cached across the module)."""
    campaign = CampaignRunner(num_workers=1, fault_shards=3).run(
        chaos_scenarios(sim_backend)
    )
    assert not campaign.partial
    return campaign.report_bytes()


def run_chaotic(num_workers, chaos, *, sim_backend="python", policy=FAST_RETRY,
                degrade=True):
    runner = CampaignRunner(
        num_workers=num_workers,
        fault_shards=3,
        retry_policy=policy,
        chaos=chaos,
        degrade=degrade,
    )
    return runner, runner.run(chaos_scenarios(sim_backend))


# --------------------------------------------------------------------- #
# RetryPolicy semantics
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(max_attempts=5, seed=3)
        a = policy.delay_for("s0:alpha/fault_sim", 2)
        assert a == policy.delay_for("s0:alpha/fault_sim", 2)
        assert a == RetryPolicy(max_attempts=5, seed=3).delay_for("s0:alpha/fault_sim", 2)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=8,
            backoff_base_s=0.1,
            backoff_factor=2.0,
            backoff_max_s=0.5,
            jitter_fraction=0.0,
        )
        delays = [policy.delay_for("k", attempt) for attempt in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_interrupts_are_never_retryable(self):
        policy = RetryPolicy(max_attempts=5, retryable_errors=(BaseException,))
        assert not policy.retryable(KeyboardInterrupt())
        assert not policy.retryable(SystemExit(1))
        assert policy.retryable(ValueError("x"))

    def test_fatal_errors_beat_retryable_errors(self):
        policy = RetryPolicy(max_attempts=5, fatal_errors=(ValueError,))
        assert not policy.retryable(ValueError("x"))
        assert policy.retryable(RuntimeError("x"))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)


# --------------------------------------------------------------------- #
# Chaos plan determinism
# --------------------------------------------------------------------- #
class TestChaosPlans:
    def test_seeded_plan_is_deterministic(self):
        plan = SeededChaosPlan(seed=5, rate=0.5)
        draws = [plan.fault_for(f"s0:x/stage{i}", 0) for i in range(40)]
        again = [plan.fault_for(f"s0:x/stage{i}", 0) for i in range(40)]
        assert [d.kind if d else None for d in draws] == [
            d.kind if d else None for d in again
        ]
        assert any(draws) and not all(draws)

    def test_seeded_plan_transient_attempts_guarantee_success(self):
        plan = SeededChaosPlan(seed=5, rate=1.0, transient_attempts=2)
        assert plan.fault_for("k", 0) is not None
        assert plan.fault_for("k", 1) is not None
        assert plan.fault_for("k", 2) is None

    def test_explicit_plan_matches_suffix_and_attempts(self):
        plan = ExplicitChaosPlan([Injection(stage="beta/core", attempts=(0, 2))])
        assert plan.fault_for("s1:beta/core", 0) is not None
        assert plan.fault_for("s1:beta/core", 1) is None
        assert plan.fault_for("s1:beta/core", 2) is not None
        assert plan.fault_for("s0:alpha/core", 0) is None

    def test_permanent_injection_faults_every_attempt(self):
        plan = ExplicitChaosPlan([Injection(stage="x", attempts=())])
        assert all(plan.fault_for("s0:x", attempt) for attempt in range(10))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ChaosFault(kind="meteor")
        with pytest.raises(ValueError):
            SeededChaosPlan(kinds=("raise", "meteor"))


# --------------------------------------------------------------------- #
# The core differential claim: recovered runs == the clean oracle
# --------------------------------------------------------------------- #
class TestRecoveredRunsMatchOracle:
    def test_serial_transient_raise_matches_clean(self):
        plan = RecordingChaosPlan(
            ExplicitChaosPlan(
                [
                    Injection(stage="alpha/fault_sim", attempts=(0, 1)),
                    Injection(stage="beta/core", attempts=(0,)),
                    Injection(stage="gamma/report", attempts=(0,)),
                ]
            )
        )
        runner, campaign = run_chaotic(1, plan)
        assert campaign.report_bytes() == clean_bytes()
        assert not campaign.partial
        assert len(plan.injected) == 4
        assert len(runner.last_run.retries) == 4

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("sim_backend", BACKENDS)
    def test_seeded_transient_faults_match_clean(self, num_workers, sim_backend):
        """The headline claim: seeded fault schedules that eventually
        succeed reproduce the clean oracle bytes exactly, across workers
        {1, 2, 4} x backends {python, numpy}."""
        plan = RecordingChaosPlan(
            SeededChaosPlan(seed=7, rate=0.35, transient_attempts=2)
        )
        policy = dataclasses.replace(FAST_RETRY, max_attempts=4)
        _, campaign = run_chaotic(
            num_workers, plan, sim_backend=sim_backend, policy=policy
        )
        assert plan.injected, "vacuous test: the plan injected nothing"
        assert campaign.report_bytes() == clean_bytes(sim_backend)
        assert not campaign.partial

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    def test_injected_schedule_is_identical_across_schedulers(self, num_workers):
        """Serial and pooled schedules consult the plan with the same
        canonical (stage, attempt) pairs -- the precondition of replay."""
        plan = RecordingChaosPlan(
            SeededChaosPlan(seed=11, rate=0.3, transient_attempts=1)
        )
        run_chaotic(num_workers, plan)
        serial_plan = RecordingChaosPlan(
            SeededChaosPlan(seed=11, rate=0.3, transient_attempts=1)
        )
        run_chaotic(1, serial_plan)
        injected = {(key, attempt, kind) for key, attempt, kind in plan.injected}
        serial_injected = {
            (key, attempt, kind) for key, attempt, kind in serial_plan.injected
        }
        assert injected == serial_injected
        assert injected  # non-vacuous

    def test_retry_records_are_diagnostic_not_canonical(self):
        plan = ExplicitChaosPlan.single("beta/core")
        runner, campaign = run_chaotic(1, plan)
        assert campaign.report_bytes() == clean_bytes()
        [retry] = runner.last_run.retries
        assert retry.error_type == "ChaosError"
        assert retry.attempt == 1
        assert retry.delay_s >= 0.0


# --------------------------------------------------------------------- #
# Worker-crash and hang recovery (the pooled scheduler's heartbeat)
# --------------------------------------------------------------------- #
@pytest.mark.multiprocess
class TestWorkerCrashRecovery:
    @pytest.mark.parametrize("kind", ("kill", "exit"))
    def test_dead_worker_is_detected_and_stage_resubmitted(self, kind):
        plan = ExplicitChaosPlan.single("alpha/fault_sim/shard1", kind=kind)
        runner, campaign = run_chaotic(2, plan)
        assert campaign.report_bytes() == clean_bytes()
        [retry] = [r for r in runner.last_run.retries]
        assert retry.error_type == "WorkerCrashError"

    def test_os_exit_recovery_is_bounded(self):
        """Satellite: a stage that calls ``os._exit(1)`` mid-campaign must
        fail and recover within a bounded wall-clock, pinned across worker
        counts -- never a silent hang."""
        for num_workers in (2, 4):
            plan = ExplicitChaosPlan.single("beta/signatures", kind="exit")
            start = time.monotonic()
            _, campaign = run_chaotic(num_workers, plan)
            elapsed = time.monotonic() - start
            assert campaign.report_bytes() == clean_bytes()
            assert elapsed < 60.0, f"recovery took {elapsed:.1f}s with {num_workers} workers"

    def test_hung_worker_trips_soft_timeout(self):
        plan = ExplicitChaosPlan.single(
            "alpha/fault_sim/shard0", kind="hang", sleep_s=30.0
        )
        start = time.monotonic()
        runner, campaign = run_chaotic(2, plan)
        elapsed = time.monotonic() - start
        assert campaign.report_bytes() == clean_bytes()
        assert elapsed < 30.0  # never waited out the hang
        [retry] = runner.last_run.retries
        assert retry.error_type == "StageTimeoutError"

    @pytest.mark.parametrize("kind", ("kill", "exit", "hang"))
    def test_serial_replay_of_worker_death_plans(self, kind):
        """In-process, worker-death faults degenerate to the synthesized
        pooled errors -- same retry schedule, same oracle bytes."""
        plan = ExplicitChaosPlan.single(
            "alpha/fault_sim/shard1", kind=kind, sleep_s=30.0
        )
        pooled_runner, pooled = run_chaotic(2, plan)
        serial_runner, serial = run_chaotic(1, plan)
        assert serial.report_bytes() == pooled.report_bytes() == clean_bytes()
        key = lambda r: (r.key, r.attempt, r.error_type, r.error)
        assert sorted(map(key, serial_runner.last_run.retries)) == sorted(
            map(key, pooled_runner.last_run.retries)
        )

    def test_permanent_crash_degrades_identically_to_serial(self):
        plan = ExplicitChaosPlan(
            [Injection(stage="beta/fault_sim/shard2", kind="kill", attempts=())]
        )
        _, pooled = run_chaotic(2, plan)
        _, serial = run_chaotic(1, plan)
        assert pooled.partial and serial.partial
        assert pooled.report_bytes() == serial.report_bytes()
        [record] = pooled.failures["beta"]
        assert record["error_type"] == "WorkerCrashError"
        assert record["attempts"] == FAST_RETRY.max_attempts


# --------------------------------------------------------------------- #
# Graceful degradation: quarantine, partial reports
# --------------------------------------------------------------------- #
class TestGracefulDegradation:
    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    def test_partial_report_is_byte_identical_across_workers(self, num_workers):
        plan = ExplicitChaosPlan(
            [Injection(stage="beta/fault_sim", attempts=(), message="permanent")]
        )
        _, campaign = run_chaotic(num_workers, plan)
        _, oracle = run_chaotic(1, plan)
        assert campaign.partial
        assert campaign.report_bytes() == oracle.report_bytes()

    def test_siblings_complete_and_failure_record_is_canonical(self):
        plan = ExplicitChaosPlan(
            [Injection(stage="beta/fault_sim", attempts=(), message="permanent")]
        )
        _, campaign = run_chaotic(1, plan)
        assert sorted(campaign.scenarios) == ["alpha", "gamma"]
        assert campaign.failures == {
            "beta": [
                {
                    "stage": "fault_sim",
                    "phase": "random_patterns",
                    "error_type": "ChaosError",
                    "error": "permanent",
                    "attempts": FAST_RETRY.max_attempts,
                }
            ]
        }
        report = json.loads(campaign.report_bytes())
        assert sorted(report) == sorted(["alpha", "gamma", FAILURES_KEY])

    def test_surviving_scenarios_match_the_clean_report(self):
        plan = ExplicitChaosPlan([Injection(stage="beta/core", attempts=())])
        _, campaign = run_chaotic(1, plan)
        clean = json.loads(clean_bytes())
        partial = json.loads(campaign.report_bytes())
        for name in ("alpha", "gamma"):
            assert partial[name] == clean[name]

    def test_multiple_scenario_failures(self):
        plan = ExplicitChaosPlan(
            [
                Injection(stage="beta/core", attempts=()),
                Injection(stage="gamma/signatures", attempts=()),
            ]
        )
        _, campaign = run_chaotic(1, plan)
        assert sorted(campaign.scenarios) == ["alpha"]
        assert sorted(campaign.failures) == ["beta", "gamma"]

    def test_clean_run_bytes_are_unchanged_by_the_feature(self):
        """No failures -> no ``failures`` section: pre-existing reports
        stay byte-identical."""
        _, campaign = run_chaotic(1, None)
        assert campaign.report_bytes() == clean_bytes()
        assert FAILURES_KEY not in json.loads(campaign.report_bytes())

    def test_degrade_off_restores_fail_fast(self):
        plan = ExplicitChaosPlan([Injection(stage="beta/core", attempts=())])
        with pytest.raises(ChaosError):
            run_chaotic(1, plan, degrade=False)

    def test_failures_is_a_reserved_scenario_name(self):
        scenario = CampaignScenario(
            FAILURES_KEY, make_core(61), small_config()
        )
        with pytest.raises(ValueError, match="reserved"):
            CampaignRunner(num_workers=1, fault_shards=2).run([scenario])


# --------------------------------------------------------------------- #
# Scheduler-level quarantine semantics (hand-built graphs)
# --------------------------------------------------------------------- #
class _Const:
    def __init__(self, value):
        self.value = value

    def run(self, *inputs):
        return self.value


class _Add:
    def run(self, *inputs):
        return sum(inputs)


class _Boom:
    def run(self, *inputs):
        raise RuntimeError("boom")


def diamond_nodes():
    """a -> b -> c with an independent d."""
    return [
        StageNode(key="a", task=_Const(1), local=True),
        StageNode(key="b", task=_Boom(), deps=("a",), local=True),
        StageNode(key="c", task=_Add(), deps=("b",), local=True),
        StageNode(key="d", task=_Const(4), local=True),
    ]


class TestQuarantine:
    def test_failure_cancels_descendants_only(self):
        scheduler = SerialScheduler(
            retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            degrade=True,
        )
        run = scheduler.run(diamond_nodes())
        assert run.store["a"] == 1
        assert run.store["d"] == 4
        assert "b" not in run.store and "c" not in run.store
        [failure] = run.failures
        assert failure.key == "b"
        assert failure.attempts == 2
        assert run.cancelled == ["c"]
        assert failure.cancelled == ("c",)

    def test_observer_sees_retry_then_failure(self):
        events = []

        class Recorder(StageObserver):
            def on_stage_retry(self, node, error, attempt, delay_s):
                events.append(("retry", node.key, attempt))

            def on_stage_failed(self, node, error, failure):
                events.append(("failed", node.key, failure.attempts))

            def on_stage_error(self, node, error):
                events.append(("error", node.key))

        scheduler = SerialScheduler(
            retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
            degrade=True,
        )
        scheduler.run(diamond_nodes(), observer=Recorder())
        assert events == [("retry", "b", 1), ("retry", "b", 2), ("failed", "b", 3)]

    def test_no_degrade_raises_after_retries(self):
        scheduler = SerialScheduler(
            retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        )
        with pytest.raises(RuntimeError, match="boom"):
            scheduler.run(diamond_nodes())

    def test_default_policy_is_single_attempt(self):
        with pytest.raises(RuntimeError, match="boom"):
            SerialScheduler().run(diamond_nodes())


# --------------------------------------------------------------------- #
# Satellite: interrupts abort immediately -- never retried, never degraded
# --------------------------------------------------------------------- #
class _Interrupt:
    def __init__(self, error):
        self.error = error
        self.calls = 0

    def run(self, *inputs):
        self.calls += 1
        raise self.error


class TestFatalAbort:
    @pytest.mark.parametrize("error_type", (KeyboardInterrupt, SystemExit))
    def test_interrupts_bypass_retry_and_degradation(self, error_type):
        task = _Interrupt(error_type())
        nodes = [StageNode(key="x", task=task, local=True)]
        scheduler = SerialScheduler(
            retry_policy=RetryPolicy(max_attempts=5, backoff_base_s=0.0),
            degrade=True,
        )
        with pytest.raises(error_type):
            scheduler.run(nodes)
        assert task.calls == 1  # one attempt, no retries

    def test_interrupt_mid_campaign_aborts_serial_runner(self):
        class InterruptPlan(ExplicitChaosPlan):
            def fault_for(self, stage_key, attempt):
                fault = super().fault_for(stage_key, attempt)
                if fault is not None:
                    raise KeyboardInterrupt()
                return None

        plan = InterruptPlan([Injection(stage="beta/core")])
        with pytest.raises(KeyboardInterrupt):
            run_chaotic(1, plan)
