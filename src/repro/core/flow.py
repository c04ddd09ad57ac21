"""The end-to-end flexible logic BIST flow (the paper's primary contribution).

:class:`LogicBistFlow` runs one IP core through the paper's scheme, in the
order a real DFT insertion + sign-off flow would:

1. **BIST-ready core preparation** -- full-scan insertion with PI/PO wrapper
   cells, X-source blocking, per-domain scan chains
   (:mod:`repro.core.bist_ready`).
2. **Test point insertion** -- a preliminary random-pattern fault simulation
   (patterns taken from the real PRPG + phase shifter) identifies the
   random-resistant faults, and observation points are chosen from their
   fault-effect profile (:mod:`repro.tpi.observation_points`); no control
   points are used.
3. **Random-pattern BIST phase** -- the STUMPS architecture (one PRPG/MISR
   pair per clock domain) generates the configured number of patterns; fault
   simulation with dropping gives "Fault Coverage 1"; MISR signatures are
   computed for a leading slice of the session.
4. **Top-up ATPG phase** -- PODEM targets the remaining faults, cubes are
   compacted and random-filled, and the patterns are fault-simulated in
   packed blocks, giving "# of Top-Up Patterns" and "Fault Coverage 2".
5. **At-speed timing assembly** -- the clock-gating block and the
   double-capture scheduler produce the Fig. 2 capture schedule; optionally a
   launch-on-capture transition-fault simulation and a Monte-Carlo skew
   sweep quantify the at-speed test quality; the Fig. 3 shift-path analysis
   checks the PRPG/chain/MISR interfaces under the configured phase advance.
6. **Reporting** -- the scenario report plus the BIST-ready structures form
   :class:`LogicBistResult`, whose Table 1 rows :mod:`repro.core.report`
   derives.

The flow is a one-scenario campaign: phases 1-5 are the stages of
:func:`~repro.campaign.pipeline.scenario_stage_nodes`, planned, scheduled
and collected by :class:`~repro.campaign.runner.CampaignRunner` with top-up
on and degradation off, so a failing stage raises.  Only the Fig. 3
shift-path check runs outside the graph: it reads the clock tree alone.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Optional

from ..atpg.topup import TopUpResult
from ..bist.stumps import StumpsArchitecture
from ..campaign.pipeline import (
    PHASE_AT_SPEED,
    PHASE_ORDER,
    SkewOutcome,
    TransitionOutcome,
)
from ..campaign.results import ScenarioResult
from ..campaign.runner import CampaignRunner, CampaignScenario
from ..netlist.circuit import Circuit
from ..timing.clocks import ClockTreeModel
from ..timing.double_capture import CaptureSchedule
from ..timing.skew_analysis import ShiftPathAnalyzer, ShiftPathReport
from ..tpi.observation_points import ObservationPointPlan
from .bist_ready import BistReadyCore, build_shift_path_parameters
from .config import LogicBistConfig


@dataclass
class PhaseTiming:
    """Compute seconds of one flow phase (the paper reports CPU time).

    Summed over the phase's pipeline stages, which the flow runs one after
    another, so this is the phase's wall-clock.
    """

    name: str
    seconds: float


@dataclass
class LogicBistResult(ScenarioResult):
    """A one-core campaign's scenario report plus what the flow keeps besides.

    The coverage figures, signatures, first detections and at-speed sections
    are the inherited :class:`~repro.campaign.results.ScenarioResult` fields,
    so :meth:`report_bytes` equals a campaign's for the same scenario.  The
    Table 1 structure numbers are derived from the BIST-ready structures by
    :mod:`repro.core.report`.
    """

    #: The caller's configuration (the flow plans it with top-up on).
    config: Optional[LogicBistConfig] = None
    bist_ready: Optional[BistReadyCore] = None
    #: Structure only: the signature stage folds copies of the domains, so
    #: the PRPG/MISR register state here is not the signed one.
    stumps: Optional[StumpsArchitecture] = None
    clock_tree: Optional[ClockTreeModel] = None
    capture_schedule: Optional[CaptureSchedule] = None
    topup: Optional[TopUpResult] = None
    #: The full at-speed measurement, when ``measure_transition_coverage``.
    transition: Optional[TransitionOutcome] = None
    #: The Fig. 3 Monte-Carlo sweep, when ``skew_trials > 0``.
    skew_sweep: Optional[SkewOutcome] = None
    shift_path_report: Optional[ShiftPathReport] = None
    phase_timings: list[PhaseTiming] = field(default_factory=list)
    tpi_plan: Optional[ObservationPointPlan] = None
    cpu_time_seconds: float = 0.0


class LogicBistFlow:
    """Configuration-driven implementation of the paper's logic BIST scheme.

    :meth:`run` is the degenerate one-core campaign: the same stage graph,
    scheduler and report a :class:`~repro.campaign.runner.CampaignRunner`
    builds for ``CampaignScenario(name, circuit, config)`` with
    ``campaign_topup=True``, on the serial scheduler with one fault shard.
    A pooled run of that scenario reports the same bytes.
    """

    def __init__(self, config: Optional[LogicBistConfig] = None) -> None:
        self.config = config or LogicBistConfig()

    def run(self, circuit: Circuit, core_name: Optional[str] = None) -> LogicBistResult:
        """Run the complete flow on ``circuit`` and return the measurements."""
        start = time.perf_counter()
        name = core_name or circuit.name
        runner = CampaignRunner(degrade=False)
        plan = runner.plan(
            [
                CampaignScenario(
                    name, circuit, dataclasses.replace(self.config, campaign_topup=True)
                )
            ]
        )
        pipeline_run = runner.scheduler().run(plan.nodes)
        report = runner.collect(plan, pipeline_run, start)[name]
        keys = plan.artifact_keys[name]
        bundle = pipeline_run.value(keys["bundle"])

        # The Fig. 3 shift-path check reads only the clock tree, so it runs
        # here rather than as a stage; its time counts as at-speed analysis.
        shift_start = time.perf_counter()
        skew = bundle.clock_tree.max_skew_overall()
        shift_report = ShiftPathAnalyzer(
            build_shift_path_parameters(self.config)
        ).analyze(
            chain_clock_arrival_ns=skew + self.config.bist_clock_advance_ns,
            bist_clock_arrival_ns=skew,
            retiming=True,
        )
        phase_seconds = pipeline_run.seconds_by_phase()
        phase_seconds[PHASE_AT_SPEED] = (
            phase_seconds.get(PHASE_AT_SPEED, 0.0)
            + time.perf_counter()
            - shift_start
        )

        def value(artifact):
            return pipeline_run.value(keys[artifact]) if artifact in keys else None

        return LogicBistResult(
            **vars(report),
            config=self.config,
            bist_ready=bundle.core,
            stumps=bundle.stumps,
            clock_tree=bundle.clock_tree,
            capture_schedule=bundle.capture_schedule,
            topup=value("topup").result,
            transition=value("transition"),
            skew_sweep=value("skew"),
            shift_path_report=shift_report,
            phase_timings=[
                PhaseTiming(phase, phase_seconds.get(phase, 0.0))
                for phase in PHASE_ORDER
            ],
            tpi_plan=value("tpi").plan,
            cpu_time_seconds=time.perf_counter() - start,
        )
