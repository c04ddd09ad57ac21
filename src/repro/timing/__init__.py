"""At-speed timing control (S9): clocks, clock gating, double capture, skew analysis.

Public API:

* :class:`~repro.timing.clocks.ClockDomainSpec` / :class:`~repro.timing.clocks.ClockTreeModel`
  / :func:`~repro.timing.clocks.make_clock_tree`,
* :class:`~repro.timing.double_capture.CaptureWindowScheduler` and
  :class:`~repro.timing.double_capture.CaptureSchedule` (Fig. 2),
* :class:`~repro.timing.clock_gating.ClockGatingBlock`,
* :class:`~repro.timing.skew_analysis.ShiftPathAnalyzer`,
  :func:`~repro.timing.skew_analysis.monte_carlo_violations` (Fig. 3),
* :func:`~repro.timing.waveform_gen.generate_bist_waveform` and helpers.
"""

from .clocks import ClockDomainSpec, ClockTreeModel, make_clock_tree
from .double_capture import (
    CaptureSchedule,
    CaptureWindowScheduler,
    DomainCaptureTiming,
)
from .clock_gating import ClockGatingBlock, GatedPulse
from .skew_analysis import (
    InterfaceTiming,
    MonteCarloSummary,
    ShiftPathAnalyzer,
    ShiftPathParameters,
    ShiftPathReport,
    monte_carlo_violations,
    run_skew_trials,
)
from .waveform_gen import (
    BistWaveformConfig,
    domain_capture_pulse_times,
    generate_bist_waveform,
    se_minimum_stable_time,
    se_transition_count,
    tck_signal_name,
)

__all__ = [
    "ClockDomainSpec",
    "ClockTreeModel",
    "make_clock_tree",
    "CaptureSchedule",
    "CaptureWindowScheduler",
    "DomainCaptureTiming",
    "ClockGatingBlock",
    "GatedPulse",
    "InterfaceTiming",
    "MonteCarloSummary",
    "ShiftPathAnalyzer",
    "ShiftPathParameters",
    "ShiftPathReport",
    "monte_carlo_violations",
    "run_skew_trials",
    "BistWaveformConfig",
    "domain_capture_pulse_times",
    "generate_bist_waveform",
    "se_minimum_stable_time",
    "se_transition_count",
    "tck_signal_name",
]
