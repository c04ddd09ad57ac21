"""The per-trial skew sample: one report per Fig. 3 sweep trial.

:func:`~repro.timing.skew_analysis.run_skew_trials` tallies each trial's
margins without building a report.  :func:`sample_shift_path_report` draws
the same trial from its own ``(seed, trial)``-seeded RNG and runs it
through :meth:`ShiftPathAnalyzer.analyze
<repro.timing.skew_analysis.ShiftPathAnalyzer.analyze>`, so the sweep's
counters must equal these reports' verdicts summed
(``tests/timing/test_schedule_properties.py``).
"""

from __future__ import annotations

import random

from ..timing.skew_analysis import ShiftPathAnalyzer, ShiftPathParameters, ShiftPathReport


def sample_shift_path_report(
    parameters: ShiftPathParameters,
    skew_range_ns: float,
    trial: int,
    seed: int = 2005,
    bist_clock_advance_ns: float = 0.0,
    retiming: bool = False,
) -> ShiftPathReport:
    """One trial-indexed Monte-Carlo shift-path sample.

    Seeds a fresh RNG from ``(seed, trial)``: trial ``k`` produces the same
    sample whichever trials run before it.
    """
    rng = random.Random(f"{seed}:trial:{trial}")
    nominal_chain_arrival = skew_range_ns / 2
    chain_arrival = rng.uniform(0.0, skew_range_ns)
    bist_arrival = nominal_chain_arrival - bist_clock_advance_ns + rng.uniform(
        -0.1 * skew_range_ns, 0.1 * skew_range_ns
    )
    return ShiftPathAnalyzer(parameters).analyze(
        chain_arrival, bist_arrival, retiming=retiming
    )
