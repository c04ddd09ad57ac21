"""Coverage statistics: coverage-curve milestones and detection summaries.

Small helpers shared by the reporting layer and the benchmark harness.  A
flat curve tail is the random-pattern plateau the paper attacks with
fault-simulation-guided observation points and top-up ATPG.
"""

from __future__ import annotations

from typing import Sequence

from .fault_list import FaultList
from .models import FaultStatus


def patterns_to_reach(samples: Sequence[tuple[int, float]], target: float) -> int | None:
    """First pattern count at which the coverage curve reaches ``target`` (None if never)."""
    for patterns, coverage in samples:
        if coverage >= target:
            return patterns
    return None


def coverage_plateau_slope(
    samples: Sequence[tuple[int, float]], tail_fraction: float = 0.25
) -> float:
    """Average coverage gain per pattern over the tail of the curve.

    A near-zero slope is the numerical signature of the random-pattern plateau
    that motivates test points and top-up ATPG.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    if len(samples) < 2:
        return 0.0
    start_index = max(0, int(len(samples) * (1 - tail_fraction)) - 1)
    start_patterns, start_cov = samples[start_index]
    end_patterns, end_cov = samples[-1]
    span = end_patterns - start_patterns
    if span <= 0:
        return 0.0
    return (end_cov - start_cov) / span


def detection_summary(fault_list: FaultList) -> dict[str, int | float]:
    """Compact summary used by reports: counts per status plus coverage."""
    return {
        "total": len(fault_list),
        "detected": fault_list.detected_count(),
        "undetected": len(fault_list.with_status(FaultStatus.UNDETECTED)),
        "aborted": len(fault_list.with_status(FaultStatus.ABORTED)),
        "untestable": fault_list.untestable_count(),
        "coverage": fault_list.coverage(),
        "test_efficiency": fault_list.coverage(exclude_untestable=True),
    }
