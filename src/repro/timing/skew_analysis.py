"""Shift-path skew analysis: the Fig. 3 physical-implementation technique.

During the shift window a PRPG, a scan chain and a MISR operate as one long
shift register, but the PRPG/MISR sit in the BIST clock branch (CCK) while the
scan chain is clocked by the core's own clock tree (TCK).  The relative phase
between the two branches is not tightly controlled, so two interfaces can
fail:

* PRPG -> scan chain (hold or setup, depending on which clock is earlier),
* scan chain -> MISR (the mirror image).

The paper's technique (Section 2.3) is to *always clock the PRPG and the MISR
ahead of the scan chain*.  With that phase relationship the failure modes
become one-sided:

* PRPG -> chain can only fail **hold** -- fixable by re-timing (lock-up)
  flip-flops, which add half a shift period of path delay and cost no
  functional-path performance,
* chain -> MISR can only fail **setup** -- fixable by reducing the logic depth
  between the chain output and the MISR, i.e. by *not* putting a space
  compactor there (which is exactly what Table 1's long MISRs reflect).

:class:`ShiftPathAnalyzer` evaluates both interfaces for a given phase
relationship and path delays; :func:`monte_carlo_violations` sweeps random
skew samples with and without the phase-advance technique to produce the data
behind the Fig. 3 benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..netlist.library import CellLibrary
from ..netlist.gates import GateType


@dataclass
class ShiftPathParameters:
    """Electrical parameters of one PRPG -> chain -> MISR shift path."""

    #: Shift-clock period (ns); shifting need not run at functional speed.
    shift_period_ns: float = 10.0
    #: Clock-to-Q delay of every flop (ns).
    clk_to_q_ns: float = 0.20
    #: Setup / hold requirements of every flop (ns).
    setup_ns: float = 0.10
    hold_ns: float = 0.05
    #: Max / min routing+logic delay from the PRPG (after the phase shifter)
    #: to the first scan cell (ns).
    prpg_to_chain_max_ns: float = 0.60
    prpg_to_chain_min_ns: float = 0.15
    #: Max / min routing+logic delay from the last scan cell to the MISR input,
    #: *excluding* any space compactor (ns).
    chain_to_misr_max_ns: float = 0.60
    chain_to_misr_min_ns: float = 0.15
    #: Depth of the space-compactor XOR tree on the chain->MISR path (levels).
    compactor_depth: int = 0
    #: Delay per XOR level (ns); taken from the cell library by default.
    xor_level_delay_ns: Optional[float] = None

    def resolved_xor_delay(self) -> float:
        """Per-level XOR delay, defaulting to the cell-library characterisation."""
        if self.xor_level_delay_ns is not None:
            return self.xor_level_delay_ns
        return CellLibrary().delay_ns(GateType.XOR, 2)

    def chain_to_misr_total_max(self) -> float:
        """Worst-case chain->MISR path delay including the compactor tree."""
        return self.chain_to_misr_max_ns + self.compactor_depth * self.resolved_xor_delay()

    def chain_to_misr_total_min(self) -> float:
        """Best-case chain->MISR path delay including the compactor tree."""
        return self.chain_to_misr_min_ns + self.compactor_depth * self.resolved_xor_delay()


@dataclass
class InterfaceTiming:
    """Setup/hold margins of one flop-to-flop interface (negative = violation)."""

    name: str
    setup_margin_ns: float
    hold_margin_ns: float

    @property
    def setup_violated(self) -> bool:
        """True when the worst-case path misses setup."""
        return self.setup_margin_ns < 0

    @property
    def hold_violated(self) -> bool:
        """True when the best-case path misses hold."""
        return self.hold_margin_ns < 0


@dataclass
class ShiftPathReport:
    """Timing report for one PRPG -> chain -> MISR slice."""

    prpg_to_chain: InterfaceTiming
    chain_to_misr: InterfaceTiming
    #: Phase advance of the BIST clock relative to the chain clock (ns, >=0
    #: means the PRPG/MISR clock arrives earlier).
    bist_clock_advance_ns: float = 0.0
    retiming_applied: bool = False

    @property
    def violation_kinds(self) -> list[str]:
        """Which violations the slice currently has (empty = clean)."""
        kinds = []
        if self.prpg_to_chain.setup_violated:
            kinds.append("prpg_to_chain_setup")
        if self.prpg_to_chain.hold_violated:
            kinds.append("prpg_to_chain_hold")
        if self.chain_to_misr.setup_violated:
            kinds.append("chain_to_misr_setup")
        if self.chain_to_misr.hold_violated:
            kinds.append("chain_to_misr_hold")
        return kinds

    @property
    def clean(self) -> bool:
        """True when neither interface violates setup or hold."""
        return not self.violation_kinds

    @property
    def only_fixable_violations(self) -> bool:
        """True when every violation is of the kind the paper's fixes address.

        With the phase-advance technique the only acceptable violation types
        are PRPG->chain *hold* (fixed by re-timing flops) and chain->MISR
        *setup* (fixed by removing compactor levels).
        """
        allowed = {"prpg_to_chain_hold", "chain_to_misr_setup"}
        return all(kind in allowed for kind in self.violation_kinds)


class ShiftPathAnalyzer:
    """Evaluates shift-path timing for a given BIST-vs-chain clock phase."""

    def __init__(self, parameters: Optional[ShiftPathParameters] = None) -> None:
        self.parameters = parameters or ShiftPathParameters()

    def analyze(
        self,
        chain_clock_arrival_ns: float,
        bist_clock_arrival_ns: float,
        retiming: bool = False,
    ) -> ShiftPathReport:
        """Compute margins for one slice.

        Parameters
        ----------
        chain_clock_arrival_ns:
            Arrival time of the scan-chain clock at its flops.
        bist_clock_arrival_ns:
            Arrival time of the PRPG/MISR clock.
        retiming:
            Apply the re-timing-flop fix: the lock-up stage launches on the
            opposite clock edge, adding half a shift period to the *minimum*
            PRPG->chain path (the standard hold fix).
        """
        p = self.parameters
        advance = chain_clock_arrival_ns - bist_clock_arrival_ns

        prpg_min = p.prpg_to_chain_min_ns + (p.shift_period_ns / 2 if retiming else 0.0)
        prpg_max = p.prpg_to_chain_max_ns + (p.shift_period_ns / 2 if retiming else 0.0)

        # PRPG (launch @ bist clock) -> first chain cell (capture @ chain clock).
        prpg_setup_margin = (
            (chain_clock_arrival_ns + p.shift_period_ns - p.setup_ns)
            - (bist_clock_arrival_ns + p.clk_to_q_ns + prpg_max)
        )
        prpg_hold_margin = (
            (bist_clock_arrival_ns + p.clk_to_q_ns + prpg_min)
            - (chain_clock_arrival_ns + p.hold_ns)
        )

        # Last chain cell (launch @ chain clock) -> MISR (capture @ bist clock).
        misr_setup_margin = (
            (bist_clock_arrival_ns + p.shift_period_ns - p.setup_ns)
            - (chain_clock_arrival_ns + p.clk_to_q_ns + p.chain_to_misr_total_max())
        )
        misr_hold_margin = (
            (chain_clock_arrival_ns + p.clk_to_q_ns + p.chain_to_misr_total_min())
            - (bist_clock_arrival_ns + p.hold_ns)
        )

        return ShiftPathReport(
            prpg_to_chain=InterfaceTiming("prpg_to_chain", prpg_setup_margin, prpg_hold_margin),
            chain_to_misr=InterfaceTiming("chain_to_misr", misr_setup_margin, misr_hold_margin),
            bist_clock_advance_ns=advance,
            retiming_applied=retiming,
        )


@dataclass
class MonteCarloSummary:
    """Aggregate violation counts over many skew samples."""

    trials: int = 0
    clean: int = 0
    prpg_to_chain_setup: int = 0
    prpg_to_chain_hold: int = 0
    chain_to_misr_setup: int = 0
    chain_to_misr_hold: int = 0
    only_fixable: int = 0

    def record(self, report: ShiftPathReport) -> None:
        """Accumulate one slice report."""
        self.trials += 1
        if report.clean:
            self.clean += 1
        for kind in report.violation_kinds:
            setattr(self, kind, getattr(self, kind) + 1)
        if report.only_fixable_violations:
            self.only_fixable += 1

    def as_dict(self) -> dict[str, int]:
        """Canonical integer-only view (stable keys, deterministic values)."""
        return {
            "trials": self.trials,
            "clean": self.clean,
            "prpg_to_chain_setup": self.prpg_to_chain_setup,
            "prpg_to_chain_hold": self.prpg_to_chain_hold,
            "chain_to_misr_setup": self.chain_to_misr_setup,
            "chain_to_misr_hold": self.chain_to_misr_hold,
            "only_fixable": self.only_fixable,
            "unfixable": self.unfixable,
        }

    @property
    def unfixable(self) -> int:
        """Trials with at least one violation the paper's fixes do not cover."""
        return self.trials - self.only_fixable


def monte_carlo_violations(
    parameters: ShiftPathParameters,
    skew_range_ns: float,
    trials: int,
    bist_clock_advance_ns: float = 0.0,
    retiming: bool = False,
    seed: int = 2005,
) -> MonteCarloSummary:
    """Sweep random chain-clock arrivals and count violation types.

    The chain clock arrival is sampled uniformly in ``[0, skew_range_ns]``;
    the BIST clock arrives ``bist_clock_advance_ns`` earlier than the *nominal*
    chain clock (advance 0 models an uncontrolled relationship).  This is the
    experiment behind the Fig. 3 benchmark: with the phase advance applied the
    distribution of violations collapses onto the two fixable kinds.
    """
    analyzer = ShiftPathAnalyzer(parameters)
    rng = random.Random(seed)
    summary = MonteCarloSummary()
    nominal_chain_arrival = skew_range_ns / 2
    for _ in range(trials):
        chain_arrival = rng.uniform(0.0, skew_range_ns)
        bist_arrival = nominal_chain_arrival - bist_clock_advance_ns + rng.uniform(
            -0.1 * skew_range_ns, 0.1 * skew_range_ns
        )
        report = analyzer.analyze(chain_arrival, bist_arrival, retiming=retiming)
        summary.record(report)
    return summary


def sample_shift_path_report(
    parameters: ShiftPathParameters,
    skew_range_ns: float,
    trial: int,
    seed: int = 2005,
    bist_clock_advance_ns: float = 0.0,
    retiming: bool = False,
) -> ShiftPathReport:
    """One trial-indexed Monte-Carlo shift-path sample.

    Draws the same distribution as :func:`monte_carlo_violations` but seeds a
    fresh RNG from ``(seed, trial)`` instead of advancing one sequential
    stream: trial ``k`` produces the same sample whichever trials run
    before it.  The campaign's skew sweep and its report bytes are built
    on these per-trial seeds.
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


def run_skew_trials(
    parameters: ShiftPathParameters,
    skew_range_ns: float,
    trials: Iterable[int],
    bist_clock_advance_ns: float = 0.0,
    retiming: bool = False,
    seed: int = 2005,
) -> MonteCarloSummary:
    """Aggregate trial-indexed skew samples for the given trial indices.

    ``run_skew_trials(p, r, range(n))`` is the campaign's Fig. 3 sweep
    (:class:`~repro.campaign.pipeline.SkewTrialsStage`): one stage in the
    campaign parent, since a thousand trials take about 10 ms.
    """
    summary = MonteCarloSummary()
    for trial in trials:
        summary.record(
            sample_shift_path_report(
                parameters,
                skew_range_ns,
                trial,
                seed=seed,
                bist_clock_advance_ns=bist_clock_advance_ns,
                retiming=retiming,
            )
        )
    return summary
