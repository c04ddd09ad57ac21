"""Fault models: single stuck-at and transition-delay faults.

The paper's flow targets stuck-at faults for the coverage numbers in Table 1
(20 K random patterns -> ~93 %, top-up ATPG -> ~97 %) and relies on the
double-capture at-speed scheme to also detect timing (transition) defects.
Both models are represented here.

A fault site is a *pin* of a gate:

* ``pin == OUTPUT_PIN`` (-1): the fault sits on the gate's output stem,
* ``pin >= 0``: the fault sits on that input branch of the gate, i.e. it only
  affects how *this* gate sees the driving net, not the other fanout branches.

Branch faults matter because a stem fault and its branch faults are not
equivalent in the presence of fanout; the classical fault-collapsing rules in
:mod:`repro.faults.collapse` operate on exactly this representation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..netlist.circuit import Circuit

#: Pin index used to denote a gate's output stem.
OUTPUT_PIN = -1


def site_label(gate: str, pin: int) -> str:
    """The location part of a fault's ``str()``: ``gate`` or ``gate.inN``."""
    return gate if pin == OUTPUT_PIN else f"{gate}.in{pin}"


class FaultStatus(enum.Enum):
    """Lifecycle status of a fault during a test-generation / BIST campaign."""

    #: Not yet detected by any simulated pattern.
    UNDETECTED = "undetected"
    #: Detected by at least one pattern.
    DETECTED = "detected"
    #: Proven untestable (no input assignment detects it), e.g. by ATPG.
    UNTESTABLE = "untestable"
    #: ATPG gave up within its backtrack limit; possibly testable.
    ABORTED = "aborted"


@dataclass(frozen=True, order=True)
class StuckAtFault:
    """Single stuck-at fault at a gate pin.

    Attributes
    ----------
    gate:
        Name of the gate owning the faulty pin (for stem faults this is the
        driving gate; the faulted net is then ``gate`` itself).
    pin:
        ``OUTPUT_PIN`` for the output stem, otherwise the input pin index.
    value:
        The stuck value, 0 or 1.
    """

    gate: str
    pin: int
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("stuck-at value must be 0 or 1")
        if self.pin < OUTPUT_PIN:
            raise ValueError("pin must be OUTPUT_PIN or a non-negative input index")

    @property
    def is_stem(self) -> bool:
        """True when the fault is on the gate's output stem."""
        return self.pin == OUTPUT_PIN

    def faulted_net(self, circuit: Circuit) -> str:
        """Name of the net whose value the fault corrupts (as seen by this gate)."""
        if self.is_stem:
            return self.gate
        return circuit.gate(self.gate).inputs[self.pin]

    def __str__(self) -> str:
        return f"{site_label(self.gate, self.pin)} s-a-{self.value}"


@dataclass(frozen=True, order=True)
class TransitionFault:
    """Transition-delay fault (slow-to-rise / slow-to-fall) at a gate pin.

    ``slow_to_rise`` means the 0->1 transition is too slow: under the
    launch/capture pair the site behaves as if stuck at 0 during the capture
    cycle.  The detection condition therefore reuses the stuck-at machinery:

    * launch pattern sets the site to the initial value (0 for slow-to-rise),
    * capture pattern sets it to the final value **and** detects the
      corresponding stuck-at fault (s-a-0 for slow-to-rise) at the site.
    """

    gate: str
    pin: int
    slow_to_rise: bool

    def __post_init__(self) -> None:
        if self.pin < OUTPUT_PIN:
            raise ValueError("pin must be OUTPUT_PIN or a non-negative input index")

    @property
    def is_stem(self) -> bool:
        """True when the fault is on the gate's output stem."""
        return self.pin == OUTPUT_PIN

    @property
    def initial_value(self) -> int:
        """Value the site must hold in the launch cycle."""
        return 0 if self.slow_to_rise else 1

    @property
    def final_value(self) -> int:
        """Value the site must transition to in the capture cycle."""
        return 1 if self.slow_to_rise else 0

    def equivalent_stuck_at(self) -> StuckAtFault:
        """The stuck-at fault whose detection in the capture cycle implies detection."""
        return StuckAtFault(self.gate, self.pin, self.initial_value)

    def faulted_net(self, circuit: Circuit) -> str:
        """Name of the net whose transition the fault slows."""
        if self.is_stem:
            return self.gate
        return circuit.gate(self.gate).inputs[self.pin]

    def __str__(self) -> str:
        kind = "STR" if self.slow_to_rise else "STF"
        return f"{site_label(self.gate, self.pin)} {kind}"


Fault = StuckAtFault | TransitionFault
