"""Five-valued D-calculus values.

PODEM reasons about the good and the faulty circuit simultaneously.  The
classical five-valued notation {0, 1, X, D, D'} is represented here as a pair of
three-valued components:

* ``good``  -- value in the fault-free circuit (0, 1 or ``None`` for X),
* ``faulty`` -- value in the faulty circuit (0, 1 or ``None`` for X).

``D``  is (good=1, faulty=0) and ``D'`` is (good=0, faulty=1); a *discrepancy*
(either D or D') at an observation net is what makes a pattern a test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Value5:
    """One net's value in the composite (good, faulty) circuit."""

    good: Optional[int]
    faulty: Optional[int]

    def __post_init__(self) -> None:
        for component in (self.good, self.faulty):
            if component not in (0, 1, None):
                raise ValueError("components must be 0, 1 or None (X)")

    @property
    def is_discrepancy(self) -> bool:
        """True for D or D' (good and faulty both known and different)."""
        return (
            self.good is not None
            and self.faulty is not None
            and self.good != self.faulty
        )

    @property
    def symbol(self) -> str:
        """Classical textbook symbol: 0, 1, X, D or D'."""
        if self.good is None or self.faulty is None:
            return "X"
        if self.good == self.faulty:
            return str(self.good)
        return "D" if self.good == 1 else "D'"

    def __str__(self) -> str:
        return self.symbol


#: The five named constants.
ZERO = Value5(0, 0)
ONE = Value5(1, 1)
X = Value5(None, None)
D = Value5(1, 0)
D_BAR = Value5(0, 1)

#: The nine possible composite values, interned so the implication engines
#: never allocate per-net objects (the reference engine re-implies the whole
#: netlist on every PODEM decision; the compiled engine materialises
#: :class:`Value5` views only for diagnostics and differential tests).
VALUE_TABLE: dict[tuple[Optional[int], Optional[int]], Value5] = {
    (good, faulty): Value5(good, faulty)
    for good in (0, 1, None)
    for faulty in (0, 1, None)
}


def value5(good: Optional[int], faulty: Optional[int]) -> Value5:
    """Interned :class:`Value5` lookup (avoids per-net object construction)."""
    return VALUE_TABLE[(good, faulty)]


def from_symbol(symbol: str) -> Value5:
    """Parse a textbook symbol back into a :class:`Value5`."""
    table = {"0": ZERO, "1": ONE, "X": X, "x": X, "D": D, "D'": D_BAR}
    try:
        return table[symbol]
    except KeyError as exc:
        raise ValueError(f"unknown D-calculus symbol {symbol!r}") from exc
