"""Waveform traces: named digital signals changing value over time.

Used by the event-driven simulator and by the at-speed timing generator
(:mod:`repro.timing.waveform_gen`) to represent the Fig. 2 shift/capture
window waveforms (TCK1, TCK2, SE, ...).  Times are floats in nanoseconds.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass
class SignalTrace:
    """One signal's list of (time, value) events, kept sorted by time."""

    name: str
    initial_value: int = 0
    events: list[tuple[float, int]] = field(default_factory=list)

    def add_event(self, time: float, value: int) -> None:
        """Record that the signal takes ``value`` at ``time``."""
        if value not in (0, 1):
            raise ValueError("signal values must be 0 or 1")
        index = bisect.bisect_right([t for t, _ in self.events], time)
        self.events.insert(index, (time, value))

    def value_at(self, time: float) -> int:
        """Signal value at ``time`` (events at exactly ``time`` are included)."""
        value = self.initial_value
        for event_time, event_value in self.events:
            if event_time <= time:
                value = event_value
            else:
                break
        return value

    def transitions(self) -> list[tuple[float, int, int]]:
        """List of (time, old_value, new_value) for actual value changes."""
        result = []
        value = self.initial_value
        for event_time, event_value in self.events:
            if event_value != value:
                result.append((event_time, value, event_value))
                value = event_value
        return result

    def rising_edges(self) -> list[float]:
        """Times of 0->1 transitions."""
        return [t for t, old, new in self.transitions() if old == 0 and new == 1]

    def falling_edges(self) -> list[float]:
        """Times of 1->0 transitions."""
        return [t for t, old, new in self.transitions() if old == 1 and new == 0]

    def pulse_count(self) -> int:
        """Number of complete 0->1 pulses."""
        return len(self.rising_edges())


class Waveform:
    """A bundle of :class:`SignalTrace` objects sharing one time axis."""

    def __init__(self) -> None:
        self._signals: dict[str, SignalTrace] = {}

    def signal(self, name: str, initial_value: int = 0) -> SignalTrace:
        """Return (creating if needed) the trace for ``name``."""
        if name not in self._signals:
            self._signals[name] = SignalTrace(name, initial_value)
        return self._signals[name]

    def signal_names(self) -> list[str]:
        """Signal names in creation order."""
        return list(self._signals)

    def add_event(self, name: str, time: float, value: int) -> None:
        """Record an event on signal ``name`` (creating the trace if needed)."""
        self.signal(name).add_event(time, value)

    def add_pulse(self, name: str, start: float, width: float) -> None:
        """Record a single 0->1->0 pulse."""
        if width <= 0:
            raise ValueError("pulse width must be positive")
        trace = self.signal(name)
        trace.add_event(start, 1)
        trace.add_event(start + width, 0)

    def value_at(self, name: str, time: float) -> int:
        """Value of signal ``name`` at ``time``."""
        return self._signals[name].value_at(time)

    def end_time(self) -> float:
        """Largest event time across all signals (0.0 when empty)."""
        times = [t for trace in self._signals.values() for t, _ in trace.events]
        return max(times, default=0.0)

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def to_ascii(
        self,
        signals: Sequence[str] | None = None,
        resolution_ns: float = 1.0,
        end_time: float | None = None,
    ) -> str:
        """Render selected signals as an ASCII timing diagram.

        Each character column covers ``resolution_ns`` nanoseconds; a signal
        is drawn with ``_`` for low and ``#`` (high bar) for high.  This is the
        textual analogue of the paper's Fig. 2 and is what the Fig. 2 benchmark
        and the multi-clock example print.
        """
        if resolution_ns <= 0:
            raise ValueError("resolution must be positive")
        names = list(signals) if signals is not None else self.signal_names()
        horizon = end_time if end_time is not None else self.end_time()
        columns = max(1, int(round(horizon / resolution_ns)) + 1)
        width = max((len(n) for n in names), default=0)
        lines = []
        for name in names:
            trace = self._signals[name]
            row = "".join(
                "#" if trace.value_at(col * resolution_ns) else "_"
                for col in range(columns)
            )
            lines.append(f"{name.rjust(width)} |{row}")
        return "\n".join(lines)

    def to_value_change_dump(self, signals: Iterable[str] | None = None) -> str:
        """Serialise as a minimal VCD-like text (for offline inspection)."""
        names = list(signals) if signals is not None else self.signal_names()
        lines = ["$timescale 1ns $end"]
        symbols = {name: chr(ord("!") + i) for i, name in enumerate(names)}
        for name in names:
            lines.append(f"$var wire 1 {symbols[name]} {name} $end")
        lines.append("$enddefinitions $end")
        events: list[tuple[float, str, int]] = []
        for name in names:
            trace = self._signals[name]
            events.append((0.0, name, trace.initial_value))
            for time, old, new in trace.transitions():
                events.append((time, name, new))
        events.sort(key=lambda item: item[0])
        current_time = None
        for time, name, value in events:
            if time != current_time:
                lines.append(f"#{int(round(time * 1000))}")
                current_time = time
            lines.append(f"{value}{symbols[name]}")
        return "\n".join(lines)
