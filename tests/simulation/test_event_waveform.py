"""Tests for waveform traces."""

import pytest

from repro.simulation import SignalTrace, Waveform


class TestSignalTrace:
    def test_value_at_and_transitions(self):
        trace = SignalTrace("clk", initial_value=0)
        trace.add_event(5.0, 1)
        trace.add_event(10.0, 0)
        assert trace.value_at(0.0) == 0
        assert trace.value_at(5.0) == 1
        assert trace.value_at(7.5) == 1
        assert trace.value_at(12.0) == 0
        assert trace.transitions() == [(5.0, 0, 1), (10.0, 1, 0)]
        assert trace.rising_edges() == [5.0]
        assert trace.falling_edges() == [10.0]
        assert trace.pulse_count() == 1

    def test_redundant_events_ignored_in_transitions(self):
        trace = SignalTrace("x")
        trace.add_event(1.0, 0)
        trace.add_event(2.0, 1)
        trace.add_event(3.0, 1)
        assert trace.transitions() == [(2.0, 0, 1)]

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            SignalTrace("x").add_event(1.0, 2)


class TestWaveform:
    def test_pulse_and_ascii(self):
        wave = Waveform()
        wave.add_pulse("tck1", 2.0, 2.0)
        wave.add_pulse("tck1", 6.0, 2.0)
        wave.add_event("se", 0.0, 1)
        wave.add_event("se", 5.0, 0)
        art = wave.to_ascii(resolution_ns=1.0)
        lines = art.splitlines()
        assert len(lines) == 2
        assert wave.signal("tck1").pulse_count() == 2
        assert wave.value_at("se", 4.9) == 1
        assert wave.value_at("se", 5.1) == 0
        assert wave.end_time() == 8.0

    def test_pulse_width_must_be_positive(self):
        with pytest.raises(ValueError):
            Waveform().add_pulse("x", 0.0, 0.0)

    def test_ascii_resolution_validation(self):
        wave = Waveform()
        wave.add_pulse("x", 0.0, 1.0)
        with pytest.raises(ValueError):
            wave.to_ascii(resolution_ns=0)

    def test_vcd_export_contains_signals(self):
        wave = Waveform()
        wave.add_pulse("clk", 1.0, 1.0)
        text = wave.to_value_change_dump()
        assert "$var wire 1" in text
        assert "clk" in text
