"""Linear feedback shift registers: the PRPGs of the STUMPS architecture.

:class:`FibonacciLfsr` is the external-XOR form, the textbook STUMPS PRPG.
It walks the full ``2**length - 1`` non-zero state space when built from a
primitive polynomial (:mod:`repro.bist.polynomials`).  The PRPG drives one bit
per scan chain per shift cycle, after the phase shifter decorrelates adjacent
chains (:mod:`repro.bist.phase_shifter`).
"""

from __future__ import annotations

from typing import Iterator, Optional

from .polynomials import (
    polynomial_degree,
    polynomial_taps,
    primitive_polynomial,
)


class _LfsrBase:
    """State storage and iteration helpers of an LFSR.

    Its :meth:`drain_output_word` steps one clock at a time: the reference
    the chunked :meth:`FibonacciLfsr.drain_output_word` is tested against.
    """

    def __init__(
        self,
        length: int,
        polynomial: Optional[tuple[int, ...]] = None,
        seed: int = 1,
    ) -> None:
        if length < 2:
            raise ValueError("LFSR length must be at least 2")
        self.length = length
        self.polynomial = polynomial if polynomial is not None else primitive_polynomial(length)
        if polynomial_degree(self.polynomial) != length:
            raise ValueError(
                f"polynomial degree {polynomial_degree(self.polynomial)} "
                f"does not match LFSR length {length}"
            )
        self._mask = (1 << length) - 1
        self.state = 0
        self.reseed(seed)

    # ------------------------------------------------------------------ #
    # State management
    # ------------------------------------------------------------------ #
    def reseed(self, seed: int) -> None:
        """Load a new seed (must be non-zero after masking to the register width)."""
        seed &= self._mask
        if seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        self.state = seed

    def state_bits(self) -> list[int]:
        """Current state as a list of bits, index 0 = stage 0."""
        return [(self.state >> i) & 1 for i in range(self.length)]

    def bit(self, index: int) -> int:
        """Value of one stage."""
        if not 0 <= index < self.length:
            raise IndexError(f"stage {index} out of range for length {self.length}")
        return (self.state >> index) & 1

    # ------------------------------------------------------------------ #
    # Iteration
    # ------------------------------------------------------------------ #
    def step(self) -> int:  # pragma: no cover - overridden
        """Advance one clock; returns the serial output bit."""
        raise NotImplementedError

    def run(self, cycles: int) -> list[int]:
        """Advance ``cycles`` clocks, returning the serial output bit stream."""
        return [self.step() for _ in range(cycles)]

    def drain_output_word(self, count: int) -> int:
        """Advance ``count`` clocks; return the output stream as one packed word.

        Bit *t* of the result is the serial output of step ``t + 1`` -- the
        packed form of :meth:`run`.  The generic implementation simply steps;
        :class:`FibonacciLfsr` overrides it with a chunked linear-recurrence
        form that produces up to ``length - max_tap`` bits per Python
        operation (the fast path of the streamed ndarray pattern
        generation), with the identical final state.
        """
        word = 0
        for index in range(count):
            if self.step():
                word |= 1 << index
        return word

    def states(self, cycles: int) -> Iterator[int]:
        """Yield the state value after each of ``cycles`` steps."""
        for _ in range(cycles):
            self.step()
            yield self.state

    def period(self, limit: Optional[int] = None) -> int:
        """Number of steps until the state repeats (exhaustive walk).

        ``limit`` guards against non-maximal polynomials; defaults to
        ``2**length`` which always terminates.
        """
        limit = limit if limit is not None else (1 << self.length)
        start = self.state
        count = 0
        while count < limit:
            self.step()
            count += 1
            if self.state == start:
                return count
        return count


class FibonacciLfsr(_LfsrBase):
    """External-XOR (Fibonacci) LFSR.

    The new bit entering stage ``length-1`` is the XOR of the tap stages; the
    serial output is stage 0.
    """

    def __init__(
        self,
        length: int,
        polynomial: Optional[tuple[int, ...]] = None,
        seed: int = 1,
    ) -> None:
        super().__init__(length, polynomial, seed)
        # Tap exponent e corresponds to stage e-1 feeding the XOR (plus the
        # constant term handled by stage 0 / output bit).
        self._tap_stages = [e for e in polynomial_taps(self.polynomial) if e > 0]

    def step(self) -> int:
        output = self.state & 1
        feedback = output
        for exponent in self._tap_stages:
            feedback ^= (self.state >> exponent) & 1
        self.state = (self.state >> 1) | (feedback << (self.length - 1))
        return output

    def drain_output_word(self, count: int) -> int:
        """Chunked form of the generic :meth:`_LfsrBase.drain_output_word`.

        A Fibonacci LFSR's stages are a sliding window over its output
        stream ``s``: stage *i* after *n* steps equals ``s[n + i]``, with
        ``s[0 .. length)`` being the current state bits and the linear
        recurrence ``s[n] = s[n - L] ^ XOR(s[n - L + e] for tap stages e)``.
        That lets ``L - max_tap`` new bits be produced per Python bigint
        operation instead of one per :meth:`step` call.  Output word and
        final state are bit-identical to stepping (asserted by the
        streaming equivalence tests).
        """
        if count <= 0:
            return 0
        length = self.length
        taps = self._tap_stages
        chunk = length - (max(taps) if taps else 0)
        stream = self.state  # bits [0, length): the current stage values
        produced = length
        total = count + length
        while produced < total:
            take = min(chunk, total - produced)
            base = produced - length
            feedback = stream >> base
            for exponent in taps:
                feedback ^= stream >> (base + exponent)
            stream |= (feedback & ((1 << take) - 1)) << produced
            produced += take
        self.state = (stream >> count) & self._mask
        return stream & ((1 << count) - 1)


class Prpg:
    """Pseudo-random pattern generator: an LFSR exposing its parallel state.

    In a STUMPS architecture one PRPG feeds many scan chains in parallel; the
    value presented to chain *c* in a shift cycle is (after the phase shifter)
    a XOR of PRPG stages.  This wrapper advances the LFSR once per shift cycle
    and hands the full state to the phase shifter.
    """

    def __init__(
        self,
        length: int,
        polynomial: Optional[tuple[int, ...]] = None,
        seed: int = 1,
    ) -> None:
        self.lfsr = FibonacciLfsr(length, polynomial, seed)

    @property
    def length(self) -> int:
        """Number of LFSR stages."""
        return self.lfsr.length

    @property
    def state(self) -> int:
        """Current LFSR state."""
        return self.lfsr.state

    def reseed(self, seed: int) -> None:
        """Load a new non-zero seed (e.g. through Boundary-Scan)."""
        self.lfsr.reseed(seed)

    def next_state_bits(self) -> list[int]:
        """Advance one shift cycle and return the new parallel state bits."""
        self.lfsr.step()
        return self.lfsr.state_bits()

    def next_state_int(self) -> int:
        """Advance one shift cycle and return the new state as one integer.

        The packed pattern-generation path uses this together with
        :meth:`~repro.bist.phase_shifter.PhaseShifter.outputs_word` to avoid
        materialising a Python list of state bits per shift cycle.
        """
        self.lfsr.step()
        return self.lfsr.state

    def generate_states(self, cycles: int) -> list[list[int]]:
        """Parallel state bits for ``cycles`` consecutive shift cycles."""
        return [self.next_state_bits() for _ in range(cycles)]

