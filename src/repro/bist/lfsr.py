"""Linear feedback shift registers: the PRPGs of the STUMPS architecture.

:class:`FibonacciLfsr` is the external-XOR form, the textbook STUMPS PRPG.
It walks the full ``2**length - 1`` non-zero state space when built from a
primitive polynomial (:mod:`repro.bist.polynomials`).  The PRPG drives one bit
per scan chain per shift cycle, after the phase shifter decorrelates adjacent
chains (:mod:`repro.bist.phase_shifter`).
"""

from __future__ import annotations

import functools
from typing import Iterator, Optional, Sequence

from .polynomials import (
    polynomial_degree,
    polynomial_taps,
    primitive_polynomial,
)


def _xor_select(values: Sequence[int], mask: int) -> int:
    """XOR of ``values[k]`` over the set bits *k* of ``mask``."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= values[low.bit_length() - 1]
        mask ^= low
    return acc


@functools.lru_cache(maxsize=256)
def _jump_rows(polynomial: tuple[int, ...], steps: int, doublings: int) -> tuple[int, ...]:
    """Rows of the Fibonacci state-transition matrix to the ``steps * 2**doublings``.

    Row *i* masks the current stages whose XOR is stage *i* that many steps
    later.  The base rows follow the recurrence symbolically; each doubling
    squares the previous rows.
    """
    if doublings:
        half = _jump_rows(polynomial, steps, doublings - 1)
        return tuple(_xor_select(half, row) for row in half)
    length = polynomial_degree(polynomial)
    taps = [e for e in polynomial_taps(polynomial) if e > 0]
    rows = [1 << stage for stage in range(length)]
    for base in range(steps):
        row = rows[base]
        for exponent in taps:
            row ^= rows[base + exponent]
        rows.append(row)
    return tuple(rows[steps:])


class FibonacciLfsr:
    """External-XOR (Fibonacci) LFSR.

    The new bit entering stage ``length-1`` is the XOR of the tap stages; the
    serial output is stage 0.  So the stages are a sliding window over the
    output stream ``s``: stage *i* after *n* steps is ``s[n + i]``, and
    ``s[n + length] = s[n] ^ XOR(s[n + e] for tap stages e)``.
    :meth:`step` clocks the register once; :meth:`sliced_stream` advances it
    many patterns at once through that linearity, bit-sliced across the
    patterns.
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
        # Tap exponent e corresponds to stage e-1 feeding the XOR (plus the
        # constant term handled by stage 0 / output bit).
        self._tap_stages = [e for e in polynomial_taps(self.polynomial) if e > 0]
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
    def step(self) -> int:
        """Advance one clock; returns the serial output bit."""
        output = self.state & 1
        feedback = output
        for exponent in self._tap_stages:
            feedback ^= (self.state >> exponent) & 1
        self.state = (self.state >> 1) | (feedback << (self.length - 1))
        return output

    def run(self, cycles: int) -> list[int]:
        """Advance ``cycles`` clocks, returning the serial output bit stream."""
        return [self.step() for _ in range(cycles)]

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

    def sliced_stream(self, count: int, stride: int, depth: int) -> list[int]:
        """Advance ``count * stride`` clocks; return the stream bit-sliced.

        Column *r* (``0 <= r < depth``) is a ``count``-bit int whose bit *j*
        is ``s[j * stride + r]``: stage *r* of the state ``j * stride`` steps
        on while ``r < length``.  Those first ``length`` columns, one bit
        beyond (the final state), are built by doubling: the states of
        patterns ``[m, 2m)`` are the jump matrix ``M**(stride * m)`` applied,
        row mask by row mask, to the columns of ``[0, m)``.  Every further
        column is the recurrence, one ``count``-bit XOR per tap.  The state
        afterwards equals ``count * stride`` calls to :meth:`step`.
        """
        length = self.length
        polynomial = tuple(self.polynomial)
        columns = self.state_bits()
        have = 1
        doublings = 0
        while have <= count:
            take = min(have, count + 1 - have)
            low = (1 << take) - 1
            sources = columns if take == have else [column & low for column in columns]
            rows = _jump_rows(polynomial, stride, doublings)
            columns = [
                column | (_xor_select(sources, row) << have)
                for column, row in zip(columns, rows)
            ]
            have += take
            doublings += 1
        self.state = sum(((column >> count) & 1) << i for i, column in enumerate(columns))
        mask = (1 << count) - 1
        columns = [column & mask for column in columns]
        taps = self._tap_stages
        for base in range(depth - length):
            column = columns[base]
            for exponent in taps:
                column ^= columns[base + exponent]
            columns.append(column)
        return columns


class Prpg:
    """Pseudo-random pattern generator: an LFSR exposing its parallel state.

    In a STUMPS architecture one PRPG feeds many scan chains in parallel; the
    value presented to chain *c* in a shift cycle is (after the phase shifter)
    a XOR of PRPG stages.  This wrapper advances the LFSR once per shift cycle
    and hands the full state to the phase shifter; the packed generator
    advances :attr:`lfsr` many patterns at once through
    :meth:`FibonacciLfsr.sliced_stream`.
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

    def generate_states(self, cycles: int) -> list[list[int]]:
        """Parallel state bits for ``cycles`` consecutive shift cycles."""
        return [self.next_state_bits() for _ in range(cycles)]
