"""Multiple-input signature registers (MISRs) and signature analysis.

The ODC block of Fig. 1 compresses every scan-out slice into a signature.  A
MISR is an LFSR whose stages are additionally XORed with one response bit
each per clock; after the whole BIST session the remaining state is the
*signature*, compared against the fault-free golden value to produce the
``Result`` output.

The module also provides the standard aliasing-probability estimate
(``2**-length`` for a maximal-length MISR and long response streams) that the
flow's reporting uses, and an error-injection helper the tests use to show
that single-bit response errors always change the signature.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .polynomials import polynomial_degree, polynomial_taps, primitive_polynomial


class Misr:
    """Galois-style multiple-input signature register."""

    def __init__(
        self,
        length: int,
        polynomial: Optional[tuple[int, ...]] = None,
        seed: int = 0,
    ) -> None:
        if length < 2:
            raise ValueError("MISR length must be at least 2")
        self.length = length
        self.polynomial = polynomial if polynomial is not None else primitive_polynomial(length)
        if polynomial_degree(self.polynomial) != length:
            raise ValueError(
                f"polynomial degree {polynomial_degree(self.polynomial)} "
                f"does not match MISR length {length}"
            )
        self._mask = (1 << length) - 1
        taps = 0
        for exponent in polynomial_taps(self.polynomial):
            if exponent > 0:
                taps |= 1 << (exponent - 1)
        self._tap_mask = taps
        self.state = seed & self._mask

    def reset(self, seed: int = 0) -> None:
        """Reset to a known starting state (0 is legal for a MISR)."""
        self.state = seed & self._mask

    def compact(self, response_bits: Sequence[int]) -> int:
        """Absorb one parallel response slice (one bit per MISR input) and return the new state.

        ``response_bits`` may be shorter than the MISR (remaining inputs see 0);
        longer vectors are rejected because silicon would simply not have the
        extra inputs.
        """
        if len(response_bits) > self.length:
            raise ValueError(
                f"{len(response_bits)} response bits exceed MISR length {self.length}"
            )
        injected = 0
        for index, bit in enumerate(response_bits):
            if bit:
                injected |= 1 << index
        return self.compact_word(injected)

    def compact_word(self, injected: int) -> int:
        """Absorb one pre-packed response slice (bit *i* = MISR input *i*).

        The single home of the MISR update -- :meth:`compact` merely packs
        its bit list into a word first -- so the packed fold
        (:meth:`repro.bist.stumps.StumpsDomain.fold_responses`, which XORs
        each compactor group's cell words and injects one word per pattern
        and unload cycle) and the per-cycle unload oracle
        (:func:`repro.oracle.patterns.compact_domain_response`) cannot drift
        apart.
        """
        # LFSR step (Galois) ...
        lsb = self.state & 1
        self.state >>= 1
        if lsb:
            self.state ^= self._tap_mask | (1 << (self.length - 1))
        # ... plus the parallel response injection.
        self.state = (self.state ^ injected) & self._mask
        return self.state

    def compact_stream(self, slices: Sequence[Sequence[int]]) -> int:
        """Absorb a whole sequence of response slices; returns the final state."""
        for response in slices:
            self.compact(response)
        return self.state

    @property
    def signature(self) -> int:
        """Current signature value."""
        return self.state

    def signature_hex(self) -> str:
        """Signature as a zero-padded hex string (what a datasheet would print)."""
        width = (self.length + 3) // 4
        return f"0x{self.state:0{width}x}"

    def aliasing_probability(self) -> float:
        """Steady-state aliasing probability of this MISR (``2**-length``)."""
        return 2.0 ** (-self.length)


def golden_signature(
    length: int,
    slices: Sequence[Sequence[int]],
    polynomial: Optional[tuple[int, ...]] = None,
    seed: int = 0,
) -> int:
    """Compute the fault-free signature for a response stream."""
    misr = Misr(length, polynomial, seed)
    return misr.compact_stream(slices)


def signatures_differ(
    length: int,
    good_slices: Sequence[Sequence[int]],
    faulty_slices: Sequence[Sequence[int]],
    polynomial: Optional[tuple[int, ...]] = None,
) -> bool:
    """True when the two response streams produce different signatures.

    A ``False`` return for different streams is *aliasing* -- the error pattern
    happens to be a multiple of the MISR polynomial.
    """
    return golden_signature(length, good_slices, polynomial) != golden_signature(
        length, faulty_slices, polynomial
    )


def estimate_aliasing_rate(
    length: int,
    trials: int,
    stream_length: int,
    error_bits: int = 1,
    seed: int = 1,
    polynomial: Optional[tuple[int, ...]] = None,
) -> float:
    """Monte-Carlo estimate of the aliasing rate for random error patterns.

    Generates ``trials`` random good streams, flips ``error_bits`` random bits
    to build the faulty stream, and counts how often the signatures collide.
    For a maximal-length MISR the result converges to ``2**-length`` as the
    number of injected error bits grows; single-bit errors can never alias.
    """
    import random

    rng = random.Random(seed)
    collisions = 0
    for _ in range(trials):
        good = [[rng.randint(0, 1) for _ in range(length)] for _ in range(stream_length)]
        faulty = [list(row) for row in good]
        for _ in range(error_bits):
            row = rng.randrange(stream_length)
            col = rng.randrange(length)
            faulty[row][col] ^= 1
        if not signatures_differ(length, good, faulty, polynomial):
            collisions += 1
    return collisions / trials
