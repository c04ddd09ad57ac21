"""Phase shifters: XOR networks decorrelating PRPG outputs across scan chains.

Adjacent stages of an LFSR produce the *same* bit stream shifted by one cycle.
If those stages drove adjacent scan chains directly, neighbouring chains would
carry strongly correlated (structurally dependent) values, which measurably
hurts random-pattern coverage.  The paper's TPG therefore places a phase
shifter (PS1/PS2 in Fig. 1) between each PRPG and its chains: every chain
input is the XOR of a small set of PRPG stages, which shifts its sequence by a
large number of cycles relative to its neighbours and removes the linear
dependency between adjacent channels.

The construction here follows the standard practice of choosing a distinct
random-looking tap triple per channel (deterministically seeded), which keeps
any two channels at least a guaranteed phase distance apart for maximal-length
PRPGs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class PhaseShifter:
    """XOR network from ``prpg_length`` stages to ``num_channels`` chain inputs.

    Attributes
    ----------
    prpg_length:
        Number of PRPG stages available as taps.
    num_channels:
        Number of scan chains to drive.
    taps_per_channel:
        How many PRPG stages are XORed per channel (3 is the usual choice).
    seed:
        Seed for the deterministic tap selection.
    """

    prpg_length: int
    num_channels: int
    taps_per_channel: int = 3
    seed: int = 1
    channel_taps: list[tuple[int, ...]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.prpg_length < 2:
            raise ValueError("prpg_length must be at least 2")
        if self.num_channels < 1:
            raise ValueError("num_channels must be at least 1")
        taps = min(self.taps_per_channel, self.prpg_length)
        if not self.channel_taps:
            rng = random.Random(self.seed)
            seen: set[tuple[int, ...]] = set()
            for _ in range(self.num_channels):
                # Distinct tap sets per channel whenever enough combinations
                # exist; duplicates are tolerated only when unavoidable.
                for _attempt in range(64):
                    candidate = tuple(sorted(rng.sample(range(self.prpg_length), taps)))
                    if candidate not in seen:
                        break
                seen.add(candidate)
                self.channel_taps.append(candidate)
        if len(self.channel_taps) != self.num_channels:
            raise ValueError("channel_taps length must equal num_channels")

    def xor_gate_count(self) -> int:
        """Number of 2-input XOR gates needed to build the network (area model)."""
        return sum(max(0, len(taps) - 1) for taps in self.channel_taps)

    def correlation(self, sequences: Sequence[Sequence[int]]) -> float:
        """Average pairwise normalised correlation between channel sequences.

        Used by tests and the architecture ablation to show the phase shifter
        removes the neighbour correlation a bare LFSR would have.  0.5 means
        uncorrelated (random agreement), 1.0 means identical streams.
        """
        if len(sequences) < 2:
            return 0.0
        total = 0.0
        pairs = 0
        for i in range(len(sequences) - 1):
            a, b = sequences[i], sequences[i + 1]
            agree = sum(1 for x, y in zip(a, b) if x == y)
            total += agree / max(1, min(len(a), len(b)))
            pairs += 1
        return total / pairs


def identity_phase_shifter(prpg_length: int, num_channels: int) -> PhaseShifter:
    """Degenerate phase shifter wiring channel *i* straight to stage *i % length*.

    This models the "no phase shifter" configuration used by the architecture
    ablation: adjacent channels then carry shifted copies of the same stream.
    """
    taps = [((i % prpg_length),) for i in range(num_channels)]
    return PhaseShifter(
        prpg_length=prpg_length,
        num_channels=num_channels,
        taps_per_channel=1,
        channel_taps=taps,
    )
