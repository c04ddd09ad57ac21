"""Space expanders and space compactors.

Fig. 1 shows SpE (space expander) blocks between the phase shifters and the
scan chains and SpC (space compactor) blocks between the scan outputs and the
MISRs.  Their purpose is purely dimensional:

* a *space expander* lets a short PRPG drive many chains (each chain input is
  an XOR of a few expander inputs, possibly shared),
* a *space compactor* XOR-folds many chain outputs onto the narrower MISR so
  the MISR can stay short.

The paper's own application note (Table 1 remarks) is that **no** space
compactor was used in front of the MISRs -- the extra XOR levels would risk
setup violations on the chain-to-MISR path -- which is why the MISRs are as
wide as the chain counts (99 and 80 bits).  Both blocks are still implemented
here because the architecture supports them and the ablation study (A2)
quantifies exactly that trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SpaceExpander:
    """Fans ``num_inputs`` TPG channels out to ``num_outputs`` chain inputs."""

    num_inputs: int
    num_outputs: int
    #: Per-output tuple of input indices to XOR (generated if empty).
    output_taps: list[tuple[int, ...]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_inputs < 1 or self.num_outputs < 1:
            raise ValueError("expander needs at least one input and one output")
        if not self.output_taps:
            # Deterministic construction: output j XORs inputs j % n and
            # (j // n + j) % n, which guarantees neighbouring outputs never
            # share the identical tap set while keeping the network shallow.
            taps = []
            for j in range(self.num_outputs):
                first = j % self.num_inputs
                second = (j // self.num_inputs + j) % self.num_inputs
                taps.append((first,) if first == second else (first, second))
            self.output_taps = taps
        if len(self.output_taps) != self.num_outputs:
            raise ValueError("output_taps length must equal num_outputs")

    def xor_gate_count(self) -> int:
        """2-input XOR gates required (area model)."""
        return sum(max(0, len(taps) - 1) for taps in self.output_taps)


@dataclass
class SpaceCompactor:
    """XOR-folds ``num_inputs`` chain outputs onto ``num_outputs`` MISR inputs."""

    num_inputs: int
    num_outputs: int

    def __post_init__(self) -> None:
        if self.num_inputs < 1 or self.num_outputs < 1:
            raise ValueError("compactor needs at least one input and one output")
        if self.num_outputs > self.num_inputs:
            raise ValueError("a compactor cannot have more outputs than inputs")

    def group_of(self, input_index: int) -> int:
        """MISR input that chain output ``input_index`` folds onto."""
        return input_index % self.num_outputs

    def xor_gate_count(self) -> int:
        """2-input XOR gates required (area model)."""
        return max(0, self.num_inputs - self.num_outputs)

    def xor_tree_depth(self) -> int:
        """Depth of the deepest XOR tree -- the extra levels on the chain->MISR path.

        This is the quantity the paper worries about for setup timing: each
        level adds one XOR delay between the scan-chain output and the MISR.
        """
        import math

        heaviest_group = max(
            sum(1 for i in range(self.num_inputs) if self.group_of(i) == g)
            for g in range(self.num_outputs)
        )
        return max(0, math.ceil(math.log2(max(1, heaviest_group))))


def identity_compactor(num_chains: int) -> SpaceCompactor:
    """The paper's choice: no folding, MISR as wide as the chain count."""
    return SpaceCompactor(num_inputs=num_chains, num_outputs=num_chains)
