"""STUMPS architecture assembly: one PRPG/phase-shifter/MISR set per clock domain.

This is the structural heart of Fig. 1.  For every clock domain of the
BIST-ready core the architecture instantiates:

* a PRPG (:class:`~repro.bist.lfsr.Prpg`) of configurable length,
* a phase shifter (:class:`~repro.bist.phase_shifter.PhaseShifter`) spreading
  the PRPG over that domain's scan chains,
* optionally a space expander,
* a space compactor (identity by default -- the paper connects chains straight
  to a chain-count-wide MISR to avoid setup-critical XOR levels), and
* a MISR (:class:`~repro.bist.misr.Misr`).

The per-domain pairing is the paper's answer to clock skew between domains:
no shift path ever crosses a domain boundary, so only the *capture* window has
to worry about inter-domain skew (handled by the double-capture scheduler in
:mod:`repro.timing.double_capture`).

Besides the structure, the module emulates the data path on packed blocks
(bit *j* of a cell's word belongs to pattern *j*): pattern generation (what
state the shift windows load into every scan cell) and response compaction
(what signature the captured responses produce), which is what the
end-to-end flow and the signature tests use.

Pattern generation has one packed path for both simulation backends, built on
the TPG being linear.  A Fibonacci PRPG of length ``L`` is a window over its
output stream ``s``, and a cell at position *p* of a chain shifted for ``C``
cycles loads, in pattern *j*, the XOR of ``s[j*C + C - p + t]`` over the
chain's PRPG taps *t* (its phase-shifter channel's taps, or through a space
expander the symmetric difference of its channels' taps).  So the generator
computes, for ``N`` patterns at once, the bit-sliced columns
``D_r = sum(s[j*C + r] << j)``: ``D_0 .. D_{L-1}`` (the pattern-start states)
by doubling with cached jump matrices ``M**(C * 2**k)``, every later column by
the recurrence with one ``N``-bit XOR per tap, and each cell's word as a XOR of
a few columns.  Response compaction is one packed unload
(:meth:`StumpsDomain.fold_responses`).  The per-pattern references both are
tested against -- the PRPG stepped once per shift cycle and the MISR clocked
once per unload slice -- live in :mod:`repro.oracle.patterns`.
"""

from __future__ import annotations

import copy
import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from ..scan.chains import ScanChainArchitecture
from ..simulation.packed import DEFAULT_BLOCK_SIZE, PatternBlock, mask_for
from .lfsr import Prpg
from .misr import Misr
from .phase_shifter import PhaseShifter, identity_phase_shifter
from .space import SpaceCompactor, SpaceExpander, identity_compactor

#: Patterns the bit-sliced generator computes per pass, rounded down to whole
#: blocks (at least one): each domain holds ``shift cycles + PRPG length``
#: stream columns of this many bits at a time.
_CHUNK_PATTERNS = 4096


@dataclass
class StumpsDomainConfig:
    """Per-clock-domain BIST configuration."""

    domain: str
    prpg_length: int = 19
    #: MISR length; ``None`` means "as wide as the domain's chain count"
    #: (the paper's no-space-compactor choice).
    misr_length: Optional[int] = None
    prpg_seed: int = 1
    use_phase_shifter: bool = True
    phase_shifter_taps: int = 3
    phase_shifter_seed: int = 1
    #: Number of compactor outputs; ``None`` disables compaction (identity).
    compactor_outputs: Optional[int] = None
    #: Optional space expander input width (None = drive chains from the PS directly).
    expander_inputs: Optional[int] = None


class StumpsDomain:
    """PRPG -> PS -> (SpE) -> chains -> (SpC) -> MISR for one clock domain."""

    def __init__(self, config: StumpsDomainConfig, architecture: ScanChainArchitecture) -> None:
        self.config = config
        self.chains = architecture.chains_in_domain(config.domain)
        if not self.chains:
            raise ValueError(f"no scan chains in domain {config.domain!r}")
        self.chain_count = len(self.chains)
        self.max_chain_length = max(chain.length for chain in self.chains)

        self.prpg = Prpg(config.prpg_length, seed=config.prpg_seed)
        if config.use_phase_shifter:
            self.phase_shifter = PhaseShifter(
                prpg_length=config.prpg_length,
                num_channels=self.chain_count,
                taps_per_channel=config.phase_shifter_taps,
                seed=config.phase_shifter_seed,
            )
        else:
            self.phase_shifter = identity_phase_shifter(config.prpg_length, self.chain_count)

        self.expander: Optional[SpaceExpander] = None
        if config.expander_inputs is not None:
            self.expander = SpaceExpander(config.expander_inputs, self.chain_count)

        if config.compactor_outputs is None:
            self.compactor = identity_compactor(self.chain_count)
        else:
            self.compactor = SpaceCompactor(self.chain_count, config.compactor_outputs)

        misr_length = (
            config.misr_length if config.misr_length is not None else self.compactor.num_outputs
        )
        misr_length = max(2, misr_length)
        self.misr = Misr(misr_length)

    def __setstate__(self, state: dict) -> None:
        # Pickles of older code carry the per-window cell maps of a deleted
        # ndarray generator and the gather map of a deleted ndarray MISR
        # fold; nothing reads them.
        state.pop("_cell_maps", None)
        state.pop("_fold_map", None)
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #
    # Pattern generation (shift window emulation)
    # ------------------------------------------------------------------ #
    def generate_packed_load(
        self, num_patterns: int, shift_cycles: Optional[int] = None
    ) -> dict[str, int]:
        """Emulate ``num_patterns`` consecutive shift windows, packed per cell.

        Returns scan-cell name -> packed word where bit *i* is the value the
        cell is loaded with in pattern *i*, and leaves the PRPG where
        ``num_patterns`` stepped shift windows would
        (:func:`repro.oracle.patterns.generate_load`).  A cell at
        position *p* gets the XOR of the bit-sliced stream columns
        ``C - p + t`` over its chain's taps *t*
        (:meth:`~repro.bist.lfsr.FibonacciLfsr.sliced_stream`, see the module
        docstring); cells deeper than the ``C``-cycle shift window load 0.
        """
        cycles = shift_cycles if shift_cycles is not None else self.max_chain_length
        columns = self.prpg.lfsr.sliced_stream(
            num_patterns, cycles, cycles + self.prpg.length
        )
        words: dict[str, int] = {}
        for chain, taps in zip(self.chains, self._chain_taps()):
            for position, cell in enumerate(chain.cells):
                word = 0
                if position < cycles:
                    for tap in taps:
                        word ^= columns[cycles - position + tap]
                words[cell] = word
        return words

    def _chain_taps(self) -> list[tuple[int, ...]]:
        """Per chain, the PRPG stages whose XOR drives its scan-in.

        Through a space expander a chain XORs several phase-shifter channels,
        so its taps are the symmetric difference of theirs.
        """
        masks = [
            functools.reduce(operator.xor, (1 << tap for tap in taps), 0)
            for taps in self.phase_shifter.channel_taps
        ]
        if self.expander is not None:
            if len(masks) < self.expander.num_inputs:
                raise ValueError("not enough input bits")
            masks = [
                functools.reduce(operator.xor, (masks[k] for k in taps), 0)
                for taps in self.expander.output_taps
            ]
        return [
            tuple(stage for stage in range(self.prpg.length) if (mask >> stage) & 1)
            for mask in masks
        ]

    # ------------------------------------------------------------------ #
    # Response compaction (unload window emulation)
    # ------------------------------------------------------------------ #
    def fold_responses(self, response_blocks: Iterable[PatternBlock]) -> int:
        """Unload a stream of packed captured responses into the MISR.

        Bit *j* of a block's word for a scan cell is that cell's captured
        value in pattern *j*; cells missing from a block contribute 0.  The
        campaign's signature stage calls this once per clock domain: every
        domain's MISR only ever reads its own chains' cells, so each domain
        folds the same response stream.  Unload cycle *c* reads the cell at
        position ``length - 1 - c`` of every chain (0 past a chain's head)
        and the space compactor XORs each group's chains onto one MISR
        input, so for each cycle the fold XORs each group's cell words.  Then
        pattern by pattern, cycle by cycle, it injects the group bits as one
        word through :meth:`~repro.bist.misr.Misr.compact_word`.  Returns the
        final MISR state.
        """
        groups = self.compactor.num_outputs
        if groups > self.misr.length:
            raise ValueError(
                f"{groups} compactor outputs exceed MISR length {self.misr.length}"
            )
        group_of = self.compactor.group_of
        # Per unload cycle, per MISR input (highest first), the cells it reads.
        unload = [
            [
                [
                    chain.cells[chain.length - 1 - cycle]
                    for index, chain in enumerate(self.chains)
                    if group_of(index) == group and cycle < chain.length
                ]
                for group in reversed(range(groups))
            ]
            for cycle in range(self.max_chain_length)
        ]
        compact_word = self.misr.compact_word
        for block in response_blocks:
            num = block.num_patterns
            if num <= 0:
                continue
            get = block.assignments.get
            mask = mask_for(num)
            width = f"0{num}b"
            # Per cycle, each pattern's injected word, the last pattern first
            # (a binary string's first character is its top bit).
            columns = []
            for sources in unload:
                rows = [
                    format(
                        functools.reduce(operator.xor, [get(cell, 0) for cell in cells], 0)
                        & mask,
                        width,
                    )
                    for cells in sources
                ]
                columns.append([int("".join(bits), 2) for bits in zip(*rows)])
            for injected in reversed(list(zip(*columns))):
                for word in injected:
                    compact_word(word)
        return self.misr.state

    def statistics(self) -> dict[str, object]:
        """Structure summary (feeds the Table 1 report rows)."""
        return {
            "domain": self.config.domain,
            "chains": self.chain_count,
            "max_chain_length": self.max_chain_length,
            "prpg_length": self.prpg.length,
            "misr_length": self.misr.length,
            "phase_shifter_xors": self.phase_shifter.xor_gate_count(),
            "compactor_xors": self.compactor.xor_gate_count(),
        }


class StumpsArchitecture:
    """The complete multi-domain STUMPS TPG/ODC structure."""

    def __init__(
        self,
        architecture: ScanChainArchitecture,
        domain_configs: Optional[Sequence[StumpsDomainConfig]] = None,
        default_prpg_length: int = 19,
        seed: int = 1,
    ) -> None:
        self.chain_architecture = architecture
        configs: dict[str, StumpsDomainConfig] = {}
        if domain_configs:
            for config in domain_configs:
                configs[config.domain] = config
        for index, domain in enumerate(architecture.domains()):
            if domain not in configs:
                configs[domain] = StumpsDomainConfig(
                    domain=domain,
                    prpg_length=default_prpg_length,
                    prpg_seed=seed + index,
                    phase_shifter_seed=seed + 17 * (index + 1),
                )
        self.domains: dict[str, StumpsDomain] = {
            domain: StumpsDomain(configs[domain], architecture)
            for domain in architecture.domains()
        }

    # ------------------------------------------------------------------ #
    # Data-path emulation across all domains
    # ------------------------------------------------------------------ #
    def generate_packed_blocks(
        self, count: int, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> Iterator[PatternBlock]:
        """Stream ``count`` scan-load patterns as packed blocks.

        Yields :class:`~repro.simulation.packed.PatternBlock` instances of at
        most ``block_size`` patterns (bit *i* of a word = the value loaded in
        pattern *i*), pattern for pattern what the stepping reference
        :func:`repro.oracle.patterns.generate_patterns` returns from the same
        PRPG state, without a per-pattern dict.  One
        path serves both simulation backends: every domain's words come from
        :meth:`StumpsDomain.generate_packed_load`, computed for a chunk of
        whole blocks (``_CHUNK_PATTERNS`` patterns, at least one block) and
        sliced block by block with a shift and a mask.  So the PRPGs advance
        a whole chunk at once, when its first block is drawn; a drained
        generator leaves them where stepping would.
        """
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        chunk = max(1, _CHUNK_PATTERNS // block_size) * block_size
        for start in range(0, count, chunk):
            num = min(chunk, count - start)
            loads = [
                domain.generate_packed_load(num) for domain in self.domains.values()
            ]
            for offset in range(0, num, block_size):
                width = min(block_size, num - offset)
                mask = (1 << width) - 1
                yield PatternBlock(
                    {
                        cell: (word >> offset) & mask
                        for load in loads
                        for cell, word in load.items()
                    },
                    width,
                )

    def reset_copy(self) -> "StumpsArchitecture":
        """A copy to stream a session from: it owns reseeded copies of the
        PRPGs -- the only state :meth:`generate_packed_blocks` moves -- and
        shares every other block (chains, phase shifters, compactors, MISRs)
        with this architecture, so generating from it never moves ``self``."""
        clone = copy.copy(self)
        clone.domains = {}
        for name, domain in self.domains.items():
            twin = clone.domains[name] = copy.copy(domain)
            twin.prpg = copy.deepcopy(domain.prpg)
            twin.prpg.reseed(domain.config.prpg_seed)
        return clone

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def prpg_count(self) -> int:
        """Number of PRPGs (one per clock domain, as in the paper)."""
        return len(self.domains)

    def misr_count(self) -> int:
        """Number of MISRs (one per clock domain)."""
        return len(self.domains)

    def misr_lengths(self) -> dict[str, int]:
        """Per-domain MISR lengths (Table 1 reports e.g. ``1: 19 / 1: 99``)."""
        return {name: domain.misr.length for name, domain in self.domains.items()}

    def statistics(self) -> dict[str, object]:
        """Aggregate structure summary."""
        return {
            "prpgs": self.prpg_count(),
            "misrs": self.misr_count(),
            "prpg_lengths": {n: d.prpg.length for n, d in self.domains.items()},
            "misr_lengths": self.misr_lengths(),
            "per_domain": {n: d.statistics() for n, d in self.domains.items()},
        }
