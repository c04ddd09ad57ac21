"""Pattern packing utilities.

The simulators in this package are *pattern-parallel*: the values of one net
for up to ``block_size`` test patterns are packed into a single Python integer
(bit *i* belongs to pattern *i*).  Python's arbitrary-precision integers make
the block size a first-class, fully configurable parameter: 64 keeps words in
one machine limb, while 256 or 1024 amortise the compiled kernel's
interpreter loop over 4-16x more patterns per pass and are the better
throughput choice for fault-simulation campaigns (see
``benchmarks/bench_fault_sim.py``).  Results are block-size invariant bit for
bit; ``DEFAULT_BLOCK_SIZE`` below is only the default, and every simulator,
the flow config (``LogicBistConfig.block_size``) and the streamed STUMPS
pattern generator accept any positive width.

This module holds the packed form -- a *packed block*: ``dict[net, int]``
plus a pattern count, what the simulators consume -- and packs one way
only: :func:`pack_patterns` and :func:`iter_blocks` turn a pattern list
(``list[dict[net, 0|1]]``, e.g. filled top-up cubes) into blocks, and
:func:`leading_blocks` cuts a block stream to its leading patterns.  The
BIST session is generated packed and never unpacked; the per-pattern
expansions the tests compare against live in :mod:`repro.oracle.patterns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

#: Default number of patterns per packed block.
DEFAULT_BLOCK_SIZE = 64

#: The default backend: the bigint interpreter, always available, the oracle.
PYTHON_BACKEND = "python"
#: The opt-in vectorised backend (:mod:`repro.simulation.numpy_backend`).
NUMPY_BACKEND = "numpy"
#: Every recognised ``sim_backend`` value.
BACKENDS = (PYTHON_BACKEND, NUMPY_BACKEND)


def mask_for(num_patterns: int) -> int:
    """Bit mask with ``num_patterns`` low bits set."""
    if num_patterns < 0:
        raise ValueError("pattern count cannot be negative")
    return (1 << num_patterns) - 1


@dataclass
class PatternBlock:
    """A block of up to ``block_size`` patterns packed per net.

    Attributes
    ----------
    assignments:
        Mapping net name -> packed word.  Bit *i* of a word is the value of
        that net in pattern *i*.
    num_patterns:
        Number of valid patterns (bits) in this block.
    """

    assignments: dict[str, int]
    num_patterns: int

    @property
    def mask(self) -> int:
        """Mask of valid pattern bits."""
        return mask_for(self.num_patterns)

    @property
    def num_words(self) -> int:
        """uint64 words per bit-plane row the numpy backend needs for this
        block (:func:`repro.simulation.numpy_backend.words_for`); the key of
        the per-width table/workspace caches and of memory-budget tiling."""
        return max(1, (self.num_patterns + 63) // 64)

    def value_of(self, net: str, pattern_index: int) -> int:
        """Scalar value of ``net`` in pattern ``pattern_index``."""
        if not 0 <= pattern_index < self.num_patterns:
            raise IndexError(f"pattern index {pattern_index} out of range")
        return (self.assignments.get(net, 0) >> pattern_index) & 1


def pack_patterns(
    patterns: Sequence[Mapping[str, int]],
    nets: Iterable[str] | None = None,
) -> PatternBlock:
    """Pack a pattern list into one :class:`PatternBlock`.

    Parameters
    ----------
    patterns:
        Sequence of per-pattern net assignments; values must be 0 or 1.
        Missing nets default to 0.
    nets:
        Optional explicit net universe.  When omitted, the union of keys across
        all patterns is used.
    """
    if nets is None:
        universe: list[str] = []
        seen: set[str] = set()
        for pattern in patterns:
            for net in pattern:
                if net not in seen:
                    seen.add(net)
                    universe.append(net)
    else:
        universe = list(nets)
    words = {net: 0 for net in universe}
    for index, pattern in enumerate(patterns):
        for net in universe:
            value = pattern.get(net, 0)
            if value not in (0, 1):
                raise ValueError(f"pattern {index}: net {net!r} has non-binary value {value!r}")
            if value:
                words[net] |= 1 << index
    return PatternBlock(words, len(patterns))


def iter_blocks(
    patterns: Sequence[Mapping[str, int]],
    block_size: int = DEFAULT_BLOCK_SIZE,
    nets: Iterable[str] | None = None,
) -> Iterator[PatternBlock]:
    """Split a pattern list into packed blocks of at most ``block_size`` patterns."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    net_list = list(nets) if nets is not None else None
    for start in range(0, len(patterns), block_size):
        yield pack_patterns(patterns[start : start + block_size], nets=net_list)


def leading_blocks(blocks: Iterable[PatternBlock], count: int) -> Iterator[PatternBlock]:
    """The leading ``count`` patterns of a packed block stream, still packed.

    Blocks are passed through whole while they fit; the block that crosses
    ``count`` is cut to its leading patterns (words masked).  No block past
    the ``count``-th pattern is drawn from ``blocks``.
    """
    remaining = count
    stream = iter(blocks)
    while remaining > 0:
        block = next(stream, None)
        if block is None:
            return
        if block.num_patterns > remaining:
            mask = mask_for(remaining)
            block = PatternBlock(
                {net: word & mask for net, word in block.assignments.items()}, remaining
            )
        remaining -= block.num_patterns
        yield block
