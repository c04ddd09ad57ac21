"""Logic simulation substrate (S2).

Public API:

* :class:`~repro.simulation.kernel.CompiledKernel` -- the compiled
  integer-indexed simulation kernel: interned net IDs, flat opcode schedule,
  per-site cone plans; everything below builds on it,
* :class:`~repro.simulation.comb_sim.PackedSimulator` -- two-valued
  pattern-parallel combinational simulation (the name-keyed adapter over the
  kernel and the fault-simulation workhorse),
* :class:`~repro.simulation.comb_sim.XPropagationSimulator` -- three-valued
  (0/1/X) simulation for X-source analysis and ATPG,
* :class:`~repro.simulation.waveform.Waveform` -- timing diagrams,
* the pattern-packing helpers in :mod:`repro.simulation.packed` (the block
  width is a free parameter: 64 / 256 / 1024-bit words all work).

The models the kernel is tested against -- the pre-kernel name-keyed
simulators and the scalar cycle-accurate sequential simulator -- are oracles
in :mod:`repro.oracle`.
"""

from .packed import (
    DEFAULT_BLOCK_SIZE,
    PatternBlock,
    iter_blocks,
    leading_blocks,
    mask_for,
    pack_patterns,
    unpack_words,
)
from .kernel import CompiledKernel, ConePlan, StrictStimulusError, shared_kernel
from .numpy_backend import (
    BACKENDS,
    HAVE_NUMPY,
    NUMPY_BACKEND,
    PYTHON_BACKEND,
    SimBackendError,
    resolve_backend,
)
from .comb_sim import PackedSimulator, XPropagationSimulator
from .waveform import SignalTrace, Waveform

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "PatternBlock",
    "iter_blocks",
    "leading_blocks",
    "mask_for",
    "pack_patterns",
    "unpack_words",
    "CompiledKernel",
    "ConePlan",
    "StrictStimulusError",
    "shared_kernel",
    "BACKENDS",
    "HAVE_NUMPY",
    "NUMPY_BACKEND",
    "PYTHON_BACKEND",
    "SimBackendError",
    "resolve_backend",
    "PackedSimulator",
    "XPropagationSimulator",
    "SignalTrace",
    "Waveform",
]
