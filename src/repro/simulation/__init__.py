"""Logic simulation substrate (S2).

Public API:

* :class:`~repro.simulation.kernel.CompiledKernel` -- the compiled
  integer-indexed simulation kernel: interned net IDs, flat opcode schedule,
  per-site cone plans: two-valued, pattern-parallel combinational
  simulation in net-ID space, the one engine every simulator builds on
  (:mod:`repro.simulation.numpy_backend` lowers it to uint64 bit planes),
* :class:`~repro.simulation.waveform.Waveform` -- timing diagrams,
* the pattern-packing helpers in :mod:`repro.simulation.packed` (the block
  width is a free parameter: 64 / 256 / 1024-bit words all work).

:data:`~repro.simulation.numpy_backend.HAVE_NUMPY` says that NumPy is installed;
it is imported only when the ``"numpy"`` backend is first selected.

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
from .waveform import SignalTrace, Waveform

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "PatternBlock",
    "iter_blocks",
    "leading_blocks",
    "mask_for",
    "pack_patterns",
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
    "SignalTrace",
    "Waveform",
]
