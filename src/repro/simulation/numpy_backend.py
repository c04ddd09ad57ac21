"""NumPy bit-plane execution backend for the compiled simulation kernel.

The default ``"python"`` backend interprets the compiled kernel's flat
schedule one gate at a time over Python bigints (one arbitrary-precision word
per net).  This module provides the opt-in ``"numpy"`` backend: the value
table becomes a 2-D ``uint64`` *bit-plane* array of shape
``(num_rows, words_per_block)`` -- row *i* is net *i*'s packed pattern bits,
64 patterns per word, little-endian words so that row ``r`` and the bigint
``int.from_bytes(r.tobytes(), "little")`` are the same value -- and the
per-gate interpreter collapses into **per-(topological-level, opcode)
batches**: at compile time the flat schedule is grouped by level and opcode
into operand/output index arrays, and each batch is evaluated with a single
gather -> bulk bitwise op -> scatter.  Python-loop iterations drop from
``num_gates`` to ``num_levels x num_opcodes``.

Two execution structures are compiled from one backend-neutral
:class:`~repro.simulation.kernel.CompiledKernel`:

* :class:`NumpyKernel` -- the full forward pass (fault-free simulation) as
  level batches, plus bit-plane stimulus loading.
* :class:`FaultScanKernel` -- the PPSFP fault scan vectorised **across
  faults**: every active fault's pre-compiled
  :class:`~repro.simulation.kernel.ConePlan` is assigned a private run of
  *slot rows* appended after the good-value rows, the per-fault cone
  schedules are concatenated (statically, at compile time) into global
  per-(level, opcode) index arrays tagged with fault indices, and one block
  scan is: compute every fault's faulty site row in a few grouped
  operations, select the faults whose site value differs, and re-simulate
  *all* their cones together -- one gather/op/scatter per (level, opcode)
  over the union of cone gates, frontier values read in place from the
  good rows, detection masks reduced per fault with
  ``np.bitwise_or.reduceat``.  This is what makes the backend fast where the
  fault-simulation time actually goes: the per-fault scan, not the
  fault-free pass.  The faults arrive as :class:`FaultArrays` -- parallel
  columns of the faults layer's stuck-at table -- plus one resolved (cone
  plan, observed nets) entry per distinct site, so the compile does no
  per-fault Python work.

The scan's slot table grows with the total cone size of the live fault set
times the block width -- gigabytes on SoC-sized cores at wide blocks --
unless bounded: given a ``memory_budget_bytes`` (plumbed from
``LogicBistConfig.sim_memory_budget_mb``), :class:`FaultScanKernel` tiles
the live fault set into groups whose union-cone slot demand fits the
budget and executes each block tile by tile against **one recycled slot
arena** sized to the largest tile (re-indexed at compile/prune time, never
per block).  Per-width workspaces are kept in a two-entry LRU
(:func:`width_cache`), so the total footprint is bounded by roughly twice
the budget.  Tiling only changes *when* slot rows are computed, never what:
results stay bit-identical to the unbounded scan at any budget.

Both structures are **bit-identical** to the python backend by construction
(same compiled schedule, same masking discipline) and by test
(``tests/simulation/test_numpy_backend.py`` and the backend-parametrised
kernel-equivalence fuzz suite).

NumPy is an optional dependency (``pip install repro[fast]``); importing this
module without it merely sets :data:`HAVE_NUMPY` false, and selecting the
``"numpy"`` backend then raises :class:`SimBackendError` with an actionable
message.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, NamedTuple, Optional, Sequence

from ..netlist.gates import (
    GateType,
    OP_AND,
    OP_AND2,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_MUX,
    OP_NAND,
    OP_NAND2,
    OP_NOR,
    OP_NOR2,
    OP_NOT,
    OP_OR,
    OP_OR2,
    OP_XNOR,
    OP_XNOR2,
    OP_XOR,
    OP_XOR2,
)
from ..util.cache import KeyedLruCache
from .kernel import CompiledKernel, ConePlan
from .packed import BACKENDS, NUMPY_BACKEND, PYTHON_BACKEND

try:  # pragma: no cover - exercised implicitly by every numpy test
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the dependency-free fast tier
    np = None
    HAVE_NUMPY = False


class SimBackendError(RuntimeError):
    """Raised for unknown backends or a numpy backend without NumPy."""


def resolve_backend(backend: str) -> str:
    """Validate a backend name, failing fast with an actionable message."""
    if backend not in BACKENDS:
        raise SimBackendError(
            f"unknown sim backend {backend!r}: expected one of {BACKENDS}"
        )
    if backend == NUMPY_BACKEND and not HAVE_NUMPY:
        raise SimBackendError(
            'sim_backend="numpy" requested but NumPy is not installed; '
            'install the optional extra (pip install "repro[fast]") or keep '
            'the default sim_backend="python"'
        )
    return backend


def resolve_memory_budget_mb(memory_budget_mb: Optional[float]) -> Optional[int]:
    """Validate a ``sim_memory_budget_mb`` value and convert it to bytes.

    ``None`` (the default) means unbounded -- the scan compiles one tile
    over the whole live fault set, the pre-budget behaviour.  The budget
    only bounds the numpy backend's scan workspaces; the python backend's
    footprint is one bigint table regardless.
    """
    if memory_budget_mb is None:
        return None
    if memory_budget_mb <= 0:
        raise ValueError(
            f"sim_memory_budget_mb must be positive, got {memory_budget_mb!r}"
        )
    return int(memory_budget_mb * 1024 * 1024)


# --------------------------------------------------------------------------- #
# Bigint word <-> uint64 bit-plane conversions
# --------------------------------------------------------------------------- #
def words_for(num_patterns: int) -> int:
    """Number of uint64 words per bit-plane row for a block width."""
    return max(1, (num_patterns + 63) // 64)


def word_to_plane(word: int, num_words: int):
    """One packed bigint word as a little-endian uint64 bit-plane row.

    The returned array is a read-only view over the bigint's bytes; copy it
    (or assign it into a table row) before mutating.
    """
    return np.frombuffer(word.to_bytes(num_words * 8, "little"), dtype="<u8")


def plane_to_word(row) -> int:
    """A bit-plane row back as the packed bigint word (exact inverse)."""
    return int.from_bytes(row.tobytes(), "little")


# --------------------------------------------------------------------------- #
# Batched opcode execution
# --------------------------------------------------------------------------- #
def _compute_batch(table, op: int, opnd_rows, mask_plane, buffers, count: int):
    """Evaluate one (opcode, operand row arrays) batch into a scratch buffer.

    Mirrors :func:`repro.simulation.kernel._evaluate_lists` opcode for
    opcode: gathered operand rows are already masked (the table only ever
    holds masked rows), so the same "mask only after complement" discipline
    yields bit-identical rows.  Gathers go through ``np.take(mode="clip",
    out=...)`` into the preallocated ``buffers`` and the bulk ops run in
    place, so steady-state execution allocates nothing; the returned view
    aliases ``buffers["buf_a"]`` and must be consumed (scattered or copied)
    before the next call.
    """
    take = np.take
    buf_a = buffers["buf_a"][:count]
    if op in (OP_CONST0, OP_CONST1):
        buf_a[:] = 0 if op == OP_CONST0 else mask_plane
        return buf_a
    take(table, opnd_rows[0], axis=0, out=buf_a, mode="clip")
    if len(opnd_rows) >= 2:
        buf_b = buffers["buf_b"][:count]
        take(table, opnd_rows[1], axis=0, out=buf_b, mode="clip")
    if op == OP_AND2:
        np.bitwise_and(buf_a, buf_b, out=buf_a)
    elif op == OP_XOR2:
        np.bitwise_xor(buf_a, buf_b, out=buf_a)
    elif op == OP_OR2:
        np.bitwise_or(buf_a, buf_b, out=buf_a)
    elif op == OP_NAND2:
        np.bitwise_and(buf_a, buf_b, out=buf_a)
        np.invert(buf_a, out=buf_a)
        np.bitwise_and(buf_a, mask_plane, out=buf_a)
    elif op == OP_NOR2:
        np.bitwise_or(buf_a, buf_b, out=buf_a)
        np.invert(buf_a, out=buf_a)
        np.bitwise_and(buf_a, mask_plane, out=buf_a)
    elif op == OP_XNOR2:
        np.bitwise_xor(buf_a, buf_b, out=buf_a)
        np.invert(buf_a, out=buf_a)
        np.bitwise_and(buf_a, mask_plane, out=buf_a)
    elif op == OP_NOT:
        np.invert(buf_a, out=buf_a)
        np.bitwise_and(buf_a, mask_plane, out=buf_a)
    elif op == OP_BUF:
        pass
    elif op == OP_MUX:
        b_val = np.take(table, opnd_rows[2], axis=0, mode="clip")
        buf_a[:] = (~buf_a & buf_b) | (buf_a & b_val)
    else:
        # Variadic forms (the 1- and 3+-input AND/OR/XOR families; a single
        # operand folds to itself, exactly like the python interpreter's
        # identity-seeded loops).
        fold = (
            np.bitwise_and
            if op in (OP_AND, OP_NAND)
            else np.bitwise_or
            if op in (OP_OR, OP_NOR)
            else np.bitwise_xor
        )
        if len(opnd_rows) >= 2:
            fold(buf_a, buf_b, out=buf_a)
            for operand in opnd_rows[2:]:
                take(
                    table, operand, axis=0, out=buffers["buf_b"][:count], mode="clip"
                )
                fold(buf_a, buffers["buf_b"][:count], out=buf_a)
        if op in (OP_NAND, OP_NOR, OP_XNOR):
            np.invert(buf_a, out=buf_a)
            np.bitwise_and(buf_a, mask_plane, out=buf_a)
    return buf_a


def _execute_batch_buffered(
    table, op: int, out_rows, opnd_rows, mask_plane, buffers
) -> None:
    """One batch: buffered compute, then scatter into the value table."""
    table[out_rows] = _compute_batch(
        table, op, opnd_rows, mask_plane, buffers, len(out_rows)
    )


def evaluate_gate_planes(
    gate_type: GateType, operand_planes: Sequence, mask_plane
):
    """Stacked-row form of :func:`repro.netlist.gates.evaluate_packed`.

    Every element of ``operand_planes`` is an ``(n, words)`` array (or a
    broadcastable row); the result is the ``(n, words)`` gate output.  Used
    to compute the faulty site values of input-branch faults for many faults
    of the same (gate type, arity, pin, value) shape at once.
    """
    if gate_type in (GateType.AND, GateType.NAND):
        out = operand_planes[0].copy()
        for plane in operand_planes[1:]:
            out &= plane
        return (~out & mask_plane) if gate_type is GateType.NAND else out
    if gate_type in (GateType.OR, GateType.NOR):
        out = operand_planes[0].copy()
        for plane in operand_planes[1:]:
            out |= plane
        return (~out & mask_plane) if gate_type is GateType.NOR else (out & mask_plane)
    if gate_type in (GateType.XOR, GateType.XNOR):
        out = operand_planes[0].copy()
        for plane in operand_planes[1:]:
            out ^= plane
        out = out & mask_plane
        return (~out & mask_plane) if gate_type is GateType.XNOR else out
    if gate_type is GateType.NOT:
        return ~operand_planes[0] & mask_plane
    if gate_type is GateType.BUF:
        return operand_planes[0] & mask_plane
    if gate_type is GateType.MUX:
        sel, a, b = operand_planes
        return ((~sel & a) | (sel & b)) & mask_plane
    raise SimBackendError(f"cannot evaluate gate type {gate_type} on bit planes")


# --------------------------------------------------------------------------- #
# Full forward pass: the level-batched kernel
# --------------------------------------------------------------------------- #
class NumpyKernel:
    """Level-batched bit-plane execution of one compiled kernel.

    Compiled once per :class:`CompiledKernel` (see :func:`numpy_kernel_for`):
    the flat schedule is grouped by ``(topological level, opcode, arity)``
    into output/operand index arrays -- grouping by level is sound because a
    gate's level strictly exceeds every operand's level, so batches executed
    in ascending level order always read finished rows.
    """

    def __init__(self, kernel: CompiledKernel) -> None:
        self.kernel = kernel
        self.num_nets = kernel.num_nets
        outs = np.array(kernel.outs, dtype=np.intp)
        arity = np.fromiter(map(len, kernel.operands), np.intp, len(outs))
        #: Per-net packed batch key of the driving gate and its operand ids
        #: (flat, ``net_opnd_start``-indexed): what batching and site
        #: lowering read.
        self.net_keys = np.zeros(self.num_nets, dtype=np.int64)
        self.net_keys[outs] = (
            (np.array(kernel.net_levels, dtype=np.int64)[outs] << _KEY_LEVEL_SHIFT)
            | (np.array(kernel.ops, dtype=np.int64) << _KEY_OP_SHIFT)
            | arity
        )
        self.net_opnd_start = np.zeros(self.num_nets, dtype=np.intp)
        self.net_opnd_start[outs] = _exclusive_cumsum(arity)
        self.net_opnds = np.fromiter(chain.from_iterable(kernel.operands), np.intp)
        #: The distinct batch keys, ascending.
        self.key_values = np.unique(self.net_keys[outs])
        #: Ascending-level batches: (opcode, out index array, operand arrays),
        #: schedule order within a batch.
        outs = outs[np.argsort(self.net_keys[outs], kind="stable")]
        keys = self.net_keys[outs]
        self.batches = []
        for run in _runs(keys):
            key, starts = int(keys[run.start]), self.net_opnd_start[outs[run]]
            self.batches.append((
                (key >> _KEY_OP_SHIFT) & _KEY_OP_MASK, outs[run],
                _pin_columns(self.net_opnds, starts, key & _KEY_ARITY_MASK),
            ))
        self._max_eval_batch = max(
            (len(batch[1]) for batch in self.batches), default=1
        )
        self._eval_buffers = width_cache()
        self._stimulus_rows = np.array(kernel.stimulus_ids, dtype=np.intp)
        #: Per-site scan compilations, shared by every FaultScanKernel built
        #: over this kernel (cone plans themselves live on the CompiledKernel).
        self.sites = _SiteStore(self)
        #: Compiled FaultScanKernels keyed by (fault order, observation nets);
        #: bounded FIFO so repeated campaigns over the same fault universe
        #: (flow random phase, ATPG top-up, campaign shard tasks in one
        #: worker) reuse one compilation.  See ``scan_kernel_for``.
        self._scan_kernels: dict[tuple, "FaultScanKernel"] = {}

    # ------------------------------------------------------------------ #
    def make_table(self, num_words: int, extra_rows: int = 0):
        """An all-zero bit-plane table: one row per net (+ scan slot rows)."""
        return np.zeros((self.num_nets + extra_rows, num_words), dtype=np.uint64)

    def mask_plane(self, mask: int, num_words: int):
        """The pattern-validity mask as a bit-plane row."""
        return word_to_plane(mask, num_words)

    def set_stimulus(
        self,
        table,
        stimulus: Mapping[str, int],
        mask: int,
        num_words: int,
        strict: bool = False,
    ) -> None:
        """Load packed bigint stimulus words into the table's stimulus rows.

        Same semantics as the python backend's ``set_stimulus``: missing
        nets read all-zero, unknown keys are ignored, and ``strict`` raises
        :class:`~repro.simulation.kernel.StrictStimulusError` on either.
        The bigint -> bit-plane conversion is one bytes join plus a single
        scatter, not a per-net row assignment.
        """
        kernel = self.kernel
        if strict:
            kernel.check_strict_stimulus(stimulus)
        get = stimulus.get
        span = num_words * 8
        buffer = b"".join(
            (get(name, 0) & mask).to_bytes(span, "little")
            for name in kernel.stimulus_names
        )
        table[self._stimulus_rows] = np.frombuffer(buffer, dtype="<u8").reshape(
            len(kernel.stimulus_ids), num_words
        )

    def evaluate(self, table, mask_plane) -> None:
        """Full forward pass over the level batches, in place.

        Gathers run through preallocated per-width buffers and the bulk ops
        execute in place, so a steady-state pass allocates nothing.
        """
        num_words = table.shape[1]
        buffers = self._eval_buffers.get_or_build(
            num_words,
            lambda: {
                "buf_a": np.empty((self._max_eval_batch, num_words), np.uint64),
                "buf_b": np.empty((self._max_eval_batch, num_words), np.uint64),
            },
        )
        for op, out_idx, opnds in self.batches:
            _execute_batch_buffered(
                table, op, out_idx, opnds, mask_plane, buffers
            )


def numpy_kernel_for(kernel: CompiledKernel) -> NumpyKernel:
    """The level-batched form of a compiled kernel, built once and kept in
    its ``analysis_cache`` (so it lives and dies with the kernel)."""
    resolve_backend(NUMPY_BACKEND)
    cached = kernel.analysis_cache.get("numpy")
    if cached is None:
        cached = kernel.analysis_cache["numpy"] = NumpyKernel(kernel)
    return cached


#: Entries kept per numpy kernel in the scan-kernel cache: enough for a
#: stuck-at campaign, its ATPG top-up remainder, and a transition session's
#: equivalent-stuck-at order to coexist.
_SCAN_CACHE_ENTRIES = 4

#: Block widths whose tables/workspaces are retained per cache.  A full
#: table is ``O(num_rows x width)`` bytes, so holding every width a session
#: ever touched (the pre-LRU behaviour) multiplies peak memory by the
#: number of distinct widths; two covers the steady state -- a campaign's
#: full-block width plus its partial tail block -- while any thrash beyond
#: that only costs a reallocation, never a result bit.
WIDTH_CACHE_ENTRIES = 2


def width_cache() -> KeyedLruCache:
    """A fresh per-width LRU for bit-plane tables/workspaces."""
    return KeyedLruCache(maxsize=WIDTH_CACHE_ENTRIES)


def scan_kernel_for(
    nk: NumpyKernel, cache_key: tuple, build
) -> "FaultScanKernel":
    """Bounded-FIFO cache of compiled :class:`FaultScanKernel` instances.

    ``cache_key`` must capture everything the compilation depends on beyond
    the kernel itself (fault order, observation nets, memory budget), so
    engines over one fault universe -- the flow's random phase and top-up,
    a campaign worker's shard tasks -- share one compilation.
    """
    cached = nk._scan_kernels.get(cache_key)
    if cached is None:
        cached = build()
        while len(nk._scan_kernels) >= _SCAN_CACHE_ENTRIES:
            nk._scan_kernels.pop(next(iter(nk._scan_kernels)))
        nk._scan_kernels[cache_key] = cached
    return cached


# --------------------------------------------------------------------------- #
# Fault-vectorised PPSFP scan
# --------------------------------------------------------------------------- #
class FaultArrays(NamedTuple):
    """A canonical fault order for the vectorised scan, as parallel arrays.

    Built by the faults layer from its stuck-at table; this module only needs
    the execution-relevant columns.  ``const_value`` is the forced site value
    of an output-stem / flop-D-branch fault and -1 for a gate input-branch
    fault, whose faulty site value is its owning gate (``gate_ids``,
    ``gate_types`` as positions in ``GateType`` declaration order, operands
    from the kernel) re-evaluated with ``pins`` forced to ``values``.  ``site_index`` maps each fault to its
    site's entry in the distinct-site plan list the scan is compiled with.
    """

    site_ids: object
    site_index: object
    const_value: object
    gate_ids: object
    gate_types: object
    pins: object
    values: object


#: ``FaultArrays.gate_types`` codes -> gate types.
_GATE_TYPES = tuple(GateType)

#: Packed batch key ``(level, opcode, arity)`` as one int64 code
#: ``level << 24 | opcode << 16 | arity``: sorting codes sorts the tuples.
_KEY_OP_SHIFT = 16
_KEY_LEVEL_SHIFT = 24
_KEY_ARITY_MASK = 0xFFFF
_KEY_OP_MASK = 0xFF


def _ragged_arange(starts, counts):
    """Concatenated runs ``arange(start, start + count)``, one per pair --
    the ragged gather every tile assembly is built from."""
    ends = np.cumsum(counts, dtype=np.intp)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.intp) + np.repeat(starts - (ends - counts), counts)


def _exclusive_cumsum(values):
    """``[0, v0, v0 + v1, ...]`` without the grand total."""
    return np.cumsum(values) - values


def _runs(sorted_values) -> list:
    """Slices of the runs of equal values in a sorted array."""
    edges = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
    edges = [0, *edges.tolist(), len(sorted_values)] if len(sorted_values) else []
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _pin_columns(flat, starts, arity: int) -> list:
    """Per-pin operand arrays of same-arity gates whose ``arity`` operands
    sit in ``flat`` from ``starts`` on."""
    return list(flat[starts[:, None] + np.arange(arity)].T.copy())


class _SiteStore:
    """The per-site scan compile: every fault site lowered so far on one
    kernel (once each, new sites in one vectorised batch per scan compile)
    into flat int arrays that only ever grow, so indices stay valid.

    Slot locals: computed net *j* of a plan -> ``j``, the site ->
    ``num_slots - 1``; operands inside the cone (``opnd_local``) are slot
    locals, frontier operands their good-row net id.  Cone gates sorted by
    batch key (plan order kept within a key) form *segments*: site *i* owns
    segments ``seg_start[i] + range(seg_count[i])``, segment *s* instances
    ``inst_start[s] + range(counts[s])`` and operands ``opnd_start[s] +
    range(counts[s] * arity)`` (instance-major)."""

    _FIELDS = (
        "num_slots", "seg_start", "seg_count", "seg_keys", "seg_rank", "counts",
        "inst_start", "opnd_start", "inst_out", "inst_opnd", "opnd_local", "codes",
        "code_local",
    )

    def __init__(self, nk: "NumpyKernel") -> None:
        self.nk = nk
        #: Site net id -> store index.
        self.index: dict[int, int] = {}
        #: ``seg_rank`` is each segment's key's rank among the kernel's
        #: ``key_values`` (int16 where it fits: it sorts by radix).
        rank = np.int16 if len(nk.key_values) < 2**15 else np.intp
        for name in self._FIELDS:
            dtype = {"opnd_local": bool, "seg_rank": rank}.get(name, np.int64)
            setattr(self, name, np.zeros(0, dtype=dtype))

    def indices(self, plans: Sequence[ConePlan]):
        """Store indices of the plans' sites, lowering the new ones."""
        index = self.index
        new = {p.site_id: p for p in plans if p.site_id not in index}
        if new:
            self._lower(list(new.values()))
        return np.fromiter((index[p.site_id] for p in plans), np.intp, len(plans))

    def locals_of(self, sites, ids):
        """Slot-local index of net ``ids[k]`` in the cone of store site
        ``sites[k]`` (the site itself unless it is a computed net)."""
        query = sites * self.nk.num_nets + ids
        at = np.minimum(np.searchsorted(self.codes, query), len(self.codes) - 1)
        return np.where(
            self.codes[at] == query, self.code_local[at], self.num_slots[sites] - 1
        )

    def _lower(self, plans: list) -> None:
        nk = self.nk
        first, m = len(self.num_slots), len(plans)
        counts = np.fromiter((len(p.outs) for p in plans), np.intp, m)
        site_ids = np.fromiter((p.site_id for p in plans), np.intp, m)
        total = int(counts.sum())
        outs = np.fromiter(chain.from_iterable(p.outs for p in plans), np.intp, total)
        inst_site = np.repeat(np.arange(m), counts)
        local = np.arange(total) - np.repeat(_exclusive_cumsum(counts), counts)
        # The net-id -> local lookup of every new site at once: one sorted
        # table of (store index, computed net) codes, searched per operand.
        codes = (inst_site + first) * nk.num_nets + outs
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        # Instances in key order per site.  Keys fit in 40 bits; plan order
        # is nearly key order, which the stable sort's run detection exploits.
        perm = np.argsort((inst_site << 40) | nk.net_keys[outs], kind="stable")
        site_sorted, outs = inst_site[perm], outs[perm]
        keys = nk.net_keys[outs]
        arity = keys & _KEY_ARITY_MASK
        flat = nk.net_opnds[_ragged_arange(nk.net_opnd_start[outs], arity)]
        opnd_site = np.repeat(site_sorted, arity)
        query = (opnd_site + first) * nk.num_nets + flat
        at = np.minimum(np.searchsorted(codes, query), total - 1)
        computed = codes[at] == query
        is_site = flat == site_ids[opnd_site]
        seg_first = np.flatnonzero(
            np.diff(site_sorted, prepend=-1) | np.diff(keys, prepend=-1)
        )
        seg_keys = keys[seg_first]
        seg_counts = np.diff(np.append(seg_first, total))
        site_segs = np.bincount(site_sorted[seg_first], minlength=m)
        grown = {
            "num_slots": counts + 1,
            "seg_start": len(self.seg_keys) + _exclusive_cumsum(site_segs),
            "seg_count": site_segs,
            "seg_keys": seg_keys,
            "seg_rank": np.searchsorted(nk.key_values, seg_keys),
            "counts": seg_counts,
            "inst_start": len(self.inst_out) + _exclusive_cumsum(seg_counts),
            "opnd_start": len(self.inst_opnd)
            + _exclusive_cumsum(seg_counts * (seg_keys & _KEY_ARITY_MASK)),
            "inst_out": local[perm],
            "inst_opnd": np.where(
                computed, local[order[at]], np.where(is_site, counts[opnd_site], flat)
            ),
            "opnd_local": computed | is_site,
            # New codes exceed every stored one: the table stays sorted.
            "codes": codes,
            "code_local": local[order],
        }
        for name, values in grown.items():
            stored = getattr(self, name)
            setattr(self, name, np.concatenate((stored, values.astype(stored.dtype))))
        self.index.update(zip(site_ids.tolist(), range(first, first + m)))


class _ScanTile:
    """One tile of the live fault set, compiled against the shared slot arena.

    Every array is tile-local (``positions`` maps tile-local fault index ->
    canonical position); slot rows are *absolute* table rows into the arena
    region ``[num_nets, num_nets + arena_slots)``, assigned from the arena
    base for every tile -- which is exactly what lets one arena-sized table
    serve every tile in turn.
    """

    __slots__ = (
        "positions", "site_ids", "resimable", "plan_lens", "const0_local",
        "const1_local", "gate_batches", "empty_observed_local", "cone_batches",
        "site_slot_of", "obs_rows", "obs_globals", "obs_fault_local",
        "obs_len_of", "slots", "max_batch",
    )


class FaultScanKernel:
    """Union-cone vectorised PPSFP scan over a fixed canonical fault order.

    Compile once per (kernel, fault sequence, observation set, memory
    budget); scan any active subset per block via the position list of the
    canonical order.  Detection rows are bit-identical to the python
    backend's per-fault detection masks: the same compiled cone plans are
    executed in the same level order with the same masking discipline, and
    per-fault results never depend on other faults.

    **Execution strategy.**  The live fault set is partitioned into
    **tiles** whose compiled scan state fits ``memory_budget_bytes``; each
    tile's cone schedules are concatenated into per-(level, opcode) index
    arrays over a **recycled slot arena** -- one slot-row region, sized to
    the largest tile, appended after the good rows and re-used by every
    tile in turn.  A block scan walks the tiles: compute the tile's faulty
    site rows in a few grouped operations, select the faults whose site
    value differs, re-simulate their cones together (one gather/op/scatter
    per (level, opcode) over the union of the tile's cone gates, frontier
    values read in place from the good rows), reduce per-fault detection
    masks with ``np.bitwise_or.reduceat``, and merge the tile's detections
    back into canonical fault order.  Per-fault slot runs are private and
    every batch touches only the selected faults' rows, so stale arena
    contents from the previous tile (or block) are never read -- re-using
    the arena cannot change a result bit.

    With no budget (the default) there is exactly **one tile** containing
    the whole live set: per-block temporaries live in per-width workspaces
    (gathers via ``np.take(..., out=...)``, bulk ops in place), so
    steady-state scanning allocates nothing, and detection rows alias
    workspace buffers.  With multiple tiles the arena and the per-fault
    scratch arrays are *tile*-sized -- peak memory is the configured budget
    instead of a function of fault-set size -- and detection rows are small
    per-fault copies (they must survive the later tiles of the same scan).

    **Compilation is array code.**  Every fault site is lowered once per
    kernel into the flat segment arrays of :class:`_SiteStore`; a tile is
    assembled from its faults' segments by ragged gathers (``np.repeat`` of
    segment starts plus a ragged arange; slot bases are a cumsum of
    per-fault slot counts) and one stable sort by batch key.  Unbudgeted is
    the one-tile case of the same assembly.  Under a budget, **tiling is a
    prefix-max search** (:meth:`tile_cuts`) with exactly the greedy
    canonical-order cuts.

    **Fault dropping and pruning.**  :meth:`maybe_prune` shrinks the live
    set once it has halved; the survivors are re-assembled from the site
    store (never re-lowered), so late-campaign blocks stay proportional to
    the surviving work.  Tiling is re-done lazily at the first
    ``table_for``/``workspace`` call for a width that needs it (the budget
    is width-dependent: wider blocks mean fewer faults per tile).
    """

    def __init__(
        self,
        nk: NumpyKernel,
        faults: FaultArrays,
        site_plans: Sequence[tuple[ConePlan, tuple[int, ...]]],
        memory_budget_bytes: Optional[int] = None,
    ) -> None:
        """``site_plans`` holds ``(cone plan, observed net IDs)`` per distinct
        site (``faults.site_index`` indexes it)."""
        self.nk = nk
        count = self.num_faults = len(faults.site_ids)
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        self.memory_budget_bytes = memory_budget_bytes
        self.site_ids = np.asarray(faults.site_ids, dtype=np.intp)
        site_index = np.asarray(faults.site_index, dtype=np.intp)
        sites = len(site_plans)
        plan_lens = np.fromiter((len(p.ops) for p, _ in site_plans), np.int64, sites)
        obs_counts = np.fromiter((len(o) for _, o in site_plans), np.intp, sites)
        self.plan_lens = plan_lens[site_index]

        # Phase-A site records: the forced constant (-1: gate re-evaluation),
        # else the fault's (gate type, arity, pin, value) group; operands are
        # read through the kernel's per-net operand CSR at tile assembly.
        self._const_val = np.asarray(faults.const_value, dtype=np.int8)
        gate_mask = self._const_val < 0
        self._gate_ids = np.asarray(faults.gate_ids, dtype=np.intp)
        gates = self._gate_ids[gate_mask]
        shape = (
            (np.asarray(faults.gate_types)[gate_mask] << 40)
            | ((nk.net_keys[gates] & _KEY_ARITY_MASK) << 20)
            | (np.asarray(faults.pins)[gate_mask] << 1)
            | np.asarray(faults.values)[gate_mask]
        )
        codes, groups = np.unique(shape, return_inverse=True)
        self._gate_group = np.full(count, -1, dtype=np.intp)
        self._gate_group[gate_mask] = groups
        self._gate_specs = [
            (_GATE_TYPES[code >> 40], (code >> 20) & 0xFFFFF, (code >> 1) & 0x7FFFF, code & 1)
            for code in codes.tolist()
        ]

        # An empty cone's only observable net is the site itself, so its
        # detection mask is exactly the site diff row.  Everything per site
        # is resolved once per distinct site, then gathered per fault.
        observed = obs_counts > 0
        self._empty_observed = (observed & (plan_lens == 0))[site_index]
        resim_sites = np.flatnonzero(observed & (plan_lens > 0))
        self.resimable = resim = (observed & (plan_lens > 0))[site_index]
        self._store = nk.sites
        stored = self._store.indices([site_plans[i][0] for i in resim_sites.tolist()])
        site_obs = obs_counts[resim_sites]
        self._obs_global = np.fromiter(
            chain.from_iterable(site_plans[i][1] for i in resim_sites.tolist()), np.intp
        )
        self._obs_local = self._store.locals_of(
            np.repeat(stored, site_obs), self._obs_global
        )

        def per_fault(values, fill=0):
            by_site = np.full(sites, fill, dtype=np.intp)
            by_site[resim_sites] = values
            return np.where(resim, by_site[site_index], fill)

        #: Per-fault store site (-1: never resimulates a cone), slot and
        #: observation demand, and observation run start (faults at one
        #: site share its run).
        self._fault_site = per_fault(stored, -1)
        self.fault_slots = per_fault(self._store.num_slots[stored])
        self.fault_obs = per_fault(site_obs)
        self._obs_start = per_fault(_exclusive_cumsum(site_obs))

        #: Per-width workspaces, LRU-bounded to the two most-recent widths
        #: (a campaign's full-block width plus its partial tail), sized by
        #: :meth:`_set_maxima`.
        self._workspaces = width_cache()
        #: High-water mark of live workspace bytes (tables included) --
        #: what benches/tests assert the budget against.
        self.peak_workspace_nbytes = 0
        #: True when a single fault's compiled state alone exceeded the
        #: budget, which clamps that tile over budget rather than failing.
        self.budget_clamped = False
        self._tiles: Optional[list[_ScanTile]] = None
        self._tile_width = 0
        #: (arena slots, faults, observations, batch) the workspaces hold.
        self._sized = (0, 0, 0, 1)
        self._restore_full()

    # ------------------------------------------------------------------ #
    # Live-set management (tiles follow lazily)
    # ------------------------------------------------------------------ #
    def _restore_full(self) -> None:
        """Make the whole canonical order live (re-tiled on next use)."""
        self._live_positions = np.arange(self.num_faults, dtype=np.intp)
        self._live_mask = np.ones(self.num_faults, dtype=bool)
        self._live_count = self.num_faults
        self._tiles = None

    def ensure_live(self, positions) -> None:
        """Restore the full live set if ``positions`` outgrew the pruned one
        (a cached scan being reused for a fresh campaign)."""
        if len(positions) and not self._live_mask[np.asarray(positions)].all():
            self._restore_full()

    def maybe_prune(self, positions) -> None:
        """Shrink the live set to ``positions`` once it has halved (tiles
        follow at the next block), so late blocks stay proportional to the
        survivors: re-assembly costs far less than one block scan."""
        if not positions or len(positions) >= self._live_count // 2:
            return
        live = np.unique(np.asarray(positions, dtype=np.intp))
        self._live_positions = live
        self._live_mask = np.zeros(self.num_faults, dtype=bool)
        self._live_mask[live] = True
        self._live_count = len(live)
        self._tiles = None

    # ------------------------------------------------------------------ #
    # Tiling: partition the live set against the memory budget
    # ------------------------------------------------------------------ #
    def _ensure_tiles(self, num_words: int) -> None:
        """(Re-)tile if the current tiles cannot serve the width: a budgeted
        tiling for width *W* serves every width <= *W* (narrower blocks sit
        further under budget), an unbudgeted one every width."""
        budgeted = self.memory_budget_bytes is not None
        if self._tiles is None or (budgeted and num_words > self._tile_width):
            self._build_tiles(num_words)

    def _workspace_rows(self, slots, n, obs, batch):
        """Total workspace rows for given tile maxima (the budget charge):
        the good+arena table, four n-row per-fault arrays (faulty /
        site_good / diff / det), two observation gathers and two batch
        scratch buffers.  Element-wise over arrays of candidate maxima."""
        return (self.nk.num_nets + slots) + 4 * n + 2 * obs + 2 * batch

    def _build_tiles(self, num_words: int) -> None:
        """Cut the live positions into tiles and assemble each one; an
        unbudgeted scan is the one-tile case of the same assembly."""
        live = self._live_positions
        budget = self.memory_budget_bytes
        if budget is not None:
            cuts = self.tile_cuts(num_words)
        else:
            cuts = [0, len(live)] if len(live) else [0]
        tiles = [self._assemble_tile(live[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        self._tiles = tiles
        self._tile_width = num_words
        self._set_maxima(tiles)
        self.budget_clamped = bool(tiles) and budget is not None and (
            self._workspace_rows(*self._sized) * num_words * 8 > budget
        )

    def _set_maxima(self, tiles: list) -> None:
        """Size the arena and scratch buffers to the largest tile."""
        self._sized = (
            max((t.slots for t in tiles), default=0),
            max((len(t.positions) for t in tiles), default=0),
            max((len(t.obs_rows) for t in tiles), default=0),
            max([1] + [t.max_batch for t in tiles]),
        )
        self._workspaces.clear()

    def _demand(self, positions):
        """``(rows, segments)`` of every (fault, batch key) pair of
        ``positions``: the index into ``positions`` (ascending) and the
        store segment holding the fault's instances of that key."""
        sites = self._fault_site[positions]
        rows = np.flatnonzero(sites >= 0)
        counts = self._store.seg_count[sites[rows]]
        return np.repeat(rows, counts), _ragged_arange(
            self._store.seg_start[sites[rows]], counts
        )

    def tile_cuts(self, num_words: int) -> list[int]:
        """Tile boundaries (indices into the live positions) under the budget.

        The greedy canonical-order split -- a fault joins the tile unless
        the workspace its joined maxima need exceeds the budget -- as a
        prefix-max search: tile *[s, e]*'s slot and observation demand are
        prefix-sum differences, its batch demand the running maximum, over
        the tile's (fault, key) pairs in fault order, of each pair's
        per-key running instance sum; joined with the closed tiles' maxima
        the charge is monotone in *e*, so each cut is one ``searchsorted``
        (over a window that doubles until it holds the cut).  Temporaries
        are O(pairs in the window), never window x keys."""
        live = self._live_positions
        count = len(live)
        limit = self.memory_budget_bytes // (num_words * 8)
        slot_sums = np.concatenate(([0], np.cumsum(self.fault_slots[live])))
        obs_sums = np.concatenate(([0], np.cumsum(self.fault_obs[live])))
        rows, segs = self._demand(live)
        keys = self._store.seg_rank[segs]
        instances = self._store.counts[segs]
        row_start = np.searchsorted(rows, np.arange(count + 1))
        closed = (0, 0, 0, 1)  # slot, fault, obs and batch maxima of closed tiles
        cuts, start, window = [0], 0, 16
        while start < count:
            while True:
                stop = min(count, start + window)
                ends = np.arange(start + 1, stop + 1)
                lo, hi = row_start[start], row_start[stop]
                # Per-key running sums: cumsum in (key, fault) order, restarted
                # at every key, scattered back to fault order.
                order = np.argsort(keys[lo:hi], kind="stable")
                pair_keys, pair_counts = keys[lo:hi][order], instances[lo:hi][order]
                sums = np.cumsum(pair_counts)
                key_first = np.flatnonzero(np.diff(pair_keys, prepend=-1))
                sums -= np.repeat(
                    sums[key_first] - pair_counts[key_first],
                    np.diff(np.append(key_first, hi - lo)),
                )
                running = np.zeros(hi - lo + 1, dtype=np.int64)
                running[1:][order] = sums
                np.maximum.accumulate(running, out=running)
                tile = (slot_sums[ends] - slot_sums[start], ends - start,
                        obs_sums[ends] - obs_sums[start],
                        running[row_start[start + 1 : stop + 1] - lo])
                charge = self._workspace_rows(*map(np.maximum, closed, tile))
                # A tile always takes its first fault; it ends before the
                # first later one whose joined charge exceeds the budget.
                last = int(np.searchsorted(charge[1:], limit, side="right"))
                if last < stop - start - 1 or stop == count:
                    break
                window *= 2
            closed = tuple(max(c, int(t[last])) for c, t in zip(closed, tile))
            start += last + 1
            cuts.append(start)
            window = max(16, 2 * (last + 1))
        return cuts

    def _assemble_tile(self, positions) -> _ScanTile:
        """Compile one tile over ``positions`` (canonical, ascending) from
        the site store, with ragged gathers and one stable sort by key."""
        store, n, tile = self._store, len(positions), _ScanTile()
        tile.positions = positions
        tile.site_ids = self.site_ids[positions]
        tile.resimable = self.resimable[positions]
        tile.plan_lens = self.plan_lens[positions]
        const_val = self._const_val[positions]
        tile.const0_local = np.flatnonzero(const_val == 0)
        tile.const1_local = np.flatnonzero(const_val == 1)
        tile.empty_observed_local = np.flatnonzero(self._empty_observed[positions])
        groups = self._gate_group[positions]
        gate_local = np.flatnonzero(groups >= 0)
        gate_local = gate_local[np.argsort(groups[gate_local], kind="stable")]
        tile.gate_batches = []
        for run in _runs(groups[gate_local]):
            idx = gate_local[run]
            spec = self._gate_specs[groups[idx[0]]]
            starts = self.nk.net_opnd_start[self._gate_ids[positions[idx]]]
            columns = _pin_columns(self.nk.net_opnds, starts, spec[1])
            tile.gate_batches.append((*spec, idx, columns))

        # Private slot runs: a cumsum of the slot counts (0 without a cone).
        num_slots = self.fault_slots[positions]
        slot_base = self.nk.num_nets + _exclusive_cumsum(num_slots)
        tile.slots = int(num_slots.sum())
        tile.site_slot_of = np.where(tile.resimable, slot_base + num_slots - 1, -1)
        tile.obs_len_of = self.fault_obs[positions]
        obs = _ragged_arange(self._obs_start[positions], tile.obs_len_of)
        tile.obs_fault_local = np.repeat(np.arange(n), tile.obs_len_of)
        tile.obs_rows = self._obs_local[obs] + slot_base[tile.obs_fault_local]
        tile.obs_globals = self._obs_global[obs]

        # Cone batches: every (fault, key) segment, stably sorted by key.
        rows, segs = self._demand(positions)
        order = np.argsort(store.seg_rank[segs], kind="stable")
        rows, segs = rows[order], segs[order]
        keys, counts = store.seg_keys[segs], store.counts[segs]
        fault_ids = np.repeat(rows, counts)
        out_rows = store.inst_out[_ragged_arange(store.inst_start[segs], counts)]
        out_rows += slot_base[fault_ids]
        opnd_counts = counts * (keys & _KEY_ARITY_MASK)
        opnds = _ragged_arange(store.opnd_start[segs], opnd_counts)
        opnd_rows = store.inst_opnd[opnds] + store.opnd_local[opnds] * np.repeat(
            slot_base[rows], opnd_counts
        )
        inst_at = np.concatenate(([0], np.cumsum(counts)))
        opnd_at = np.concatenate(([0], np.cumsum(opnd_counts)))
        tile.cone_batches = []
        for run in _runs(keys):
            lo, hi = inst_at[run.start], inst_at[run.stop]
            key = int(keys[run.start])
            op, arity = (key >> _KEY_OP_SHIFT) & _KEY_OP_MASK, key & _KEY_ARITY_MASK
            pins = opnd_rows[opnd_at[run.start] : opnd_at[run.stop]]
            tile.cone_batches.append((
                op, arity, fault_ids[lo:hi], out_rows[lo:hi],
                list(pins.reshape(hi - lo, arity).T.copy()),
            ))
        tile.max_batch = max((len(b[2]) for b in tile.cone_batches), default=0)
        return tile

    @property
    def num_tiles(self) -> int:
        """Tiles of the current tiling (0 before first use / after prune)."""
        return len(self._tiles) if self._tiles is not None else 0

    # ------------------------------------------------------------------ #
    # Per-width workspaces
    # ------------------------------------------------------------------ #
    def workspace(self, num_words: int) -> dict:
        """Preallocated tables and scratch buffers for one block width."""
        self._ensure_tiles(num_words)
        ws = self._workspaces.get_or_build(
            num_words, lambda: self._make_workspace(num_words)
        )
        return ws

    def _make_workspace(self, num_words: int) -> dict:
        slots, n, obs, batch = self._sized
        ws = {
            "table": self.nk.make_table(num_words, extra_rows=slots),
            "faulty": np.empty((n, num_words), dtype=np.uint64),
            "site_good": np.empty((n, num_words), dtype=np.uint64),
            "diff": np.empty((n, num_words), dtype=np.uint64),
            "buf_a": np.empty((batch, num_words), dtype=np.uint64),
            "buf_b": np.empty((batch, num_words), dtype=np.uint64),
            "obs_a": np.empty((obs, num_words), dtype=np.uint64),
            "obs_b": np.empty((obs, num_words), dtype=np.uint64),
            "det": np.empty((n, num_words), dtype=np.uint64),
        }
        live_bytes = sum(
            arr.nbytes
            for cached in self._workspaces._entries.values()
            for arr in cached.values()
        ) + sum(arr.nbytes for arr in ws.values())
        if live_bytes > self.peak_workspace_nbytes:
            self.peak_workspace_nbytes = live_bytes
        return ws

    def workspace_nbytes(self, num_words: int) -> int:
        """Measured bytes of one width's workspace, slot table included.

        This is exactly what the memory budget bounds (when not
        :attr:`budget_clamped`): ``workspace_nbytes(w) <=
        memory_budget_bytes`` for every width the tiling was built for.
        """
        return sum(arr.nbytes for arr in self.workspace(num_words).values())

    def table_for(self, num_words: int):
        """The good-rows + arena-rows bit-plane table for one block width."""
        return self.workspace(num_words)["table"]

    # ------------------------------------------------------------------ #
    # Block scan
    # ------------------------------------------------------------------ #
    def scan_positions(self, table, mask_plane, num_words: int, positions):
        """One PPSFP pass over the active faults given as canonical positions.

        ``table`` must be this kernel's own :meth:`table_for` table with the
        fault-free rows already evaluated.  Returns ``(detections,
        resim_gate_evals)`` where ``detections`` maps canonical fault index
        -> detection bit-plane row (only non-zero detections appear).  With
        a single tile (no budget) the returned rows alias workspace
        buffers: consume them before the next scan call.  With multiple
        tiles the rows are per-fault copies (the arena is recycled across
        tiles within this very call).
        """
        ws = self.workspace(num_words)
        active_mask = np.zeros(self.num_faults, dtype=bool)
        active_mask[positions] = True
        detections: dict[int, object] = {}
        gate_evals = 0
        tiles = self._tiles
        copy_rows = len(tiles) > 1
        for tile in tiles:
            tile_active = active_mask[tile.positions]
            if not tile_active.any():
                continue
            gate_evals += self._scan_tile(
                tile, table, mask_plane, num_words, ws, tile_active,
                detections, copy_rows,
            )
        return detections, gate_evals

    def _scan_tile(
        self,
        tile: _ScanTile,
        table,
        mask_plane,
        num_words: int,
        ws: dict,
        tile_active,
        detections: dict,
        copy_rows: bool,
    ) -> int:
        """Scan one tile against the shared arena; detections are merged
        into ``detections`` keyed by canonical position.  Returns the
        tile's resimulation gate-evaluation count."""
        n = len(tile.positions)
        faulty = ws["faulty"][:n]
        if len(tile.const0_local):
            faulty[tile.const0_local] = 0
        if len(tile.const1_local):
            faulty[tile.const1_local] = mask_plane
        zero_plane = None
        for gate_type, arity, pin, value, idx, columns in tile.gate_batches:
            if value:
                forced = np.broadcast_to(mask_plane, (len(idx), num_words))
            else:
                if zero_plane is None:
                    zero_plane = np.zeros(num_words, dtype=np.uint64)
                forced = np.broadcast_to(zero_plane, (len(idx), num_words))
            planes = [
                forced if k == pin else table[columns[k]] for k in range(arity)
            ]
            faulty[idx] = evaluate_gate_planes(gate_type, planes, mask_plane)
        site_good = np.take(
            table, tile.site_ids, axis=0, out=ws["site_good"][:n], mode="clip"
        )
        diff = np.bitwise_xor(faulty, site_good, out=ws["diff"][:n])
        candidates = diff.any(axis=1)
        candidates &= tile_active

        if len(tile.empty_observed_local):
            hit = tile.empty_observed_local[
                candidates[tile.empty_observed_local]
            ]
            for local in hit:
                row = diff[local]
                detections[int(tile.positions[local])] = (
                    row.copy() if copy_rows else row
                )

        resim_mask = candidates & tile.resimable
        gate_evals = int(tile.plan_lens[resim_mask].sum())
        resim_local = np.nonzero(resim_mask)[0]
        if len(resim_local):
            table[tile.site_slot_of[resim_local]] = faulty[resim_local]
            for op, _arity, fault_ids, all_out_rows, all_opnd_rows in (
                tile.cone_batches
            ):
                selector = resim_mask[fault_ids]
                out_rows = all_out_rows[selector]
                if not len(out_rows):
                    continue
                opnd_rows = [rows[selector] for rows in all_opnd_rows]
                _execute_batch_buffered(
                    table, op, out_rows, opnd_rows, mask_plane, ws
                )
            obs_selector = resim_mask[tile.obs_fault_local]
            obs_rows = tile.obs_rows[obs_selector]
            obs_globals = tile.obs_globals[obs_selector]
            count = len(obs_rows)
            obs_a = ws["obs_a"][:count]
            obs_b = ws["obs_b"][:count]
            np.take(table, obs_rows, axis=0, out=obs_a, mode="clip")
            np.take(table, obs_globals, axis=0, out=obs_b, mode="clip")
            np.bitwise_xor(obs_a, obs_b, out=obs_a)
            seg_lens = tile.obs_len_of[resim_local]
            seg_starts = np.zeros(len(resim_local), dtype=np.intp)
            if len(seg_lens) > 1:
                np.cumsum(seg_lens[:-1], out=seg_starts[1:])
            det = np.bitwise_or.reduceat(
                obs_a, seg_starts, axis=0, out=ws["det"][: len(resim_local)]
            )
            reported = det.any(axis=1)
            for j in np.nonzero(reported)[0]:
                row = det[j]
                detections[int(tile.positions[resim_local[j]])] = (
                    row.copy() if copy_rows else row
                )
        return gate_evals
