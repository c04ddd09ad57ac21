"""The canonical stuck-at fault table, fault enumeration and fault lists.

Every stuck-at fault of a circuit has one integer identity: its row in the
:class:`StuckAtTable` of the circuit's compiled kernel (:func:`stuck_at_table`,
one per kernel).  The table is a set of parallel int lists -- owning gate net
ID, pin, stuck value, site net ID and site kind (forced constant or gate
re-evaluation); an input-branch fault reads its gate's operands from the
kernel's own per-gate operand lists.  Its leading rows are the enumerated
universe, in :func:`enumerate_stuck_at_faults` order, so the IDs of a circuit
are the same in every process; a fault outside the universe (a branch on a
fanout-free net, a constant gate's stem) gets the next row on first lookup,
and rows never move.  Collapsing, fault simulation, shard merges and TPI
index faults by these IDs; :class:`~repro.faults.models.StuckAtFault` objects
are built only where an API hands faults out.

A :class:`FaultList` tracks every fault's status through the BIST campaign as
status, first-detection and detection-count arrays indexed by list position,
with an object -> position adapter for the name-keyed API; a list built from
table IDs (:meth:`FaultList.from_table`) keeps them, so simulators read IDs
instead of hashing objects.  Random-pattern simulation marks faults detected
(with the index of the first detecting pattern), the top-up ATPG phase marks
remaining faults detected, untestable, or aborted, and the coverage figures the
paper reports in Table 1 ("Fault Coverage 1" after random patterns, "Fault
Coverage 2" after top-up) are two snapshots of the same list.  The detected
and untestable counts are maintained, so :meth:`FaultList.coverage` is O(1).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..netlist.circuit import Circuit
from ..netlist.gates import GateType
from ..simulation.kernel import CompiledKernel, shared_kernel
from .models import OUTPUT_PIN, FaultStatus, StuckAtFault, TransitionFault, site_label

#: Site kinds of a table row.
SITE_CONST = 0  # output stem or flop D-pin branch: the site net is forced
SITE_GATE = 1  # combinational input branch: the owning gate is re-evaluated

#: Gate types by code (the table's ``gate_type`` column): positions in
#: ``GateType`` declaration order.
GATE_TYPES = tuple(GateType)
_GATE_CODE = {gate_type: code for code, gate_type in enumerate(GATE_TYPES)}
_CONST_TYPES = (GateType.CONST0, GateType.CONST1)


def fault_code(gate_id: int, pin: int, value: int) -> int:
    """One int per (gate, pin, value): the table's lookup key."""
    return (gate_id << 21) | ((pin + 1) << 1) | value


class StuckAtTable:
    """The canonical stuck-at fault table of one compiled kernel.

    Columns (parallel lists indexed by fault ID): ``gate`` (owning gate net
    ID), ``pin`` (``OUTPUT_PIN`` for the stem), ``value``, ``site`` (the net
    whose value the fault forces or recomputes), ``kind`` (:data:`SITE_CONST`
    or :data:`SITE_GATE`) and ``gate_type`` (code into :data:`GATE_TYPES`).
    ``universe`` is the number of enumerated rows.  Use
    :func:`stuck_at_table` for the shared instance.
    """

    def __init__(self, kernel: CompiledKernel) -> None:
        self.kernel = kernel
        self.gate: list[int] = []
        self.pin: list[int] = []
        self.value: list[int] = []
        self.site: list[int] = []
        self.kind: list[int] = []
        self.gate_type: list[int] = []
        self._codes: dict[int, int] = {}
        fanout = kernel.circuit.fanout_map()
        for gate in kernel.circuit:
            if gate.gate_type not in _CONST_TYPES:
                branches = (
                    pin for pin, net in enumerate(gate.inputs)
                    if len(fanout.get(net, ())) > 1
                )
                self._add(gate, (OUTPUT_PIN, *branches))
        self.universe = len(self.gate)
        self._arrays: Optional[tuple[int, dict]] = None

    def _add(self, gate, pins: Iterable[int]) -> None:
        """Append the s-a-0 and s-a-1 rows of each of ``gate``'s ``pins``."""
        gid = self.kernel.net_id[gate.name]
        type_code = _GATE_CODE[gate.gate_type]
        for pin in pins:
            if pin == OUTPUT_PIN:
                site, kind = gid, SITE_CONST
            elif pin >= len(gate.inputs):
                raise IndexError(f"gate {gate.name!r} has no input pin {pin}")
            elif gate.is_flop:
                # A branch fault on a flop's D pin is observed at the D net
                # itself in the scan view: a forced constant there.
                site, kind = self.kernel.net_id[gate.inputs[pin]], SITE_CONST
            else:
                site, kind = gid, SITE_GATE
            for value in (0, 1):
                self._codes[fault_code(gid, pin, value)] = len(self.gate)
                self.gate.append(gid)
                self.pin.append(pin)
                self.value.append(value)
                self.site.append(site)
                self.kind.append(kind)
                self.gate_type.append(type_code)

    def __len__(self) -> int:
        return len(self.gate)

    # ------------------------------------------------------------------ #
    # Object <-> ID adapters (the API edge)
    # ------------------------------------------------------------------ #
    def find(self, gate_id: int, pin: int, value: int) -> Optional[int]:
        """The ID of an enumerated (or already appended) fault, else ``None``."""
        return self._codes.get(fault_code(gate_id, pin, value))

    def id_of(self, fault: StuckAtFault) -> int:
        """The fault's ID, appending rows for a fault outside the universe.

        Raises ``KeyError`` for an unknown gate and ``IndexError`` for a pin
        the gate does not have.
        """
        gid = self.kernel.net_id[fault.gate]
        fid = self.find(gid, fault.pin, fault.value)
        if fid is None:
            self._add(self.kernel.circuit.gate(fault.gate), (fault.pin,))
            fid = self.find(gid, fault.pin, fault.value)
        return fid

    def ids_of(self, faults: Iterable[StuckAtFault]) -> list[int]:
        """IDs of ``faults``, in order."""
        return [self.id_of(fault) for fault in faults]

    def faults(self, ids: Iterable[int]) -> list[StuckAtFault]:
        """The fault objects of ``ids``, in order."""
        names, pins, values = self.kernel.net_names, self.pin, self.value
        return [StuckAtFault(names[self.gate[fid]], pins[fid], values[fid]) for fid in ids]

    def label(self, fid: int) -> str:
        """``str()`` of the fault, without building it."""
        name = self.kernel.net_names[self.gate[fid]]
        return f"{site_label(name, self.pin[fid])} s-a-{self.value[fid]}"

    def faulted_net(self, fid: int) -> int:
        """Net ID whose value the fault corrupts as its gate sees it."""
        pin = self.pin[fid]
        if pin == OUTPUT_PIN or self.kind[fid] == SITE_CONST:
            return self.site[fid]
        kernel = self.kernel
        return kernel.operands[kernel.sched_pos[self.gate[fid]]][pin]

    # ------------------------------------------------------------------ #
    # Engine views
    # ------------------------------------------------------------------ #
    def spec(self, fid: int) -> tuple:
        """``(kind, site, value, gate type, operand IDs, pin)`` of one ID:
        what the python backend reads per fault and block."""
        kind, kernel = self.kind[fid], self.kernel
        operands = (
            kernel.operands[kernel.sched_pos[self.gate[fid]]] if kind == SITE_GATE else ()
        )
        return (
            kind, self.site[fid], self.value[fid],
            GATE_TYPES[self.gate_type[fid]], operands, self.pin[fid],
        )

    def arrays(self) -> dict:
        """The columns as numpy arrays (rebuilt when the table has grown)."""
        from ..simulation.numpy_backend import np

        cached = self._arrays
        if cached is None or cached[0] != len(self.gate):
            columns = ("gate", "pin", "value", "site", "kind", "gate_type")
            cached = self._arrays = (
                len(self.gate),
                {name: np.array(getattr(self, name), dtype=np.intp) for name in columns},
            )
        return cached[1]


def stuck_at_table(circuit_or_kernel: Circuit | CompiledKernel) -> StuckAtTable:
    """The shared :class:`StuckAtTable` of a circuit's (or kernel's) compile."""
    kernel = (
        circuit_or_kernel
        if isinstance(circuit_or_kernel, CompiledKernel)
        else shared_kernel(circuit_or_kernel)
    )
    table = kernel.analysis_cache.get("stuck_at_table")
    if table is None:
        table = kernel.analysis_cache["stuck_at_table"] = StuckAtTable(kernel)
    return table


def universe_ids(table: StuckAtTable, include_branches: bool = True) -> list[int]:
    """IDs of the enumerated universe (stems only without branches)."""
    if include_branches:
        return list(range(table.universe))
    pins = table.pin
    return [fid for fid in range(table.universe) if pins[fid] == OUTPUT_PIN]


def enumerate_stuck_at_faults(
    circuit: Circuit, include_branches: bool = True
) -> list[StuckAtFault]:
    """Enumerate the uncollapsed single stuck-at fault universe of ``circuit``.

    Every gate output stem gets s-a-0/s-a-1; when ``include_branches`` is true,
    every input pin of every gate whose driving net has fanout > 1 also gets
    both faults (branch faults on single-fanout nets are equivalent to the stem
    faults and are skipped to keep the universe closer to the collapsed size
    commercial tools report).  The order is the :class:`StuckAtTable` row order.
    """
    table = stuck_at_table(circuit)
    return table.faults(universe_ids(table, include_branches))


def enumerate_transition_faults(
    circuit: Circuit, include_branches: bool = False
) -> list[TransitionFault]:
    """Enumerate transition-delay faults (slow-to-rise / slow-to-fall): one
    pair per stuck-at site pair of the universe, slow-to-rise first (its
    equivalent stuck-at fault is the s-a-0 row)."""
    table = stuck_at_table(circuit)
    names = table.kernel.net_names
    return [
        TransitionFault(names[table.gate[fid]], table.pin[fid], table.value[fid] == 0)
        for fid in universe_ids(table, include_branches)
    ]


@dataclass
class FaultRecord:
    """Status and detection history of one fault (a snapshot)."""

    fault: object
    status: FaultStatus = FaultStatus.UNDETECTED
    #: Index (within the overall campaign) of the first detecting pattern.
    first_detection: Optional[int] = None
    #: Total number of detecting patterns seen (n-detect statistics).
    detection_count: int = 0


#: The status array's codes: positions in ``FaultStatus`` declaration order.
_STATUSES = tuple(FaultStatus)
_UNDETECTED, _DETECTED, _UNTESTABLE, _ABORTED = range(4)


class FaultList:
    """Ordered collection of faults with status tracking and coverage queries.

    Statuses, first detections and detection counts are arrays indexed by
    list position; the ``*_at`` methods take positions, the rest take fault
    objects through the object -> position adapter.  A list built by
    :meth:`from_table` carries its faults' table IDs (``table``, ``ids``)
    and builds fault objects only when asked for them.
    """

    def __init__(self, faults: Iterable[object] = ()) -> None:
        index = self._index = dict.fromkeys(faults)
        for position, fault in enumerate(index):
            index[fault] = position
        self._faults = list(index)
        self._reset(len(index))
        #: The stuck-at table ``ids`` index, when built from one.
        self.table: Optional[StuckAtTable] = None
        self.ids: Optional[list[int]] = None

    def _reset(self, size: int) -> None:
        """All ``size`` faults undetected."""
        self._status = bytearray(size)
        self._first: list[Optional[int]] = [None] * size
        self._count = [0] * size
        self._detected = self._untestable = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_table(cls, table: StuckAtTable, ids: Iterable[int]) -> "FaultList":
        """A fresh list over table IDs (distinct), in order."""
        fault_list = cls()
        fault_list.table, fault_list.ids = table, list(ids)
        fault_list._faults = fault_list._index = None
        fault_list._reset(len(fault_list.ids))
        return fault_list

    @classmethod
    def stuck_at(cls, circuit: Circuit, include_branches: bool = True) -> "FaultList":
        """Full single stuck-at fault list for ``circuit``."""
        table = stuck_at_table(circuit)
        return cls.from_table(table, universe_ids(table, include_branches))

    @classmethod
    def transition(cls, circuit: Circuit, include_branches: bool = False) -> "FaultList":
        """Full transition fault list for ``circuit``."""
        return cls(enumerate_transition_faults(circuit, include_branches))

    def add(self, fault: object) -> None:
        """Add one fault (idempotent)."""
        index = self._object_index()
        if fault in index:
            return
        self.table = self.ids = None
        index[fault] = len(self._status)
        self._faults.append(fault)
        self._status.append(_UNDETECTED)
        self._first.append(None)
        self._count.append(0)

    def __getstate__(self) -> dict:
        # Table IDs are process-local (appended rows): ship objects only.
        self._objects()
        state = dict(self.__dict__)
        state.update(table=None, ids=None, _index=None)
        return state

    # ------------------------------------------------------------------ #
    # Position adapters
    # ------------------------------------------------------------------ #
    def _objects(self) -> list:
        faults = self._faults
        if faults is None:
            faults = self._faults = self.table.faults(self.ids)
        return faults

    def _object_index(self) -> dict[object, int]:
        index = self._index
        if index is None:
            index = self._index = {
                fault: position for position, fault in enumerate(self._objects())
            }
        return index

    def faults_at(self, positions: Iterable[int]) -> list[object]:
        """The faults at ``positions``, in order."""
        if self._faults is None:
            ids = self.ids
            return self.table.faults(ids[p] for p in positions)
        faults = self._faults
        return [faults[p] for p in positions]

    def table_ids(self, table: StuckAtTable, positions: Sequence[int]) -> list[int]:
        """``table`` IDs of the (stuck-at) faults at ``positions``."""
        if self.table is table:
            ids = self.ids
            return [ids[p] for p in positions]
        faults = self._objects()
        return [table.id_of(faults[p]) for p in positions]

    # ------------------------------------------------------------------ #
    # Status updates
    # ------------------------------------------------------------------ #
    def record(self, fault: object) -> FaultRecord:
        """A :class:`FaultRecord` snapshot of ``fault``."""
        position = self._object_index()[fault]
        return FaultRecord(
            fault,
            _STATUSES[self._status[position]],
            self._first[position],
            self._count[position],
        )

    def mark_detected(self, fault: object, pattern_index: Optional[int] = None) -> None:
        """Mark ``fault`` detected (keeps the earliest detecting pattern index)."""
        self.mark_detected_at(self._object_index()[fault], pattern_index)

    def mark_detected_at(self, position: int, pattern_index: Optional[int] = None) -> None:
        """:meth:`mark_detected` by list position."""
        self._count[position] += 1
        status = self._status[position]
        if status != _DETECTED:
            if status == _UNTESTABLE:
                self._untestable -= 1
            self._status[position] = _DETECTED
            self._detected += 1
            self._first[position] = pattern_index
        elif pattern_index is not None:
            first = self._first[position]
            if first is None or pattern_index < first:
                self._first[position] = pattern_index

    def mark_untestable(self, fault: object) -> None:
        """Mark ``fault`` proven untestable (excluded from the coverage denominator
        when using the *testable* coverage definition)."""
        position = self._object_index()[fault]
        status = self._status[position]
        if status == _DETECTED:
            self._detected -= 1
        if status != _UNTESTABLE:
            self._untestable += 1
        self._status[position] = _UNTESTABLE

    def mark_aborted(self, fault: object) -> None:
        """Mark ``fault`` aborted by ATPG (still counted as undetected)."""
        position = self._object_index()[fault]
        if self._status[position] == _UNDETECTED:
            self._status[position] = _ABORTED

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._status)

    def __iter__(self) -> Iterator[object]:
        return iter(self._objects())

    def __contains__(self, fault: object) -> bool:
        return fault in self._object_index()

    def faults(self) -> list[object]:
        """All faults, in insertion order."""
        return list(self._objects())

    def with_status(self, status: FaultStatus) -> list[object]:
        """Faults currently in ``status``."""
        code = _STATUSES.index(status)
        return self.faults_at(p for p, s in enumerate(self._status) if s == code)

    def undetected_positions(self) -> list[int]:
        """Positions of the faults not yet detected (aborted included)."""
        return [
            p for p, s in enumerate(self._status) if s == _UNDETECTED or s == _ABORTED
        ]

    def undetected(self) -> list[object]:
        """Faults not yet detected (includes aborted)."""
        return self.faults_at(self.undetected_positions())

    def detected(self) -> list[object]:
        """Faults detected so far."""
        return self.with_status(FaultStatus.DETECTED)

    def detected_count(self) -> int:
        """Number of detected faults."""
        return self._detected

    def untestable_count(self) -> int:
        """Number of proven-untestable faults."""
        return self._untestable

    def coverage(self, exclude_untestable: bool = False) -> float:
        """Fault coverage in [0, 1].

        ``exclude_untestable=False`` is raw fault coverage (detected / all),
        the figure DFT reports usually quote; ``True`` gives test efficiency
        (detected / (all - untestable)).
        """
        total = len(self._status)
        if exclude_untestable:
            total -= self._untestable
        if total == 0:
            return 1.0
        return self._detected / total

    def coverage_curve(self, points: Iterable[int]) -> list[tuple[int, float]]:
        """``(point, coverage)`` counting, per point, the detections at
        pattern indices below it; a detection without an index (credited
        outside any campaign) counts at every point.  One sort of the first
        detections, then a bisection per point."""
        detected = [
            first
            for first, status in zip(self._first, self._status)
            if status == _DETECTED
        ]
        indexed = sorted(first for first in detected if first is not None)
        always = len(detected) - len(indexed)
        total = len(self._status)
        return [
            (point, 1.0 if total == 0 else (always + bisect_left(indexed, point)) / total)
            for point in points
        ]

    def first_detection_labels(self) -> dict[str, int]:
        """``str(fault)`` -> first detecting pattern, for every detected fault
        that has one (the reports' ``first_detections``)."""
        positions = [
            p
            for p, (status, first) in enumerate(zip(self._status, self._first))
            if status == _DETECTED and first is not None
        ]
        if self._faults is None:
            label, ids = self.table.label, self.ids
            labels = [label(ids[p]) for p in positions]
        else:
            labels = [str(fault) for fault in self.faults_at(positions)]
        return {text: self._first[p] for text, p in zip(labels, positions)}

    def n_detect_histogram(self, max_n: int = 10) -> dict[int, int]:
        """Histogram of detection counts, clipped at ``max_n`` (for N-detect studies)."""
        histogram: dict[int, int] = {n: 0 for n in range(max_n + 1)}
        for count in self._count:
            histogram[min(count, max_n)] += 1
        return histogram

    def filter(self, predicate: Callable[[object], bool]) -> "FaultList":
        """New fault list containing only faults satisfying ``predicate`` (fresh records)."""
        return FaultList(fault for fault in self._objects() if predicate(fault))

    def restricted_to(self, faults: Sequence[object]) -> "FaultList":
        """New fault list containing only the given faults, preserving records."""
        index = self._object_index()
        positions = list(dict.fromkeys(index[f] for f in faults if f in index))
        subset = FaultList(self.faults_at(positions))
        subset._status = bytearray(self._status[p] for p in positions)
        subset._first = [self._first[p] for p in positions]
        subset._count = [self._count[p] for p in positions]
        subset._detected = subset._status.count(_DETECTED)
        subset._untestable = subset._status.count(_UNTESTABLE)
        return subset
