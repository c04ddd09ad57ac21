"""Differential tests: integer stuck-at fault IDs against the object-keyed
forms they replaced.

The references below live only here:

* :class:`ObjectFaultList` -- the object-keyed fault list (one mutable
  record per fault object in a dict, coverage by recount);
* :func:`scan_fault_arrays` -- the per-fault scan compile: every fault's site
  record resolved from its ``StuckAtFault`` against the circuit, with one
  cone-plan entry per fault (what each ``ScanFault`` carried), instead of
  the stuck-at table's columns and one entry per distinct site;
* :func:`recount_curve` -- the per-boundary recount the merge used to run.

The production side (table-backed ``FaultList``, ID-space engines, shared
site plans) must reproduce statuses, first detections, coverage curves,
scan detection rows and collapse results exactly.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.campaign.results import build_simulation_result
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.faults import (
    OUTPUT_PIN,
    FaultList,
    FaultSimulator,
    FaultStatus,
    StuckAtFault,
    collapse_stuck_at,
    enumerate_stuck_at_faults,
)
from repro.faults.fault_list import GATE_TYPES, FaultRecord
from repro.simulation import iter_blocks
from repro.simulation.reference import ReferenceFaultSimulator

from test_collapse_differential import reference_collapse


class ObjectFaultList:
    """The object-keyed fault list (reference only)."""

    def __init__(self, faults=()):
        self._records = {}
        for fault in faults:
            if fault not in self._records:
                self._records[fault] = FaultRecord(fault)

    def record(self, fault):
        return self._records[fault]

    def mark_detected(self, fault, pattern_index=None):
        record = self._records[fault]
        record.detection_count += 1
        if record.status is not FaultStatus.DETECTED:
            record.status = FaultStatus.DETECTED
            record.first_detection = pattern_index
        elif pattern_index is not None and (
            record.first_detection is None or pattern_index < record.first_detection
        ):
            record.first_detection = pattern_index

    def mark_untestable(self, fault):
        self._records[fault].status = FaultStatus.UNTESTABLE

    def mark_aborted(self, fault):
        record = self._records[fault]
        if record.status is FaultStatus.UNDETECTED:
            record.status = FaultStatus.ABORTED

    def __len__(self):
        return len(self._records)

    def faults(self):
        return list(self._records)

    def undetected(self):
        return [
            f
            for f, r in self._records.items()
            if r.status in (FaultStatus.UNDETECTED, FaultStatus.ABORTED)
        ]

    def detected_count(self):
        return sum(1 for r in self._records.values() if r.status is FaultStatus.DETECTED)

    def untestable_count(self):
        return sum(1 for r in self._records.values() if r.status is FaultStatus.UNTESTABLE)

    def coverage(self, exclude_untestable=False):
        total = len(self._records)
        if exclude_untestable:
            total -= self.untestable_count()
        return 1.0 if total == 0 else self.detected_count() / total

    def filter(self, predicate):
        return ObjectFaultList(f for f in self._records if predicate(f))

    def restricted_to(self, faults):
        subset = ObjectFaultList()
        for fault in faults:
            if fault in self._records:
                r = self._records[fault]
                subset._records[fault] = FaultRecord(
                    fault, r.status, r.first_detection, r.detection_count
                )
        return subset


def recount_curve(fault_list, points):
    """The per-boundary recount: a detected fault counts at a point when it
    has no index or its index lies below the point."""
    total = len(fault_list)
    curve = []
    for point in points:
        detected = 0
        for fault in fault_list.faults():
            record = fault_list.record(fault)
            if record.status is FaultStatus.DETECTED and (
                record.first_detection is None or record.first_detection < point
            ):
                detected += 1
        curve.append((point, 1.0 if total == 0 else detected / total))
    return curve


def assert_same_records(expected, actual):
    assert actual.faults() == expected.faults()
    for fault in expected.faults():
        ref, got = expected.record(fault), actual.record(fault)
        assert (got.status, got.first_detection, got.detection_count) == (
            ref.status, ref.first_detection, ref.detection_count
        ), str(fault)
    assert actual.detected_count() == expected.detected_count()
    assert actual.untestable_count() == expected.untestable_count()
    assert actual.coverage() == expected.coverage()
    assert actual.coverage(True) == expected.coverage(True)


def make_core(seed):
    return generate_synthetic_core(
        SyntheticCoreConfig(
            name=f"fault_ids_core_{seed}",
            clock_domains=("clk1", "clk2"),
            num_inputs=8,
            num_outputs=5,
            register_width=6,
            pipeline_stages=1,
            adder_slices=1,
            adder_width=4,
            comparator_widths=(6,),
            decode_cone_width=5,
            cross_domain_links=1,
            seed=seed,
        )
    ).circuit


def random_patterns(circuit, count, seed):
    rng = random.Random(seed)
    nets = circuit.stimulus_nets()
    return [{net: rng.randint(0, 1) for net in nets} for _ in range(count)]


# --------------------------------------------------------------------- #
# Engines: table IDs vs object records
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "backend", ["python", pytest.param("numpy", marks=pytest.mark.numpy)]
)
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=10_000),
    block_size=st.sampled_from((64, 1024)),
    budget_mb=st.sampled_from((None, 0.02)),
)
def test_simulation_matches_object_reference(backend, seed, block_size, budget_mb):
    circuit = make_core(seed)
    patterns = random_patterns(circuit, 300, seed)
    collapsed = collapse_stuck_at(circuit)
    expected_reps, expected_of, expected_classes = reference_collapse(circuit)
    assert collapsed.representatives == expected_reps
    assert list(collapsed.representative_of.items()) == list(expected_of.items())
    assert list(collapsed.classes.items()) == list(expected_classes.items())

    reference = ObjectFaultList(expected_reps)
    # Chain-flush style credits before the campaign, then the campaign.
    flush = [f for f in expected_reps if f.is_stem][::7]
    for fault in flush:
        reference.mark_detected(fault, -1)
    _, expected_curve = ReferenceFaultSimulator(circuit).simulate(
        reference, patterns, block_size=block_size
    )

    fault_list = collapsed.to_fault_list()
    for fault in flush:
        fault_list.mark_detected(fault, -1)
    result = FaultSimulator(circuit, backend=backend, memory_budget_mb=budget_mb).simulate(
        fault_list, patterns, block_size=block_size
    )
    assert_same_records(reference, fault_list)
    assert result.coverage_curve == expected_curve
    assert result.coverage_curve == recount_curve(
        reference, [point for point, _ in expected_curve]
    )


def scan_fault_arrays(engine, faults):
    """The per-fault scan compile inputs: each fault's site record resolved
    from the fault object against the circuit, one plan entry per fault."""
    from repro.simulation.numpy_backend import FaultArrays, np

    circuit, net_id = engine.circuit, engine.kernel.net_id
    rows = []
    for fault in faults:
        gate = circuit.gate(fault.gate)
        if fault.is_stem:
            site, const = net_id[fault.gate], fault.value
        elif gate.is_flop:
            site, const = net_id[gate.inputs[fault.pin]], fault.value
        else:
            site, const = net_id[fault.gate], -1
        rows.append((
            site, const, net_id[fault.gate], GATE_TYPES.index(gate.gate_type),
            max(fault.pin, 0), fault.value,
        ))
    columns = [np.array(column, dtype=np.intp) for column in zip(*rows)]
    arrays = FaultArrays(
        site_ids=columns[0],
        site_index=np.arange(len(faults)),
        const_value=columns[1],
        gate_ids=columns[2],
        gate_types=columns[3],
        pins=columns[4],
        values=columns[5],
    )
    return arrays, [engine._site_plan(site) for site in columns[0].tolist()]


@pytest.mark.numpy
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=10_000),
    block_size=st.sampled_from((64, 1024)),
    budget_mb=st.sampled_from((None, 0.02)),
)
def test_scan_rows_match_per_fault_compile(seed, block_size, budget_mb):
    from repro.simulation.numpy_backend import FaultScanKernel, plane_to_word

    circuit = make_core(seed)
    engine = FaultSimulator(circuit, backend="numpy", memory_budget_mb=budget_mb)
    faults = collapse_stuck_at(circuit).representatives
    rng = random.Random(seed)
    # Duplicates are legal positions; a branch on a fanout-free net lies
    # outside the enumerated universe and gets an appended table row.
    fanout = circuit.fanout_map()
    single = [
        StuckAtFault(gate.name, 0, rng.randint(0, 1))
        for gate in circuit.combinational_gates()
        if gate.inputs and len(fanout.get(gate.inputs[0], ())) == 1
    ]
    faults = faults + rng.sample(faults, 5) + single[:3]
    scan = engine._numpy_scan(engine.table.ids_of(faults))
    arrays, plans = scan_fault_arrays(engine, faults)
    reference = FaultScanKernel(
        scan.nk, arrays, plans, memory_budget_bytes=engine._memory_budget_bytes
    )
    active = list(range(len(faults)))
    for block in iter_blocks(
        random_patterns(circuit, 2 * block_size, seed), block_size=block_size,
        nets=circuit.stimulus_nets(),
    ):
        rows = {}
        for kernel in (scan, reference):
            got, _ = engine._np_block_pass(kernel, block, active)
            rows[id(kernel)] = {p: plane_to_word(r) for p, r in got.items()}
        assert rows[id(scan)] == rows[id(reference)]
        active = [p for p in active if p not in rows[id(scan)]]


# --------------------------------------------------------------------- #
# FaultList: maintained counts against a recount
# --------------------------------------------------------------------- #
_TABLE_FAULTS = enumerate_stuck_at_faults(make_core(5))[:40]


class FaultListMachine(RuleBasedStateMachine):
    """Drive a ``FaultList`` and the object-keyed reference side by side."""

    @initialize(table_backed=st.booleans())
    def build(self, table_backed):
        if table_backed:
            circuit = make_core(5)
            self.actual = collapse_stuck_at(circuit).to_fault_list()
            self.expected = ObjectFaultList(self.actual.faults())
        else:
            self.expected = ObjectFaultList(_TABLE_FAULTS)
            self.actual = FaultList(_TABLE_FAULTS)

    def _fault(self, data):
        return data.draw(st.sampled_from(self.expected.faults()))

    @precondition(lambda self: len(self.expected))
    @rule(data=st.data(), index=st.one_of(st.none(), st.integers(-1, 50)))
    def mark_detected(self, data, index):
        fault = self._fault(data)
        self.expected.mark_detected(fault, index)
        self.actual.mark_detected(fault, index)

    @precondition(lambda self: len(self.expected))
    @rule(data=st.data())
    def mark_untestable(self, data):
        fault = self._fault(data)
        self.expected.mark_untestable(fault)
        self.actual.mark_untestable(fault)

    @precondition(lambda self: len(self.expected))
    @rule(data=st.data())
    def mark_aborted(self, data):
        fault = self._fault(data)
        self.expected.mark_aborted(fault)
        self.actual.mark_aborted(fault)

    @rule(modulus=st.integers(1, 4))
    def filter(self, modulus):
        def keep(fault):
            return sum(map(ord, str(fault))) % modulus == 0

        self.expected = self.expected.filter(keep)
        self.actual = self.actual.filter(keep)

    @precondition(lambda self: len(self.expected))
    @rule(data=st.data())
    def restricted_to(self, data):
        faults = data.draw(st.lists(st.sampled_from(self.expected.faults()), max_size=30))
        self.expected = self.expected.restricted_to(faults)
        self.actual = self.actual.restricted_to(faults)

    @invariant()
    def counts_match_a_recount(self):
        assert_same_records(self.expected, self.actual)
        points = [-1, 0, 10, 51]
        assert self.actual.coverage_curve(points) == recount_curve(self.expected, points)


TestFaultListMachine = FaultListMachine.TestCase
TestFaultListMachine.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)


# --------------------------------------------------------------------- #
# Coverage curve in one pass
# --------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    credits=st.lists(st.one_of(st.none(), st.just(-1), st.integers(0, 300)), max_size=40),
    campaign=st.dictionaries(st.integers(0, 39), st.integers(0, 299), max_size=40),
    boundaries=st.lists(st.integers(1, 300), min_size=1, max_size=6, unique=True),
)
def test_merge_curve_equals_per_boundary_recount(credits, campaign, boundaries):
    """``build_simulation_result``'s one-pass curve equals the recount, with
    chain-flush credits (index -1) and earlier-phase credits (``None``, or
    an index from another phase) already on the list."""
    faults = [StuckAtFault(f"g{i}", OUTPUT_PIN, i % 2) for i in range(40)]
    fault_list, reference = FaultList(faults), ObjectFaultList(faults)
    for fault, index in zip(faults, credits):
        fault_list.mark_detected(fault, index)
        reference.mark_detected(fault, index)
    # The campaign scans the still-undetected faults, as a shard state does.
    positions = fault_list.undetected_positions()
    boundaries = sorted(boundaries)
    merged = {
        i: pattern
        for i, pattern in campaign.items()
        if i < len(positions) and pattern < boundaries[-1]
    }
    result = build_simulation_result(fault_list, positions, merged, boundaries)
    for index, pattern in sorted(merged.items()):
        reference.mark_detected(fault_list.faults()[positions[index]], pattern)
    assert_same_records(reference, fault_list)
    assert result.coverage_curve == recount_curve(reference, boundaries)
