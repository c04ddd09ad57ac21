"""Differential test: integer-indexed ``collapse_stuck_at`` against the
object-keyed union-find it replaced.

The reference below is that earlier implementation (a union-find over
``StuckAtFault`` objects); it lives only here.  Both must agree on the
representatives (in order), every fault's representative and every class
(members in order, classes in order), on plain netlists, on generated cores,
on the same cores after observation points were inserted (fanout-free nets
that gain a second reader), and on an explicit fault subset.
"""

import random

import pytest

from repro.cores import c17
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.faults import OUTPUT_PIN, StuckAtFault, collapse_stuck_at, enumerate_stuck_at_faults
from repro.netlist import GateType
from repro.tpi import apply_observation_points


class _ReferenceUnionFind:
    def __init__(self):
        self._parent = {}

    def add(self, item):
        if item not in self._parent:
            self._parent[item] = item

    def find(self, item):
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def classes(self):
        groups = {}
        for item in self._parent:
            groups.setdefault(self.find(item), []).append(item)
        return groups


def _reference_pairs(gate_type, gate_name, num_inputs):
    pairs = []
    if gate_type in (GateType.AND, GateType.NAND):
        controlled = 0 if gate_type is GateType.AND else 1
        for pin in range(num_inputs):
            pairs.append(
                (StuckAtFault(gate_name, pin, 0), StuckAtFault(gate_name, OUTPUT_PIN, controlled))
            )
    elif gate_type in (GateType.OR, GateType.NOR):
        controlled = 1 if gate_type is GateType.OR else 0
        for pin in range(num_inputs):
            pairs.append(
                (StuckAtFault(gate_name, pin, 1), StuckAtFault(gate_name, OUTPUT_PIN, controlled))
            )
    elif gate_type is GateType.NOT:
        pairs.append((StuckAtFault(gate_name, 0, 0), StuckAtFault(gate_name, OUTPUT_PIN, 1)))
        pairs.append((StuckAtFault(gate_name, 0, 1), StuckAtFault(gate_name, OUTPUT_PIN, 0)))
    elif gate_type in (GateType.BUF, GateType.DFF):
        pairs.append((StuckAtFault(gate_name, 0, 0), StuckAtFault(gate_name, OUTPUT_PIN, 0)))
        pairs.append((StuckAtFault(gate_name, 0, 1), StuckAtFault(gate_name, OUTPUT_PIN, 1)))
    return pairs


def reference_collapse(circuit, faults=None):
    """The object-keyed union-find collapse (reference only)."""
    if faults is None:
        faults = enumerate_stuck_at_faults(circuit)
    fault_set = set(faults)
    uf = _ReferenceUnionFind()
    for fault in faults:
        uf.add(fault)
    fanout = circuit.fanout_map()
    for gate in circuit:
        for branch_fault, stem_equiv in _reference_pairs(
            gate.gate_type, gate.name, len(gate.inputs)
        ):
            if stem_equiv not in fault_set:
                continue
            if branch_fault in fault_set:
                uf.union(stem_equiv, branch_fault)
            net = gate.inputs[branch_fault.pin]
            if len(fanout.get(net, ())) == 1:
                driving_stem = StuckAtFault(net, OUTPUT_PIN, branch_fault.value)
                if driving_stem in fault_set:
                    uf.union(stem_equiv, driving_stem)
        for pin, net in enumerate(gate.inputs):
            if len(fanout.get(net, ())) == 1:
                for value in (0, 1):
                    branch = StuckAtFault(gate.name, pin, value)
                    stem = StuckAtFault(net, OUTPUT_PIN, value)
                    if branch in fault_set and stem in fault_set:
                        uf.union(stem, branch)
    levels = circuit.levels()

    def key(fault):
        return (levels.get(fault.gate, 0), 0 if fault.is_stem else 1, fault.gate, fault.pin, fault.value)

    representative_of = {}
    classes = {}
    representatives = []
    for members in uf.classes().values():
        rep = min(members, key=key)
        representatives.append(rep)
        classes[rep] = sorted(members, key=key)
        for member in members:
            representative_of[member] = rep
    representatives.sort(key=key)
    return representatives, representative_of, classes


def assert_same_collapse(circuit, faults=None):
    expected_reps, expected_of, expected_classes = reference_collapse(circuit, faults)
    actual = collapse_stuck_at(circuit, faults)
    assert actual.representatives == expected_reps
    assert list(actual.representative_of.items()) == list(expected_of.items())
    assert list(actual.classes.items()) == list(expected_classes.items())


def make_core(seed):
    return generate_synthetic_core(
        SyntheticCoreConfig(
            name=f"collapse_core_{seed}",
            num_inputs=8,
            num_outputs=5,
            register_width=6,
            pipeline_stages=1,
            adder_width=4,
            comparator_widths=(6,),
            decode_cone_width=5,
            cross_domain_links=1,
            seed=seed,
        )
    ).circuit


def fanout_free_taps(circuit, count, seed):
    """Combinational nets read by exactly one gate (they gain a reader)."""
    fanout = circuit.fanout_map()
    nets = sorted(
        gate.name
        for gate in circuit.combinational_gates()
        if len(fanout.get(gate.name, ())) == 1
    )
    return random.Random(seed).sample(nets, min(count, len(nets)))


def test_c17():
    assert_same_collapse(c17())


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_generated_cores(seed):
    assert_same_collapse(make_core(seed))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cores_after_observation_points(seed):
    circuit = make_core(seed)
    taps = fanout_free_taps(circuit, 6, seed)
    assert taps
    apply_observation_points(circuit, taps)
    assert_same_collapse(circuit)


@pytest.mark.parametrize("seed", [1, 2])
def test_explicit_fault_subset(seed):
    circuit = make_core(seed)
    universe = enumerate_stuck_at_faults(circuit)
    rng = random.Random(seed)
    subset = rng.sample(universe, len(universe) // 2)
    # A repeated fault is one fault.
    subset += subset[:5]
    assert_same_collapse(circuit, subset)
