"""Differential tests: compiled kernel-indexed ATPG vs the name-keyed oracle.

The compiled engine (:mod:`repro.atpg.compiled`) is the one ``PodemAtpg``
runs; the name-keyed :class:`~repro.oracle.implication.FaultedEvaluator` and
:func:`~repro.oracle.podem.generate_reference` search are its bit-exactness
oracle.  These tests pin the equivalence at both levels:

* evaluator level -- after any interleaving of assignments, retractions
  and batched backtracks (several retractions plus one flip in one
  ``apply``) the incremental engine's code array holds exactly the values a
  full reference re-implication produces, and every PODEM predicate (test
  check, activation, D-frontier, X-path) agrees,
* gate level -- every composite lookup table (and the pairwise fold of
  wide gates) matches the reference three-valued evaluator on both
  components,
* search level -- ``PodemAtpg`` and the oracle search produce identical
  outcomes, cubes, backtrack and decision counts, fault for fault -- also
  at a backtrack limit low enough that aborts dominate.

Plus the compiled-only feature: per-kernel analysis caching via
``shared_kernel``.
"""

import itertools
import random
from collections import Counter

import pytest

from repro.atpg import (
    AtpgOutcome,
    CompiledFaultedEvaluator,
    PodemAtpg,
    atpg_adjacency,
)
from repro.atpg.compiled import X3, _evaluate_codes, _gate_lookup, all_x_state
from repro.faults import (
    OUTPUT_PIN,
    StuckAtFault,
    collapse_stuck_at,
    enumerate_stuck_at_faults,
)
from repro.netlist import CircuitBuilder, GateType, parse_bench_text
from repro.netlist.gates import gate_opcode
from repro.oracle import FaultedEvaluator, generate_reference
from repro.oracle.implication import _eval3
from repro.simulation.kernel import shared_kernel
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core

C17_TEXT = """
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""


def c17():
    return parse_bench_text(C17_TEXT, name="c17")


def hard_core(seed=77):
    config = SyntheticCoreConfig(
        name=f"hard_core_{seed}",
        clock_domains=("clk1",),
        num_inputs=10,
        num_outputs=5,
        register_width=5,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(9, 8),
        decode_cone_width=8,
        cross_domain_links=0,
        seed=seed,
    )
    return generate_synthetic_core(config).circuit


def flop_branch_circuit():
    """A circuit with a flop whose D-pin branch fault needs the pseudo net."""
    builder = CircuitBuilder(name="flopd")
    d = builder.input("d")
    e = builder.input("e")
    shared = builder.and_(d, e, name="shared")
    ff = builder.flop(shared, name="ff")
    y = builder.or_(ff, shared, name="y")
    builder.output(y)
    return builder.build()


def mixed_gate_circuit():
    """MUX, XOR/XNOR and constant gates, with fanout branches into each."""
    builder = CircuitBuilder(name="mixed")
    a, s, c, d = (builder.input(name) for name in "ascd")
    one = builder.const(1, name="one")
    zero = builder.const(0, name="zero")
    x = builder.xor(a, c, name="x")
    m = builder.mux(s, x, d, name="m")
    k = builder.and_(one, a, name="k")
    kz = builder.and_(zero, c, name="kz")
    z = builder.or_(zero, m, name="z")
    xn = builder.xnor(x, s, d, name="xn")
    mk = builder.mux(zero, k, s, name="mk")
    ff = builder.flop(xn, name="ff")
    y = builder.nand(ff, z, mk, name="y")
    for net in (y, x, k, kz):
        builder.output(net)
    return builder.build()


def masked_cone_circuit():
    """Input ``x`` read only by an AND (side input ``c``) and a NOR (side
    input ``d``), each followed by a deep NOT/BUF/XOR/OR cone."""
    builder = CircuitBuilder(name="masked")
    x, c, d, y = (builder.input(name) for name in "xcdy")
    net_a = builder.and_(x, c, name="ma")
    net_b = builder.nor(x, d, name="mb")
    for depth in range(4):
        net_a = builder.buf(builder.not_(net_a), name=f"ba{depth}")
        net_b = builder.buf(builder.not_(net_b), name=f"bb{depth}")
    builder.output(builder.or_(builder.xor(net_a, net_b, name="xo"), y, name="o"))
    return builder.build()


def assert_engines_agree(circuit, fault, seed, steps=25):
    """Drive both evaluators through one random walk of ``apply`` calls and
    compare after every step.  A step assigns one net, retracts one, or --
    like a PODEM backtrack -- retracts several nets and flips another in a
    single call."""
    rng = random.Random(seed)
    reference = FaultedEvaluator(circuit, fault)
    compiled = CompiledFaultedEvaluator(circuit, fault)
    net_id = compiled.kernel.net_id
    nets = circuit.stimulus_nets()
    assignment = {}
    for _ in range(steps):
        roll = rng.random()
        if len(assignment) >= 2 and roll < 0.2:
            *retracted, flipped = rng.sample(
                sorted(assignment), rng.randint(2, len(assignment))
            )
            for net in retracted:
                del assignment[net]
            assignment[flipped] = 1 - assignment[flipped]
            changes = [(net, None) for net in retracted]
            changes.append((flipped, assignment[flipped]))
        elif assignment and roll < 0.4:
            net = rng.choice(sorted(assignment))
            del assignment[net]
            changes = [(net, None)]
        else:
            net = rng.choice(nets)
            if net in assignment:
                continue
            value = rng.randint(0, 1)
            assignment[net] = value
            changes = [(net, value)]
        compiled.apply([(net_id[net], value) for net, value in changes])
        values = reference.implied_values(assignment)
        assert values == compiled.values_by_name()
        assert reference.is_test(values) == compiled.is_test()
        assert reference.fault_activated(values) == compiled.fault_activated()
        ref_frontier = reference.d_frontier(values)
        compiled_frontier = [
            compiled.kernel.net_names[nid] for nid in compiled.d_frontier()
        ]
        assert ref_frontier == compiled_frontier
        assert reference.x_path_exists(values, ref_frontier) == (
            compiled.x_path_exists(compiled.d_frontier())
        )


class TestEvaluatorEquivalence:
    def test_c17_all_collapsed_faults(self):
        circuit = c17()
        for index, fault in enumerate(collapse_stuck_at(circuit).representatives):
            assert_engines_agree(circuit, fault, seed=index)

    def test_hard_core_sampled_faults(self):
        circuit = hard_core()
        faults = collapse_stuck_at(circuit).representatives
        rng = random.Random(5)
        for fault in rng.sample(faults, 25):
            assert_engines_agree(circuit, fault, seed=hash(fault) & 0xFFFF)

    def test_flop_d_branch_pseudo_net(self):
        circuit = flop_branch_circuit()
        fault = StuckAtFault("ff", 0, 1)
        assert_engines_agree(circuit, fault, seed=3)
        # The pseudo net appears in the diagnostic view, like the reference.
        compiled = CompiledFaultedEvaluator(circuit, fault)
        assert "ff.D" in compiled.values_by_name()

    def test_mux_xor_constant_gates_every_fault(self):
        circuit = mixed_gate_circuit()
        faults = enumerate_stuck_at_faults(circuit)
        assert any(not fault.is_stem for fault in faults)
        for index, fault in enumerate(faults):
            assert_engines_agree(circuit, fault, seed=index)

    def test_combinational_branch_faults(self):
        circuit = hard_core()
        branch_faults = [
            fault
            for fault in enumerate_stuck_at_faults(circuit)
            if not fault.is_stem and not circuit.gate(fault.gate).is_flop
        ]
        rng = random.Random(11)
        for index, fault in enumerate(rng.sample(branch_faults, 25)):
            assert_engines_agree(circuit, fault, seed=index)

    def test_custom_observe_nets(self):
        circuit = c17()
        fault = StuckAtFault("G11", OUTPUT_PIN, 0)
        reference = FaultedEvaluator(circuit, fault, observe_nets=["G11"])
        compiled = CompiledFaultedEvaluator(circuit, fault, observe_nets=["G11"])
        values = reference.implied_values({"G3": 1, "G6": 0})
        net_id = compiled.kernel.net_id
        compiled.apply([(net_id["G3"], 1), (net_id["G6"], 0)])
        assert reference.is_test(values) and compiled.is_test()


#: A three-valued component -> its reference form (``None`` = X).
TRIT = (0, 1, None)


class TestCompositeTables:
    @pytest.mark.parametrize(
        "gate_type, arity",
        [
            (gate_type, arity)
            for gate_type in (
                GateType.AND,
                GateType.NAND,
                GateType.OR,
                GateType.NOR,
                GateType.XOR,
                GateType.XNOR,
            )
            for arity in (1, 2, 3, 4)
        ]
        + [(GateType.NOT, 1), (GateType.BUF, 1), (GateType.MUX, 3)],
    )
    def test_lookup_matches_reference_on_both_components(self, gate_type, arity):
        # Arity 4 takes the pairwise fold; the others one table lookup.
        kind, table = _gate_lookup(gate_opcode(gate_type, arity), arity)
        for codes in itertools.product(range(9), repeat=arity):
            good = _eval3(gate_type, [TRIT[code // 3] for code in codes])
            faulty = _eval3(gate_type, [TRIT[code % 3] for code in codes])
            expected = 3 * (X3 if good is None else good) + (X3 if faulty is None else faulty)
            assert _evaluate_codes(kind, table, codes) == expected, codes


def assert_podem_equivalent(circuit, backtrack_limit):
    """Run both searches on every collapsed fault; return the outcome counts."""
    compiled = PodemAtpg(circuit, backtrack_limit=backtrack_limit)
    outcomes = Counter()
    for fault in collapse_stuck_at(circuit).representatives:
        expected = generate_reference(circuit, fault, backtrack_limit=backtrack_limit)
        actual = compiled.generate(fault)
        assert expected.outcome is actual.outcome, str(fault)
        assert expected.backtracks == actual.backtracks, str(fault)
        assert expected.decisions == actual.decisions, str(fault)
        if expected.outcome is AtpgOutcome.SUCCESS:
            assert expected.cube.assignments == actual.cube.assignments, str(fault)
        outcomes[actual.outcome] += 1
    return outcomes


class TestPodemEquivalence:
    @pytest.mark.parametrize("circuit_factory", [c17, hard_core])
    def test_identical_results_fault_for_fault(self, circuit_factory):
        assert_podem_equivalent(circuit_factory(), backtrack_limit=60)

    def test_identical_results_where_aborts_dominate(self):
        # At limit 3 most hard_core targets abort, so the search keeps
        # taking multi-decision backtracks -- one batched ``apply`` each.
        outcomes = assert_podem_equivalent(hard_core(), backtrack_limit=3)
        assert all(outcomes[outcome] >= 1 for outcome in AtpgOutcome), outcomes
        assert outcomes[AtpgOutcome.ABORTED] > outcomes[AtpgOutcome.UNTESTABLE]


class TestAnalysisCache:
    def test_adjacency_shared_between_evaluators(self):
        circuit = c17()
        fault_a = StuckAtFault("G10", OUTPUT_PIN, 0)
        fault_b = StuckAtFault("G16", OUTPUT_PIN, 1)
        first = CompiledFaultedEvaluator(circuit, fault_a)
        second = CompiledFaultedEvaluator(circuit, fault_b)
        assert first.kernel is second.kernel
        assert first.adjacency is second.adjacency

    def test_adjacency_cached_per_kernel(self):
        circuit = c17()
        kernel = shared_kernel(circuit)
        first = atpg_adjacency(kernel)
        assert atpg_adjacency(kernel) is first
        assert kernel.analysis_cache["atpg_adjacency"] is first
        # A structural mutation recompiles the kernel and refreshes the analysis.
        circuit.add_output("G16")
        refreshed = shared_kernel(circuit)
        assert refreshed is not kernel
        assert atpg_adjacency(refreshed) is not first

    def test_all_x_state_shared_between_evaluators(self):
        circuit = mixed_gate_circuit()
        first = CompiledFaultedEvaluator(circuit, StuckAtFault("x", OUTPUT_PIN, 0))
        kernel = first.kernel
        cached = kernel.analysis_cache["atpg_all_x_state"]
        snapshot = list(cached)
        # Constants (and what they alone decide) are known; the rest is X
        # (composite codes: 3*good + faulty).
        net_id = kernel.net_id
        assert cached[net_id["one"]] == 3 * 1 + 1 and cached[net_id["kz"]] == 0
        assert cached[net_id["k"]] == cached[net_id["x"]] == 3 * X3 + X3
        second = CompiledFaultedEvaluator(circuit, StuckAtFault("mk", 0, 1))
        assert second.kernel is kernel
        assert all_x_state(kernel) is cached
        assert kernel.analysis_cache["atpg_all_x_state"] is cached
        for evaluator in (first, second):
            assert evaluator.codes is not cached
            evaluator.apply([(net_id[name], 1) for name in ("a", "s", "c", "d", "ff")])
            assert evaluator.codes != snapshot
        # The evaluators worked on copies: the shared state is untouched.
        assert list(cached) == snapshot
        assert kernel.analysis_cache["atpg_all_x_state"] is cached


class TestEventDrivenImplication:
    def test_masked_assignment_evaluates_only_direct_readers(self):
        circuit = masked_cone_circuit()
        fault = StuckAtFault("y", OUTPUT_PIN, 0)
        evaluator = CompiledFaultedEvaluator(circuit, fault)
        net_id = evaluator.kernel.net_id
        cone_gates = len(evaluator.kernel.cone_plan(net_id["x"]).outs)
        evaluator.apply([(net_id["c"], 0), (net_id["d"], 1)])
        before = evaluator.gate_evals
        evaluator.apply([(net_id["x"], 1)])
        # Both readers of x are held by their controlling side inputs: each
        # is evaluated once and nothing downstream of them is.
        assert len(evaluator.adjacency.comb_readers[net_id["x"]]) == 2
        assert evaluator.gate_evals - before == 2
        assert cone_gates > 2
        reference = FaultedEvaluator(circuit, fault)
        assignment = {"c": 0, "d": 1, "x": 1}
        assert reference.implied_values(assignment) == evaluator.values_by_name()

    def test_unmasked_assignment_reaches_the_cone(self):
        circuit = masked_cone_circuit()
        evaluator = CompiledFaultedEvaluator(circuit, StuckAtFault("y", OUTPUT_PIN, 0))
        kernel = evaluator.kernel
        net_id = kernel.net_id
        evaluator.apply([(net_id["c"], 1), (net_id["d"], 0)])
        before_codes = list(evaluator.codes)
        before = evaluator.gate_evals
        evaluator.apply([(net_id["x"], 1)])
        # Every gate of x's cone is evaluated exactly once ...
        assert evaluator.gate_evals - before == len(kernel.cone_plan(net_id["x"]).outs)
        # ... and every one of them changes, through each gate type.
        evaluated = {
            circuit.gate(kernel.net_names[nid]).gate_type
            for nid, (old, new) in enumerate(zip(before_codes, evaluator.codes))
            if old != new and nid != net_id["x"]
        }
        assert evaluated == {
            GateType.AND,
            GateType.NOR,
            GateType.NOT,
            GateType.BUF,
            GateType.XOR,
            GateType.OR,
        }
