"""Tests for scan insertion, chain architecture and X-blocking."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.netlist import CircuitBuilder, GateType, validate_circuit
from repro.oracle import ReferencePackedSimulator
from repro.scan import (
    ScanInsertionConfig,
    build_scan_chains,
    block_x_sources,
    identify_x_sources,
    insert_scan,
    scan_conversion_area,
    verify_chain_architecture,
    verify_x_clean,
    wrap_primary_inputs,
    wrap_primary_outputs,
    x_contaminated_observation_nets,
)


def multi_domain_core(flops_per_domain=(6, 4), with_x_source=False):
    """Small multi-domain core with cross-domain logic and optional X source."""
    builder = CircuitBuilder(name="core")
    data = builder.inputs(4, prefix="in")
    domains = [f"clk{i+1}" for i in range(len(flops_per_domain))]
    previous = data[0]
    all_ffs = []
    for domain, count in zip(domains, flops_per_domain):
        for i in range(count):
            source = builder.xor(previous, data[i % len(data)], name=f"{domain}_x{i}")
            ff = builder.flop(source, name=f"{domain}_ff{i}", clock_domain=domain)
            all_ffs.append(ff)
            previous = ff
    if with_x_source:
        # A black-box output (e.g. memory read port) modelled as an annotated gate.
        bb = builder.circuit.add_gate(
            "memory_q", GateType.BUF, [data[1]], x_source=True
        )
        previous = builder.or_(previous, "memory_q", name="mixed")
    out = builder.and_(previous, data[2], name="core_out")
    builder.output(out)
    return builder.build()


class TestChainArchitecture:
    def test_one_chain_per_domain_by_default(self):
        circuit = multi_domain_core()
        arch = build_scan_chains(circuit)
        assert arch.chain_count == 2
        assert set(arch.domains()) == {"clk1", "clk2"}
        assert verify_chain_architecture(circuit, arch) == []

    def test_max_chain_length_controls_chain_count(self):
        circuit = multi_domain_core((8, 4))
        arch = build_scan_chains(circuit, max_chain_length=3)
        assert arch.max_chain_length <= 3
        assert verify_chain_architecture(circuit, arch) == []
        # 8 cells -> 3 chains, 4 cells -> 2 chains.
        assert len(arch.chains_in_domain("clk1")) == 3
        assert len(arch.chains_in_domain("clk2")) == 2

    def test_total_chains_distributed_proportionally(self):
        circuit = multi_domain_core((9, 3))
        arch = build_scan_chains(circuit, total_chains=4)
        assert arch.chain_count == 4
        assert len(arch.chains_in_domain("clk1")) >= len(arch.chains_in_domain("clk2"))
        assert verify_chain_architecture(circuit, arch) == []

    def test_chains_never_mix_domains(self):
        circuit = multi_domain_core((5, 7))
        arch = build_scan_chains(circuit, max_chain_length=2)
        for chain in arch.chains:
            domains = {circuit.gate(c).clock_domain for c in chain.cells}
            assert domains == {chain.clock_domain}

    def test_balanced_lengths(self):
        circuit = multi_domain_core((10, 10))
        arch = build_scan_chains(circuit, chains_per_domain={"clk1": 3, "clk2": 2})
        for domain in arch.domains():
            lengths = [c.length for c in arch.chains_in_domain(domain)]
            assert max(lengths) - min(lengths) <= 1

    def test_sizing_argument_conflicts_rejected(self):
        circuit = multi_domain_core()
        with pytest.raises(ValueError):
            build_scan_chains(circuit, max_chain_length=3, total_chains=5)
        with pytest.raises(ValueError):
            build_scan_chains(circuit, max_chain_length=0)
        with pytest.raises(ValueError):
            build_scan_chains(circuit, total_chains=1)  # fewer than domains

    def test_verify_detects_problems(self):
        circuit = multi_domain_core()
        arch = build_scan_chains(circuit)
        arch.chains[0].cells.append("not_a_flop_net")
        problems = verify_chain_architecture(circuit, arch)
        assert any("unknown cell" in p for p in problems)

    def test_statistics_and_mappings(self):
        circuit = multi_domain_core((4, 2))
        arch = build_scan_chains(circuit, chains_per_domain={"clk1": 2, "clk2": 1})
        stats = arch.statistics()
        assert stats["chains"] == 3
        assert stats["total_cells"] == 6
        mapping = arch.as_mapping()
        assert sum(len(v) for v in mapping.values()) == 6
        cell_map = arch.chain_of_cell()
        assert all(isinstance(v, tuple) for v in cell_map.values())

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=5),
    )
    def test_property_every_flop_in_exactly_one_chain(self, flops_per_domain, max_len):
        circuit = multi_domain_core(tuple(flops_per_domain))
        arch = build_scan_chains(circuit, max_chain_length=max_len)
        assert verify_chain_architecture(circuit, arch) == []
        assert arch.total_cells == circuit.flop_count()
        assert arch.max_chain_length <= max_len


class TestWrappersAndXBlocking:
    def test_wrap_inputs_rewires_consumers(self):
        circuit = multi_domain_core()
        created = wrap_primary_inputs(circuit)
        assert created
        assert validate_circuit(circuit).ok
        for pi in circuit.primary_inputs:
            consumers = circuit.fanout(pi)
            assert all(circuit.gate(c).attributes.get("wrapper_cell") for c in consumers)

    def test_wrap_outputs_adds_observing_cells(self):
        circuit = multi_domain_core()
        created = wrap_primary_outputs(circuit)
        assert len(created) == len(circuit.primary_outputs)
        assert validate_circuit(circuit).ok

    def test_identify_x_sources(self):
        circuit = multi_domain_core(with_x_source=True)
        sources = identify_x_sources(circuit)
        assert sources == ["memory_q"]
        with_inputs = identify_x_sources(circuit, include_unwrapped_inputs=True)
        assert set(circuit.primary_inputs) <= set(with_inputs)

    def test_x_contamination_detected_and_blocked(self):
        circuit = multi_domain_core(with_x_source=True)
        contaminated = x_contaminated_observation_nets(circuit, ["memory_q"])
        assert contaminated  # the X reaches an observed net before blocking
        result = block_x_sources(circuit, ["memory_q"])
        assert result.blocked_sources == ["memory_q"]
        assert validate_circuit(circuit).ok
        # After blocking, no X from the memory output reaches any observation net.
        assert result.residual_contamination == []
        assert result.clean
        assert verify_x_clean(circuit) == []

    def test_x_walk_follows_fanout_not_side_inputs(self):
        builder = CircuitBuilder(name="xreach")
        a = builder.input("a")
        x_source = builder.input("x_src")
        safe = builder.not_(a, name="safe")
        tainted = builder.xor(x_source, a, name="tainted")
        downstream = builder.or_(tainted, safe, name="downstream")
        builder.output(downstream)
        circuit = builder.build()
        observe = ["safe", "tainted", "downstream"]
        assert x_contaminated_observation_nets(circuit, ["x_src"], observe) == [
            "tainted",
            "downstream",
        ]

    def test_x_walk_stops_at_flop_boundary(self):
        builder = CircuitBuilder(name="xflop")
        a = builder.input("a")
        x_source = builder.input("x_src")
        captured = builder.and_(x_source, a, name="captured")
        ff = builder.flop(captured, name="ff")
        builder.output(builder.or_(ff, a, name="after_ff"))
        circuit = builder.build()
        # The flop captures the X (its data input is observed), but the next
        # pattern loads the flop by scan, so the X goes no further.
        assert x_contaminated_observation_nets(circuit, ["x_src"]) == ["captured"]

    def test_x_source_observed_directly_contaminates_itself(self):
        circuit = multi_domain_core()
        assert x_contaminated_observation_nets(circuit, ["in1"], ["in1", "in0"]) == [
            "in1"
        ]
        assert x_contaminated_observation_nets(circuit, []) == []

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_x_walk_covers_every_two_valued_corner(self, seed):
        """Any observation net an X input can flip, in either value, is reported."""
        config = SyntheticCoreConfig(
            name=f"xwalk_{seed}",
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
        circuit = generate_synthetic_core(config).circuit
        simulator = ReferencePackedSimulator(circuit)
        observe = circuit.observation_nets()
        rng = random.Random(seed)
        stimulus = {net: rng.getrandbits(64) for net in circuit.stimulus_nets()}
        flipped_anywhere = False
        for source in circuit.primary_inputs:
            good = simulator.simulate_block(stimulus, 64)
            other = dict(stimulus, **{source: ~stimulus[source]})
            flipped = simulator.simulate_block(other, 64)
            changed = {net for net in observe if good[net] != flipped[net]}
            flipped_anywhere |= bool(changed)
            assert changed <= set(
                x_contaminated_observation_nets(circuit, [source])
            ), source
        assert flipped_anywhere

    def test_block_value_validation_and_unknown_net(self):
        circuit = multi_domain_core(with_x_source=True)
        with pytest.raises(ValueError):
            block_x_sources(circuit, ["memory_q"], blocked_value=2)
        with pytest.raises(KeyError):
            block_x_sources(circuit, ["nonexistent"])

    def test_blocking_to_one_uses_or(self):
        circuit = multi_domain_core(with_x_source=True)
        result = block_x_sources(circuit, ["memory_q"], blocked_value=1)
        gate = circuit.gate(result.blocking_gates[0])
        assert gate.gate_type is GateType.OR


class TestInsertScan:
    def test_full_insertion_produces_bist_ready_core(self):
        circuit = multi_domain_core(with_x_source=True)
        result = insert_scan(
            circuit,
            ScanInsertionConfig(max_chain_length=4),
        )
        assert result.problems == []
        assert validate_circuit(result.circuit).ok
        # Original circuit untouched.
        assert circuit.flop_count() == 10
        # Wrapper cells for 4 PIs (all driving something) and 1 PO.
        assert len(result.wrapper_cells) == 5
        assert result.circuit.flop_count() == 10 + 5
        assert result.architecture.total_cells == result.circuit.flop_count()
        assert result.architecture.max_chain_length <= 4
        assert result.x_blocking is not None and result.x_blocking.blocked_sources

    def test_area_overhead_positive_and_reasonable(self):
        circuit = multi_domain_core()
        result = insert_scan(circuit, ScanInsertionConfig(max_chain_length=8))
        assert result.area_overhead > 0
        assert 0 < result.overhead_fraction < 0.6

    def test_no_wrappers_config(self):
        circuit = multi_domain_core()
        result = insert_scan(
            circuit,
            ScanInsertionConfig(wrap_inputs=False, wrap_outputs=False),
        )
        assert result.wrapper_cells == []
        assert result.circuit.flop_count() == circuit.flop_count()

    def test_scan_cell_records(self):
        circuit = multi_domain_core()
        result = insert_scan(circuit, ScanInsertionConfig(max_chain_length=3))
        assert len(result.scan_cells) == result.circuit.flop_count()
        wrappers = [c for c in result.scan_cells if c.is_wrapper]
        assert len(wrappers) == len(result.wrapper_cells)
        for cell in result.scan_cells:
            assert cell.chain is not None and cell.position is not None

    def test_scan_conversion_area_counts_only_original_flops(self):
        circuit = multi_domain_core()
        base = scan_conversion_area(circuit)
        wrapped = circuit.copy()
        wrap_primary_inputs(wrapped)
        assert scan_conversion_area(wrapped) == base
