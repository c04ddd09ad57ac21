"""Tests for the STUMPS assembly and the input selector."""

import pytest

from repro.bist import InputSelector, InputSource, StumpsArchitecture, StumpsDomainConfig
from repro.netlist import CircuitBuilder
from repro.oracle import SequentialSimulator
from repro.scan import build_scan_chains


def two_domain_core(flops_a=6, flops_b=4):
    builder = CircuitBuilder(name="stumps_core")
    data = builder.inputs(3, prefix="in")
    previous = data[0]
    for i in range(flops_a):
        net = builder.xor(previous, data[i % 3], name=f"a_x{i}")
        previous = builder.flop(net, name=f"a_ff{i}", clock_domain="clkA")
    for i in range(flops_b):
        net = builder.xor(previous, data[(i + 1) % 3], name=f"b_x{i}")
        previous = builder.flop(net, name=f"b_ff{i}", clock_domain="clkB")
    builder.output(builder.and_(previous, data[1], name="core_out"))
    return builder.build()


class TestStumpsArchitecture:
    def make(self, chains_per_domain=None):
        circuit = two_domain_core()
        arch = build_scan_chains(
            circuit, chains_per_domain=chains_per_domain or {"clkA": 2, "clkB": 1}
        )
        stumps = StumpsArchitecture(arch, default_prpg_length=19, seed=5)
        return circuit, arch, stumps

    def test_one_prpg_misr_pair_per_domain(self):
        _, arch, stumps = self.make()
        assert stumps.prpg_count() == 2
        assert stumps.misr_count() == 2
        assert set(stumps.domains) == {"clkA", "clkB"}

    def test_misr_width_defaults_to_chain_count(self):
        """The paper's no-space-compactor rule: MISR as wide as the chain count."""
        _, arch, stumps = self.make(chains_per_domain={"clkA": 3, "clkB": 2})
        lengths = stumps.misr_lengths()
        assert lengths["clkA"] == 3
        assert lengths["clkB"] == 2

    def test_generate_pattern_covers_every_scan_cell(self):
        circuit, arch, stumps = self.make()
        pattern = stumps.generate_pattern()
        assert set(pattern) == set(circuit.flop_names())
        assert all(v in (0, 1) for v in pattern.values())

    def test_patterns_are_deterministic_and_varied(self):
        _, _, stumps_a = self.make()
        _, _, stumps_b = self.make()
        patterns_a = stumps_a.generate_patterns(20)
        patterns_b = stumps_b.generate_patterns(20)
        assert patterns_a == patterns_b
        # Consecutive patterns must not all be identical.
        assert any(patterns_a[i] != patterns_a[i + 1] for i in range(19))

    def test_reset_restores_sequence_and_signature(self):
        _, _, stumps = self.make()
        first = stumps.generate_patterns(5)
        stumps.compact_response({cell: 1 for cell in first[0]})
        assert any(sig != 0 for sig in stumps.signatures().values())
        stumps.reset()
        assert stumps.generate_patterns(5) == first
        assert all(sig == 0 for sig in stumps.signatures().values())

    def test_signature_sensitivity_to_response_error(self):
        """A single flipped capture bit must change the affected domain's signature."""
        circuit, _, stumps = self.make()
        response = {cell: 0 for cell in circuit.flop_names()}
        good = dict(stumps.compact_response(response))
        stumps.reset()
        corrupted = dict(response)
        corrupted["a_ff0"] = 1
        bad = stumps.compact_response(corrupted)
        assert bad["clkA"] != good["clkA"]
        assert bad["clkB"] == good["clkB"]  # error confined to its own domain

    def test_statistics_structure(self):
        _, _, stumps = self.make()
        stats = stumps.statistics()
        assert stats["prpgs"] == 2
        assert set(stats["per_domain"]) == {"clkA", "clkB"}
        assert stats["per_domain"]["clkA"]["prpg_length"] == 19

    def test_custom_domain_config(self):
        circuit = two_domain_core()
        arch = build_scan_chains(circuit, chains_per_domain={"clkA": 2, "clkB": 1})
        stumps = StumpsArchitecture(
            arch,
            domain_configs=[
                StumpsDomainConfig(domain="clkA", prpg_length=16, compactor_outputs=1),
            ],
        )
        assert stumps.domains["clkA"].prpg.length == 16
        assert stumps.domains["clkA"].misr.length == 2  # max(2, 1 compactor output)
        assert stumps.domains["clkB"].prpg.length == 19

    def test_config_pickled_with_galois_still_loads(self):
        """A journaled bundle pickled while ``StumpsDomainConfig`` still had
        ``galois`` loads as the same config and streams the same patterns."""
        import pickle

        circuit = two_domain_core()
        arch = build_scan_chains(circuit, chains_per_domain={"clkA": 2, "clkB": 1})
        configs = [
            StumpsDomainConfig(domain="clkA", prpg_seed=3),
            StumpsDomainConfig(domain="clkB", prpg_seed=4, compactor_outputs=1),
        ]
        old = pickle.loads(pickle.dumps(StumpsArchitecture(arch, configs)))
        for domain in old.domains.values():
            domain.config.__dict__["galois"] = False
        loaded = pickle.loads(pickle.dumps(old))
        assert [loaded.domains[c.domain].config for c in configs] == configs
        fresh = StumpsArchitecture(arch, configs)
        assert loaded.generate_patterns(40) == fresh.generate_patterns(40)
        for name, domain in fresh.domains.items():
            assert loaded.domains[name].prpg.state == domain.prpg.state
        with pytest.raises(TypeError, match="galois"):
            StumpsDomainConfig(domain="clkA", galois=False)

    def test_empty_domain_rejected(self):
        circuit = two_domain_core()
        arch = build_scan_chains(circuit)
        from repro.bist.stumps import StumpsDomain

        with pytest.raises(ValueError):
            StumpsDomain(StumpsDomainConfig(domain="missing"), arch)

    def test_full_bist_pass_detects_injected_fault(self):
        """End-to-end: load PRPG pattern, capture via the real netlist, compact.

        Running the same session on a fault-free and a faulted core must give
        different signatures (that is the whole point of the architecture).
        """
        circuit, arch, stumps = self.make()
        chains = arch.as_mapping()

        def run_session(broken_cell=None, patterns=8):
            stumps.reset()
            sim = SequentialSimulator(circuit)
            for _ in range(patterns):
                load = stumps.generate_pattern()
                sim.load_state(load)
                sim.step({net: 0 for net in circuit.primary_inputs})
                captured = dict(sim.state)
                if broken_cell is not None:
                    captured[broken_cell] ^= 1  # model a capture-path defect
                stumps.compact_response(captured)
            return dict(stumps.signatures())

        golden = run_session()
        faulty = run_session(broken_cell="b_ff2")
        assert faulty["clkB"] != golden["clkB"]


class TestInputSelector:
    def make(self):
        circuit = two_domain_core()
        arch = build_scan_chains(circuit)
        return circuit, InputSelector(StumpsArchitecture(arch, seed=2))

    def test_prpg_mode_generates_patterns(self):
        circuit, selector = self.make()
        pattern = selector.next_pattern()
        assert set(pattern) == set(circuit.flop_names())

    def test_external_mode_replays_queue(self):
        circuit, selector = self.make()
        topup = [{name: 1 for name in circuit.flop_names()}]
        selector.load_external_patterns(topup)
        selector.select(InputSource.EXTERNAL)
        assert selector.external_remaining == 1
        assert selector.next_pattern() == topup[0]
        assert selector.external_remaining == 0
        with pytest.raises(RuntimeError):
            selector.next_pattern()

    def test_next_patterns_batch(self):
        _, selector = self.make()
        assert len(selector.next_patterns(5)) == 5
