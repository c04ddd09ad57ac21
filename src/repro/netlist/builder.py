"""Fluent construction helpers for :class:`~repro.netlist.circuit.Circuit`.

The synthetic IP-core generator and the DFT transformations (test-point
insertion, X-blocking, STUMPS hookup) all create gates programmatically; this
module keeps that construction code readable by providing:

* :class:`CircuitBuilder` -- a thin fluent wrapper with automatic unique-name
  generation per prefix, and
* convenience functions for common multi-gate structures (balanced trees,
  parity trees, multiplexers, equality comparators) that would otherwise be
  re-implemented in several places.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .circuit import Circuit, Gate
from .gates import GateType


class CircuitBuilder:
    """Helper that adds gates to a circuit with automatic unique naming."""

    def __init__(self, circuit: Optional[Circuit] = None, name: str = "circuit") -> None:
        self.circuit = circuit if circuit is not None else Circuit(name)
        self._counters: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Naming
    # ------------------------------------------------------------------ #
    def fresh_name(self, prefix: str) -> str:
        """Return a net name of the form ``<prefix>_<n>`` not yet in the circuit."""
        while True:
            count = self._counters.get(prefix, 0)
            self._counters[prefix] = count + 1
            candidate = f"{prefix}_{count}"
            if candidate not in self.circuit:
                return candidate

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #
    def input(self, name: Optional[str] = None) -> str:
        """Add a primary input and return its net name."""
        net = name or self.fresh_name("pi")
        self.circuit.add_input(net)
        return net

    def inputs(self, count: int, prefix: str = "pi") -> list[str]:
        """Add ``count`` primary inputs named ``<prefix>_<i>``."""
        return [self.input(self.fresh_name(prefix)) for _ in range(count)]

    def output(self, net: str) -> str:
        """Mark ``net`` as a primary output and return it."""
        self.circuit.add_output(net)
        return net

    def gate(
        self,
        gate_type: GateType,
        inputs: Sequence[str],
        name: Optional[str] = None,
        **attributes: object,
    ) -> str:
        """Add a combinational gate and return its output net name."""
        net = name or self.fresh_name(gate_type.value)
        self.circuit.add_gate(net, gate_type, inputs, **attributes)
        return net

    def flop(
        self,
        data: str,
        name: Optional[str] = None,
        clock_domain: str = "clk",
        **attributes: object,
    ) -> str:
        """Add a D flip-flop in ``clock_domain`` and return its Q net name."""
        net = name or self.fresh_name("ff")
        self.circuit.add_gate(net, GateType.DFF, [data], clock_domain=clock_domain, **attributes)
        return net

    # Shorthand single-gate helpers -------------------------------------------------
    def and_(self, *inputs: str, name: Optional[str] = None) -> str:
        """AND of the given nets."""
        return self.gate(GateType.AND, list(inputs), name)

    def nand(self, *inputs: str, name: Optional[str] = None) -> str:
        """NAND of the given nets."""
        return self.gate(GateType.NAND, list(inputs), name)

    def or_(self, *inputs: str, name: Optional[str] = None) -> str:
        """OR of the given nets."""
        return self.gate(GateType.OR, list(inputs), name)

    def nor(self, *inputs: str, name: Optional[str] = None) -> str:
        """NOR of the given nets."""
        return self.gate(GateType.NOR, list(inputs), name)

    def xor(self, *inputs: str, name: Optional[str] = None) -> str:
        """XOR (parity) of the given nets."""
        return self.gate(GateType.XOR, list(inputs), name)

    def xnor(self, *inputs: str, name: Optional[str] = None) -> str:
        """XNOR of the given nets."""
        return self.gate(GateType.XNOR, list(inputs), name)

    def not_(self, net: str, name: Optional[str] = None) -> str:
        """Inverter."""
        return self.gate(GateType.NOT, [net], name)

    def buf(self, net: str, name: Optional[str] = None) -> str:
        """Buffer."""
        return self.gate(GateType.BUF, [net], name)

    def mux(self, sel: str, a: str, b: str, name: Optional[str] = None) -> str:
        """2:1 multiplexer: output = a when sel=0, b when sel=1."""
        return self.gate(GateType.MUX, [sel, a, b], name)

    def const(self, value: int, name: Optional[str] = None) -> str:
        """Constant 0 or 1 net."""
        gate_type = GateType.CONST1 if value else GateType.CONST0
        return self.gate(gate_type, [], name)

    # ------------------------------------------------------------------ #
    # Multi-gate structures
    # ------------------------------------------------------------------ #
    def tree(
        self,
        gate_type: GateType,
        nets: Sequence[str],
        arity: int = 2,
        prefix: Optional[str] = None,
    ) -> str:
        """Reduce ``nets`` with a balanced tree of ``gate_type`` gates.

        A single input is passed through unchanged.  The reduction preserves
        the function only for associative gate types (AND/OR/XOR and their
        complements applied at the final stage); for NAND/NOR/XNOR the inner
        levels use the non-inverting version and only the root inverts, which
        keeps the overall function equal to the n-input complex gate.
        """
        if not nets:
            raise ValueError("tree() requires at least one input net")
        if len(nets) == 1:
            return nets[0]
        inner_type = {
            GateType.NAND: GateType.AND,
            GateType.NOR: GateType.OR,
            GateType.XNOR: GateType.XOR,
        }.get(gate_type, gate_type)
        prefix = prefix or f"{gate_type.value}_tree"
        level = list(nets)
        while len(level) > arity:
            next_level: list[str] = []
            for start in range(0, len(level), arity):
                chunk = level[start : start + arity]
                if len(chunk) == 1:
                    next_level.append(chunk[0])
                else:
                    next_level.append(
                        self.gate(inner_type, chunk, self.fresh_name(prefix))
                    )
            level = next_level
        return self.gate(gate_type, level, self.fresh_name(prefix))

    def parity_tree(self, nets: Sequence[str], arity: int = 2) -> str:
        """XOR parity tree over ``nets`` (used by space compactors and MISR feeds)."""
        return self.tree(GateType.XOR, nets, arity=arity, prefix="parity")

    def equality_comparator(self, left: Sequence[str], right: Sequence[str]) -> str:
        """Wide equality comparator: output 1 iff vectors ``left`` and ``right`` match.

        Wide comparators are classic random-pattern-resistant structures (the
        probability of a random match halves with every bit) and are embedded
        in the synthetic cores precisely to exercise the paper's
        fault-simulation-guided test-point insertion.
        """
        if len(left) != len(right):
            raise ValueError("equality_comparator requires equal-length vectors")
        bits = [
            self.xnor(a, b, name=self.fresh_name("eqbit")) for a, b in zip(left, right)
        ]
        return self.tree(GateType.AND, bits, prefix="eq")

    def decoder(self, select: Sequence[str], prefix: str = "dec") -> list[str]:
        """Full decoder: 2**len(select) one-hot outputs."""
        if not select:
            raise ValueError("decoder requires at least one select net")
        inverted = [self.not_(s, self.fresh_name(f"{prefix}_n")) for s in select]
        outputs: list[str] = []
        for code in range(2 ** len(select)):
            terms = [
                select[bit] if (code >> bit) & 1 else inverted[bit]
                for bit in range(len(select))
            ]
            outputs.append(self.tree(GateType.AND, terms, prefix=f"{prefix}_o"))
        return outputs

    def mux_n(self, select: Sequence[str], data: Sequence[str], prefix: str = "muxn") -> str:
        """N:1 multiplexer built from 2:1 muxes; ``len(data) == 2**len(select)``."""
        if len(data) != 2 ** len(select):
            raise ValueError("mux_n requires len(data) == 2**len(select)")
        level = list(data)
        for bit, sel in enumerate(select):
            next_level = []
            for pair_index in range(0, len(level), 2):
                next_level.append(
                    self.mux(
                        sel,
                        level[pair_index],
                        level[pair_index + 1],
                        name=self.fresh_name(f"{prefix}_{bit}"),
                    )
                )
            level = next_level
        return level[0]

    def ripple_adder(
        self,
        a_bits: Sequence[str],
        b_bits: Sequence[str],
        carry_in: Optional[str] = None,
        prefix: str = "add",
    ) -> tuple[list[str], str]:
        """Ripple-carry adder; returns (sum bit nets, carry-out net)."""
        if len(a_bits) != len(b_bits):
            raise ValueError("ripple_adder requires equal-width operands")
        carry = carry_in if carry_in is not None else self.const(0, self.fresh_name(f"{prefix}_cin"))
        sums: list[str] = []
        for index, (a, b) in enumerate(zip(a_bits, b_bits)):
            axb = self.xor(a, b, name=self.fresh_name(f"{prefix}_p{index}"))
            sums.append(self.xor(axb, carry, name=self.fresh_name(f"{prefix}_s{index}")))
            gen = self.and_(a, b, name=self.fresh_name(f"{prefix}_g{index}"))
            prop = self.and_(axb, carry, name=self.fresh_name(f"{prefix}_pc{index}"))
            carry = self.or_(gen, prop, name=self.fresh_name(f"{prefix}_c{index}"))
        return sums, carry

    def register(
        self,
        data_bits: Sequence[str],
        clock_domain: str = "clk",
        prefix: str = "reg",
    ) -> list[str]:
        """Register bank: one flop per data bit; returns the Q nets."""
        return [
            self.flop(d, name=self.fresh_name(prefix), clock_domain=clock_domain)
            for d in data_bits
        ]

    # ------------------------------------------------------------------ #
    # Finishing
    # ------------------------------------------------------------------ #
    def build(self) -> Circuit:
        """Return the underlying circuit (no copy)."""
        return self.circuit

