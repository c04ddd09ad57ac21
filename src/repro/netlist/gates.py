"""Gate types and gate evaluation primitives.

The whole reproduction works on a flat, technology-independent gate-level
netlist.  This module defines the set of supported gate types together with
their two-valued evaluation semantics: packed evaluation
(``evaluate_packed``), where every operand is an arbitrary-precision Python
integer holding one bit per test pattern (a mask of 1 evaluates one scalar
pattern), and the small-integer opcodes the compiled simulation kernel
interprets.
"""

from __future__ import annotations

import enum
from typing import Sequence


class GateType(enum.Enum):
    """Supported gate/primitive types.

    The set intentionally mirrors the primitives found in the ISCAS-85/89
    benchmark format plus a few DFT-specific primitives that the logic BIST
    flow inserts (observation points are plain ``BUF`` fanout stems, X-blocking
    gates are ``AND``/``OR`` with a constant side input).
    """

    #: Logical AND of all inputs (>= 1 input).
    AND = "and"
    #: Logical NAND of all inputs.
    NAND = "nand"
    #: Logical OR of all inputs.
    OR = "or"
    #: Logical NOR of all inputs.
    NOR = "nor"
    #: Exclusive OR (parity) of all inputs.
    XOR = "xor"
    #: Complement of the parity of all inputs.
    XNOR = "xnor"
    #: Inverter (exactly 1 input).
    NOT = "not"
    #: Non-inverting buffer (exactly 1 input).
    BUF = "buf"
    #: 2:1 multiplexer: inputs are ``(sel, a, b)`` -> ``a`` when sel=0, ``b`` when sel=1.
    MUX = "mux"
    #: Constant logic 0 (no inputs).
    CONST0 = "const0"
    #: Constant logic 1 (no inputs).
    CONST1 = "const1"
    #: D flip-flop.  Inputs are ``(d,)``; the gate output is the Q pin.
    DFF = "dff"
    #: Primary-input placeholder (no inputs); used internally by the circuit graph.
    INPUT = "input"

    @property
    def is_sequential(self) -> bool:
        """True for state-holding primitives (only :attr:`DFF`)."""
        return self is GateType.DFF

    @property
    def is_source(self) -> bool:
        """True for primitives without logic inputs (constants and PIs)."""
        return self in (GateType.CONST0, GateType.CONST1, GateType.INPUT)

    @property
    def is_inverting(self) -> bool:
        """True when the gate complements the natural function of its class.

        Used by fault collapsing and by SCOAP to decide output parity.
        """
        return self in (GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT)


#: Gate types for which the *controlling value* concept applies.
CONTROLLING_VALUE: dict[GateType, int] = {
    GateType.AND: 0,
    GateType.NAND: 0,
    GateType.OR: 1,
    GateType.NOR: 1,
}

#: Output produced when a controlling value is present at any input.
CONTROLLED_OUTPUT: dict[GateType, int] = {
    GateType.AND: 0,
    GateType.NAND: 1,
    GateType.OR: 1,
    GateType.NOR: 0,
}


class GateEvaluationError(ValueError):
    """Raised when a gate is evaluated with an invalid operand count."""


def _require_inputs(gate_type: GateType, values: Sequence[int], minimum: int) -> None:
    if len(values) < minimum:
        raise GateEvaluationError(
            f"{gate_type.name} requires at least {minimum} input(s), got {len(values)}"
        )


def evaluate_packed(gate_type: GateType, values: Sequence[int], mask: int) -> int:
    """Evaluate a gate on packed two-valued inputs.

    Each element of ``values`` is an integer whose bit *i* carries the input
    value for pattern *i*; ``mask`` has one bit set per valid pattern and is
    used to bound the complement operation.
    """
    if gate_type is GateType.AND or gate_type is GateType.NAND:
        _require_inputs(gate_type, values, 1)
        out = mask
        for v in values:
            out &= v
        return (~out & mask) if gate_type is GateType.NAND else out
    if gate_type is GateType.OR or gate_type is GateType.NOR:
        _require_inputs(gate_type, values, 1)
        out = 0
        for v in values:
            out |= v
        return (~out & mask) if gate_type is GateType.NOR else (out & mask)
    if gate_type is GateType.XOR or gate_type is GateType.XNOR:
        _require_inputs(gate_type, values, 1)
        out = 0
        for v in values:
            out ^= v
        out &= mask
        return (~out & mask) if gate_type is GateType.XNOR else out
    if gate_type is GateType.NOT:
        _require_inputs(gate_type, values, 1)
        return ~values[0] & mask
    if gate_type is GateType.BUF:
        _require_inputs(gate_type, values, 1)
        return values[0] & mask
    if gate_type is GateType.MUX:
        if len(values) != 3:
            raise GateEvaluationError(f"MUX requires exactly 3 inputs, got {len(values)}")
        sel, a, b = values
        return ((~sel & a) | (sel & b)) & mask
    if gate_type is GateType.CONST0:
        return 0
    if gate_type is GateType.CONST1:
        return mask
    raise GateEvaluationError(f"cannot combinationally evaluate gate type {gate_type.name}")


# --------------------------------------------------------------------------- #
# Integer opcodes for the compiled simulation kernel
# --------------------------------------------------------------------------- #
# The compiled kernel (:mod:`repro.simulation.kernel`) lowers every gate into
# a small-integer opcode so its interpreter loop branches on ints instead of
# enum identities, and so 2-input gates (the overwhelming majority in
# generated netlists) take a specialised path with no operand loop.
OP_AND = 0
OP_NAND = 1
OP_OR = 2
OP_NOR = 3
OP_XOR = 4
OP_XNOR = 5
OP_NOT = 6
OP_BUF = 7
OP_MUX = 8
OP_CONST0 = 9
OP_CONST1 = 10
OP_AND2 = 11
OP_NAND2 = 12
OP_OR2 = 13
OP_NOR2 = 14
OP_XOR2 = 15
OP_XNOR2 = 16

_GENERIC_OPCODES: dict[GateType, int] = {
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
    GateType.NOT: OP_NOT,
    GateType.BUF: OP_BUF,
    GateType.MUX: OP_MUX,
    GateType.CONST0: OP_CONST0,
    GateType.CONST1: OP_CONST1,
}

_BINARY_OPCODES: dict[GateType, int] = {
    GateType.AND: OP_AND2,
    GateType.NAND: OP_NAND2,
    GateType.OR: OP_OR2,
    GateType.NOR: OP_NOR2,
    GateType.XOR: OP_XOR2,
    GateType.XNOR: OP_XNOR2,
}


#: Opcode -> the GateType it evaluates (specialised opcodes map to their base type).
OPCODE_GATE_TYPES: dict[int, GateType] = {
    op: gate_type for gate_type, op in _GENERIC_OPCODES.items()
}
OPCODE_GATE_TYPES.update(
    {op: gate_type for gate_type, op in _BINARY_OPCODES.items()}
)


def gate_opcode(gate_type: GateType, num_inputs: int) -> int:
    """Kernel opcode for a gate, validating the operand count at compile time.

    The arity rules match :func:`evaluate_packed` exactly, so a circuit that
    compiles also evaluates, and one that cannot be evaluated fails fast at
    kernel-construction time instead of mid-simulation.
    """
    if gate_type is GateType.MUX:
        if num_inputs != 3:
            raise GateEvaluationError(f"MUX requires exactly 3 inputs, got {num_inputs}")
        return OP_MUX
    if gate_type in (GateType.CONST0, GateType.CONST1):
        return _GENERIC_OPCODES[gate_type]
    if gate_type in (GateType.NOT, GateType.BUF):
        if num_inputs < 1:
            raise GateEvaluationError(
                f"{gate_type.name} requires at least 1 input(s), got {num_inputs}"
            )
        return _GENERIC_OPCODES[gate_type]
    if gate_type in _GENERIC_OPCODES:
        if num_inputs < 1:
            raise GateEvaluationError(
                f"{gate_type.name} requires at least 1 input(s), got {num_inputs}"
            )
        if num_inputs == 2:
            return _BINARY_OPCODES[gate_type]
        return _GENERIC_OPCODES[gate_type]
    raise GateEvaluationError(f"cannot combinationally evaluate gate type {gate_type.name}")


#: Mapping from the names used in .bench files (and a few aliases) to GateType.
GATE_NAME_ALIASES: dict[str, GateType] = {
    "and": GateType.AND,
    "nand": GateType.NAND,
    "or": GateType.OR,
    "nor": GateType.NOR,
    "xor": GateType.XOR,
    "xnor": GateType.XNOR,
    "not": GateType.NOT,
    "inv": GateType.NOT,
    "buf": GateType.BUF,
    "buff": GateType.BUF,
    "mux": GateType.MUX,
    "const0": GateType.CONST0,
    "const1": GateType.CONST1,
    "tie0": GateType.CONST0,
    "tie1": GateType.CONST1,
    "dff": GateType.DFF,
    "input": GateType.INPUT,
}


def parse_gate_type(name: str) -> GateType:
    """Translate a textual gate name (case-insensitive) into a :class:`GateType`."""
    key = name.strip().lower()
    try:
        return GATE_NAME_ALIASES[key]
    except KeyError as exc:
        raise ValueError(f"unknown gate type name: {name!r}") from exc
