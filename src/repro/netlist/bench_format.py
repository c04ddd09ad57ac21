"""Reader/writer for an ISCAS-89-style ``.bench`` netlist format.

The format is the de-facto interchange format for academic DFT work::

    # comment
    INPUT(G0)
    INPUT(G1)
    OUTPUT(G17)
    G10 = NAND(G0, G1)
    G11 = DFF(G10)          # sequential element
    G12 = DFF(G10) @domain2 # optional clock-domain annotation (extension)

Extensions over the classical format:

* ``@<domain>`` suffix on a DFF line assigns the flop to a named clock domain
  (the classical format is single-clock); absent annotation means ``clk``.
* ``CONST0`` / ``CONST1`` primitives.
* ``MUX(sel, a, b)``.

The writer emits files that this reader round-trips exactly (same gates, same
pin order, same domains), which is covered by property-based tests.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Union

from .circuit import Circuit
from .gates import GateType, parse_gate_type


class BenchFormatError(ValueError):
    """Raised when a .bench file cannot be parsed."""


_IO_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^)]+?)\s*\)\s*$", re.IGNORECASE)
_ASSIGN_RE = re.compile(
    r"^(?P<out>[^=\s]+)\s*=\s*(?P<type>[A-Za-z_][A-Za-z0-9_]*)\s*"
    r"\(\s*(?P<args>[^)]*)\s*\)\s*(?:@(?P<domain>[A-Za-z0-9_]+))?\s*$"
)


def parse_bench_text(text: str, name: str = "bench") -> Circuit:
    """Parse .bench-format text into a :class:`Circuit`.

    Lines are processed in two passes (declarations then assignments are not
    required to be ordered), so forward references are fine.
    """
    circuit = Circuit(name)
    outputs: list[str] = []
    assignments: list[tuple[str, GateType, list[str], str | None]] = []

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            kind, net = io_match.group(1).upper(), io_match.group(2).strip()
            if kind == "INPUT":
                circuit.add_input(net)
            else:
                outputs.append(net)
            continue
        assign_match = _ASSIGN_RE.match(line)
        if assign_match:
            out = assign_match.group("out").strip()
            gate_type = parse_gate_type(assign_match.group("type"))
            args_text = assign_match.group("args").strip()
            args = [a.strip() for a in args_text.split(",") if a.strip()] if args_text else []
            domain = assign_match.group("domain")
            assignments.append((out, gate_type, args, domain))
            continue
        raise BenchFormatError(f"line {line_number}: cannot parse {raw_line!r}")

    for out, gate_type, args, domain in assignments:
        if gate_type is GateType.INPUT:
            raise BenchFormatError(f"net {out!r}: INPUT cannot appear on an assignment line")
        if gate_type is GateType.DFF:
            circuit.add_gate(out, gate_type, args, clock_domain=domain or "clk")
        else:
            if domain is not None:
                raise BenchFormatError(
                    f"net {out!r}: clock-domain annotation only allowed on DFF lines"
                )
            circuit.add_gate(out, gate_type, args)

    for net in outputs:
        circuit.add_output(net)
    return circuit


def load_bench(path: Union[str, Path]) -> Circuit:
    """Load a circuit from a .bench file on disk."""
    path = Path(path)
    return parse_bench_text(path.read_text(), name=path.stem)


def circuit_to_bench_text(circuit: Circuit) -> str:
    """Serialise a circuit into .bench format text."""
    lines: list[str] = [f"# {circuit.name}"]
    for pi in circuit.primary_inputs:
        lines.append(f"INPUT({pi})")
    for po in circuit.primary_outputs:
        lines.append(f"OUTPUT({po})")
    for gate in circuit:
        if gate.is_primary_input:
            continue
        args = ", ".join(gate.inputs)
        if gate.gate_type is GateType.DFF:
            domain = gate.clock_domain or "clk"
            suffix = "" if domain == "clk" else f" @{domain}"
            lines.append(f"{gate.name} = DFF({args}){suffix}")
        else:
            lines.append(f"{gate.name} = {gate.gate_type.value.upper()}({args})")
    return "\n".join(lines) + "\n"


def save_bench(circuit: Circuit, path: Union[str, Path]) -> None:
    """Write a circuit to a .bench file."""
    Path(path).write_text(circuit_to_bench_text(circuit))

