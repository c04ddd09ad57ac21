"""Gate-level netlist substrate (S1).

Public API:

* :class:`~repro.netlist.gates.GateType` and packed two-valued evaluation
  (:func:`~repro.netlist.gates.evaluate_packed`),
* :class:`~repro.netlist.circuit.Circuit` / :class:`~repro.netlist.circuit.Gate`,
* :class:`~repro.netlist.builder.CircuitBuilder` for programmatic construction,
* :mod:`~repro.netlist.bench_format` for ISCAS-style ``.bench`` I/O,
* :class:`~repro.netlist.library.CellLibrary` for area/delay characterisation,
* :func:`~repro.netlist.validate.validate_circuit` for structural lint.
"""

from .circuit import Circuit, CircuitError, Gate
from .builder import CircuitBuilder, chain_of_inverters
from .gates import (
    CONTROLLED_OUTPUT,
    CONTROLLING_VALUE,
    GateEvaluationError,
    GateType,
    evaluate_packed,
    parse_gate_type,
)
from .library import CellLibrary, CellSpec, DEFAULT_CELL_SPECS, RETIMING_FF_AREA
from .bench_format import (
    BenchFormatError,
    circuit_to_bench_text,
    load_bench,
    parse_bench_text,
    save_bench,
)
from .validate import ValidationIssue, ValidationReport, validate_circuit

__all__ = [
    "Circuit",
    "CircuitError",
    "Gate",
    "CircuitBuilder",
    "chain_of_inverters",
    "GateType",
    "GateEvaluationError",
    "evaluate_packed",
    "parse_gate_type",
    "CONTROLLING_VALUE",
    "CONTROLLED_OUTPUT",
    "CellLibrary",
    "CellSpec",
    "DEFAULT_CELL_SPECS",
    "RETIMING_FF_AREA",
    "BenchFormatError",
    "parse_bench_text",
    "circuit_to_bench_text",
    "load_bench",
    "save_bench",
    "ValidationIssue",
    "ValidationReport",
    "validate_circuit",
]
