"""The oracle boundary: no module of ``src/repro`` outside ``repro/oracle/``
imports ``repro.oracle``.

The oracles are what the production engines are tested against, so a
production module that reached one would be checked against itself.  The
walk reads every module with :mod:`ast` (nothing is imported) and resolves
relative imports against the module's own package, so ``from ..oracle
import x`` is caught as surely as ``import repro.oracle``.  The
selector that once picked the oracle through the config stays deleted, and
so do the knobs that picked a second top-up, backtrace or TPI ranking path.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
ORACLE = "repro.oracle"


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(source: str, module: str, is_package: bool):
    """Every module ``source`` imports, relative imports resolved, plus
    ``base.name`` for each ``from base import name`` (a name may be a
    submodule)."""
    package = module if is_package else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                base = f"{base}.{node.module}" if node.module else base
            else:
                base = node.module
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.args[0].value


def reaches_oracle(name: str) -> bool:
    return name == ORACLE or name.startswith(ORACLE + ".")


def violations(path: Path) -> list[str]:
    module = module_name(path)
    names = imported_modules(path.read_text(), module, path.name == "__init__.py")
    return [f"{module} imports {name}" for name in names if reaches_oracle(name)]


def test_no_production_module_imports_the_oracle():
    modules = sorted((SRC / "repro").rglob("*.py"))
    production = [
        path for path in modules if not reaches_oracle(module_name(path))
    ]
    assert len(production) < len(modules), "the oracle package is missing"
    found = [line for path in production for line in violations(path)]
    assert not found, found


@pytest.mark.parametrize(
    "source",
    [
        "import repro.oracle",
        "import repro.oracle.podem as podem",
        "from repro.oracle import generate_reference",
        "from repro import oracle",
        "from ..oracle import generate_reference",
        "from ..oracle.podem import generate_reference",
        "from .. import oracle",
        "def f():\n    from ..oracle import topup\n",
        "import importlib\nimportlib.import_module('repro.oracle.topup')",
    ],
)
def test_walk_catches_every_import_form(source):
    names = imported_modules(source, "repro.atpg.topup", is_package=False)
    assert any(reaches_oracle(name) for name in names)


def test_walk_ignores_lookalikes():
    source = "from ..atpg import oracle_free\nimport repro.oracles_elsewhere\n"
    names = imported_modules(source, "repro.atpg.topup", is_package=False)
    assert not any(reaches_oracle(name) for name in names)



@pytest.mark.parametrize(
    "module, owner, name",
    [
        ("repro.core.config", "LogicBistConfig", "atpg_engine"),
        ("repro.atpg.podem", "PodemAtpg", "engine"),
        ("repro.atpg.topup", "TopUpAtpg", "engine"),
        ("repro.atpg", None, "COMPILED_ENGINE"),
        ("repro.atpg", None, "REFERENCE_ENGINE"),
        ("repro.core.config", "LogicBistConfig", "atpg_backtrace"),
        ("repro.core.config", "LogicBistConfig", "topup_compaction"),
        ("repro.core.config", "LogicBistConfig", "topup_block_size"),
        ("repro.core.config", "LogicBistConfig", "pipeline_workers"),
        ("repro.core.config", "LogicBistConfig", "campaign_fault_shards"),
        ("repro.atpg.podem", "PodemAtpg", "backtrace"),
        ("repro.atpg.topup", "TopUpAtpg", "backtrace"),
        ("repro.atpg.topup", "TopUpAtpg", "_run_batched"),
        ("repro.atpg", None, "BACKTRACE_FIRST_X"),
        ("repro.atpg", None, "BACKTRACE_SCOAP"),
        ("repro.atpg", None, "reverse_order_compaction"),
        ("repro.atpg.compiled", None, "scoap_guidance"),
        ("repro.tpi.observability_tpi", "ObservabilityGuidedTpi", "method"),
        ("repro.testability", None, "cop"),
        ("repro.testability", None, "compute_cop"),
        ("repro.faults.fault_sim", "FaultSimulator", "shard_state"),
    ],
)
def test_engine_selector_is_gone(module, owner, name):
    """The oracle is reached by calling it, never through a production knob,
    and no knob or method is left whose only job was to pick a second path."""
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
        if dataclasses.is_dataclass(target):
            assert name not in {field.name for field in dataclasses.fields(target)}
    assert not hasattr(target, name)
