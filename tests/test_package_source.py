"""Static checks over the package source: the runtime imports only the
standard library and itself, no check is an `assert`, which `python -O`
would strip, and every function the benchmark wraps by name exists."""

import ast
import importlib
import sys
from pathlib import Path

import multinorm_sha

from conftest import perfbench_module

PACKAGE = Path(multinorm_sha.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert PACKAGE.name == "multinorm_sha"
    assert {p.name for p in SOURCES} >= {"__init__.py", "abelian.py", "cli.py", "kummer.py"}


def test_imports_are_stdlib_or_the_package():
    foreign = []
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"multinorm_sha"}
            ]
    assert not foreign


def test_no_assert_statements():
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts


def test_structure_imports_no_lattice_routine():
    # the formula route answers its field questions on character rows
    lattice = {"Subgroup", "join", "joint_kernel", "quotient_invariants"}
    imported = {
        alias.name
        for node in ast.walk(_parse(PACKAGE / "structure.py"))
        if isinstance(node, ast.ImportFrom) and node.module in ("abelian", "multinorm_sha.abelian")
        for alias in node.names
    }
    assert imported and not imported & lattice, imported


def test_oracle_imports_nothing_from_structure():
    # the oracle's spanning trees grow on its own pair levels, never on the
    # formula's class trees; nor does it solve the pair system any more
    modules, abelian = set(), set()
    for node in ast.walk(_parse(PACKAGE / "oracle.py")):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            if node.module in ("abelian", "multinorm_sha.abelian"):
                abelian.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert "abelian" in modules, modules
    assert not modules & {"structure", "multinorm_sha.structure"}, modules
    assert "congruence_kernel" not in abelian, abelian


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py wraps these functions by name; a deletion or rename
    # in the package breaks `perfbench/run.py --trace 1`
    spans = perfbench_module("spans")
    missing = [
        f"{module}.{name}"
        for module, name, _span, _extra in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"multinorm_sha.{module}"), name, None))
    ]
    assert not missing, missing
