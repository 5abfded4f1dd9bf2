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


def test_no_json_dumps():
    # reports are written by cli's one shared encoder; json.dumps would build
    # a new encoder, with its cycle check, at every call
    calls = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and node.attr == "dumps"
        or isinstance(node, ast.alias) and node.name == "dumps"
    ]
    assert not calls


def _imported_from_abelian(name):
    return {
        alias.name
        for node in ast.walk(_parse(PACKAGE / name))
        if isinstance(node, ast.ImportFrom) and node.module in ("abelian", "multinorm_sha.abelian")
        for alias in node.names
    }


def test_structure_imports_no_lattice_routine():
    # the formula route answers its field questions on character rows, and
    # reads every elementary divisor through the config's memo
    lattice = {
        "Subgroup", "join", "intersect", "left_kernel", "quotient_invariants",
        "divisor_valuations",
    }
    imported = _imported_from_abelian("structure.py")
    assert imported and not imported & lattice, imported


def test_oracle_imports_nothing_from_structure():
    # the oracle's spanning trees grow on its own pair levels, never on the
    # formula's class trees; and its levels and thresholds come from echelon
    # forms of images, so neither it nor places.py intersects subgroups
    for name in ("oracle.py", "places.py"):
        modules, abelian = set(), set()
        for node in ast.walk(_parse(PACKAGE / name)):
            if isinstance(node, ast.ImportFrom):
                modules.add(node.module)
                if node.module in ("abelian", "multinorm_sha.abelian"):
                    abelian.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
        assert "abelian" in modules, (name, modules)
        assert not modules & {"structure", "multinorm_sha.structure"}, (name, modules)
        assert not abelian & {"intersect", "left_kernel"}, (name, abelian)


def test_kummer_imports_no_route():
    # the Kummer builder only builds a config and its places; the error its
    # checks raise lives in abelian, beside BudgetExceeded
    routes = {"oracle", "structure"}
    imported = set()
    for node in ast.walk(_parse(PACKAGE / "kummer.py")):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("multinorm_sha.")
            imported.add(module)
            if not module:  # from . import oracle
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.removeprefix("multinorm_sha.") for alias in node.names)
    assert "abelian" in imported and not imported & routes, imported


def test_value_types_have_one_constructor():
    # a value type that only stores its fields is built by Value.__init__,
    # which takes them in the order of _fields, so its field list is written
    # once; no second field-setting helper (_init) sits beside it
    from multinorm_sha.places import Place
    from multinorm_sha.structure import ClassNode, GeneratorCert, PatchingData, StructureResult

    hits = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.FunctionDef) and node.name == "_init"
        or isinstance(node, ast.Attribute) and node.attr == "_init"
    ]
    assert not hits, hits
    for cls in (Place, multinorm_sha.Subgroup, ClassNode, PatchingData, GeneratorCert,
                StructureResult):
        assert "__init__" not in cls.__dict__, cls.__name__


def test_selftest_imports_no_intersection():
    # the patchable counts come from one echelon form of a sum of subgroups,
    # |H cap K| = |H| |K| / |H + K|, with no intersection or left kernel
    imported = _imported_from_abelian("selftest.py")
    assert imported and not imported & {"intersect", "left_kernel"}, imported


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


def test_no_module_imports_dataclasses():
    # the value types derive from abelian.Value; the dataclass decorators
    # and their import chain took most of the package's import time
    hits = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert not hits, hits


def test_cli_imports_neither_argparse_nor_re():
    # one table of the commands and one small parser read argv: no argparse
    # tree is built per process, and no regular expression rewrites argv
    imported = set()
    for node in ast.walk(_parse(PACKAGE / "cli.py")):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    assert not imported & {"argparse", "re"}, imported


def test_no_module_reaches_into_an_instance_dict():
    # a config's derived data lives in its one memo (NormalizedConfig.memo),
    # so no module stores anything through an object's __dict__
    hits = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and node.attr == "__dict__"
    ]
    assert not hits, hits


def test_each_scan_predicate_is_named_once():
    # a scan and its debug check are one _scan call, so each admissibility
    # predicate is asked from one place; a second walk that re-derives the
    # scans of an assembled result would name it again
    tree = _parse(PACKAGE / "structure.py")
    predicates = ("_delta_omega_admissible", "_delta_admissible",
                  "_f_omega_admissible", "_f_admissible")
    for name in predicates:
        own = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == name]
        assert len(own) == 1, name
        inside = {id(n) for n in ast.walk(own[0])}
        uses = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == name and id(node) not in inside]
        assert len(uses) == 1, (name, uses)
