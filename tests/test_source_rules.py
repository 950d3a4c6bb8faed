"""Rules the library's and the tools' sources keep."""

from __future__ import annotations

import ast
import warnings
from pathlib import Path

import typoid
from typoid import cli

LIBRARY = sorted(Path(typoid.__file__).parent.glob("*.py"))
TOOLS = sorted((Path(__file__).resolve().parent.parent / "tools").glob("*.py"))
SOURCES = LIBRARY + TOOLS


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so a guard written as one stops guarding
    found = [
        f"{path.parent.name}/{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(LIBRARY) > 1 and TOOLS
    assert found == []


def test_library_compiles_without_warnings():
    # an invalid escape such as "\}" in a regex literal only warns
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_only_the_model_reads_the_environment():
    # TYPOID_MAX_CHECKS, read by `Budget`, is the library's one knob
    readers = {
        path.name
        for path in LIBRARY
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv", "getenvb"))
        or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
        or (isinstance(node, ast.alias) and node.name in ("environ", "getenv"))
    }
    assert readers == {"model.py"}


def test_library_modules_import_only_at_module_level():
    # the modules import one another in one chain, model <- morphisms <-
    # constructions <- {dsl, univalence} <- cli, which a deferred import
    # inside a function would hide; the tools import each tree per run
    found = [
        f"{path.name}:{node.lineno}"
        for path in LIBRARY
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_every_l_code_names_a_law_a_command_can_report():
    # the commands print the reports of the checkers in model.py and
    # morphisms.py; a univalence failure is coded L310 by `_not_univalent`
    literals = {
        node.value
        for path in LIBRARY
        if path.name in ("model.py", "morphisms.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert sorted(set(cli.L_CODES) - literals) == []


def test_only_the_row_table_reads_a_table_through_the_mapping_api():
    # `comp`, `star` and a level's `table` are `model._Table`s stored by
    # rows; their Mapping API takes Python calls per entry, so library code
    # outside that class reads their rows instead
    found = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "_Table"
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript):
                read = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                read = node.func.value if node.func.attr in ("items", "get", "keys", "values") else None
            else:
                continue
            if isinstance(read, ast.Attribute) and read.attr in ("comp", "star", "table") and id(node) not in inside:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
