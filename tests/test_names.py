"""Every global name a library module loads is bound in that module, and
every name it imports is read.

Python resolves a global name only when the line runs, so a missing import
on a rarely taken path (an error branch, say) stays silent until that path
is hit.  The standard library's ``symtable`` does the compiler's own scope
analysis, which tells locals, closures and globals apart exactly.  An import
nothing reads is found from the ``ast``, which keeps every annotation.
"""

import ast
import builtins
import symtable
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ralearn"


def unbound_globals(source: str, filename: str) -> set[str]:
    """Names some scope loads as globals that the module never binds."""
    top = symtable.symtable(source, filename, "exec")
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    missing = set()
    tables = [top]
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        for s in table.get_symbols():
            name = s.get_name()
            if s.is_referenced() and s.is_global() and name not in bound:
                if not hasattr(builtins, name):
                    missing.add(name)
    return missing


def test_checker_finds_a_missing_import():
    source = "def f():\n    raise MissingError('x')\n"
    assert unbound_globals(source, "<t>") == {"MissingError"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_globals_are_bound(path):
    assert unbound_globals(path.read_text(), str(path)) == set()


def unused_imports(source: str) -> set[str]:
    """Names a module imports and never reads; an annotation is a read.

    Lines marked ``# noqa: F401`` are exempt: they bind names only so that
    the benchmark's span recorder can wrap them in this module.
    """
    lines = source.splitlines()
    imported, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__" and (
                "# noqa: F401" not in lines[node.lineno - 1]
            ):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return imported - read


def test_checker_finds_an_unused_import():
    source = (
        "import os\n"
        "from typing import Optional\n"
        "from m import A, B, C\n"
        "from m import D  # noqa: F401\n"
        "def f(x: Optional[A]) -> B:\n"
        "    return x\n"
    )
    assert unused_imports(source) == {"os", "C"}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_module_imports_are_read(path):
    assert unused_imports(path.read_text()) == set()
