"""Every global name a library module loads is bound in that module.

Python resolves a global name only when the line runs, so a missing import
on a rarely taken path (an error branch, say) stays silent until that path
is hit.  The standard library's ``symtable`` does the compiler's own scope
analysis, which tells locals, closures and globals apart exactly.
"""

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
