"""The package's import surface and its process entry.

``import ralearn`` loads each public name on first read, and
``ralearn.__main__.run``, which ``python -m ralearn`` and the installed
command both call, runs ``cli.main`` with the import-time objects frozen out
of garbage collection.  The test settings in ``pyproject.toml`` turn every
warning into an error without letting a failing property test stop the run.
"""

import ast
import gc
import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import ralearn
import ralearn.__main__
from ralearn.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ENTRIES = {
    "module": ["-m", "ralearn"],
    "run": ["-c", "import sys; from ralearn.__main__ import run; sys.exit(run())"],
}


def child(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        timeout=60,
    )


def test_import_loads_no_module():
    proc = child(
        "-c",
        "import sys, ralearn; "
        "print([m for m in sys.modules if m == 'numpy' or m.startswith('ralearn.')])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"[]"


def test_every_public_name_is_its_modules_object():
    for name in ralearn.__all__:
        module = importlib.import_module(f"ralearn.{ralearn._MODULES[name]}")
        value = getattr(ralearn, name)
        assert value is getattr(module, name), name
        # defined there, not imported there from elsewhere
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_dir_lists_every_public_name_and_an_unknown_name_raises():
    assert set(ralearn.__all__) <= set(dir(ralearn))
    with pytest.raises(AttributeError, match="no_such_name"):
        ralearn.no_such_name


def test_installed_command_is_the_process_entry():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, func = scripts["ralearn"].partition(":")
    assert getattr(importlib.import_module(module), func) is ralearn.__main__.run
    # and it is what ``python -m ralearn`` calls
    tree = ast.parse(Path(ralearn.__main__.__file__).read_text())
    guard = [node for node in tree.body if isinstance(node, ast.If)]
    called = {
        node.func.id
        for node in ast.walk(guard[-1])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert func in called


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize(
    "argv, code",
    [
        (["pair", "--algo", "replical", "--trials", "2", "--format", "json"], 0),
        (["pair", "--format", "yaml"], 2),
        (["pair", "--domain-size", "0"], 3),
        (
            [
                "run", "--algo", "a2", "--class", "thresholds", "--domain-size", "128",
                "--target", "128", "--nu", "0.05", "--epsilon", "0.1", "--delta", "0.1",
                "--constants", "c_a2=1",
            ],
            4,
        ),
    ],
    ids=["ok", "usage", "parameter", "runtime"],
)
def test_process_entry_prints_and_exits_as_main_does(entry, argv, code, capsysbinary):
    assert main(argv) == code
    captured = capsysbinary.readouterr()
    proc = child(*ENTRIES[entry], *argv)
    assert proc.returncode == code
    assert proc.stdout == captured.out
    assert proc.stderr == captured.err


def test_process_entry_runs_main_with_the_collector_on_and_imports_frozen():
    probe = (
        "import gc, sys\n"
        "import ralearn.cli\n"
        "print(gc.isenabled(), gc.get_freeze_count())\n"
        "def probe(argv=None):\n"
        "    print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
        "    return 5\n"
        "ralearn.cli.main = probe\n"
        "from ralearn.__main__ import run\n"
        "sys.exit(run())\n"
    )
    proc = child("-c", probe)
    assert proc.returncode == 5, proc.stderr
    assert proc.stdout.split(b"\n") == [b"True 0", b"True True", b""]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_in_process_leaves_the_collector_alone(enabled, capsys):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert main(["theta", "--domain-size", "8"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()


def test_a_failing_hypothesis_test_leaves_the_run_going(tmp_path):
    # a failing @given test makes Hypothesis's plugin import libcst, whose
    # import warns; under the "error" filter that stopped the whole run with
    # INTERNALERROR.  The same warning raised from anywhere else still fails.
    (tmp_path / "test_two.py").write_text(
        "import warnings\n"
        "import pytest\n"
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "\n"
        "def test_passes():\n"
        "    with pytest.raises(DeprecationWarning):\n"
        "        warnings.warn('mypy_extensions.TypedDict is deprecated', DeprecationWarning)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert b"INTERNALERROR" not in out, out.decode()
    assert b"1 failed, 1 passed" in proc.stdout, out.decode()
    assert proc.returncode == 1
