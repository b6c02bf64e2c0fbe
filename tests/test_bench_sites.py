"""The benchmark's patch points: every library name it wraps is bound, and
wrapping then restoring leaves every name as it was."""

import importlib
from pathlib import Path

import pytest

from ralearn.harness import ExperimentConfig
from ralearn.randomness import RandomString

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def _owners(spans):
    """Every module and class whose names ``install_library`` replaces."""
    modules = sorted({module for _, _, modules, _ in spans.LIBRARY_SITES for module in modules})
    return [importlib.import_module(module) for module in modules] + [ExperimentConfig, RandomString]


def test_every_library_site_is_bound(spans):
    unbound = [
        f"{module}.{func}"
        for _, func, modules, _ in spans.LIBRARY_SITES
        for module in modules
        if not hasattr(importlib.import_module(module), func)
    ]
    assert unbound == []


def _replaced(owners, before):
    """``owner.name`` of every name not bound to the same object as before."""
    return [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, names in zip(owners, before)
        for name in vars(owner).keys() | names.keys()
        if vars(owner).get(name) is not names.get(name)
    ]


def test_install_then_restore_gives_every_name_back(spans):
    owners = _owners(spans)
    # read through __dict__, so a classmethod is compared as itself
    before = [dict(vars(owner)) for owner in owners]
    recorder = spans.Recorder()
    try:
        recorder.install_library()
        assert _replaced(owners, before) != []
    finally:
        recorder.restore()
    assert _replaced(owners, before) == []
