"""The benchmark's patch points and its seed-0 results.

Every library name the benchmark wraps is bound, and wrapping then restoring
leaves every name as it was.  The report CSVs of the three in-process
workloads are pinned by sha256 on seed 0 and on the held-out seed 3, so a
change that claims the benchmark's results did not move is checked here, and
the benchmark's own
full pass over each of them, at its smoke size, must pass its checks and
report the same CSV when every library site is wrapped.  The calls each
span takes in that wrapped pass are pinned too.
"""

import hashlib
import importlib
import os
from pathlib import Path

import pytest

from ralearn import harness
from ralearn.harness import ExperimentConfig, report_csv, run_paired_trials
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


# report CSV sha256 of each workload's seed-0 batch, as bench/run.py builds it
BENCH_SEED0_DIGESTS = {
    "cal-t1024": "792da83c466e6f9eacc73ed51492561954291b5938bc8d756465e4c34d03186a",
    "erm-t1024": "a3e93cc6600040c502f45f3407d5807a3c1d2d4bced9247f18db3c387073666d",
    "replical-i48": "4b41392e9f7d57c52cc1989c624b8bd5c20477607afd2097a064dd0673e6fc7b",
}


@pytest.fixture
def bench_run(monkeypatch):
    # importing run.py pins OPENBLAS_NUM_THREADS; the fixture puts it back
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("run")


# the same on seed 3, whose b_seed and data_seed config_doc derives per workload
BENCH_SEED3_DIGESTS = {
    "cal-t1024": "744b7f44784668288f31eda29f32e6429842f927aadcdfa8adcf9a1c2bf3fdc9",
    "erm-t1024": "0aef31940d906393cc5995684b2fde72c7607cb339cae8e0d9938777d4af6a1f",
    "replical-i48": "18d31497aa4ac7b2bb094ac9ceff48297807f72e37d93005bf362cbbe3c499d8",
}


def _bench_report_digest(bench_run, name, seed):
    workload = bench_run.WORKLOADS[name]
    cfg = ExperimentConfig.from_dict(bench_run.config_doc(workload, seed, workload.pairs))
    return hashlib.sha256(report_csv(run_paired_trials(cfg)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BENCH_SEED0_DIGESTS))
def test_bench_seed0_report_is_pinned(bench_run, name):
    assert _bench_report_digest(bench_run, name, 0) == BENCH_SEED0_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(BENCH_SEED3_DIGESTS))
def test_bench_seed3_report_is_pinned(bench_run, name):
    assert _bench_report_digest(bench_run, name, 3) == BENCH_SEED3_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(BENCH_SEED0_DIGESTS))
def test_bench_full_pass_passes_its_checks(bench_run, name):
    # the library calls the benchmark makes, at its --smoke batch size:
    # problem_stats, iter_paired_runs and summarize_pairs in their shapes
    workload = bench_run.WORKLOADS[name]
    doc = bench_run.config_doc(workload, 0, workload.tiny_pairs)
    cfg, (outcomes, report, text) = bench_run.full_pass(harness, doc)
    oracle = bench_run.ClassOracle(doc["class"]["generator"], doc["class"]["size"])
    assert bench_run.check_batch(workload, cfg, oracle, outcomes, report) == []
    assert text == report_csv(run_paired_trials(cfg))


def _traced_pass(bench_run, spans, doc):
    """The recorder and report CSV of one full pass with every site wrapped."""
    recorder = spans.Recorder()
    recorder.install_library()
    try:
        _, (_, _, text) = bench_run.full_pass(harness, doc)
    finally:
        recorder.restore()
    return recorder, text


@pytest.mark.parametrize("name", sorted(BENCH_SEED0_DIGESTS))
def test_traced_full_pass_reports_what_the_untraced_one_does(bench_run, spans, name):
    # one smoke-size pass with every library site wrapped: the report CSV
    # does not move, and the counts the wrappers read from their arguments
    # (the class's cell count, the shared string's draws and the survivors)
    # are taken
    workload = bench_run.WORKLOADS[name]
    doc = bench_run.config_doc(workload, 0, workload.tiny_pairs)
    cfg, (_, _, plain) = bench_run.full_pass(harness, doc)
    recorder, traced = _traced_pass(bench_run, spans, doc)
    assert traced == plain
    hclass, _ = harness.build_problem(cfg)
    _, calls = recorder.self_times()
    eliminations = calls["core.empirical_errors_from_counts"]
    assert eliminations > 0
    assert recorder.counts["core.empirical_errors_from_counts.bytes_computed"] == (
        17 * hclass.n_hypotheses * hclass.domain_size * eliminations
    )
    # the final pick ranks survivors by keyed hash, which draws nothing
    picks = calls["replicable.final_pick"]
    assert (picks > 0) == (cfg.algo == "replical")
    assert ("replicable.final_pick.draws" in recorder.counts) == (picks > 0)
    assert recorder.counts["replicable.final_pick.draws"] == 0
    assert recorder.counts["replicable.final_pick.survivors"] >= picks


# calls per span of one smoke-size seed-0 pass: a span whose count moves has
# had work moved in or out from under it
_SPAN_COUNTS = (
    "core.sample_labeled_counts",
    "core.empirical_errors_from_counts",
    "core.disagreement_mass",
    "core.disagreement_mask",
    "replicable.final_pick",
    "baselines.result",
)
SMOKE_SPAN_COUNTS = {
    "cal-t1024": (18, 18, 26, 1, 0, 8),
    "replical-i48": (8, 8, 14, 1, 6, 6),
    "erm-t1024": (40, 40, 0, 0, 0, 40),
}


@pytest.mark.parametrize("name", sorted(SMOKE_SPAN_COUNTS))
def test_traced_span_counts_are_pinned(bench_run, spans, name):
    workload = bench_run.WORKLOADS[name]
    recorder, _ = _traced_pass(bench_run, spans, bench_run.config_doc(workload, 0, workload.tiny_pairs))
    _, calls = recorder.self_times()
    assert tuple(calls[span] for span in _SPAN_COUNTS) == SMOKE_SPAN_COUNTS[name]
