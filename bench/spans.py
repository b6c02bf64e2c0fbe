"""Span recorder for the traced benchmark run.

The library is instrumented from outside: each function is wrapped at every
module attribute its callers look it up by.  ``from .core import noise_rate``
binds one name per importing module, so wrapping ``ralearn.core.noise_rate``
alone would miss the calls made from ``baselines`` and ``replicable``.
Every wrapped name is put back by :meth:`Recorder.restore`.

A span is ``[name, start, end, parent, trial]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``trial`` the index of the paired
trial being produced (None outside the trial loop).  Spans are kept in
memory and written once, when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import itertools
from collections import Counter, defaultdict
from time import perf_counter


def _matrix_bytes(args, result):
    # computed, not measured: the uint8 matrix read, its float64 copy written,
    # and that copy read again by the matrix-vector product
    return {"bytes_computed": 17 * args[0].predictions.size}


def _final_pick_draws(args, result):
    # the "final-order" label is consumed by the final pick alone, and each
    # run starts from a fresh clone of the shared string
    _, space, rs = args
    return {"draws": rs.draws_made("final-order"), "survivors": space.size}


_LEARNERS = ("ralearn.core", "ralearn.baselines", "ralearn.replicable")

# (span name, function name, modules whose callers look the name up, extra counts)
LIBRARY_SITES = (
    ("harness.build_problem", "build_problem", ("ralearn.harness",), None),
    ("harness.problem_stats", "problem_stats", ("ralearn.harness",), None),
    ("harness.summarize_pairs", "summarize_pairs", ("ralearn.harness",), None),
    ("harness.report_csv", "report_csv", ("ralearn.harness",), None),
    ("core.noise_rate", "noise_rate", _LEARNERS + ("ralearn.harness",), None),
    (
        "core.disagreement_coefficient",
        "disagreement_coefficient",
        _LEARNERS + ("ralearn.harness",),
        None,
    ),
    ("core.disagreement_mask", "disagreement_mask", ("ralearn.core", "ralearn.replicable"), None),
    ("core.disagreement_mass", "disagreement_mass", ("ralearn.core", "ralearn.baselines"), None),
    ("core.sample_labeled_counts", "sample_labeled_counts", _LEARNERS, None),
    ("core.empirical_errors_from_counts", "empirical_errors_from_counts", _LEARNERS, _matrix_bytes),
    ("rstat.rstat_answer_from_mean", "rstat_answer_from_mean", ("ralearn.rstat", "ralearn.replicable"), None),
    ("replicable.final_pick", "_select_final", ("ralearn.replicable",), _final_pick_draws),
    ("replicable.build_grid", "build_grid", ("ralearn.replicable",), None),
    ("replicable.size_schedule", "size_schedule", ("ralearn.replicable",), None),
    ("replicable.run_replical", "run_replical", ("ralearn.replicable", "ralearn.harness"), None),
    ("baselines.run_cal", "run_cal", ("ralearn.baselines", "ralearn.harness"), None),
    ("baselines.run_passive_erm", "run_passive_erm", ("ralearn.baselines", "ralearn.harness"), None),
    ("baselines.result", "_result", ("ralearn.baselines", "ralearn.replicable"), None),
)


class Recorder:
    """Collects spans and call counts from wrapped library functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trial = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.trial]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn, work=None):
        """``fn`` with one span per call; ``work(args, result)`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                for key, value in work(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def timed_generator(self, name: str, fn):
        """A generator of paired trials, with one span per trial produced.

        Spans opened while trial ``i`` is produced carry trial id ``i``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            for index in itertools.count():
                self.trial = index
                span = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                    self.trial = None
                yield item

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` with its calls counted and no span, for very hot leaves."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; classmethods stay classmethods."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install_library(self) -> None:
        """Wrap every library site the benchmark's layers are measured at."""
        for name, func, modules, work in LIBRARY_SITES:
            for module in modules:
                mod = importlib.import_module(module)
                self.patch(mod, func, lambda fn, n=name, w=work: self.timed(n, fn, w))
        harness = importlib.import_module("ralearn.harness")
        randomness = importlib.import_module("ralearn.randomness")
        self.patch(
            harness, "iter_paired_runs", lambda fn: self.timed_generator("harness.iter_paired_runs", fn)
        )
        self.patch(
            harness.ExperimentConfig, "from_dict", lambda fn: self.timed("harness.from_dict", fn)
        )
        self.patch(
            randomness.RandomString,
            "derive_permutation",
            lambda fn: self.timed("randomness.derive_permutation", fn),
        )
        self.patch(
            randomness.RandomString,
            "derive_choice",
            lambda fn: self.counted("randomness.derive_choice.calls", fn),
        )

    def restore(self) -> None:
        """Put back every wrapped name, newest first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> tuple[dict, Counter]:
        """Per span name: total self seconds (duration minus direct children) and calls."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
            calls[name] += 1
        return dict(totals), calls

    def to_jsonable(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    @classmethod
    def from_jsonable(cls, doc: dict) -> "Recorder":
        rec = cls()
        rec.spans = doc["spans"]
        rec.counts = Counter(doc["counts"])
        return rec
