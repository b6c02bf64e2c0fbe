#!/usr/bin/env python3
"""The ralearn benchmark: paired-trial batches, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

``--trace 0`` times the workload's fixed batch of paired trials, repeated for
``--seconds``, and reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same batch and reports the per-layer
metrics from the spans.  End-to-end times are scaled to a reference host
speed by a calibration kernel timed between trials; see ``hostspeed.py``.
``--smoke`` runs every workload at a tiny size in
both modes, twice each, and checks that every metric BENCHMARK.json names is
emitted and that the counts and result metrics repeat exactly.

Seed 0 (the default) runs the fixed seeds of the README quick start; any
other seed derives a fresh ``b_seed`` and ``data_seed`` per workload.  The
library only ever receives the generated config documents.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (both counted in paired-trial sides) and
``metrics``.  A full record, with an environment stamp, and the spans of a
traced run are written under ``.bench_out/``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

# One BLAS thread, here and in every child: on a host of a few shared vCPUs,
# a second BLAS thread waits for a time slice, and the matrix-vector products
# then stall for whole scheduler ticks at random.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hostspeed  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

FIXED_SEEDS = ("08", "88")  # b_seed and data_seed of the README quick start
CHILD_TIMEOUT_S = 120
# configs a cli-pair run cycles through: one config's 40 pairs vary in cost
# from seed to seed by about 10% of a process, and eight average that out
CLI_CONFIGS = 8
TOL = 1e-12  # the harness's own slack for "err <= nu + eps"


@dataclass(frozen=True)
class Workload:
    name: str
    doc: dict  # config document without trials and seeds
    pairs: int  # paired trials per batch: fixed, so result metrics are exact per seed
    tiny_pairs: int  # batch size in --smoke
    tail: float  # tail percentile; the batch sizes leave at least ten samples beyond it
    kernel: str  # the hostspeed kernel doing this workload's kind of work
    cli: bool = False
    within_by_construction: bool = False  # every side must meet err <= nu + eps


WORKLOADS = {
    w.name: w
    for w in (
        # geometry-bound: disagreement_coefficient is recomputed on every side;
        # no shared string, no final pick
        Workload(
            "cal-t1024",
            {"class": {"generator": "thresholds", "size": 1024}, "algo": "cal",
             "epsilon": 0.002, "delta": 0.05},
            pairs=280, tiny_pairs=4, tail=0.9, kernel="interpreter", within_by_construction=True,
        ),
        # final-pick-bound: a 1177-signature shared permutation per side
        Workload(
            "replical-i48",
            {"class": {"generator": "intervals", "size": 48}, "algo": "replical",
             "epsilon": 0.05, "delta": 0.05, "rho": 0.3},
            pairs=450, tiny_pairs=3, tail=0.9, kernel="hashing",
        ),
        # elimination-bound: one 1025x1024 float copy and product per side;
        # no geometry, no shared string, no rstat
        Workload(
            "erm-t1024",
            {"class": {"generator": "thresholds", "size": 1024}, "algo": "erm",
             "epsilon": 0.01, "delta": 0.05},
            pairs=2000, tiny_pairs=20, tail=0.9, kernel="matrix",
        ),
        # start-up-bound: one `ralearn pair` process per trial, on the README
        # quick-start problem, with a batch small enough that import dominates
        Workload(
            "cli-pair",
            {"class": {"generator": "thresholds", "size": 128}, "algo": "replical",
             "epsilon": 0.05, "delta": 0.05, "rho": 0.3},
            pairs=40, tiny_pairs=2, tail=0.75, kernel="interpreter", cli=True,
        ),
    )
}

# (name, unit); BENCHMARK.json lists the same names and units
END_TO_END = (
    ("trial_ms_p50", "ms"),
    ("trial_ms_tail", "ms"),
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
    ("agreement_rate", "ratio"),
    ("within_target_rate", "ratio"),
    ("labels_mean", "labels"),
)
RESULT_METRICS = ("ok_share", "agreement_rate", "within_target_rate", "labels_mean")

_SELF_MS = (
    "harness.build_problem", "harness.problem_stats", "harness.iter_paired_runs",
    "harness.summarize_pairs", "harness.report_csv", "harness.from_dict",
    "core.noise_rate", "core.disagreement_coefficient", "core.sample_labeled_counts",
    "core.empirical_errors_from_counts", "rstat.rstat_answer_from_mean",
    "randomness.derive_permutation", "replicable.final_pick", "replicable.build_grid",
    "replicable.size_schedule", "replicable.run_replical", "baselines.run_cal",
    "baselines.run_passive_erm", "baselines.result", "cli.main",
)
_CALLS = (
    "core.noise_rate", "core.disagreement_coefficient", "core.sample_labeled_counts",
    "core.empirical_errors_from_counts",
)
# exact counts: they must repeat across passes, and later changes may cite them
COUNTS = (
    tuple(("%s.calls" % n, "count") for n in _CALLS)
    + (
        ("core.geometry.calls_per_problem", "calls/problem"),
        ("core.empirical_errors_from_counts.bytes_computed", "bytes"),
        ("randomness.derive_choice.calls", "count"),
        ("replicable.final_pick.draws_per_survivor", "draws/survivor"),
    )
)
PER_LAYER = (
    tuple(("%s.self_ms" % n, "ms") for n in _SELF_MS)
    + (("core.disagreement_mask.self_ms", "ms"),)
    + COUNTS
    + (
        ("cli.import.numpy_ms", "ms"),
        ("cli.import.jsonschema_ms", "ms"),
        ("cli.import.ralearn_ms", "ms"),
        ("trace.overhead_share", "ratio"),
    )
)
COUNT_NAMES = frozenset(n for n, _ in COUNTS)

# span names per layer, for the "largest self time" line of a traced run
LAYER_GROUPS = {
    "geometry": ("core.noise_rate", "core.disagreement_coefficient"),
    "sampling": ("core.sample_labeled_counts", "core.disagreement_mask", "core.disagreement_mass"),
    "elimination": ("core.empirical_errors_from_counts",),
    "rstat": ("rstat.rstat_answer_from_mean",),
    "final pick": ("replicable.final_pick", "randomness.derive_permutation"),
    "learner": ("baselines.run_cal", "baselines.run_passive_erm", "replicable.run_replical",
                "replicable.build_grid", "replicable.size_schedule", "baselines.result"),
    "harness": ("harness.build_problem", "harness.problem_stats", "harness.iter_paired_runs",
                "harness.summarize_pairs", "harness.report_csv", "harness.from_dict"),
    "cli": ("cli.main",),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    spans: dict | None = None

    @property
    def correct(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# library, seeds, environment


def load_harness():
    """Import ralearn from this checkout's sources, never from elsewhere."""
    init = SRC / "ralearn" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"library sources not found: {init}")
    sys.path.insert(0, str(SRC))
    import ralearn
    from ralearn import harness

    if SRC.resolve() not in Path(ralearn.__file__).resolve().parents:
        raise BenchError(f"ralearn imported from {ralearn.__file__}, not from {SRC}")
    return harness


def config_doc(w: Workload, seed: int, pairs: int, part: int = 0) -> dict:
    """Config ``part`` of a workload's seed; part 0 of seed 0 has the fixed seeds."""
    if seed == 0 and part == 0:
        b_seed, data_seed = FIXED_SEEDS
    else:
        key = f"{w.name}/{seed}" + (f"/{part}" if part else "")
        b_seed, data_seed = (
            hashlib.sha256(f"{key}/{tag}".encode()).hexdigest()[:16] for tag in ("b", "data")
        )
    return {**w.doc, "trials": pairs, "b_seed": b_seed, "data_seed": data_seed}


def child_env() -> dict:
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def env_stamp() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# independent correctness oracle


class ClassOracle:
    """Prediction rows of the built-in generators, rebuilt without the library.

    Every row of ``thresholds`` and ``intervals`` is one run of ones,
    ``[lo, hi)``; the label source is the middle hypothesis, and labels are
    noiseless under uniform weights, so a hypothesis's exact error is its
    Hamming distance to the target row over the domain size.
    """

    def __init__(self, generator: str, n: int):
        if generator == "thresholds":
            runs = [(t, n) for t in range(n + 1)]
        elif generator == "intervals":
            runs = [(0, 0)] + [(a - 1, b) for a in range(1, n + 1) for b in range(a, n + 1)]
        else:
            raise BenchError(f"no oracle for generator {generator!r}")
        self.n = n
        self.runs = runs
        self.target = runs[len(runs) // 2]

    def row(self, h: int) -> bytes:
        lo, hi = self.runs[h]
        return b"\x00" * lo + b"\x01" * (hi - lo) + b"\x00" * (self.n - hi)

    def error(self, h: int) -> float:
        (lo, hi), (tlo, thi) = self.runs[h], self.target
        overlap = max(0, min(hi, thi) - max(lo, tlo))
        return ((hi - lo) + (thi - tlo) - 2 * overlap) / self.n


def check_batch(w: Workload, cfg, oracle: ClassOracle, outcomes, report) -> list[str]:
    """Problems found in one batch's outcomes and report; empty when correct."""
    problems = []
    if [o.pair_index for o in outcomes] != list(range(cfg.trials)):
        problems.append("pair indices are not 0..trials-1")
    labels = []
    for o in outcomes:
        sides = (o.result_first, o.result_second)
        same = None not in sides and sides[0].signature == sides[1].signature
        if o.agreed != same:
            problems.append(f"pair {o.pair_index}: agreed={o.agreed} but signatures say {same}")
        for r in sides:
            if r is None:
                continue
            labels.append(r.labels_used)
            h = r.hypothesis_index
            if r.signature != oracle.row(h):
                problems.append(f"pair {o.pair_index}: signature of h{h} is not its row")
            if abs(r.error - oracle.error(h)) > TOL:
                problems.append(f"pair {o.pair_index}: err {r.error!r} != exact {oracle.error(h)!r}")
            if h not in r.survivors:
                problems.append(f"pair {o.pair_index}: h{h} is not among its survivors")
            if w.within_by_construction and r.error > cfg.eps + TOL:
                problems.append(f"pair {o.pair_index}: err {r.error!r} above eps {cfg.eps}")
    if report.pairs != len(outcomes) or report.agreements != sum(o.agreed for o in outcomes):
        problems.append("report pair or agreement totals do not match the outcomes")
    if labels and not math.isclose(report.labels_mean, statistics.fmean(labels), rel_tol=1e-12):
        problems.append("report labels_mean does not match the outcomes")
    return problems[:10]


def result_metrics(doc: dict) -> dict:
    """Result metrics of a report's ``to_jsonable()`` form."""
    sides = 2 * doc["pairs"]
    failed = sum(doc["failure_counts"].values())
    within = sum(1 for r in doc["rows"] if r["err_final"] <= r["nu"] + r["epsilon"] + TOL)
    return {
        "ok_share": 1.0 - failed / sides,
        "agreement_rate": doc["agreement_rate"],
        "within_target_rate": within / sides,
        "labels_mean": doc["labels_mean"],
    }


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON output")

    return json.loads(text, parse_constant=reject)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# timing helpers


def rank(n: int, q: float) -> int:
    """Nearest rank of percentile ``q`` among ``n`` samples, from 1."""
    return max(1, math.ceil(q * n))


def time_metrics(w: Workload, speed: hostspeed.HostSpeed | None, trials: list, extra: list) -> dict:
    """Trial time metrics of ``(start, seconds)`` trials, scaled by ``speed``
    (unscaled when it is None); ``extra`` is time spent between the trials,
    such as a batch's report."""
    def scale(timings):
        return speed.scale(timings) if speed is not None else [s for _, s in timings]

    times = scale(trials)
    return {
        "trial_ms_p50": 1000.0 * statistics.median(times),
        "trial_ms_tail": 1000.0 * sorted(times)[rank(len(times), w.tail) - 1],
        "trials_per_s": len(times) / (sum(times) + sum(scale(extra))),
    }


def keep_going(count: int, minimum: int, started: float, durations: list[float], seconds: float) -> bool:
    """Run another repeat while the minimum is unmet or one more fits in the time."""
    if count < minimum:
        return True
    return perf_counter() - started + statistics.fmean(durations) <= seconds


def layer_metrics(rec: spans.Recorder, imports: dict | None = None) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass (one batch, or one CLI process),
    and self milliseconds per layer group."""
    self_s, calls = rec.self_times()

    def ms(*names):
        return 1000.0 * sum(self_s.get(n, 0.0) for n in names)

    m = {f"{n}.self_ms": ms(n) for n in _SELF_MS}
    m["core.disagreement_mask.self_ms"] = ms("core.disagreement_mask", "core.disagreement_mass")
    m.update({f"{n}.calls": calls[n] for n in _CALLS})
    m["core.geometry.calls_per_problem"] = (
        calls["core.disagreement_coefficient"] / calls["harness.build_problem"]
    )
    m["core.empirical_errors_from_counts.bytes_computed"] = rec.counts[
        "core.empirical_errors_from_counts.bytes_computed"
    ]
    m["randomness.derive_choice.calls"] = rec.counts["randomness.derive_choice.calls"]
    survivors = rec.counts["replicable.final_pick.survivors"]
    m["replicable.final_pick.draws_per_survivor"] = (
        rec.counts["replicable.final_pick.draws"] / survivors if survivors else 0.0
    )
    imports = imports or {}
    for lib in ("numpy", "jsonschema", "ralearn"):
        m[f"cli.import.{lib}_ms"] = 1000.0 * imports.get(lib, 0.0)
    groups = {g: ms(*names) for g, names in LAYER_GROUPS.items()}
    groups["import"] = 1000.0 * sum(imports.values())
    return m, groups


def combine_passes(passes: list[tuple[dict, dict]], problems: list[str]) -> tuple[dict, dict]:
    """Median times over traced passes; counts must agree exactly across them."""
    first = passes[0][0]
    combined = {}
    for name in first:
        values = [p[0][name] for p in passes]
        if name in COUNT_NAMES:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            combined[name] = values[0]
        else:
            combined[name] = statistics.median(values)
    groups = {g: statistics.median(p[1][g] for p in passes) for g in passes[0][1]}
    return combined, groups


def describe_groups(groups: dict) -> list[str]:
    total = sum(groups.values()) or 1.0
    ranked = sorted(groups.items(), key=lambda kv: -kv[1])
    lines = [f"self time by layer (median traced pass): "
             + ", ".join(f"{g} {v:.1f} ms ({100 * v / total:.0f}%)" for g, v in ranked if v > 0)]
    lines.append(f"largest self time: {ranked[0][0]}")
    return lines


# ---------------------------------------------------------------------------
# in-process workloads


def run_batch(harness, cfg, problem, samples: list, stop_at: float | None = None,
              speed: hostspeed.HostSpeed | None = None):
    """One pass over the config's paired trials, then the report and its CSV.

    Appends ``(start, seconds)`` of each paired trial (both sides) to
    ``samples``, and of the report and CSV as the last return value.  With
    ``speed``, the calibration kernel is timed after every trial.  Past
    ``stop_at`` the pass is cut between trials and yields no report.
    """
    hclass, model, theta, nu = problem
    outcomes = []
    it = harness.iter_paired_runs(cfg, hclass, model)
    while True:
        if stop_at is not None and perf_counter() >= stop_at:
            it.close()
            return outcomes, None, None, None
        t0 = perf_counter()
        try:
            o = next(it)
        except StopIteration:
            break
        samples.append((t0, perf_counter() - t0))
        outcomes.append(o)
        if speed is not None:
            speed.sample()
    t0 = perf_counter()
    report = harness.summarize_pairs(cfg, outcomes, theta, nu)
    text = harness.report_csv(report)
    return outcomes, report, text, (t0, perf_counter() - t0)


def full_pass(harness, doc: dict):
    """Config, problem, statistics, batch, report: what one library user runs."""
    cfg = harness.ExperimentConfig.from_dict(doc)
    hclass, model = harness.build_problem(cfg)
    theta, nu, _ = harness.problem_stats(hclass, model, cfg)
    return cfg, run_batch(harness, cfg, (hclass, model, theta, nu), [])[:3]


def measure_setup(harness, cfg, min_reps: int, budget_s: float) -> tuple[float, float, hostspeed.HostSpeed]:
    """Median scaled and unscaled seconds of build_problem plus problem_stats
    on a fresh problem, and the kernel samples that scaled them.  Set-up is
    geometry on every workload, so the interpreter kernel scales it."""
    speed = hostspeed.HostSpeed("interpreter")
    times = []
    started = perf_counter()
    while len(times) < min_reps or (perf_counter() - started < budget_s and len(times) < 200):
        speed.sample(2)
        t0 = perf_counter()
        hclass, model = harness.build_problem(cfg)
        harness.problem_stats(hclass, model, cfg)
        times.append((t0, perf_counter() - t0))
    speed.sample(2)
    return statistics.median(speed.scale(times)), statistics.median(s for _, s in times), speed


def account(out: Outcome, report, problems: list[str]) -> None:
    """Count one batch's sides; a batch that fails a check fails every side."""
    sides = 2 * report.pairs
    out.attempted += sides
    out.problems += problems
    out.failed += sides if problems else sum(n for _, n in report.failure_counts)


def escaped(out: Outcome, doc: dict, what: str) -> None:
    """An exception left the harness: every side of that batch failed."""
    traceback.print_exc()
    out.attempted += 2 * doc["trials"]
    out.failed += 2 * doc["trials"]
    out.problems.append(f"{what}: exception escaped the harness")


def run_in_process(harness, w: Workload, doc: dict, seconds: float, tiny: bool) -> Outcome:
    """Time repeats of the batch for ``seconds``, after measuring set-up."""
    cfg = harness.ExperimentConfig.from_dict(doc)
    oracle = ClassOracle(doc["class"]["generator"], doc["class"]["size"])
    out = Outcome(metrics={})
    setup_s, setup_raw, setup_speed = measure_setup(harness, cfg, 1 if tiny else 5, 0.0 if tiny else 2.0)
    speed = hostspeed.HostSpeed(w.kernel)
    hclass, model = harness.build_problem(cfg)
    theta, nu, _ = harness.problem_stats(hclass, model, cfg)
    samples, reports, digests, first = [], [], [], None
    deadline = perf_counter() + seconds
    # two whole batches at least, for the repeat check; then cut at the deadline
    while len(digests) < 2 or perf_counter() < deadline:
        try:
            outcomes, report, text, report_timing = run_batch(
                harness, cfg, (hclass, model, theta, nu), samples,
                deadline if len(digests) >= 2 else None, speed,
            )
        except Exception:
            escaped(out, doc, f"batch {len(digests)}")
            break
        if report is None:
            break
        reports.append(report_timing)
        digests.append(sha256(text))
        problems = []
        if first is None:
            first = report.to_jsonable()
            problems = check_batch(w, cfg, oracle, outcomes, report)
        elif digests[-1] != digests[0]:
            problems = [f"batch {len(digests) - 1}: report CSV differs from batch 0"]
        account(out, report, problems)
    if first is None:
        return out
    out.metrics = {
        **time_metrics(w, speed, samples, reports),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **result_metrics(first),
    }
    out.notes += [
        f"batches: {len(digests)} whole of {cfg.trials} pairs, and {len(samples)} trials in all; "
        f"report CSV sha256 {digests[0]}",
        f"trial_ms_tail is p{round(100 * w.tail)} of {len(samples)} trials, "
        f"{len(samples) - rank(len(samples), w.tail)} beyond it",
        f"set-up {setup_speed.describe()}",
        f"trials {speed.describe()}",
        "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in time_metrics(w, None, samples, reports).items())
        + f", setup_s {setup_raw:.6g}",
    ]
    return out


def trace_in_process(harness, w: Workload, doc: dict, seconds: float) -> Outcome:
    """Alternate untraced and traced passes of the same batch."""
    oracle = ClassOracle(doc["class"]["generator"], doc["class"]["size"])
    out = Outcome(metrics={})
    plain, traced, passes, digests = [], [], [], set()
    rec = None
    started = perf_counter()
    while keep_going(len(traced), 2, started, [a + b for a, b in zip(plain, traced)] or [0.0], seconds):
        try:
            t0 = perf_counter()
            cfg, (outcomes, report, text) = full_pass(harness, doc)
            plain.append(perf_counter() - t0)
            account(out, report, check_batch(w, cfg, oracle, outcomes, report) if not passes else [])
            digests.add(sha256(text))
            rec = spans.Recorder()
            rec.install_library()
            try:
                t0 = perf_counter()
                _, (_, report, text) = full_pass(harness, doc)
                traced.append(perf_counter() - t0)
            finally:
                rec.restore()
        except Exception:
            escaped(out, doc, f"traced pass {len(passes)}")
            return out
        digests.add(sha256(text))
        account(out, report, [])
        passes.append(layer_metrics(rec))
    if len(digests) != 1:
        out.problems.append("report CSV differs between untraced and traced passes")
    metrics, groups = combine_passes(passes, out.problems)
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    out.metrics = metrics
    out.spans = rec.to_jsonable()
    out.notes += [f"passes: {len(passes)} untraced and traced, {cfg.trials} pairs each, "
                  f"report CSV sha256 {digests.pop() if len(digests) == 1 else 'MISMATCH'}"]
    out.notes += describe_groups(groups)
    return out


# ---------------------------------------------------------------------------
# the cli-pair workload


def invoke(cmd: list[str]) -> tuple[tuple[float, float], subprocess.CompletedProcess | None]:
    """Run one child to completion: ``((start, seconds), process)``, with no
    process on timeout."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return (t0, perf_counter() - t0), None
    return (t0, perf_counter() - t0), proc


def check_cli_output(proc, expected: dict, first_digest: str | None, what: str) -> list[str]:
    if proc is None:
        return [f"{what}: timed out"]
    if proc.returncode != 0:
        return [f"{what}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    try:
        parsed = strict_json(proc.stdout)
    except ValueError as e:
        return [f"{what}: stdout is not strict JSON: {e}"]
    if parsed != expected:
        return [f"{what}: stdout differs from the in-process report"]
    if first_digest is not None and sha256(proc.stdout) != first_digest:
        return [f"{what}: stdout differs from the first invocation"]
    return []


def cli_reference(harness, w: Workload, doc: dict, path: Path, out: Outcome) -> dict | None:
    """Write one config for ``ralearn pair`` and return its checked in-process
    report as strict JSON; None, with the problem recorded, if there is none."""
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    try:
        cfg, (outcomes, report, _) = full_pass(harness, doc)
    except Exception:
        escaped(out, doc, "in-process reference")
        return None
    oracle = ClassOracle(doc["class"]["generator"], doc["class"]["size"])
    out.problems += check_batch(w, cfg, oracle, outcomes, report)
    try:
        return json.loads(json.dumps(report.to_jsonable(), allow_nan=False))
    except ValueError as e:
        out.problems.append(f"in-process report is not strict JSON: {e}")
        return None


def run_cli(harness, w: Workload, docs: list[dict], tag: str, seconds: float, trace: bool,
            tiny: bool) -> Outcome:
    """Invocation ``i`` runs config ``i mod len(docs)``; a traced run uses the first."""
    out = Outcome(metrics={})
    if trace:
        docs = docs[:1]
    pair_args, expected = [], []
    for part, doc in enumerate(docs):
        path = OUT / f"config_{tag}_{part}.json"
        reference = cli_reference(harness, w, doc, path, out)
        if reference is None:
            return out
        pair_args.append(["pair", "--config", str(path), "--format", "json"])
        expected.append(reference)
    min_runs = 2 if tiny else 40  # p75 needs 40 samples to leave ten beyond it
    digests, plain, traced, passes = [None] * len(docs), [], [], []

    def account(proc, part, what):
        sides = 2 * expected[part]["pairs"]
        problems = check_cli_output(proc, expected[part], digests[part], what)
        out.attempted += sides
        if problems:
            out.problems += problems
            out.failed += sides
        else:
            digests[part] = digests[part] or sha256(proc.stdout)
            out.failed += sum(expected[part]["failure_counts"].values())
        return not problems

    if trace:
        started = perf_counter()
        while keep_going(len(traced), 2 if not tiny else 1, started,
                         [a + b for a, b in zip(plain, traced)] or [0.0], seconds):
            (_, dt), proc = invoke([sys.executable, "-m", "ralearn", *pair_args[0]])
            plain.append(dt)
            account(proc, 0, f"untraced invocation {len(plain) - 1}")
            span_path = OUT / f"spans_{tag}_child.json"
            (_, dt), proc = invoke([sys.executable, str(BENCH_DIR / "cli_child.py"), "trace",
                                    str(span_path), *pair_args[0]])
            traced.append(dt)
            if account(proc, 0, f"traced invocation {len(traced) - 1}"):
                child = json.loads(span_path.read_text())
                span_path.unlink()
                rec = spans.Recorder.from_jsonable(child)
                passes.append(layer_metrics(rec, child["imports"]))
            if len(out.problems) > 10:
                break
        if not passes:
            return out
        metrics, groups = combine_passes(passes, out.problems)
        metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
        out.metrics = metrics
        out.spans = rec.to_jsonable()
        out.notes += [f"invocations: {len(plain)} untraced and {len(traced)} traced, "
                      f"{expected[0]['pairs']} pairs each, stdout sha256 {digests[0]}"]
        out.notes += describe_groups(groups)
        return out

    speed = hostspeed.HostSpeed(w.kernel)
    imports = []
    for _ in range(1 if tiny else 11):
        speed.sample(3)
        timing, proc = invoke([sys.executable, str(BENCH_DIR / "cli_child.py"), "import"])
        if proc is None or proc.returncode != 0:
            out.problems.append("cold import of ralearn.cli failed")
            return out
        imports.append((timing, float(proc.stdout.strip())))
    started = perf_counter()
    while keep_going(len(plain), min_runs, started, [s for _, s in plain] or [0.0], seconds):
        part = len(plain) % len(docs)
        speed.sample(3)
        timing, proc = invoke([sys.executable, "-m", "ralearn", *pair_args[part]])
        plain.append(timing)
        account(proc, part, f"invocation {len(plain) - 1} (config {part})")
        if len(out.problems) > 10:
            break
    speed.sample(3)
    setup = [s * speed.factor(t + dt / 2) for (t, dt), s in imports]
    results = [result_metrics(e) for e in expected]
    out.metrics = {
        **time_metrics(w, speed, plain, []),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        # every config has the same number of pairs, so plain means weigh sides alike
        **{k: statistics.fmean(r[k] for r in results) for k in RESULT_METRICS},
    }
    out.notes += [
        f"invocations: {len(plain)} over {len(docs)} configs of {expected[0]['pairs']} pairs; "
        f"stdout sha256 of config 0 {digests[0]}",
        f"trial_ms_tail is p{round(100 * w.tail)} of {len(plain)} invocations, "
        f"{len(plain) - rank(len(plain), w.tail)} beyond it",
        speed.describe(),
        "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in time_metrics(w, None, plain, []).items())
        + f", setup_s {statistics.median(s for _, s in imports):.6g}",
    ]
    return out


# ---------------------------------------------------------------------------
# entry point


def run_workload(harness, name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> Outcome:
    w = WORKLOADS[name]
    doc = config_doc(w, seed, w.tiny_pairs if tiny else w.pairs)
    OUT.mkdir(exist_ok=True)
    tag = f"{name}_seed{seed}_trace{int(trace)}"
    if w.cli:
        docs = [config_doc(w, seed, doc["trials"], part) for part in range(CLI_CONFIGS)]
        out = run_cli(harness, w, docs, tag, seconds, trace, tiny)
    elif trace:
        out = trace_in_process(harness, w, doc, seconds)
    else:
        out = run_in_process(harness, w, doc, seconds, tiny)
    names = PER_LAYER if trace else END_TO_END
    for metric, _ in names:
        value = out.metrics.get(metric)
        if value is None or not math.isfinite(value):
            out.metrics[metric] = 0.0
            if out.correct:
                out.problems.append(f"metric {metric} was not measured")
    stamp = env_stamp()
    out.notes[:0] = [f"env: {json.dumps(stamp, sort_keys=True)}", f"config: {json.dumps(doc, sort_keys=True)}"]
    if out.spans is not None:
        spans_path = OUT / f"spans_{tag}.json"
        spans_path.write_text(json.dumps(out.spans))
        out.notes.append(f"spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": stamp, "config": doc, "correct": out.correct, "attempted": out.attempted,
        "failed": out.failed, "problems": out.problems, "notes": out.notes,
        "metrics": {m: {"value": out.metrics[m], "unit": u} for m, u in names},
    }
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    return out


def report(name: str, out: Outcome, trace: bool) -> None:
    names = PER_LAYER if trace else END_TO_END
    print(f"workload {name}")
    for note in out.notes:
        print(note)
    for metric, unit in names:
        print(f"  {metric:<50} {out.metrics[metric]:>16.6g} {unit}")
    if out.attempted:
        print(f"  failed_share: {out.failed / out.attempted:.6g} ({out.failed} of {out.attempted} sides)")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed if out.attempted else 1,
        "metrics": {m: {"value": out.metrics[m], "unit": u} for m, u in names},
    }))


def smoke(harness) -> int:
    """Every workload at tiny size, both modes, twice: names, checks, exact repeats."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != list(table):
            failures.append(f"BENCHMARK.json {key} does not list the emitted metrics and units")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in WORKLOADS:
        for trace, repeat in ((False, RESULT_METRICS), (True, COUNT_NAMES)):
            runs = [run_workload(harness, name, 1, 0.2, trace, tiny=True) for _ in range(2)]
            for out in runs:
                failures += [f"{name} trace={int(trace)}: {p}" for p in out.problems]
            for metric in sorted(repeat):
                values = [out.metrics[metric] for out in runs]
                if values[0] != values[1]:
                    failures.append(f"{name} trace={int(trace)}: {metric} did not repeat: {values}")
        print(f"smoke {name}: {'ok' if not any(f.startswith(name) for f in failures) else 'FAILED'}")
    for failure in failures:
        print(f"SMOKE FAILED: {failure}")
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="0 runs the fixed seeds")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        harness = load_harness()
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(harness)
    out = run_workload(harness, args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, out, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
