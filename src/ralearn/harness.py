"""Monte-Carlo experiment engine.

Configs are plain JSON documents validated against a published schema.  Every
random stream in a batch is derived from two seeds: the shared-string seed
(internal choices) and the data seed (sample draws), with per-trial and
per-side derivations, so any run can be replayed exactly from its config and
batches give identical totals regardless of execution order.
"""
from __future__ import annotations

import csv
import io
import json
import math
import numbers
import operator
import re
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .baselines import (
    Constants,
    RunResult,
    a2_plan,
    cal_plan,
    erm_plan,
    run_a2,
    run_cal,
    run_passive_erm,
)
from .core import (
    DataModel,
    HypothesisClass,
    ParameterError,
    Problem,
    explicit,
    intervals,
    thresholds,
    worst_case,
)
from .randomness import RandomString
from .replicable import replica2_plan, replical_plan, run_replica2, run_replical

# not called here since Problem computes the geometry; bench/spans.py wraps
# these names at every module that imports them, this one included
from .core import disagreement_coefficient, noise_rate  # noqa: F401


class Learner(NamedTuple):
    """A learner in two halves: ``size(problem, cfg)`` makes every parameter
    check and returns the batch's plan, and ``run(problem, plan, shared,
    rng)`` returns one side's RunResult from it."""

    size: Callable
    run: Callable


# Each entry looks its functions up in this module's globals when called, so
# a wrapper put on those names (the traced benchmark run does) sees every call.
LEARNERS = {
    "erm": Learner(
        lambda p, cfg: erm_plan(p, cfg.eps, cfg.delta, cfg.constants),
        lambda p, plan, shared, rng: run_passive_erm(p, plan, rng),
    ),
    "cal": Learner(
        lambda p, cfg: cal_plan(p, cfg.eps, cfg.delta, cfg.constants),
        lambda p, plan, shared, rng: run_cal(p, plan, rng),
    ),
    "a2": Learner(
        lambda p, cfg: a2_plan(p, cfg.eps, cfg.delta, cfg.constants),
        lambda p, plan, shared, rng: run_a2(p, plan, rng),
    ),
    "replical": Learner(
        lambda p, cfg: replical_plan(p, cfg.eps, cfg.delta, cfg.rho, cfg.constants),
        lambda p, plan, shared, rng: run_replical(p, plan, shared, rng),
    ),
    "replica2": Learner(
        lambda p, cfg: replica2_plan(p, cfg.eps, cfg.delta, cfg.rho, cfg.constants),
        lambda p, plan, shared, rng: run_replica2(p, plan, shared, rng),
    ),
}
ALGORITHMS = tuple(LEARNERS)


def _explicit_class(cfg: ExperimentConfig) -> HypothesisClass:
    if cfg.matrix is None:
        raise ParameterError("explicit class needs a prediction matrix")
    return explicit(cfg.matrix)


CLASS_GENERATORS = {
    "thresholds": lambda cfg: thresholds(cfg.domain_size),
    "intervals": lambda cfg: intervals(cfg.domain_size),
    "worst_case": lambda cfg: worst_case(cfg.domain_size),
    "explicit": _explicit_class,
}
GENERATORS = tuple(CLASS_GENERATORS)

_SEED_PATTERN = "^(0x)?[0-9a-fA-F]+$"

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "class": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "generator": {"enum": list(GENERATORS)},
                "size": {"type": "integer", "minimum": 1},
                "matrix": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "array", "minItems": 1, "items": {"enum": [0, 1]}},
                },
                "weights": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "number", "minimum": 0},
                },
                "target": {"type": ["integer", "null"], "minimum": 0},
                "eta": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "algo": {"enum": list(ALGORITHMS)},
        "algos": {"type": "array", "items": {"enum": list(ALGORITHMS)}, "minItems": 1},
        "epsilon": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "rho": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "trials": {"type": "integer", "minimum": 1},
        "b_seed": {"type": "string", "pattern": _SEED_PATTERN},
        "data_seed": {"type": "string", "pattern": _SEED_PATTERN},
        "constants": {"type": "object", "additionalProperties": {"type": "number"}},
    },
}

# each field's key in a config document, dotted under ``class``
_DOC_KEYS = {
    "class_name": "class.generator", "domain_size": "class.size", "matrix": "class.matrix",
    "weights": "class.weights", "target": "class.target", "eta": "class.eta", "algo": "algo",
    "algos": "algos", "eps": "epsilon", "delta": "delta", "rho": "rho", "trials": "trials",
    "b_seed": "b_seed", "data_seed": "data_seed", "constants": "constants",
}


def _schema_node(key: str) -> dict:
    node = CONFIG_SCHEMA
    for part in key.split("."):
        node = node["properties"][part]
    return node


# JSON Schema's types; a bool is not a number, and 1.0 is an integer
_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    # a tuple is how a config built in Python spells an array
    "array": lambda v: isinstance(v, (list, tuple)),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool)
    and (isinstance(v, numbers.Integral) or (isinstance(v, float) and v.is_integer())),
}
_NOUNS = {"object": "an object", "array": "an array", "string": "a string", "null": "null"}
_NOUNS.update(boolean="a boolean", number="a number", integer="an integer")
# (keyword, violated(value, bound), wording); NaN violates none of them
_BOUNDS = (
    ("minimum", operator.lt, "less than the minimum of"),
    ("maximum", operator.gt, "greater than the maximum of"),
    ("exclusiveMinimum", operator.le, "less than or equal to the minimum of"),
    ("exclusiveMaximum", operator.ge, "greater than or equal to the maximum of"),
)


def _schema_error(path: str, why: str) -> ParameterError:
    return ParameterError(f"config does not match the schema: {path}: {why}")


def _check_schema(value, schema: dict, path: str) -> None:
    """Raise ParameterError naming ``path`` where ``value`` breaks ``schema``.

    Covers the draft 2020-12 keywords CONFIG_SCHEMA uses and no others.
    """
    if "type" in schema:
        names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if not any(_IS_TYPE[name](value) for name in names):
            nouns = " or ".join(_NOUNS[name] for name in names)
            raise _schema_error(path, f"must be {nouns}, got {value!r}")
    # enum equality, except that a bool never equals 0 or 1
    if "enum" in schema and not any(
        value == e and isinstance(value, bool) == isinstance(e, bool) for e in schema["enum"]
    ):
        raise _schema_error(path, f"{value!r} is not one of {schema['enum']!r}")
    if _IS_TYPE["number"](value):
        for key, violated, wording in _BOUNDS:
            if key in schema and violated(value, schema[key]):
                raise _schema_error(path, f"{value!r} is {wording} {schema[key]!r}")
    if isinstance(value, str) and "pattern" in schema and not re.search(schema["pattern"], value):
        raise _schema_error(path, f"{value!r} does not match {schema['pattern']!r}")
    if _IS_TYPE["array"](value):
        if len(value) < schema.get("minItems", 0):
            raise _schema_error(path, f"must have at least {schema['minItems']} items")
        if "items" in schema:
            for i, item in enumerate(value):
                _check_schema(item, schema["items"], f"{path}[{i}]")
    if isinstance(value, dict):
        known = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in known:
                _check_schema(item, known[key], f"{path}.{key}")
            elif extra is False:
                raise _schema_error(f"{path}.{key}", "unknown key")
            elif extra is not True:
                _check_schema(item, extra, f"{path}.{key}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment batch."""

    class_name: str = "thresholds"
    domain_size: int = 16
    matrix: Optional[tuple[tuple[int, ...], ...]] = None
    weights: Optional[tuple[float, ...]] = None
    target: Optional[int] = None
    eta: float = 0.0
    algo: str = "cal"
    algos: tuple[str, ...] = ()
    eps: float = 0.05
    delta: float = 0.01
    rho: float = 0.1
    trials: int = 10
    b_seed: str = "01"
    data_seed: str = "02"
    constants: Constants = field(default_factory=Constants)

    def __post_init__(self):
        # each field meets its CONFIG_SCHEMA node under its document path, so
        # a config built in Python gets a document's rules and messages; the
        # matrix is explicit's to check, Constants checks its own numbers, and
        # None weights or () algos is a document leaving the key out
        for name, key in _DOC_KEYS.items():
            value = getattr(self, name)
            absent = value is None if name == "weights" else name == "algos" and value == ()
            if absent or name in ("matrix", "constants"):
                continue
            node, path = _schema_node(key), f"config.{key}"
            _check_schema(value, node, path)
            # what the schema cannot say: NaN breaks no bound, and 16.0 is
            # kept as 16, for range() and indexing
            if _IS_TYPE["number"](value) and math.isnan(value):
                raise ParameterError(f"{path}: must be a number, got nan")
            if "integer" in node.get("type", ()) and value is not None:
                object.__setattr__(self, name, int(value))
        if not isinstance(self.constants, Constants):
            raise ParameterError(f"constants must be a Constants, got {self.constants!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build from a JSON document that CONFIG_SCHEMA accepts.

        The document is checked in-house with draft 2020-12 semantics for
        exactly the keywords CONFIG_SCHEMA uses: ``type``, ``enum``,
        ``minimum``, ``maximum``, ``exclusiveMinimum``, ``exclusiveMaximum``,
        ``minItems``, ``items``, ``pattern``, ``properties`` and
        ``additionalProperties``.  A mismatch raises ParameterError naming
        the offending path, such as ``config.class.size``.  Each key sets
        the field ``_DOC_KEYS`` maps to it, and the constructor's own checks
        follow, so a document fails as its Python spelling does, NaN included.
        """
        _check_schema(doc, CONFIG_SCHEMA, "config")
        # only the keys the document has, so the field defaults are the only copy
        kwargs = {}
        for name, key in _DOC_KEYS.items():
            outer, _, last = key.rpartition(".")
            part = doc.get(outer, {}) if outer else doc
            if last in part:
                kwargs[name] = part[last]
        if "matrix" in kwargs:
            kwargs["matrix"] = tuple(tuple(row) for row in kwargs["matrix"])
        for key in ("weights", "algos"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        if "constants" in kwargs:
            kwargs["constants"] = Constants().updated(kwargs["constants"])
        return cls(**kwargs)


def build_problem(cfg: ExperimentConfig) -> tuple[HypothesisClass, DataModel]:
    """Materialize the hypothesis class and label model a config describes."""
    hclass = CLASS_GENERATORS[cfg.class_name](cfg)
    base = cfg.target
    if base is None:
        # the single-flip construction's zero row is its natural center; for
        # ordered classes the middle hypothesis keeps both labels present
        base = 0 if cfg.class_name == "worst_case" else hclass.n_hypotheses // 2
    weights = np.asarray(cfg.weights, dtype=np.float64) if cfg.weights is not None else None
    return hclass, DataModel.agnostic(hclass, base, cfg.eta, weights)


def problem_stats(
    hclass: HypothesisClass, model: DataModel, cfg: ExperimentConfig
) -> tuple[float, float, int]:
    """(theta, nu, best-index) for reporting; ``cfg`` is not read."""
    problem = Problem(hclass, model)
    return problem.theta, problem.nu, problem.center


def data_stream(data_seed: str, *key: int) -> np.random.Generator:
    """Per-trial data randomness, derived only from the seed and the key."""
    entropy = int(data_seed, 16)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=tuple(key)))


# ---------------------------------------------------------------------------
# paired trials


@dataclass(frozen=True)
class PairOutcome:
    """Both sides of one paired run, or the failures that replaced them."""

    pair_index: int
    b_hex: str
    data_seed_first: str
    data_seed_second: str
    result_first: Optional[RunResult]
    result_second: Optional[RunResult]
    failure_first: Optional[str]
    failure_second: Optional[str]
    agreed: bool


@dataclass(frozen=True)
class TrialRow:
    """One CSV row: one side of one paired trial."""

    trial: int
    algo: str
    epsilon: float
    delta: float
    rho: float
    nu: float
    theta: float
    labels_used: int
    unlabeled_used: int
    rounds: int
    err_final: float
    signature_hash: str
    b_seed: str
    data_seed: str
    agreed: bool


CSV_COLUMNS = tuple(f.name for f in fields(TrialRow))


@dataclass(frozen=True)
class ReplicabilityReport:
    """Aggregate statistics over a batch of paired runs."""

    algo: str
    pairs: int
    agreements: int
    agreement_rate: float
    wilson_low: float
    wilson_high: float
    error_mean: float
    error_max: float
    labels_mean: float
    labels_max: int
    unlabeled_mean: float
    unlabeled_max: int
    halving_frequency: float
    failure_counts: tuple[tuple[str, int], ...]
    rows: tuple[TrialRow, ...]

    def to_jsonable(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["failure_counts"] = dict(self.failure_counts)
        doc["rows"] = [{col: getattr(r, col) for col in CSV_COLUMNS} for r in self.rows]
        return doc


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Score confidence interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z**2 / (4.0 * n**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def halving_fraction(traces: Iterable[Sequence]) -> float:
    """Fraction of consecutive round transitions where the recorded
    disagreement dropped to half or less."""
    halved = 0
    total = 0
    for trace in traces:
        for a, b in zip(trace, trace[1:]):
            total += 1
            if b.disagreement <= a.disagreement / 2.0 + 1e-12:
                halved += 1
    return halved / total if total else 0.0


def iter_paired_runs(
    cfg: ExperimentConfig,
    hclass: Optional[HypothesisClass] = None,
    model: Optional[DataModel] = None,
    *,
    problem: Optional[Problem] = None,
) -> Iterator[PairOutcome]:
    """Run the config's paired trials one at a time.

    A caller that already holds the batch's ``problem`` passes it, and
    ``hclass`` and ``model`` are then ignored.  Otherwise the problem's
    geometry is computed once, before the first pair, and so is the
    learner's plan.  Each pair derives one shared string from the master
    seed and the pair index; the two sides draw data from independent
    streams.  A failing side is recorded by exception type instead of
    aborting the batch; a plan that cannot be made fails every side.
    """
    if problem is None:
        if hclass is None or model is None:
            hclass, model = build_problem(cfg)
        problem = Problem(hclass, model)
    learner = LEARNERS[cfg.algo]
    plan, unsized = None, None
    try:
        plan = learner.size(problem, cfg)
    except (ParameterError, RuntimeError) as e:
        unsized = type(e).__name__
    master = RandomString(cfg.b_seed)
    for i in range(cfg.trials):
        b = master.spawn(f"pair/{i}")
        sides: list[Optional[RunResult]] = []
        failures: list[Optional[str]] = []
        seeds: list[str] = []
        for side in (0, 1):
            seeds.append(f"{cfg.data_seed}:{i}:{side}")
            result, failure = None, unsized
            if unsized is None:
                try:
                    result = learner.run(problem, plan, b, data_stream(cfg.data_seed, i, side))
                except (ParameterError, RuntimeError) as e:
                    failure = type(e).__name__
            sides.append(result)
            failures.append(failure)
        agreed = (
            sides[0] is not None
            and sides[1] is not None
            and sides[0].signature == sides[1].signature
        )
        yield PairOutcome(
            pair_index=i,
            b_hex=b.seed_hex,
            data_seed_first=seeds[0],
            data_seed_second=seeds[1],
            result_first=sides[0],
            result_second=sides[1],
            failure_first=failures[0],
            failure_second=failures[1],
            agreed=agreed,
        )


def summarize_pairs(
    cfg: ExperimentConfig,
    outcomes: Sequence[PairOutcome],
    theta: float,
    nu: float,
) -> ReplicabilityReport:
    """Aggregate a batch of paired outcomes; insensitive to their order."""
    outcomes = sorted(outcomes, key=lambda o: o.pair_index)
    agreements = sum(1 for o in outcomes if o.agreed)
    pairs = len(outcomes)
    rows: list[TrialRow] = []
    errors: list[float] = []
    labels: list[int] = []
    unlabeled: list[int] = []
    failures: dict[str, int] = {}
    traces = []
    for o in outcomes:
        for result, failure, seed in (
            (o.result_first, o.failure_first, o.data_seed_first),
            (o.result_second, o.failure_second, o.data_seed_second),
        ):
            if result is None:
                failures[failure] = failures.get(failure, 0) + 1
                continue
            errors.append(result.error)
            labels.append(result.labels_used)
            unlabeled.append(result.unlabeled_used)
            traces.append(result.trace)
            rows.append(
                TrialRow(
                    trial=o.pair_index,
                    algo=cfg.algo,
                    epsilon=cfg.eps,
                    delta=cfg.delta,
                    rho=cfg.rho,
                    nu=nu,
                    theta=theta,
                    labels_used=result.labels_used,
                    unlabeled_used=result.unlabeled_used,
                    rounds=result.rounds,
                    err_final=result.error,
                    signature_hash=result.signature_hash,
                    b_seed=o.b_hex,
                    data_seed=seed,
                    agreed=o.agreed,
                )
            )
    low, high = wilson_interval(agreements, pairs)
    return ReplicabilityReport(
        algo=cfg.algo,
        pairs=pairs,
        agreements=agreements,
        agreement_rate=agreements / pairs if pairs else 0.0,
        wilson_low=low,
        wilson_high=high,
        error_mean=float(np.mean(errors)) if errors else 0.0,
        error_max=float(np.max(errors)) if errors else 0.0,
        labels_mean=float(np.mean(labels)) if labels else 0.0,
        labels_max=int(np.max(labels)) if labels else 0,
        unlabeled_mean=float(np.mean(unlabeled)) if unlabeled else 0.0,
        unlabeled_max=int(np.max(unlabeled)) if unlabeled else 0,
        halving_frequency=halving_fraction(traces),
        failure_counts=tuple(sorted(failures.items())),
        rows=tuple(rows),
    )


def run_paired_trials(cfg: ExperimentConfig) -> ReplicabilityReport:
    """Full paired-replicability experiment for one config."""
    problem = Problem(*build_problem(cfg))
    outcomes = list(iter_paired_runs(cfg, problem=problem))
    return summarize_pairs(cfg, outcomes, problem.theta, problem.nu)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepRow:
    """One learner at one accuracy target, summarized over ``trials`` single
    runs: mean and largest label count, mean unlabeled draws, mean exact
    error, and the share of runs whose error is at most ν + ε."""

    algo: str
    epsilon: float
    trials: int
    labels_mean: float
    labels_max: int
    unlabeled_mean: float
    error_mean: float
    within_target_fraction: float


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepTable:
    """A label-complexity sweep: one row per learner and accuracy target, in
    the order the sweep ran them; ``SWEEP_COLUMNS`` names the CSV columns."""

    rows: tuple[SweepRow, ...]

    def to_jsonable(self) -> dict:
        return {"rows": [{col: getattr(r, col) for col in SWEEP_COLUMNS} for r in self.rows]}


def label_complexity_sweep(cfg: ExperimentConfig, eps_list: Sequence[float]) -> SweepTable:
    """Mean label usage per accuracy target per algorithm, over single runs,
    each learner sized once per accuracy target.

    The within-target fraction compares each run's exact error against the
    best-in-class error plus the accuracy target, which reduces to the plain
    target when labels are noiseless.
    """
    if not eps_list:
        raise ParameterError("sweep needs at least one accuracy target")
    problem = Problem(*build_problem(cfg))
    algos = cfg.algos or (cfg.algo,)
    master = RandomString(cfg.b_seed)
    rows: list[SweepRow] = []
    for ai, algo in enumerate(algos):
        learner = LEARNERS[algo]
        for ei, eps in enumerate(eps_list):
            plan = learner.size(problem, replace(cfg, eps=float(eps)))
            labels: list[int] = []
            unlabeled: list[int] = []
            errors: list[float] = []
            for t in range(cfg.trials):
                b = master.spawn(f"sweep/{algo}/{ei}/{t}")
                rng = data_stream(cfg.data_seed, ai, ei, t)
                result = learner.run(problem, plan, b, rng)
                labels.append(result.labels_used)
                unlabeled.append(result.unlabeled_used)
                errors.append(result.error)
            within = sum(1 for e in errors if e <= problem.nu + eps + 1e-12) / len(errors)
            rows.append(
                SweepRow(
                    algo=algo,
                    epsilon=float(eps),
                    trials=cfg.trials,
                    labels_mean=float(np.mean(labels)),
                    labels_max=int(np.max(labels)),
                    unlabeled_mean=float(np.mean(unlabeled)),
                    error_mean=float(np.mean(errors)),
                    within_target_fraction=within,
                )
            )
    return SweepTable(tuple(rows))


# ---------------------------------------------------------------------------
# serialization


def _csv_text(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def report_csv(report: ReplicabilityReport) -> str:
    return _csv_text(
        CSV_COLUMNS,
        ([getattr(r, col) for col in CSV_COLUMNS] for r in report.rows),
    )


def sweep_csv(table: SweepTable) -> str:
    return _csv_text(
        SWEEP_COLUMNS,
        ([getattr(r, col) for col in SWEEP_COLUMNS] for r in table.rows),
    )


def json_text(payload) -> str:
    """Strict JSON with sorted keys and a two-space indent.

    NaN and infinities raise ValueError instead of being written as the
    non-standard tokens ``NaN`` and ``Infinity``.
    """
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)

