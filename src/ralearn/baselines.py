"""Reference learners without replicability: passive ERM, CAL, and the
agnostic LB/UB elimination learner A².

These set the accuracy and label-complexity baselines the replicable learners
are compared against.  Loop guards use the exact disagreement mass (the
simulator knows the distribution); sample sizes follow the standard finite
class bounds with configurable leading constants.  ``_eliminate`` is the one
elimination loop of all four active learners, the replicable ones included;
each supplies only its loop guard and its cut.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Mapping, Optional

import numpy as np

from .core import (
    PROB_TOL,
    ParameterError,
    Problem,
    RoundCapExceededError,
    SampleCounters,
    VersionSpace,
    WrongSettingError,
    disagreement_mask,
    disagreement_mass,
    empirical_errors_from_counts,
    hash_signature,
    sample_labeled_counts,
)

# not called here since learners take a Problem; bench/spans.py wraps these
# names at every module that imports them, this one included
from .core import disagreement_coefficient, noise_rate  # noqa: F401

# divergent configurations abort after this many times the nominal round bound
ROUND_CAP_FACTOR = 4


@dataclass(frozen=True)
class Constants:
    """Leading constants for every sample-size formula, all config-exposed.

    c_pass scales the passive ERM sample; c_cal / c_a2 / c_a2_final the CAL
    and A² rounds; c_k1 / c_k2 / c_k3 the replicable learners' accuracy,
    agreement, and final sample legs; c_grid the threshold-grid interval
    count; c_t the unlabeled estimation sample.
    """

    c_pass: float = 2.0
    c_cal: float = 2.0
    c_a2: float = 24.0
    c_a2_final: float = 200.0
    c_k1: float = 2.0
    c_k2: float = 1.0
    c_k3: float = 1.0
    c_grid: float = 1.0
    c_t: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ParameterError(f"constant {f.name} must be a positive number, got {v!r}")

    def updated(self, mapping: Mapping[str, float]) -> "Constants":
        known = {f.name for f in fields(self)}
        unknown = set(mapping) - known
        if unknown:
            raise ParameterError(f"unknown constants: {sorted(unknown)} (known: {sorted(known)})")
        return replace(self, **{k: float(v) for k, v in mapping.items()})


@dataclass(frozen=True)
class RoundRecord:
    """State of one elimination round, captured before the update.

    ``disagreement`` is the exact mass for baselines and the replicable
    estimate for the replicable learners; ``threshold`` is the error cutoff
    applied this round when the learner uses one; ``slack`` is the additive
    widening on top of the base threshold (Hoeffding radius or noise term),
    except in ``replica2``'s final record, where it is the empirical floor
    the threshold is measured from (None when no final sample was drawn).
    ``labels_so_far`` counts the labels drawn through this round, its own
    draw included.
    """

    round: int
    disagreement: float
    version_size: int
    threshold: Optional[float] = None
    slack: Optional[float] = None
    labels_so_far: int = 0


_ROUND_FIELDS = tuple(f.name for f in fields(RoundRecord))


@dataclass(frozen=True)
class RunResult:
    """Outcome of one learner execution.

    Contains no arrays, so two results compare equal exactly when every
    field, including the returned signature and the full trace, is identical.
    """

    algo: str
    hypothesis_index: int
    signature: bytes
    signature_hash: str
    labels_used: int
    unlabeled_used: int
    rounds: int
    final_disagreement_estimate: float
    error: float
    survivors: tuple[int, ...]
    trace: tuple[RoundRecord, ...]
    flags: tuple[str, ...] = ()

    def to_jsonable(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["signature"] = self.signature.hex()
        doc["survivors"] = list(self.survivors)
        doc["trace"] = [{col: getattr(r, col) for col in _ROUND_FIELDS} for r in self.trace]
        doc["flags"] = list(self.flags)
        return doc


def _check_accuracy_params(eps: float, delta: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"accuracy target must lie in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"failure budget must lie in (0, 1), got {delta}")


def _result(
    algo: str,
    problem: Problem,
    chosen: int,
    space: VersionSpace,
    counters: SampleCounters,
    rounds: int,
    final_estimate: float,
    trace: list[RoundRecord],
    flags: tuple[str, ...] = (),
) -> RunResult:
    """The side's ``RunResult``: its ``error`` is read from ``problem.errors``,
    the vector ``nu`` comes from, and its hash is of the signature bytes."""
    sig = problem.hclass.signature(chosen)
    return RunResult(
        algo=algo,
        hypothesis_index=chosen,
        signature=sig,
        signature_hash=hash_signature(sig),
        labels_used=counters.labels,
        unlabeled_used=counters.unlabeled,
        rounds=rounds,
        final_disagreement_estimate=final_estimate,
        error=float(problem.errors[chosen]),
        survivors=tuple(int(i) for i in space.indices()),
        trace=tuple(trace),
        flags=flags,
    )


def _eliminate(
    problem: Problem,
    k: int,
    cap: int,
    rng: np.random.Generator,
    counters: SampleCounters,
    measure: Callable[[np.ndarray, int], tuple[float, bool]],
    cut: Callable[[np.ndarray, float], tuple[float, float, Optional[float]]],
    trace: list[RoundRecord],
) -> tuple[VersionSpace, np.ndarray, float, int]:
    """The elimination loop every active learner runs, from the full class.

    Each round ``measure(region, rounds)`` gives the guard value and whether
    to stop; otherwise ``k`` labels are drawn from the region, the members
    are scored, and ``cut(errs, value)`` gives ``(keep_bound, threshold,
    slack)``: members with error at most ``keep_bound`` survive, and the
    other two go into the round's record.  Returns the last version space,
    its region, the last guard value and the number of rounds run.
    """
    hclass = problem.hclass
    space = VersionSpace.full(hclass.n_hypotheses)
    region = problem.region
    rounds = 0
    while True:
        value, done = measure(region, rounds)
        if done:
            return space, region, value, rounds
        if rounds >= cap:
            raise RoundCapExceededError(
                f"no exit after {rounds} rounds (cap {cap}); disagreement still {value}"
            )
        count0, count1 = sample_labeled_counts(problem.model, region, k, rng, counters)
        errs = empirical_errors_from_counts(hclass, count0, count1, space.members)
        keep_bound, threshold, slack = cut(errs, value)
        trace.append(RoundRecord(rounds, value, space.size, threshold, slack, counters.labels))
        space = VersionSpace(space.members & (errs <= keep_bound + PROB_TOL))
        region = disagreement_mask(hclass, space)
        rounds += 1


# ---------------------------------------------------------------------------
# passive ERM


def erm_sample_size(n_hypotheses: int, eps: float, delta: float, constants: Constants) -> int:
    return int(math.ceil(constants.c_pass * (1.0 / eps) * math.log(n_hypotheses / delta)))


def run_passive_erm(
    problem: Problem,
    eps: float,
    delta: float,
    rng: np.random.Generator,
    constants: Optional[Constants] = None,
) -> RunResult:
    """Draw one unconditional labeled sample and return its empirical minimizer."""
    _check_accuracy_params(eps, delta)
    constants = constants or Constants()
    counters = SampleCounters()
    hclass, model = problem.hclass, problem.model
    m = erm_sample_size(hclass.n_hypotheses, eps, delta, constants)
    # full version space: labels come from D itself, not a conditional region
    count0, count1 = sample_labeled_counts(
        model, np.ones(hclass.domain_size, dtype=bool), m, rng, counters
    )
    errs = empirical_errors_from_counts(hclass, count0, count1)
    best = int(np.argmin(errs))
    return _result(
        "erm",
        problem,
        best,
        VersionSpace.from_indices([best], hclass.n_hypotheses),
        counters,
        rounds=0,
        final_estimate=0.0,
        trace=[],
    )


# ---------------------------------------------------------------------------
# CAL


def cal_round_bound(eps: float) -> int:
    return int(math.ceil(math.log2(2.0 / eps)))


def cal_sample_size(
    n_hypotheses: int, theta: float, eps: float, delta: float, constants: Constants
) -> int:
    """Labels per CAL round; ``theta`` is the sizing value (positive)."""
    n_max = cal_round_bound(eps)
    return int(math.ceil(constants.c_cal * theta * math.log(n_hypotheses * n_max / delta)))


def run_cal(
    problem: Problem,
    eps: float,
    delta: float,
    rng: np.random.Generator,
    constants: Optional[Constants] = None,
) -> RunResult:
    """Disagreement-region consistency elimination for noiseless labels.

    Each round queries a fixed-size labeled sample from the current
    disagreement region and keeps exactly the hypotheses consistent with
    every label.  The loop exits once the exact disagreement mass is at most
    the accuracy target.
    """
    _check_accuracy_params(eps, delta)
    constants = constants or Constants()
    counters = SampleCounters()
    hclass, model = problem.hclass, problem.model
    if problem.nu > PROB_TOL:
        raise WrongSettingError(
            f"consistency elimination needs a zero-error hypothesis, best has error {problem.nu}"
        )
    n_max = cal_round_bound(eps)
    k = cal_sample_size(hclass.n_hypotheses, problem.sizing_theta, eps, delta, constants)

    def measure(region, rounds):
        dmass = disagreement_mass(model, region)
        return dmass, dmass <= eps + PROB_TOL

    def consistent(errs, dmass):
        # mistakes are integer counts, so any inconsistency puts the error at >= 1/k
        return 0.0, 0.0, None

    trace: list[RoundRecord] = []
    space, _, dmass, rounds = _eliminate(
        problem, k, ROUND_CAP_FACTOR * n_max, rng, counters, measure, consistent, trace
    )
    chosen = int(space.indices()[0])
    return _result("cal", problem, chosen, space, counters, rounds, dmass, trace)


# ---------------------------------------------------------------------------
# A-squared


def a2_round_bound(theta: float, nu: float, eps: float) -> int:
    """Nominal elimination-round bound before the final estimation step;
    ``theta`` is the sizing value (positive)."""
    if nu > PROB_TOL:
        if 8.0 * theta * nu >= 1.0:
            return 1
        return max(1, int(math.ceil(math.log2(1.0 / (8.0 * theta * nu)))))
    return cal_round_bound(eps)


def run_a2(
    problem: Problem,
    eps: float,
    delta: float,
    rng: np.random.Generator,
    constants: Optional[Constants] = None,
) -> RunResult:
    """Agnostic elimination by confidence intervals, then a final refit.

    Each round keeps every hypothesis whose error lower bound does not exceed
    the smallest upper bound; the loop runs while the exact disagreement mass
    is at least 8 * theta * nu, and a last conditional sample picks the
    empirical minimizer among the survivors.
    """
    _check_accuracy_params(eps, delta)
    constants = constants or Constants()
    counters = SampleCounters()
    hclass, model, nu = problem.hclass, problem.model, problem.nu
    t_size = problem.sizing_theta
    n_loop = a2_round_bound(t_size, nu, eps)
    delta_round = delta / (1.0 + n_loop)
    n_c = hclass.n_hypotheses
    k = int(math.ceil(constants.c_a2 * t_size**2 * math.log(n_c * n_loop / delta_round)))
    radius = math.sqrt(math.log(2.0 * n_c / delta_round) / (2.0 * k))

    def measure(region, rounds):
        dmass = disagreement_mass(model, region)
        done = dmass < 8.0 * t_size * nu if nu > PROB_TOL else rounds >= n_loop
        return dmass, dmass <= PROB_TOL or done

    def cut(errs, dmass):
        # keep h iff its lower bound stays within the best upper bound; the
        # round's empirical minimizer always satisfies this, so V stays nonempty
        cutoff = float(errs.min()) + 2.0 * radius
        return cutoff, cutoff, radius

    trace: list[RoundRecord] = []
    space, region, dmass, rounds = _eliminate(
        problem, k, ROUND_CAP_FACTOR * n_loop, rng, counters, measure, cut, trace
    )
    k_final = int(math.ceil(constants.c_a2_final * t_size**2 * (nu / eps) ** 2 * math.log(n_c / delta)))
    if k_final > 0 and dmass > PROB_TOL:
        count0, count1 = sample_labeled_counts(model, region, k_final, rng, counters)
        errs = empirical_errors_from_counts(hclass, count0, count1, space.members)
        chosen = int(np.argmin(errs))
    else:
        chosen = int(space.indices()[0])
    return _result("a2", problem, chosen, space, counters, rounds, dmass, trace)
