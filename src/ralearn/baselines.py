"""Reference learners without replicability: passive ERM, CAL, and the
agnostic LB/UB elimination learner A².

These set the accuracy and label-complexity baselines the replicable learners
are compared against.  Loop guards use the exact disagreement mass (the
simulator knows the distribution); sample sizes follow the standard finite
class bounds with configurable leading constants.  Every size is a function
of the batch alone, so each learner is split in two: a sizing function
(``erm_plan``, ``cal_plan``, ``a2_plan``) makes every parameter check and
gives the ``Plan``, once per batch, and a run function draws one side from it.
``_eliminate`` is the one elimination loop of all four active learners, the
replicable ones included; each supplies only its loop guard and its cut.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .core import (
    PROB_TOL,
    EmptyVersionSpaceError,
    ParameterError,
    Problem,
    RoundCapExceededError,
    SampleCounters,
    VersionSpace,
    WrongSettingError,
    _coverage_region,
    disagreement_mass,
    empirical_errors_from_counts,
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
            _check_constant(f.name, getattr(self, f.name))

    def updated(self, mapping: Mapping[str, float]) -> "Constants":
        known = {f.name for f in fields(self)}
        unknown = set(mapping) - known
        if unknown:
            raise ParameterError(f"unknown constants: {sorted(unknown)} (known: {sorted(known)})")
        # checked before the cast, which would turn True into 1.0
        for k, v in mapping.items():
            _check_constant(k, v)
        return replace(self, **{k: float(v) for k, v in mapping.items()})


def _check_constant(name: str, v) -> None:
    # the config schema's number rule: a bool is an int to Python, not a number
    if isinstance(v, bool) or not (isinstance(v, numbers.Real) and math.isfinite(v) and v > 0):
        raise ParameterError(f"constant {name} must be a positive number, got {v!r}")


class RoundRecord(NamedTuple):
    """State of one elimination round, captured before the update.

    ``disagreement`` is the exact mass for baselines and the replicable
    estimate for the replicable learners' loop rounds; ``replica2``'s final
    record holds the exact mass of its final region.  ``threshold`` is the
    error cutoff applied this round when the learner uses one; ``slack`` is
    the additive widening on top of the base threshold (Hoeffding radius or
    noise term), except in ``replica2``'s final record, where it is the
    empirical floor the threshold is measured from (None when no final
    sample was drawn).  ``labels_so_far`` counts the labels drawn through
    this round, its own draw included.
    """

    round: int
    disagreement: float
    version_size: int
    threshold: Optional[float] = None
    slack: Optional[float] = None
    labels_so_far: int = 0


class RunResult(NamedTuple):
    """Outcome of one learner execution, a named tuple of no arrays.

    Two results compare equal, as tuples, exactly when every field, the
    returned signature and the full trace of ``RoundRecord`` tuples
    included, is identical.  ``_asdict`` gives the fields by name and
    ``_replace`` a copy with some of them changed.
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
        doc = self._asdict()
        doc["signature"] = self.signature.hex()
        doc["survivors"] = list(self.survivors)
        doc["trace"] = [r._asdict() for r in self.trace]
        doc["flags"] = list(self.flags)
        return doc


class Plan(NamedTuple):
    """The sizes of one baseline run, fixed for a whole batch.

    ``eps`` is the accuracy target they were computed for, where ``cal``'s
    loop exits; ``k`` the labels drawn each round (``erm``: its one sample);
    ``n_max`` the nominal round bound, past ``ROUND_CAP_FACTOR`` times which
    a loop raises RoundCapExceededError; ``k_final`` and ``radius`` are
    ``a2``'s final sample and per-round confidence radius.
    """

    eps: float
    k: int
    n_max: int = 0
    k_final: int = 0
    radius: float = 0.0


def _check_accuracy_params(eps: float, delta: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"accuracy target must lie in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"failure budget must lie in (0, 1), got {delta}")


def _unsizable(error: ArithmeticError, **params: float) -> ParameterError:
    """The error for a size formula that left the float range at ``params``:
    a product or power overflowed, a divisor underflowed to 0, or the count
    came out infinite."""
    named = ", ".join(f"{key}={value!r}" for key, value in params.items())
    return ParameterError(f"no finite sample size at {named}: {error}")


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
    the vector ``nu`` comes from, and its signature and hash from the
    problem's memo, shared with every other result that returns ``chosen``."""
    return RunResult(
        algo=algo,
        hypothesis_index=chosen,
        signature=problem.signature(chosen),
        signature_hash=problem.signature_hash(chosen),
        labels_used=counters.labels,
        unlabeled_used=counters.unlabeled,
        rounds=rounds,
        final_disagreement_estimate=final_estimate,
        error=float(problem.errors[chosen]),
        survivors=tuple(space.indices().tolist()),
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

    The members stay a plain boolean mask until the exit: None, every row,
    before the first cut, whose region is ``problem.region``.
    """
    hclass = problem.hclass
    members, size = None, hclass.n_hypotheses
    region = problem.region
    rounds = 0
    while True:
        value, done = measure(region, rounds)
        if done:
            space = VersionSpace.full(size) if members is None else VersionSpace(members)
            return space, region, value, rounds
        if rounds >= cap:
            raise RoundCapExceededError(
                f"no exit after {rounds} rounds (cap {cap}); disagreement still {value}"
            )
        count0, count1 = sample_labeled_counts(problem.model, region, k, rng, counters)
        errs = empirical_errors_from_counts(hclass, count0, count1, members)
        keep_bound, threshold, slack = cut(errs, value)
        trace.append(RoundRecord(rounds, value, size, threshold, slack, counters.labels))
        kept = errs <= keep_bound + PROB_TOL
        members = kept if members is None else members & kept
        size = int(np.count_nonzero(members))
        if size == 0:
            raise EmptyVersionSpaceError("version space must be nonempty")
        region = _coverage_region(hclass, members, size)
        rounds += 1


# ---------------------------------------------------------------------------
# passive ERM


def erm_sample_size(n_hypotheses: int, eps: float, delta: float, constants: Constants) -> int:
    try:
        return int(math.ceil(constants.c_pass * (1.0 / eps) * math.log(n_hypotheses / delta)))
    except ArithmeticError as e:
        raise _unsizable(e, epsilon=eps, delta=delta) from None


def erm_plan(
    problem: Problem, eps: float, delta: float, constants: Optional[Constants] = None
) -> Plan:
    """``run_passive_erm``'s plan: its one sample size."""
    _check_accuracy_params(eps, delta)
    constants = constants or Constants()
    return Plan(eps, erm_sample_size(problem.hclass.n_hypotheses, eps, delta, constants))


def run_passive_erm(problem: Problem, plan: Plan, rng: np.random.Generator) -> RunResult:
    """Draw one unconditional labeled sample of ``plan.k`` labels and return
    its empirical minimizer."""
    counters = SampleCounters()
    hclass, model = problem.hclass, problem.model
    # full version space: labels come from D itself, not a conditional region
    count0, count1 = sample_labeled_counts(model, problem.whole_domain, plan.k, rng, counters)
    errs = empirical_errors_from_counts(hclass, count0, count1)
    best = int(np.argmin(errs))
    chosen = np.zeros(hclass.n_hypotheses, dtype=bool)
    chosen[best] = True
    return _result(
        "erm",
        problem,
        best,
        VersionSpace(chosen),
        counters,
        rounds=0,
        final_estimate=0.0,
        trace=[],
    )


# ---------------------------------------------------------------------------
# CAL


def cal_round_bound(eps: float) -> int:
    try:
        return int(math.ceil(math.log2(2.0 / eps)))
    except ArithmeticError as e:
        raise _unsizable(e, epsilon=eps) from None


def cal_sample_size(
    n_hypotheses: int, theta: float, eps: float, delta: float, constants: Constants
) -> int:
    """Labels per CAL round; ``theta`` is the sizing value (positive)."""
    n_max = cal_round_bound(eps)
    try:
        return int(math.ceil(constants.c_cal * theta * math.log(n_hypotheses * n_max / delta)))
    except ArithmeticError as e:
        raise _unsizable(e, epsilon=eps, delta=delta) from None


def cal_plan(
    problem: Problem, eps: float, delta: float, constants: Optional[Constants] = None
) -> Plan:
    """``run_cal``'s plan; noisy labels raise WrongSettingError."""
    _check_accuracy_params(eps, delta)
    constants = constants or Constants()
    if problem.nu > PROB_TOL:
        raise WrongSettingError(
            f"consistency elimination needs a zero-error hypothesis, best has error {problem.nu}"
        )
    n_max = cal_round_bound(eps)
    k = cal_sample_size(problem.hclass.n_hypotheses, problem.sizing_theta, eps, delta, constants)
    return Plan(eps, k, n_max)


def run_cal(problem: Problem, plan: Plan, rng: np.random.Generator) -> RunResult:
    """Disagreement-region consistency elimination for noiseless labels.

    Each round queries ``plan.k`` labels from the current disagreement region
    and keeps exactly the hypotheses consistent with every label.  The loop
    exits once the exact disagreement mass is at most ``plan.eps``.
    """
    counters = SampleCounters()
    model = problem.model

    def measure(region, rounds):
        dmass = disagreement_mass(model, region)
        return dmass, dmass <= plan.eps + PROB_TOL

    def consistent(errs, dmass):
        # mistakes are integer counts, so any inconsistency puts the error at >= 1/k
        return 0.0, 0.0, None

    trace: list[RoundRecord] = []
    space, _, dmass, rounds = _eliminate(
        problem, plan.k, ROUND_CAP_FACTOR * plan.n_max, rng, counters, measure, consistent, trace
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


def a2_plan(
    problem: Problem, eps: float, delta: float, constants: Optional[Constants] = None
) -> Plan:
    """``run_a2``'s plan: ``n_max`` is ``a2_round_bound``, and each round's
    confidence radius is sized for its share of the failure budget."""
    _check_accuracy_params(eps, delta)
    constants = constants or Constants()
    nu, t_size, n_c = problem.nu, problem.sizing_theta, problem.hclass.n_hypotheses
    n_loop = a2_round_bound(t_size, nu, eps)
    delta_round = delta / (1.0 + n_loop)
    try:
        k = int(math.ceil(constants.c_a2 * t_size**2 * math.log(n_c * n_loop / delta_round)))
        radius = math.sqrt(math.log(2.0 * n_c / delta_round) / (2.0 * k))
        k_final = int(
            math.ceil(constants.c_a2_final * t_size**2 * (nu / eps) ** 2 * math.log(n_c / delta))
        )
    except ArithmeticError as e:
        raise _unsizable(e, epsilon=eps, delta=delta, nu=nu) from None
    return Plan(eps, k, n_loop, k_final, radius)


def run_a2(problem: Problem, plan: Plan, rng: np.random.Generator) -> RunResult:
    """Agnostic elimination by confidence intervals, then a final refit.

    Each round keeps every hypothesis whose error lower bound does not exceed
    the smallest upper bound; the loop runs while the exact disagreement mass
    is at least 8 * theta * nu, and a last conditional sample picks the
    empirical minimizer among the survivors.
    """
    counters = SampleCounters()
    hclass, model, nu = problem.hclass, problem.model, problem.nu
    t_size = problem.sizing_theta

    def measure(region, rounds):
        dmass = disagreement_mass(model, region)
        done = dmass < 8.0 * t_size * nu if nu > PROB_TOL else rounds >= plan.n_max
        return dmass, dmass <= PROB_TOL or done

    def cut(errs, dmass):
        # keep h iff its lower bound stays within the best upper bound; the
        # round's empirical minimizer always satisfies this, so V stays nonempty
        cutoff = float(errs.min()) + 2.0 * plan.radius
        return cutoff, cutoff, plan.radius

    trace: list[RoundRecord] = []
    space, region, dmass, rounds = _eliminate(
        problem, plan.k, ROUND_CAP_FACTOR * plan.n_max, rng, counters, measure, cut, trace
    )
    if plan.k_final > 0 and dmass > PROB_TOL:
        count0, count1 = sample_labeled_counts(model, region, plan.k_final, rng, counters)
        errs = empirical_errors_from_counts(hclass, count0, count1, space.members)
        chosen = int(np.argmin(errs))
    else:
        chosen = int(space.indices()[0])
    return _result("a2", problem, chosen, space, counters, rounds, dmass, trace)
