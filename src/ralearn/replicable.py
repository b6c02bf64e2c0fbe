"""Replicable active learners built on randomized threshold grids.

Both learners keep every internal random choice on the shared random string,
under a fixed label inventory, so paired runs stay aligned no matter how
their data differs:

- "grid-origin", "grid-origin-final": uniform draws placing the grid origins;
- "grid-index": the selected threshold slot (reused by the final grid);
- "region-estimate-{r}": one grid offset per loop guard query of the
  disagreement mass, keyed by round so runs that exit at different rounds
  still share every offset they both use;
- "final-order": a keyed-hash rank per distinct surviving prediction
  signature (``RandomString.rank``, no draws consumed); the minimum is
  returned.

Data randomness (which points are drawn, which labels flip) never touches the
shared string; it comes from the caller's numpy Generator.

As in ``baselines``, each learner is a sizing function (``replical_plan``,
``replica2_plan``: the setting check, then ``size_schedule``), called once
per batch, and a run function that takes its ``ScheduleParams``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .baselines import (
    ROUND_CAP_FACTOR,
    Constants,
    RoundRecord,
    RunResult,
    _check_accuracy_params,
    _eliminate,
    _result,
    _unsizable,
    cal_round_bound,
)
from .core import (
    PROB_TOL,
    EmptyVersionSpaceError,
    ParameterError,
    Problem,
    SampleCounters,
    VersionSpace,
    WrongSettingError,
    disagreement_mass,
    empirical_errors_from_counts,
    region_hit_count,
    sample_labeled_counts,
)
from .randomness import MAX_CHOICE, RandomString
from .rstat import SQParams, required_sample_size, rstat_answer_from_mean

# not called here since learners take a Problem; bench/spans.py wraps these
# names at every module that imports them, this one included
from .core import disagreement_coefficient, disagreement_mask, noise_rate  # noqa: F401

@dataclass(frozen=True)
class ThresholdGrid:
    """A randomly placed uniform grid of candidate error thresholds.

    The usable error range [origin, origin + range_top) is split into
    count + 1 equal intervals of width ``spacing``; the selectable thresholds
    are the midpoints of intervals 1..count, and ``selected_index`` names the
    one in use.  ``phase`` names the learner phase the grid was sized for.
    """

    origin: float
    range_top: float
    count: int
    selected_index: int
    phase: str

    def __post_init__(self):
        if self.count < 1:
            raise ParameterError("grid needs at least one selectable threshold")
        if not 0 <= self.selected_index < self.count:
            raise ParameterError(
                f"selected index {self.selected_index} out of range for count {self.count}"
            )
        if not self.range_top > 0.0:
            raise ParameterError("grid range must be positive")

    @property
    def spacing(self) -> float:
        return self.range_top / (self.count + 1)

    @property
    def threshold(self) -> float:
        """The error cutoff in use: midpoint of interval selected_index + 1."""
        return self.origin + (self.selected_index + 1.5) * self.spacing

    @property
    def n_intervals(self) -> int:
        return self.count + 1

    def selectable_thresholds(self) -> np.ndarray:
        return self.origin + (np.arange(self.count) + 1.5) * self.spacing


def build_grid(
    range_top: float,
    count: int,
    phase: str,
    rs: RandomString,
    reuse_index: Optional[int] = None,
) -> ThresholdGrid:
    """Place a grid of ``count`` selectable thresholds over a range of width
    ``range_top``, both sized by the caller (``size_schedule`` for the
    learners), drawing only its origin and slot from the shared string.

    The origin is uniform over [0, 2 * range_top), so thresholds can land
    anywhere in (0, 3 * range_top).  All phases of a run share one interval
    count, so the final grid can reuse the loop grid's selected slot via
    ``reuse_index`` instead of drawing one.
    """
    label = "grid-origin-final" if phase == "agnostic-final" else "grid-origin"
    origin = rs.derive_uniform(label) * 2.0 * range_top
    index = rs.derive_choice("grid-index", count) if reuse_index is None else reuse_index
    return ThresholdGrid(origin, range_top, count, index, phase)


# ---------------------------------------------------------------------------
# sample-size schedule


class ScheduleParams(NamedTuple):
    """Every deterministic size used by one replicable run, its grids
    included: the loop and final grids span ``top_loop`` and ``top_final``
    with ``interval_count`` selectable thresholds each.

    ``top_final`` is positive exactly in the agnostic setting, where
    ``k_final`` labels make replica2's final cut; it and ``k_final`` are 0 in
    the realizable one.  ``sq_loop`` is the loop guard's query, answered from
    ``t_unlabeled`` unlabeled draws per round; the loop exits once its
    answer falls below ``exit_level``, eps / 2 in the realizable setting and
    16 * theta * nu in the agnostic one.  ``sq_loop`` is None once that
    level reaches 1 (``t_unlabeled`` is then 0); replica2 then skips
    straight to the final phase.
    """

    n_max: int
    round_cap: int
    k: int
    k_err: int
    k_rep: int
    k_final: int
    t_unlabeled: int
    sq_loop: Optional[SQParams]
    exit_level: float
    top_loop: float
    top_final: float
    interval_count: int


def size_schedule(
    theta: float,
    eps: float,
    delta: float,
    rho: float,
    nu: float,
    class_size: int,
    constants: Optional[Constants] = None,
) -> ScheduleParams:
    """Deterministic closed-form sizes for one replicable run, its grids included.

    ``nu`` selects the setting by the rule every learner applies.  At
    nu <= PROB_TOL the schedule is realizable, with one loop grid spanning
    1 / (8 theta).  Above it is agnostic, with a loop grid spanning
    1 / (32 theta) and a final grid spanning eps / (64 theta nu).  Every
    grid of a run holds max(1, floor(c_grid ln|H| / rho**2)) selectable
    thresholds.

    Raises ParameterError when nu is negative, when rho <= 2 * delta (a
    query's margin is then nonpositive), when a size leaves the float range,
    and when rho is so small that the interval count passes ``MAX_CHOICE``,
    the most slots the shared string can choose among.
    """
    constants = constants or Constants()
    _check_accuracy_params(eps, delta)
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"replicability budget must lie in (0, 1), got {rho}")
    if class_size < 1:
        raise ParameterError("class size must be positive")
    if theta <= 0.0:
        raise ParameterError("schedule needs a positive disagreement coefficient")
    if not nu >= 0.0:
        raise ParameterError(f"noise rate must be nonnegative, got {nu}")
    try:
        if nu <= PROB_TOL:
            n_max = cal_round_bound(eps)
            exit_level = eps / 2.0
            sq_loop = SQParams(rho / (2.0 * n_max), exit_level, delta / (2.0 * n_max))
            top_loop, top_final = 1.0 / (8.0 * theta), 0.0
            # the accuracy leg grows with theta, the agreement leg shrinks with it
            err_scale, rep_scale = theta, theta
        else:
            guard = 8.0 * theta * nu
            n_max = max(1, int(math.ceil(math.log2(1.0 / guard))) + 1) if guard < 1.0 else 1
            budget = rho / (2.0 * (n_max + 1))
            fail = delta / (2.0 * (n_max + 1))
            if budget <= 2.0 * fail:
                # SQParams's rule, checked here too since a skipped loop makes no query
                raise ParameterError(
                    "replicability budget must exceed twice the failure budget, "
                    f"got rho={budget}, delta={fail}"
                )
            exit_level = 16.0 * theta * nu
            sq_loop = SQParams(budget, guard, fail) if exit_level < 1.0 else None
            top_loop, top_final = 1.0 / (32.0 * theta), eps / (64.0 * theta * nu)
            err_scale, rep_scale = theta**2, 1.0
        m = max(1, int(math.floor(constants.c_grid * math.log(class_size) / rho**2)))

        def rep_labels(top: float) -> int:
            # enough labels that the errors' deviation stays small against the spacing
            spacing = top / (m + 1)
            labels = constants.c_k2 * math.log(n_max / rho) / (rep_scale * spacing**2)
            return int(math.ceil(labels))

        k_err = int(math.ceil(constants.c_k1 * err_scale * math.log(class_size * n_max / delta)))
        k_rep = rep_labels(top_loop)
        k_final, t_unlabeled = 0, 0
        if nu > PROB_TOL:
            # keyed on the setting, so a final range that underflows to 0 is refused
            k_acc = constants.c_k3 * theta**2 * (nu / eps) ** 2 * math.log(class_size / delta)
            k_final = max(int(math.ceil(k_acc)), rep_labels(top_final))
        if sq_loop is not None:
            need = required_sample_size(sq_loop)
            t_unlabeled = max(need, int(math.ceil(constants.c_t * need / 2.0)))
        if m > MAX_CHOICE:
            raise ParameterError(
                f"rho={rho!r} gives a grid of {m} thresholds, more than the "
                f"{MAX_CHOICE} a shared-string choice can draw from"
            )
        return ScheduleParams(
            n_max=n_max,
            round_cap=ROUND_CAP_FACTOR * n_max,
            k=max(k_err, k_rep),
            k_err=k_err,
            k_rep=k_rep,
            k_final=k_final,
            t_unlabeled=t_unlabeled,
            sq_loop=sq_loop,
            exit_level=exit_level,
            top_loop=top_loop,
            top_final=top_final,
            interval_count=m,
        )
    except ArithmeticError as e:
        raise _unsizable(e, epsilon=eps, delta=delta, rho=rho, nu=nu) from None


# ---------------------------------------------------------------------------
# shared pieces


def _loop_estimate(
    problem: Problem,
    sched: ScheduleParams,
    rs: RandomString,
    rng: np.random.Generator,
    counters: SampleCounters,
) -> Callable[[np.ndarray, int], tuple[float, bool]]:
    """The loop guard of both learners: a replicable estimate of the region's
    mass from ``sched.t_unlabeled`` fresh unlabeled draws (at least 1 when
    the schedule has a loop query), under "region-estimate-{round}", done
    once it falls below ``sched.exit_level``."""
    t = sched.t_unlabeled

    def measure(region: np.ndarray, rounds: int) -> tuple[float, bool]:
        hits = region_hit_count(problem.model, region, t, rng, counters)
        est = rstat_answer_from_mean(sched.sq_loop, hits / t, rs, f"region-estimate-{rounds}")
        return est, est < sched.exit_level

    return measure


def _select_final(problem: Problem, space: VersionSpace, rs: RandomString) -> int:
    """Shared-randomness pick among survivors, invariant to index accidents.

    Each distinct surviving prediction signature is ranked by the shared
    string's keyed hash under "final-order", the signature itself breaking a
    64-bit tie, and the minimum wins; the lowest surviving index holding it
    is returned.  The ranks never depend on the data, so two runs sharing
    the string disagree exactly when the minimum of the union of their
    survivor sets falls in the symmetric difference, which has probability
    |S1 xor S2| / |S1 or S2| over the string (MinHash).  The cost is one hash
    per distinct survivor, and none when one signature survives: it is then
    the minimum whatever its rank, and ranking draws nothing, so skipping it
    changes no output.  The signatures come from ``problem.signature``, so
    each survivor's row is joined once per problem, not once per side.
    """
    lowest_by_sig: dict[bytes, int] = {}
    for i in space.indices().tolist():
        lowest_by_sig.setdefault(problem.signature(i), i)
    if not lowest_by_sig:
        raise EmptyVersionSpaceError("no surviving signature to select")
    sig = next(iter(lowest_by_sig))
    if len(lowest_by_sig) > 1:
        sig = min(lowest_by_sig, key=lambda s: (rs.rank("final-order", s), s))
    return lowest_by_sig[sig]


# ---------------------------------------------------------------------------
# RepliCAL


def replical_plan(
    problem: Problem,
    eps: float,
    delta: float,
    rho: float,
    constants: Optional[Constants] = None,
) -> ScheduleParams:
    """``run_replical``'s schedule; noisy labels raise WrongSettingError."""
    if problem.nu > PROB_TOL:
        raise WrongSettingError(
            f"this learner needs a zero-error hypothesis, best has error {problem.nu}"
        )
    return size_schedule(
        problem.sizing_theta, eps, delta, rho, problem.nu, problem.hclass.n_hypotheses, constants
    )


def run_replical(
    problem: Problem, sched: ScheduleParams, rs: RandomString, rng: np.random.Generator
) -> RunResult:
    """Replicable consistency-style elimination for noiseless labels, sized
    by ``replical_plan``'s schedule.

    Differs from the plain disagreement learner in three places: the loop is
    guarded by a replicable estimate of the disagreement mass instead of the
    exact value, elimination keeps hypotheses with conditional empirical
    error up to a shared randomly drawn threshold instead of exactly zero,
    and the returned survivor is the one of least keyed-hash rank on the
    shared string (see ``_select_final``).
    """
    counters = SampleCounters()
    shared = rs.clone()
    v = build_grid(sched.top_loop, sched.interval_count, "realizable", shared).threshold
    trace: list[RoundRecord] = []
    space, _, est, rounds = _eliminate(
        problem, sched.k, sched.round_cap, rng, counters,
        _loop_estimate(problem, sched, shared, rng, counters),
        lambda errs, est: (v, v, None), trace  # keep errors up to the shared threshold
    )
    chosen = _select_final(problem, space, shared)
    return _result("replical", problem, chosen, space, counters, rounds, est, trace)


# ---------------------------------------------------------------------------
# ReplicA-squared


def replica2_plan(
    problem: Problem,
    eps: float,
    delta: float,
    rho: float,
    constants: Optional[Constants] = None,
) -> ScheduleParams:
    """``run_replica2``'s schedule; noiseless labels (nu <= PROB_TOL) raise
    WrongSettingError."""
    nu = problem.nu
    if nu <= PROB_TOL:
        raise WrongSettingError(
            f"this learner needs a best error above {PROB_TOL}, best has error {nu}"
        )
    return size_schedule(
        problem.sizing_theta, eps, delta, rho, nu, problem.hclass.n_hypotheses, constants
    )


def run_replica2(
    problem: Problem, sched: ScheduleParams, rs: RandomString, rng: np.random.Generator
) -> RunResult:
    """Replicable agnostic elimination, then a final cut relative to the best,
    sized by ``replica2_plan``'s schedule.

    Without a loop query in the schedule (``sq_loop`` None) the run skips
    the loop, flagged "loop-guard-unsatisfiable".  Loop rounds keep hypotheses whose
    conditional empirical error stays under the shared threshold plus a
    noise allowance tied to the current estimated disagreement mass.  Once
    the estimate drops below 16 * theta * nu, a finer grid (same selected
    slot, fresh origin) gives the final threshold v_final, and one sample of
    k_final labels from the disagreement region of the version space V makes
    the final cut: h is kept iff its conditional empirical error is at most
    floor + v_final, where floor is the lowest such error among the members
    of V (the A² rule, with the shared grid value in place of a confidence
    radius).  The survivor of least keyed-hash rank on the shared string is
    the winner (see ``_select_final``).  As in ``a2``, the final sample is
    drawn only when the exact mass of V's region is positive (otherwise the
    run is flagged "final-region-zero-mass"); that mass is the final record's
    ``disagreement`` and the result's ``final_disagreement_estimate``.  The
    loop guard's queries are the run's only unlabeled draws.

    Error bound.  Let Delta be the mass of V's disagreement region, c(h) the
    conditional error there, and r the uniform deviation of the k_final-draw
    estimates.  Members agree outside the region, so while the best
    hypothesis h* is in V, err(h) - nu = Delta * (c(h) - c(h*)), and every
    survivor has err(h) <= nu + Delta * (v_final + 2r).  h* itself survives
    whenever v_final >= 2r.  The final grid places v_final below
    3 * eps / (64 * theta * nu), so that term is at most eps once
    theta * nu >= 3/64; at theta = 1, nu = 0.05, eps = 0.1 it is below
    0.094, and r is about 1e-3 at the default constants, so the bound is
    under nu + eps.  Two runs sharing the string cut h differently only
    when v_final falls between their two values of errs[h] - floor, which
    is the usual shared-threshold argument.
    """
    counters = SampleCounters()
    hclass, model, nu = problem.hclass, problem.model, problem.nu
    theta = problem.sizing_theta
    shared = rs.clone()
    grid = build_grid(sched.top_loop, sched.interval_count, "agnostic-loop", shared)
    v = grid.threshold
    trace: list[RoundRecord] = []
    flags: list[str] = []

    def cut(errs, est):
        slack = 2.0 * nu / est + 1.0 / (16.0 * theta)
        return v + slack, v, slack

    if sched.sq_loop is None:
        # the loop's exit level 16 * theta * nu is at least 1; final phase alone
        flags.append("loop-guard-unsatisfiable")
        space, region, rounds = VersionSpace.full(hclass.n_hypotheses), problem.region, 0
    else:
        space, region, _, rounds = _eliminate(
            problem, sched.k, sched.round_cap, rng, counters,
            _loop_estimate(problem, sched, shared, rng, counters), cut, trace
        )
    v_final = build_grid(
        sched.top_final, sched.interval_count, "agnostic-final", shared, grid.selected_index
    ).threshold
    pre_size = space.size
    dmass = disagreement_mass(model, region)
    floor_final: Optional[float] = None
    if dmass > PROB_TOL:
        count0, count1 = sample_labeled_counts(model, region, sched.k_final, rng, counters)
        errs = empirical_errors_from_counts(hclass, count0, count1, space.members)
        # the cut is measured from the best member, so the shared threshold
        # bounds each survivor's excess over the floor, not its raw error
        floor_final = float(errs.min())
        space = VersionSpace(space.members & (errs <= floor_final + v_final + PROB_TOL))
    else:
        flags.append("final-region-zero-mass")
    trace.append(
        RoundRecord(
            rounds, dmass, pre_size, threshold=v_final, slack=floor_final,
            labels_so_far=counters.labels,
        )
    )
    chosen = _select_final(problem, space, shared)
    return _result(
        "replica2", problem, chosen, space, counters, rounds, dmass, trace, flags=tuple(flags)
    )
