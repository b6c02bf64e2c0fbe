"""Replicable active learners built on randomized threshold grids.

Both learners keep every internal random choice on the shared random string,
under a fixed label inventory, so paired runs stay aligned no matter how
their data differs:

- "grid-origin", "grid-origin-final": uniform draws placing the grid origins;
- "grid-index": the selected threshold slot (reused by the final grid);
- "region-estimate-{r}" / "region-estimate-final": one grid offset per
  disagreement-mass query, keyed by round so runs that exit at different
  rounds still share every offset they both use;
- "final-order": a keyed-hash rank per distinct surviving prediction
  signature (``RandomString.rank``, no draws consumed); the minimum is
  returned.

Data randomness (which points are drawn, which labels flip) never touches the
shared string; it comes from the caller's numpy Generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .baselines import ROUND_CAP_FACTOR, Constants, RoundRecord, RunResult, _eliminate, _result
from .core import (
    PROB_TOL,
    DataModel,
    EmptyVersionSpaceError,
    HypothesisClass,
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
from .randomness import RandomString
from .rstat import SQParams, required_sample_size, rstat_answer_from_mean

# not called here since learners take a Problem; bench/spans.py wraps these
# names at every module that imports them, this one included
from .core import disagreement_coefficient, disagreement_mask, noise_rate  # noqa: F401

GRID_PHASES = ("realizable", "agnostic-loop", "agnostic-final")


@dataclass(frozen=True)
class ThresholdGrid:
    """A randomly placed uniform grid of candidate error thresholds.

    The usable error range [origin, origin + range_top) is split into
    count + 1 equal intervals; the selectable thresholds are the midpoints of
    intervals 1..count, and ``selected_index`` names the one in use.
    """

    origin: float
    spacing: float
    count: int
    selected_index: int
    range_top: float
    phase: str

    def __post_init__(self):
        if self.count < 1:
            raise ParameterError("grid needs at least one selectable threshold")
        if not 0 <= self.selected_index < self.count:
            raise ParameterError(
                f"selected index {self.selected_index} out of range for count {self.count}"
            )
        if self.spacing <= 0.0:
            raise ParameterError("grid spacing must be positive")
        if abs(self.spacing * (self.count + 1) - self.range_top) > PROB_TOL:
            raise ParameterError("spacing must divide the range exactly")

    @property
    def threshold(self) -> float:
        """The error cutoff in use: midpoint of interval selected_index + 1."""
        return self.origin + (self.selected_index + 1.5) * self.spacing

    @property
    def n_intervals(self) -> int:
        return self.count + 1

    def selectable_thresholds(self) -> np.ndarray:
        return self.origin + (np.arange(self.count) + 1.5) * self.spacing


def grid_interval_count(class_size: int, rho: float, constants: Optional[Constants] = None) -> int:
    """Number of selectable thresholds; grows with log of the class size."""
    if class_size < 1:
        raise ParameterError("class size must be positive")
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"replicability budget must lie in (0, 1), got {rho}")
    constants = constants or Constants()
    return max(1, int(math.floor(constants.c_grid * math.log(class_size) / rho**2)))


def grid_range_top(
    theta: float, phase: str, eps: Optional[float] = None, nu: Optional[float] = None
) -> float:
    """Width of the threshold range for each phase of the two learners."""
    if theta <= 0.0:
        raise ParameterError("grid construction needs a positive disagreement coefficient")
    if phase == "realizable":
        return 1.0 / (8.0 * theta)
    if phase == "agnostic-loop":
        if nu is None or nu <= 0.0:
            raise ParameterError("agnostic grid phases need a positive noise rate")
        return 1.0 / (32.0 * theta)
    if phase == "agnostic-final":
        if nu is None or nu <= 0.0:
            raise ParameterError("agnostic grid phases need a positive noise rate")
        if eps is None or not 0.0 < eps < 1.0:
            raise ParameterError("final grid phase needs an accuracy target in (0, 1)")
        return eps / (64.0 * theta * nu)
    raise ParameterError(f"unknown grid phase {phase!r}; expected one of {GRID_PHASES}")


def build_grid(
    theta: float,
    rho: float,
    class_size: int,
    phase: str,
    rs: RandomString,
    eps: Optional[float] = None,
    nu: Optional[float] = None,
    constants: Optional[Constants] = None,
    reuse_index: Optional[int] = None,
) -> ThresholdGrid:
    """Draw a threshold grid for one learner phase from the shared string.

    The origin is uniform over [0, 2 * range_top), so thresholds can land
    anywhere in (0, 3 * range_top).  All phases share one interval count, so
    the final grid can reuse the loop grid's selected slot via
    ``reuse_index``.
    """
    top = float(grid_range_top(theta, phase, eps, nu))
    m = grid_interval_count(class_size, rho, constants)
    spacing = top / (m + 1)
    label = "grid-origin-final" if phase == "agnostic-final" else "grid-origin"
    origin = rs.derive_uniform(label) * 2.0 * top
    if reuse_index is None:
        index = rs.derive_choice("grid-index", m)
    else:
        if not 0 <= reuse_index < m:
            raise ParameterError(f"reused index {reuse_index} out of range for count {m}")
        index = reuse_index
    return ThresholdGrid(origin, spacing, m, index, top, phase)


# ---------------------------------------------------------------------------
# sample-size schedule


@dataclass(frozen=True)
class ScheduleParams:
    """Every deterministic size used by one replicable run.

    ``sq_loop`` is None when the loop phase is infeasible (the loop query
    tolerance 8 * theta * nu reaches 1); the learner then skips straight to
    the final phase.
    """

    setting: str
    n_max: int
    round_cap: int
    k: int
    k_err: int
    k_rep: int
    k_final: int
    t_unlabeled: int
    t_final: int
    sq_loop: Optional[SQParams]
    sq_final: Optional[SQParams]
    spacing_loop: float
    spacing_final: float
    interval_count: int


def _unlabeled_draws(sq: SQParams, constants: Constants) -> int:
    need = required_sample_size(sq)
    return max(need, int(math.ceil(constants.c_t * need / 2.0)))


def size_schedule(
    theta: float,
    eps: float,
    delta: float,
    rho: float,
    nu: float,
    class_size: int,
    setting: str,
    constants: Optional[Constants] = None,
) -> ScheduleParams:
    """Deterministic closed-form sizes for one replicable run.

    Raises ParameterError when any derived query margin is nonpositive, in
    particular whenever rho <= 2 * delta.
    """
    constants = constants or Constants()
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"accuracy target must lie in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"failure budget must lie in (0, 1), got {delta}")
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"replicability budget must lie in (0, 1), got {rho}")
    if class_size < 1:
        raise ParameterError("class size must be positive")
    if theta <= 0.0:
        raise ParameterError("schedule needs a positive disagreement coefficient")
    if setting == "realizable":
        n_max = int(math.ceil(math.log2(2.0 / eps)))
        m = grid_interval_count(class_size, rho, constants)
        spacing = grid_range_top(theta, "realizable") / (m + 1)
        sq = SQParams(rho / (2.0 * n_max), eps / 2.0, delta / (2.0 * n_max))
        k_err = int(math.ceil(constants.c_k1 * theta * math.log(class_size * n_max / delta)))
        k_rep = int(
            math.ceil(constants.c_k2 * math.log(n_max / rho) / (theta * spacing**2))
        )
        return ScheduleParams(
            setting="realizable",
            n_max=n_max,
            round_cap=ROUND_CAP_FACTOR * n_max,
            k=max(k_err, k_rep),
            k_err=k_err,
            k_rep=k_rep,
            k_final=0,
            t_unlabeled=_unlabeled_draws(sq, constants),
            t_final=0,
            sq_loop=sq,
            sq_final=None,
            spacing_loop=spacing,
            spacing_final=0.0,
            interval_count=m,
        )
    if setting == "agnostic":
        if nu <= 0.0:
            raise ParameterError("agnostic schedule needs a positive noise rate")
        guard = 8.0 * theta * nu
        n_max = max(1, int(math.ceil(math.log2(1.0 / guard))) + 1) if guard < 1.0 else 1
        m = grid_interval_count(class_size, rho, constants)
        spacing = grid_range_top(theta, "agnostic-loop", eps, nu) / (m + 1)
        spacing_final = grid_range_top(theta, "agnostic-final", eps, nu) / (m + 1)
        budget = rho / (2.0 * (n_max + 1))
        fail = delta / (2.0 * (n_max + 1))
        sq_loop = SQParams(budget, guard, fail) if guard < 1.0 else None
        sq_final = SQParams(budget, eps / 2.0, fail)
        k_err = int(
            math.ceil(constants.c_k1 * theta**2 * math.log(class_size * n_max / delta))
        )
        k_rep = int(math.ceil(constants.c_k2 * math.log(n_max / rho) / spacing**2))
        k_final = max(
            int(
                math.ceil(
                    constants.c_k3 * theta**2 * (nu / eps) ** 2 * math.log(class_size / delta)
                )
            ),
            int(math.ceil(constants.c_k2 * math.log(n_max / rho) / spacing_final**2)),
        )
        return ScheduleParams(
            setting="agnostic",
            n_max=n_max,
            round_cap=ROUND_CAP_FACTOR * n_max,
            k=max(k_err, k_rep),
            k_err=k_err,
            k_rep=k_rep,
            k_final=k_final,
            t_unlabeled=_unlabeled_draws(sq_loop, constants) if sq_loop is not None else 0,
            t_final=_unlabeled_draws(sq_final, constants),
            sq_loop=sq_loop,
            sq_final=sq_final,
            spacing_loop=spacing,
            spacing_final=spacing_final,
            interval_count=m,
        )
    raise ParameterError(f"unknown setting {setting!r}; expected 'realizable' or 'agnostic'")


# ---------------------------------------------------------------------------
# shared pieces


def _replicable_region_estimate(
    model: DataModel,
    region: np.ndarray,
    sq: SQParams,
    t_draws: int,
    rs: RandomString,
    label: str,
    rng: np.random.Generator,
    counters: SampleCounters,
) -> float:
    """Replicable estimate of a region's mass from t_draws fresh unlabeled
    draws (t_draws >= 1, as the schedule guarantees)."""
    hits = region_hit_count(model, region, t_draws, rng, counters)
    return rstat_answer_from_mean(sq, hits / t_draws, rs, label)


def _loop_estimate(
    problem: Problem,
    sched: ScheduleParams,
    rs: RandomString,
    rng: np.random.Generator,
    counters: SampleCounters,
    exit_below: float,
) -> Callable[[np.ndarray, int], tuple[float, bool]]:
    """The loop guard of both learners: a replicable estimate of the region's
    mass under "region-estimate-{round}", done once it falls below
    ``exit_below``."""

    def measure(region: np.ndarray, rounds: int) -> tuple[float, bool]:
        label = f"region-estimate-{rounds}"
        est = _replicable_region_estimate(
            problem.model, region, sched.sq_loop, sched.t_unlabeled, rs, label, rng, counters
        )
        return est, est < exit_below

    return measure


def _select_final(hclass: HypothesisClass, space: VersionSpace, rs: RandomString) -> int:
    """Shared-randomness pick among survivors, invariant to index accidents.

    Each distinct surviving prediction signature is ranked by the shared
    string's keyed hash under "final-order", the signature itself breaking a
    64-bit tie, and the minimum wins; the lowest surviving index holding it
    is returned.  The ranks never depend on the data, so two runs sharing
    the string disagree exactly when the minimum of the union of their
    survivor sets falls in the symmetric difference, which has probability
    |S1 xor S2| / |S1 or S2| over the string (MinHash).  The cost is one hash
    per distinct survivor.
    """
    lowest_by_sig: dict[bytes, int] = {}
    for i in space.indices():
        lowest_by_sig.setdefault(hclass.signature(int(i)), int(i))
    if not lowest_by_sig:
        raise EmptyVersionSpaceError("no surviving signature to select")
    sig = min(lowest_by_sig, key=lambda s: (rs.rank("final-order", s), s))
    return lowest_by_sig[sig]


# ---------------------------------------------------------------------------
# RepliCAL


def run_replical(
    problem: Problem,
    eps: float,
    delta: float,
    rho: float,
    rs: RandomString,
    rng: np.random.Generator,
    constants: Optional[Constants] = None,
    stream_accounting: bool = False,
) -> RunResult:
    """Replicable consistency-style elimination for noiseless labels.

    Differs from the plain disagreement learner in three places: the loop is
    guarded by a replicable estimate of the disagreement mass instead of the
    exact value, elimination keeps hypotheses with conditional empirical
    error up to a shared randomly drawn threshold instead of exactly zero,
    and the returned survivor is the one of least keyed-hash rank on the
    shared string (see ``_select_final``).
    """
    constants = constants or Constants()
    counters = SampleCounters()
    hclass = problem.hclass
    if problem.nu > PROB_TOL:
        raise WrongSettingError(
            f"this learner needs a zero-error hypothesis, best has error {problem.nu}"
        )
    theta = problem.sizing_theta
    sched = size_schedule(theta, eps, delta, rho, 0.0, hclass.n_hypotheses, "realizable", constants)
    shared = rs.clone()
    grid = build_grid(theta, rho, hclass.n_hypotheses, "realizable", shared, constants=constants)
    v = grid.threshold
    trace: list[RoundRecord] = []
    space, _, est, rounds = _eliminate(
        problem, sched.k, sched.round_cap, rng, counters, stream_accounting,
        _loop_estimate(problem, sched, shared, rng, counters, eps / 2.0),
        lambda errs, est: (v, v, None), trace  # keep errors up to the shared threshold
    )
    chosen = _select_final(hclass, space, shared)
    return _result("replical", problem, chosen, space, counters, rounds, est, trace)


# ---------------------------------------------------------------------------
# ReplicA-squared


def run_replica2(
    problem: Problem,
    eps: float,
    delta: float,
    rho: float,
    rs: RandomString,
    rng: np.random.Generator,
    constants: Optional[Constants] = None,
    stream_accounting: bool = False,
) -> RunResult:
    """Replicable agnostic elimination, then a final cut relative to the best.

    Loop rounds keep hypotheses whose conditional empirical error stays under
    the shared threshold plus a noise allowance tied to the current estimated
    disagreement mass.  Once the estimate drops below 16 * theta * nu, a
    finer grid (same selected slot, fresh origin) gives the final threshold
    v_final, and one sample of k_final labels from the disagreement region of
    the version space V makes the final cut: h is kept iff its conditional
    empirical error is at most floor + v_final, where floor is the lowest
    such error among the members of V (the A² rule, with the shared grid
    value in place of a confidence radius).  The survivor of least keyed-hash
    rank on the shared string is the winner (see ``_select_final``).

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
    constants = constants or Constants()
    counters = SampleCounters()
    hclass, model, nu = problem.hclass, problem.model, problem.nu
    theta = problem.sizing_theta
    # raises ParameterError when nu is 0: the noise-scaled grids are undefined
    sched = size_schedule(theta, eps, delta, rho, nu, hclass.n_hypotheses, "agnostic", constants)
    shared = rs.clone()
    grid = build_grid(
        theta, rho, hclass.n_hypotheses, "agnostic-loop", shared, eps, nu, constants
    )
    v = grid.threshold
    trace: list[RoundRecord] = []
    flags: list[str] = []
    guard = 16.0 * theta * nu

    def cut(errs, est):
        slack = 2.0 * nu / est + 1.0 / (16.0 * theta)
        return v + slack, v, slack

    if guard >= 1.0:
        # the loop can never run its guard meaningfully at this noise level;
        # fall through to the final phase alone
        flags.append("loop-guard-unsatisfiable")
        space, region, rounds = VersionSpace.full(hclass.n_hypotheses), problem.region, 0
    else:
        space, region, _, rounds = _eliminate(
            problem, sched.k, sched.round_cap, rng, counters, stream_accounting,
            _loop_estimate(problem, sched, shared, rng, counters, guard), cut, trace
        )
    final_grid = build_grid(
        theta,
        rho,
        hclass.n_hypotheses,
        "agnostic-final",
        shared,
        eps,
        nu,
        constants,
        reuse_index=grid.selected_index,
    )
    v_final = final_grid.threshold
    est_final = _replicable_region_estimate(
        model,
        region,
        sched.sq_final,
        sched.t_final,
        shared,
        "region-estimate-final",
        rng,
        counters,
    )
    if est_final <= PROB_TOL:
        flags.append("final-estimate-zero")
    pre_size = space.size
    floor_final: Optional[float] = None
    if disagreement_mass(model, region) > PROB_TOL:
        count0, count1 = sample_labeled_counts(
            model, region, sched.k_final, rng, counters, stream_accounting
        )
        errs = empirical_errors_from_counts(hclass, count0, count1, space.members)
        # the cut is measured from the best member, so the shared threshold
        # bounds each survivor's excess over the floor, not its raw error
        floor_final = float(errs.min())
        space = VersionSpace(space.members & (errs <= floor_final + v_final + PROB_TOL))
    else:
        flags.append("final-region-zero-mass")
    trace.append(
        RoundRecord(
            rounds,
            est_final,
            pre_size,
            threshold=v_final,
            slack=floor_final,
            labels_so_far=counters.labels,
        )
    )
    chosen = _select_final(hclass, space, shared)
    return _result(
        "replica2",
        problem,
        chosen,
        space,
        counters,
        rounds,
        est_final,
        trace,
        flags=tuple(flags),
    )
