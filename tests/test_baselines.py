"""Passive ERM, CAL, and the agnostic elimination baseline."""

import math

import numpy as np
import pytest

import ralearn as ra
from ralearn.core import PROB_TOL
from ralearn.baselines import (
    Constants,
    _eliminate,
    a2_plan,
    a2_round_bound,
    cal_plan,
    cal_round_bound,
    cal_sample_size,
    erm_plan,
    erm_sample_size,
    run_a2,
    run_cal,
    run_passive_erm,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


# one side of each learner, sized first as a batch sizes it
def _erm(problem, eps, delta, rng, constants=None):
    return run_passive_erm(problem, erm_plan(problem, eps, delta, constants), rng)


def _cal(problem, eps, delta, rng, constants=None):
    return run_cal(problem, cal_plan(problem, eps, delta, constants), rng)


def _a2(problem, eps, delta, rng, constants=None):
    return run_a2(problem, a2_plan(problem, eps, delta, constants), rng)


def _replical(problem, eps, delta, rho, rs, rng):
    return ra.run_replical(problem, ra.replical_plan(problem, eps, delta, rho), rs, rng)


def _replica2(problem, eps, delta, rho, rs, rng):
    return ra.run_replica2(problem, ra.replica2_plan(problem, eps, delta, rho), rs, rng)


# ---------------------------------------------------------------------------
# constants


def test_constants_reject_unknown_key():
    with pytest.raises(ra.ParameterError):
        Constants().updated({"c_mystery": 2.0})


def test_constants_reject_nonpositive():
    with pytest.raises(ra.ParameterError):
        Constants().updated({"c_cal": 0.0})
    with pytest.raises(ra.ParameterError):
        Constants(c_pass=-1.0)


def test_constants_updated_returns_new_object():
    base = Constants()
    other = base.updated({"c_cal": 5.0})
    assert other.c_cal == 5.0
    assert base.c_cal == 2.0


# ---------------------------------------------------------------------------
# passive baseline


def test_erm_singleton_class_draws_full_sample():
    h = ra.explicit([[0, 1, 0, 1]])
    m = ra.DataModel.realizable(h, 0)
    res = _erm(ra.Problem(h, m), 0.1, 0.1, _rng())
    assert res.hypothesis_index == 0
    assert res.labels_used == erm_sample_size(1, 0.1, 0.1, Constants())
    assert res.rounds == 0
    assert res.survivors == (0,)


def test_erm_sample_size_scales_inversely_with_accuracy():
    a = erm_sample_size(129, 0.08, 0.05, Constants())
    b = erm_sample_size(129, 0.01, 0.05, Constants())
    assert b / a >= 4.0
    # the closed form itself scales by exactly 8 before rounding
    assert b == math.ceil(2 * (1 / 0.01) * math.log(129 / 0.05))


def test_erm_learns_thresholds():
    h = ra.thresholds(128)
    m = ra.DataModel.realizable(h, 65)
    good = 0
    for t in range(50):
        res = _erm(ra.Problem(h, m), 0.05, 0.05, _rng(t))
        good += res.error <= 0.05
    assert good >= 45


def test_erm_result_is_jsonable():
    h = ra.thresholds(8)
    m = ra.DataModel.realizable(h, 4)
    res = _erm(ra.Problem(h, m), 0.1, 0.1, _rng(1))
    doc = res.to_jsonable()
    assert doc["algo"] == "erm"
    assert doc["signature"] == res.signature.hex()
    assert isinstance(doc["survivors"], list)


# ---------------------------------------------------------------------------
# CAL


def test_cal_round_bound_values():
    assert cal_round_bound(0.05) == 6
    assert cal_round_bound(0.025) == 7  # halving the target adds one round


def test_cal_singleton_class_is_immediate():
    h = ra.explicit([[1, 0, 1]])
    m = ra.DataModel.realizable(h, 0)
    res = _cal(ra.Problem(h, m), 0.1, 0.1, _rng())
    assert res.labels_used == 0
    assert res.rounds == 0
    assert res.hypothesis_index == 0


def test_cal_consistency_filter_hand_case(thresholds8):
    """Labels (x=4, 0) and (x=5, 1) pin the version space to h5 alone."""
    count0 = np.array([0, 0, 0, 1, 0, 0, 0, 0])
    count1 = np.array([0, 0, 0, 0, 1, 0, 0, 0])
    errs = ra.empirical_errors_from_counts(thresholds8, count0, count1)
    consistent = np.flatnonzero(errs <= 1e-12)
    assert consistent.tolist() == [4]


def test_cal_recovers_target():
    h = ra.thresholds(128)
    m = ra.DataModel.realizable(h, 65)
    res = _cal(ra.Problem(h, m), 0.05, 0.05, _rng(3))
    assert res.error <= 0.05
    assert res.rounds <= cal_round_bound(0.05)
    assert res.labels_used > 0


def test_cal_never_eliminates_target():
    h = ra.thresholds(64)
    m = ra.DataModel.realizable(h, 20)
    for t in range(100):
        res = _cal(ra.Problem(h, m), 0.1, 0.1, _rng(t))
        assert 20 in res.survivors


def test_cal_rejects_noisy_models():
    h = ra.thresholds(16)
    m = ra.DataModel.agnostic(h, 8, 0.1)
    with pytest.raises(ra.WrongSettingError):
        _cal(ra.Problem(h, m), 0.1, 0.1, _rng())


def test_cal_trace_shrinks_monotonically():
    h = ra.thresholds(128)
    m = ra.DataModel.realizable(h, 65)
    res = _cal(ra.Problem(h, m), 0.05, 0.05, _rng(8))
    sizes = [r.version_size for r in res.trace]
    assert sizes == sorted(sizes, reverse=True)
    masses = [r.disagreement for r in res.trace]
    assert all(0.0 <= x <= 1.0 for x in masses)


def test_cal_sample_size_formula():
    assert cal_sample_size(129, 2.0, 0.05, 0.05, Constants()) == math.ceil(
        2 * 2 * math.log(129 * 6 / 0.05)
    )


def test_cal_accuracy_param_validation():
    h = ra.thresholds(8)
    m = ra.DataModel.realizable(h, 4)
    with pytest.raises(ra.ParameterError):
        _cal(ra.Problem(h, m), 0.0, 0.1, _rng())
    with pytest.raises(ra.ParameterError):
        _cal(ra.Problem(h, m), 0.1, 1.5, _rng())


# ---------------------------------------------------------------------------
# agnostic baseline


def test_a2_round_bound_cases():
    assert a2_round_bound(1.0, 0.05, 0.1) == max(1, math.ceil(math.log2(1 / 0.4)))
    assert a2_round_bound(1.0, 0.0, 0.05) == cal_round_bound(0.05)
    assert a2_round_bound(4.0, 0.5, 0.1) == 1  # guard already at one


def test_a2_runs_in_realizable_limit():
    h = ra.thresholds(32)
    m = ra.DataModel.realizable(h, 16)
    res = _a2(ra.Problem(h, m), 0.1, 0.1, _rng(5))
    assert res.error <= 0.1 + 1e-12
    assert res.algo == "a2"


def test_a2_agnostic_accuracy_with_tuned_sizes():
    h = ra.thresholds(128)
    m = ra.DataModel.agnostic(h, 128, 0.05)
    nu, best = ra.noise_rate(h, m)
    assert best == 128 and nu == pytest.approx(0.05)
    good = 0
    for t in range(30):
        res = _a2(ra.Problem(h, m), 0.1, 0.1, _rng(t))
        good += res.error <= nu + 0.1 + 1e-12
    assert good >= 25


def test_a2_best_hypothesis_survives_elimination():
    h = ra.thresholds(128)
    m = ra.DataModel.agnostic(h, 128, 0.05)
    kept = 0
    for t in range(30):
        res = _a2(ra.Problem(h, m), 0.1, 0.1, _rng(100 + t))
        kept += 128 in res.survivors
    assert kept >= 27


def test_a2_default_sizes_hit_round_cap():
    # at c_a2 = 1 the confidence radius never separates anything at this
    # scale, so the loop must abort rather than spin
    h = ra.thresholds(128)
    m = ra.DataModel.agnostic(h, 128, 0.05)
    with pytest.raises(ra.RoundCapExceededError):
        _a2(ra.Problem(h, m), 0.1, 0.1, _rng(0), Constants().updated({"c_a2": 1.0}))


def test_a2_trace_records_cutoffs():
    h = ra.thresholds(128)
    m = ra.DataModel.agnostic(h, 128, 0.05)
    res = _a2(ra.Problem(h, m), 0.1, 0.1, _rng(2))
    assert len(res.trace) == res.rounds
    for rec in res.trace:
        assert rec.threshold is not None and rec.slack is not None
        assert rec.threshold >= 0.0


# ---------------------------------------------------------------------------
# the shared elimination loop


def _problem(n, target, eta=0.0):
    h = ra.thresholds(n)
    model = ra.DataModel.agnostic(h, target, eta) if eta else ra.DataModel.realizable(h, target)
    return ra.Problem(h, model)


# one run per active learner that goes through at least one loop round
_LOOP_RUNS = {
    "cal": lambda: _cal(_problem(128, 65), 0.01, 0.05, _rng(1)),
    "a2": lambda: _a2(_problem(64, 32, 0.01), 0.1, 0.1, _rng(1)),
    "replical": lambda: _replical(
        _problem(128, 65), 0.05, 0.05, 0.3, ra.RandomString("0abc"), _rng(1)
    ),
    "replica2": lambda: _replica2(
        _problem(64, 32, 0.01), 0.1, 0.1, 0.3, ra.RandomString("0abc"), _rng(1)
    ),
}


@pytest.mark.parametrize("algo", sorted(_LOOP_RUNS))
def test_loop_records_count_labels_through_their_round(algo):
    res = _LOOP_RUNS[algo]()
    assert res.rounds >= 1
    k = res.trace[0].labels_so_far
    assert k > 0
    loop = [rec.labels_so_far for rec in res.trace[: res.rounds]]
    assert loop == [(r + 1) * k for r in range(res.rounds)]
    if algo in ("cal", "replical"):
        assert res.trace[-1].labels_so_far == res.labels_used == res.rounds * k


def _eliminate_problems():
    """Thresholds, intervals and random explicit classes, with noisy labels
    and uneven weights on some; the narrow explicit ones repeat rows, so a
    cut can keep several members that agree everywhere."""
    g = np.random.default_rng(11)
    t40 = ra.thresholds(40)
    yield ra.Problem(t40, ra.DataModel.realizable(t40, 20))
    t33 = ra.thresholds(33)
    yield ra.Problem(t33, ra.DataModel.agnostic(t33, 9, 0.1, g.dirichlet(np.ones(33))))
    i10 = ra.intervals(10)
    yield ra.Problem(i10, ra.DataModel.agnostic(i10, 17, 0.05))
    for n_h, n in ((40, 5), (24, 30), (60, 12)):
        h = ra.explicit(g.integers(0, 2, (n_h, n)))
        yield ra.Problem(h, ra.DataModel.agnostic(h, int(g.integers(n_h)), 0.2, g.dirichlet(np.ones(n))))


def test_eliminate_returns_the_region_and_exact_mass_of_its_version_space():
    # the loop carries each round's region and mass instead of recomputing
    # them from the version space; stopped after r rounds, what it returns
    # must be what the version space gives from scratch, bit for bit
    seen = set()
    for p, problem in enumerate(_eliminate_problems()):
        hclass, model = problem.hclass, problem.model
        for r in range(4):

            def measure(mass, rounds):
                return mass, rounds >= r or mass <= PROB_TOL

            def keep_best(errs, value):
                return float(errs.min()), None, None

            trace = []
            space, region, mass, value, rounds = _eliminate(
                problem, 6, 10, _rng(100 * p + r), ra.SampleCounters(), measure, keep_best, trace
            )
            assert rounds == len(trace) <= r
            assert region.tolist() == ra.disagreement_mask(hclass, space).tolist()
            assert type(mass) is float and value == mass
            assert mass.hex() == ra.disagreement_mass(model, region).hex()
            seen.add((space.size == 1, mass == 0.0))
    # one survivor, several that agree everywhere, and a region of positive mass
    assert seen == {(True, True), (False, True), (False, False)}
