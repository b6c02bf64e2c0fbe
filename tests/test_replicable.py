"""Offset grids, sample schedules, and the two replicable learners."""

import functools
import math

import numpy as np
import pytest

import ralearn as ra
from ralearn.baselines import Constants
from ralearn.diagnostics import interval_profile
from ralearn.replicable import (
    ThresholdGrid,
    _select_final,
    build_grid,
    replica2_plan,
    replical_plan,
    run_replica2,
    run_replical,
    size_schedule,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


# one side of each learner, sized first as a batch sizes it
def _replical(problem, eps, delta, rho, rs, rng):
    return run_replical(problem, replical_plan(problem, eps, delta, rho), rs, rng)


def _replica2(problem, eps, delta, rho, rs, rng):
    return run_replica2(problem, replica2_plan(problem, eps, delta, rho), rs, rng)


# ---------------------------------------------------------------------------
# grids


def test_grid_with_three_selectable_thresholds():
    """Spacing forced to 1/64 puts the candidate cuts at odd half-steps."""
    sched = size_schedule(2.0, 0.1, 0.1, 0.5, 0.0, 16, Constants().updated({"c_grid": 0.28}))
    grid = build_grid(
        sched.top_loop, sched.interval_count, "realizable", ra.RandomString("0badf00d")
    )
    assert grid.count == 3
    assert grid.range_top == pytest.approx(1 / 16)
    assert grid.spacing == pytest.approx(1 / 64)
    sel = grid.selectable_thresholds()
    assert np.allclose(sel, grid.origin + np.array([3.0, 5.0, 7.0]) / 128)
    assert grid.threshold == pytest.approx(sel[grid.selected_index])
    assert 0.0 <= grid.origin < 2 / 16


def test_grid_redraw_is_identical():
    a = build_grid(1 / 16, 3, "realizable", ra.RandomString("42aa"))
    b = build_grid(1 / 16, 3, "realizable", ra.RandomString("42aa"))
    assert (a.origin, a.selected_index) == (b.origin, b.selected_index)


def test_grid_single_interval_forces_slot_zero():
    sched = size_schedule(2.0, 0.1, 0.1, 0.5, 0.0, 16, Constants().updated({"c_grid": 0.01}))
    grid = build_grid(1 / 16, sched.interval_count, "realizable", ra.RandomString("05"))
    assert grid.count == 1
    assert grid.selected_index == 0
    assert grid.selectable_thresholds().shape == (1,)


def test_schedule_interval_count_values():
    # floor(ln 129 / 0.09)
    assert size_schedule(1.0, 0.1, 0.1, 0.3, 0.0, 129).interval_count == 53
    # floored to the minimum
    assert size_schedule(1.0, 0.1, 0.1, 0.9, 0.0, 2).interval_count == 1


def test_schedule_grid_spans_by_setting():
    realizable = size_schedule(2.0, 0.1, 0.1, 0.3, 0.0, 129)
    assert realizable.top_loop == pytest.approx(1 / 16)
    agnostic = size_schedule(1.0, 0.1, 0.1, 0.3, 0.05, 129)
    assert agnostic.top_loop == pytest.approx(1 / 32)
    assert agnostic.top_final == pytest.approx(1 / 32)


def test_schedule_rejects_degenerate_grid_inputs():
    for theta, nu in ((0.0, 0.0), (1.0, -0.05), (1.0, float("nan"))):
        with pytest.raises(ra.ParameterError):
            size_schedule(theta, 0.1, 0.1, 0.3, nu, 129)


def test_grid_reuse_index_skips_the_slot_draw():
    rs = ra.RandomString("aa01")
    loop = build_grid(1 / 32, 53, "agnostic-loop", rs)
    final = build_grid(1 / 32, 53, "agnostic-final", rs, reuse_index=loop.selected_index)
    assert final.selected_index == loop.selected_index
    assert rs.draws_made("grid-index") == 1  # only the loop grid consumed a slot draw
    with pytest.raises(ra.ParameterError):
        build_grid(1 / 32, 53, "agnostic-final", rs, reuse_index=999)


def test_grid_threshold_sits_inside_its_cell():
    grid = ThresholdGrid(0.1, 0.2, 3, 1, "realizable")
    assert grid.n_intervals == 4
    # cells are [0.1, 0.15), [0.15, 0.2), [0.2, 0.25), [0.25, 0.3)
    assert interval_profile(grid, [0.125, 0.175, 0.225, 0.275]).counts == (1, 1, 1, 1)
    assert grid.threshold == pytest.approx(0.225)
    assert interval_profile(grid, [grid.threshold]).counts == (0, 0, 1, 0)


def test_grid_interval_of_clamps():
    grid = ThresholdGrid(0.1, 0.2, 3, 0, "realizable")

    def cell(error):
        return interval_profile(grid, [error]).counts.index(1)

    assert cell(0.0) == 0
    assert cell(0.12) == 0
    assert cell(0.16) == 1
    assert cell(0.9) == 3


def test_grid_spacing_splits_the_range_into_count_plus_one_cells():
    assert ThresholdGrid(0.1, 0.2, 3, 0, "realizable").spacing == 0.2 / 4
    assert ThresholdGrid(0.0, 1 / 16, 53, 0, "realizable").spacing == (1 / 16) / 54


@pytest.mark.parametrize(
    "fields",
    [(0.1, 0.0, 3, 0, "realizable"), (0.1, -0.2, 3, 0, "realizable"),
     (0.1, float("nan"), 3, 0, "realizable"), (0.1, 0.2, 0, 0, "realizable"),
     (0.1, 0.2, 3, 3, "realizable")],
)
def test_grid_rejects_inconsistent_fields(fields):
    with pytest.raises(ra.ParameterError):
        ThresholdGrid(*fields)


@pytest.mark.parametrize("seed", ["01", "02", "beef", "1c0e"])
def test_grid_threshold_is_strictly_positive(seed):
    sched = size_schedule(1.0, 0.1, 0.1, 0.3, 0.0, 64)
    grid = build_grid(sched.top_loop, sched.interval_count, "realizable", ra.RandomString(seed))
    assert 0.0 < grid.threshold <= 3.0 * grid.range_top


# ---------------------------------------------------------------------------
# schedules


def test_realizable_schedule_hand_evaluation():
    """Every size must equal its closed form written out longhand."""
    sched = size_schedule(2.0, 0.05, 0.1, 0.3, 0.0, 129)
    assert sched.n_max == 6
    assert sched.round_cap == 24
    assert sched.interval_count == 53
    assert sched.top_loop == 1 / 16 and sched.top_final == 0.0
    spacing = (1 / 16) / 54
    assert sched.k_err == math.ceil(2 * 2 * math.log(129 * 6 / 0.1))
    assert sched.k_err == 36
    assert sched.k_rep == math.ceil(math.log(6 / 0.3) / (2 * spacing**2))
    assert sched.k == max(sched.k_err, sched.k_rep) == sched.k_rep
    sq = sched.sq_loop
    assert sq is not None
    assert (sq.rho, sq.tau, sq.delta) == (0.3 / 12, 0.025, 0.1 / 12)
    beta = 0.3 / 12 - 2 * (0.1 / 12)
    need = math.ceil((1 + beta) ** 2 * math.log(2 / (0.1 / 12)) / (2 * 0.025**2 * beta**2))
    assert sched.t_unlabeled == need
    assert sched.k_final == 0


def test_agnostic_schedule_hand_evaluation():
    sched = size_schedule(1.0, 0.1, 0.1, 0.3, 0.05, 129)
    assert sched.n_max == 3  # ceil(log2(1/0.4)) + 1
    assert sched.interval_count == 53
    assert sched.top_loop == 1 / 32
    assert sched.top_final == pytest.approx(0.1 / (64 * 0.05))
    spacing = (1 / 32) / 54
    spacing_final = sched.top_final / 54
    assert sched.k_err == math.ceil(2 * math.log(129 * 3 / 0.1))
    assert sched.k_rep == math.ceil(math.log(3 / 0.3) / spacing**2)
    k_final_err = math.ceil(1 * (0.05 / 0.1) ** 2 * math.log(129 / 0.1))
    k_final_rep = math.ceil(math.log(3 / 0.3) / spacing_final**2)
    assert sched.k_final == max(k_final_err, k_final_rep)
    assert sched.sq_loop is not None
    assert sched.sq_loop.tau == pytest.approx(0.4)
    assert sched.sq_loop.rho == pytest.approx(0.3 / 8)
    assert sched.sq_loop.delta == pytest.approx(0.1 / 8)


def test_schedule_rejects_rho_at_most_twice_delta():
    with pytest.raises(ra.ParameterError):
        size_schedule(2.0, 0.05, 0.1, 0.1, 0.0, 129)
    # also when the agnostic schedule sizes no loop query
    with pytest.raises(ra.ParameterError, match="twice the failure budget"):
        size_schedule(2.0, 0.1, 0.1, 0.2, 0.5, 65)


def test_schedule_loop_phase_vanishes_when_guard_saturates():
    sched = size_schedule(2.0, 0.1, 0.1, 0.3, 0.5, 65)
    assert sched.sq_loop is None
    assert sched.n_max == 1
    assert sched.t_unlabeled == 0
    assert sched.top_final > 0.0


def test_schedule_reads_nu_up_to_prob_tol_as_realizable():
    real = size_schedule(2.0, 0.05, 0.1, 0.3, 0.0, 129)
    for nu in (1e-13, ra.PROB_TOL):
        assert size_schedule(2.0, 0.05, 0.1, 0.3, nu, 129) == real
    assert size_schedule(2.0, 0.05, 0.1, 0.3, 1e-6, 129).top_final > 0.0


@pytest.mark.parametrize("nu, loop_query", [(0.06, True), (0.0625, False), (0.07, False)])
def test_schedule_sizes_a_loop_query_only_below_the_loop_exit_level(nu, loop_query):
    # replica2 leaves its loop below 16 theta nu; from 1/16 <= theta nu on it
    # never enters it, though the query tolerance 8 theta nu is still below 1
    sched = size_schedule(1.0, 0.1, 0.1, 0.3, nu, 129)
    assert (sched.sq_loop is not None) == loop_query
    assert (sched.t_unlabeled > 0) == loop_query
    assert sched.n_max == (3 if loop_query else 2) and sched.top_final > 0.0


def test_schedule_refuses_a_final_range_that_underflows():
    # eps / (64 theta nu) underflows to 0.0; refusing it keeps top_final > 0
    # in every agnostic schedule, which gridcheck reads the phase from
    with pytest.raises(ra.ParameterError, match="no finite sample size"):
        size_schedule(1.0, 5e-324, 0.1, 0.3, 0.5, 129)


def test_schedule_refuses_more_thresholds_than_a_choice_draws_from():
    # floor(ln 4 / rho**2) thresholds, past the 2**64 a slot draw takes
    assert math.floor(math.log(4) / 5.2e-12**2) > 2**64
    with pytest.raises(ra.ParameterError, match="rho=5.2e-12"):
        size_schedule(1.0, 0.1, 1e-300, 5.2e-12, 0.0, 4)


def test_schedule_halving_eps_adds_a_round():
    a = size_schedule(2.0, 0.05, 0.1, 0.3, 0.0, 129)
    b = size_schedule(2.0, 0.025, 0.1, 0.3, 0.0, 129)
    assert b.n_max == a.n_max + 1


def test_schedule_is_deterministic():
    args = (2.0, 0.05, 0.1, 0.3, 0.0, 129)
    assert size_schedule(*args) == size_schedule(*args)


def test_schedule_reads_the_setting_from_nu():
    # no noise sizes no final phase; any noise sizes one
    noiseless = size_schedule(2.0, 0.05, 0.1, 0.3, 0.0, 129)
    assert noiseless.top_final == 0.0 and noiseless.k_final == 0
    noisy = size_schedule(2.0, 0.05, 0.1, 0.3, 1e-9, 129)
    assert noisy.top_final > 0.0 and noisy.k_final > 0


# ---------------------------------------------------------------------------
# shared final pick

# rows 0, 2 and 5 share a signature, as do rows 1 and 4
_DUPLICATES = ra.explicit(
    [[0, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1], [0, 1, 1], [0, 0, 1], [1, 0, 0]]
)


@functools.cache
def _problem(h):
    return ra.Problem(h, ra.DataModel.realizable(h, 0))


def _pick(h, members, rs):
    mask = np.zeros(h.n_hypotheses, dtype=bool)
    mask[members] = True
    return _select_final(_problem(h), ra.VersionSpace(mask), rs)


def test_final_pick_depends_only_on_the_surviving_signatures():
    # three survivor sets with the same three signatures
    survivor_sets = ([0, 1, 3], [1, 2, 3, 4], [3, 4, 5])
    master = ra.RandomString("f1a1")
    winners = set()
    for i in range(40):
        rs = master.spawn(f"pick/{i}")
        picks = [_pick(_DUPLICATES, m, rs) for m in survivor_sets]
        sigs = {_DUPLICATES.signature(p) for p in picks}
        assert len(sigs) == 1
        sig = sigs.pop()
        winners.add(sig)
        # the lowest surviving index that holds the winning signature
        for members, pick in zip(survivor_sets, picks):
            assert pick == min(j for j in members if _DUPLICATES.signature(j) == sig)
        # the same rows in another order give the same signature
        order = [6, 5, 4, 3, 2, 1, 0]
        reordered = ra.explicit(_DUPLICATES.predictions[order])
        pick = _pick(reordered, [order.index(j) for j in (0, 1, 3)], rs)
        assert reordered.signature(pick) == sig
    assert len(winners) == 3
    with pytest.raises(ra.EmptyVersionSpaceError):
        _pick(_DUPLICATES, [], master)


def test_final_pick_ranks_each_distinct_survivor_once(monkeypatch):
    ranked = []
    original = ra.RandomString.rank

    def counting(self, label, item):
        ranked.append((label, item))
        return original(self, label, item)

    monkeypatch.setattr(ra.RandomString, "rank", counting)
    rs = ra.RandomString("0b")
    h = ra.thresholds(64)
    _pick(h, [10, 11, 12], rs)
    assert [label for label, _ in ranked] == ["final-order"] * 3
    ranked.clear()
    _pick(_DUPLICATES, [0, 1, 2, 4, 5], rs)
    assert sorted(item for _, item in ranked) == sorted(
        {_DUPLICATES.signature(j) for j in (0, 1)}
    )
    assert rs.draws_made("final-order") == 0


def test_final_pick_agreement_matches_jaccard_similarity():
    """Monte Carlo companion to criterion 13: over shared strings, two fixed
    survivor sets pick the same hypothesis with probability equal to their
    Jaccard similarity, here 3 / 10."""
    h = ra.thresholds(16)
    first, second = list(range(0, 6)), list(range(3, 10))
    jaccard = 3 / 10
    master = ra.RandomString("ac1d")
    n = 20_000
    agree = 0
    for i in range(n):
        rs = master.spawn(f"jaccard/{i}")
        agree += _pick(h, first, rs) == _pick(h, second, rs)
    sigma = math.sqrt(jaccard * (1 - jaccard) / n)
    assert abs(agree / n - jaccard) <= 4 * sigma, agree / n


def test_replical_side_builds_the_chosen_signature_once(monkeypatch):
    # the final pick and the result read one signature from the problem's memo
    h = ra.thresholds(32)
    problem = ra.Problem(h, ra.DataModel.realizable(h, 16))
    plan = replical_plan(problem, 0.1, 0.1, 0.3)
    built = []
    original = ra.HypothesisClass.signature

    def counting(self, i):
        built.append(i)
        return original(self, i)

    monkeypatch.setattr(ra.HypothesisClass, "signature", counting)
    res = run_replical(problem, plan, ra.RandomString("01"), _rng())
    assert res.survivors == (16,)
    assert built == [16]
    assert res.signature == original(h, 16)


# ---------------------------------------------------------------------------
# replicable consistency learner


def test_replical_singleton_class_uses_no_labels():
    h = ra.explicit([[0, 1, 0]])
    m = ra.DataModel.realizable(h, 0)
    res = _replical(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("01"), _rng())
    assert res.hypothesis_index == 0
    assert res.labels_used == 0
    assert res.rounds == 0
    assert res.unlabeled_used > 0  # the region estimate still runs


def test_replical_replays_bit_identically():
    h = ra.thresholds(64)
    m = ra.DataModel.realizable(h, 20)
    a = _replical(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("c0de"), _rng(5))
    b = _replical(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("c0de"), _rng(5))
    assert a == b


def test_replical_does_not_mutate_callers_string():
    h = ra.thresholds(32)
    m = ra.DataModel.realizable(h, 16)
    rs = ra.RandomString("77aa")
    _replical(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(1))
    first = _replical(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(1))
    second = _replical(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(1))
    assert first == second  # entry clone keeps the caller's counters untouched


def test_replical_pairs_mostly_agree_when_sharing_the_string():
    h = ra.thresholds(32)
    m = ra.DataModel.realizable(h, 16)
    agree = 0
    for i in range(20):
        rs = ra.RandomString(f"{i:02x}")
        r1 = _replical(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(2 * i))
        r2 = _replical(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(2 * i + 1))
        agree += r1.signature == r2.signature
    assert agree >= 12  # budget allows 30% disagreement; this is far inside it


def test_replical_target_always_survives():
    h = ra.thresholds(64)
    m = ra.DataModel.realizable(h, 20)
    for i in range(30):
        res = _replical(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString(f"{i + 1:04x}"), _rng(i))
        assert 20 in res.survivors
        assert res.error <= 0.1 + 1e-12


def test_replical_label_accounting_matches_schedule():
    h = ra.thresholds(128)
    m = ra.DataModel.realizable(h, 65)
    theta = ra.disagreement_coefficient(h, m, 65)
    sched = size_schedule(theta, 0.05, 0.05, 0.3, 0.0, 129)
    res = _replical(ra.Problem(h, m), 0.05, 0.05, 0.3, ra.RandomString("0abc"), _rng(9))
    assert res.labels_used == sched.k * res.rounds
    assert res.unlabeled_used == sched.t_unlabeled * (res.rounds + 1)
    assert res.rounds <= sched.n_max


def test_learners_place_the_schedule_grids():
    """Each learner cuts at the grids its schedule sized, placed on a clone of
    the shared string: one loop grid, and for replica2 a final grid that
    reuses the loop grid's slot."""
    h = ra.thresholds(32)
    rs = ra.RandomString("0c0c")
    real = ra.Problem(h, ra.DataModel.realizable(h, 16))
    res = _replical(real, 0.1, 0.1, 0.3, rs, _rng(1))
    sched = size_schedule(real.sizing_theta, 0.1, 0.1, 0.3, 0.0, 33)
    grid = build_grid(sched.top_loop, sched.interval_count, "realizable", rs.clone())
    assert res.rounds >= 1
    assert {rec.threshold for rec in res.trace} == {grid.threshold}

    noisy = ra.Problem(h, ra.DataModel.agnostic(h, 32, 0.01))
    res = _replica2(noisy, 0.1, 0.1, 0.3, rs, _rng(1))
    sched = size_schedule(noisy.sizing_theta, 0.1, 0.1, 0.3, noisy.nu, 33)
    shared = rs.clone()
    loop = build_grid(sched.top_loop, sched.interval_count, "agnostic-loop", shared)
    final = build_grid(
        sched.top_final, sched.interval_count, "agnostic-final", shared, loop.selected_index
    )
    assert res.rounds >= 1
    assert {rec.threshold for rec in res.trace[:-1]} == {loop.threshold}
    assert res.trace[-1].threshold == final.threshold


def test_replical_trace_is_monotone():
    h = ra.thresholds(128)
    m = ra.DataModel.realizable(h, 65)
    res = _replical(ra.Problem(h, m), 0.05, 0.05, 0.3, ra.RandomString("0abd"), _rng(4))
    sizes = [r.version_size for r in res.trace]
    assert sizes == sorted(sizes, reverse=True)
    for rec in res.trace:
        assert rec.threshold is not None and rec.threshold > 0.0
        assert 0.0 <= rec.disagreement <= 1.0
    labels = [r.labels_so_far for r in res.trace]
    assert labels == sorted(labels)


def test_replical_rejects_bad_budgets():
    h = ra.thresholds(8)
    m = ra.DataModel.realizable(h, 4)
    with pytest.raises(ra.ParameterError):
        _replical(ra.Problem(h, m), 0.1, 0.2, 0.3, ra.RandomString("01"), _rng())
    with pytest.raises(ra.ParameterError):
        _replical(ra.Problem(h, m), 1.2, 0.05, 0.3, ra.RandomString("01"), _rng())


# ---------------------------------------------------------------------------
# replicable agnostic learner


def _edge_noise_problem(n=16, eta=0.05):
    h = ra.thresholds(n)
    m = ra.DataModel.agnostic(h, n, eta)
    return h, m


def test_replica2_rejects_noiseless_models():
    h = ra.thresholds(16)
    m = ra.DataModel.realizable(h, 8)
    with pytest.raises(ra.WrongSettingError):
        _replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("01"), _rng())


def test_replica2_runs_on_edge_noise():
    h, m = _edge_noise_problem()
    res = _replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("0101"), _rng(3))
    assert res.algo == "replica2"
    assert res.labels_used > 0
    assert len(res.trace) == res.rounds + 1  # loop rounds plus the final phase record
    assert res.flags == ()


def test_replica2_replays_bit_identically():
    h, m = _edge_noise_problem()
    a = _replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("fe01"), _rng(7))
    b = _replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("fe01"), _rng(7))
    assert a == b


def test_replica2_flags_unsatisfiable_loop_guard():
    # a centered base doubles the coefficient, pushing the loop exit level
    # 16 theta nu past one, so the loop cannot run at all and the schedule
    # sizes no loop query for it
    h = ra.thresholds(16)
    for eta in (0.05, 0.1):
        m = ra.DataModel.agnostic(h, 8, eta)
        assert ra.disagreement_coefficient(h, m, 8) == pytest.approx(2.0)
        problem = ra.Problem(h, m)
        sched = ra.size_schedule(problem.sizing_theta, 0.1, 0.1, 0.3, problem.nu, 16)
        assert sched.sq_loop is None
        res = _replica2(problem, 0.1, 0.1, 0.3, ra.RandomString("33"), _rng(2))
        assert "loop-guard-unsatisfiable" in res.flags
        assert res.rounds == 0


def test_replica2_best_hypothesis_usually_survives():
    h, m = _edge_noise_problem(32)
    kept = 0
    for i in range(20):
        res = _replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString(f"{i:02x}"), _rng(i))
        kept += 32 in res.survivors
    assert kept >= 18


def test_replica2_pairs_mostly_agree():
    h, m = _edge_noise_problem(32)
    agree = 0
    for i in range(20):
        rs = ra.RandomString(f"a0{i:02x}")
        r1 = _replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(50 + 2 * i))
        r2 = _replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(51 + 2 * i))
        agree += r1.signature == r2.signature
    assert agree >= 12
