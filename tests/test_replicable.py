"""Offset grids, sample schedules, and the two replicable learners."""

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
    grid_interval_count,
    grid_range_top,
    run_replica2,
    run_replical,
    size_schedule,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# grids


def test_grid_with_three_selectable_thresholds():
    """Spacing forced to 1/64 puts the candidate cuts at odd half-steps."""
    consts = Constants().updated({"c_grid": 0.28})
    grid = build_grid(2.0, 0.5, 16, "realizable", ra.RandomString("0badf00d"), constants=consts)
    assert grid.count == 3
    assert grid.range_top == pytest.approx(1 / 16)
    assert grid.spacing == pytest.approx(1 / 64)
    sel = grid.selectable_thresholds()
    assert np.allclose(sel, grid.origin + np.array([3.0, 5.0, 7.0]) / 128)
    assert grid.threshold == pytest.approx(sel[grid.selected_index])
    assert 0.0 <= grid.origin < 2 / 16


def test_grid_redraw_is_identical():
    consts = Constants().updated({"c_grid": 0.28})
    a = build_grid(2.0, 0.5, 16, "realizable", ra.RandomString("42aa"), constants=consts)
    b = build_grid(2.0, 0.5, 16, "realizable", ra.RandomString("42aa"), constants=consts)
    assert (a.origin, a.selected_index) == (b.origin, b.selected_index)


def test_grid_single_interval_forces_slot_zero():
    consts = Constants().updated({"c_grid": 0.01})
    grid = build_grid(2.0, 0.5, 16, "realizable", ra.RandomString("05"), constants=consts)
    assert grid.count == 1
    assert grid.selected_index == 0
    assert grid.selectable_thresholds().shape == (1,)


def test_grid_interval_count_values():
    assert grid_interval_count(129, 0.3) == 53  # floor(ln 129 / 0.09)
    assert grid_interval_count(2, 0.9) == 1  # floored to the minimum


def test_grid_range_top_by_phase():
    assert grid_range_top(2.0, "realizable") == pytest.approx(1 / 16)
    assert grid_range_top(1.0, "agnostic-loop", nu=0.05) == pytest.approx(1 / 32)
    assert grid_range_top(1.0, "agnostic-final", eps=0.1, nu=0.05) == pytest.approx(1 / 32)


def test_grid_range_top_rejects_degenerate_inputs():
    with pytest.raises(ra.ParameterError):
        grid_range_top(0.0, "realizable")
    with pytest.raises(ra.ParameterError):
        grid_range_top(1.0, "agnostic-loop", nu=0.0)
    with pytest.raises(ra.ParameterError):
        grid_range_top(1.0, "sideways")


def test_grid_reuse_index_skips_the_slot_draw():
    rs = ra.RandomString("aa01")
    loop = build_grid(1.0, 0.3, 129, "agnostic-loop", rs, eps=0.1, nu=0.05)
    final = build_grid(
        1.0, 0.3, 129, "agnostic-final", rs, eps=0.1, nu=0.05, reuse_index=loop.selected_index
    )
    assert final.selected_index == loop.selected_index
    assert rs.draws_made("grid-index") == 1  # only the loop grid consumed a slot draw
    with pytest.raises(ra.ParameterError):
        build_grid(1.0, 0.3, 129, "agnostic-final", rs, eps=0.1, nu=0.05, reuse_index=999)


def test_grid_threshold_sits_inside_its_cell():
    grid = ThresholdGrid(0.1, 0.05, 3, 1, 0.2, "realizable")
    assert grid.n_intervals == 4
    # cells are [0.1, 0.15), [0.15, 0.2), [0.2, 0.25), [0.25, 0.3)
    assert interval_profile(grid, [0.125, 0.175, 0.225, 0.275]).counts == (1, 1, 1, 1)
    assert grid.threshold == pytest.approx(0.225)
    assert interval_profile(grid, [grid.threshold]).counts == (0, 0, 1, 0)


def test_grid_interval_of_clamps():
    grid = ThresholdGrid(0.1, 0.05, 3, 0, 0.2, "realizable")

    def cell(error):
        return interval_profile(grid, [error]).counts.index(1)

    assert cell(0.0) == 0
    assert cell(0.12) == 0
    assert cell(0.16) == 1
    assert cell(0.9) == 3


def test_grid_spacing_consistency_enforced():
    with pytest.raises(ra.ParameterError):
        ThresholdGrid(0.1, 0.06, 3, 0, 0.2, "realizable")


@pytest.mark.parametrize("seed", ["01", "02", "beef", "1c0e"])
def test_grid_threshold_is_strictly_positive(seed):
    grid = build_grid(1.0, 0.3, 64, "realizable", ra.RandomString(seed))
    assert 0.0 < grid.threshold <= 3.0 * grid.range_top


# ---------------------------------------------------------------------------
# schedules


def test_realizable_schedule_hand_evaluation():
    """Every size must equal its closed form written out longhand."""
    sched = size_schedule(2.0, 0.05, 0.1, 0.3, 0.0, 129, "realizable")
    assert sched.n_max == 6
    assert sched.round_cap == 24
    assert sched.interval_count == 53
    spacing = (1 / 16) / 54
    assert sched.spacing_loop == pytest.approx(spacing)
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
    assert sched.k_final == 0 and sched.t_final == 0 and sched.sq_final is None


def test_agnostic_schedule_hand_evaluation():
    sched = size_schedule(1.0, 0.1, 0.1, 0.3, 0.05, 129, "agnostic")
    assert sched.n_max == 3  # ceil(log2(1/0.4)) + 1
    assert sched.interval_count == 53
    spacing = (1 / 32) / 54
    assert sched.spacing_loop == pytest.approx(spacing)
    assert sched.spacing_final == pytest.approx((0.1 / (64 * 0.05)) / 54)
    assert sched.k_err == math.ceil(2 * math.log(129 * 3 / 0.1))
    assert sched.k_rep == math.ceil(math.log(3 / 0.3) / spacing**2)
    k_final_err = math.ceil(1 * (0.05 / 0.1) ** 2 * math.log(129 / 0.1))
    k_final_rep = math.ceil(math.log(3 / 0.3) / sched.spacing_final**2)
    assert sched.k_final == max(k_final_err, k_final_rep)
    assert sched.sq_loop is not None and sched.sq_final is not None
    assert sched.sq_loop.tau == pytest.approx(0.4)
    assert sched.sq_final.tau == pytest.approx(0.05)
    assert sched.sq_loop.rho == pytest.approx(0.3 / 8)
    assert sched.sq_final.delta == pytest.approx(0.1 / 8)


def test_schedule_rejects_rho_at_most_twice_delta():
    with pytest.raises(ra.ParameterError):
        size_schedule(2.0, 0.05, 0.1, 0.1, 0.0, 129, "realizable")


def test_schedule_loop_phase_vanishes_when_guard_saturates():
    sched = size_schedule(2.0, 0.1, 0.1, 0.3, 0.5, 65, "agnostic")
    assert sched.sq_loop is None
    assert sched.n_max == 1
    assert sched.t_unlabeled == 0
    assert sched.sq_final is not None


def test_schedule_halving_eps_adds_a_round():
    a = size_schedule(2.0, 0.05, 0.1, 0.3, 0.0, 129, "realizable")
    b = size_schedule(2.0, 0.025, 0.1, 0.3, 0.0, 129, "realizable")
    assert b.n_max == a.n_max + 1


def test_schedule_is_deterministic():
    args = (2.0, 0.05, 0.1, 0.3, 0.0, 129, "realizable")
    assert size_schedule(*args) == size_schedule(*args)


def test_schedule_rejects_unknown_setting():
    with pytest.raises(ra.ParameterError):
        size_schedule(2.0, 0.05, 0.1, 0.3, 0.0, 129, "sideways")


def test_schedule_rejects_zero_noise_agnostic():
    with pytest.raises(ra.ParameterError):
        size_schedule(2.0, 0.05, 0.1, 0.3, 0.0, 129, "agnostic")


# ---------------------------------------------------------------------------
# shared final pick

# rows 0, 2 and 5 share a signature, as do rows 1 and 4
_DUPLICATES = ra.explicit(
    [[0, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1], [0, 1, 1], [0, 0, 1], [1, 0, 0]]
)


def _pick(h, members, rs):
    return _select_final(h, ra.VersionSpace.from_indices(members, h.n_hypotheses), rs)


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


# ---------------------------------------------------------------------------
# replicable consistency learner


def test_replical_singleton_class_uses_no_labels():
    h = ra.explicit([[0, 1, 0]])
    m = ra.DataModel.realizable(h, 0)
    res = run_replical(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("01"), _rng())
    assert res.hypothesis_index == 0
    assert res.labels_used == 0
    assert res.rounds == 0
    assert res.unlabeled_used > 0  # the region estimate still runs


def test_replical_replays_bit_identically():
    h = ra.thresholds(64)
    m = ra.DataModel.realizable(h, 20)
    a = run_replical(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("c0de"), _rng(5))
    b = run_replical(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("c0de"), _rng(5))
    assert a == b


def test_replical_does_not_mutate_callers_string():
    h = ra.thresholds(32)
    m = ra.DataModel.realizable(h, 16)
    rs = ra.RandomString("77aa")
    run_replical(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(1))
    first = run_replical(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(1))
    second = run_replical(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(1))
    assert first == second  # entry clone keeps the caller's counters untouched


def test_replical_pairs_mostly_agree_when_sharing_the_string():
    h = ra.thresholds(32)
    m = ra.DataModel.realizable(h, 16)
    agree = 0
    for i in range(20):
        rs = ra.RandomString(f"{i:02x}")
        r1 = run_replical(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(2 * i))
        r2 = run_replical(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(2 * i + 1))
        agree += r1.signature == r2.signature
    assert agree >= 12  # budget allows 30% disagreement; this is far inside it


def test_replical_target_always_survives():
    h = ra.thresholds(64)
    m = ra.DataModel.realizable(h, 20)
    for i in range(30):
        res = run_replical(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString(f"{i + 1:04x}"), _rng(i))
        assert 20 in res.survivors
        assert res.error <= 0.1 + 1e-12


def test_replical_label_accounting_matches_schedule():
    h = ra.thresholds(128)
    m = ra.DataModel.realizable(h, 65)
    theta = ra.disagreement_coefficient(h, m, 65)
    sched = size_schedule(theta, 0.05, 0.05, 0.3, 0.0, 129, "realizable")
    res = run_replical(ra.Problem(h, m), 0.05, 0.05, 0.3, ra.RandomString("0abc"), _rng(9))
    assert res.labels_used == sched.k * res.rounds
    assert res.unlabeled_used == sched.t_unlabeled * (res.rounds + 1)
    assert res.rounds <= sched.n_max


def test_replical_trace_is_monotone():
    h = ra.thresholds(128)
    m = ra.DataModel.realizable(h, 65)
    res = run_replical(ra.Problem(h, m), 0.05, 0.05, 0.3, ra.RandomString("0abd"), _rng(4))
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
        run_replical(ra.Problem(h, m), 0.1, 0.2, 0.3, ra.RandomString("01"), _rng())
    with pytest.raises(ra.ParameterError):
        run_replical(ra.Problem(h, m), 1.2, 0.05, 0.3, ra.RandomString("01"), _rng())


# ---------------------------------------------------------------------------
# replicable agnostic learner


def _edge_noise_problem(n=16, eta=0.05):
    h = ra.thresholds(n)
    m = ra.DataModel.agnostic(h, n, eta)
    return h, m


def test_replica2_rejects_noiseless_models():
    h = ra.thresholds(16)
    m = ra.DataModel.realizable(h, 8)
    with pytest.raises(ra.ParameterError):
        run_replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("01"), _rng())


def test_replica2_runs_on_edge_noise():
    h, m = _edge_noise_problem()
    res = run_replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("0101"), _rng(3))
    assert res.algo == "replica2"
    assert res.labels_used > 0
    assert len(res.trace) == res.rounds + 1  # loop rounds plus the final phase record
    assert res.flags == ()


def test_replica2_replays_bit_identically():
    h, m = _edge_noise_problem()
    a = run_replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("fe01"), _rng(7))
    b = run_replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString("fe01"), _rng(7))
    assert a == b


def test_replica2_flags_unsatisfiable_loop_guard():
    # a centered base doubles the coefficient, pushing the loop exit level
    # 16 theta nu past one, so the loop cannot run at all; at eta 0.1 the
    # schedule's own guard 8 theta nu passes one too and it sizes no loop query
    h = ra.thresholds(16)
    for eta, loop_query in ((0.05, True), (0.1, False)):
        m = ra.DataModel.agnostic(h, 8, eta)
        assert ra.disagreement_coefficient(h, m, 8) == pytest.approx(2.0)
        problem = ra.Problem(h, m)
        sched = ra.size_schedule(
            problem.sizing_theta, 0.1, 0.1, 0.3, problem.nu, 16, "agnostic"
        )
        assert (sched.sq_loop is not None) == loop_query
        res = run_replica2(problem, 0.1, 0.1, 0.3, ra.RandomString("33"), _rng(2))
        assert "loop-guard-unsatisfiable" in res.flags
        assert res.rounds == 0


def test_replica2_best_hypothesis_usually_survives():
    h, m = _edge_noise_problem(32)
    kept = 0
    for i in range(20):
        res = run_replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, ra.RandomString(f"{i:02x}"), _rng(i))
        kept += 32 in res.survivors
    assert kept >= 18


def test_replica2_pairs_mostly_agree():
    h, m = _edge_noise_problem(32)
    agree = 0
    for i in range(20):
        rs = ra.RandomString(f"a0{i:02x}")
        r1 = run_replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(50 + 2 * i))
        r2 = run_replica2(ra.Problem(h, m), 0.1, 0.1, 0.3, rs, _rng(51 + 2 * i))
        agree += r1.signature == r2.signature
    assert agree >= 12
