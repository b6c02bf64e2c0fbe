"""Exact-quantity oracles for classes, models, distances, and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ralearn as ra
from ralearn.core import PROB_TOL


def _random_class(seed, n_h, n_x):
    g = np.random.default_rng(seed)
    return ra.explicit(g.integers(0, 2, size=(n_h, n_x)))


def _point_sample(model, mask, k, rng):
    """Oracle for the count law: ``k`` materialized points drawn from the
    model conditioned on ``mask``, each labeled by its own coin."""
    points = rng.choice(model.domain_size, size=k, p=ra.conditional_weights(model, mask))
    labels = (rng.random(k) < model.label_one_probabilities()[points]).astype(np.uint8)
    return points, labels


def _label_counts(points, labels, n):
    """Per-point counts of observed 0-labels and 1-labels."""
    return (
        np.bincount(points[labels == 0], minlength=n),
        np.bincount(points[labels == 1], minlength=n),
    )


# ---------------------------------------------------------------------------
# class generators


def test_thresholds_shape_and_rows():
    h = ra.thresholds(8)
    assert h.n_hypotheses == 9
    assert h.domain_size == 8
    # h1 fires everywhere, h9 nowhere
    assert h.row(0).tolist() == [1] * 8
    assert h.row(8).tolist() == [0] * 8
    # h5 fires on x >= 5, i.e. positions 4..7
    assert h.row(4).tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert h.names[4] == "h5"


def test_worst_case_rows():
    h = ra.worst_case(4)
    assert h.n_hypotheses == 5
    assert h.row(0).tolist() == [0, 0, 0, 0]
    for i in range(1, 5):
        row = h.row(i)
        assert row.sum() == 1 and row[i - 1] == 1


def test_intervals_count():
    h = ra.intervals(4)
    # empty concept plus one concept per pair a <= b
    assert h.n_hypotheses == 1 + 4 * 5 // 2
    assert h.row(0).sum() == 0


def test_explicit_rejects_non_binary():
    with pytest.raises(ra.ParameterError):
        ra.explicit([[0, 1], [2, 0]])


def test_predictions_are_write_protected():
    h = ra.thresholds(4)
    with pytest.raises(ValueError):
        h.predictions[0, 0] = 0


def test_signatures_distinguish_rows():
    h = ra.thresholds(4)
    sigs = {h.signature(i) for i in range(h.n_hypotheses)}
    assert len(sigs) == h.n_hypotheses


# ---------------------------------------------------------------------------
# data models


def test_uniform_weights_sum_to_one():
    w = ra.uniform_weights(7)
    assert w.shape == (7,)
    assert abs(w.sum() - 1.0) < 1e-12


def test_model_weight_validation():
    h = ra.thresholds(4)
    with pytest.raises(ra.ParameterError):
        ra.DataModel(np.array([0.5, 0.6, 0.0, 0.0]), h.row(0), np.zeros(4), None)
    with pytest.raises(ra.ParameterError):
        ra.DataModel(np.array([0.5, -0.1, 0.3, 0.3]), h.row(0), np.zeros(4), None)


def test_realizable_target_bounds():
    h = ra.thresholds(4)
    with pytest.raises(ra.ParameterError):
        ra.DataModel.realizable(h, 99)


def test_agnostic_flip_rate_bounds():
    h = ra.thresholds(4)
    with pytest.raises(ra.ParameterError):
        ra.DataModel.agnostic(h, 0, 1.5)


def test_label_one_probabilities_mix():
    h = ra.thresholds(4)
    m = ra.DataModel.agnostic(h, 0, 0.25)
    # base row is all ones, so P[label 1] = 1 - flip rate
    assert np.allclose(m.label_one_probabilities(), 0.75)


# ---------------------------------------------------------------------------
# true error


def test_true_error_of_target_is_zero(thresholds8, uniform8):
    assert ra.true_error(thresholds8, uniform8, 4) == 0.0


def test_true_error_under_constant_flip():
    h = ra.thresholds(8)
    m = ra.DataModel.agnostic(h, 4, 0.05)
    assert abs(ra.true_error(h, m, 4) - 0.05) < 1e-12


def test_true_error_two_disagreement_points(thresholds8, uniform8):
    # h7 and h5 differ exactly on {5, 6}, mass 2/8
    assert ra.true_error(thresholds8, uniform8, 6) == pytest.approx(0.25)


def test_true_errors_match_singles(thresholds8, uniform8):
    errs = ra.true_errors(thresholds8, uniform8)
    for i in range(thresholds8.n_hypotheses):
        assert errs[i] == pytest.approx(ra.true_error(thresholds8, uniform8, i))


def test_conditional_true_errors_on_two_point_region(thresholds8, uniform8):
    space = ra.VersionSpace.from_indices([3, 4, 5], 9)
    mask = ra.disagreement_mask(thresholds8, space)
    assert mask.sum() == 2  # h4,h5,h6 split only x in {4,5}
    cond = ra.conditional_true_errors(thresholds8, uniform8, mask)
    assert cond[3] == pytest.approx(0.5)
    assert cond[4] == pytest.approx(0.0)
    assert cond[5] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# empirical error


def test_empirical_error_zero_on_own_labels(thresholds8):
    pts = np.array([0, 3, 5, 7])
    c0, c1 = _label_counts(pts, thresholds8.row(4)[pts], 8)
    errs = ra.empirical_errors_from_counts(thresholds8, c0, c1)
    assert errs[4] == 0.0


def test_empirical_error_one_wrong_of_four(thresholds8):
    pts = np.array([0, 3, 5, 7])
    labels = thresholds8.row(4)[pts].copy()
    labels[2] ^= 1
    c0, c1 = _label_counts(pts, labels, 8)
    assert ra.empirical_errors_from_counts(thresholds8, c0, c1)[4] == pytest.approx(0.25)


def test_empirical_errors_against_recount(thresholds8):
    g = np.random.default_rng(7)
    pts = g.integers(0, 8, size=20)
    labels = g.integers(0, 2, size=20).astype(np.uint8)
    errs = ra.empirical_errors_from_counts(thresholds8, *_label_counts(pts, labels, 8))
    for i in range(9):
        row = thresholds8.row(i)
        manual = sum(1 for p, y in zip(pts, labels) if row[p] != y) / 20
        assert errs[i] == pytest.approx(manual)


def test_empirical_errors_from_counts_match_sample(thresholds8):
    g = np.random.default_rng(11)
    pts = g.integers(0, 8, size=50)
    labels = g.integers(0, 2, size=50).astype(np.uint8)
    via_counts = ra.empirical_errors_from_counts(thresholds8, *_label_counts(pts, labels, 8))
    # mistake rate of every hypothesis over the materialized sample
    via_sample = np.mean(thresholds8.predictions[:, pts] != labels, axis=1)
    assert np.allclose(via_counts, via_sample)


def test_empty_sample_rejected(thresholds8):
    zeros = np.zeros(8, dtype=np.int64)
    with pytest.raises(ra.ParameterError):
        ra.empirical_errors_from_counts(thresholds8, zeros, zeros)


# ---------------------------------------------------------------------------
# disagreement geometry


def test_singleton_space_has_empty_region(thresholds8, uniform8):
    space = ra.VersionSpace.from_indices([4], 9)
    assert ra.disagreement_region(thresholds8, space).size == 0
    assert ra.disagreement_mass(thresholds8, uniform8, space) == 0.0


def test_full_thresholds_region_is_whole_domain():
    h = ra.thresholds(4)
    m = ra.DataModel.realizable(h, 2)
    space = ra.VersionSpace.full(5)
    assert ra.disagreement_region(h, space).tolist() == [0, 1, 2, 3]
    assert ra.disagreement_mass(h, m, space) == pytest.approx(1.0)


def test_duplicate_rows_disagree_nowhere():
    h = ra.explicit([[0, 1, 1], [0, 1, 1]])
    space = ra.VersionSpace.full(2)
    assert ra.disagreement_region(h, space).size == 0


def test_empty_version_space_rejected():
    with pytest.raises(ra.EmptyVersionSpaceError):
        ra.VersionSpace(np.zeros(4, dtype=bool))


def test_version_space_from_indices_roundtrip():
    space = ra.VersionSpace.from_indices([0, 2, 5], 7)
    assert space.size == 3
    assert space.indices().tolist() == [0, 2, 5]


# ---------------------------------------------------------------------------
# distances and balls


def test_distance_is_zero_on_equal_rows():
    h = ra.explicit([[0, 1, 0, 1], [0, 1, 0, 1]])
    m = ra.DataModel.realizable(h, 0)
    assert ra.hypothesis_distance(h, m, 0, 1) == 0.0


def test_distance_of_complementary_rows_is_one():
    h = ra.explicit([[0, 1, 0, 1], [1, 0, 1, 0]])
    m = ra.DataModel.realizable(h, 0)
    assert ra.hypothesis_distance(h, m, 0, 1) == pytest.approx(1.0)


def test_distance_three_eighths(thresholds8, uniform8):
    # h3 and h6 differ on {3,4,5}
    assert ra.hypothesis_distance(thresholds8, uniform8, 2, 5) == pytest.approx(3 / 8)


def test_ball_at_zero_radius_is_exact_row_match(thresholds8, uniform8):
    ball = ra.error_ball(thresholds8, uniform8, 4, 0.0)
    assert ball.indices().tolist() == [4]


def test_ball_at_radius_one_is_everything(thresholds8, uniform8):
    ball = ra.error_ball(thresholds8, uniform8, 4, 1.0)
    assert ball.size == 9


def test_worst_case_ball_at_critical_radius():
    h = ra.worst_case(16)
    m = ra.DataModel.realizable(h, 0)
    ball = ra.error_ball(h, m, 0, 1 / 16)
    assert ball.size == 17


# ---------------------------------------------------------------------------
# disagreement coefficient


@pytest.mark.parametrize("n", [4, 16, 64])
def test_worst_case_coefficient_is_exactly_n(n):
    h = ra.worst_case(n)
    m = ra.DataModel.realizable(h, 0)
    assert ra.disagreement_coefficient(h, m, 0) == float(n)


def test_thresholds_coefficient_centered():
    h = ra.thresholds(8)
    m = ra.DataModel.realizable(h, 4)
    assert ra.disagreement_coefficient(h, m, 4) == pytest.approx(2.0)


def test_thresholds_coefficient_against_radius_scan():
    """Brute scan over the realized radii k/8 must match the incremental scan."""
    h = ra.thresholds(8)
    m = ra.DataModel.realizable(h, 4)
    best = 0.0
    for k in range(1, 9):
        r = k / 8
        ball = ra.error_ball(h, m, 4, r)
        best = max(best, ra.disagreement_mass(h, m, ball) / r)
    assert ra.disagreement_coefficient(h, m, 4) == pytest.approx(best)
    assert best == pytest.approx(2.0)


def test_thresholds_coefficient_at_domain_edge():
    # base at the extreme row: every ball spans exactly its radius
    h = ra.thresholds(128)
    m = ra.DataModel.realizable(h, 128)
    assert ra.disagreement_coefficient(h, m, 128) == pytest.approx(1.0)


def test_singleton_class_coefficient_is_zero():
    h = ra.explicit([[0, 1, 0]])
    m = ra.DataModel.realizable(h, 0)
    assert ra.disagreement_coefficient(h, m, 0) == 0.0


def test_all_duplicates_coefficient_is_zero():
    h = ra.explicit([[0, 1], [0, 1], [0, 1]])
    m = ra.DataModel.realizable(h, 0)
    assert ra.disagreement_coefficient(h, m, 0) == 0.0


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_coefficient_matches_dense_radius_scan(seed):
    g = np.random.default_rng(seed)
    h = _random_class(seed, int(g.integers(2, 9)), int(g.integers(2, 7)))
    m = ra.DataModel.realizable(h, 0)
    d = ra.distances_from(h, m, 0)
    best = 0.0
    for r in sorted(set(float(x) for x in d if x > PROB_TOL)):
        ball = ra.error_ball(h, m, 0, r)
        best = max(best, ra.disagreement_mass(h, m, ball) / r)
    assert ra.disagreement_coefficient(h, m, 0) == pytest.approx(best)


# ---------------------------------------------------------------------------
# metric and ball properties


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_distance_metric_axioms(seed):
    g = np.random.default_rng(seed)
    h = _random_class(seed, int(g.integers(3, 8)), int(g.integers(2, 6)))
    m = ra.DataModel.realizable(h, 0)
    n = h.n_hypotheses
    a, b, c = g.integers(0, n, size=3)
    dab = ra.hypothesis_distance(h, m, a, b)
    dba = ra.hypothesis_distance(h, m, b, a)
    dac = ra.hypothesis_distance(h, m, a, c)
    dcb = ra.hypothesis_distance(h, m, c, b)
    assert dab == pytest.approx(dba)
    assert dab <= dac + dcb + 1e-12
    assert ra.hypothesis_distance(h, m, a, a) == 0.0


@given(seed=st.integers(0, 2**32 - 1), radius=st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_ball_membership_is_distance_cut(seed, radius):
    g = np.random.default_rng(seed)
    h = _random_class(seed, int(g.integers(2, 8)), int(g.integers(2, 6)))
    m = ra.DataModel.realizable(h, 0)
    ball = set(ra.error_ball(h, m, 0, radius).indices().tolist())
    d = ra.distances_from(h, m, 0)
    for i in range(h.n_hypotheses):
        assert (i in ball) == (d[i] <= radius + PROB_TOL)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_subspace_region_is_contained(seed):
    g = np.random.default_rng(seed)
    h = _random_class(seed, 6, 5)
    big = ra.VersionSpace.from_indices(sorted(g.choice(6, size=4, replace=False).tolist()), 6)
    small_idx = sorted(g.choice(big.indices(), size=2, replace=False).tolist())
    small = ra.VersionSpace.from_indices(small_idx, 6)
    inner = set(ra.disagreement_region(h, small).tolist())
    outer = set(ra.disagreement_region(h, big).tolist())
    assert inner <= outer


# ---------------------------------------------------------------------------
# best-in-class error


def test_noise_rate_realizable(thresholds8, uniform8):
    assert ra.noise_rate(thresholds8, uniform8) == (0.0, 4)


def test_noise_rate_constant_flip():
    h = ra.thresholds(8)
    m = ra.DataModel.agnostic(h, 3, 0.1)
    value, best = ra.noise_rate(h, m)
    assert value == pytest.approx(0.1)
    assert best == 3


def test_noise_rate_against_exhaustive_scan():
    g = np.random.default_rng(3)
    h = _random_class(3, 16, 10)
    m = ra.DataModel(
        ra.uniform_weights(10), g.integers(0, 2, size=10).astype(np.uint8),
        g.uniform(0, 0.4, size=10), None,
    )
    value, best = ra.noise_rate(h, m)
    p1 = m.label_one_probabilities()
    scan = []
    for i in range(16):
        row = h.row(i)
        scan.append(float(np.sum(m.weights * np.where(row == 1, 1 - p1, p1))))
    assert value == pytest.approx(min(scan))
    assert best == int(np.argmin(scan))


# ---------------------------------------------------------------------------
# problems


def test_problem_holds_the_geometry(thresholds8, uniform8):
    p = ra.Problem(thresholds8, uniform8)
    assert (p.nu, p.center) == ra.noise_rate(thresholds8, uniform8)
    assert p.theta == ra.disagreement_coefficient(thresholds8, uniform8, 4) == 2.0
    assert p.sizing_theta == 2.0
    assert p.hclass is thresholds8 and p.model is uniform8


def test_problem_honors_theta_override(thresholds8, uniform8):
    p = ra.Problem(thresholds8, uniform8, 3)
    assert p.theta == p.sizing_theta == 3.0
    assert p.center == 4


@pytest.mark.parametrize("bad", [0.0, -3.0, float("inf"), float("nan")])
def test_problem_rejects_bad_theta_override(thresholds8, uniform8, bad):
    with pytest.raises(ra.ParameterError):
        ra.Problem(thresholds8, uniform8, bad)


def test_problem_sizing_theta_stands_in_for_zero():
    h = ra.explicit([[0, 1, 0]])
    p = ra.Problem(h, ra.DataModel.realizable(h, 0))
    assert p.theta == 0.0
    assert p.sizing_theta == 1.0


# ---------------------------------------------------------------------------
# sampling


def test_conditional_sampling_needs_mass(thresholds8, uniform8, counters):
    space = ra.VersionSpace.from_indices([4], 9)
    with pytest.raises(ra.ZeroMassRegionError):
        ra.sample_labeled_counts(thresholds8, uniform8, space, 1, np.random.default_rng(0), counters)


def test_zero_draws_leave_counters_alone(thresholds8, uniform8, counters):
    space = ra.VersionSpace.full(9)
    c0, c1 = ra.sample_labeled_counts(
        thresholds8, uniform8, space, 0, np.random.default_rng(0), counters
    )
    assert int(c0.sum() + c1.sum()) == 0
    assert counters.labels == 0 and counters.unlabeled == 0


def test_label_counter_tracks_draws(thresholds8, uniform8, counters):
    space = ra.VersionSpace.full(9)
    ra.sample_labeled_counts(thresholds8, uniform8, space, 12, np.random.default_rng(0), counters)
    assert counters.labels == 12


def test_unlabeled_counter_tracks_draws(uniform8, counters):
    ra.region_hit_count(uniform8, np.ones(8, dtype=bool), 33, np.random.default_rng(0), counters)
    assert counters.unlabeled == 33


def test_conditional_frequencies_match_renormalized_weights():
    h = ra.thresholds(4)
    m = ra.DataModel.realizable(h, 2)
    # h2 and h4 split only on {2,3}; conditional law is uniform on those two
    space = ra.VersionSpace.from_indices([1, 3], 5)
    counters = ra.SampleCounters()
    c0, c1 = ra.sample_labeled_counts(h, m, space, 100_000, np.random.default_rng(5), counters)
    hits = c0 + c1
    assert hits[0] == 0 and hits[3] == 0
    three_sigma = 3 * np.sqrt(100_000 * 0.25)
    assert abs(hits[1] - 50_000) <= three_sigma
    assert abs(hits[2] - 50_000) <= three_sigma


def test_point_mass_sampling_is_deterministic():
    h = ra.thresholds(4)
    m = ra.DataModel(np.array([0.0, 1.0, 0.0, 0.0]), h.row(2), np.zeros(4), 2)
    counters = ra.SampleCounters()
    space = ra.VersionSpace.full(5)
    c0, c1 = ra.sample_labeled_counts(h, m, space, 50, np.random.default_rng(1), counters)
    # every draw lands on point 1, whose label is h3's prediction there (0)
    assert c0.tolist() == [0, 50, 0, 0]
    assert c1.tolist() == [0, 0, 0, 0]


def test_labeled_counts_agree_with_point_sampler(thresholds8, counters):
    """The counts fast path must draw from the same law as the point path."""
    m = ra.DataModel.agnostic(ra.thresholds(8), 4, 0.2)
    space = ra.VersionSpace.from_indices([1, 4, 6], 9)  # region {1, ..., 5}
    mask = ra.disagreement_mask(thresholds8, space)
    k = 40_000
    c0, c1 = ra.sample_labeled_counts(thresholds8, m, space, k, np.random.default_rng(9), counters)
    assert int(c0.sum() + c1.sum()) == k
    assert counters.labels == k
    o0, o1 = _label_counts(*_point_sample(m, mask, k, np.random.default_rng(10)), 8)
    # each (point, label) cell is binomial(k, q) under both samplers, with q
    # the conditional mass of the point times the chance of that label
    w = ra.conditional_weights(m, mask)
    p1 = m.label_one_probabilities()
    for counts, oracle, q in ((c0, o0, w * (1 - p1)), (c1, o1, w * p1)):
        sd = np.sqrt(k * q * (1 - q))
        assert np.all(counts[~mask] == 0) and np.all(oracle[~mask] == 0)
        assert np.all(np.abs(counts - k * q) <= 4 * sd + 1)
        assert np.all(np.abs(counts - oracle) <= 4 * np.sqrt(2) * sd + 1)


def test_stream_accounting_charges_rejections(thresholds8, uniform8):
    space = ra.VersionSpace.from_indices([3, 4, 5], 9)  # region mass 2/8
    counters = ra.SampleCounters()
    ra.sample_labeled_counts(
        thresholds8, uniform8, space, 100, np.random.default_rng(2), counters,
        stream_accounting=True,
    )
    assert counters.labels == 100
    # roughly 3 rejections per hit at mass 1/4; just require a positive charge
    assert counters.unlabeled > 100


def test_region_hit_count_binomial_bounds(uniform8, counters):
    hits = ra.region_hit_count(uniform8, np.array([True] * 4 + [False] * 4), 10_000, np.random.default_rng(0), counters)
    assert 0 <= hits <= 10_000
    assert abs(hits - 5000) <= 3 * np.sqrt(10_000 * 0.25)
    assert counters.unlabeled == 10_000
