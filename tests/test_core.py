"""Exact-quantity oracles for classes, models, distances, and sampling."""

import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ralearn as ra
from ralearn import core
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


def _hypothesis_distance(hclass, model, h1, h2):
    """Oracle: mass of the points where two hypotheses predict differently."""
    return ra.disagreement_mass(model, hclass.row(h1) != hclass.row(h2))


def _distances_from(hclass, model, center):
    """Oracle: each hypothesis's distance from ``center``, the mass where its
    row differs from the center's: the model's multiplicities summed on the
    rows, in integers, and divided once by their total.  That is the count of
    such points over n under uniform weights, and under others a multiple of
    2**-53; both exact."""
    base = hclass.row(center)
    differ = [model._mass[hclass.row(h) != base].sum() for h in range(hclass.n_hypotheses)]
    return np.array(differ, dtype=np.int64) / model._total


def _error_ball(hclass, model, center, radius):
    """Oracle: all hypotheses within ``radius`` of ``center``."""
    return ra.VersionSpace(_distances_from(hclass, model, center) <= radius + PROB_TOL)


def _theta_row_scan(hclass, model, center):
    """Oracle: the disagreement coefficient by growing the ball one
    hypothesis at a time in the stable distance order, OR-ing each row's
    disagreement with the center into the region, and taking one masked sum
    per distinct distance.  Under weights held over 2**53 every distance and
    every masked sum is exact, so the scan is the exact maximum rounded once;
    under uniform ones the sums of 1/n are not."""
    d = _distances_from(hclass, model, center)
    order = np.argsort(d, kind="stable")
    pred = hclass.predictions
    base = pred[center]
    region = np.zeros(hclass.domain_size, dtype=bool)
    best = 0.0
    pos = 0
    n = hclass.n_hypotheses
    while pos < n:
        radius = d[order[pos]]
        while pos < n and d[order[pos]] == radius:
            region |= pred[order[pos]] != base
            pos += 1
        if radius == 0.0:
            continue
        best = max(best, ra.disagreement_mass(model, region) / float(radius))
    return best


def _exact_geometry(hclass, center):
    """Oracle for uniform weights: each row's mismatch count against the
    center's row, counted one column at a time, and the disagreement
    coefficient as an exact rational, the largest C / d over the balls:
    d a positive count, C the number of columns where some row at most d
    away differs from the center's row."""
    pred = hclass.predictions
    base = pred[center]
    d = np.zeros(hclass.n_hypotheses, dtype=np.int64)
    for x in range(hclass.domain_size):
        d += pred[:, x] != base[x]
    region = np.zeros(hclass.domain_size, dtype=bool)
    best = Fraction(0)
    for radius in sorted(set(d.tolist())):
        region |= (pred[d == radius] != base).any(axis=0)
        if radius > 0:
            best = max(best, Fraction(int(region.sum()), radius))
    return d, best


def _check_exact_geometry(hclass, model, center):
    """Every error, every distance from ``center`` and the coefficient there
    against ``_exact_geometry``, for a model of uniform weights and one flip
    rate: a count over ``n`` is rounded once, a noisy error is the formula's
    one IEEE expression, within two ulps of the exact rational, and the
    coefficient is the exact maximum rounded once.  Rows of one count share
    one expected value, computed once."""
    n = hclass.domain_size
    eta = float(model.flip_rates[0])
    label_row = np.flatnonzero((hclass.predictions == model.base_labels).all(axis=1))[0]
    d_label, _ = _exact_geometry(hclass, int(label_row))
    expected = {}
    for di in set(d_label.tolist()):
        exact = Fraction(eta) + (1 - 2 * Fraction(eta)) * Fraction(di, n)
        if eta == 0.0:
            expected[di] = float(exact)
        else:
            expected[di] = eta + (1.0 - 2.0 * eta) * (di / n)
            assert abs(Fraction(expected[di]) - exact) <= 2 * math.ulp(1.0)
    errs = ra.true_errors(hclass, model)
    assert errs.tolist() == [expected[di] for di in d_label.tolist()]
    assert errs.min() == eta  # the base row is in the class
    d, theta = _exact_geometry(hclass, center)
    dist = {di: float(Fraction(di, n)) for di in set(d.tolist())}
    assert _distances_from(hclass, model, center).tolist() == [dist[di] for di in d.tolist()]
    assert ra.disagreement_coefficient(hclass, model, center) == float(theta)


def _peak_bytes(fn):
    """``fn()`` and the peak traced allocation while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


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
    assert h.name(4) == "[5,8]"


def test_worst_case_rows():
    h = ra.worst_case(4)
    assert h.n_hypotheses == 5
    assert h.row(0).tolist() == [0, 0, 0, 0]
    for i in range(1, 5):
        row = h.row(i)
        assert row.sum() == 1 and row[i - 1] == 1


def test_intervals_match_a_literal_row_loop():
    for n in range(1, 31):
        rows, names = [np.zeros(n, dtype=np.uint8)], ["empty"]
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                row = np.zeros(n, dtype=np.uint8)
                row[a - 1 : b] = 1
                rows.append(row)
                names.append(f"[{a},{b}]")
        h = ra.intervals(n)
        assert h.predictions.dtype == np.uint8
        assert np.array_equal(h.predictions, np.stack(rows))
        assert list(map(h.name, range(h.n_hypotheses))) == names


def test_thresholds_match_a_literal_triangle():
    for n in range(1, 65):
        h = ra.thresholds(n)
        assert h.predictions.dtype == np.uint8
        assert np.array_equal(h.predictions, np.triu(np.ones((n + 1, n), dtype=np.uint8)))
        named = [h.name(i) for i in range(n + 1)]
        assert named == [f"[{t},{n}]" for t in range(1, n + 1)] + ["empty"]


def test_intervals_runs_equal_the_triangular_indices():
    # every size the cell cap allows, against the triangular-index
    # construction: the empty run, then [a, b + 1) for (a, b) in triu order
    for n in range(1, 407):
        a, b = np.triu_indices(n)
        h = ra.intervals(n)
        assert np.array_equal(h.start, np.insert(a, 0, 0)), n
        assert np.array_equal(h.end, np.insert(b + 1, 0, 0)), n
        assert np.array_equal(h.first, np.arange(a.size + 1)), n
    with pytest.raises(ra.ParameterError, match="cap"):
        ra.intervals(407)


def test_intervals_count():
    h = ra.intervals(4)
    # empty concept plus one concept per pair a <= b
    assert h.n_hypotheses == 1 + 4 * 5 // 2
    assert h.row(0).sum() == 0


@pytest.mark.parametrize(
    "generator, n", [(ra.thresholds, 8192), (ra.intervals, 5000), (ra.worst_case, 8192)]
)
def test_oversized_class_is_refused_before_allocation(generator, n):
    # each class would hold more than MAX_CLASS_CELLS cells (intervals(5000)
    # about 62 GB); the refusal must come before any of it is built
    def build():
        with pytest.raises(ra.ParameterError, match="cells"):
            generator(n)

    _, peak = _peak_bytes(build)
    assert peak < 2**20


def test_explicit_rejects_non_binary():
    with pytest.raises(ra.ParameterError):
        ra.explicit([[0, 1], [2, 0]])


@pytest.mark.parametrize(
    "matrix",
    [[[0.5, 1.0]], np.array([[256, 0]]), [[1.0000001, 0.0]], [[np.nan, 1.0]], [[0, 1], [1]]],
    ids=["half", "wraps-to-zero", "just-above-one", "nan", "ragged"],
)
def test_explicit_checks_values_before_the_cast(matrix):
    # a cast to uint8 first would read 0.5 as 0, 256 as 0 and 1.0000001 as 1
    with pytest.raises(ra.ParameterError):
        ra.explicit(matrix)


def test_explicit_keeps_exact_zero_one_values_of_any_dtype():
    for matrix in ([[1.0, 0.0]], [[True, False]], np.array([[1, 0]], dtype=np.int64)):
        assert ra.explicit(matrix).predictions.tolist() == [[1, 0]]


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


def test_weights_within_tolerance_are_normalized_once():
    # dirichlet(ones(1)) can give 0.9999999999999999; the sampler draws from
    # the weights over their sum, 1.0, so the geometry must read 1.0 too
    h = ra.thresholds(1)
    model = ra.DataModel.realizable(h, 1, np.array([0.9999999999999999]))
    assert model.weights.tolist() == [1.0] and model._mass.tolist() == [2**53]
    assert ra.true_errors(h, model).tolist() == [1.0, 0.0]
    assert _distances_from(h, model, 1).tolist() == [1.0, 0.0]
    assert ra.disagreement_mass(model, np.ones(1, dtype=bool)) == 1.0
    assert model._whole_domain_weights.tolist() == [1.0]


def test_weights_become_multiplicities_over_2_to_the_53():
    # every weighting but 1/n is rounded once, after normalization, to int64
    # multiplicities summing to 2**53 by largest remainders: each weight
    # moves by less than 2**-53, stays positive if it was, and stays zero if
    # it was; ``weights`` is then exact, the multiplicities over 2**53
    g = np.random.default_rng(11)
    config_weights = np.array([(i % 5 + 1) / 108 for i in range(37)])
    for w in [g.dirichlet(np.ones(n)) for n in (2, 3, 37, 1000)] + [
        _zero_laced_weights(g, 50), config_weights, np.array([1, 1, 1, 1, 1, 59]) / 64
    ]:
        model = ra.DataModel(w, np.zeros(w.size), np.zeros(w.size))
        mass = model._mass
        assert mass.dtype == np.int64 and not mass.flags.writeable
        assert model._total == 2**53 and sum(mass.tolist()) == 2**53
        assert model.weights.tolist() == [m / 2**53 for m in mass.tolist()]
        assert np.abs(model.weights - w / w.sum()).max() < 2.0**-53
        assert ((mass > 0) == (w > 0)).all()
    # a weight of 1e-300 keeps one unit, which the largest weight gives up
    model = ra.DataModel(np.array([1e-300, 0.0, 1.0]), np.zeros(3), np.zeros(3))
    assert model._mass.tolist() == [1, 0, 2**53 - 1]
    assert model.weights[0] == 2.0**-53 and model.weights[1] == 0.0
    # uniform weights are one unit each over n, and kept as given
    uniform = ra.DataModel(ra.uniform_weights(7), np.zeros(7), np.zeros(7))
    assert uniform._mass.tolist() == [1] * 7 and uniform._total == 7
    assert uniform.weights.tobytes() == ra.uniform_weights(7).tobytes()


def test_model_weight_validation():
    h = ra.thresholds(4)
    with pytest.raises(ra.ParameterError):
        ra.DataModel(np.array([0.5, 0.6, 0.0, 0.0]), h.row(0), np.zeros(4))
    with pytest.raises(ra.ParameterError):
        ra.DataModel(np.array([0.5, -0.1, 0.3, 0.3]), h.row(0), np.zeros(4))


@pytest.mark.parametrize(
    "weights, flips",
    [
        ([np.nan, 0.5, 0.25, 0.25], [0.0] * 4),
        ([0.25] * 4, [np.nan, 0.0, 0.0, 0.0]),
        ([0.25] * 4, [0.0, np.inf, 0.0, 0.0]),
    ],
)
def test_model_rejects_non_finite_values(weights, flips):
    # NaN slips past range checks written as "reject if below 0", and a NaN
    # distance never lets the coefficient scan advance
    with pytest.raises(ra.ParameterError):
        ra.DataModel(np.array(weights), ra.thresholds(4).row(0), np.array(flips))


def test_model_checks_base_labels_before_the_cast():
    with pytest.raises(ra.ParameterError):
        ra.DataModel(np.full(4, 0.25), np.array([0.5, 0.0, 1.0, 1.0]), np.zeros(4))


@pytest.mark.parametrize("weights", [None, np.array([1, 2, 3, 4, 6]) / 16])
def test_realizable_is_agnostic_at_zero_flip_rate(weights):
    h = ra.thresholds(5)
    real, noisy = ra.DataModel.realizable(h, 2, weights), ra.DataModel.agnostic(h, 2, 0.0, weights)
    for name in ("weights", "base_labels", "flip_rates", "_label_one", "_certain_ones"):
        a, b = getattr(real, name), getattr(noisy, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


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
    assert ra.true_errors(thresholds8, uniform8)[4] == 0.0


def test_true_error_under_constant_flip():
    h = ra.thresholds(8)
    m = ra.DataModel.agnostic(h, 4, 0.05)
    assert abs(ra.true_errors(h, m)[4] - 0.05) < 1e-12


def test_true_error_two_disagreement_points(thresholds8, uniform8):
    # h7 and h5 differ exactly on {5, 6}, mass 2/8
    assert ra.true_errors(thresholds8, uniform8)[6] == pytest.approx(0.25)


def test_true_errors_match_singles(thresholds8, uniform8):
    # against an independent per-row sum of w(x) * P[label(x) != h(x)]
    errs = ra.true_errors(thresholds8, uniform8)
    p1 = uniform8.label_one_probabilities()
    for i in range(thresholds8.n_hypotheses):
        row = thresholds8.row(i)
        single = float(np.sum(uniform8.weights * np.where(row == 1, 1 - p1, p1)))
        assert errs[i] == pytest.approx(single)


@pytest.mark.parametrize("make", [ra.thresholds, ra.intervals, ra.worst_case])
def test_realizable_noise_floor_is_exactly_zero(monkeypatch, make):
    # most of these sizes have an inexact 1/n; theta is stubbed out since nu
    # and errors do not read it
    monkeypatch.setattr(core, "disagreement_coefficient", lambda *args: 1.0)
    for n in (8, 12, 31, 48, 64, 100, 127, 200, 333, 406):
        h = make(n)
        for target in (0, h.n_hypotheses // 2, h.n_hypotheses - 1):
            p = ra.Problem(h, ra.DataModel.realizable(h, target))
            assert p.nu == 0.0 and p.errors[target] == 0.0, (make.__name__, n, target)


def test_conditional_true_errors_on_two_point_region(thresholds8, uniform8):
    space = _space([3, 4, 5], 9)
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


def _integer_errors(hclass, c0, c1):
    """Empirical errors recounted in int64, divided once at the end."""
    total = int(c0.sum() + c1.sum())
    return (hclass.predictions.astype(np.int64) @ (c0 - c1) + c1.sum()) / total


@given(
    seed=st.integers(0, 2**32 - 1),
    n_h=st.integers(1, 40),
    n_x=st.integers(1, 300),
    draws=st.one_of(
        st.none(),
        st.integers(1, 75),
        st.integers(76, 3000),
        st.integers(2**24 - 4, 2**24 + 4),
        st.integers(2**53 + 1, 2**62),
    ),
    built_in=st.one_of(st.none(), st.sampled_from([ra.thresholds, ra.intervals, ra.worst_case])),
)
@settings(max_examples=150, deadline=None)
def test_empirical_errors_equal_an_integer_recount(seed, n_h, n_x, draws, built_in):
    # a sample of ``draws`` points covers from a few to all of the columns;
    # ``draws=None`` puts counts near 2**40 in about half the cells; draws
    # near 2**24, and totals past 2**53 where a float64 sum would round, skew
    # labels toward 0 so the partial sums come near the total; a random
    # member mask, from a single row to every row, is scored on its rows'
    # runs alone; in about half the examples a built-in class (at most 40
    # points) stands in for the random one: it has one run per row, so its
    # scores skip the per-row reduce, where a random class has many
    g = np.random.default_rng(seed)
    if built_in is None:
        h = _random_class(seed, n_h, n_x)
    else:
        h = built_in(min(n_x, 40))
        n_h, n_x = h.predictions.shape
    if draws is None:
        c0, c1 = g.integers(0, 2, (2, n_x)) * (2**40 - g.integers(0, 2**20, (2, n_x)))
        c0[0] += 1
    else:
        counts = g.multinomial(draws, np.full(n_x, 1.0 / n_x))
        c1 = g.binomial(counts, 0.5 if draws <= 3000 else g.random() ** 4)
        c0 = counts - c1
    members = g.random(n_h) < g.random()
    members[g.integers(n_h)] = True
    errs = ra.empirical_errors_from_counts(h, c0, c1)
    member_errs = ra.empirical_errors_from_counts(h, c0, c1, members)
    expected = _integer_errors(h, c0, c1)
    assert errs.tobytes() == expected.tobytes()
    assert member_errs[members].tobytes() == expected[members].tobytes()
    assert np.all(member_errs[~members] == np.inf)
    if built_in is not None:
        assert h.start.size == n_h


@pytest.mark.parametrize("total", [2**24 - 1, 2**24, 2**24 + 1, 2**24 + 2])
def test_elimination_is_exact_across_the_float32_cut_over(total):
    # row [1, 1] errs on every draw and row [1, 0] on all but one; past 2**24
    # a float32 product would round total or total - 1
    h = ra.explicit([[1, 1], [1, 0], [0, 1], [0, 0]])
    c0, c1 = np.array([total - 1, 1]), np.zeros(2, dtype=np.int64)
    errs = ra.empirical_errors_from_counts(h, c0, c1)
    assert errs.tobytes() == _integer_errors(h, c0, c1).tobytes()


def test_exact_errors_are_float64(thresholds8, uniform8):
    members = np.arange(9) % 2 == 0
    for total in (1986, 2**24 + 1):  # an erm sample, then one past float32's integers
        c0, c1 = np.full(8, total // 8), np.zeros(8, dtype=np.int64)
        c0[0] += total % 8
        assert ra.empirical_errors_from_counts(thresholds8, c0, c1).dtype == np.float64
        errs = ra.empirical_errors_from_counts(thresholds8, c0, c1, members)
        assert errs.dtype == np.float64
    assert ra.true_errors(thresholds8, uniform8).dtype == np.float64
    assert _distances_from(thresholds8, uniform8, 4).dtype == np.float64


@pytest.mark.parametrize("draws", [49, 1986])
def test_elimination_casts_one_row_block_at_a_time(draws):
    # 49 draws is a cal round (sparse columns), 1986 the erm sample (dense);
    # a whole float64 copy of thresholds(1024) would be 8.4 MB
    h = ra.thresholds(1024)
    model = ra.DataModel.realizable(h, 512)
    c0, c1 = ra.sample_labeled_counts(
        model, np.ones(1024, dtype=bool), draws, np.random.default_rng(0), ra.SampleCounters()
    )
    errs, peak = _peak_bytes(lambda: ra.empirical_errors_from_counts(h, c0, c1))
    assert peak < 2 * 2**20
    assert errs.tobytes() == _integer_errors(h, c0, c1).tobytes()


@pytest.mark.parametrize(
    "c0, c1",
    [
        # summed in float64, 2**53 + 1 rounds to 2**53, so a matrix product
        # scores row [1, 1, 1] here, and row [1, 1, 0] below, 1 - 2**-52
        ([2**53, 1, 1], [0, 0, 0]),
        ([2**53, 1, 0], [0, 0, 1]),
    ],
)
def test_elimination_is_exact_past_float64_integers(c0, c1):
    h = ra.explicit([[1, 1, 1], [1, 1, 0], [1, 0, 0], [0, 0, 0], [0, 1, 0]])
    c0, c1 = np.array(c0), np.array(c1)
    errs = ra.empirical_errors_from_counts(h, c0, c1)
    assert errs.tobytes() == _integer_errors(h, c0, c1).tobytes()
    assert errs[0 if c1[2] == 0 else 1] == 1.0


@pytest.mark.parametrize(
    "c0, c1, members",
    [
        (np.ones(8), np.zeros(8), np.ones(5, dtype=bool)),
        (np.ones(8), np.zeros(8), np.ones(10, dtype=bool)),
        (np.ones(8), np.zeros(8), np.ones((9, 1), dtype=bool)),
        (np.ones(7), np.zeros(7), None),
        (np.ones(9), np.zeros(9), None),
        (np.ones(8), np.zeros(9), None),
        (np.ones((8, 1)), np.zeros((8, 1)), None),
    ],
)
def test_mis_shaped_elimination_inputs_are_parameter_errors(thresholds8, c0, c1, members):
    with pytest.raises(ra.ParameterError, match="shape"):
        ra.empirical_errors_from_counts(
            thresholds8, c0.astype(np.int64), c1.astype(np.int64), members
        )


def test_elimination_never_multiplies_the_matrix(monkeypatch, thresholds8):
    def refuse(*args):
        raise AssertionError("elimination called _mismatch_times")

    monkeypatch.setattr(core, "_mismatch_times", refuse)
    c0, c1 = np.arange(8), np.arange(8)[::-1].copy()
    members = np.arange(9) % 3 == 0
    expected = _integer_errors(thresholds8, c0, c1)
    assert ra.empirical_errors_from_counts(thresholds8, c0, c1).tobytes() == expected.tobytes()
    errs = ra.empirical_errors_from_counts(thresholds8, c0, c1, members)
    assert errs[members].tobytes() == expected[members].tobytes()


def test_empty_sample_rejected(thresholds8):
    zeros = np.zeros(8, dtype=np.int64)
    with pytest.raises(ra.ParameterError):
        ra.empirical_errors_from_counts(thresholds8, zeros, zeros)


# ---------------------------------------------------------------------------
# run form of a class


def _from_runs(hclass):
    """The 0/1 matrix rebuilt from the class's runs of ones."""
    start, end, first = hclass.start, hclass.end, hclass.first
    stops = np.append(first[1:], start.size)
    out = np.zeros((hclass.n_hypotheses, hclass.domain_size), dtype=np.uint8)
    for r in range(hclass.n_hypotheses):
        assert first[r] < stops[r]  # every row owns a run
        for s, e in zip(start[first[r] : stops[r]], end[first[r] : stops[r]]):
            assert 0 <= s <= e <= hclass.domain_size
            out[r, s:e] = 1
    return out


@given(seed=st.integers(0, 2**32 - 1), n_h=st.integers(1, 30), n_x=st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_runs_rebuild_the_predictions(seed, n_h, n_x):
    # some rows are forced to all zeros and some to all ones, beside random
    # rows; n_h = 1 and n_x = 1 give a single row and a single column
    g = np.random.default_rng(seed)
    pred = g.integers(0, 2, (n_h, n_x))
    fill = g.integers(0, 3, n_h)
    pred[fill == 1] = 0
    pred[fill == 2] = 1
    h = ra.explicit(pred)
    rebuilt = _from_runs(h)
    assert rebuilt.tobytes() == h.predictions.tobytes()
    start, end, first = h.start, h.end, h.first
    assert np.all(start[first][~pred.any(axis=1)] == 0)
    assert np.all(end[first][~pred.any(axis=1)] == 0)
    assert all(arr.dtype == np.int64 for arr in (start, end, first))


@pytest.mark.parametrize("generator", [ra.thresholds, ra.intervals, ra.worst_case])
def test_built_in_classes_have_one_run_per_row(generator):
    for n in range(1, 65):
        h = generator(n)
        start, end, first = h.start, h.end, h.first
        assert start.size == end.size == h.n_hypotheses
        assert np.array_equal(first, np.arange(h.n_hypotheses))
        assert _from_runs(h).tobytes() == h.predictions.tobytes()


# a valid class beside each defect: rows [1, 0, 0, 0] and [0, 0, 1, 1]
_VALID_RUNS = dict(start=[0, 2], end=[1, 4], first=[0, 1], domain_size=4)


@pytest.mark.parametrize(
    "change",
    [
        dict(start=[[0, 2]]),
        dict(start=[0.0, 2.0]),
        dict(end=[1]),
        dict(domain_size=0),
        dict(domain_size=4.0),
        dict(domain_size=True),
        dict(domain_size=np.bool_(True)),
        dict(first=[]),
        dict(first=[1, 1]),
        dict(first=[0, 0]),
        dict(first=[0, 2]),
        dict(start=[-1, 2]),
        dict(end=[1, 5]),
        dict(start=[0, 2], end=[1, 2]),
        dict(start=[1, 2], end=[0, 4]),
        dict(start=[0, 0, 2], end=[0, 1, 4], first=[0, 2]),
        dict(start=[0, 1], end=[2, 3], first=[0]),
        dict(start=[2, 0], end=[3, 1], first=[0]),
    ],
    ids=[
        "2d-start", "float-runs", "unequal-run-counts", "no-domain",
        "float-domain", "bool-domain", "numpy-bool-domain", "no-hypotheses", "first-not-zero", "first-not-increasing",
        "row-without-run", "run-before-domain", "run-past-domain", "empty-run",
        "reversed-run", "empty-run-beside-another", "overlapping-runs", "decreasing-runs",
    ],
)
def test_malformed_runs_are_parameter_errors(change):
    ra.HypothesisClass(**_VALID_RUNS)
    with pytest.raises(ra.ParameterError):
        ra.HypothesisClass(**{**_VALID_RUNS, **change})


def test_runs_are_read_only_int64_copies():
    # touching runs need not be merged; the caller's arrays stay writable
    start, end, first = np.array([0, 2, 0], np.int32), np.array([2, 3, 0], np.int32), [0, 2]
    h = ra.HypothesisClass(start, end, first, 4)
    assert h.predictions.tolist() == [[1, 1, 1, 0], [0, 0, 0, 0]]
    assert h.signature(0) == h.predictions[0].tobytes()
    for arr in (h.start, h.end, h.first, h.predictions):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    assert h.start.dtype == h.end.dtype == h.first.dtype == np.int64
    start[0] = 1
    assert h.start[0] == 0


def test_name_spells_the_runs_as_stored():
    # 1-based closed runs joined by "+"; touching runs are named as stored
    touching = ra.HypothesisClass([0, 2, 0], [2, 3, 0], [0, 2], 4)
    assert [touching.name(0), touching.name(1)] == ["[1,2]+[3,3]", "empty"]
    h = ra.explicit([[1, 0, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1]])
    named = [h.name(i) for i in range(4)]
    assert named == ["[1,1]+[3,4]", "empty", "[1,4]", "[2,2]+[4,4]"]
    for i, name in enumerate(named):
        row = np.zeros(4, dtype=np.uint8)
        for run in name.split("+") if name != "empty" else ():
            a, b = map(int, run.strip("[]").split(","))
            row[a - 1 : b] = 1
        assert row.tobytes() == h.signature(i)
    # out of range as signature is, never wrapped
    for i in (-1, 4):
        with pytest.raises(IndexError):
            h.name(i)
        with pytest.raises(IndexError):
            h.signature(i)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_h=st.integers(1, 30),
    n_x=st.integers(1, 40),
    eta=st.sampled_from([0.0, 0.1]),
    block=st.sampled_from([1, 7, None]),
)
@settings(max_examples=60, deadline=None)
def test_run_form_round_trips_an_explicit_matrix(seed, n_h, n_x, eta, block):
    # rows are random (about n_x / 4 runs each), all zeros, all ones or
    # alternating (a run per other column); n_h = 1 and n_x = 1 give a
    # single row and a single column.  Every reader of the runs is checked
    # against the matrix: rows and signatures, the disagreement region of
    # random member masks against the rows' min != max, the float mismatch
    # product, built in blocks of ``block`` cells (the module's own for
    # None), against the matrix's own blocks, and theta against the row scan
    # under random weights, exact there, and under uniform ones the exact
    # rational oracle, which the row scan's float sums match only
    # approximately
    g = np.random.default_rng(seed)
    pred = g.integers(0, 2, (n_h, n_x)).astype(np.uint8)
    fill = g.integers(0, 4, n_h)
    pred[fill == 1] = 0
    pred[fill == 2] = 1
    pred[fill == 3] = np.arange(n_x) % 2
    h = ra.explicit(pred)
    assert h.predictions.dtype == np.uint8
    assert h.predictions.tobytes() == pred.tobytes()
    for r in range(n_h):
        assert h.row(r).tobytes() == h.signature(r) == pred[r].tobytes()
    for _ in range(4):
        members = g.random(n_h) < g.random()
        members[g.integers(n_h)] = True
        sub = pred[members]
        region = ra.disagreement_mask(h, ra.VersionSpace(members))
        assert region.tolist() == (sub.min(axis=0) != sub.max(axis=0)).tolist()
    base = int(g.integers(n_h))
    for center in {0, base, n_h - 1}:
        weighted = ra.DataModel.agnostic(h, base, eta, g.dirichlet(np.ones(n_x)))
        theta = ra.disagreement_coefficient(h, weighted, center)
        assert theta == _theta_row_scan(h, weighted, center)
        with mock.patch.object(core, "_BLOCK_CELLS", block or core._BLOCK_CELLS):
            # the product's bits depend on the row blocks, which must be the
            # matrix's own
            step = max(1, core._BLOCK_CELLS // n_x)
            expected = [(pred[i : i + step] != pred[center]) @ weighted.weights
                        for i in range(0, n_h, step)]
            products = core._mismatch_times(h, pred[center], weighted.weights)
        assert products.tobytes() == np.concatenate(expected).tobytes()
        uniform = ra.DataModel.agnostic(h, base, eta)
        theta = ra.disagreement_coefficient(h, uniform, center)
        assert theta == float(_exact_geometry(h, center)[1])
        assert theta == pytest.approx(_theta_row_scan(h, uniform, center))


def _intervals_by_formula(n):
    """The matrix and names of ``intervals(n)`` by the triangular-index
    formula: the empty rule, then [a, b] for a = 1..n and b = a..n."""
    a, b = np.triu_indices(n)
    x = np.arange(n)
    pred = np.zeros((a.size + 1, n), dtype=bool)
    pred[1:] = (a[:, None] <= x) & (x <= b[:, None])
    names = ["empty"] + [f"[{i},{j}]" for i, j in zip((a + 1).tolist(), (b + 1).tolist())]
    return pred.view(np.uint8), tuple(names)


_GENERATOR_FORMULAS = {
    "thresholds": lambda n: (
        (np.arange(n) >= np.arange(n + 1)[:, None]).view(np.uint8),
        tuple(f"[{t},{n}]" for t in range(1, n + 1)) + ("empty",),
    ),
    "intervals": _intervals_by_formula,
    "worst_case": lambda n: (
        np.vstack([np.zeros(n, dtype=np.uint8), np.eye(n, dtype=np.uint8)]),
        ("empty",) + tuple(f"[{i},{i}]" for i in range(1, n + 1)),
    ),
}

_LITERAL_NAMES = {
    ("thresholds", 1): ("[1,1]", "empty"),
    ("thresholds", 2): ("[1,2]", "[2,2]", "empty"),
    ("thresholds", 3): ("[1,3]", "[2,3]", "[3,3]", "empty"),
    ("intervals", 1): ("empty", "[1,1]"),
    ("intervals", 2): ("empty", "[1,1]", "[1,2]", "[2,2]"),
    ("intervals", 3): ("empty", "[1,1]", "[1,2]", "[1,3]", "[2,2]", "[2,3]", "[3,3]"),
    ("worst_case", 1): ("empty", "[1,1]"),
    ("worst_case", 2): ("empty", "[1,1]", "[2,2]"),
    ("worst_case", 3): ("empty", "[1,1]", "[2,2]", "[3,3]"),
}


@pytest.mark.parametrize(
    "generator, n",
    [(g, n) for g in ("thresholds", "intervals", "worst_case") for n in (1, 2, 3, 7, 100)]
    # the largest size each generator's cell cap allows
    + [("thresholds", 5792), ("intervals", 406), ("worst_case", 5792)],
)
def test_generators_supply_the_runs_their_matrix_has(generator, n):
    h = getattr(ra, generator)(n)
    derived = ra.explicit(h.predictions)
    for what in ("start", "end", "first"):
        supplied, read = getattr(h, what), getattr(derived, what)
        assert (supplied.dtype, supplied.flags.writeable) == (read.dtype, read.flags.writeable)
        assert supplied.tobytes() == read.tobytes()
    pred, names = _GENERATOR_FORMULAS[generator](n)
    assert h.predictions.dtype == np.uint8
    assert h.predictions.tobytes() == pred.tobytes()
    named = tuple(map(h.name, range(h.n_hypotheses)))
    assert named == names
    if n <= 3:
        assert named == _LITERAL_NAMES[generator, n]


# ---------------------------------------------------------------------------
# disagreement geometry


def test_singleton_space_has_empty_region(thresholds8, uniform8):
    space = _space([4], 9)
    assert np.flatnonzero(ra.disagreement_mask(thresholds8, space)).size == 0
    assert ra.disagreement_mass(uniform8, ra.disagreement_mask(thresholds8, space)) == 0.0
    # one row is unanimous whatever its runs, touching ones and a row of
    # zeros included, so every singleton's region is all False at mass 0;
    # each pair's region, counted over the members' runs, is where they differ
    touching = _runs_class([[(0, 2), (2, 5)], [(1, 3)], [], [(0, 1), (1, 2), (2, 9)], [(4, 9)]], 9)
    for h in (touching, ra.intervals(7), ra.worst_case(6), thresholds8):
        model = ra.DataModel.realizable(h, 0)
        n_h = h.n_hypotheses
        for i in range(n_h):
            mask = ra.disagreement_mask(h, _space([i], n_h))
            assert mask.shape == (h.domain_size,) and mask.dtype == bool and not mask.any()
            assert ra.disagreement_mass(model, mask) == 0.0
            j = (i + 1) % n_h
            pair = ra.disagreement_mask(h, _space([i, j], n_h))
            assert pair.tolist() == (h.row(i) != h.row(j)).tolist()


def test_full_thresholds_region_is_whole_domain():
    h = ra.thresholds(4)
    m = ra.DataModel.realizable(h, 2)
    space = ra.VersionSpace.full(5)
    assert np.flatnonzero(ra.disagreement_mask(h, space)).tolist() == [0, 1, 2, 3]
    assert ra.disagreement_mass(m, ra.disagreement_mask(h, space)) == pytest.approx(1.0)


def test_disagreement_mass_rejects_a_region_of_another_domain(uniform8):
    with pytest.raises(ra.ParameterError):
        ra.disagreement_mass(uniform8, np.ones(9, dtype=bool))


def test_duplicate_rows_disagree_nowhere():
    h = ra.explicit([[0, 1, 1], [0, 1, 1]])
    space = ra.VersionSpace.full(2)
    assert np.flatnonzero(ra.disagreement_mask(h, space)).size == 0


def test_empty_version_space_rejected():
    with pytest.raises(ra.EmptyVersionSpaceError):
        ra.VersionSpace(np.zeros(4, dtype=bool))


def _space(indices, n):
    """The version space of ``indices`` among ``n`` hypotheses."""
    members = np.zeros(n, dtype=bool)
    members[list(indices)] = True
    return ra.VersionSpace(members)


# ---------------------------------------------------------------------------
# distances and balls


def test_distance_is_zero_on_equal_rows():
    h = ra.explicit([[0, 1, 0, 1], [0, 1, 0, 1]])
    m = ra.DataModel.realizable(h, 0)
    assert _hypothesis_distance(h, m, 0, 1) == 0.0


def test_distance_of_complementary_rows_is_one():
    h = ra.explicit([[0, 1, 0, 1], [1, 0, 1, 0]])
    m = ra.DataModel.realizable(h, 0)
    assert _hypothesis_distance(h, m, 0, 1) == pytest.approx(1.0)


def test_distance_three_eighths(thresholds8, uniform8):
    # h3 and h6 differ on {3,4,5}
    assert _hypothesis_distance(thresholds8, uniform8, 2, 5) == pytest.approx(3 / 8)


def test_ball_at_zero_radius_is_exact_row_match(thresholds8, uniform8):
    ball = _error_ball(thresholds8, uniform8, 4, 0.0)
    assert ball.indices().tolist() == [4]


def test_ball_at_radius_one_is_everything(thresholds8, uniform8):
    ball = _error_ball(thresholds8, uniform8, 4, 1.0)
    assert ball.size == 9


def test_worst_case_ball_at_critical_radius():
    h = ra.worst_case(16)
    m = ra.DataModel.realizable(h, 0)
    ball = _error_ball(h, m, 0, 1 / 16)
    assert ball.size == 17


# ---------------------------------------------------------------------------
# disagreement coefficient


@pytest.mark.parametrize("n", [3, 4, 7, 16, 64, 100, 1000])
def test_worst_case_coefficient_is_exactly_n(n):
    h = ra.worst_case(n)
    m = ra.DataModel.realizable(h, 0)
    assert ra.disagreement_coefficient(h, m, 0) == float(n)


def test_thresholds_coefficient_centered():
    h = ra.thresholds(8)
    m = ra.DataModel.realizable(h, 4)
    assert ra.disagreement_coefficient(h, m, 4) == pytest.approx(2.0)


def test_thresholds_coefficient_against_radius_scan():
    """Brute scan over the realized radii k/8 must match the coefficient."""
    h = ra.thresholds(8)
    m = ra.DataModel.realizable(h, 4)
    best = 0.0
    for k in range(1, 9):
        r = k / 8
        ball = _error_ball(h, m, 4, r)
        best = max(best, ra.disagreement_mass(m, ra.disagreement_mask(h, ball)) / r)
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
    d = _distances_from(h, m, 0)
    best = 0.0
    for r in sorted(set(float(x) for x in d if x > PROB_TOL)):
        ball = _error_ball(h, m, 0, r)
        best = max(best, ra.disagreement_mass(m, ra.disagreement_mask(h, ball)) / r)
    assert ra.disagreement_coefficient(h, m, 0) == pytest.approx(best)


def _theta_models(hclass, g, weighted):
    """One model per (target first, middle, last) x (eta 0, 0.1), with the
    target as the base of the labels, under Dirichlet weights or uniform ones."""
    n_h, n = hclass.n_hypotheses, hclass.domain_size
    for target in sorted({0, n_h // 2, n_h - 1}):
        for eta in (0.0, 0.1):
            weights = g.dirichlet(np.ones(n)) if weighted else None
            yield ra.DataModel.agnostic(hclass, target, eta, weights)


_THETA_SIZES = list(range(1, 65)) + [100, 333]


@pytest.mark.parametrize("make", [ra.thresholds, ra.intervals, ra.worst_case])
def test_coefficient_equals_the_row_scan_on_built_in_classes(make):
    # weighted models' distances and masses are exact, and so is the row
    # scan over them; uniform weights are checked against the exact oracle
    # below
    g = np.random.default_rng(19)
    for n in _THETA_SIZES:
        h = make(n)
        models = list(_theta_models(h, g, weighted=True))
        # every model on the small classes, one of them in turn on the rest
        for m in models if n <= 16 else [models[n % len(models)]]:
            p = ra.Problem(h, m)
            assert p.theta == _theta_row_scan(h, m, p.center), (make.__name__, n)


@pytest.mark.parametrize("make", [ra.thresholds, ra.intervals, ra.worst_case])
def test_uniform_weight_geometry_is_exact_on_built_in_classes(make):
    g = np.random.default_rng(19)
    for n in _THETA_SIZES:
        h = make(n)
        models = list(_theta_models(h, g, weighted=False))
        for m in models if n <= 16 else [models[n % len(models)]]:
            _check_exact_geometry(h, m, ra.Problem(h, m).center)


def _random_rows(g, n_h, n_x):
    pred = g.integers(0, 2, size=(n_h, n_x))
    # duplicates of other rows, and all-zero and all-one rows
    pred[g.random(n_h) < 0.2] = 0
    pred[g.random(n_h) < 0.2] = 1
    dup = g.random(n_h) < 0.3
    pred[dup] = pred[g.integers(0, n_h, size=int(dup.sum()))]
    return ra.explicit(pred)


@given(seed=st.integers(0, 2**32 - 1), n_h=st.integers(1, 40), n_x=st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_coefficient_equals_the_row_scan_on_random_classes(seed, n_h, n_x):
    g = np.random.default_rng(seed)
    h = _random_rows(g, n_h, n_x)
    m = ra.DataModel.realizable(h, 0, g.dirichlet(np.ones(n_x)))
    for center in {0, int(g.integers(0, n_h)), n_h - 1}:
        assert ra.disagreement_coefficient(h, m, center) == _theta_row_scan(h, m, center)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_h=st.integers(1, 40),
    n_x=st.integers(1, 12),
    eta=st.sampled_from([0.0, 0.05, 0.3]),
)
@settings(max_examples=100, deadline=None)
def test_uniform_weight_geometry_is_exact_on_random_classes(seed, n_h, n_x, eta):
    g = np.random.default_rng(seed)
    h = _random_rows(g, n_h, n_x)
    m = ra.DataModel.agnostic(h, int(g.integers(0, n_h)), eta)
    for center in {0, int(g.integers(0, n_h)), n_h - 1}:
        _check_exact_geometry(h, m, center)


def _check_fraction_geometry(hclass, model, g):
    """theta at a few centers, every error and the mass of random regions
    against ``fractions.Fraction`` sums of the model's multiplicities, read
    one cell at a time.  theta and a mass are the exact rationals rounded
    once; an error with ``eta`` > 0 is the formula's IEEE expression, within
    two ulps of the exact one."""
    n, total = hclass.domain_size, model._total
    weight = [Fraction(m, total) for m in model._mass.tolist()]
    rows = [hclass.row(h).tolist() for h in range(hclass.n_hypotheses)]

    def mass(cells):
        return sum((weight[x] for x in cells), Fraction(0))

    def differ(row, base):
        return [x for x in range(n) if row[x] != base[x]]

    eta = Fraction(model._flip)
    labels = model.base_labels.tolist()
    exact = [eta + (1 - 2 * eta) * mass(differ(r, labels)) for r in rows]
    errors = ra.true_errors(hclass, model)
    for err, want in zip(errors.tolist(), exact):
        assert err == float(want) if eta == 0 else abs(Fraction(err) - want) <= 2 * math.ulp(1.0)
    problem = ra.Problem(hclass, model)
    assert problem.errors.tobytes() == errors.tobytes()
    for center in {0, problem.center, int(g.integers(hclass.n_hypotheses))}:
        # grow the ball by distance, its region's mass with it
        balls = sorted((mass(differ(r, rows[center])), differ(r, rows[center])) for r in rows)
        best, region, covered = Fraction(0), set(), Fraction(0)
        for k, (d, cells) in enumerate(balls):
            covered += mass(set(cells) - region)
            region.update(cells)
            if d > 0 and (k + 1 == len(balls) or balls[k + 1][0] != d):
                best = max(best, covered / d)
        assert ra.disagreement_coefficient(hclass, model, center) == float(best)
        if center == problem.center:
            assert problem.theta == float(best)
    for _ in range(3):
        region = g.random(n) < g.random()
        assert ra.disagreement_mass(model, region) == float(mass(np.flatnonzero(region)))


@given(
    seed=st.integers(0, 2**32 - 1),
    n_h=st.integers(1, 30),
    n_x=st.integers(1, 12),
    eta=st.sampled_from([0.0, 0.05, 0.3, 0.7]),
)
@settings(max_examples=100, deadline=None)
def test_weighted_geometry_is_exact_on_random_classes(seed, n_h, n_x, eta):
    g = np.random.default_rng(seed)
    h = _random_rows(g, n_h, n_x)
    w = g.dirichlet(np.ones(n_x)) if seed % 2 else _zero_laced_weights(g, n_x)
    _check_fraction_geometry(h, ra.DataModel.agnostic(h, int(g.integers(0, n_h)), eta, w), g)


@pytest.mark.parametrize("make", [ra.thresholds, ra.intervals])
def test_weighted_geometry_is_exact_on_built_in_classes(make):
    g = np.random.default_rng(23)
    for n in list(range(1, 13)) + [20, 31]:
        h = make(n)
        for target in sorted({0, h.n_hypotheses // 2, h.n_hypotheses - 1}):
            for eta in (0.0, 0.1, 0.7):
                model = ra.DataModel.agnostic(h, target, eta, g.dirichlet(np.ones(n)))
                _check_fraction_geometry(h, model, g)


def test_weighted_problem_never_multiplies_or_sums_floats(monkeypatch):
    # with one flip rate, a weighted Problem's errors and theta are integer
    # work on the runs, and theta is for any flip rates: no float mismatch
    # product, no masked float sum
    def refuse(*args):
        raise AssertionError("the geometry took a float path")

    g = np.random.default_rng(29)
    h = ra.intervals(24)
    models = [ra.DataModel.agnostic(h, 60, eta, g.dirichlet(np.ones(24))) for eta in (0.0, 0.1, 0.7)]
    per_point = ra.DataModel.agnostic(h, 60, g.random(24) * 0.4, g.dirichlet(np.ones(24)))
    monkeypatch.setattr(core, "_mismatch_times", refuse)
    monkeypatch.setattr(core, "disagreement_mass", refuse)
    for model in models:
        problem = ra.Problem(h, model)
        assert problem.theta > 0.0 and problem.errors.min() == problem.nu
    for center in (0, 60, 299):
        assert ra.disagreement_coefficient(h, per_point, center) > 0.0


def test_thresholds_coefficient_is_exactly_two_at_inner_targets():
    # a float product read 2.0000000000000004 at 25, 50 and 51
    h = ra.thresholds(100)
    for target in (1, 25, 50, 51, 99):
        assert ra.Problem(h, ra.DataModel.realizable(h, target)).theta == 2.0


def test_coefficient_of_more_rows_than_uint16_ranks():
    # 70,006 rows rank past 2**16 - 1, so the ranks need the wide dtype.  The
    # zero row is the center and five single flips of weight 1/64 form the
    # first ball, with ratio 5; every other row flips the 59/64 column too,
    # so no later ball comes near 5, and a wrapped rank would empty the first.
    g = np.random.default_rng(7)
    heavy = np.ones((70_000, 6), dtype=np.uint8)
    heavy[:, :5] = g.integers(0, 2, size=(70_000, 5))
    pred = np.vstack([np.zeros((1, 6), np.uint8), np.eye(5, 6, dtype=np.uint8), heavy])
    perm = g.permutation(len(pred))
    h = ra.explicit(pred[perm])
    center = int(np.flatnonzero(perm == 0)[0])
    m = ra.DataModel.realizable(h, center, np.array([1, 1, 1, 1, 1, 59]) / 64)
    assert ra.disagreement_coefficient(h, m, center) == _theta_row_scan(h, m, center) == 5.0


def _runs_class(rows, n):
    """A class built directly from each row's runs as given, so touching
    runs stay apart; ``[]`` is a row of zeros."""
    runs = [r or [(0, 0)] for r in rows]
    start = np.array([s for r in runs for s, _ in r])
    end = np.array([e for r in runs for _, e in r])
    first = np.cumsum([0] + [len(r) for r in runs[:-1]])
    return ra.HypothesisClass(start, end, first, n)


def _zero_laced_weights(g, n):
    """Random weights with about a third of the points at weight 0."""
    w = g.dirichlet(np.ones(n))
    w[g.random(n) < 0.35] = 0.0
    w[g.integers(n)] += 1.0
    return w / w.sum()


def _check_theta(h, center, g):
    """theta at ``center`` under uniform weights against the exact rational
    oracle and under zero-laced weights against the row scan."""
    uniform = ra.DataModel.realizable(h, center)
    assert ra.disagreement_coefficient(h, uniform, center) == float(_exact_geometry(h, center)[1])
    weighted = ra.DataModel.realizable(h, center, _zero_laced_weights(g, h.domain_size))
    assert ra.disagreement_coefficient(h, weighted, center) == _theta_row_scan(h, weighted, center)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_coefficient_at_a_center_of_all_zeros_or_all_ones(n):
    # a row differs from an all-zeros center only on its runs and from an
    # all-ones center only on its gaps, so one kind of column is empty
    g = np.random.default_rng(n)
    pred = g.integers(0, 2, (12, n)).astype(np.uint8)
    pred[0], pred[1] = 0, 1
    h = ra.explicit(pred)
    for center in (0, 1):
        _check_theta(h, center, g)


def test_coefficient_over_touching_runs_and_empty_rows():
    rows = [[], [(0, 2), (2, 5)], [(0, 5)], [(3, 4), (4, 6), (6, 9)], [],
            [(1, 2), (2, 3), (7, 9)], [(0, 9)], [(8, 9)]]
    h = _runs_class(rows, 9)
    g = np.random.default_rng(3)
    for center in range(h.n_hypotheses):
        _check_theta(h, center, g)
    # random rows with their runs cut into touching pieces have the theta of
    # the rows as ``explicit`` reads them
    for seed in range(40):
        g = np.random.default_rng(seed)
        pred = g.integers(0, 2, (int(g.integers(1, 12)), int(g.integers(1, 16))))
        pred[g.random(len(pred)) < 0.2] = 0
        whole = ra.explicit(pred)
        cut = []
        for r in range(whole.n_hypotheses):
            pieces = []
            for s, e in whole._runs(r):
                edges = [s, *sorted(set(g.integers(s + 1, e, 2).tolist())), e] if e - s > 1 else [s, e]
                pieces += [(a, b) for a, b in zip(edges, edges[1:]) if b > a]
            cut.append(pieces)
        h = _runs_class(cut, whole.domain_size)
        assert h.predictions.tobytes() == whole.predictions.tobytes()
        for center in {0, int(g.integers(h.n_hypotheses))}:
            _check_theta(h, center, g)
            for w in (None, _zero_laced_weights(g, h.domain_size)):
                m = ra.DataModel.realizable(h, center, w)
                theta = ra.disagreement_coefficient(h, m, center)
                assert theta == ra.disagreement_coefficient(whole, m, center)


@pytest.mark.parametrize(
    "n, width",
    [(254, np.uint8), (255, np.uint16), (256, np.uint16),
     (65534, np.uint16), (65535, np.uint32), (65536, np.uint32)],
)
def test_coefficient_where_the_table_widens(n, width):
    # the table holds the narrowest unsigned integer that fits the key of a
    # column no row differs on: n + 1 under uniform weights, whose keys are
    # the distances, and the row count under others, whose keys are their
    # ranks.  Two copies of the empty center and one flip of each column but
    # the first make n + 1 rows, so both keys are n + 1, and a wrapped key
    # would put column 0, weighted 1/2 under the random weights, in a ball.
    # The ball at the k-th smallest flip mass d takes in the k smallest.
    h = _runs_class([[], []] + [[(i, i + 1)] for i in range(1, n)], n)
    g = np.random.default_rng(n)
    for w in (None, np.concatenate(([0.5], g.dirichlet(np.ones(n - 1)) / 2))):
        m = ra.DataModel.realizable(h, 0, w)
        flips = sorted(m._mass[1:].tolist())
        theta = max(Fraction(c, d) for c, d in zip(itertools.accumulate(flips), flips))
        with mock.patch.object(core, "_range_min", wraps=core._range_min) as table:
            assert ra.disagreement_coefficient(h, m, 0) == float(theta)
        assert table.call_args.args[2].dtype == width


@pytest.mark.parametrize("center", [-1, 9])
def test_center_outside_the_class_is_a_parameter_error(thresholds8, uniform8, center):
    with pytest.raises(ra.ParameterError, match="center index"):
        ra.disagreement_coefficient(thresholds8, uniform8, center)


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
    dab = _hypothesis_distance(h, m, a, b)
    dba = _hypothesis_distance(h, m, b, a)
    dac = _hypothesis_distance(h, m, a, c)
    dcb = _hypothesis_distance(h, m, c, b)
    assert dab == pytest.approx(dba)
    assert dab <= dac + dcb + 1e-12
    assert _hypothesis_distance(h, m, a, a) == 0.0


@given(seed=st.integers(0, 2**32 - 1), radius=st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_ball_membership_is_distance_cut(seed, radius):
    g = np.random.default_rng(seed)
    h = _random_class(seed, int(g.integers(2, 8)), int(g.integers(2, 6)))
    m = ra.DataModel.realizable(h, 0)
    ball = set(_error_ball(h, m, 0, radius).indices().tolist())
    d = _distances_from(h, m, 0)
    for i in range(h.n_hypotheses):
        assert (i in ball) == (d[i] <= radius + PROB_TOL)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_subspace_region_is_contained(seed):
    g = np.random.default_rng(seed)
    h = _random_class(seed, 6, 5)
    big = _space(sorted(g.choice(6, size=4, replace=False).tolist()), 6)
    small_idx = sorted(g.choice(big.indices(), size=2, replace=False).tolist())
    small = _space(small_idx, 6)
    inner = set(np.flatnonzero(ra.disagreement_mask(h, small)).tolist())
    outer = set(np.flatnonzero(ra.disagreement_mask(h, big)).tolist())
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
        g.uniform(0, 0.4, size=10),
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


def test_problem_errors_are_the_read_only_exact_errors(thresholds8, uniform8):
    p = ra.Problem(thresholds8, uniform8)
    assert p.errors.tobytes() == ra.true_errors(thresholds8, uniform8).tobytes()
    assert (p.nu, p.center) == (float(p.errors.min()), int(np.argmin(p.errors)))
    with pytest.raises(ValueError, match="read-only"):
        p.errors[0] = 1.0


@pytest.mark.parametrize("make", [ra.thresholds, ra.intervals, ra.worst_case])
def test_problem_region_is_the_full_class_mask(make):
    h = make(12)
    p = ra.Problem(h, ra.DataModel.realizable(h, 3))
    expected = ra.disagreement_mask(h, ra.VersionSpace.full(h.n_hypotheses))
    assert p.region.dtype == bool
    assert np.array_equal(p.region, expected)
    with pytest.raises(ValueError, match="read-only"):
        p.region[0] = not p.region[0]
    assert p.region is p.region


def test_problem_region_is_computed_on_first_use(monkeypatch, thresholds8, uniform8):
    calls = []
    original = core.disagreement_mask
    monkeypatch.setattr(core, "disagreement_mask", lambda *a: calls.append(a) or original(*a))
    p = ra.Problem(thresholds8, uniform8)
    assert calls == []
    assert p.region is p.region
    assert len(calls) == 1


@pytest.mark.parametrize(
    "hclass",
    [ra.thresholds(37), ra.intervals(12), ra.worst_case(9), _random_class(31, 40, 23)],
    ids=["thresholds", "intervals", "worst_case", "explicit"],
)
def test_problem_signature_memo_holds_each_row_and_its_hash(hclass):
    p = ra.Problem(hclass, ra.DataModel.realizable(hclass, 0))
    for h in range(hclass.n_hypotheses):
        sig = p.signature(h)
        assert sig == hclass.signature(h) and p.signature(h) is sig
        assert not p._hashes  # ranking alone hashes nothing
    for h in range(hclass.n_hypotheses):
        sig_hash = p.signature_hash(h)
        assert sig_hash == core.hash_signature(p.signature(h))
        assert p.signature_hash(h) is sig_hash
    assert len(p._signatures) == len(p._hashes) == hclass.n_hypotheses
    with pytest.raises(IndexError):
        p.signature(hclass.n_hypotheses)


def test_problem_whole_domain_is_a_read_only_all_true_mask(thresholds8, uniform8):
    p = ra.Problem(thresholds8, uniform8)
    assert p.whole_domain.dtype == bool and p.whole_domain.all()
    assert p.whole_domain.shape == (thresholds8.domain_size,)
    assert p.whole_domain is p.whole_domain
    with pytest.raises(ValueError, match="read-only"):
        p.whole_domain[0] = False


def test_problem_sizing_theta_stands_in_for_zero():
    h = ra.explicit([[0, 1, 0]])
    p = ra.Problem(h, ra.DataModel.realizable(h, 0))
    assert p.theta == 0.0
    assert p.sizing_theta == 1.0


# ---------------------------------------------------------------------------
# sampling


def test_conditional_sampling_needs_mass(thresholds8, uniform8, counters):
    region = ra.disagreement_mask(thresholds8, _space([4], 9))
    with pytest.raises(ra.ZeroMassRegionError):
        ra.sample_labeled_counts(uniform8, region, 1, np.random.default_rng(0), counters)


def test_zero_draws_leave_counters_alone(thresholds8, uniform8, counters):
    region = ra.disagreement_mask(thresholds8, ra.VersionSpace.full(9))
    c0, c1 = ra.sample_labeled_counts(uniform8, region, 0, np.random.default_rng(0), counters)
    assert int(c0.sum() + c1.sum()) == 0
    assert counters.labels == 0 and counters.unlabeled == 0


def test_label_counter_tracks_draws(thresholds8, uniform8, counters):
    region = ra.disagreement_mask(thresholds8, ra.VersionSpace.full(9))
    ra.sample_labeled_counts(uniform8, region, 12, np.random.default_rng(0), counters)
    assert counters.labels == 12


def test_unlabeled_counter_tracks_draws(counters):
    ra.region_hit_count(1.0, 33, np.random.default_rng(0), counters)
    assert counters.unlabeled == 33


@pytest.mark.parametrize("count", [2**63, 10**30])
def test_draw_counts_past_int64_are_parameter_errors(uniform8, counters, count):
    # numpy would raise OverflowError, which no caller counts as a failed side
    g = np.random.default_rng(0)
    full = np.ones(8, dtype=bool)
    with pytest.raises(ra.ParameterError, match="largest drawable count"):
        ra.sample_labeled_counts(uniform8, full, count, g, counters)
    with pytest.raises(ra.ParameterError, match="largest drawable count"):
        ra.region_hit_count(1.0, count, g, counters)
    assert counters.labels == 0 and counters.unlabeled == 0


def test_conditional_frequencies_match_renormalized_weights():
    h = ra.thresholds(4)
    m = ra.DataModel.realizable(h, 2)
    # h2 and h4 split only on {2,3}; conditional law is uniform on those two
    space = _space([1, 3], 5)
    counters = ra.SampleCounters()
    region = ra.disagreement_mask(h, space)
    c0, c1 = ra.sample_labeled_counts(m, region, 100_000, np.random.default_rng(5), counters)
    hits = c0 + c1
    assert hits[0] == 0 and hits[3] == 0
    three_sigma = 3 * np.sqrt(100_000 * 0.25)
    assert abs(hits[1] - 50_000) <= three_sigma
    assert abs(hits[2] - 50_000) <= three_sigma


def test_point_mass_sampling_is_deterministic():
    h = ra.thresholds(4)
    m = ra.DataModel(np.array([0.0, 1.0, 0.0, 0.0]), h.row(2), np.zeros(4))
    counters = ra.SampleCounters()
    space = ra.VersionSpace.full(5)
    region = ra.disagreement_mask(h, space)
    c0, c1 = ra.sample_labeled_counts(m, region, 50, np.random.default_rng(1), counters)
    # every draw lands on point 1, whose label is h3's prediction there (0)
    assert c0.tolist() == [0, 50, 0, 0]
    assert c1.tolist() == [0, 0, 0, 0]


def test_labeled_counts_agree_with_point_sampler(thresholds8, counters):
    """The counts fast path must draw from the same law as the point path."""
    m = ra.DataModel.agnostic(ra.thresholds(8), 4, 0.2)
    space = _space([1, 4, 6], 9)  # region {1, ..., 5}
    mask = ra.disagreement_mask(thresholds8, space)
    k = 40_000
    c0, c1 = ra.sample_labeled_counts(m, mask, k, np.random.default_rng(9), counters)
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


@given(
    seed=st.integers(0, 2**32 - 1),
    bit_generator=st.sampled_from([np.random.PCG64, np.random.MT19937, np.random.SFC64, np.random.Philox]),
    n=st.integers(1, 64),
    k=st.one_of(st.just(0), st.integers(1, 100), st.integers(101, 10**6)),
    whole=st.booleans(),
    noisy=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_sampler_reads_the_stream_of_a_multinomial_and_a_binomial(
    seed, bit_generator, n, k, whole, noisy
):
    # the sampler must leave the counts and the generator exactly as numpy's
    # own multinomial and binomial do: flip rates of 0 and 1 take the
    # certain-label split, and one rate of 0.2 keeps the binomial; some cells
    # weigh 0, and the region is either the whole domain or a random part
    g = np.random.default_rng(seed)
    weights = g.random(n) * (g.random(n) < 0.7)
    weights[g.integers(n)] += 1.0
    flips = g.integers(0, 2, n).astype(np.float64)
    if noisy:
        flips[g.integers(n)] = 0.2
    model = ra.DataModel(weights / weights.sum(), g.integers(0, 2, n), flips)
    assert (model._certain_ones is None) == noisy
    region = np.ones(n, dtype=bool) if whole else g.random(n) < g.random()
    region[g.choice(np.flatnonzero(weights))] = True
    ours, plain = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    c0, c1 = ra.sample_labeled_counts(model, region, k, ours, ra.SampleCounters())
    counts = plain.multinomial(k, ra.conditional_weights(model, region))
    ones = plain.binomial(counts, model.label_one_probabilities())
    assert c0.dtype == c1.dtype == np.int64
    assert c0.tobytes() == (counts - ones).tobytes()
    assert c1.tobytes() == ones.tobytes()
    # a double and a 32-bit draw next, so a buffered half word would show
    assert ours.random(3).tobytes() == plain.random(3).tobytes()
    assert ours.integers(2**32, size=3).tobytes() == plain.integers(2**32, size=3).tobytes()


def test_certain_labels_are_recorded_once():
    h = ra.thresholds(8)
    assert ra.DataModel.realizable(h, 3)._certain_ones.tolist() == h.row(3).astype(bool).tolist()
    flipped = ra.DataModel.agnostic(h, 3, 1.0)
    assert flipped._certain_ones.tolist() == (h.row(3) == 0).tolist()
    with pytest.raises(ValueError, match="read-only"):
        flipped._certain_ones[0] = True
    assert ra.DataModel.agnostic(h, 3, 0.1)._certain_ones is None


def test_whole_domain_weights_are_cached_read_only_and_exact():
    g = np.random.default_rng(4)
    for n in (1, 7, 1024):
        weights = g.random(n) * (g.random(n) < 0.6)
        weights[0] += 0.5
        model = ra.DataModel(weights / weights.sum(), np.zeros(n), np.zeros(n))
        assert "_whole_domain_weights" not in vars(model)
        cached = model._whole_domain_weights
        assert model._whole_domain_weights is cached
        assert cached.tobytes() == ra.conditional_weights(model, np.ones(n, dtype=bool)).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0


class _RecordingGenerator:
    """A numpy Generator that keeps every ``pvals`` passed to ``multinomial``."""

    def __init__(self, rng):
        self.rng, self.pvals = rng, []

    def multinomial(self, n, pvals):
        self.pvals.append(pvals)
        return self.rng.multinomial(n, pvals)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_only_a_partial_region_gets_its_own_weights(thresholds8, uniform8, counters):
    full = _RecordingGenerator(np.random.default_rng(0))
    ra.sample_labeled_counts(uniform8, np.ones(8, dtype=bool), 10, full, counters)
    assert len(full.pvals) == 1 and full.pvals[0] is uniform8._whole_domain_weights
    part = ra.disagreement_mask(thresholds8, _space([1, 4], 9))
    partial = _RecordingGenerator(np.random.default_rng(0))
    ra.sample_labeled_counts(uniform8, part, 10, partial, counters)
    assert len(partial.pvals) == 1 and partial.pvals[0] is not uniform8._whole_domain_weights
    assert partial.pvals[0].tolist() == ra.conditional_weights(uniform8, part).tolist()
    with pytest.raises(ra.ParameterError, match="region mask shape"):
        ra.sample_labeled_counts(uniform8, np.ones(9, dtype=bool), 10, np.random.default_rng(0), counters)


# the numpy draws under every golden: a multinomial over a masked 1024-cell
# vector (a conditional sample), the label split with certain labels and with
# eta = 0.1, and binomials of about 1e13 draws (``region_hit_count``); each
# digest covers the draw and the next four doubles of the generator
_CELLS = np.arange(1024)
_MASKED = np.where(_CELLS % 3 == 0, 0.0, 1.0)
_COUNTS = (_CELLS * 37 % 5) * (_CELLS % 3 != 0)
_LABELS = (_CELLS >= 400).astype(np.float64)
_STREAM_CANARIES = {
    "multinomial": (
        lambda g: g.multinomial(1986, _MASKED / _MASKED.sum()),
        "cb6a845f17960db53d547c24e11b8ae44317c7fbc4d9b408985601b1bccda331",
    ),
    "certain label split": (
        lambda g: g.binomial(_COUNTS, _LABELS),
        "5548306487a83ea2451acae46caa4f41d3d7b73b8d3934e43b5619ef775ee86f",
    ),
    "eta 0.1 label split": (
        lambda g: g.binomial(_COUNTS, 0.9 * _LABELS + 0.1 * (1.0 - _LABELS)),
        "b3ee2d4e64558d751c949d2f748189c60c17d9b84eccf899af2a7142da7fd02e",
    ),
    "binomial near 1e13": (
        lambda g: [g.binomial(10**13 + 3, p) for p in (0.5, 0.25, 1e-9, 0.999)],
        "bd8b0a933e7a0898feac757a33bf851324d0a06737a0bd9da0f7e704ac57fb61",
    ),
}


@pytest.mark.parametrize("n", [1, 18378127, 10**13 + 3])
def test_numpy_binomial_at_probability_zero_reads_nothing(n):
    # ``region_hit_count`` returns 0 without a draw at mass 0, which leaves
    # the stream where this binomial would
    g = np.random.default_rng(20241209)
    assert g.binomial(n, 0.0) == 0
    assert g.random(4).tobytes() == np.random.default_rng(20241209).random(4).tobytes()


@pytest.mark.parametrize("name", list(_STREAM_CANARIES))
def test_numpy_stream_canary(name):
    draw, pinned = _STREAM_CANARIES[name]
    g = np.random.default_rng(20241209)
    out = np.asarray(draw(g), dtype=np.int64)
    digest = hashlib.sha256(out.tobytes() + g.random(4).tobytes()).hexdigest()
    assert digest == pinned, (
        f"numpy {np.__version__} draws the {name} differently from the pinned stream; "
        "every golden in this suite depends on these draws, so they will move too"
    )


def test_region_hit_count_reads_nothing_at_mass_zero(counters):
    # the draws still count as unlabeled ones; the stream is left untouched
    g = np.random.default_rng(5)
    assert ra.region_hit_count(0.0, 10**6, g, counters) == 0
    assert counters.unlabeled == 10**6
    assert g.random(4).tobytes() == np.random.default_rng(5).random(4).tobytes()


@pytest.mark.parametrize("mass", [-0.1, 1.5, float("nan")])
def test_region_hit_count_refuses_a_mass_outside_0_1(counters, mass):
    with pytest.raises(ra.ParameterError, match="region mass"):
        ra.region_hit_count(mass, 10, np.random.default_rng(0), counters)
    assert counters.unlabeled == 0


def test_region_hit_count_binomial_bounds(uniform8, counters):
    mass = ra.disagreement_mass(uniform8, np.array([True] * 4 + [False] * 4))
    hits = ra.region_hit_count(mass, 10_000, np.random.default_rng(0), counters)
    assert 0 <= hits <= 10_000
    assert abs(hits - 5000) <= 3 * np.sqrt(10_000 * 0.25)
    assert counters.unlabeled == 10_000
