"""Replicable statistical-query rounding: sizes, grids, agreement oracles."""

import math

import numpy as np
import pytest

import ralearn as ra
from ralearn.rstat import (
    SQParams,
    concentration_radius,
    exact_agreement_probability,
    grid_spacing,
    pair_agreement_exact,
    replicability_failure_bound,
    required_sample_size,
    rstat_answer,
    rstat_answer_from_mean,
    snap_to_grid,
)


def _closed_form_size(rho, tau, delta):
    beta = rho - 2 * delta
    return (1 + beta) ** 2 * math.log(2 / delta) / (2 * tau * tau * beta * beta)


def test_required_sample_size_frozen_values():
    assert required_sample_size(SQParams(0.1, 0.1, 0.01)) == 48281
    assert required_sample_size(SQParams(0.2, 0.1, 0.01)) == 11385


def test_required_sample_size_matches_closed_form():
    for rho, tau, delta in [(0.1, 0.1, 0.01), (0.2, 0.1, 0.01), (0.3, 0.15, 0.05)]:
        assert required_sample_size(SQParams(rho, tau, delta)) == math.ceil(
            _closed_form_size(rho, tau, delta)
        )


def test_doubling_tolerance_quarters_the_size():
    base = _closed_form_size(0.1, 0.1, 0.01)
    doubled = _closed_form_size(0.1, 0.2, 0.01)
    assert base / doubled == pytest.approx(4.0)
    assert required_sample_size(SQParams(0.1, 0.2, 0.01)) == math.ceil(base / 4)


def test_zero_margin_rejected():
    with pytest.raises(ra.ParameterError):
        SQParams(0.02, 0.1, 0.01)  # rho == 2*delta
    with pytest.raises(ra.ParameterError):
        SQParams(0.015, 0.1, 0.01)


@pytest.mark.parametrize("bad", [(-0.1, 0.1, 0.01), (0.2, 0.0, 0.01), (0.2, 0.1, 1.0), (1.0, 0.1, 0.01)])
def test_parameter_domains(bad):
    with pytest.raises(ra.ParameterError):
        SQParams(*bad)


def test_radius_plus_half_spacing_is_tolerance():
    p = SQParams(0.2, 0.1, 0.01)
    assert p.beta == pytest.approx(0.18)
    r = concentration_radius(p)
    s = grid_spacing(p)
    assert r == pytest.approx(0.1 * 0.18 / 1.18)
    assert r + s / 2 == pytest.approx(p.tau)


def test_failure_bound_collapses_to_rho():
    for rho, tau, delta in [(0.1, 0.1, 0.01), (0.3, 0.2, 0.05)]:
        assert replicability_failure_bound(SQParams(rho, tau, delta)) == pytest.approx(rho)


# ---------------------------------------------------------------------------
# grid snapping


def test_snap_rounds_half_up():
    assert snap_to_grid(0.5, 0.0, 1.0) == 1.0
    assert snap_to_grid(0.49, 0.0, 1.0) == 0.0


def test_snap_lands_on_offset_grid():
    s = 0.2
    for value in [0.0, 0.11, 0.53, 0.97]:
        ans = snap_to_grid(value, 0.07, s)
        k = (ans - 0.07) / s
        assert abs(k - round(k)) < 1e-9
        assert abs(ans - value) <= s / 2 + 1e-12


@pytest.mark.parametrize("spacing", [0.0, -0.1, float("inf"), float("nan")])
def test_spacing_must_be_finite_and_positive(spacing):
    with pytest.raises(ra.ParameterError):
        snap_to_grid(0.5, 0.0, spacing)
    with pytest.raises(ra.ParameterError):
        pair_agreement_exact(0.4, 0.5, spacing)


def test_snap_clips_into_unit_interval():
    assert snap_to_grid(0.99, 0.5, 1.0) == 0.5
    assert snap_to_grid(1.0, 0.8, 0.5) == 0.8 + 0.5 * round((1.0 - 0.8) / 0.5)
    assert 0.0 <= snap_to_grid(0.999, 0.95, 0.3) <= 1.0
    assert snap_to_grid(0.001, 0.9, 0.95) == 0.0


# ---------------------------------------------------------------------------
# answers


def test_answer_tracks_extreme_means():
    p = SQParams(0.2, 0.1, 0.01)
    s = grid_spacing(p)
    hi = rstat_answer_from_mean(p, 1.0, ra.RandomString("11"), "q")
    lo = rstat_answer_from_mean(p, 0.0, ra.RandomString("22"), "q")
    assert abs(hi - 1.0) <= s / 2 + 1e-12
    assert abs(lo - 0.0) <= s / 2 + 1e-12


def test_answer_is_on_the_drawn_grid():
    p = SQParams(0.2, 0.1, 0.01)
    s = grid_spacing(p)
    shared = ra.RandomString("abc123")
    offset = ra.RandomString("abc123").derive_uniform("q") * s
    ans = rstat_answer_from_mean(p, 0.44, shared, "q")
    k = (ans - offset) / s
    assert abs(k - round(k)) < 1e-9
    assert abs(ans - 0.44) <= s / 2 + 1e-12


def test_answer_rejects_out_of_range_mean():
    p = SQParams(0.2, 0.1, 0.01)
    with pytest.raises(ra.ParameterError):
        rstat_answer_from_mean(p, 1.2, ra.RandomString("01"), "q")


def test_answer_requires_enough_values():
    p = SQParams(0.3, 0.3, 0.05)  # small size so the test stays cheap
    need = required_sample_size(p)
    g = np.random.default_rng(0)
    vals = g.integers(0, 2, size=need).astype(float)
    ans = rstat_answer(p, vals, ra.RandomString("33"), "q")
    assert 0.0 <= ans <= 1.0
    with pytest.raises(ra.ParameterError):
        rstat_answer(p, vals[:-1], ra.RandomString("33"), "q")
    with pytest.raises(ra.ParameterError):
        rstat_answer(p, vals.reshape(2, -1), ra.RandomString("33"), "q")
    with pytest.raises(ra.ParameterError):
        rstat_answer(p, vals - 2.0, ra.RandomString("33"), "q")


def test_answers_within_tolerance_monte_carlo():
    """Empirical tolerance failures stay under the declared budget."""
    p = SQParams(0.3, 0.15, 0.05)
    need = required_sample_size(p)
    g = np.random.default_rng(42)
    trials, mu = 500, 0.41
    good = 0
    for t in range(trials):
        mean_hat = g.binomial(need, mu) / need
        ans = rstat_answer_from_mean(p, mean_hat, ra.RandomString(f"{t:04x}"), "q")
        good += abs(ans - mu) <= p.tau
    floor = (1 - p.delta) - 3 * math.sqrt(p.delta * (1 - p.delta) / trials)
    assert good / trials >= floor


# ---------------------------------------------------------------------------
# pair agreement


def test_identical_means_always_agree():
    assert pair_agreement_exact(0.4, 0.4, 0.1) == pytest.approx(1.0)


def test_half_cell_apart_agree_half_the_time():
    assert pair_agreement_exact(0.4, 0.45, 0.1) == pytest.approx(0.5)


def test_quarter_cell_apart():
    assert pair_agreement_exact(0.4, 0.425, 0.1) == pytest.approx(0.75)


def test_full_cell_apart_never_agree():
    assert pair_agreement_exact(0.4, 0.5, 0.1) == pytest.approx(0.0)


def test_agreement_is_symmetric():
    assert pair_agreement_exact(0.3, 0.37, 0.15) == pytest.approx(
        pair_agreement_exact(0.37, 0.3, 0.15)
    )


def test_agreement_grows_with_spacing():
    vals = [pair_agreement_exact(0.4, 0.41, s) for s in (0.05, 0.1, 0.2, 0.4)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("m1,m2,s", [(0.37, 0.42, 0.1), (0.02, 0.08, 0.2), (0.93, 0.99, 0.25)])
def test_agreement_matches_offset_monte_carlo(m1, m2, s):
    """Integrating over the offset by brute force must match the closed form.

    The near-boundary cases exercise the clip into [0, 1], where agreement is
    no longer just one minus the mean gap over the spacing.
    """
    g = np.random.default_rng(17)
    n = 200_000
    agree = 0
    for u in g.uniform(0, 1, size=n):
        off = u * s
        agree += snap_to_grid(m1, off, s) == snap_to_grid(m2, off, s)
    assert abs(agree / n - pair_agreement_exact(m1, m2, s)) < 0.01


def test_exhaustive_agreement_tiny_cases():
    # one coin flip: means 0 or 1 land four cells apart at spacing 1/4
    assert exact_agreement_probability(1, 0.5, 0.25) == pytest.approx(0.5)
    assert exact_agreement_probability(1, 0.0, 0.25) == pytest.approx(1.0)
    assert exact_agreement_probability(3, 1.0, 0.2) == pytest.approx(1.0)


def test_exhaustive_agreement_is_probability():
    for p in (0.2, 0.5, 0.8):
        val = exact_agreement_probability(4, p, 0.25)
        assert 0.0 <= val <= 1.0
