"""Threshold badness classification and survivor-set divergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ralearn as ra
from ralearn.diagnostics import (
    bad_fraction,
    classify_thresholds,
    interval_profile,
    set_divergence,
)
from ralearn.replicable import ThresholdGrid


def _grid(count, spacing=0.01, origin=0.0):
    return ThresholdGrid(origin, spacing, count, 0, spacing * (count + 1), "realizable")


def _profile_from_counts(counts, spacing=0.01, origin=0.0):
    """Synthesize reference errors hitting each interval the requested number of times."""
    grid = _grid(len(counts) - 1, spacing, origin)
    errors = []
    for j, c in enumerate(counts):
        errors.extend([origin + (j + 0.5) * spacing] * int(c))
    return interval_profile(grid, errors)


def test_profile_binning_with_clamps():
    grid = _grid(3, spacing=0.05, origin=0.1)
    prof = interval_profile(grid, [0.0, 0.12, 0.12, 0.9])
    assert prof.counts == (3, 0, 0, 1)
    assert prof.cumulative == (3, 3, 3, 4)


def test_profile_counts_always_cover_every_error():
    g = np.random.default_rng(0)
    grid = _grid(5, spacing=0.02, origin=0.3)
    errs = g.uniform(0, 1, size=200)
    prof = interval_profile(grid, errs)
    assert sum(prof.counts) == 200


def test_all_mass_in_first_interval_is_all_good():
    prof = _profile_from_counts([50, 0, 0, 0, 0, 0])
    flags = classify_thresholds(prof, 0.3)
    assert flags == (False,) * 5
    assert bad_fraction(prof, 0.3) == 0.0


def test_single_hypothesis_behind_one_is_crowded():
    # one hypothesis below, one in cell 5: any budget under 30 flags cut 5
    prof = _profile_from_counts([1, 0, 0, 0, 0, 1, 0])
    flags = classify_thresholds(prof, 0.3)
    assert flags == (False, False, False, False, True, False)


def test_tripled_next_interval_is_runaway():
    prof = _profile_from_counts([2, 0, 6, 0])
    flags = classify_thresholds(prof, 0.3)
    # cut 1 sees 6 >= 2 * e one cell ahead; cut 2 is crowded outright
    assert flags[0] is True
    assert flags[1] is True
    assert flags[2] is False


def test_empty_prefix_is_bad_until_the_last_cut():
    prof = _profile_from_counts([0, 0, 5])
    assert classify_thresholds(prof, 0.3) == (True, True)
    empty = _profile_from_counts([0, 0, 0])
    assert classify_thresholds(empty, 0.3) == (True, False)


def test_flags_match_literal_reevaluation_hand_cases():
    for counts in ([3, 1, 0, 2], [1, 1, 1, 1, 1], [10, 0, 1, 0, 30]):
        prof = _profile_from_counts(counts)
        assert classify_thresholds(prof, 0.1) == _naive_flags(counts, 0.1)


def _naive_flags(counts, rho):
    """One-line-per-condition re-evaluation, deliberately unoptimized."""
    n = len(counts)
    cum = np.cumsum(counts)
    out = []
    for j in range(n - 1):
        i = j + 1
        below = int(cum[i - 1])
        crowded = counts[i] > (rho / 30.0) * below
        if below == 0:
            runaway = i < n - 1
        else:
            runaway = any(counts[m] >= below * math.exp(m - i) for m in range(i + 1, n))
        out.append(bool(crowded or runaway))
    return tuple(out)


@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([0.05, 0.1, 0.3, 0.9]))
@settings(max_examples=150, deadline=None)
def test_flags_match_literal_reevaluation_random(seed, rho):
    g = np.random.default_rng(seed)
    n_cells = int(g.integers(2, 40))
    counts = g.poisson(g.uniform(0, 4), size=n_cells)
    if counts.sum() == 0:
        counts[int(g.integers(0, n_cells))] = 1
    prof = _profile_from_counts(counts.tolist())
    assert classify_thresholds(prof, rho) == _naive_flags(counts.tolist(), rho)


def test_bad_fraction_is_within_unit_interval():
    g = np.random.default_rng(4)
    for _ in range(20):
        counts = g.integers(0, 9, size=12)
        counts[0] = max(counts[0], 1)
        prof = _profile_from_counts(counts.tolist())
        frac = bad_fraction(prof, 0.1)
        assert 0.0 <= frac <= 1.0


# ---------------------------------------------------------------------------
# survivor-set divergence


def test_divergence_zero_for_equal_sets():
    assert set_divergence({1, 2, 3}, {3, 2, 1}) == 0.0


def test_divergence_one_for_disjoint_sets():
    assert set_divergence({1, 2}, {3}) == pytest.approx(1.0)


def test_divergence_half_by_direct_count():
    assert set_divergence({"a", "b", "c"}, {"b", "c", "d"}) == pytest.approx(0.5)


def test_divergence_of_two_empty_sets_is_flagged():
    assert set_divergence([], []) == 0.0


def test_divergence_is_symmetric():
    assert set_divergence({1, 4}, {4, 9, 16}) == pytest.approx(set_divergence({4, 9, 16}, {1, 4}))


@given(
    first=st.frozensets(st.integers(0, 20), max_size=10),
    second=st.frozensets(st.integers(0, 20), max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_divergence_counts_directly(first, second):
    d = set_divergence(first, second)
    union = first | second
    if not union:
        assert d == 0.0
    else:
        assert d == pytest.approx(len(first ^ second) / len(union))
