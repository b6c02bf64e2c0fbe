"""Analysis tools for the threshold-grid mechanism.

A grid partitions the usable error range into equal cells; profiling a
hypothesis class against a grid counts how many hypotheses' reference errors
fall in each cell.  A selectable threshold is "bad" when the cell it cuts
through is crowded relative to everything below it, or when the cells above
it fill up faster than an exponential; both runs of a pair can then land on
opposite sides of the cut.  ``set_divergence`` quantifies how far two
survivor sets actually drifted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import ParameterError
from .replicable import ThresholdGrid

# condition 1 compares a cell count against this fraction of the mass below it
CROWDING_DENOMINATOR = 30.0


@dataclass(frozen=True)
class IntervalProfile:
    """Cell-occupancy counts of reference errors against one grid."""

    grid: ThresholdGrid
    counts: tuple[int, ...]
    cumulative: tuple[int, ...]
    reference_errors: tuple[float, ...]

    def __post_init__(self):
        if len(self.counts) != self.grid.n_intervals:
            raise ParameterError("profile must have one count per grid interval")
        if sum(self.counts) != len(self.reference_errors):
            raise ParameterError("counts must cover every profiled error exactly once")


def interval_profile(grid: ThresholdGrid, reference_errors: Iterable[float]) -> IntervalProfile:
    """Bin reference errors into the grid's cells.

    Errors below the origin land in cell 0 and errors at or past the top land
    in the last cell, so the counts always sum to the number of errors.
    """
    errs = np.asarray(list(reference_errors), dtype=np.float64)
    n = grid.n_intervals
    if errs.size:
        raw = np.floor((errs - grid.origin) / grid.spacing).astype(np.int64)
        cells = np.clip(raw, 0, n - 1)
        counts = np.bincount(cells, minlength=n)
    else:
        counts = np.zeros(n, dtype=np.int64)
    return IntervalProfile(
        grid=grid,
        counts=tuple(int(c) for c in counts),
        cumulative=tuple(int(c) for c in np.cumsum(counts)),
        reference_errors=tuple(float(e) for e in errs),
    )


def classify_thresholds(profile: IntervalProfile, rho: float) -> tuple[bool, ...]:
    """Badness flag for each selectable threshold (True means bad).

    Threshold j cuts through cell i = j + 1.  It is bad when the cell holds
    more than rho/30 of the mass strictly below it, or when some later cell
    i + j holds at least e^j times that mass.  Both conditions are evaluated
    literally; with zero mass below, the first fires on any occupied cell and
    the second on the mere existence of a later cell.
    """
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"replicability budget must lie in (0, 1), got {rho}")
    counts = np.asarray(profile.counts, dtype=np.float64)
    cum = np.asarray(profile.cumulative, dtype=np.float64)
    n = counts.shape[0]
    # growth[i] = log counts[i] - i; the second condition at cell i asks for a
    # later cell m with growth[m] >= log(below) - i, so one exclusive suffix
    # maximum answers it for every cell at once
    with np.errstate(divide="ignore"):
        growth = np.where(counts > 0.0, np.log(np.maximum(counts, 1.0)), -np.inf)
    growth = growth - np.arange(n)
    suffix = np.full(n, -np.inf)
    if n > 1:
        suffix[:-1] = np.maximum.accumulate(growth[::-1])[::-1][1:]
    flags = []
    for i in range(1, profile.grid.count + 1):
        below = float(cum[i - 1])
        crowded = counts[i] > (rho / CROWDING_DENOMINATOR) * below
        if below == 0.0:
            runaway = i < n - 1
        else:
            runaway = bool(suffix[i] >= math.log(below) - i - 1e-12)
        flags.append(bool(crowded or runaway))
    return tuple(flags)


def bad_fraction(profile: IntervalProfile, rho: float) -> float:
    """Fraction of selectable thresholds flagged bad."""
    flags = classify_thresholds(profile, rho)
    return sum(flags) / len(flags)


# ---------------------------------------------------------------------------
# paired survivor sets


def set_divergence(first: Iterable, second: Iterable) -> float:
    """Symmetric difference over union of two survivor sets; 0 means the
    sides agree exactly, two empty sets included."""
    first, second = frozenset(first), frozenset(second)
    union = first | second
    return len(first ^ second) / len(union) if union else 0.0
