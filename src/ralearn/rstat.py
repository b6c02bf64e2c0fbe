"""Replicable answers to statistical queries via randomized grid rounding.

A statistical query asks for the mean of a bounded quantity to within a
tolerance.  To make the answer replicable across two independent samples, the
empirical mean is snapped to a random grid: the grid spacing is chosen so that
both sample means land within half a step of each other with high
probability, and the grid offset is drawn once from shared randomness so both
runs snap to the same point unless the means straddle a grid boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .core import ParameterError
from .randomness import RandomString


@dataclass(frozen=True)
class SQParams:
    """Replicability, tolerance, and failure budget for one statistical query."""

    rho: float
    tau: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ParameterError(f"replicability budget must lie in (0, 1), got {self.rho}")
        if not 0.0 < self.tau < 1.0:
            raise ParameterError(f"query tolerance must lie in (0, 1), got {self.tau}")
        if not 0.0 < self.delta < 1.0:
            raise ParameterError(f"failure budget must lie in (0, 1), got {self.delta}")
        if self.rho <= 2.0 * self.delta:
            raise ParameterError(
                "replicability budget must exceed twice the failure budget, "
                f"got rho={self.rho}, delta={self.delta}"
            )

    @property
    def beta(self) -> float:
        """Slack after reserving the two tail-failure events from the budget."""
        return self.rho - 2.0 * self.delta

    @cached_property
    def spacing(self) -> float:
        """``grid_spacing`` of this query, computed on first use and kept on
        it, so a query asked every round of every run of a batch (a
        schedule's ``sq_loop``) works it out once."""
        return grid_spacing(self)


def required_sample_size(params: SQParams) -> int:
    """Draws needed so the empirical mean concentrates within the grid margin."""
    b = params.beta
    raw = (1.0 + b) ** 2 * math.log(2.0 / params.delta) / (2.0 * params.tau**2 * b**2)
    return int(math.ceil(raw))


def concentration_radius(params: SQParams) -> float:
    """Deviation the sample size guards against; strictly inside the tolerance."""
    return params.tau * params.beta / (1.0 + params.beta)


def grid_spacing(params: SQParams) -> float:
    """Distance between adjacent snap points: twice what is left of the tolerance."""
    return 2.0 * (params.tau - concentration_radius(params))


def snap_to_grid(value: float, offset: float, spacing: float) -> float:
    """Nearest point of ``offset + spacing * Z`` to ``value``, clipped to [0, 1].

    Ties round toward the larger grid point.
    """
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise ParameterError(f"grid spacing must be a finite positive number, got {spacing}")
    g = math.floor((value - offset) / spacing + 0.5)
    return min(1.0, max(0.0, offset + spacing * g))


def rstat_answer_from_mean(
    params: SQParams, mean: float, shared: RandomString, label: str
) -> float:
    """Replicable query answer given an already-computed empirical mean.

    The caller is responsible for the mean coming from at least
    :func:`required_sample_size` independent draws.
    """
    if not 0.0 <= mean <= 1.0:
        raise ParameterError(f"empirical mean must lie in [0, 1], got {mean}")
    s = params.spacing
    offset = shared.derive_uniform(label) * s
    return snap_to_grid(mean, offset, s)


def replicability_failure_bound(params: SQParams) -> float:
    """Probability bound on two runs answering differently; equals the budget."""
    return 2.0 * params.delta + params.beta


# ---------------------------------------------------------------------------
# exact agreement oracles (small cases, used for calibration checks)


def pair_agreement_exact(mean1: float, mean2: float, spacing: float) -> float:
    """Probability, over the uniform grid offset, that two means snap together.

    The snapped value is piecewise constant in the offset; the pieces are cut
    by the offsets where either mean's nearest grid point changes and by the
    offsets where clipping at 0 or 1 starts or stops.  Each piece is then
    decided by evaluating both snaps at its midpoint.
    """
    s = spacing
    if not (math.isfinite(s) and s > 0.0):
        raise ParameterError(f"grid spacing must be a finite positive number, got {s}")
    for m in (mean1, mean2):
        if not 0.0 <= m <= 1.0:
            raise ParameterError(f"means must lie in [0, 1], got {m}")
    cuts = {0.0, s}
    for m in (mean1, mean2):
        cuts.add((m + s / 2.0) % s)
    base = sorted(cuts)
    refined = set(base)
    for a, b in zip(base[:-1], base[1:]):
        mid = (a + b) / 2.0
        for m in (mean1, mean2):
            g = math.floor((m - mid) / s + 0.5)
            for crossing in (-g * s, 1.0 - g * s):
                if a < crossing < b:
                    refined.add(crossing)
    pts = sorted(refined)
    agree = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        mid = (a + b) / 2.0
        if snap_to_grid(mean1, mid, s) == snap_to_grid(mean2, mid, s):
            agree += b - a
    return agree / s


def exact_agreement_probability(k: int, p: float, spacing: float) -> float:
    """Exact agreement chance for two independent size-``k`` Bernoulli samples.

    Enumerates both binomial counts, so the cost is quadratic in ``k``; meant
    for small calibration problems, not production sizes.
    """
    if k < 1:
        raise ParameterError("sample size must be positive")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"success probability must lie in [0, 1], got {p}")
    pmf = [math.comb(k, i) * p**i * (1.0 - p) ** (k - i) for i in range(k + 1)]
    total = 0.0
    for i in range(k + 1):
        total += pmf[i] * pmf[i] * 1.0
        for j in range(i + 1, k + 1):
            total += 2.0 * pmf[i] * pmf[j] * pair_agreement_exact(i / k, j / k, spacing)
    return total
