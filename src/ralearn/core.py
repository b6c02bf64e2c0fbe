"""Finite hypothesis classes, label models, and exact disagreement geometry.

The domain is a finite set of points carrying an explicit probability vector,
and a hypothesis class is a {0,1} prediction matrix with one row per
hypothesis.  Because everything is finite and explicit, error rates,
disagreement masses, and the disagreement coefficient are computed exactly by
summation.  The two samplers at the bottom are the only stochastic piece;
they draw counts from the model through a caller-owned numpy Generator so
every source of randomness in an experiment is explicit.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

PROB_TOL = 1e-12


class ParameterError(ValueError):
    """A parameter is outside its valid range."""


class EmptyVersionSpaceError(RuntimeError):
    """Every hypothesis was eliminated, which a sound configuration forbids."""


class ZeroMassRegionError(RuntimeError):
    """Conditional sampling was requested from a zero-mass region."""


class WrongSettingError(RuntimeError):
    """The label model does not match the learner's setting."""


class RoundCapExceededError(RuntimeError):
    """A learner hit its hard round cap without meeting its exit condition."""


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True, eq=False)
class HypothesisClass:
    """A finite set of binary hypotheses as a (n_hypotheses, domain_size) matrix."""

    predictions: np.ndarray
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        p = np.ascontiguousarray(np.asarray(self.predictions, dtype=np.uint8))
        if p.ndim != 2 or p.shape[0] == 0 or p.shape[1] == 0:
            raise ParameterError("predictions must be a nonempty 2d matrix")
        if p.max(initial=0) > 1:
            raise ParameterError("predictions must be 0/1 valued")
        p.setflags(write=False)
        object.__setattr__(self, "predictions", p)
        if self.names is not None and len(self.names) != p.shape[0]:
            raise ParameterError("names length must match the number of hypotheses")

    @property
    def n_hypotheses(self) -> int:
        return self.predictions.shape[0]

    @property
    def domain_size(self) -> int:
        return self.predictions.shape[1]

    def row(self, h: int) -> np.ndarray:
        return self.predictions[h]

    def signature(self, h: int) -> bytes:
        """The prediction row as bytes; equal signatures mean equal behavior."""
        return self.predictions[h].tobytes()

    def signature_hash(self, h: int) -> str:
        return hash_signature(self.signature(h))



def hash_signature(sig: bytes) -> str:
    return hashlib.sha256(sig).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class DataModel:
    """A distribution over the domain plus a (possibly noisy) label mechanism.

    ``flip_rates`` holds the per-point probability that the base label is
    flipped; all zeros means labels are deterministic (the realizable case).
    """

    weights: np.ndarray
    base_labels: np.ndarray
    flip_rates: np.ndarray
    target_index: Optional[int] = None

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.base_labels, dtype=np.uint8))
        f = np.ascontiguousarray(np.asarray(self.flip_rates, dtype=np.float64))
        if w.ndim != 1 or w.shape != b.shape or w.shape != f.shape:
            raise ParameterError("weights, base_labels, flip_rates must share one 1d shape")
        if w.size == 0:
            raise ParameterError("domain must be nonempty")
        if np.any(w < 0):
            raise ParameterError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ParameterError("weights must sum to 1")
        if b.max(initial=0) > 1:
            raise ParameterError("base labels must be 0/1 valued")
        if np.any(f < 0) or np.any(f > 1):
            raise ParameterError("flip rates must lie in [0, 1]")
        for name, arr in (("weights", w), ("base_labels", b), ("flip_rates", f)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def realizable(
        cls,
        hclass: HypothesisClass,
        target: int,
        weights: Optional[np.ndarray] = None,
    ) -> "DataModel":
        """Deterministic labels given by one hypothesis of ``hclass``."""
        if not 0 <= target < hclass.n_hypotheses:
            raise ParameterError(f"target index {target} out of range")
        w = uniform_weights(hclass.domain_size) if weights is None else np.asarray(weights)
        return cls(w, hclass.row(target), np.zeros(hclass.domain_size), target_index=target)

    @classmethod
    def from_labels(
        cls,
        labels: np.ndarray,
        weights: np.ndarray,
        flip_rates: Optional[np.ndarray] = None,
    ) -> "DataModel":
        """Explicit label row; zero flip rates unless given."""
        labels = np.asarray(labels)
        if flip_rates is None:
            flip_rates = np.zeros(labels.shape[0])
        return cls(np.asarray(weights), labels, np.asarray(flip_rates))

    @classmethod
    def agnostic(
        cls,
        hclass: HypothesisClass,
        base: int,
        eta: float | np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> "DataModel":
        """Labels of hypothesis ``base`` flipped independently with rate ``eta``."""
        if not 0 <= base < hclass.n_hypotheses:
            raise ParameterError(f"base index {base} out of range")
        n = hclass.domain_size
        w = uniform_weights(n) if weights is None else np.asarray(weights)
        f = np.full(n, float(eta)) if np.isscalar(eta) else np.asarray(eta, dtype=np.float64)
        return cls(w, hclass.row(base), f, target_index=base)

    @property
    def domain_size(self) -> int:
        return self.weights.shape[0]

    @property
    def is_realizable(self) -> bool:
        return bool(np.all(self.flip_rates == 0.0))

    def label_one_probabilities(self) -> np.ndarray:
        """P[label = 1 | x] for every domain point."""
        b = self.base_labels.astype(np.float64)
        return b * (1.0 - self.flip_rates) + (1.0 - b) * self.flip_rates


def uniform_weights(n: int) -> np.ndarray:
    if n < 1:
        raise ParameterError("domain size must be positive")
    return np.full(n, 1.0 / n)


@dataclass(frozen=True, eq=False)
class VersionSpace:
    """A subset of a hypothesis class, stored as a boolean membership mask."""

    members: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.members, dtype=bool))
        if m.ndim != 1:
            raise ParameterError("membership mask must be 1d")
        if not m.any():
            raise EmptyVersionSpaceError("version space must be nonempty")
        m.setflags(write=False)
        object.__setattr__(self, "members", m)

    @classmethod
    def full(cls, n: int) -> "VersionSpace":
        return cls(np.ones(n, dtype=bool))

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "VersionSpace":
        m = np.zeros(n, dtype=bool)
        m[np.asarray(list(indices), dtype=np.int64)] = True
        return cls(m)

    @property
    def size(self) -> int:
        return int(self.members.sum())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.members)


@dataclass
class SampleCounters:
    """Mutable per-run tally of label queries and unlabeled draws."""

    labels: int = 0
    unlabeled: int = 0


# ---------------------------------------------------------------------------
# exact quantities


def _check_same_domain(hclass: HypothesisClass, model: DataModel) -> None:
    if hclass.domain_size != model.domain_size:
        raise ParameterError("hypothesis class and data model disagree on domain size")


def _errors_under(hclass: HypothesisClass, model: DataModel, weights: np.ndarray) -> np.ndarray:
    # err(h) = sum_x w(x) * P[label(x) != h(x)]
    p1 = model.label_one_probabilities()
    pred = hclass.predictions.astype(np.float64)
    return pred @ (weights * (1.0 - 2.0 * p1)) + float(weights @ p1)


def true_error(hclass: HypothesisClass, model: DataModel, h: int) -> float:
    """Exact population error of hypothesis ``h`` under the model."""
    _check_same_domain(hclass, model)
    p1 = model.label_one_probabilities()
    pred = hclass.row(h).astype(np.float64)
    return float(model.weights @ (p1 + pred * (1.0 - 2.0 * p1)))


def true_errors(hclass: HypothesisClass, model: DataModel) -> np.ndarray:
    """Exact population error of every hypothesis."""
    _check_same_domain(hclass, model)
    return _errors_under(hclass, model, model.weights)


def conditional_true_errors(
    hclass: HypothesisClass, model: DataModel, region_mask: np.ndarray
) -> np.ndarray:
    """Exact error of every hypothesis under the model conditioned on a region."""
    _check_same_domain(hclass, model)
    w = conditional_weights(model, region_mask)
    return _errors_under(hclass, model, w)


def empirical_errors_from_counts(
    hclass: HypothesisClass, count_zero: np.ndarray, count_one: np.ndarray
) -> np.ndarray:
    """Per-hypothesis empirical error given per-point counts of observed labels.

    A hypothesis errs on a draw when it predicts 1 where label 0 was seen or
    vice versa, so the mistake count is a single matrix-vector product.
    """
    total = int(count_zero.sum() + count_one.sum())
    if total == 0:
        raise ParameterError("empirical error of an empty sample is undefined")
    pred = hclass.predictions.astype(np.float64)
    mistakes = pred @ (count_zero - count_one).astype(np.float64) + float(count_one.sum())
    return mistakes / total


def disagreement_mask(hclass: HypothesisClass, space: VersionSpace) -> np.ndarray:
    """Boolean mask of domain points where the version space is not unanimous."""
    sub = hclass.predictions[space.members]
    return sub.min(axis=0) != sub.max(axis=0)


def disagreement_region(hclass: HypothesisClass, space: VersionSpace) -> np.ndarray:
    """Sorted domain indices where at least two members disagree."""
    return np.flatnonzero(disagreement_mask(hclass, space))


def disagreement_mass(hclass: HypothesisClass, model: DataModel, space: VersionSpace) -> float:
    """Probability mass of the disagreement region."""
    _check_same_domain(hclass, model)
    return float(model.weights[disagreement_mask(hclass, space)].sum())


def hypothesis_distance(hclass: HypothesisClass, model: DataModel, h1: int, h2: int) -> float:
    """Mass of the points where two hypotheses predict differently."""
    _check_same_domain(hclass, model)
    diff = hclass.row(h1) != hclass.row(h2)
    return float(model.weights[diff].sum())


def distances_from(hclass: HypothesisClass, model: DataModel, center: int) -> np.ndarray:
    """Distance of every hypothesis from ``center``."""
    _check_same_domain(hclass, model)
    diff = hclass.predictions != hclass.row(center)
    return diff.astype(np.float64) @ model.weights


def error_ball(
    hclass: HypothesisClass, model: DataModel, center: int, radius: float
) -> VersionSpace:
    """All hypotheses within ``radius`` of ``center`` (always contains it)."""
    if radius < 0:
        raise ParameterError("ball radius must be nonnegative")
    d = distances_from(hclass, model, center)
    return VersionSpace(d <= radius + PROB_TOL)


def disagreement_coefficient(hclass: HypothesisClass, model: DataModel, center: int) -> float:
    """Supremum over radii of disagreement mass of the ball around ``center``,
    divided by the radius.

    The ratio is piecewise maximal at the finitely many realized positive
    distances, and balls are nested as the radius grows, so the scan keeps a
    per-point count of predicted ones among members and updates it
    incrementally.  Returns 0.0 when every hypothesis duplicates the center.
    """
    _check_same_domain(hclass, model)
    d = distances_from(hclass, model, center)
    order = np.argsort(d, kind="stable")
    pred = hclass.predictions
    ones = np.zeros(hclass.domain_size, dtype=np.int64)
    w = model.weights
    best = 0.0
    members = 0
    pos = 0
    n = hclass.n_hypotheses
    while pos < n:
        radius = d[order[pos]]
        # absorb every hypothesis at this exact distance (within tolerance)
        while pos < n and d[order[pos]] <= radius + PROB_TOL:
            ones += pred[order[pos]]
            members += 1
            pos += 1
        if radius <= PROB_TOL:
            continue
        mass = float(w[(ones > 0) & (ones < members)].sum())
        best = max(best, mass / float(radius))
    return best


def noise_rate(hclass: HypothesisClass, model: DataModel) -> tuple[float, int]:
    """Smallest population error over the class and the lowest index achieving it."""
    errs = true_errors(hclass, model)
    best = int(np.argmin(errs))
    return float(errs[best]), best


@dataclass(frozen=True, eq=False)
class Problem:
    """A class and a label model with their invariants, computed once.

    ``nu`` is the best-in-class error and ``center`` the lowest index
    achieving it; ``theta`` is the disagreement coefficient at ``center``, or
    ``theta_override`` when one is given.  Learners and the harness take a
    Problem, so a batch computes the geometry once instead of once per run.
    """

    hclass: HypothesisClass
    model: DataModel
    theta_override: Optional[float] = None
    nu: float = field(init=False)
    center: int = field(init=False)
    theta: float = field(init=False)

    def __post_init__(self):
        override = self.theta_override
        if override is not None and not (math.isfinite(override) and override > 0.0):
            raise ParameterError(
                f"theta override must be a finite positive number, got {override!r}"
            )
        nu, center = noise_rate(self.hclass, self.model)
        if override is None:
            theta = disagreement_coefficient(self.hclass, self.model, center)
        else:
            theta = float(override)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "theta", theta)

    @property
    def sizing_theta(self) -> float:
        """``theta`` for the sample-size formulas.

        theta is 0 only when every hypothesis duplicates the center; any
        positive stand-in keeps the formulas defined in that corner.
        """
        return self.theta if self.theta > 0.0 else 1.0


# ---------------------------------------------------------------------------
# sampling


def conditional_weights(model: DataModel, region_mask: np.ndarray) -> np.ndarray:
    """The model distribution restricted to a region and renormalized."""
    mask = np.asarray(region_mask, dtype=bool)
    if mask.shape != model.weights.shape:
        raise ParameterError("region mask shape must match the domain")
    w = model.weights * mask
    mass = float(w.sum())
    if mass <= PROB_TOL:
        raise ZeroMassRegionError("conditional distribution over a zero-mass region")
    return w / mass


def region_hit_count(
    model: DataModel,
    region_mask: np.ndarray,
    m: int,
    rng: np.random.Generator,
    counters: SampleCounters,
) -> int:
    """How many of ``m`` fresh unlabeled draws land in a region.

    Distributionally identical to drawing the points and testing membership,
    since only the count matters to the caller; the draw is a single binomial.
    """
    if m < 0:
        raise ParameterError("sample size must be nonnegative")
    counters.unlabeled += m
    if m == 0:
        return 0
    mass = float(model.weights[np.asarray(region_mask, dtype=bool)].sum())
    return int(rng.binomial(m, min(mass, 1.0)))


def sample_labeled_counts(
    hclass: HypothesisClass,
    model: DataModel,
    space: VersionSpace,
    k: int,
    rng: np.random.Generator,
    counters: SampleCounters,
    stream_accounting: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """``k`` labeled draws from the model conditioned on the disagreement region.

    Returns per-point counts of observed 0-labels and 1-labels.  The joint law
    of the counts matches drawing the points one by one (multinomial cells,
    then a binomial label split per cell), so downstream empirical errors are
    distributed exactly as with a materialized sample.  With
    ``stream_accounting`` the rejection cost of hitting the region from the
    unconditional stream is simulated and charged to the unlabeled counter.
    """
    if k < 0:
        raise ParameterError("sample size must be nonnegative")
    _check_same_domain(hclass, model)
    mask = disagreement_mask(hclass, space)
    w = conditional_weights(model, mask)
    if stream_accounting and k > 0:
        mass = float(model.weights[mask].sum())
        if mass < 1.0:
            counters.unlabeled += int(rng.negative_binomial(k, mass))
    counters.labels += k
    counts = rng.multinomial(k, w / w.sum())
    p1 = model.label_one_probabilities()
    ones = rng.binomial(counts, p1)
    return (counts - ones).astype(np.int64), ones.astype(np.int64)


# ---------------------------------------------------------------------------
# built-in class generators


def thresholds(n: int) -> HypothesisClass:
    """Threshold rules on an ordered domain of ``n`` points.

    Hypothesis t (1-based, t = 1..n+1) predicts 1 exactly on points x >= t,
    so adjacent hypotheses disagree on a single point and the class has
    n + 1 rows including the all-ones and all-zeros rules.
    """
    if n < 1:
        raise ParameterError("domain size must be positive")
    pred = np.triu(np.ones((n + 1, n), dtype=np.uint8))
    names = tuple(f"h{t}" for t in range(1, n + 2))
    return HypothesisClass(pred, names)


def intervals(n: int) -> HypothesisClass:
    """Interval rules on an ordered domain: 1 inside [a, b], plus the empty rule."""
    if n < 1:
        raise ParameterError("domain size must be positive")
    rows = [np.zeros(n, dtype=np.uint8)]
    names = ["empty"]
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            row = np.zeros(n, dtype=np.uint8)
            row[a - 1 : b] = 1
            rows.append(row)
            names.append(f"[{a},{b}]")
    return HypothesisClass(np.stack(rows), tuple(names))


def worst_case(n: int) -> HypothesisClass:
    """A class whose disagreement coefficient at the target equals ``n`` exactly.

    One target (all zeros) plus n hypotheses that each flip a single distinct
    point; under uniform weights every wrong hypothesis sits at distance 1/n
    and the ball at that radius disagrees on the whole domain.
    """
    if n < 1:
        raise ParameterError("construction size must be positive")
    pred = np.vstack([np.zeros(n, dtype=np.uint8), np.eye(n, dtype=np.uint8)])
    names = ("target",) + tuple(f"flip{i}" for i in range(1, n + 1))
    return HypothesisClass(pred, names)


def explicit(matrix) -> HypothesisClass:
    """A class given directly as a 0/1 matrix."""
    return HypothesisClass(np.asarray(matrix))
