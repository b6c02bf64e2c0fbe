"""Finite hypothesis classes, label models, and exact disagreement geometry.

The domain is a finite set of points carrying an explicit probability vector,
and a hypothesis class is a {0,1} prediction matrix with one row per
hypothesis.  Because everything is finite and explicit, error rates,
disagreement masses, and the disagreement coefficient are computed exactly by
summation.  A version space's disagreement region is a boolean mask over the
domain; the full class's region is computed once per problem
(``Problem.region``), and learners derive each later version space's region
once and hand it to ``disagreement_mass`` and to the samplers.  Every exact
error and distance is one mismatch product (``_mismatch_times``), and a
``Problem`` keeps the exact error of every hypothesis (``Problem.errors``),
which gives the noise floor and every returned hypothesis's error.  Elimination
reads each row of the class as its runs of ones, cached per class, and scores
a row from two lookups per run in a prefix sum of the label counts: integer
work only, so it is exact for every draw count int64 holds.
The two samplers at the bottom are the only stochastic piece; they draw
counts from the model inside a given region through a caller-owned numpy
Generator so every source of randomness in an experiment is explicit.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

PROB_TOL = 1e-12

# the built-in generators refuse a class of more cells (bytes) than this
MAX_CLASS_CELLS = 2**25

# the geometry's mismatch products are cast to float64, and the run form is
# read from the class, in row blocks of at most this many cells (1 MB in float64)
_BLOCK_CELLS = 2**17

# the samplers hand draw counts to numpy as int64
_MAX_DRAWS = int(np.iinfo(np.int64).max)


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

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(start, end, first)``: every maximal run of ones, row
        by row, covers columns ``[start, end)``, and ``first`` is each row's
        first-run index.  A row of zeros holds the one empty run ``[0, 0)``,
        so every row owns at least one run.  Read one row block at a time."""
        n_h, n = self.predictions.shape
        step = max(1, _BLOCK_CELLS // n)
        cells = self.predictions.view(bool)
        rows, cols = [], []
        for i in range(0, n_h, step):
            # with a 0 on either side, a row's changes alternate between the
            # first column of a run and the column just past it
            steps = np.diff(cells[i : i + step], axis=1, prepend=False, append=False)
            row, col = np.divmod(np.flatnonzero(steps), n + 1)
            rows.append(row[::2] + i)
            cols.append(col)
        row, col = np.concatenate(rows), np.concatenate(cols)
        per_row = np.bincount(row, minlength=n_h)
        at = np.searchsorted(row, np.flatnonzero(per_row == 0))
        start, end = np.insert(col[::2], at, 0), np.insert(col[1::2], at, 0)
        per_row = np.maximum(per_row, 1)
        first = np.cumsum(per_row) - per_row
        for arr in (start, end, first):
            arr.setflags(write=False)
        return start, end, first



def hash_signature(sig: bytes) -> str:
    return hashlib.sha256(sig).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class DataModel:
    """A distribution over the domain plus a (possibly noisy) label mechanism.

    ``flip_rates`` holds the per-point probability that the base label is
    flipped; all zeros means labels are deterministic (the realizable case).
    Construction records once whether every label is certain (each P[label =
    1 | x] is 0 or 1, as when every flip rate is 0 or 1): ``_certain_ones``
    is then the read-only mask of the points labeled 1, and None otherwise.
    The sampling weights of the whole domain are computed on first use and
    kept (``_whole_domain_weights``).
    """

    weights: np.ndarray
    base_labels: np.ndarray
    flip_rates: np.ndarray
    target_index: Optional[int] = None
    _label_one: np.ndarray = field(init=False, repr=False)
    _certain_ones: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.base_labels, dtype=np.uint8))
        f = np.ascontiguousarray(np.asarray(self.flip_rates, dtype=np.float64))
        if w.ndim != 1 or w.shape != b.shape or w.shape != f.shape:
            raise ParameterError("weights, base_labels, flip_rates must share one 1d shape")
        if w.size == 0:
            raise ParameterError("domain must be nonempty")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ParameterError("weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ParameterError("weights must sum to 1")
        if b.max(initial=0) > 1:
            raise ParameterError("base labels must be 0/1 valued")
        # written as membership so a NaN rate is rejected too
        if not np.all((f >= 0) & (f <= 1)):
            raise ParameterError("flip rates must lie in [0, 1]")
        bf = b.astype(np.float64)
        p1 = bf * (1.0 - f) + (1.0 - bf) * f
        for name, arr in (
            ("weights", w), ("base_labels", b), ("flip_rates", f), ("_label_one", p1)
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        sure = p1 == 1.0
        sure.setflags(write=False)
        object.__setattr__(self, "_certain_ones", sure if np.all(sure | (p1 == 0.0)) else None)

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

    def label_one_probabilities(self) -> np.ndarray:
        """P[label = 1 | x] for every domain point (read-only, computed once)."""
        return self._label_one

    @cached_property
    def _whole_domain_weights(self) -> np.ndarray:
        """Read-only sampling weights of the whole domain, ``weights /
        weights.sum()``: bit for bit what ``conditional_weights`` gives for
        an all-True region, computed once."""
        w = self.weights / self.weights.sum()
        w.setflags(write=False)
        return w


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


def _mismatch_times(hclass: HypothesisClass, base: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``(hclass.predictions != base) @ vector``: each row's sum of the float64
    ``vector`` over the cells where it differs from the 0/1 row ``base``,
    built and cast one row block of at most ``_BLOCK_CELLS`` cells at a
    time.  A non-negative ``vector`` leaves nothing to cancel, so a row that
    differs from ``base`` only where ``vector`` is 0 gets exactly 0.0."""
    pred = hclass.predictions
    step = max(1, _BLOCK_CELLS // vector.size)
    out = np.empty(pred.shape[0], dtype=np.float64)
    for i in range(0, pred.shape[0], step):
        np.matmul(pred[i : i + step] != base, vector, out=out[i : i + step])
    return out


def _errors_under(hclass: HypothesisClass, model: DataModel, weights: np.ndarray) -> np.ndarray:
    # err(h) = sum_x w(x) * P[label(x) != h(x)], which is f(x) where h agrees
    # with the base label and 1 - f(x) where it does not, f the flip rate.
    # For a noiseless model w . f is +0.0 and the product sums non-negative
    # weights, so every zero-error hypothesis gets exactly 0.0; for f <= 1/2
    # both parts are non-negative and nothing cancels.
    f = model.flip_rates
    mismatch = _mismatch_times(hclass, model.base_labels, weights * (1.0 - 2.0 * f))
    return mismatch + float(weights @ f)


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
    hclass: HypothesisClass,
    count_zero: np.ndarray,
    count_one: np.ndarray,
    members: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-hypothesis empirical error given per-point counts of observed labels.

    A hypothesis errs on a draw when it predicts 1 where label 0 was seen or
    vice versa, so its mistake count is ``count_one.sum()`` plus the sum of
    ``count_zero - count_one`` over the columns where it predicts 1.  That sum
    is read from the class's cached runs of ones (``HypothesisClass._runs``)
    as two lookups per run in a prefix sum of ``count_zero - count_one``, so a
    call costs O(domain + runs) integer work, never a pass over the matrix.
    Every built-in class has one run per row.  A class with many runs per row
    costs more: a dense random 1025 x 1024 class has about 256 per row and
    takes about 1.3 ms per call, some four times a row-blocked matrix product.

    With a boolean ``members`` mask (a version space's), every other row gets
    ``+inf``, so no cut keeps it.  The result is exact for any ``total`` that
    int64 holds: each partial sum is at most ``total`` in magnitude, all of it
    is int64, and the mistake counts meet one float64 division by ``total``.
    When every row is one run, the per-run sums are already the per-row sums
    and are not reduced again.
    """
    n_h, n = hclass.predictions.shape
    count_zero, count_one = np.asarray(count_zero), np.asarray(count_one)
    if count_zero.shape != (n,) or count_one.shape != (n,):
        raise ParameterError(f"label counts must have shape ({n},), the class's domain")
    if members is not None and np.shape(members) != (n_h,):
        raise ParameterError(f"members mask must have shape ({n_h},), one entry per hypothesis")
    ones = int(count_one.sum())
    total = int(count_zero.sum()) + ones
    if total == 0:
        raise ParameterError("empirical error of an empty sample is undefined")
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.subtract(count_zero, count_one, dtype=np.int64), out=prefix[1:])
    start, end, first = hclass._runs
    mistakes = prefix[end] - prefix[start]
    if start.size != n_h:
        # with one run per row ``first`` is arange and the reduce is identity
        mistakes = np.add.reduceat(mistakes, first)
    errs = (mistakes + ones) / total
    if members is not None:
        errs[np.logical_not(members)] = np.inf
    return errs


def disagreement_mask(hclass: HypothesisClass, space: VersionSpace) -> np.ndarray:
    """Boolean mask of domain points where the version space is not unanimous."""
    sub = hclass.predictions[space.members]
    return sub.min(axis=0) != sub.max(axis=0)


def disagreement_mass(model: DataModel, region: np.ndarray) -> float:
    """Probability mass of a region given as a boolean mask over the domain."""
    mask = np.asarray(region, dtype=bool)
    if mask.shape != model.weights.shape:
        raise ParameterError("region mask shape must match the domain")
    return float(model.weights[mask].sum())


def distances_from(hclass: HypothesisClass, model: DataModel, center: int) -> np.ndarray:
    """Distance of every hypothesis from ``center``: the mass where it differs
    from ``center``'s row, a sum of non-negative weights, so a duplicate of
    the center is exactly 0.0."""
    _check_same_domain(hclass, model)
    return _mismatch_times(hclass, hclass.row(center), model.weights)


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
        mass = disagreement_mass(model, (ones > 0) & (ones < members))
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

    ``errors`` is the read-only exact error of every hypothesis
    (``true_errors``); ``nu`` is its minimum, the best-in-class error, and
    ``center`` the lowest index achieving it; ``theta`` is the disagreement
    coefficient at ``center``; ``region`` is the disagreement region of the
    full class, the mask every learner starts from.  Learners and the harness
    take a Problem, so a batch computes these once instead of once per run,
    and a returned hypothesis's error is read from ``errors``, the vector
    ``nu`` comes from.  ``region`` is computed on first use, so a batch whose
    learner never asks for it (``erm``) does not pay for it.
    """

    hclass: HypothesisClass
    model: DataModel
    errors: np.ndarray = field(init=False, repr=False)
    nu: float = field(init=False)
    center: int = field(init=False)
    theta: float = field(init=False)

    def __post_init__(self):
        errors = true_errors(self.hclass, self.model)
        errors.setflags(write=False)
        center = int(np.argmin(errors))
        object.__setattr__(self, "errors", errors)
        object.__setattr__(self, "nu", float(errors[center]))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "theta", disagreement_coefficient(self.hclass, self.model, center))

    @cached_property
    def region(self) -> np.ndarray:
        """Read-only disagreement mask of the full class."""
        mask = disagreement_mask(self.hclass, VersionSpace.full(self.hclass.n_hypotheses))
        mask.setflags(write=False)
        return mask

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


def _check_draws(m: int) -> None:
    if m < 0:
        raise ParameterError("sample size must be nonnegative")
    if m > _MAX_DRAWS:
        raise ParameterError(f"sample size {m} exceeds the largest drawable count {_MAX_DRAWS}")


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
    _check_draws(m)
    counters.unlabeled += m
    if m == 0:
        return 0
    mass = disagreement_mass(model, region_mask)
    return int(rng.binomial(m, min(mass, 1.0)))


def sample_labeled_counts(
    model: DataModel,
    region: np.ndarray,
    k: int,
    rng: np.random.Generator,
    counters: SampleCounters,
) -> tuple[np.ndarray, np.ndarray]:
    """``k`` labeled draws from the model conditioned on a region.

    ``region`` is a boolean mask over the domain, for a learner the
    disagreement region of its current version space.  Returns per-point
    counts of observed 0-labels and 1-labels.  The joint law of the counts
    matches drawing the points one by one (multinomial cells, then a binomial
    label split per cell), so downstream empirical errors are distributed
    exactly as with a materialized sample.  Only ``counters.labels`` is
    charged; the unlabeled draws that would find the region are not.

    From the stream it reads one ``multinomial(k, w)``, ``w`` the region's
    conditional weights (the model's cached whole-domain weights when the
    region is all True), then the label split.  A model with a noisy label
    anywhere splits by ``binomial(counts, p1)``.  A model whose every label
    is certain sets ``ones`` to ``counts`` where the label is 1 and to 0
    elsewhere, then reads and discards ``random(m)``, ``m`` the number of
    cells with ``ones > 0``: that binomial reads nothing where n = 0 or
    p = 0 and exactly one double where p = 1, so both paths leave the same
    counts and the generator in the same state.
    """
    _check_draws(k)
    mask = np.asarray(region, dtype=bool)
    if mask.shape == model.weights.shape and mask.all():
        w = model._whole_domain_weights
    else:
        w = conditional_weights(model, mask)
    counters.labels += k
    counts = rng.multinomial(k, w)
    certain = model._certain_ones
    if certain is None:
        ones = rng.binomial(counts, model.label_one_probabilities())
    else:
        ones = np.where(certain, counts, 0)
        rng.random(np.count_nonzero(ones))
    return counts - ones, ones


# ---------------------------------------------------------------------------
# built-in class generators


def _check_class_cells(rows: int, n: int) -> None:
    # checked before anything is built, so an oversized request costs nothing
    if rows * n > MAX_CLASS_CELLS:
        raise ParameterError(
            f"class of {rows} hypotheses on {n} points has {rows * n} cells, "
            f"more than the cap of {MAX_CLASS_CELLS}"
        )


def thresholds(n: int) -> HypothesisClass:
    """Threshold rules on an ordered domain of ``n`` points.

    Hypothesis t (1-based, t = 1..n+1) predicts 1 exactly on points x >= t,
    so adjacent hypotheses disagree on a single point and the class has
    n + 1 rows including the all-ones and all-zeros rules.
    """
    if n < 1:
        raise ParameterError("domain size must be positive")
    _check_class_cells(n + 1, n)
    pred = np.triu(np.ones((n + 1, n), dtype=np.uint8))
    names = tuple(f"h{t}" for t in range(1, n + 2))
    return HypothesisClass(pred, names)


def intervals(n: int) -> HypothesisClass:
    """Interval rules on an ordered domain: 1 inside [a, b], plus the empty rule."""
    if n < 1:
        raise ParameterError("domain size must be positive")
    _check_class_cells(n * (n + 1) // 2 + 1, n)
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
    _check_class_cells(n + 1, n)
    pred = np.vstack([np.zeros(n, dtype=np.uint8), np.eye(n, dtype=np.uint8)])
    names = ("target",) + tuple(f"flip{i}" for i in range(1, n + 1))
    return HypothesisClass(pred, names)


def explicit(matrix) -> HypothesisClass:
    """A class given directly as a 0/1 matrix."""
    return HypothesisClass(np.asarray(matrix))
