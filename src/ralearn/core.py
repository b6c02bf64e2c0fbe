"""Finite hypothesis classes, label models, and exact disagreement geometry.

The domain is a finite set of points carrying an explicit probability vector,
and a hypothesis class is a set of {0,1} rows over it, stored as their runs
of ones: the generators emit runs, and ``explicit`` reads a matrix's once.
Because everything is finite and explicit, error rates, disagreement masses,
and the disagreement coefficient are computed exactly.  A version space's
disagreement region, a coverage count over its members' runs, is a boolean
mask over the domain; the full class's is computed once per problem
(``Problem.region``), and learners hand each later one to
``disagreement_mass`` and to the samplers.  A ``Problem`` keeps the exact
error of every hypothesis (``Problem.errors``), which gives the noise floor
and every returned hypothesis's error.

Elimination and the uniform-weight geometry share one integer primitive
(``_row_sums``): a row's sum of an int64 vector over its ones is two lookups
per run in a prefix sum, exact for every draw count int64 holds.  A model
whose every weight is ``1 / n`` (every config without ``weights``) gets each
row's mismatch count d against a 0/1 row this way, hence a distance
``d / n``, for one flip rate ``eta`` an error ``eta + (1 - 2*eta) * (d / n)``,
and a disagreement coefficient of exact ratios ``C / d``, C the columns
where a ball disagrees; no BLAS call is made, so no result depends on the
BLAS build.  Other weights, per-point flip rates and conditional errors keep
one float64 mismatch product (``_mismatch_times``) over rows built from runs.

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

# the float geometry's mismatch products build the class's rows from their
# runs of ones, compare and cast them to float64 in row blocks of at most
# this many cells (1 MB in float64)
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


def _zero_one(values, what: str) -> np.ndarray:
    """``values`` as a contiguous uint8 array, refused with ParameterError
    unless it is rectangular and every entry is 0 or 1.  Checked before the
    cast, which would truncate 0.5 to 0 and wrap 256 to 0; a uint8 array
    (every row a class builds) is checked by its maximum and not copied."""
    try:
        raw = np.asarray(values)
    except ValueError:
        raise ParameterError(f"{what} must be a rectangular array") from None
    if raw.dtype == np.uint8:
        valid = raw.max(initial=0) <= 1
    else:
        valid = np.all((raw == 0) | (raw == 1))
    if not valid:
        raise ParameterError(f"{what} must be 0/1 valued")
    return np.ascontiguousarray(raw, dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class HypothesisClass:
    """Binary hypotheses on ``range(domain_size)``: row ``r`` predicts 1 on
    ``[start[i], end[i])`` for its runs of ones ``first[r] <= i < first[r + 1]``
    (``start.size`` past the last row), which increase and do not overlap
    (touching runs are accepted, not merged); a row of zeros holds the one
    run ``[0, 0)``.  The arrays are kept as read-only int64, with each run's
    row (``_row``), and malformed runs are refused in O(runs).  The 0/1
    matrix, ``predictions``, is built on first access; the library never
    reads it."""

    start: np.ndarray
    end: np.ndarray
    first: np.ndarray
    domain_size: int
    _row: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for what in ("start", "end", "first"):
            raw = np.asarray(getattr(self, what))
            if raw.ndim != 1 or raw.dtype.kind not in "iu":
                raise ParameterError(f"{what} must be a 1d integer array")
            raw = raw.astype(np.int64)
            raw.setflags(write=False)
            object.__setattr__(self, what, raw)
        start, end, first, n = self.start, self.end, self.first, self.domain_size
        integral = isinstance(n, (int, np.integer)) and not isinstance(n, (bool, np.bool_))
        if not integral or n < 1 or start.size != end.size:
            raise ParameterError("domain size must be a positive integer, with one end per run")
        object.__setattr__(self, "domain_size", int(n))
        per_row = np.diff(first, append=start.size)
        if first.size == 0 or first[0] != 0 or per_row.min() < 1:
            raise ParameterError("first must start at 0 and strictly increase below the run count")
        # each run ends by the next one's start, except where a row ends; an
        # empty run is allowed only as [0, 0), the one run of its row
        apart = end[:-1] <= start[1:]
        apart[first[1:] - 1] = True
        empty = np.flatnonzero(start >= end)
        lone = per_row[np.searchsorted(first, empty, side="right") - 1] == 1
        ordered = apart.all() and lone.all() and not np.any(start[empty] | end[empty])
        if not ordered or start.min() < 0 or end.max() > n:
            raise ParameterError(f"runs must be ordered, in [0, {n}], nonempty but a lone [0, 0)")
        row = np.repeat(np.arange(first.size), per_row)
        row.setflags(write=False)
        object.__setattr__(self, "_row", row)

    @property
    def n_hypotheses(self) -> int:
        return self.first.size

    def _block(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo`` to ``hi - 1`` as a uint8 matrix: each row's bounds 0,
        each run's start and end, ``domain_size``, offset by the row's place
        in the block, enclose stretches of 0, 1, 0, ..."""
        n, first = self.domain_size, self.first[lo:hi]
        a, b = first[0], self.first[hi] if hi < self.n_hypotheses else self.start.size
        bounds = np.full(2 * (b - a + hi - lo), n)
        bounds[2 * (first - a + np.arange(hi - lo))] = 0
        run = 2 * (np.arange(b - a) + self._row[a:b] - lo) + 1
        bounds[run], bounds[run + 1] = self.start[a:b], self.end[a:b]
        bounds += np.repeat(np.arange(0, (hi - lo) * n, n), 2 * np.diff(first, append=b) + 2)
        bits = np.zeros(bounds.size - 1, dtype=np.uint8)
        bits[1::2] = 1
        return np.repeat(bits, np.diff(bounds)).reshape(hi - lo, n)

    def row(self, h: int) -> np.ndarray:
        """Hypothesis ``h``'s read-only uint8 row, built from its runs."""
        return np.frombuffer(self.signature(h), dtype=np.uint8)

    def _runs(self, h: int) -> Iterable[tuple[int, int]]:
        """Hypothesis ``h``'s runs as ``(start, end)`` pairs of ints."""
        if not 0 <= h < self.n_hypotheses:
            raise IndexError(f"hypothesis index {h} out of range")
        lo, hi = self.first[h], self.first[h + 1] if h + 1 < self.n_hypotheses else self.start.size
        return zip(self.start[lo:hi].tolist(), self.end[lo:hi].tolist())

    def signature(self, h: int) -> bytes:
        """The prediction row as bytes; equal signatures mean equal behavior.
        Joined from the row's stretches: on a few runs, a tenth of ``_block``."""
        parts, at = [], 0
        for s, e in self._runs(h):
            parts += (bytes(s - at), b"\1" * (e - s))
            at = e
        return b"".join(parts) + bytes(self.domain_size - at)

    def name(self, h: int) -> str:
        """Hypothesis ``h``'s runs, 1-based and closed, as ``[a,b]`` joined by
        ``+`` (``[1,1]+[3,4]``); ``empty`` for the lone run ``[0, 0)``."""
        return "+".join(f"[{s + 1},{e}]" for s, e in self._runs(h) if e) or "empty"

    @cached_property
    def predictions(self) -> np.ndarray:
        """The read-only (n_hypotheses, domain_size) uint8 matrix of the class."""
        pred = self._block(0, self.n_hypotheses)
        pred.setflags(write=False)
        return pred


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
    It also records whether every given weight is ``1 / n`` (``_uniform``, as
    ``uniform_weights`` gives), which puts the geometry on its integer path,
    and the one flip rate every point shares (``_flip``, None when the rates
    differ).  Uniform weights are kept as given; any others, which need only
    sum to 1 within 1e-9, are stored normalized once, ``w / w.sum()``, so the
    geometry, the conditional sampler and the whole-domain sampler all read
    one distribution.  The sampling weights of the whole domain are computed
    on first use and kept (``_whole_domain_weights``).
    """

    weights: np.ndarray
    base_labels: np.ndarray
    flip_rates: np.ndarray
    _label_one: np.ndarray = field(init=False, repr=False)
    _certain_ones: Optional[np.ndarray] = field(init=False, repr=False)
    _uniform: bool = field(init=False, repr=False)
    _flip: Optional[float] = field(init=False, repr=False)

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        b = _zero_one(self.base_labels, "base labels")
        f = np.ascontiguousarray(np.asarray(self.flip_rates, dtype=np.float64))
        if w.ndim != 1 or w.shape != b.shape or w.shape != f.shape:
            raise ParameterError("weights, base_labels, flip_rates must share one 1d shape")
        if w.size == 0:
            raise ParameterError("domain must be nonempty")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ParameterError("weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ParameterError("weights must sum to 1")
        # written as membership so a NaN rate is rejected too
        if not np.all((f >= 0) & (f <= 1)):
            raise ParameterError("flip rates must lie in [0, 1]")
        uniform = bool(np.all(w == 1.0 / w.size))
        if not uniform:
            w = w / w.sum()
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
        object.__setattr__(self, "_uniform", uniform)
        object.__setattr__(self, "_flip", float(f[0]) if np.all(f == f[0]) else None)

    @classmethod
    def realizable(
        cls,
        hclass: HypothesisClass,
        target: int,
        weights: Optional[np.ndarray] = None,
    ) -> "DataModel":
        """Deterministic labels given by one hypothesis of ``hclass``:
        ``agnostic`` at flip rate 0, whose arrays are the same bit for bit."""
        return cls.agnostic(hclass, target, 0.0, weights)

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
            raise ParameterError(f"label-source index {base} out of range")
        n = hclass.domain_size
        w = uniform_weights(n) if weights is None else np.asarray(weights)
        f = np.full(n, float(eta)) if np.isscalar(eta) else np.asarray(eta, dtype=np.float64)
        return cls(w, hclass.row(base), f)

    @property
    def domain_size(self) -> int:
        return self.weights.shape[0]

    def label_one_probabilities(self) -> np.ndarray:
        """P[label = 1 | x] for every domain point (read-only, computed once)."""
        return self._label_one

    @cached_property
    def _whole_domain_weights(self) -> np.ndarray:
        """Read-only sampling weights of the whole domain, the given weights
        over their sum: ``weights`` itself unless uniform, which are divided
        by their sum here.  ``conditional_weights`` returns them for an
        all-True region."""
        if not self._uniform:
            return self.weights
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
        raw = np.asarray(list(indices))
        if raw.size:
            # checked before the cast to int64, which would truncate 1.5 to 1
            integral = raw.dtype.kind in "iu" or (
                raw.dtype.kind == "f" and np.all(np.floor(raw) == raw)
            )
            if not integral:
                raise ParameterError(f"hypothesis indices must be integers, got {raw.tolist()!r}")
            if not (0 <= raw.min() and raw.max() < n):
                raise ParameterError(f"hypothesis indices must lie in [0, {n})")
        m = np.zeros(n, dtype=bool)
        m[raw.astype(np.int64, copy=False)] = True
        return cls(m)

    @property
    def size(self) -> int:
        return int(self.members.sum())

    def indices(self) -> np.ndarray:
        return self.members.nonzero()[0]


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


def _check_center(hclass: HypothesisClass, model: DataModel, center: int) -> None:
    _check_same_domain(hclass, model)
    if not 0 <= center < hclass.n_hypotheses:
        raise ParameterError(f"center index {center} out of range")


def _member_runs(hclass: HypothesisClass, members: Optional[np.ndarray]) -> np.ndarray | slice:
    """An index of the class's runs that keeps those of the rows in the
    boolean mask ``members``, every run when None.  With one run per row the
    runs are the rows, and ``members`` is that index itself."""
    if members is None:
        return slice(None)
    return members if hclass.start.size == hclass.n_hypotheses else members[hclass._row]


def _row_sums(hclass: HypothesisClass, values: np.ndarray, members: Optional[np.ndarray] = None):
    """Each row's int64 sum of the int64 ``values`` over its runs, for the
    rows in the boolean mask ``members`` (every row when None): two lookups
    per run in a prefix sum, O(domain + runs), and no reduce when every row
    of the class is one run.  Exact while the sums fit int64."""
    prefix = np.zeros(values.size + 1, dtype=np.int64)
    np.add.accumulate(values, out=prefix[1:])
    runs = _member_runs(hclass, members)
    sums = prefix[hclass.end[runs]] - prefix[hclass.start[runs]]
    if hclass.start.size != hclass.n_hypotheses:
        sums = np.add.reduceat(sums, np.flatnonzero(np.diff(hclass._row[runs], prepend=-1)))
    return sums


def _mismatch_counts(hclass: HypothesisClass, base: np.ndarray) -> np.ndarray:
    """Each row's int64 count of cells differing from the 0/1 row ``base``: its
    ones, plus over the row's ones +1 where ``base`` is 0 and -1 where it is 1."""
    values = 1 - 2 * base.astype(np.int64)
    return _row_sums(hclass, values) + int(np.count_nonzero(base))


def _mismatch_times(hclass: HypothesisClass, base: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``(hclass.predictions != base) @ vector``, the rows built from their
    runs one block of at most ``_BLOCK_CELLS`` cells at a time.  A
    non-negative ``vector`` leaves nothing to cancel, so a row that differs
    from ``base`` only where ``vector`` is 0 gets exactly 0.0."""
    n_h = hclass.n_hypotheses
    step = max(1, _BLOCK_CELLS // vector.size)
    out = np.empty(n_h, dtype=np.float64)
    for i in range(0, n_h, step):
        hi = min(i + step, n_h)
        np.matmul(hclass._block(i, hi) != base, vector, out=out[i:hi])
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
    """Exact population error of every hypothesis: with uniform weights and
    one flip rate ``eta``, ``eta + (1 - 2*eta) * (d / n)`` for a row that
    differs from the base labels on ``d`` of the ``n`` points (exactly
    ``d / n`` when noiseless, ``eta`` for a copy of the base row); for any
    other model one float product (``_errors_under``)."""
    _check_same_domain(hclass, model)
    eta = model._flip
    if model._uniform and eta is not None:
        d = _mismatch_counts(hclass, model.base_labels)
        return eta + (1.0 - 2.0 * eta) * (d / hclass.domain_size)
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
    ``count_zero - count_one`` over its runs of ones (``_row_sums``).  With a
    boolean ``members`` mask (a version space's), only the members' runs are
    read, and every other row gets ``+inf``, so no cut keeps it.  Exact for
    any ``total`` int64 holds: every partial sum is int64 and at most
    ``total`` in size, and the mistake counts meet one division by ``total``.
    """
    n_h, n = hclass.n_hypotheses, hclass.domain_size
    count_zero, count_one = np.asarray(count_zero), np.asarray(count_one)
    if count_zero.shape != (n,) or count_one.shape != (n,):
        raise ParameterError(f"label counts must have shape ({n},), the class's domain")
    if members is not None and np.shape(members) != (n_h,):
        raise ParameterError(f"members mask must have shape ({n_h},), one entry per hypothesis")
    ones = int(np.add.reduce(count_one))
    total = int(np.add.reduce(count_zero)) + ones
    if total == 0:
        raise ParameterError("empirical error of an empty sample is undefined")
    values = np.subtract(count_zero, count_one, dtype=np.int64)
    if members is None:
        return (_row_sums(hclass, values) + ones) / total
    members = np.asarray(members, dtype=bool)
    errs = np.full(n_h, np.inf)
    errs[members] = (_row_sums(hclass, values, members) + ones) / total
    return errs


def _coverage_region(hclass: HypothesisClass, members: np.ndarray, size: int) -> np.ndarray:
    """Boolean mask of domain points where the ``size`` rows in the boolean
    mask ``members`` are not unanimous: where the count of them predicting 1,
    a running sum of +1 at each of their runs' starts and -1 at its end, is
    neither 0 nor ``size``."""
    runs = _member_runs(hclass, members)
    n = hclass.domain_size
    count = np.bincount(hclass.start[runs], minlength=n + 1)
    count -= np.bincount(hclass.end[runs], minlength=n + 1)
    cover = np.add.accumulate(count[:n], out=count[:n])
    return (cover > 0) & (cover < size)


def disagreement_mask(hclass: HypothesisClass, space: VersionSpace) -> np.ndarray:
    """Boolean mask of domain points where the version space is not unanimous."""
    return _coverage_region(hclass, space.members, np.count_nonzero(space.members))


def disagreement_mass(model: DataModel, region: np.ndarray) -> float:
    """Probability mass of a region given as a boolean mask over the domain."""
    mask = np.asarray(region, dtype=bool)
    if mask.shape != model.weights.shape:
        raise ParameterError("region mask shape must match the domain")
    return float(np.add.reduce(model.weights[mask]))


def _range_min(lo: np.ndarray, hi: np.ndarray, values: np.ndarray, size: int, none) -> np.ndarray:
    """In each of ``size`` columns, the least ``values[i]`` over the ranges
    ``[lo[i], hi[i])`` covering it, else ``none``, which exceeds every value:
    one sparse-table pass, O(ranges + size log size).  A range of length L is
    written at level ``floor(log2 L)`` as its first and last block of that
    size, then each level is pushed into its blocks' halves.  Empty ranges
    write the no-op ``none``, a spare column keeping them in bounds."""
    length = hi - lo
    values = np.where(length > 0, values, none)
    level = np.frexp(np.maximum(length, 1))[1] - 1
    levels, width = int(level.max()) + 1, size + 1
    table = np.full(levels * width, none, dtype=values.dtype)
    at = level * np.int64(width)
    np.minimum.at(table, at + lo, values)
    np.minimum.at(table, at + hi - (np.int64(1) << level), values)
    table = table.reshape(levels, width)
    for k in range(levels - 1, 0, -1):
        half = 1 << (k - 1)
        np.minimum(table[k - 1], table[k], out=table[k - 1])
        np.minimum(table[k - 1, half:], table[k, :-half], out=table[k - 1, half:])
    return table[0, :size]


def disagreement_coefficient(hclass: HypothesisClass, model: DataModel, center: int) -> float:
    """Supremum over the realized positive radii of the disagreement mass of
    the ball around ``center`` over the radius; 0.0 if every row copies it.

    A ball's region is where ``near``, in each column the least distance of
    a row differing there from the center, is at most the radius.  A row
    differs on its runs where the center predicts 0 and on its gaps where it
    predicts 1, so ``near`` is one range-min (``_range_min``) of distances
    over the runs, in columns [0, n), and the gaps, in [n, 2n).  With uniform
    weights the distances are integer counts ``d``, and a ball's ratio is
    ``C / d``, C read from one cumulative count of ``near``.  With others a
    ball takes in every distance within ``PROB_TOL``, at one masked sum each.
    """
    _check_center(hclass, model, center)
    base = hclass.row(center)
    n = hclass.domain_size
    if model._uniform:
        d, none = _mismatch_counts(hclass, base), n + 1
    else:
        d, none = _mismatch_times(hclass, base, model.weights), np.inf
    # a row's gaps: before each run, from the previous run's end or 0, and after its last
    start, end, first = hclass.start, hclass.end, hclass.first
    before = np.roll(end, 1)
    before[first] = 0
    last = np.append(first[1:], start.size) - 1
    lo = np.concatenate((start, before + n, end[last] + n))
    hi = np.concatenate((end, start + n, np.full(first.size, 2 * n)))
    per_run = d[hclass._row]
    near = _range_min(lo, hi, np.concatenate((per_run, per_run, d)), 2 * n, none)
    near = np.where(base == 0, near[:n], near[n:])
    if model._uniform:
        # covered[r]: the columns where some row at most r away differs
        covered = np.cumsum(np.bincount(near, minlength=n + 2))
        radii = np.flatnonzero(np.bincount(d))[1:]  # the center's own d is 0
        return float((covered[radii] / radii).max(initial=0.0))
    # a ball ends just before the first distance past its radius + PROB_TOL
    radii = np.unique(d)
    after = np.searchsorted(radii, radii + PROB_TOL, side="right").tolist()
    limits, best, k = np.append(radii, np.inf), 0.0, 0
    while k < radii.size:
        if radii[k] > PROB_TOL:
            best = max(best, disagreement_mass(model, near < limits[after[k]]) / float(radii[k]))
        k = after[k]
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
    """The model distribution restricted to a region and renormalized; for
    an all-True region, the model's read-only whole-domain weights."""
    mask = np.asarray(region_mask, dtype=bool)
    if mask.shape != model.weights.shape:
        raise ParameterError("region mask shape must match the domain")
    if np.count_nonzero(mask) == mask.size:
        return model._whole_domain_weights
    w = model.weights * mask
    mass = float(np.add.reduce(w))
    if mass <= PROB_TOL:
        raise ZeroMassRegionError("conditional distribution over a zero-mass region")
    w /= mass
    return w


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
    w = conditional_weights(model, region)
    counters.labels += k
    counts = rng.multinomial(k, w)
    certain = model._certain_ones
    if certain is None:
        ones = rng.binomial(counts, model.label_one_probabilities())
    else:
        ones = counts * certain
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
    # hypothesis t is the run [t - 1, n); the last, all zeros, the empty run
    start, end = np.arange(n + 1), np.full(n + 1, n)
    start[n] = end[n] = 0
    return HypothesisClass(start, end, np.arange(n + 1), n)


def intervals(n: int) -> HypothesisClass:
    """Interval rules on an ordered domain: 1 inside [a, b], plus the empty rule."""
    if n < 1:
        raise ParameterError("domain size must be positive")
    _check_class_cells(n * (n + 1) // 2 + 1, n)
    # the empty rule is the run [0, 0), then [a, b] (0-based, b >= a) is [a, b + 1)
    a, b = np.triu_indices(n)
    start, end = np.insert(a, 0, 0), np.insert(b + 1, 0, 0)
    return HypothesisClass(start, end, np.arange(a.size + 1), n)


def worst_case(n: int) -> HypothesisClass:
    """A class whose disagreement coefficient at the target equals ``n`` exactly.

    One target (all zeros) plus n hypotheses that each flip a single distinct
    point; under uniform weights every wrong hypothesis sits at distance 1/n
    and the ball at that radius disagrees on the whole domain.
    """
    if n < 1:
        raise ParameterError("construction size must be positive")
    _check_class_cells(n + 1, n)
    # flip i (row i) is the run [i - 1, i); the target is the empty run [0, 0)
    start, end = np.arange(-1, n), np.arange(n + 1)
    start[0] = 0
    return HypothesisClass(start, end, np.arange(n + 1), n)


def explicit(matrix) -> HypothesisClass:
    """A class given as a 0/1 matrix, one row per hypothesis, checked before
    any cast (``_zero_one``) and read into runs once."""
    pred = _zero_one(matrix, "predictions")
    if pred.ndim != 2 or pred.shape[0] == 0 or pred.shape[1] == 0:
        raise ParameterError("predictions must be a nonempty 2d matrix")
    n_h, n = pred.shape
    # with a 0 on either side, a row's changes alternate between the first
    # column of a run and the column just past it
    steps = np.diff(pred.view(bool), axis=1, prepend=False, append=False)
    row, col = np.divmod(np.flatnonzero(steps), n + 1)
    per_row = np.bincount(row[::2], minlength=n_h)
    # a row of zeros gets the one empty run [0, 0)
    at = np.searchsorted(row[::2], np.flatnonzero(per_row == 0))
    start, end = np.insert(col[::2], at, 0), np.insert(col[1::2], at, 0)
    per_row = np.maximum(per_row, 1)
    return HypothesisClass(start, end, np.cumsum(per_row) - per_row, n)
