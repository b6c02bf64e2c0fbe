"""Finite hypothesis classes, label models, and exact disagreement geometry.

The domain is a finite set of points carrying an explicit probability vector,
and a hypothesis class is a set of {0,1} rows over it, stored as their runs
of ones: the generators emit runs, and ``explicit`` reads a matrix's once.
A version space's disagreement region, a coverage count over its members'
runs, is a boolean mask over the domain, all False at one member; the full
class's region and its mass are computed once per problem (``Problem.region``,
``Problem.region_mass``), and the elimination loop takes each later region's
mass once, with ``disagreement_mass``, and hands the region to the labeled
sampler and the mass to ``region_hit_count``.  A ``Problem`` keeps the exact
error of every hypothesis (``Problem.errors``), the noise floor and theta,
and builds each returned or ranked row's signature once (``Problem.signature``).

Everything is finite, so errors, masses and theta are exact.  Elimination and
the geometry share one integer primitive (``_row_sums``): a row's sum of an
int64 vector over its ones, two lookups per run in a prefix sum.  Weights
are integer masses over a total D (``DataModel``), so a row's mismatch mass
M against a 0/1 row gives its distance ``M / D``, for one flip rate ``eta``
its error ``eta + (1 - 2*eta) * (M / D)``, and theta is a maximum of exact
ratios; no BLAS call is made.  Per-point flip rates and conditional errors
keep one float64 mismatch product (``_mismatch_times``).

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

# weights other than 1 / n are held as counts of 2**-53, exact in float64
_UNITS = 2**53

# the float mismatch products build rows in blocks of at most this many cells
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
        per_row = np.concatenate((first[1:], [start.size])) - first
        if first.size == 0 or first[0] != 0 or per_row.min() < 1:
            raise ParameterError("first must start at 0 and strictly increase below the run count")
        # each run ends by the next one's start, except where a row ends; an
        # empty run is allowed only as [0, 0), the one run of its row
        apart = end[:-1] <= start[1:]
        apart[first[1:] - 1] = True
        empty = np.flatnonzero(start >= end)
        lone = per_row[np.searchsorted(first, empty, side="right") - 1] == 1
        ordered = apart.all() and lone.all() and not (start[empty] | end[empty]).any()
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
        Joined from the row's stretches: on a few runs, a tenth of ``_block``.
        Built anew on every call; ``Problem.signature`` keeps one per problem."""
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
    1 | x] is 0 or 1): ``_certain_ones`` is then the read-only mask of the
    points labeled 1, else None; and the flip rate every point shares
    (``_flip``, else None).  Exact quantities read the weights as read-only
    int64 masses ``_mass`` over ``_total``: 1 each over n when every weight
    is ``1 / n``, kept as given.  Any others, which need only sum to 1 within
    1e-9, are normalized, ``w / w.sum()``, and rounded once to counts of
    2**-53 by largest remainders, each moving by less than 2**-53 (a positive
    weight keeps a unit, a zero one gets none, the largest settles the rest);
    ``weights`` is then ``_mass / _UNITS``, exact, so the geometry and both
    samplers read one distribution.  The whole domain's sampling weights are
    computed on first use and kept (``_whole_domain_weights``).
    """

    weights: np.ndarray
    base_labels: np.ndarray
    flip_rates: np.ndarray
    _label_one: np.ndarray = field(init=False, repr=False)
    _certain_ones: Optional[np.ndarray] = field(init=False, repr=False)
    _mass: np.ndarray = field(init=False, repr=False)
    _total: int = field(init=False, repr=False)
    _flip: Optional[float] = field(init=False, repr=False)

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        b = _zero_one(self.base_labels, "base labels")
        f = np.ascontiguousarray(np.asarray(self.flip_rates, dtype=np.float64))
        if w.ndim != 1 or w.shape != b.shape or w.shape != f.shape:
            raise ParameterError("weights, base_labels, flip_rates must share one 1d shape")
        if w.size == 0:
            raise ParameterError("domain must be nonempty")
        if not ((w >= 0) & (w < np.inf)).all():
            raise ParameterError("weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ParameterError("weights must sum to 1")
        # written as membership so a NaN rate is rejected too
        if not ((f >= 0) & (f <= 1)).all():
            raise ParameterError("flip rates must lie in [0, 1]")
        if (w == 1.0 / w.size).all():
            mass, total = np.ones(w.size, dtype=np.int64), w.size
        else:
            # the floors of the quotas w * 2**53 (exact scalings), a unit more
            # to each largest remainder, ties to the lower index
            quota = w / w.sum() * _UNITS
            mass = np.maximum(np.floor(quota), w > 0).astype(np.int64)
            left = np.where(w > 0, quota - mass, -1.0)
            extra = min(max(_UNITS - int(mass.sum()), 0), int(np.count_nonzero(w)))
            mass[np.argsort(-left, kind="stable")[:extra]] += 1
            mass[np.argmax(mass)] += _UNITS - int(mass.sum())
            w, total = mass / _UNITS, _UNITS
        bf = b.astype(np.float64)
        p1 = bf * (1.0 - f) + (1.0 - bf) * f
        for name, arr in (
            ("weights", w), ("base_labels", b), ("flip_rates", f), ("_label_one", p1), ("_mass", mass)
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        sure = p1 == 1.0
        sure.setflags(write=False)
        object.__setattr__(self, "_certain_ones", sure if (sure | (p1 == 0.0)).all() else None)
        object.__setattr__(self, "_total", total)
        object.__setattr__(self, "_flip", float(f[0]) if (f == f[0]).all() else None)

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
        """Read-only sampling weights of the whole domain, the weights over
        their sum; ``conditional_weights`` returns them for an all-True region."""
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


def _mismatch_masses(hclass: HypothesisClass, model: DataModel, base: np.ndarray) -> np.ndarray:
    """Each row's int64 mass of the cells where it differs from the 0/1 row
    ``base``: the mass of ``base``'s ones, plus over the row's ones the
    mass where ``base`` is 0, less the mass where it is 1."""
    ones = model._mass * base
    return _row_sums(hclass, model._mass - 2 * ones) + int(np.add.reduce(ones))


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


def true_errors(
    hclass: HypothesisClass, model: DataModel, masses: Optional[np.ndarray] = None
) -> np.ndarray:
    """Exact population error of every hypothesis: with one flip rate
    ``eta``, ``eta + (1 - 2*eta) * (M / D)``, ``M`` a row's mismatch mass
    against the base labels (``masses`` when given) of the model's total
    ``D``; with per-point flip rates one float product (``_errors_under``)."""
    _check_same_domain(hclass, model)
    eta = model._flip
    if eta is None:
        return _errors_under(hclass, model, model.weights)
    masses = _mismatch_masses(hclass, model, model.base_labels) if masses is None else masses
    return eta + (1.0 - 2.0 * eta) * (masses / model._total)


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
    neither 0 nor ``size``.  One row is unanimous everywhere, so ``size`` 1
    gives all False with no pass over the runs."""
    n = hclass.domain_size
    if size == 1:
        return np.zeros(n, dtype=bool)
    runs = _member_runs(hclass, members)
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


def _range_min(lo: np.ndarray, length: np.ndarray, values: np.ndarray, size: int, none) -> np.ndarray:
    """In each of ``size`` columns, the least ``values[i]`` over the ranges
    ``[lo[i], lo[i] + length[i])`` covering it, else ``none``, which exceeds
    every value: one sparse-table pass, O(ranges + size log size).  Empty
    ranges are dropped.  A range of length L is written at level
    ``k = floor(log2 L)`` as its first and last block of length ``2**k``,
    placed by two per-length tables, then each level is pushed into its
    blocks' halves."""
    kept = np.flatnonzero(length > 0)
    lo, length, values = lo[kept], length[kept], values[kept]
    top = int(length.max(initial=1))
    levels = top.bit_length()
    # by length L at level k: the first block's place in the flat table less
    # the range's start, k * size, and the last block's, k * size + L - 2**k
    block = 1 << np.arange(levels)
    per_level = np.minimum(block, top + 1 - block)
    per_level[0] += 1  # L = 0, never read
    row = np.arange(0, levels * size, size)
    head, tail = row.repeat(per_level), (row - block).repeat(per_level)
    tail += np.arange(top + 1)
    table = np.full(levels * size, none, dtype=values.dtype)
    at = head[length]
    at += lo
    np.minimum.at(table, at, values)
    at = tail[length]
    at += lo
    np.minimum.at(table, at, values)
    table = table.reshape(levels, size)
    for k in range(levels - 1, 0, -1):
        half = 1 << (k - 1)
        np.minimum(table[k - 1], table[k], out=table[k - 1])
        np.minimum(table[k - 1, half:], table[k, :-half], out=table[k - 1, half:])
    return table[0]


def disagreement_coefficient(
    hclass: HypothesisClass, model: DataModel, center: int, masses: Optional[np.ndarray] = None
) -> float:
    """Supremum over the realized positive radii of the disagreement mass of
    the ball around ``center`` over the radius; 0.0 if every row copies it
    up to zero-mass points.

    Distances are mismatch masses against the center's row; ``masses``,
    those against the base labels (``true_errors``'s), serve when the
    center's is 0.  A row differs from the center only on its runs where the
    center is 0 and its gaps where it is 1, so ``near``, each column's least
    distance of a row differing there, is one range-min (``_range_min``)
    over the columns ranked within their kind, the center's 1-columns first,
    by one prefix count of its ones: a gap's range is its 1-columns, a run's
    its 0-columns.  The table holds the distances when the total is below
    the row count, else their ranks, in the narrowest unsigned integer that
    fits; a ball's ratio ``C / d``, C its cumulative mass over ``near``, is
    one exact division, and no radii are merged.
    """
    _check_same_domain(hclass, model)
    if not 0 <= center < hclass.n_hypotheses:
        raise ParameterError(f"center index {center} out of range")
    if masses is not None and masses[center] == 0:
        base, d = model.base_labels, masses
    else:
        base = hclass.row(center)
        d = _mismatch_masses(hclass, model, base)
    n = hclass.domain_size
    start, end, first = hclass.start, hclass.end, hclass.first
    # ones[x]: the center's ones before column x, so a 1-column x ranks
    # ones[x] and a 0-column ranks n_ones + x - ones[x]
    ones = np.zeros(n + 1, dtype=np.int64)
    np.add.accumulate(base, out=ones[1:])
    n_ones, ones_start, ones_end = int(ones[n]), ones[start], ones[end]
    # the ranges, in place: each run's 0-columns, then the 1-column gaps before
    # each run (from the previous run's end or 0) and after each row's last run
    runs = start.size
    lo, length = np.empty((2, 2 * runs + first.size), dtype=np.int64)
    zeros_start = start - ones_start
    np.add(zeros_start, n_ones, out=lo[:runs])
    np.subtract(end - ones_end, zeros_start, out=length[:runs])
    before, last_end = lo[runs : 2 * runs], lo[2 * runs :]
    before[1:] = ones_end[:-1]
    last_end[:-1] = before[first[1:]]
    last_end[-1] = ones_end[-1]
    before[first] = 0
    np.subtract(ones_start, before, out=length[runs : 2 * runs])
    np.subtract(n_ones, last_end, out=length[2 * runs :])
    # radii: the distinct positive distances; key: each row's, at: each radius's
    if model._total < d.size:
        # the distances key themselves: counting total + 1 bins beats a sort
        radii, none = np.flatnonzero(np.bincount(d))[1:], model._total + 1
        key, at = d.astype(np.min_scalar_type(none)), radii
    else:
        # each row keyed by its distance's rank, from the center's own 0 up
        order = np.argsort(d)
        ranked = d[order]
        step = np.concatenate(([False], ranked[1:] != ranked[:-1]))
        key = np.empty(d.size, dtype=np.min_scalar_type(d.size))
        key[order] = np.cumsum(step, dtype=key.dtype)
        radii, none, at = ranked[step], d.size, np.arange(1, np.count_nonzero(step) + 1)
    per_run = key if runs == first.size else key[hclass._row]
    near = _range_min(lo, length, np.concatenate((per_run, per_run, key)), n, none)
    # covered[k]: the mass of the columns where some row at most the radius
    # keyed k away differs, float64 sums of integers to at most 2**53: exact
    on = base.view(bool)
    ranked_mass = np.concatenate((model._mass[on], model._mass[~on]))
    covered = np.cumsum(np.bincount(near, ranked_mass, minlength=none + 1))
    return float((covered[at] / radii).max(initial=0.0))


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
    coefficient at ``center``, reusing the mismatch pass of ``errors`` where
    it can; ``region`` is the disagreement region of the full class, the mask
    every learner starts from, and ``region_mass`` its ``disagreement_mass``,
    both computed on first use, so a batch whose learner never asks for them
    (``erm``) does not pay for them; ``whole_domain``
    is the all-True mask passive sampling draws through, also on first use.
    Learners and the harness take a Problem, so a batch computes these once
    instead of once per run, and a returned hypothesis's error is read from
    ``errors``.

    ``signature(h)`` memoizes each hypothesis's row bytes, built the first
    time ``h`` is asked for, and ``signature_hash(h)`` their
    ``hash_signature``, hashed only for a returned hypothesis: every result
    returning ``h`` and every final pick ranking it then shares one bytes
    object, and the results one hash string.  The memo holds one row per
    distinct hypothesis a learner returned or ranked, so never more than
    ``n_hypotheses * domain_size`` bytes, and lives as long as the Problem.
    """

    hclass: HypothesisClass
    model: DataModel
    errors: np.ndarray = field(init=False, repr=False)
    nu: float = field(init=False)
    center: int = field(init=False)
    theta: float = field(init=False)
    _signatures: dict[int, bytes] = field(init=False, repr=False, default_factory=dict)
    _hashes: dict[int, str] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        hclass, model = self.hclass, self.model
        _check_same_domain(hclass, model)
        masses = None if model._flip is None else _mismatch_masses(hclass, model, model.base_labels)
        errors = true_errors(hclass, model, masses)
        errors.setflags(write=False)
        center = int(np.argmin(errors))
        object.__setattr__(self, "errors", errors)
        object.__setattr__(self, "nu", float(errors[center]))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "theta", disagreement_coefficient(hclass, model, center, masses))

    @cached_property
    def region(self) -> np.ndarray:
        """Read-only disagreement mask of the full class."""
        mask = disagreement_mask(self.hclass, VersionSpace.full(self.hclass.n_hypotheses))
        mask.setflags(write=False)
        return mask

    @cached_property
    def region_mass(self) -> float:
        """``disagreement_mass`` of ``region``, the mass every elimination
        loop starts from."""
        return disagreement_mass(self.model, self.region)

    @cached_property
    def whole_domain(self) -> np.ndarray:
        """Read-only all-True mask over the domain."""
        mask = np.ones(self.hclass.domain_size, dtype=bool)
        mask.setflags(write=False)
        return mask

    def signature(self, h: int) -> bytes:
        """Hypothesis ``h``'s row bytes (``HypothesisClass.signature``), the
        same object on every call."""
        sig = self._signatures.get(h)
        if sig is None:
            sig = self._signatures[h] = self.hclass.signature(h)
        return sig

    def signature_hash(self, h: int) -> str:
        """``hash_signature(self.signature(h))``, the same string on every call."""
        digest = self._hashes.get(h)
        if digest is None:
            digest = self._hashes[h] = hash_signature(self.signature(h))
        return digest

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
    mass: float, m: int, rng: np.random.Generator, counters: SampleCounters
) -> int:
    """How many of ``m`` fresh unlabeled draws land in a region of the given
    probability ``mass`` (``disagreement_mass``, which its caller holds).

    Distributionally identical to drawing the points and testing membership,
    since only the count matters to the caller; the draw is a single binomial,
    and none at ``m`` 0 or ``mass`` 0, where ``binomial`` reads nothing from
    the stream either.
    """
    _check_draws(m)
    if not 0.0 <= mass <= 1.0 + PROB_TOL:
        raise ParameterError(f"region mass must lie in [0, 1], got {mass}")
    counters.unlabeled += m
    if m == 0 or mass == 0.0:
        return 0
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
    # the empty rule is the run [0, 0); then block k = 1..n holds the rules
    # [k - 1, b) for b = k..n, one per place i from at[k] on, whose end is
    # i - at[k] + k, which the empty rule's i = at[0] = k = 0 also meets
    k = np.arange(n + 1)
    size = n + 1 - k
    size[0] = 1
    at = np.cumsum(size) - size
    start = np.repeat(k - 1, size)
    start[0] = 0
    rules = int(at[n]) + 1
    return HypothesisClass(start, np.arange(rules) - np.repeat(at - k, size), np.arange(rules), n)


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
