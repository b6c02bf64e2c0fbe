"""Host-speed calibration for the timed benchmark runs.

The benchmark runs on a few vCPUs of a shared host, and such a host runs the
same code at speeds up to about 1.6 times apart, switching within seconds and
for minutes at a time.  Medians over a run do not remove that.  So a fixed
calibration kernel is timed between units of work, and each unit's time is
scaled by how long the kernel took around it:

    scaled = seconds * REFERENCE_S / (median kernel time near the unit)

A scaled time reads as the time the unit would take on a host where the
kernel takes ``REFERENCE_S``.  The kernel is the benchmark's own code, so a
change to the library moves the scaled times and never the kernel.  The raw
times are kept too, and each run prints them beside the scaled ones.
"""
from __future__ import annotations

import bisect
import hashlib
import statistics
from time import perf_counter

import numpy as np

# One kernel per kind of work, since a host slowdown hits each kind by its
# own factor; each workload is scaled by the kernel doing its kind of work.
# REFERENCE_S is a round figure near each kernel's median on a 2-vCPU KVM
# guest (Xeon, Python 3.11, one BLAS thread).
REFERENCE_S = {"interpreter": 0.002, "hashing": 0.001, "matrix": 0.001}
NEAREST = 9  # the kernel samples nearest a unit in time scale it
_KEY = bytes(32)


class HostSpeed:
    """Kernel samples taken during a run, and the scaling they give."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        self._kernel = getattr(self, "_" + kind)
        self._bits = (rng.random((1024, 1024)) < 0.5).astype(np.uint8)
        self._floats = np.empty((512, 1024))
        self._vector = rng.random(1024)
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _interpreter(self) -> None:
        """A Python loop, additions of 1024-point rows, and a memory-bound copy
        into a reused buffer with a matrix-vector product: geometry."""
        total = 0
        for i in range(4000):
            total += i * i
        ones = np.zeros(1024, dtype=np.int64)
        for row in self._bits[:300]:
            ones += row
        np.copyto(self._floats, self._bits[:512])
        self._floats @ self._vector

    def _hashing(self) -> None:
        """A Python loop, row additions, and keyed blake2b digests kept in a
        dict: the shared random string and the final pick."""
        total = 0
        for i in range(2000):
            total += i * i
        ones = np.zeros(1024, dtype=np.int64)
        for row in self._bits[:200]:
            ones += row
        seen = {}
        for i in range(300):
            seen[hashlib.blake2b(i.to_bytes(8, "little"), key=_KEY, digest_size=8).digest()] = i

    def _matrix(self) -> None:
        """A 1024x1024 uint8-to-float64 copy into fresh memory and a
        matrix-vector product: whole-matrix elimination."""
        self._bits.astype(np.float64) @ self._vector

    def sample(self, times: int = 1) -> None:
        """Time the kernel ``times`` times in a row."""
        for _ in range(times):
            t0 = perf_counter()
            self._kernel()
            self.starts.append(t0)
            self.seconds.append(perf_counter() - t0)

    def factor(self, at: float) -> float:
        """REFERENCE_S over the median of the kernel samples nearest ``at``."""
        mid = bisect.bisect_left(self.starts, at)
        lo = max(0, min(mid - NEAREST // 2, len(self.starts) - NEAREST))
        return REFERENCE_S[self.kind] / statistics.median(self.seconds[lo:lo + NEAREST])

    def scale(self, timings: list[tuple[float, float]]) -> list[float]:
        """Scaled seconds of ``(start, seconds)`` units, each at its midpoint."""
        return [s * self.factor(t + s / 2) for t, s in timings]

    def describe(self) -> str:
        q = statistics.quantiles(self.seconds, n=4)
        return (f"host speed: {len(self.seconds)} {self.kind} kernel samples, median "
                f"{1000 * q[1]:.3f} ms, quartiles {1000 * q[0]:.3f}-{1000 * q[2]:.3f} ms; "
                f"times are scaled to a kernel of {1000 * REFERENCE_S[self.kind]:g} ms")
