"""Shared internal randomness for paired algorithm runs.

A :class:`RandomString` is a deterministic stream of random values derived
from a seed by keyed BLAKE2b hashing in counter mode.  Values are addressed
by a string label; each label owns an independent sub-stream with its own
counter, so two runs that consume labels in different orders still agree on
the values of every label they share.  That property is what lets a pair of
runs with the same seed make identical internal choices (grid origin, grid
index, rounding offsets) while their data-facing randomness stays
independent.  :meth:`RandomString.rank` gives the other kind of shared
choice: a keyed hash of an item, so a set's minimum under it (the final
pick among survivors) is the same on both runs wherever their sets agree.

Data randomness must never come from a RandomString; use a per-run numpy
Generator for anything sample-shaped.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .core import ParameterError

_TWO53 = float(1 << 53)
_TWO64 = 1 << 64

# derive_choice draws from 64-bit blocks, so it chooses among at most this many
MAX_CHOICE = _TWO64


class RandomString:
    """Cloneable label-addressed random stream with a fixed-width key.

    The seed's bytes are hashed to a 32-byte key, and the keyed BLAKE2b
    state of that key is made once (``_keyed``, shared by clones, never
    updated): each block and each rank hashes its message into a copy of
    it, which gives the digest of ``blake2b(msg, key=key, digest_size=8)``
    without hashing the key's block again.
    """

    __slots__ = ("_hex", "_key", "_keyed", "_counters")

    def __init__(self, seed: str | bytes):
        if isinstance(seed, str):
            s = seed.lower().removeprefix("0x")
            # odd-length hex is read left-padded with 0, as int(s, 16) reads it
            s = "0" * (len(s) % 2) + s
            try:
                raw = bytes.fromhex(s)
            except ValueError as exc:
                raise ParameterError(f"seed must be a hex string: {seed!r}") from exc
        elif isinstance(seed, bytes):
            raw, s = seed, seed.hex()
        else:
            raise ParameterError(f"seed must be hex text or bytes, got {type(seed).__name__}")
        if not raw:
            raise ParameterError("seed must be nonempty")
        self._hex = s
        # normalize any seed length to a fixed-width key
        self._key = hashlib.blake2b(raw, digest_size=32).digest()
        self._keyed = hashlib.blake2b(key=self._key, digest_size=8)
        self._counters: dict[str, int] = {}

    @property
    def seed_hex(self) -> str:
        """The seed as given, for echoing into reports and replaying runs."""
        return self._hex

    def clone(self) -> "RandomString":
        """Copy of this stream, including per-label counter state."""
        fresh = object.__new__(RandomString)
        fresh._hex = self._hex
        fresh._key = self._key
        fresh._keyed = self._keyed
        fresh._counters = dict(self._counters)
        return fresh

    def spawn(self, label: str) -> "RandomString":
        """A child stream with an independent key derived from ``label``: its
        seed is the 32-byte keyed hash of ``"spawn", 0, label``."""
        child = hashlib.blake2b(b"spawn\x00" + label.encode(), key=self._key, digest_size=32)
        return RandomString(child.digest())

    def draws_made(self, label: str) -> int:
        return self._counters.get(label, 0)

    def _next_block(self, label: str) -> bytes:
        c = self._counters.get(label, 0)
        self._counters[label] = c + 1
        h = self._keyed.copy()
        h.update(label.encode() + b"\x00" + c.to_bytes(8, "little"))
        return h.digest()

    def derive_uniform(self, label: str) -> float:
        """Next uniform draw in [0, 1) from the sub-stream ``label``."""
        x = int.from_bytes(self._next_block(label), "big") >> 11
        return x / _TWO53

    def derive_choice(self, label: str, n: int) -> int:
        """Next uniform integer in [0, n) from the sub-stream ``label``.

        Rejection sampling on 64-bit blocks keeps the choice exactly uniform;
        ``n`` above ``MAX_CHOICE`` raises ParameterError, since no block
        could be accepted.
        """
        if n < 1:
            raise ParameterError(f"choice range must be positive, got {n}")
        if n > MAX_CHOICE:
            raise ParameterError(f"choice range {n} is more than the {MAX_CHOICE} blocks can take")
        limit = _TWO64 - (_TWO64 % n)
        while True:
            x = int.from_bytes(self._next_block(label), "big")
            if x < limit:
                return x % n

    def rank(self, label: str, item: bytes) -> int:
        """Keyed 64-bit hash of ``item`` under ``label``; consumes no draws.

        The ``rank`` prefix keeps the message apart from the counter-mode
        blocks (no sub-stream is labelled "rank"), and the value depends only
        on the key, the label and the item.  Over spawned keys the ranks of
        distinct items behave as independent uniform values, so the
        minimum-rank element of a set is a uniform pick from it, and two sets
        share their minimum with probability equal to their Jaccard
        similarity (MinHash).
        """
        h = self._keyed.copy()
        h.update(b"rank\x00" + label.encode() + b"\x00" + item)
        return int.from_bytes(h.digest(), "big")

    def derive_permutation(self, label: str, n: int) -> np.ndarray:
        """Next uniform permutation of range(n) from the sub-stream ``label``."""
        if n < 0:
            raise ParameterError(f"permutation length must be nonnegative, got {n}")
        perm = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = self.derive_choice(label, i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
