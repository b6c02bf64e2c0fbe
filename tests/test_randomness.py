"""Shared-randomness stream: determinism, independence, distribution checks."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import ralearn as ra


def test_same_seed_label_counter_reproduces_value():
    a = ra.RandomString("deadbeef")
    b = ra.RandomString("deadbeef")
    seq_a = [a.derive_uniform("x") for _ in range(10)]
    seq_b = [b.derive_uniform("x") for _ in range(10)]
    assert seq_a == seq_b


def test_bytes_and_hex_seed_agree():
    a = ra.RandomString("0a1b2c")
    b = ra.RandomString(bytes.fromhex("0a1b2c"))
    assert a.derive_uniform("q") == b.derive_uniform("q")
    assert a.seed_hex == b.seed_hex == "0a1b2c"


def test_hex_prefix_is_accepted():
    a = ra.RandomString("0xAB")
    b = ra.RandomString("ab")
    assert a.derive_uniform("q") == b.derive_uniform("q")


def test_odd_length_hex_is_left_padded():
    a = ra.RandomString("abc")
    b = ra.RandomString("0x0ABC")
    assert a.derive_uniform("q") == b.derive_uniform("q")
    assert a.seed_hex == b.seed_hex == "0abc"


def test_bad_seeds_rejected():
    with pytest.raises(ra.ParameterError):
        ra.RandomString("zz")
    with pytest.raises(ra.ParameterError):
        ra.RandomString("")
    with pytest.raises(ra.ParameterError):
        ra.RandomString(123)  # type: ignore[arg-type]


def test_labels_do_not_interfere():
    """Consuming one label never shifts another label's stream."""
    a = ra.RandomString("07")
    b = ra.RandomString("07")
    for _ in range(5):
        a.derive_uniform("noise")
    assert a.derive_uniform("signal") == b.derive_uniform("signal")


def test_clone_preserves_counters():
    a = ra.RandomString("1234")
    a.derive_uniform("x")
    c = a.clone()
    assert c.draws_made("x") == 1
    assert c.derive_uniform("x") == a.derive_uniform("x")


def test_clone_is_isolated_after_copy():
    a = ra.RandomString("1234")
    c = a.clone()
    c.derive_uniform("x")
    assert a.draws_made("x") == 0


def test_spawn_gives_distinct_stream():
    a = ra.RandomString("55")
    child1 = a.spawn("pair/0")
    child2 = a.spawn("pair/1")
    again = a.spawn("pair/0")
    assert child1.derive_uniform("u") == again.derive_uniform("u")
    assert child1.seed_hex != child2.seed_hex
    vals = {a.derive_uniform("u"), child1.derive_uniform("u"), child2.derive_uniform("u")}
    assert len(vals) == 3


def test_draws_made_counts_consumption():
    a = ra.RandomString("9f")
    assert a.draws_made("k") == 0
    a.derive_uniform("k")
    a.derive_uniform("k")
    assert a.draws_made("k") == 2


def test_uniform_range():
    a = ra.RandomString("31")
    vals = [a.derive_uniform("r") for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)


def test_uniformity_ks():
    a = ra.RandomString("c0ffee")
    vals = np.array([a.derive_uniform("ks") for _ in range(100_000)])
    stat = stats.kstest(vals, "uniform")
    assert stat.pvalue > 0.01


def test_choice_chi_square_n7():
    a = ra.RandomString("77")
    draws = np.array([a.derive_choice("c", 7) for _ in range(100_000)])
    counts = np.bincount(draws, minlength=7)
    assert counts.sum() == 100_000
    res = stats.chisquare(counts)
    assert res.pvalue > 0.01


def test_choice_bounds_and_errors():
    a = ra.RandomString("01")
    assert a.derive_choice("one", 1) == 0
    assert all(0 <= a.derive_choice("c5", 5) < 5 for _ in range(200))
    with pytest.raises(ra.ParameterError):
        a.derive_choice("bad", 0)
    # every 64-bit block is accepted at 2**64
    assert 0 <= a.derive_choice("wide", 2**64) < 2**64


def test_choice_past_two_to_the_64_is_refused_in_a_child_process():
    # above 2**64 no 64-bit block could be accepted, and the draw once spun
    # forever; a child process with a timeout turns a hang into a failure
    code = (
        "import ralearn as ra\n"
        "rs = ra.RandomString('01')\n"
        "try:\n"
        "    rs.derive_choice('wider', 2**64 + 1)\n"
        "except ra.ParameterError:\n"
        "    print(rs.draws_made('wider'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_two_labels_decorrelated():
    a = ra.RandomString("abcd")
    x = np.array([a.derive_uniform("first") for _ in range(100_000)])
    y = np.array([a.derive_uniform("second") for _ in range(100_000)])
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r) < 0.02


def test_permutation_trivial_sizes():
    a = ra.RandomString("02")
    assert a.derive_permutation("p", 0).tolist() == []
    assert a.derive_permutation("p", 1).tolist() == [0]


def test_permutation_determinism():
    a = ra.RandomString("fe")
    b = ra.RandomString("fe")
    assert a.derive_permutation("p", 10).tolist() == b.derive_permutation("p", 10).tolist()


def test_permutations_of_three_equiprobable():
    a = ra.RandomString("beef")
    counts = {}
    n = 60_000
    for _ in range(n):
        key = tuple(a.derive_permutation("perm3", 3).tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expect = n / 6
    three_sigma = 3 * np.sqrt(n * (1 / 6) * (5 / 6))
    for key, c in counts.items():
        assert abs(c - expect) <= three_sigma, (key, c)


def test_rank_is_a_keyed_hash_of_label_and_item():
    a = ra.RandomString("5eed")
    a.derive_uniform("final-order")
    r = a.rank("final-order", b"\x00\x01")
    assert 0 <= r < 1 << 64
    # counter state plays no part: clones, fresh equal seeds and repeats agree
    assert a.clone().rank("final-order", b"\x00\x01") == r
    assert ra.RandomString("5eed").rank("final-order", b"\x00\x01") == r
    assert a.rank("final-order", b"\x00\x01") == r
    assert ra.RandomString("5eef").rank("final-order", b"\x00\x01") != r
    assert a.spawn("pair/0").rank("final-order", b"\x00\x01") != r
    assert a.rank("other", b"\x00\x01") != r
    assert a.rank("final-order", b"\x01\x00") != r


def test_rank_consumes_no_draws():
    a = ra.RandomString("5eed")
    b = ra.RandomString("5eed")
    a.derive_uniform("final-order")
    b.derive_uniform("final-order")
    for item in (b"", b"\x00", b"\x01\x01"):
        a.rank("final-order", item)
    assert a.draws_made("final-order") == 1
    assert a.draws_made("rank") == 0
    assert a.derive_uniform("final-order") == b.derive_uniform("final-order")


class _LiteralStream:
    """The shared string written out as plain keyed BLAKE2b calls: the key
    is the 32-byte hash of the seed bytes, block ``c`` of a label is the
    8-byte hash of ``label, 0, c`` (8 bytes little-endian), a rank the
    8-byte hash of ``"rank", 0, label, 0, item``, and a child's seed the
    32-byte hash of ``"spawn", 0, label``, as hex."""

    def __init__(self, raw: bytes):
        self.key = hashlib.blake2b(raw, digest_size=32).digest()
        self.counters = {}

    def block(self, label):
        c = self.counters.get(label, 0)
        self.counters[label] = c + 1
        msg = label.encode() + b"\x00" + c.to_bytes(8, "little")
        return int.from_bytes(hashlib.blake2b(msg, key=self.key, digest_size=8).digest(), "big")

    def uniform(self, label):
        return (self.block(label) >> 11) / 2.0**53

    def choice(self, label, n):
        limit = 2**64 - 2**64 % n
        while True:
            x = self.block(label)
            if x < limit:
                return x % n

    def rank(self, label, item):
        msg = b"rank\x00" + label.encode() + b"\x00" + item
        return int.from_bytes(hashlib.blake2b(msg, key=self.key, digest_size=8).digest(), "big")

    def spawn(self, label):
        msg = b"spawn\x00" + label.encode()
        child = hashlib.blake2b(msg, key=self.key, digest_size=32).hexdigest()
        return _LiteralStream(bytes.fromhex(child)), child


def _agree_with_literal(rs, lit, labels=("grid-origin", "grid-index", "region-estimate-0")):
    for label in labels:
        for _ in range(3):
            assert rs.derive_uniform(label) == lit.uniform(label)
        # 3 * 2**62 rejects about a quarter of the blocks, so both paths run
        for n in (1, 7, 1177, 3 * 2**62, 2**64):
            assert rs.derive_choice(label, n) == lit.choice(label, n)
        for item in (b"", b"\x00\x01", bytes(range(48))):
            assert rs.rank(label, item) == lit.rank(label, item)
    for label in labels:
        assert rs.draws_made(label) == lit.counters[label]


@pytest.mark.parametrize("seed", ["08", "0x5EED", "abc", bytes(range(40))])
def test_stream_matches_a_literal_blake2b_construction(seed):
    raw = seed if isinstance(seed, bytes) else bytes.fromhex(ra.RandomString(seed).seed_hex)
    rs, lit = ra.RandomString(seed), _LiteralStream(raw)
    _agree_with_literal(rs, lit)
    # a clone carries the counters on and then runs apart from its parent
    clone = rs.clone()
    lit_clone = _LiteralStream(raw)
    lit_clone.counters = dict(lit.counters)
    _agree_with_literal(clone, lit_clone)
    _agree_with_literal(rs, lit)
    # a child starts fresh under its own key, from a clone as from the parent
    for parent in (rs, clone):
        for label in ("pair/0", "pair/17", "sweep/cal/0/3"):
            child = parent.spawn(label)
            lit_child, child_hex = lit.spawn(label)
            assert child.seed_hex == child_hex
            assert child.draws_made("grid-origin") == 0
            _agree_with_literal(child, lit_child)
            _agree_with_literal(child.spawn("pair/1"), lit_child.spawn("pair/1")[0])


def test_stream_values_are_pinned():
    rs = ra.RandomString("08").spawn("pair/0")
    assert rs.seed_hex == "49361d31a44fb3408583f2489de015ffdfd24c375c3b5d394ee5961e1f880637"
    assert [rs.derive_uniform("grid-origin") for _ in range(2)] == [
        0.049149529067269326, 0.3006185797564288
    ]
    assert rs.derive_choice("grid-index", 1177) == 274
    assert rs.rank("final-order", b"\x00\x01") == 7190853738463641323
