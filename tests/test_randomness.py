"""Shared-randomness stream: determinism, independence, distribution checks."""

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
