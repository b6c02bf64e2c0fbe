"""Config fuzzer: the CLI's failure contract over random schema-valid configs.

Every command, in every format it writes, must exit 0, 3 (ParameterError) or
4 (a RuntimeError, wrong-setting learners included) on any document the
config schema accepts, print strict JSON when it succeeds in a JSON format,
and finish each config within ``TIME_BOUND`` seconds.  The documents come
from a seeded stdlib ``random`` and lean on the edges: generators and
explicit matrices, weights with zeros or that do not sum to 1, flip rates at
0, 1/2 and 1, out-of-range targets, epsilon, delta and rho near 0 and 1, and
constants at 1e-300 and 1e300.

Tier-1 runs ``FUZZ_CONFIGS`` configs of seed 0.  A wider range runs on
demand, one line per broken config::

    PYTHONPATH=src python tests/test_fuzz.py 1 40
"""

import contextlib
import io
import json
import os
import random
import signal
import sys
import tempfile
import time

from ralearn.cli import main
from ralearn.harness import ALGORITHMS, GENERATORS

FUZZ_CONFIGS = 300
# seconds one config may take: the slowest of seeds 0 to 3 takes about 0.02 s,
# and the rest is room for a loaded host
TIME_BOUND = 5.0

# (command, the formats it writes)
COMMANDS = (
    ("theta", ("text", "json")),
    ("run", ("json",)),
    ("pair", ("text", "json", "csv")),
    ("sweep", ("csv", "json")),
    ("gridcheck", ("text", "json")),
)

_TINY = (1e-300, 5e-324, 1e-12, 1e-6)
_NEAR_ONE = (1.0 - 2**-53, 0.999999, 0.99)


def _unit(r: random.Random) -> float:
    """A number in (0, 1), often at an edge."""
    pick = r.random()
    if pick < 0.2:
        return r.choice(_TINY)
    if pick < 0.3:
        return r.choice(_NEAR_ONE)
    return r.choice((0.05, 0.1, 0.2, 0.3, 0.5, r.uniform(0.001, 0.9)))


def _weights(r: random.Random, n: int) -> list:
    raw = [r.choice((0.0, 1.0, r.random(), r.randint(1, 9))) for _ in range(n)]
    if not any(raw):
        raw[r.randrange(n)] = 1.0
    pick = r.random()
    if pick < 0.1:
        return raw  # rarely sums to 1
    if pick < 0.15:
        return [1.0 / n] * r.randint(1, n + 2)  # maybe the wrong length
    total = sum(raw)
    return [x / total for x in raw]


def random_config(r: random.Random) -> dict:
    """One document CONFIG_SCHEMA accepts."""
    generator = r.choice(GENERATORS)
    cls: dict = {"generator": generator}
    if generator == "explicit":
        rows, cols = r.randint(1, 6), r.randint(1, 8)
        style = r.random()
        matrix = [
            [int(style < 0.2 or (style < 0.8 and r.random() < 0.5)) for _ in range(cols)]
            for _ in range(rows)
        ]
        if r.random() < 0.3:
            matrix.append(list(matrix[0]))
        cls["matrix"] = matrix
        n, n_h = cols, len(matrix)
    else:
        n = r.choice((1, 2, 3, r.randint(1, 40)))
        if generator == "intervals":
            n = min(n, 16)
        cls["size"] = n
        n_h = n * (n + 1) // 2 + 1 if generator == "intervals" else n + 1
    if r.random() < 0.4:
        cls["weights"] = _weights(r, n)
    if r.random() < 0.6:
        cls["target"] = r.choice((0, n_h - 1, n_h, n_h + 5, r.randrange(n_h)))
    if r.random() < 0.6:
        cls["eta"] = r.choice((0.0, 0.0, 0.5, 1.0, 1e-300, 0.01, 0.05, 0.49, r.random()))
    doc = {"class": cls, "algo": r.choice(ALGORITHMS)}
    if r.random() < 0.3:
        doc["algos"] = r.sample(ALGORITHMS, r.randint(1, len(ALGORITHMS)))
    for key in ("epsilon", "delta", "rho"):
        if r.random() < 0.9:
            doc[key] = _unit(r)
    doc["trials"] = r.randint(1, 3)
    doc["b_seed"] = r.choice(("0", "08", "0xAB", "%x" % r.getrandbits(64)))
    doc["data_seed"] = "%x" % r.getrandbits(32)
    if r.random() < 0.3:
        names = ("c_pass", "c_cal", "c_a2", "c_a2_final", "c_k1", "c_k2", "c_k3", "c_grid", "c_t")
        doc["constants"] = {
            name: r.choice((1e-300, 1e300, 0.5, 1.0, 3.0)) for name in r.sample(names, 2)
        }
    return doc


def _strict(token):
    raise ValueError(f"non-standard JSON token {token}")


class _TimeUp(Exception):
    pass


def _on_alarm(signum, frame):
    raise _TimeUp()


def check_config(doc: dict, command: str, fmt: str, path: str) -> tuple:
    """``command``'s exit code on ``doc`` (None if it did not exit) and why
    it broke the contract, or None."""
    with open(path, "w") as f:
        json.dump(doc, f)
    argv = [command, "--config", path, "--format", fmt]
    if command == "sweep" and "epsilon" in doc:
        argv += ["--epsilon", repr(doc["epsilon"]), "--epsilon", repr(min(0.5, 2 * doc["epsilon"]))]
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except _TimeUp:
        return None, f"no exit within {TIME_BOUND} s"
    except Exception as e:  # anything escaping main breaks the contract
        return None, f"{type(e).__name__} escaped: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    took = time.perf_counter() - start
    if took > TIME_BOUND:
        return code, f"took {took:.1f} s"
    if code not in (0, 3, 4):
        return code, f"exit {code}: {err.getvalue().strip()[-300:]}"
    if code == 0 and fmt == "json":
        try:
            json.loads(out.getvalue(), parse_constant=_strict)
        except ValueError as e:
            return code, f"output is not strict JSON: {e}"
    return code, None


def fuzz(seed: int, count: int):
    """Yield ``(index, command, format, doc, code, why)`` for each config,
    ``why`` None unless it broke the contract."""
    r = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        for i in range(count):
            doc = random_config(r)
            command, formats = r.choice(COMMANDS)
            fmt = r.choice(formats)
            yield (i, command, fmt, doc, *check_config(doc, command, fmt, path))


def _line(i, command, fmt, doc, why) -> str:
    return f"config {i}: {command} --format {fmt} {json.dumps(doc)}: {why}"


def test_fuzzed_configs_keep_the_failure_contract():
    runs = list(fuzz(0, FUZZ_CONFIGS))
    assert [_line(i, c, f, d, why) for i, c, f, d, _, why in runs if why is not None] == []
    # the configs reach every command and format, success and both error codes
    assert {(c, f) for _, c, f, *_ in runs} == {(c, f) for c, fs in COMMANDS for f in fs}
    assert {code for *_, code, _ in runs} == {0, 3, 4}
    docs = [d for _, _, _, d, _, _ in runs]
    assert {d["class"]["generator"] for d in docs} == set(GENERATORS)
    assert {d["algo"] for d in docs} == set(ALGORITHMS)
    assert any(0.0 in d["class"].get("weights", ()) for d in docs)
    assert {0.0, 0.5, 1.0} <= {d["class"].get("eta") for d in docs}
    assert any(1e300 in d.get("constants", {}).values() for d in docs)


if __name__ == "__main__":
    first, last = (int(a) for a in sys.argv[1:3])
    codes: dict = {}
    for seed in range(first, last):
        for i, command, fmt, doc, code, why in fuzz(seed, FUZZ_CONFIGS):
            codes[code if why is None else "broken"] = codes.get(code if why is None else "broken", 0) + 1
            if why is not None:
                print(f"seed {seed} {_line(i, command, fmt, doc, why)}", flush=True)
    print(f"seeds {first} to {last - 1}: {codes}")
    sys.exit(1 if "broken" in codes else 0)
