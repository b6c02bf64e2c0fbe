"""Fresh-interpreter side of the cli-pair workload.

    python3 bench/cli_child.py import
        prints the seconds one cold ``import ralearn.cli`` takes
    python3 bench/cli_child.py trace OUT.json ARG...
        times the imports of numpy, jsonschema and ralearn.cli in that order,
        runs ``ralearn.cli.main(ARG...)`` with the span recorder installed,
        writes the import times and spans to OUT.json, and exits with the
        command's exit code

The parent puts the repository's ``src`` on PYTHONPATH.  Only ``sys`` and
``time`` are imported before the timed imports.
"""
import sys
import time


def main() -> int:
    mode = sys.argv[1]
    if mode == "import":
        t0 = time.perf_counter()
        import ralearn.cli  # noqa: F401

        print(repr(time.perf_counter() - t0))
        return 0
    if mode != "trace":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    out, argv = sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import jsonschema  # noqa: F401

    t2 = time.perf_counter()
    import ralearn.cli

    t3 = time.perf_counter()
    import json

    import spans

    rec = spans.Recorder()
    rec.install_library()
    try:
        code = rec.timed("cli.main", ralearn.cli.main)(argv)
    finally:
        rec.restore()
    sys.stdout.flush()
    doc = rec.to_jsonable()
    doc["imports"] = {"numpy": t1 - t0, "jsonschema": t2 - t1, "ralearn": t3 - t2}
    with open(out, "w") as f:
        json.dump(doc, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
