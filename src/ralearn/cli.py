"""Command-line front end.

Subcommands: ``theta`` (exact geometry of a problem), ``run`` (one
algorithm execution, JSON result), ``pair`` (paired replicability trials),
``sweep`` (label complexity across accuracy targets), ``gridcheck``
(threshold-grid interval profile and badness flags).

A JSON config file is the source of truth.  Each flag given is written into
its document under the config key of the same name (``--class`` is
``class.generator``, ``--domain-size`` ``class.size``, ``--nu``
``class.eta``), so flags are validated exactly like config-file keys.
``--format`` offers only the formats a command writes.  ``--out`` saves
what was printed, except that ``pair``'s text summary saves the report CSV.
Exit codes: 0 success, 2 usage error, 3 parameter error, 4 algorithm runtime
error, a learner given labels of the wrong setting included.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .core import ParameterError, Problem, conditional_true_errors
from .harness import (
    ALGORITHMS,
    CONFIG_SCHEMA,
    GENERATORS,
    LEARNERS,
    ExperimentConfig,
    build_problem,
    data_stream,
    json_text,
    label_complexity_sweep,
    report_csv,
    run_paired_trials,
    sweep_csv,
)
from .randomness import RandomString
from .replicable import build_grid, size_schedule

# gridcheck profiles one cell and prints one line per selectable threshold,
# so it refuses a grid of more than this many (about 40 MB of text)
MAX_GRIDCHECK_THRESHOLDS = 2**20


def _constant_pair(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key, _, raw = text.partition("=")
    try:
        return key.strip(), float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"constant value must be a number, got {raw!r}")


def _add_problem_flags(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    """The flags every command takes; ``formats`` are the ones the command
    writes, the first the default."""
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument(
        "--class",
        dest="generator",
        choices=GENERATORS,
        help="built-in hypothesis class generator",
    )
    p.add_argument("--domain-size", dest="size", type=int, help="generator size parameter")
    p.add_argument("--target", type=int, help="index of the label-source hypothesis")
    p.add_argument(
        "--nu",
        dest="eta",
        type=float,
        help="constant per-point label flip rate; positive means the agnostic setting",
    )
    p.add_argument("--b-seed", help="hex seed of the shared random string")
    p.add_argument("--data-seed", help="hex seed of the data streams")
    p.add_argument(
        "--constants",
        action="append",
        type=_constant_pair,
        metavar="KEY=VAL",
        help="override a sample-size constant (repeatable)",
    )
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument(
        "--out", help="save what is printed to this path (the report CSV for pair's text)"
    )


def _add_algo_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algo", choices=ALGORITHMS)
    p.add_argument(
        "--epsilon",
        action="append",
        type=float,
        help="accuracy target (sweep: repeat it to sweep several values)",
    )
    p.add_argument("--delta", type=float, help="failure budget")
    p.add_argument("--rho", type=float, help="replicability budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ralearn",
        description="Replicable disagreement-based active learning on finite classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_theta = sub.add_parser("theta", help="print the exact problem geometry")
    _add_problem_flags(p_theta, ("text", "json"))
    p_theta.set_defaults(handler=_cmd_theta)

    p_run = sub.add_parser("run", help="execute one algorithm, print its result as JSON")
    _add_problem_flags(p_run, ("json",))
    _add_algo_flags(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_pair = sub.add_parser("pair", help="paired replicability trials")
    _add_problem_flags(p_pair, ("text", "json", "csv"))
    _add_algo_flags(p_pair)
    p_pair.add_argument("--trials", type=int, help="number of paired trials")
    p_pair.set_defaults(handler=_cmd_pair)

    p_sweep = sub.add_parser("sweep", help="label complexity across accuracy targets")
    _add_problem_flags(p_sweep, ("csv", "json"))
    _add_algo_flags(p_sweep)
    p_sweep.add_argument("--trials", type=int, help="runs per algorithm per accuracy target")
    p_sweep.add_argument(
        "--algos",
        help="comma-separated list of algorithms to sweep (default: --algo alone)",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_grid = sub.add_parser(
        "gridcheck", help="threshold-grid interval profile and badness flags"
    )
    _add_problem_flags(p_grid, ("text", "json"))
    _add_algo_flags(p_grid)
    p_grid.set_defaults(handler=_cmd_gridcheck)
    return parser


def _overlay(doc, given: dict):
    """``doc`` with ``given`` written over it, into nested objects key by key.

    A ``doc`` that is not an object is returned as it is, so the schema check
    reports it.
    """
    if not isinstance(doc, dict):
        return doc
    merged = dict(doc)
    for key, value in given.items():
        merged[key] = _overlay(doc.get(key, {}), value) if isinstance(value, dict) else value
    return merged


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's document, with each given flag written under the
    schema key its dest names, checked once by ``ExperimentConfig.from_dict``."""
    doc = {}
    if args.config:
        with open(args.config) as f:
            doc = json.load(f)
    flags = {key: value for key, value in vars(args).items() if value is not None}
    if "epsilon" in flags:
        flags["epsilon"] = flags["epsilon"][-1]
    if "constants" in flags:
        flags["constants"] = dict(flags["constants"])
    if "algos" in flags:
        flags["algos"] = [a.strip() for a in flags["algos"].split(",") if a.strip()]
    keys = CONFIG_SCHEMA["properties"]
    given = {"class": {k: flags[k] for k in keys["class"]["properties"] if k in flags}}
    given.update((k, flags[k]) for k in keys if k in flags)
    return ExperimentConfig.from_dict(_overlay(doc, given))


def _fmt_number(x: float) -> str:
    return f"{x:g}"


def _cmd_theta(cfg: ExperimentConfig, args: argparse.Namespace) -> tuple[str, str]:
    problem = Problem(*build_problem(cfg))
    hclass, theta, nu, center = problem.hclass, problem.theta, problem.nu, problem.center
    payload = {
        "theta": theta,
        "nu": nu,
        "best_index": center,
        "class_size": hclass.n_hypotheses,
        "domain_size": hclass.domain_size,
        "best_name": hclass.name(center),
    }
    if args.format == "json":
        text = json_text(payload) + "\n"
    else:
        lines = [f"theta={_fmt_number(theta)}", f"nu={_fmt_number(nu)}", f"best_index={center}"]
        text = "\n".join(lines + [f"best_name={payload['best_name']}"]) + "\n"
    return text, text


def _cmd_run(cfg: ExperimentConfig, args: argparse.Namespace) -> tuple[str, str]:
    problem = Problem(*build_problem(cfg))
    shared = RandomString(cfg.b_seed)
    rng = data_stream(cfg.data_seed, 0, 0)
    learner = LEARNERS[cfg.algo]
    result = learner.run(problem, learner.size(problem, cfg), shared, rng)
    text = json_text(result.to_jsonable()) + "\n"
    return text, text


def _cmd_pair(cfg: ExperimentConfig, args: argparse.Namespace) -> tuple[str, str]:
    report = run_paired_trials(cfg)
    if args.format == "json":
        text = json_text(report.to_jsonable()) + "\n"
        return text, text
    csv_text = report_csv(report)
    if args.format == "csv":
        return csv_text, csv_text
    lines = [
        f"algo={report.algo}",
        f"pairs={report.pairs}",
        f"agreements={report.agreements}",
        f"agreement_rate={report.agreement_rate!r}",
        f"wilson_95=[{report.wilson_low!r}, {report.wilson_high!r}]",
        f"error_mean={report.error_mean!r}",
        f"error_max={report.error_max!r}",
        f"labels_mean={report.labels_mean!r}",
        f"unlabeled_mean={report.unlabeled_mean!r}",
        f"halving_frequency={report.halving_frequency!r}",
        f"b_seed={cfg.b_seed}",
        f"data_seed={cfg.data_seed}",
    ]
    for name, count in report.failure_counts:
        lines.append(f"failures[{name}]={count}")
    # the summary is for reading; the file keeps every row
    return "\n".join(lines) + "\n", csv_text


def _cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> tuple[str, str]:
    eps_values = args.epsilon or [cfg.eps]
    table = label_complexity_sweep(cfg, eps_values)
    if args.format == "json":
        text = json_text(table.to_jsonable()) + "\n"
    else:
        text = sweep_csv(table)
    return text, text


def _cmd_gridcheck(cfg: ExperimentConfig, args: argparse.Namespace) -> tuple[str, str]:
    # imported here, so the other commands never load it
    from .diagnostics import classify_thresholds, interval_profile

    problem = Problem(*build_problem(cfg))
    hclass, model = problem.hclass, problem.model
    # the loop grid the replicable learner of the schedule's setting draws
    sched = size_schedule(
        problem.sizing_theta, cfg.eps, cfg.delta, cfg.rho, problem.nu, hclass.n_hypotheses,
        cfg.constants,
    )
    if sched.interval_count > MAX_GRIDCHECK_THRESHOLDS:
        raise ParameterError(
            f"gridcheck prints at most {MAX_GRIDCHECK_THRESHOLDS} thresholds; "
            f"rho={cfg.rho!r} gives {sched.interval_count}"
        )
    phase = "agnostic-loop" if sched.top_final > 0.0 else "realizable"
    grid = build_grid(sched.top_loop, sched.interval_count, phase, RandomString(cfg.b_seed))
    mask = problem.region
    if mask.any():
        errs = conditional_true_errors(hclass, model, mask)
    else:
        errs = problem.errors
    profile = interval_profile(grid, errs)
    flags = classify_thresholds(profile, cfg.rho)
    fraction = sum(flags) / len(flags)
    if args.format == "json":
        payload = {
            "phase": phase,
            "origin": grid.origin,
            "spacing": grid.spacing,
            "count": grid.count,
            "selected_index": grid.selected_index,
            "range_top": grid.range_top,
            "interval_counts": list(profile.counts),
            "bad_flags": list(flags),
            "bad_fraction": fraction,
        }
        text = json_text(payload) + "\n"
        return text, text
    lines = [
        f"phase={phase} origin={grid.origin!r} spacing={grid.spacing!r} count={grid.count}",
        f"selected_index={grid.selected_index} threshold={grid.threshold!r}",
        "slot\tthreshold\tcell_count\tbelow\tbad",
    ]
    for j, threshold in enumerate(grid.selectable_thresholds()):
        i = j + 1
        lines.append(
            f"{j}\t{threshold:.6g}\t"
            f"{profile.counts[i]}\t{profile.cumulative[i - 1]}\t"
            f"{'BAD' if flags[j] else 'ok'}"
        )
    lines.append(f"bad_fraction={fraction!r}")
    text = "\n".join(lines) + "\n"
    return text, text


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command: its text goes to stdout, then to ``--out`` if given."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command != "sweep" and len(getattr(args, "epsilon", None) or ()) > 1:
            parser.error("--epsilon takes one value; repeat it only under sweep")
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        cfg = load_config(args)
        shown, saved = args.handler(cfg, args)
        sys.stdout.write(shown)
        if args.out is not None:
            with open(args.out, "w") as f:
                f.write(saved)
        return 0
    except ParameterError as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        print(f"config parse error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
