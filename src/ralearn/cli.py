"""Command-line front end.

Subcommands: ``theta`` (exact geometry of a problem), ``run`` (one
algorithm execution, JSON result), ``pair`` (paired replicability trials),
``sweep`` (label complexity across accuracy targets), ``gridcheck``
(threshold-grid interval profile and badness flags, plus the exhaustive
small-sample agreement oracle).

A JSON config file is the source of truth; command-line flags override
single fields after parsing.  Exit codes: 0 success, 2 usage error,
3 parameter error, 4 algorithm runtime error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional

from .core import (
    PROB_TOL,
    ParameterError,
    Problem,
    VersionSpace,
    conditional_true_errors,
    disagreement_mask,
    true_errors,
)
from .diagnostics import bad_fraction, classify_thresholds, interval_profile
from .harness import (
    ALGORITHMS,
    GENERATORS,
    LEARNERS,
    ExperimentConfig,
    build_problem,
    data_stream,
    export,
    json_text,
    label_complexity_sweep,
    report_csv,
    run_paired_trials,
    sweep_csv,
)
from .randomness import RandomString
from .replicable import build_grid
from .rstat import exact_agreement_probability

OUTPUT_DIR_ENV = "RALEARN_OUT_DIR"


def _constant_pair(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key, _, raw = text.partition("=")
    try:
        return key.strip(), float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"constant value must be a number, got {raw!r}")


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument(
        "--class",
        dest="class_name",
        choices=GENERATORS,
        help="built-in hypothesis class generator",
    )
    p.add_argument("--domain-size", type=int, help="generator size parameter")
    p.add_argument("--target", type=int, help="index of the label-source hypothesis")
    p.add_argument(
        "--nu",
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
    p.add_argument("--theta", type=float, dest="theta_override", help="override the computed disagreement coefficient")
    p.add_argument(
        "--stream-accounting",
        action="store_true",
        default=None,
        help="charge rejection sampling to the unlabeled counter",
    )
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", help="write the primary output to this path")


def _add_algo_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algo", choices=ALGORITHMS)
    p.add_argument(
        "--epsilon",
        action="append",
        type=float,
        help="accuracy target; repeat to sweep several values",
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
    _add_problem_flags(p_theta)
    p_theta.set_defaults(handler=_cmd_theta)

    p_run = sub.add_parser("run", help="execute one algorithm, print its result as JSON")
    _add_problem_flags(p_run)
    _add_algo_flags(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_pair = sub.add_parser("pair", help="paired replicability trials")
    _add_problem_flags(p_pair)
    _add_algo_flags(p_pair)
    p_pair.add_argument("--trials", type=int, help="number of paired trials")
    p_pair.add_argument("--b-policy", choices=["per-trial", "fixed"])
    p_pair.add_argument(
        "--identical-sides",
        action="store_true",
        default=None,
        help="give both sides the same data stream (smoke test)",
    )
    p_pair.set_defaults(handler=_cmd_pair)

    p_sweep = sub.add_parser("sweep", help="label complexity across accuracy targets")
    _add_problem_flags(p_sweep)
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
    _add_problem_flags(p_grid)
    _add_algo_flags(p_grid)
    p_grid.add_argument("--micro-k", type=int, help="exhaustive agreement oracle: sample size")
    p_grid.add_argument("--micro-p", type=float, default=0.5, help="oracle success probability")
    p_grid.add_argument("--micro-spacing", type=float, default=0.05, help="oracle grid spacing")
    p_grid.set_defaults(handler=_cmd_gridcheck)
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    doc = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            doc = json.load(f)
    cfg = ExperimentConfig.from_dict(doc)
    updates: dict = {}
    for attr, field_name in (
        ("class_name", "class_name"),
        ("domain_size", "domain_size"),
        ("target", "target"),
        ("nu", "eta"),
        ("b_seed", "b_seed"),
        ("data_seed", "data_seed"),
        ("algo", "algo"),
        ("delta", "delta"),
        ("rho", "rho"),
        ("trials", "trials"),
        ("b_policy", "b_policy"),
        ("theta_override", "theta_override"),
        ("stream_accounting", "stream_accounting"),
        ("identical_sides", "identical_sides"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            updates[field_name] = value
    eps_values = getattr(args, "epsilon", None)
    if eps_values:
        updates["eps"] = float(eps_values[-1])
    if getattr(args, "constants", None):
        updates["constants"] = cfg.constants.updated(dict(args.constants))
    algos_text = getattr(args, "algos", None)
    if algos_text:
        updates["algos"] = tuple(a.strip() for a in algos_text.split(",") if a.strip())
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


def _out_path(args: argparse.Namespace) -> Optional[str]:
    path = getattr(args, "out", None)
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _fmt_number(x: float) -> str:
    return f"{x:g}"


def _problem(cfg: ExperimentConfig) -> Problem:
    return Problem(*build_problem(cfg), cfg.theta_override)


def _cmd_theta(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    problem = _problem(cfg)
    hclass, theta, nu, center = problem.hclass, problem.theta, problem.nu, problem.center
    payload = {
        "theta": theta,
        "nu": nu,
        "best_index": center,
        "class_size": hclass.n_hypotheses,
        "domain_size": hclass.domain_size,
    }
    if hclass.names is not None:
        payload["best_name"] = hclass.names[center]
    if args.format == "json":
        text = json_text(payload)
    else:
        lines = [f"theta={_fmt_number(theta)}", f"nu={_fmt_number(nu)}", f"best_index={center}"]
        if hclass.names is not None:
            lines.append(f"best_name={hclass.names[center]}")
        text = "\n".join(lines)
    print(text)
    path = _out_path(args)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    return 0


def _cmd_run(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    problem = _problem(cfg)
    shared = RandomString(cfg.b_seed)
    rng = data_stream(cfg.data_seed, 0, 0)
    result = LEARNERS[cfg.algo](problem, cfg, shared, rng)
    text = json_text(result.to_jsonable())
    print(text)
    path = _out_path(args)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    return 0


def _cmd_pair(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    report = run_paired_trials(cfg)
    if args.format == "json":
        print(json_text(report.to_jsonable()))
    elif args.format == "csv":
        sys.stdout.write(report_csv(report))
    else:
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
        print("\n".join(lines))
    path = _out_path(args)
    if path:
        export(report, path, "json" if args.format == "json" else "csv")
    return 0


def _cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    eps_values = getattr(args, "epsilon", None) or [cfg.eps]
    table = label_complexity_sweep(cfg, [float(e) for e in eps_values])
    if args.format == "json":
        print(json_text(table.to_jsonable()))
    else:
        sys.stdout.write(sweep_csv(table))
    path = _out_path(args)
    if path:
        export(table, path, "json" if args.format == "json" else "csv")
    return 0


def _cmd_gridcheck(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    if args.micro_k:
        prob = exact_agreement_probability(args.micro_k, args.micro_p, args.micro_spacing)
        payload = {
            "k": args.micro_k,
            "p": args.micro_p,
            "spacing": args.micro_spacing,
            "exact_agreement_probability": prob,
        }
        if args.format == "json":
            print(json_text(payload))
        else:
            print(
                f"k={args.micro_k} p={_fmt_number(args.micro_p)} "
                f"spacing={_fmt_number(args.micro_spacing)} "
                f"exact_agreement_probability={prob!r}"
            )
        return 0
    problem = _problem(cfg)
    hclass, model, nu = problem.hclass, problem.model, problem.nu
    phase = "agnostic-loop" if nu > PROB_TOL else "realizable"
    shared = RandomString(cfg.b_seed)
    grid = build_grid(
        problem.sizing_theta, cfg.rho, hclass.n_hypotheses, phase, shared, cfg.eps, nu,
        cfg.constants,
    )
    full = VersionSpace.full(hclass.n_hypotheses)
    mask = disagreement_mask(hclass, full)
    if mask.any():
        errs = conditional_true_errors(hclass, model, mask)
    else:
        errs = true_errors(hclass, model)
    profile = interval_profile(grid, errs)
    flags = classify_thresholds(profile, cfg.rho)
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
            "bad_fraction": bad_fraction(profile, cfg.rho),
        }
        print(json_text(payload))
    else:
        print(f"phase={phase} origin={grid.origin!r} spacing={grid.spacing!r} count={grid.count}")
        print(f"selected_index={grid.selected_index} threshold={grid.threshold!r}")
        print("slot\tthreshold\tcell_count\tbelow\tbad")
        for j in range(grid.count):
            i = j + 1
            print(
                f"{j}\t{grid.origin + (j + 1.5) * grid.spacing:.6g}\t"
                f"{profile.counts[i]}\t{profile.cumulative[i - 1]}\t"
                f"{'BAD' if flags[j] else 'ok'}"
            )
        print(f"bad_fraction={bad_fraction(profile, cfg.rho)!r}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        cfg = load_config(args)
        return args.handler(cfg, args)
    except ParameterError as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError,) as e:
        print(f"config parse error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
