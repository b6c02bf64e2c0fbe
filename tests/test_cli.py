"""Command-line interface: exit codes, output formats, config plumbing."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ralearn import cli, replicable
from ralearn.core import PROB_TOL
from ralearn.cli import build_parser, load_config, main
from ralearn.harness import (
    CONFIG_SCHEMA,
    SWEEP_COLUMNS,
    ExperimentConfig,
    json_text,
    report_csv,
    run_paired_trials,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theta_worst_case_exact(capsys):
    code, out, _ = run_cli(capsys, ["theta", "--class", "worst_case", "--domain-size", "16"])
    assert code == 0
    assert "theta=16" in out
    assert "nu=0" in out


def test_theta_prints_an_exact_zero_noise_floor(capsys):
    # 1/100 is inexact, yet a realizable target's error is exactly 0
    code, out, _ = run_cli(capsys, ["theta", "--class", "intervals", "--domain-size", "100"])
    assert code == 0
    assert "nu=0" in out.splitlines()


def test_theta_json_format(capsys):
    code, out, _ = run_cli(
        capsys, ["theta", "--class", "thresholds", "--domain-size", "8", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class_size"] == 9
    assert payload["domain_size"] == 8
    assert payload["theta"] == 2.0


# every class is named by its runs, so intervals keep their "[a,b]" names
@pytest.mark.parametrize(
    "flags, name",
    [
        (["--class", "thresholds"], "[5,8]"),
        (["--class", "intervals"], "[3,5]"),
        (["--class", "intervals", "--target", "0"], "empty"),
        (["--class", "intervals", "--target", "36"], "[8,8]"),
        (["--class", "worst_case"], "empty"),
        (["--class", "worst_case", "--target", "3"], "[3,3]"),
        (["--config", "explicit.json"], "[1,1]+[3,4]"),
    ],
)
def test_theta_names_the_best_hypothesis(capsys, tmp_path, monkeypatch, flags, name):
    monkeypatch.chdir(tmp_path)
    matrix = [[0, 0, 0, 0], [1, 0, 1, 1], [1, 1, 1, 1]]
    doc = {"class": {"generator": "explicit", "matrix": matrix, "target": 1}}
    (tmp_path / "explicit.json").write_text(json.dumps(doc))
    argv = ["theta", *flags] + ([] if "--config" in flags else ["--domain-size", "8"])
    code, text, _ = run_cli(capsys, argv)
    assert code == 0
    assert text.splitlines()[-1] == f"best_name={name}"
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert json.loads(out)["best_name"] == name


def test_run_smallest_domain(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "run", "--class", "thresholds", "--domain-size", "1",
            "--algo", "cal", "--epsilon", "0.2", "--delta", "0.2",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["error"] <= 0.2
    assert payload["labels_used"] >= 0


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["run", "--frobnicate"])
    assert code == 2
    assert "frobnicate" in err


def test_bad_class_choice_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["theta", "--class", "worst-case"])
    assert code == 2
    assert "invalid choice" in err


def test_malformed_constant_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["run", "--constants", "c_pass=abc"])
    assert code == 2


def test_unknown_constant_is_parameter_error(capsys):
    code, _, err = run_cli(
        capsys,
        ["run", "--algo", "erm", "--constants", "c_bogus=2"],
    )
    assert code == 3
    assert "c_bogus" in err


def test_out_of_range_epsilon_is_parameter_error(capsys):
    code, _, err = run_cli(capsys, ["run", "--algo", "cal", "--epsilon", "2.0"])
    assert code == 3
    assert "epsilon" in err


# draw counts past int64: replical's unlabeled region estimate, erm's labels
OVERSIZED_DRAWS = {
    "replical": ["--algo", "replical", "--epsilon", "1e-10", "--rho", "0.3"],
    "erm": ["--algo", "erm", "--epsilon", "1e-19"],
}
_SMALL_CLASS = ["--class", "thresholds", "--domain-size", "8"]
_SMALL_PROBLEM = [*_SMALL_CLASS, "--delta", "0.05"]


@pytest.mark.parametrize("algo", sorted(OVERSIZED_DRAWS))
def test_oversized_draw_count_is_parameter_error(capsys, algo):
    code, out, err = run_cli(capsys, ["run", *_SMALL_PROBLEM, *OVERSIZED_DRAWS[algo]])
    assert code == 3
    assert out == ""
    assert "largest drawable count" in err


@pytest.mark.parametrize("algo", sorted(OVERSIZED_DRAWS))
def test_pair_counts_oversized_draws_as_failed_sides(capsys, algo):
    argv = ["pair", *_SMALL_PROBLEM, *OVERSIZED_DRAWS[algo], "--trials", "3", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["pairs"] == 3
    assert doc["failure_counts"] == {"ParameterError": 6}


# sizes that leave the float range: a divisor underflows to 0 (rho**2,
# spacing**2), a power overflows ((nu / eps)**2), or a count comes out infinite
UNSIZABLE = {
    "replical-rho-squared": ["--algo", "replical", "--rho", "1e-300", "--delta", "1e-301"],
    "replica2-spacing-squared": [
        "--algo", "replica2", "--nu", "0.1", "--rho", "1e-150", "--delta", "1e-151"
    ],
    "a2-noise-over-eps": ["--algo", "a2", "--nu", "0.1", "--epsilon", "1e-300"],
    **{
        f"{algo}-infinite-count": [
            "--algo", algo, "--epsilon", "5e-324", "--delta", "5e-324", "--rho", "5e-324"
        ]
        for algo in ("erm", "cal", "replical")
    },
}


@pytest.mark.parametrize("case", sorted(UNSIZABLE))
def test_unsizable_run_is_parameter_error(capsys, case):
    code, out, err = run_cli(capsys, ["run", *_SMALL_CLASS, *UNSIZABLE[case]])
    assert (code, out) == (3, "")
    assert err.startswith("parameter error: no finite sample size at ")


@pytest.mark.parametrize("case", sorted(UNSIZABLE))
def test_pair_counts_unsizable_sides_as_failed(capsys, case):
    argv = ["pair", *_SMALL_CLASS, *UNSIZABLE[case], "--trials", "1"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert "failures[ParameterError]=2" in out.splitlines()


def test_unsizable_gridcheck_is_parameter_error(capsys):
    code, out, err = run_cli(capsys, ["gridcheck", "--rho", "1e-300", "--delta", "1e-301"])
    assert (code, out) == (3, "")
    assert err.startswith("parameter error: no finite sample size at ")


def test_tiny_rho_run_is_parameter_error_in_a_child_process():
    # at rho 5.2e-12 the grid has about 5e22 thresholds, more than a
    # shared-string choice can draw from; its slot draw once spun forever,
    # so a child process with a timeout turns a hang into a failure
    argv = [
        "run", "--algo", "replical", "--class", "thresholds", "--domain-size", "3",
        "--epsilon", "0.1", "--delta", "1e-300", "--rho", "5.2e-12",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "ralearn", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "rho=5.2e-12" in proc.stderr


def test_gridcheck_refuses_a_grid_it_cannot_print(capsys):
    # 2.0e14 selectable thresholds: profiling them once asked numpy for
    # 1.43 PiB and escaped as an uncounted memory error
    argv = [
        "gridcheck", "--class", "worst_case", "--domain-size", "2", "--nu", "0.05",
        "--rho", "7.4e-8", "--epsilon", "0.1", "--delta", "1e-9",
    ]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert f"at most {cli.MAX_GRIDCHECK_THRESHOLDS} thresholds" in err


def test_gridcheck_prints_a_grid_at_its_bound(capsys, monkeypatch):
    # the bound refuses only what is past it
    argv = ["gridcheck", "--class", "thresholds", "--domain-size", "16", "--rho", "0.3"]
    _, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    count = json.loads(out)["count"]
    monkeypatch.setattr(cli, "MAX_GRIDCHECK_THRESHOLDS", count)
    assert run_cli(capsys, argv)[0] == 0
    monkeypatch.setattr(cli, "MAX_GRIDCHECK_THRESHOLDS", count - 1)
    assert run_cli(capsys, argv)[0] == 3


def test_runtime_failure_maps_to_exit_4(capsys):
    # at c_a2 = 1 the round slack stalls elimination on this problem; the
    # round cap fires and must surface as the runtime exit code
    code, _, err = run_cli(
        capsys,
        [
            "run", "--algo", "a2", "--class", "thresholds", "--domain-size", "128",
            "--target", "128", "--nu", "0.05", "--epsilon", "0.1", "--delta", "0.1",
            "--constants", "c_a2=1",
        ],
    )
    assert code == 4
    assert "RoundCapExceededError" in err


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_run_replica2_zero_final_region_prints_strict_json(capsys):
    # the final region has zero mass here, so no final sample is drawn and
    # the final record has no floor to report
    code, out, _ = run_cli(
        capsys,
        [
            "run", "--algo", "replica2", "--class", "thresholds", "--domain-size", "8",
            "--nu", "0.01", "--epsilon", "0.2", "--delta", "0.1", "--rho", "0.3",
        ],
    )
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert "final-region-zero-mass" in payload["flags"]
    final = payload["trace"][-1]
    assert final["slack"] is None
    assert final["threshold"] is not None


_PROBLEM = ["--class", "thresholds", "--domain-size", "16"]


def test_oversized_class_is_parameter_error(capsys):
    # intervals(5000) would ask for about 62 GB; it is refused before any of it
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, ["theta", "--class", "intervals", "--domain-size", "5000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert "cells" in err
    assert peak < 2**20


@pytest.mark.parametrize("command", ["theta", "pair"])
def test_nan_weight_in_config_is_parameter_error(tmp_path, command):
    # json reads NaN and the schema's minimum lets it through; a NaN weight
    # once hung the geometry scan, so a child process with a timeout turns a
    # hang into a failure instead of stalling the suite
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"class": {"generator": "thresholds", "size": 4, "weights": [NaN, 0.5, 0.25, 0.25]}}'
    )
    proc = subprocess.run(
        [sys.executable, "-m", "ralearn", command, "--config", str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "weights" in proc.stderr


def test_schema_error_is_parameter_error_in_a_child_process(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"epsilon": true}')
    proc = subprocess.run(
        [sys.executable, "-m", "ralearn", "pair", "--config", str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "epsilon" in proc.stderr


def test_cli_import_leaves_jsonschema_unloaded():
    # configs are validated in-house; jsonschema is a test dependency only,
    # and diagnostics is imported by gridcheck alone
    unloaded = ("jsonschema", "ralearn.diagnostics")
    code = f"import ralearn.cli, sys; print([m in sys.modules for m in {unloaded}])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"


def test_pair_stdout_is_bit_stable(capsys):
    argv = [
        "pair", "--class", "thresholds", "--domain-size", "16",
        "--algo", "replical", "--epsilon", "0.2", "--delta", "0.1",
        "--rho", "0.3", "--trials", "2", "--format", "json",
    ]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["pairs"] == 2


def test_pair_text_format_reports_rate(capsys):
    code, out, _ = run_cli(capsys, ["pair", "--algo", "cal", "--epsilon", "0.2", "--trials", "2"])
    assert code == 0
    report = run_paired_trials(ExperimentConfig(algo="cal", eps=0.2, trials=2))
    assert f"agreement_rate={report.agreement_rate!r}\n" in out


def test_sweep_csv_header(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "sweep", "--algo", "cal", "--epsilon", "0.2", "--epsilon", "0.1",
            "--trials", "2", "--format", "csv",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3


def test_sweep_algos_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--algos", "erm,cal", "--epsilon", "0.2", "--trials", "2"],
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["erm", "cal"]


def test_gridcheck_full_profile(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "gridcheck", "--class", "thresholds", "--domain-size", "16",
            "--rho", "0.3", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["phase"] == "realizable"
    assert payload["count"] == len(payload["bad_flags"])
    assert sum(payload["interval_counts"]) == 17
    assert 0.0 <= payload["bad_fraction"] <= 1.0


@pytest.mark.parametrize("algo, noise", [("replical", []), ("replica2", ["--nu", "0.05"])])
def test_gridcheck_shows_the_grid_the_learner_draws(capsys, monkeypatch, algo, noise):
    drawn = []
    place = replicable.build_grid

    def recording(*args, **kwargs):
        drawn.append(place(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(replicable, "build_grid", recording)
    problem = [
        "--class", "intervals", "--domain-size", "12", "--rho", "0.3", "--b-seed", "5eed",
        *noise,
    ]
    code, _, err = run_cli(capsys, ["run", "--algo", algo, *problem])
    assert (code, err) == (0, "")
    loop = drawn[0]  # the loop grid; replica2 places its final grid after it
    code, out, _ = run_cli(capsys, ["gridcheck", *problem, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    shown = tuple(payload[key] for key in ("origin", "range_top", "count", "selected_index"))
    assert shown == (loop.origin, loop.range_top, loop.count, loop.selected_index)
    assert payload["phase"] == loop.phase


@pytest.mark.parametrize(
    "target, eta",
    [(16, 0.0), (16, 1e-13), (16, 0.05), (8, 0.05), (8, 0.1)],
    ids=["noiseless", "below-tolerance", "edge-noise", "centred-0.05", "centred-0.1"],
)
def test_one_setting_rule_everywhere(capsys, monkeypatch, target, eta):
    """Every learner and gridcheck read the setting by one rule: nu <= PROB_TOL
    is realizable.  A learner of the other setting exits 4 with
    WrongSettingError, and gridcheck profiles the loop grid of the replicable
    learner that accepts the problem."""
    problem = [
        "--class", "thresholds", "--domain-size", "16", "--target", str(target),
        "--nu", repr(eta), "--epsilon", "0.1", "--delta", "0.1", "--rho", "0.3",
        "--b-seed", "33",
    ]
    realizable = eta <= PROB_TOL
    accepts = {
        "erm": True, "a2": True,
        "cal": realizable, "replical": realizable, "replica2": not realizable,
    }
    drawn = []
    place = replicable.build_grid

    def recording(*args, **kwargs):
        drawn.append(place(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(replicable, "build_grid", recording)
    for algo, runs in accepts.items():
        code, out, err = run_cli(capsys, ["run", "--algo", algo, *problem])
        if runs:
            assert (code, err, json.loads(out)["algo"]) == (0, "", algo)
        else:
            assert (code, out) == (4, "") and err.startswith("WrongSettingError: ")
    # only the accepting replicable learner placed grids, its loop grid first
    assert len(drawn) == (1 if realizable else 2)
    loop = drawn[0]
    code, out, _ = run_cli(capsys, ["gridcheck", *problem, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    shown = tuple(payload[key] for key in ("origin", "range_top", "count", "selected_index"))
    assert shown == (loop.origin, loop.range_top, loop.count, loop.selected_index)
    assert payload["phase"] == loop.phase == ("realizable" if realizable else "agnostic-loop")


@pytest.mark.parametrize(
    "command, formats",
    [
        ("theta", ("text", "json")),
        ("run", ("json",)),
        ("pair", ("text", "json", "csv")),
        ("sweep", ("csv", "json")),
        ("gridcheck", ("text", "json")),
    ],
)
def test_each_command_offers_only_the_formats_it_writes(capsys, command, formats):
    parser = build_parser()
    assert parser.parse_args([command]).format == formats[0]
    for fmt in ("text", "json", "csv"):
        if fmt in formats:
            assert parser.parse_args([command, "--format", fmt]).format == fmt
        else:
            code, out, err = run_cli(capsys, [command, "--format", fmt])
            assert (code, out) == (2, "") and "invalid choice" in err


def test_config_file_with_flag_override(capsys, tmp_path):
    doc = {
        "algo": "cal",
        "epsilon": 0.2,
        "delta": 0.2,
        "trials": 5,
        "data_seed": "7f",
        "class": {"generator": "thresholds", "size": 8},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys,
        ["pair", "--config", str(path), "--trials", "1", "--format", "json"],
    )
    assert code == 0
    cfg = ExperimentConfig(
        domain_size=8, algo="cal", eps=0.2, delta=0.2, trials=1, data_seed="7f"
    )
    assert out == json_text(run_paired_trials(cfg).to_jsonable()) + "\n"
    assert json.loads(out)["pairs"] == 1


def test_flags_are_written_over_the_config_document(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "class": {"generator": "intervals", "size": 6},
                "constants": {"c_cal": 1.5},
                "algos": ["erm"],
            }
        )
    )
    argv = [
        "sweep", "--config", str(path), "--domain-size", "9", "--constants", "c_pass=2",
        "--epsilon", "0.3", "--epsilon", "0.2", "--algos", "cal, a2",
    ]
    cfg = load_config(build_parser().parse_args(argv))
    assert (cfg.class_name, cfg.domain_size) == ("intervals", 9)
    assert (cfg.constants.c_cal, cfg.constants.c_pass) == (1.5, 2.0)
    assert cfg.eps == 0.2
    assert cfg.algos == ("cal", "a2")


@pytest.mark.parametrize(
    "doc, path",
    [
        ([1, 2], "config:"),
        ({"class": "thresholds"}, "config.class:"),
        ({"constants": 4}, "config.constants:"),
    ],
)
def test_config_that_is_not_an_object_stays_a_parameter_error_under_flags(
    capsys, tmp_path, doc, path
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    argv = ["theta", "--config", str(cfg_path), "--domain-size", "4", "--constants", "c_pass=2"]
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert path in err


@pytest.mark.parametrize("flag", ["--data-seed", "--b-seed"])
@pytest.mark.parametrize("seed", ["zz", ""])
def test_non_hex_seed_flag_is_parameter_error(capsys, flag, seed):
    code, out, err = run_cli(capsys, ["pair", "--trials", "1", flag, seed])
    assert code == 3
    assert out == ""
    assert f"config.{flag[2:].replace('-', '_')}" in err


def test_odd_length_b_seed_reads_as_left_padded(capsys):
    argv = ["pair", "--trials", "1", "--format", "csv", "--b-seed"]
    code, out, err = run_cli(capsys, argv + ["abc"])
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, argv + ["0abc"])[1]


# argparse dests that are not config-document keys
CLI_ONLY = {"config", "format", "out", "command", "handler"}


@pytest.mark.parametrize("command", ["theta", "run", "pair", "sweep", "gridcheck"])
def test_every_flag_is_a_config_key_or_cli_only(command):
    # load_config writes a flag under the schema key its dest names, so a
    # dest that is neither would be dropped without a word
    keys = CONFIG_SCHEMA["properties"]
    known = set(keys) | set(keys["class"]["properties"]) | CLI_ONLY
    assert set(vars(build_parser().parse_args([command]))) <= known


@pytest.mark.parametrize(
    "argv",
    [
        ["pair", "--identical-sides"],
        ["pair", "--b-policy", "fixed"],
        ["gridcheck", "--micro-k", "4"],
        ["theta", "--theta", "2"],
        ["pair", "--stream-accounting"],
    ],
    ids=["identical-sides", "b-policy", "micro-k", "theta", "stream-accounting"],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    code, out, _ = run_cli(capsys, argv)
    assert code == 2
    assert out == ""


def test_missing_config_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["theta", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error" in err


def test_malformed_config_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["theta", "--config", str(path)])
    assert code == 2
    assert "parse" in err


def test_config_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{")
    code, _, err = run_cli(capsys, ["theta", "--config", str(path)])
    assert code == 2
    assert err.startswith("config parse error: ")


@pytest.mark.parametrize(
    "command, as_int, as_float",
    [
        ("theta", {"class": {"size": 16}}, {"class": {"size": 16.0}}),
        ("theta", {"class": {"size": 16, "target": 3}}, {"class": {"size": 16, "target": 3.0}}),
        ("pair", {"class": {"size": 8}, "trials": 2}, {"class": {"size": 8}, "trials": 2.0}),
    ],
)
def test_integer_keys_written_as_floats_read_as_integers(
    capsys, tmp_path, command, as_int, as_float
):
    outs = []
    for doc in (as_int, as_float):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, [command, "--config", str(path)])
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "geometry.txt"
    code, out, _ = run_cli(
        capsys,
        ["theta", "--class", "worst_case", "--domain-size", "4", "--out", str(path)],
    )
    assert code == 0
    assert path.read_text() == out


def test_relative_out_path_is_read_from_the_working_directory(capsys, tmp_path, monkeypatch):
    # the output path is taken as given; no environment variable moves it
    (tmp_path / "cwd").mkdir()
    (tmp_path / "env").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    monkeypatch.setenv("RALEARN_OUT_DIR", str(tmp_path / "env"))
    code, out, _ = run_cli(
        capsys,
        ["theta", "--class", "worst_case", "--domain-size", "4", "--out", "geometry.txt"],
    )
    assert code == 0
    assert (tmp_path / "cwd" / "geometry.txt").read_text() == out
    assert list((tmp_path / "env").iterdir()) == []


@pytest.mark.parametrize("where", ["empty", "missing-dir"])
def test_unopenable_out_path_is_an_io_error(capsys, tmp_path, where):
    # an empty path is a path that cannot be opened, not an absent --out
    path = "" if where == "empty" else str(tmp_path / "missing" / "saved")
    code, _, err = run_cli(capsys, ["gridcheck", "--domain-size", "8", "--out", path])
    assert code == 2
    assert "i/o error" in err


@pytest.mark.parametrize("command", ["run", "pair", "gridcheck"])
def test_repeated_epsilon_outside_sweep_is_a_usage_error(capsys, command):
    # only sweep reads more than one accuracy target, so anywhere else all
    # but one value would be dropped
    argv = [command, "--domain-size", "8", "--algo", "cal", "--epsilon", "0.3", "--epsilon", "0.2"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "sweep" in err


def test_pair_out_csv(capsys, tmp_path):
    path = tmp_path / "pairs.csv"
    code, out, _ = run_cli(
        capsys,
        [
            "pair", "--algo", "cal", "--epsilon", "0.2", "--trials", "2",
            "--format", "csv", "--out", str(path),
        ],
    )
    assert code == 0
    assert path.read_text() == out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ralearn", "theta", "--class", "worst_case", "--domain-size", "4"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "theta=4" in proc.stdout


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # thresholds(512) has 263k cells, over 2**17; with uniform weights, and
    # with random ones given through a config, the geometry is integer work,
    # so no BLAS product reaches theta, nu or an error, here or in the noisy
    # a2 batches
    problem = ["--class", "thresholds", "--domain-size", "512", "--format", "json"]
    weights = np.random.default_rng(0).dirichlet(np.ones(512)).tolist()
    doc = {"class": {"generator": "thresholds", "size": 512, "weights": weights, "target": 200}}
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(doc))
    weighted = ["--config", str(path), "--format", "json"]
    noisy = ["--algo", "a2", "--nu", "0.1", "--epsilon", "0.2", "--trials", "2"]
    commands = (
        ["theta", *problem],
        ["pair", *problem, *noisy],
        ["theta", *weighted],
        ["pair", *weighted, *noisy],
    )
    outputs = set()
    for threads in ("1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
        outputs.add(tuple(
            subprocess.run(
                [sys.executable, "-m", "ralearn", *command],
                env=env, capture_output=True, timeout=60, check=True,
            ).stdout
            for command in commands
        ))
    assert len(outputs) == 1
    theta, pair, weighted_theta, weighted_pair = outputs.pop()
    assert json.loads(theta)["theta"] == 2.0
    assert json.loads(pair)["rows"][0]["nu"] == 0.1
    assert json.loads(weighted_theta)["best_index"] == 200
    assert json.loads(weighted_pair)["rows"][0]["nu"] == 0.1


_GRIDCHECK = ["gridcheck", *_PROBLEM, "--rho", "0.3"]
_PAIR = ["pair", "--algo", "cal", "--epsilon", "0.2", "--trials", "2"]
_SWEEP = ["sweep", "--algo", "cal", "--epsilon", "0.2", "--trials", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        [*_GRIDCHECK, "--format", "text"],
        [*_GRIDCHECK, "--format", "json"],
        [*_PAIR, "--format", "json"],
        [*_SWEEP, "--format", "json"],
    ],
    ids=["gridcheck-text", "gridcheck-json", "pair-json", "sweep-json"],
)
def test_out_saves_what_was_printed(capsys, tmp_path, argv):
    path = tmp_path / "saved"
    code, out, _ = run_cli(capsys, [*argv, "--out", str(path)])
    assert code == 0
    assert out.endswith("\n")
    assert path.read_text() == out


def test_pair_text_summary_saves_the_report_csv(capsys, tmp_path):
    path = tmp_path / "pairs.csv"
    code, out, _ = run_cli(capsys, [*_PAIR, "--out", str(path)])
    assert code == 0
    assert out.startswith("algo=cal\n")
    expected = report_csv(run_paired_trials(ExperimentConfig(algo="cal", eps=0.2, trials=2)))
    assert path.read_text() == expected
