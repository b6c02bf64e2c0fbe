"""Command-line interface: exit codes, output formats, config plumbing."""

import json
import subprocess
import sys

import pytest

from ralearn.cli import main
from ralearn.harness import SWEEP_COLUMNS
from ralearn.rstat import exact_agreement_probability


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theta_worst_case_exact(capsys):
    code, out, _ = run_cli(capsys, ["theta", "--class", "worst_case", "--domain-size", "16"])
    assert code == 0
    assert "theta=16" in out
    assert "nu=0" in out


def test_theta_json_format(capsys):
    code, out, _ = run_cli(
        capsys, ["theta", "--class", "thresholds", "--domain-size", "8", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class_size"] == 9
    assert payload["domain_size"] == 8
    assert payload["theta"] == 2.0


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


def test_runtime_failure_maps_to_exit_4(capsys):
    # untuned round-slack constants stall elimination on this problem; the
    # round cap fires and must surface as the runtime exit code
    code, _, err = run_cli(
        capsys,
        [
            "run", "--algo", "a2", "--class", "thresholds", "--domain-size", "128",
            "--target", "128", "--nu", "0.05", "--epsilon", "0.1", "--delta", "0.1",
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
    assert "final-estimate-zero" in payload["flags"]
    assert "final-region-zero-mass" in payload["flags"]
    final = payload["trace"][-1]
    assert final["slack"] is None
    assert final["threshold"] is not None


_PROBLEM = ["--class", "thresholds", "--domain-size", "16"]
_QUICK = [*_PROBLEM, "--epsilon", "0.2", "--delta", "0.1"]


@pytest.mark.parametrize("command", ["run", "pair"])
def test_nan_theta_is_parameter_error(capsys, command):
    code, out, err = run_cli(
        capsys, [command, *_QUICK, "--algo", "replical", "--rho", "0.3", "--theta", "nan"]
    )
    assert code == 3
    assert out == ""
    assert "theta" in err


def test_infinite_theta_is_parameter_error(capsys):
    code, out, err = run_cli(capsys, ["theta", *_PROBLEM, "--theta", "inf", "--format", "json"])
    assert code == 3
    assert out == ""
    assert "theta" in err


def test_negative_theta_is_parameter_error(capsys):
    code, out, err = run_cli(capsys, ["run", *_QUICK, "--algo", "cal", "--theta", "-3"])
    assert code == 3
    assert out == ""
    assert "theta" in err


def test_infinite_micro_spacing_is_parameter_error(capsys):
    code, out, err = run_cli(
        capsys, ["gridcheck", "--micro-k", "5", "--micro-spacing", "inf", "--format", "json"]
    )
    assert code == 3
    assert out == ""
    assert "spacing" in err


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
    code, out, _ = run_cli(
        capsys,
        [
            "pair", "--algo", "cal", "--epsilon", "0.2",
            "--trials", "2", "--identical-sides",
        ],
    )
    assert code == 0
    assert "agreement_rate=1.0" in out


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


def test_gridcheck_micro_oracle(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "gridcheck", "--micro-k", "4", "--micro-p", "0.5",
            "--micro-spacing", "0.25", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_agreement_probability"] == pytest.approx(
        exact_agreement_probability(4, 0.5, 0.25)
    )


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


def test_config_file_with_flag_override(capsys, tmp_path):
    doc = {
        "algo": "cal",
        "epsilon": 0.2,
        "delta": 0.2,
        "trials": 5,
        "identical_sides": True,
        "class": {"generator": "thresholds", "size": 8},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys,
        ["pair", "--config", str(path), "--trials", "1", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs"] == 1
    assert payload["agreement_rate"] == 1.0


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


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "geometry.txt"
    code, out, _ = run_cli(
        capsys,
        ["theta", "--class", "worst_case", "--domain-size", "4", "--out", str(path)],
    )
    assert code == 0
    assert path.read_text() == out


def test_out_dir_env_joins_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RALEARN_OUT_DIR", str(tmp_path))
    code, _, _ = run_cli(
        capsys,
        ["theta", "--class", "worst_case", "--domain-size", "4", "--out", "geometry.txt"],
    )
    assert code == 0
    assert (tmp_path / "geometry.txt").exists()


def test_out_dir_env_leaves_absolute_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RALEARN_OUT_DIR", str(tmp_path / "unused"))
    target = tmp_path / "direct.txt"
    code, _, _ = run_cli(
        capsys,
        ["theta", "--class", "worst_case", "--domain-size", "4", "--out", str(target)],
    )
    assert code == 0
    assert target.exists()


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
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "theta=4" in proc.stdout
