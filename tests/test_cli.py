import json

import numpy as np
import pytest

from daekit.cli import run


def test_analyze_bundled(tmp_path, capsys):
    code = run(["analyze", "index2_nilpotent_linear",
                "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "index=2" in out and "multiplicities=[2]" in out
    report = json.loads(
        (tmp_path / "index2_nilpotent_linear_analysis.json").read_text())
    assert report["index"] == 2
    assert report["kernel_dimension"] == 1
    assert report["multiplicities"] == [2]
    assert max(report["projector_residuals"].values()) <= 1e-8


def test_reduce_summary(tmp_path):
    code = run(["reduce", "index2_structured", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads(
        (tmp_path / "index2_structured_reduction.json").read_text())
    assert summary["approach"] == "cascade"
    assert summary["equations"] == 3
    assert summary["structure_check"]["passed"] is True


def test_simulate_blowup(tmp_path, capsys):
    code = run(["simulate", "index1_blowup", "--x0", "1",
                "--out", str(tmp_path)])
    assert code == 0
    assert "blowup_suspected" in capsys.readouterr().out
    term = json.loads(
        (tmp_path / "index1_blowup_termination.json").read_text())
    assert term["kind"] == "blowup_suspected"
    assert abs(term["t_escape_estimate"] - 1.0) <= 0.01
    csv = (tmp_path / "index1_blowup_trajectory.csv").read_text()
    assert csv.splitlines()[0] == "t,x_1,x_2,w_norm,residual"


def test_simulate_json_format(tmp_path):
    code = run(["simulate", "ode_scalar_decay", "--format", "json",
                "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(
        (tmp_path / "ode_scalar_decay_trajectory.json").read_text())
    assert data["termination"]["kind"] == "reached_tmax"


def test_certify_pass_exit_zero(tmp_path):
    assert run(["certify", "index1_stable", "--out", str(tmp_path)]) == 0
    report = json.loads(
        (tmp_path / "index1_stable_certificate.json").read_text())
    assert report["verdict"] == "hypotheses_sampled_pass"


def test_certify_violation_exit_one(tmp_path):
    # a decaying flow carrying an escape certificate: hypotheses violated
    problem = {
        "name": "decay_with_escape_cert",
        "A": [[1.0, 0.0], [0.0, 0.0]],
        "B": [[1.0, 0.0], [0.0, 1.0]],
        "field": {"registry_id": "stable_linear"},
        "initial": {"x_guess": [1.0, 0.0]},
        "certificate": {
            "kind": "blowup",
            "combination": "min",
            "V": [{"registry_id": "squared_norm"}],
            "U": {"registry_id": "power",
                  "params": {"coefficient": 2.0, "exponent": 2.0}},
            "psi": {"registry_id": "constant", "params": {"value": 1.0}},
            "R": 0.5,
            "region": {"registry_id": "halfspace",
                       "params": {"normal": [1.0, 0.0], "offset": 0.5}},
        },
    }
    path = tmp_path / "violated.json"
    path.write_text(json.dumps(problem))
    assert run(["certify", str(path), "--out", str(tmp_path)]) == 1


def test_error_exit_two(tmp_path, capsys):
    assert run(["analyze", "no_such_problem", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "A": [[1.0, 0.0]],
                               "B": [[1.0]],
                               "field": {"registry_id": "zero"}}))
    assert run(["analyze", str(bad), "--out", str(tmp_path)]) == 2


def test_sweep_summary(tmp_path):
    code = run(["sweep", "index1_blowup", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "index1_blowup_sweep.csv").read_text().splitlines()
    assert lines[0].startswith("index,x0_1,x0_2,termination")
    assert len(lines) == 4
    escapes = [float(line.split(",")[4]) for line in lines[1:]]
    np.testing.assert_allclose(escapes, [2.0, 1.0, 0.5], rtol=0.01)
    for k in range(3):
        assert (tmp_path / f"index1_blowup_run{k}.csv").exists()


@pytest.mark.parametrize("override", [["--tmax", "-1"], ["--tol", "-1"],
                                      ["--x0", "abc"]])
def test_invalid_override_exit_two(tmp_path, capsys, override):
    code = run(["simulate", "index1_blowup", "--out", str(tmp_path)]
               + override)
    assert code == 2
    assert "error: DaekitError:" in capsys.readouterr().err
    assert not (tmp_path / "index1_blowup_termination.json").exists()


@pytest.mark.parametrize("name", ["index1_stable", "index1_blowup",
                                  "index1_cubic_blowup",
                                  "ode_scalar_quadratic"])
def test_certify_report_independent_of_route(tmp_path, name):
    reports = []
    for approach in ("first", "cascade"):
        out = tmp_path / approach
        assert run(["certify", name, "--approach", approach,
                    "--out", str(out)]) == 0
        reports.append((out / f"{name}_certificate.json").read_bytes())
    assert reports[0] == reports[1]


def test_byte_identical_outputs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run(["simulate", "index1_blowup", "--x0", "1",
                    "--out", str(d)]) == 0
        assert run(["certify", "index1_stable", "--seed", "42",
                    "--out", str(d)]) == 0
        assert run(["sweep", "index1_blowup", "--out", str(d)]) == 0
    for name in ("index1_blowup_trajectory.csv",
                 "index1_blowup_termination.json",
                 "index1_stable_certificate.json",
                 "index1_blowup_sweep.csv", "index1_blowup_run0.csv",
                 "index1_blowup_run2.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
