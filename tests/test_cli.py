import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import daekit
from daekit import certificates, cli
from daekit.cli import run
from hypothesis import given, settings

from daekit.problems import LoadedProblem, load_builtin
from test_problems import (_VALID_DOCUMENTS, BAD_INPUTS, NAN_START,
                           edited_builtin)


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


def test_analyze_computes_each_residual_once(tmp_path, monkeypatch):
    # the report reads the residuals of the chains' and duals' final checks
    calls = []
    for name in ("chain_residuals", "dual_residuals"):
        def counting(*args, _name=name, _inner=getattr(daekit.pencil, name)):
            calls.append(_name)
            return _inner(*args)
        monkeypatch.setattr(daekit.pencil, name, counting)
    assert run(["analyze", "index3_chain", "--out", str(tmp_path)]) == 0
    assert sorted(calls) == ["chain_residuals", "dual_residuals"]


def test_reduce_summary(tmp_path):
    code = run(["reduce", "index2_structured", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads(
        (tmp_path / "index2_structured_reduction.json").read_text())
    assert summary["approach"] == "cascade"
    assert summary["equations"] == 3
    assert summary["structure_check"]["passed"] is True


@pytest.mark.parametrize("command", ["reduce", "simulate"])
def test_cascade_route_needs_structure_tag_exit_two(tmp_path, capsys,
                                                    command):
    code = run([command, "index2_nilpotent_linear", "--approach", "cascade",
                "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: StructureViolation:" in err
    assert "structure_tag" in err and "nan" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("approach", ["cascade", "first"])
def test_singular_chain_level_exit_two(tmp_path, capsys, approach):
    # at gamma = 1 the chain level's Jacobian is exactly singular at t = 0,
    # where its residual already vanishes: Newton returns at once, and the
    # implicit derivative of the level meets the singular matrix
    data = load_builtin("index2_structured").raw
    data = dict(data, field=dict(data["field"], params={"gamma": 1.0}))
    path = tmp_path / "singular_chain.json"
    path.write_text(json.dumps(data))
    code = run(["simulate", str(path), "--approach", approach,
                "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error: SingularJacobian:" in capsys.readouterr().err


def test_simulate_blowup(tmp_path, capsys):
    code = run(["simulate", "index1_blowup", "--x0", "1",
                "--out", str(tmp_path)])
    assert code == 0
    assert "blowup_suspected (escape estimate 1, rate 1)" \
        in capsys.readouterr().out
    term = json.loads(
        (tmp_path / "index1_blowup_termination.json").read_text())
    assert term["kind"] == "blowup_suspected"
    assert abs(term["t_escape_estimate"] - 1.0) <= 0.01
    assert abs(term["blowup_rate"] - 1.0) <= 1e-3
    csv = (tmp_path / "index1_blowup_trajectory.csv").read_text()
    assert csv.splitlines()[0] == "t,x_1,x_2,w_norm,residual"


def test_simulate_escape_at_the_floor_reports_no_rate(tmp_path, capsys):
    # under a cap of 1e6 set by the problem file, x1' = x1^3 reaches the
    # step floor before its norm passes the cap
    path = tmp_path / "index1_cubic_blowup.json"
    path.write_text(json.dumps(edited_builtin(
        "index1_cubic_blowup", ("integration", "blowup_norm_cap"), 1e6)))
    assert run(["simulate", str(path), "--out", str(tmp_path)]) == 0
    assert "blowup_suspected (escape estimate 0.5)," \
        in capsys.readouterr().out
    term = json.loads(
        (tmp_path / "index1_cubic_blowup_termination.json").read_text())
    assert term["kind"] == "blowup_suspected"
    assert "blowup_rate" not in term


@pytest.mark.parametrize("t_max, flagged", [("2", False), ("20", True)])
def test_residual_above_the_trajectory_tolerance_is_reported(tmp_path, t_max,
                                                             flagged):
    # the direct route integrates the x2_sigma coordinates of index3_chain
    # as ODE states, and its constraint residual grows until it passes
    # Tolerances.traj (1e-6) at t = 19.83; the run still reaches t_max
    assert run(["simulate", "index3_chain", "--approach", "first",
                "--tmax", t_max, "--out", str(tmp_path)]) == 0
    term = json.loads(
        (tmp_path / "index3_chain_termination.json").read_text())
    assert term["kind"] == "reached_tmax"
    rows = np.loadtxt(tmp_path / "index3_chain_trajectory.csv",
                      delimiter=",", skiprows=1)
    ts, residuals = rows[:, 0], rows[:, -1]
    over = residuals > 1e-6
    assert over.any() == flagged
    if not flagged:
        assert "residual_exceeded" not in term
        return
    assert term["residual_exceeded"] == {
        "t": ts[np.argmax(over)], "worst": residuals.max()}
    assert term["residual_exceeded"]["t"] == pytest.approx(19.83, abs=5e-3)
    assert term["residual_exceeded"]["worst"] == pytest.approx(1.397e-6,
                                                               rel=1e-3)


def test_simulate_and_sweep_name_the_residual_flag(tmp_path, capsys):
    # a copy of index3_chain run to t = 20: on the direct route simulate
    # names the flag with its first t and worst residual, and sweep names
    # each flagged run; the summary CSV keeps its columns
    data = edited_builtin("index3_chain", ("integration", "t_max"), 20.0)
    data["sweep"] = {"initial_values": [[0.3], [0.1]]}
    path = tmp_path / "index3_chain.json"
    path.write_text(json.dumps(data))
    assert run(["simulate", str(path), "--approach", "first",
                "--out", str(tmp_path / "s")]) == 0
    term = json.loads(
        (tmp_path / "s" / "index3_chain_termination.json").read_text())
    over = term["residual_exceeded"]
    assert (f"index3_chain: reached_tmax, residual_exceeded from t "
            f"{over['t']:.6g} (worst {over['worst']:.6g}), 232 points -> "
            in capsys.readouterr().out)
    for approach, flag in (("first", ", residual_exceeded in runs 0, 1"),
                           ("cascade", "")):
        out_dir = tmp_path / approach
        assert run(["sweep", str(path), "--approach", approach,
                    "--out", str(out_dir)]) == 0
        assert (f"index3_chain: swept 2 initial points{flag} -> "
                in capsys.readouterr().out)
        lines = (out_dir / "index3_chain_sweep.csv").read_text().splitlines()
        assert lines[0] == ("index,x0_1,x0_2,x0_3,x0_4,termination,"
                            "escape_estimate,final_norm")
        assert [line.split(",")[5] for line in lines[1:]] == [
            "reached_tmax", "reached_tmax"]


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


def _without_region(name):
    data = load_builtin(name).raw
    return dict(data, certificate={k: v for k, v in data["certificate"].items()
                                   if k != "region"})


@pytest.mark.parametrize("data, pointer", [
    (_without_region("index1_cubic_blowup"), "/certificate/region"),
    (edited_builtin("index1_cubic_blowup", ("certificate", "combination"),
                    "max"), "/certificate/combination"),
    (edited_builtin("index1_stable", ("certificate", "combination"), "min"),
     "/certificate/combination"),
], ids=["blowup-no-region", "blowup-max", "stability-min"])
def test_contradictory_certificate_block_exit_two(tmp_path, capsys, data,
                                                  pointer):
    # each block passes the schema but not the check it names; exit code 1
    # would read as a verdict
    path = tmp_path / "contradictory.json"
    path.write_text(json.dumps(data))
    assert run(["certify", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"error: SchemaError: {pointer}: "), err
    assert not (tmp_path / "out").exists()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_VALID_DOCUMENTS)
def test_every_valid_document_ends_each_command_classified(tmp_path_factory,
                                                           data):
    # 0 success, 1 violated hypotheses, 2 a classified error: never a raw
    # exception
    root = tmp_path_factory.mktemp("doc")
    path = root / "doc.json"
    path.write_text(json.dumps(data))
    for argv in (["reduce"], ["simulate", "--tmax", "0.5"], ["certify"],
                 ["sweep", "--tmax", "0.5"]):
        code = run([argv[0], str(path), *argv[1:], "--out", str(root / "out")])
        assert code in (0, 1, 2), argv


def test_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "A": [[1.0, 0.0]],
                               "B": [[1.0]],
                               "field": {"registry_id": "zero"}}))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    # parsing it raised a raw RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    out = tmp_path / "out"
    for argv in (["analyze", "no_such_problem"], ["analyze", str(bad)],
                 ["analyze", str(tmp_path)], ["analyze", str(latin1)],
                 ["analyze", str(deep)],
                 ["certify", "index1_stable", "--seed", "-1"]):
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def _must_not_load(spec):
    raise AssertionError(f"{spec} loaded for a malformed command line")


@pytest.mark.parametrize("argv, unread", [
    (["analyze", "index3_chain", "--tmax", "-1", "--tol", "-1", "--seed",
      "-5"], "--tmax -1 --tol -1 --seed -5"),
    (["simulate", "index1_blowup", "--seed", "-5"], "--seed -5")])
def test_option_the_command_does_not_read_exit_two(tmp_path, capsys,
                                                    monkeypatch, argv, unread):
    monkeypatch.setattr(cli, "_load", _must_not_load)
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: DaekitError: daekit: unrecognized arguments: {unread}\n")
    assert not out.exists()


def test_recorded_command_lines_parse():
    # every command line of tools/cli_outputs.sh is still accepted
    script = (Path(__file__).resolve().parents[1] / "tools"
              / "cli_outputs.sh").read_text()
    block = script.split("commands=(", 1)[1].split("\n)", 1)[0]
    lines = [line.strip().strip('"') for line in block.splitlines()
             if line.strip()]
    assert len(lines) == 18
    parser = cli.build_parser()
    for line in lines:
        sub, *flags = line.split()
        parser.parse_args([sub, "index3_chain", *flags, "--out", "files"])


def test_consecutive_runs_do_not_share_parsed_values(tmp_path, monkeypatch):
    # the parser is built once per process, and each run parses afresh
    seeds = []
    check = cli.check_lagrange_stability
    monkeypatch.setattr(cli, "check_lagrange_stability",
                        lambda *args: seeds.append(args[3]) or check(*args))
    out = str(tmp_path)
    assert run(["certify", "index1_stable", "--seed", "7", "--out", out]) == 0
    assert run(["certify", "index1_stable", "--out", out]) == 0
    assert seeds == [7, 42]
    ends = []
    for extra in (["--tmax", "0.5"], []):
        assert run(["simulate", "ode_scalar_decay", *extra, "--out", out]) == 0
        ends.append(json.loads((tmp_path / "ode_scalar_decay_termination.json")
                               .read_text())["t"])
    assert ends == [0.5, load_builtin("ode_scalar_decay").options.t_max]
    assert cli.build_parser() is cli.build_parser()


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
                                      ["--x0", "abc"], ["--x0", "1,nan"]])
def test_invalid_override_exit_two(tmp_path, capsys, override):
    code = run(["simulate", "index1_blowup", "--out", str(tmp_path)]
               + override)
    assert code == 2
    assert "error: DaekitError:" in capsys.readouterr().err
    assert not (tmp_path / "index1_blowup_termination.json").exists()


@pytest.mark.parametrize("name, value", [("index2_structured", "-0.5,1"),
                                         ("index1_blowup", "-1e-3")])
def test_negative_x0_in_either_spelling(tmp_path, name, value):
    # a value that starts with a minus sign is not taken for an option
    states = []
    for spelling in (["--x0", value], [f"--x0={value}"]):
        out = tmp_path / spelling[0]
        assert run(["simulate", name, "--out", str(out)] + spelling) == 0
        data = np.loadtxt(out / f"{name}_trajectory.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        states.append(data)
    np.testing.assert_array_equal(states[0], states[1])
    assert states[0][0, 1] == float(value.split(",")[0])


@pytest.mark.parametrize("name, value", [
    ("index1_blowup", "1e308"), ("ode_scalar_decay", "1e300"),
    ("index3_chain", "1e308,1e308,1e308,1e308")])
def test_start_beyond_the_state_bound_exit_two(tmp_path, capsys, name,
                                               value):
    # the step loop steps no entry above 1e150, so such a guess is
    # rejected before any solve, with no warning (the last one overflows
    # in the kernel warm start taken from it)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["simulate", name, "--x0", value, "--out", str(tmp_path)])
    assert code == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DaekitError: ")
    assert not (tmp_path / f"{name}_termination.json").exists()


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


@pytest.mark.parametrize("name, radius", [("index1_stable", 1e300),
                                          ("index1_cubic_blowup", 1e80)])
def test_non_finite_certificate_sample_exit_two(tmp_path, capsys, name,
                                                radius):
    # the samples' drift or envelope overflows: index1_stable passed with
    # 0 violations, and the escape check raised a raw OverflowError in U
    path = tmp_path / "huge_radius.json"
    path.write_text(json.dumps(edited_builtin(name, ("certificate", "R"),
                                              radius)))
    assert run(["certify", str(path), "--out", str(tmp_path)]) == 2
    assert ("error: SamplingFailure: non-finite sample at t="
            in capsys.readouterr().err)


@pytest.mark.parametrize("name", ["index1_stable", "index1_cubic_blowup"])
def test_overflowing_certificate_samples_warn_nothing(tmp_path, capsys,
                                                      name):
    # at R = 1e300 the samples overflow in the drift, in V and in the
    # level residuals; the classified error alone reaches stderr
    path = tmp_path / "huge_radius.json"
    path.write_text(json.dumps(edited_builtin(name, ("certificate", "R"),
                                              1e300)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["certify", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: SamplingFailure: ")


def test_sampling_failure_counts_region_rejections(tmp_path, capsys,
                                                   monkeypatch):
    # at R = 1e300 no sample places: about half the candidates fall outside
    # the half-space, the rest fail their constraint solve, and the message
    # gives both counts
    rejected = []
    comparison = LoadedProblem.comparison

    def counting(self):
        spec = comparison(self)
        inside = spec.domain_set

        def domain_set(w):
            ok = inside(w)
            if not ok:
                rejected.append(w)
            return ok
        return dataclasses.replace(spec, domain_set=domain_set)

    monkeypatch.setattr(LoadedProblem, "comparison", counting)
    path = tmp_path / "huge_radius.json"
    path.write_text(json.dumps(edited_builtin(
        "index1_cubic_blowup", ("certificate", "R"), 1e300)))
    assert run(["certify", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert rejected
    assert (f"random attempts ({len(rejected)} outside the region, "
            in err), err
    assert "constraint-solve failures)" in err


def test_certify_on_a_reduced_space_of_dimension_zero_exit_two(
        tmp_path, capsys, monkeypatch):
    # A = 0: every state is algebraic, so there is no reduced state to draw,
    # and the sampler says so before it evaluates a single drift
    drifts = []
    monkeypatch.setattr(certificates._DriftAdapter, "drift",
                        lambda self, t, w: drifts.append(t))
    problem = {
        "name": "no_dynamics", "A": [[0.0]], "B": [[1.0]],
        "field": {"registry_id": "zero"}, "initial": {"x_guess": [0.0]},
        "certificate": {
            "kind": "global_solvability", "combination": "max",
            "V": [{"registry_id": "squared_norm"}],
            "U": {"registry_id": "affine",
                  "params": {"offset": 1.0, "slope": 1.0}},
            "psi": {"registry_id": "constant", "params": {"value": 1.0}},
            "R": 1.0},
    }
    path = tmp_path / "no_dynamics.json"
    path.write_text(json.dumps(problem))
    assert run(["certify", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: SamplingFailure: the reduced space has dimension "
                   "0: there is no state to sample"]
    assert drifts == []


@pytest.mark.parametrize("command, code", [
    ("analyze", 0), ("reduce", 2), ("simulate", 2), ("certify", 2),
    ("sweep", 2)])
def test_complex_pair_rejected_before_any_solve(tmp_path, capsys, command,
                                                code):
    # the states of a complex pair are not real: analysis runs, every
    # command that reduces stops at once, before any imaginary part is cast
    # away (simulate and sweep ended in NoConvergence, certify in a verdict)
    path = tmp_path / "complex_b.json"
    path.write_text(json.dumps(edited_builtin(
        "index1_blowup", ("B",), [[0.0, 0.0], [0.0, [1.0, 0.5]]])))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, str(path), "--out", str(tmp_path)]) == code
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    if code == 0:
        assert err == []
    else:
        assert err == ["error: DaekitError: matrix B is complex: reduction "
                       "needs a real pair, as states are real"]


def test_sweep_start_longer_than_state_exit_two(tmp_path, capsys):
    data = dict(load_builtin("index1_blowup").raw,
                sweep={"initial_values": [[1.0, 0.0, 3.0]]})
    path = tmp_path / "long_start.json"
    path.write_text(json.dumps(data))
    assert run(["sweep", str(path), "--out", str(tmp_path)]) == 2
    assert "SchemaError: /sweep/initial_values/0" in capsys.readouterr().err


@pytest.mark.parametrize("a_text, pointer", [
    ("[[1.0, 0.0], [0.0]]", "/A"),
    ("[[NaN, 0.0], [0.0, 0.0]]", "/A/0/0"),
    ("[[1.0, Infinity], [0.0, 0.0]]", "/A/0/1"),
    # its square overflowed in the norm of the pair, a RuntimeWarning
    ("[[1.0, 0.0], [-1e308, 0.0]]", "/A/1/0")])
def test_malformed_matrix_exit_two(tmp_path, capsys, a_text, pointer):
    path = tmp_path / "bad_matrix.json"
    path.write_text(f'{{"name": "bad", "A": {a_text}, '
                    '"B": [[1.0, 0.0], [0.0, 1.0]], '
                    '"field": {"registry_id": "zero"}}')
    assert run(["analyze", str(path), "--out", str(tmp_path)]) == 2
    assert f"SchemaError: {pointer}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "simulate", "sweep"])
@pytest.mark.parametrize("x_guess, pointer", [
    ("[[1.0, 2.0], 0.0]", "/initial/x_guess/0"),
    ("[1.0, NaN]", "/initial/x_guess/1")])
def test_bad_initial_guess_exit_two(tmp_path, capsys, command, x_guess,
                                    pointer):
    raw = json.dumps(dict(load_builtin("index1_blowup").raw,
                          initial={"x_guess": "GUESS"}))
    path = tmp_path / "bad_guess.json"
    path.write_text(raw.replace('"GUESS"', x_guess))
    assert run([command, str(path), "--out", str(tmp_path)]) == 2
    assert f"SchemaError: {pointer}:" in capsys.readouterr().err


def test_nan_start_residual_exit_two(tmp_path, capsys):
    path = tmp_path / "nan_start.json"
    path.write_text(json.dumps(NAN_START))
    assert run(["simulate", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: InconsistentInitialValue: initial point off the constraint "
        "manifold: residual nan > 1.000e-10"]
    assert not list(tmp_path.glob("*trajectory*"))


def _must_not_integrate(*args):
    raise AssertionError("a run started on non-finite options")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_infinite_horizon_exit_two(tmp_path, capsys, monkeypatch, command):
    # an infinite horizon makes the step loop run without end, so the run
    # itself is replaced: the options must be rejected before it starts
    monkeypatch.setattr(cli, "_simulate_once", _must_not_integrate)
    raw = json.dumps(dict(load_builtin("index1_blowup").raw,
                          integration={"t_max": "TMAX"}))
    path = tmp_path / "endless.json"
    path.write_text(raw.replace('"TMAX"', "Infinity"))
    assert run([command, str(path), "--out", str(tmp_path)]) == 2
    assert "SchemaError: /integration:" in capsys.readouterr().err
    assert run([command, "index1_blowup", "--tmax", "inf",
                "--out", str(tmp_path)]) == 2
    assert "error: DaekitError: invalid --tmax/--tol override: t_max must " \
           "be finite" in capsys.readouterr().err


def varying_jacobian_problem(starts) -> dict:
    # the constraint row reads x2 = x1^3 and the kernel is spanned by
    # (1, -1), so the kernel-level Jacobian changes along a run: LU factors
    # that leaked from one run into another would change the output bytes
    return {"name": "varying", "A": [[0.0, 0.0], [1.0, 1.0]],
            "B": [[0.0, 1.0], [0.0, 1.0]],
            "field": {"registry_id": "blowup_cubic"},
            "initial": {"x_guess": [0.5, 0.0]},
            "integration": {"t_max": 1.0},
            "certificate": load_builtin("index1_stable").raw["certificate"],
            "sweep": {"initial_values": starts}}


def test_runs_in_one_process_match_separate_processes(tmp_path):
    starts = [[0.3, 0.0], [0.6, 0.0]]
    path = tmp_path / "varying.json"
    path.write_text(json.dumps(varying_jacobian_problem(starts)))
    together = tmp_path / "together"
    assert run(["sweep", str(path), "--out", str(together)]) == 0
    for seed in ("1", "2"):
        assert run(["certify", str(path), "--seed", seed,
                    "--out", str(together / seed)]) == 1

    src = str(Path(daekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        entry for entry in (src, os.environ.get("PYTHONPATH")) if entry))
    commands = []
    for k, start in enumerate(starts):
        one = tmp_path / f"start{k}.json"
        one.write_text(json.dumps(varying_jacobian_problem([start])))
        commands.append(["sweep", str(one), "--out", str(tmp_path / f"alone{k}")])
    for seed in ("1", "2"):
        commands.append(["certify", str(path), "--seed", seed,
                         "--out", str(tmp_path / "alone" / seed)])
    procs = [subprocess.Popen([sys.executable, "-m", "daekit", *cmd], env=env,
                              stdout=subprocess.DEVNULL)
             for cmd in commands]
    assert [p.wait(timeout=120) for p in procs] == [0, 0, 1, 1]
    for k in range(len(starts)):
        assert ((together / f"varying_run{k}.csv").read_bytes()
                == (tmp_path / f"alone{k}" / "varying_run0.csv").read_bytes())
    for seed in ("1", "2"):
        name = "varying_certificate.json"
        assert ((together / seed / name).read_bytes()
                == (tmp_path / "alone" / seed / name).read_bytes())


@pytest.mark.parametrize("name, keys, value, pointer", BAD_INPUTS)
def test_bad_registry_params_and_geometry_exit_two(tmp_path, capsys, name,
                                                   keys, value, pointer):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edited_builtin(name, keys, value)))
    command = "certify" if keys[0] == "certificate" else "analyze"
    assert run([command, str(path), "--out", str(tmp_path)]) == 2
    assert f"error: SchemaError: {pointer}:" in capsys.readouterr().err


def _files_under(root: Path) -> set:
    return {p for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command", ["analyze", "reduce", "simulate",
                                     "certify", "sweep"])
@pytest.mark.parametrize("name", ["ESCAPED", "../escaped", "a/b", ".", "..",
                                  "", "a\u0000b"])
def test_problem_name_must_be_one_path_component(tmp_path, capsys, command,
                                                 name):
    # every command writes <out>/<name>_*: a name with a '/' wrote outside
    # --out (ESCAPED stands for an absolute path under tmp_path), and one
    # with a NUL ended in a raw ValueError
    if name == "ESCAPED":
        name = str(tmp_path / "elsewhere" / "escaped")
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(load_builtin("index1_blowup").raw,
                                    name=name)))
    before = _files_under(tmp_path)
    assert run([command, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"error: DaekitError: problem name {name!r} is not one path "
        "component"), err
    assert _files_under(tmp_path) == before


def test_problem_name_of_one_component_is_kept(tmp_path):
    name = "with space, dots.. and \u00e9"
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(load_builtin("index1_blowup").raw,
                                    name=name)))
    out = tmp_path / "out"
    assert run(["analyze", str(path), "--out", str(out)]) == 0
    assert _files_under(tmp_path) == {path, out / f"{name}_analysis.json"}
