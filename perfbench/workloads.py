"""Seeded workloads: generated problem files, task lists and per-task oracles.

Each workload is built from a seed alone.  The problem files it writes follow
daekit's shipped schema; daekit only ever sees those files (or a bundled
problem name) and an argv for `daekit.cli.run`.  Every task carries an oracle
that reads the files the command wrote and raises `OracleFailure` when an
output disagrees with a closed form or a ground truth.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import chain_field

# Oracle bounds.  Trajectory residual: daekit's Tolerances.traj.  Escape
# time: the 1 % of acceptance criterion 5.  Chain family: ROADMAP item 2.
# Route agreement and the escape-field trajectories: two decades above the
# worst errors seen at the integrator's default rtol = 1e-8 (about 1e-9 and
# 1e-8).
TRAJ_RESIDUAL_MAX = 1e-6
ESCAPE_REL_MAX = 1e-2
CHAIN_REL_MAX = 1e-8
ESCAPE_FIELD_REL_MAX = 1e-6
ROUTE_GAP_MAX = 1e-7

SAMPLER_SEED_RANGE = 10 ** 6


class OracleFailure(Exception):
    """An output that disagrees with its oracle."""


@dataclass
class Task:
    """One `cli.run` call.  `check(rc, out_root)` reads the outputs under
    out_root / label and returns the errors it measured."""

    label: str
    argv: list
    check: Callable
    known_defect: bool = False


@dataclass
class Workload:
    name: str
    predicted: tuple                  # layers expected to dominate self time
    loads: list                       # problem specs loaded during set-up
    tasks: list
    chain_field: bool = False
    notes: list = field(default_factory=list)


def _write(inputs: Path, data: dict) -> str:
    path = inputs / f"{data['name']}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleFailure(msg)


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


def _read_trajectory(path: Path):
    """Times and states from a trajectory CSV (t, x_1..x_N, w_norm,
    residual); the residual column is checked on the way."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    worst = float(data[:, -1].max())
    _expect(worst <= TRAJ_RESIDUAL_MAX,
            f"{path.name}: constraint residual {worst:.2e} > "
            f"{TRAJ_RESIDUAL_MAX:.0e}")
    return data[:, 0], data[:, 1:-2]


def _expect_start(got: float, want: float, where: str) -> None:
    _expect(abs(got - want) <= 1e-12 * max(1.0, abs(want)),
            f"{where}: start {got!r} is not the requested {want!r}")


def _expect_rc(rc: int) -> None:
    _expect(rc == 0, f"exit code {rc}, expected 0")


# ---------------------------------------------------------------------------
# direct_escape


@dataclass(frozen=True)
class _EscapeField:
    """A 2x2 index-1 problem with x2 = sin(t) + x1 and a closed-form x1.

    Near an escape a time error of dt changes x1 by x1^p dt, so a relative
    error in x1 says little.  The oracle compares instead phase(x1), the
    reciprocal power that the closed form makes affine in t, which stays
    well conditioned up to the escape.
    """

    registry_id: str
    t_max: float
    b: tuple
    start_range: tuple
    phase: Callable                   # x1 -> phase
    exact_phase: Callable             # (t, x0) -> phase of the closed form
    escape: Callable | None           # escape time(x0), None if global


_ESCAPE_FIELDS = (
    # x1' = x1^2: 1/x1 = 1/x0 - t
    _EscapeField("blowup_quadratic", 2.0, ((0.0, 0.0), (0.0, 1.0)),
                 (0.75, 3.0), lambda x1: 1.0 / x1,
                 lambda t, x0: 1.0 / x0 - t, lambda x0: 1.0 / x0),
    # x1' = x1^3: 1/x1^2 = 1/x0^2 - 2 t
    _EscapeField("blowup_cubic", 5.0, ((0.0, 0.0), (0.0, 1.0)),
                 (0.75, 2.0), lambda x1: 1.0 / (x1 * x1),
                 lambda t, x0: 1.0 / (x0 * x0) - 2.0 * t,
                 lambda x0: 1.0 / (2.0 * x0 * x0)),
    # x1' + x1 = exp(-t): x1 = exp(-t) (x0 + t)
    _EscapeField("stable_linear", 100.0, ((1.0, 0.0), (0.0, 1.0)),
                 (0.5, 2.0), lambda x1: x1,
                 lambda t, x0: np.exp(-t) * (x0 + t), None),
)
_ESCAPE_PROBLEMS_PER_FIELD = 1
_SWEEP_STARTS = 3


def _check_escape_run(fld: _EscapeField, x0: float, traj_path: Path,
                      kind: str, estimate) -> dict:
    times, states = _read_trajectory(traj_path)
    _expect_start(states[0, 0], x0, traj_path.name)
    x1 = states[:, 0]
    ref_err = max(_rel_err(fld.phase(x1), fld.exact_phase(times, x0)),
                  _rel_err(states[:, 1], np.sin(times) + x1))
    _expect(ref_err <= ESCAPE_FIELD_REL_MAX,
            f"{traj_path.name}: error {ref_err:.2e} against the closed form")
    out = {"ref_err": ref_err}
    if fld.escape is None:
        _expect(kind == "reached_tmax", f"termination {kind}")
        return out
    _expect(kind == "blowup_suspected", f"termination {kind}")
    exact = fld.escape(x0)
    out["escape_err"] = abs(float(estimate) - exact) / exact
    _expect(out["escape_err"] <= ESCAPE_REL_MAX,
            f"escape estimate {estimate} against {exact:.6g}")
    return out


def _merge(results) -> dict:
    out = {}
    for res in results:
        for key, val in res.items():
            out[key] = max(out.get(key, val), val)
    return out


def _direct_escape(seed: int, inputs: Path) -> Workload:
    rng = np.random.default_rng(seed)
    loads, tasks = [], []
    for fld in _ESCAPE_FIELDS:
        for j in range(_ESCAPE_PROBLEMS_PER_FIELD):
            x0s = [float(v) for v in rng.uniform(*fld.start_range,
                                                 _SWEEP_STARTS + 1)]
            name = f"{fld.registry_id}_{j}"
            path = _write(inputs, {
                "name": name,
                "A": [[1.0, 0.0], [0.0, 0.0]],
                "B": [list(row) for row in fld.b],
                "field": {"registry_id": fld.registry_id},
                "initial": {"x_guess": [x0s[0], 0.0]},
                "integration": {"t_max": fld.t_max},
                "sweep": {"initial_values": [[v, 0.0] for v in x0s[1:]]},
            })
            loads.append(path)

            def check_simulate(rc, root, fld=fld, name=name, x0=x0s[0],
                               label=f"simulate_{name}"):
                _expect_rc(rc)
                out = root / label
                term = json.loads((out / f"{name}_termination.json")
                                  .read_text())
                return _check_escape_run(
                    fld, x0, out / f"{name}_trajectory.csv", term["kind"],
                    term.get("t_escape_estimate"))

            def check_sweep(rc, root, fld=fld, name=name, starts=x0s[1:],
                            label=f"sweep_{name}"):
                _expect_rc(rc)
                out = root / label
                with open(out / f"{name}_sweep.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                _expect(len(rows) == len(starts),
                        f"{len(rows)} sweep rows for {len(starts)} starts")
                results = []
                for row, x0 in zip(rows, starts):
                    idx = int(row["index"])
                    results.append(_check_escape_run(
                        fld, x0, out / f"{name}_run{idx}.csv",
                        row["termination"], row["escape_estimate"] or None))
                return _merge(results)

            tasks.append(Task(f"simulate_{name}", ["simulate", path],
                              check_simulate))
            tasks.append(Task(f"sweep_{name}", ["sweep", path], check_sweep))
    return Workload("direct_escape", ("implicit", "integrate"), loads, tasks)


# ---------------------------------------------------------------------------
# cascade_ladder and cascade_defects

_CHAIN_T_MAX = 2.0
_BUNDLED_STRUCTURED = ("index2_structured", "index3_chain")


def _chain_task(inputs: Path, rng, m: int, approach: str,
                known_defect: bool = False):
    # a narrow band of frequencies keeps the step count, and so the work,
    # close to the same from seed to seed
    omegas = [float(w) for w in rng.uniform(0.8, 1.25, m + 1)]
    x0 = float(rng.uniform(-1.0, 1.0))
    name = f"chain_m{m}_{approach}"
    path = _write(inputs, chain_field.problem_dict(name, omegas, x0,
                                                   _CHAIN_T_MAX))

    def check(rc, root, label=f"simulate_{name}"):
        _expect_rc(rc)
        out = root / label
        term = json.loads((out / f"{name}_termination.json").read_text())
        _expect(term["kind"] == "reached_tmax", f"termination {term['kind']}")
        times, states = _read_trajectory(out / f"{name}_trajectory.csv")
        _expect_start(states[0, 0], x0, label)
        err = _rel_err(states, chain_field.exact_states(omegas, x0, times))
        _expect(err <= CHAIN_REL_MAX,
                f"error {err:.2e} against the closed-form chain")
        return {"ref_err": err}

    task = Task(f"simulate_{name}", ["simulate", path, "--approach", approach],
                check, known_defect)
    return path, task


def _bundled_route_tasks(name: str):
    """Both routes on a bundled structured problem.  No closed form exists,
    so the cascade run is checked against the direct one at t_max."""
    first, cascade = f"first_{name}", f"cascade_{name}"

    def final_state(root, label):
        out = root / label
        term = json.loads((out / f"{name}_termination.json").read_text())
        _expect(term["kind"] == "reached_tmax", f"termination {term['kind']}")
        times, states = _read_trajectory(out / f"{name}_trajectory.csv")
        return times[-1], states[-1]

    def check_first(rc, root):
        _expect_rc(rc)
        final_state(root, first)
        return {}

    def check_cascade(rc, root):
        _expect_rc(rc)
        t_c, x_c = final_state(root, cascade)
        t_f, x_f = final_state(root, first)
        _expect(t_c == t_f, f"routes end at {t_c!r} and {t_f!r}")
        gap = _rel_err(x_c, x_f)
        _expect(gap <= ROUTE_GAP_MAX, f"route gap {gap:.2e} at t_max")
        return {"route_gap": gap}

    return [Task(first, ["simulate", name, "--approach", "first"],
                 check_first),
            Task(cascade, ["simulate", name, "--approach", "cascade"],
                 check_cascade)]


def _cascade_ladder(seed: int, inputs: Path) -> Workload:
    rng = np.random.default_rng(seed)
    loads, tasks = [], []
    for m in (2, 3):
        for approach in ("cascade", "first"):
            path, task = _chain_task(inputs, rng, m, approach)
            loads.append(path)
            tasks.append(task)
    for name in _BUNDLED_STRUCTURED:
        loads.append(name)
        tasks.extend(_bundled_route_tasks(name))
    return Workload("cascade_ladder", ("reduction",), loads, tasks,
                    chain_field=True)


def _cascade_defects(seed: int, inputs: Path) -> Workload:
    rng = np.random.default_rng(seed)
    loads, tasks = [], []
    for m, approach in ((4, "cascade"), (5, "cascade"), (6, "cascade"),
                        (4, "first")):
        path, task = _chain_task(inputs, rng, m, approach, known_defect=True)
        loads.append(path)
        tasks.append(task)
    return Workload(
        "cascade_defects", ("reduction",), loads, tasks, chain_field=True,
        notes=["every task here fails its 1e-8 closed-form oracle at the "
               "parent commit (ROADMAP item 2); the direct route at m >= 5 "
               "is left out: it did not end within 300 s and integrate has "
               "no step budget (ROADMAP item 5)"])


# ---------------------------------------------------------------------------
# certify_sampling

_CERT_PROBLEMS = ("index1_stable", "index1_blowup", "index1_cubic_blowup",
                  "ode_scalar_quadratic")
_CERT_SEEDS_PER_PROBLEM = 3
_CERT_SAMPLES = 500


def _certify_sampling(seed: int, inputs: Path) -> Workload:
    rng = np.random.default_rng(seed)
    tasks = []
    for name in _CERT_PROBLEMS:
        for s in rng.integers(0, SAMPLER_SEED_RANGE, _CERT_SEEDS_PER_PROBLEM):
            label = f"certify_{name}_{s}"

            def check(rc, root, name=name, label=label):
                _expect_rc(rc)
                report = json.loads((root / label / f"{name}_certificate.json")
                                    .read_text())
                _expect(report["verdict"] == "hypotheses_sampled_pass",
                        f"verdict {report['verdict']}")
                _expect(report["samples_checked"] == _CERT_SAMPLES,
                        f"{report['samples_checked']} samples checked")
                return {}

            tasks.append(Task(label, ["certify", name, "--seed", str(s)],
                              check))
    return Workload("certify_sampling", ("implicit", "certificates"),
                    list(_CERT_PROBLEMS), tasks)


# ---------------------------------------------------------------------------
# pair_analysis

_PAIR_SIZES = (32, 64, 128)
_PAIR_MAX_INDEX = 6


def _segre(n_dim: int, index: int) -> list:
    """Chains of length `index`, and one shorter chain for the remainder,
    filling a quarter of the dimension."""
    count, rest = divmod(n_dim // 4, index)
    return [index] * count + ([rest] if rest else [])


def _pair_analysis(seed: int, inputs: Path) -> Workload:
    from daekit.config import DEFAULT_TOLERANCES
    from daekit.problems import random_weierstrass

    rng = np.random.default_rng(seed)
    loads, tasks = [], []
    for n_dim in _PAIR_SIZES:
        # Analysis cost depends on the chain structure.  Indices m and
        # 7 - m at each size, each with a fixed chain pattern, keep a
        # round's work close to the same from seed to seed; the seed picks
        # m and the conjugating transforms.
        top = int(rng.integers(1, _PAIR_MAX_INDEX + 1))
        for j, index in enumerate((top, _PAIR_MAX_INDEX + 1 - top)):
            segre = _segre(n_dim, index)
            sample = random_weierstrass(int(rng.integers(2 ** 31)), n_dim,
                                        segre)
            name = f"pair_n{n_dim}_{j}"
            path = _write(inputs, {"name": name,
                                   "A": sample.pencil.a.tolist(),
                                   "B": sample.pencil.b.tolist(),
                                   "field": {"registry_id": "zero"}})
            loads.append(path)

            def check(rc, root, name=name, sample=sample):
                _expect_rc(rc)
                report = json.loads((root / f"analyze_{name}"
                                     / f"{name}_analysis.json").read_text())
                _expect(report["index"] == sample.index,
                        f"index {report['index']}, truth {sample.index}")
                got = sorted(report["multiplicities"], reverse=True)
                _expect(got == sample.segre,
                        f"multiplicities {got}, truth {sample.segre}")
                worst = max(report["projector_residuals"].values())
                _expect(worst <= DEFAULT_TOLERANCES.proj,
                        f"projector residual {worst:.2e}")
                return {"proj_residual": worst}

            tasks.append(Task(f"analyze_{name}", ["analyze", path], check))
    return Workload("pair_analysis", ("problems", "pencil", "projectors"),
                    loads, tasks)


BUILDERS = {
    "direct_escape": _direct_escape,
    "cascade_ladder": _cascade_ladder,
    "certify_sampling": _certify_sampling,
    "pair_analysis": _pair_analysis,
    "cascade_defects": _cascade_defects,
}


def build(name: str, seed: int, inputs: Path) -> Workload:
    """Write the workload's problem files under `inputs` and return it."""
    inputs.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, inputs)


def load(spec: str):
    """One set-up load: a generated file through `load_problem`, a bundled
    name through `load_builtin`."""
    from daekit.problems import load_builtin, load_problem

    if spec.endswith(".json"):
        return load_problem(spec)
    return load_builtin(spec)
