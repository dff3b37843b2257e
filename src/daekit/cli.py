"""Command-line front end: analyze, reduce, simulate, certify, sweep.

Exit codes: 0 success, 1 a certificate check reported violated hypotheses,
2 usage or runtime errors.  All data outputs are byte-reproducible for a
fixed seed (no timestamps; floats at full precision).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import (VIOLATED, check_blowup_certificate,
                           check_global_solvability, check_lagrange_stability)
from .errors import DaekitError
from .integrate import integrate_cascade, integrate_first
from .pencil import analysis_report
from .problems import LoadedProblem, load_builtin, load_problem
from .reduction import (StructureTag, check_structure, reduce_cascade,
                        reduce_first)


def _load(spec: str) -> LoadedProblem:
    """The problem file or bundled problem `spec`.  Every command writes
    <out>/<name>_*, so the problem's name must be one path component."""
    path = Path(spec)
    if path.exists():
        problem = load_problem(path)
    else:
        problem = load_builtin(spec[:-5] if spec.endswith(".json") else spec)
    name = problem.name
    if name in ("", ".", "..") or re.search("[/\x00-\x1f\x7f]", name):
        raise DaekitError(f"problem name {name!r} is not one path component:"
                          " it may not be empty, '.' or '..', nor hold '/'"
                          " or a control character")
    return problem


_INF = float("inf")


class _NotPlain(Exception):
    """A value `_emit` does not write: json.dumps decides what it becomes."""


def _emit(o, nl: str, out: list) -> None:
    """Append to out the text of o in the layout of json.dumps(o, indent=2,
    sort_keys=True), for nl the newline and indentation of o's own line.
    Types are tested in json's order, and each is written by the function
    json's encoder calls on it; a key that is not a str, or a value that is
    none of str, None, bool, int, float, list, tuple or dict, raises
    _NotPlain."""
    if isinstance(o, str):
        out.append(_escape(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append("NaN" if o != o else "Infinity" if o == _INF
                   else "-Infinity" if o == -_INF else float.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _emit(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        if not all(isinstance(k, str) for k in o):
            raise _NotPlain
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):
            out.append(sep + _escape(k) + ": ")
            _emit(o[k], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise _NotPlain


def _dump_json(data: dict, path: Path) -> None:
    """Write data as json.dump(data, fh, indent=2, sort_keys=True) and a
    newline would, byte for byte, in one write once the whole text is
    built.  Where `_emit` cannot write data (a value json rejects, a key
    json converts, a reference cycle), json.dumps builds the text, or
    raises its own error before the file is opened."""
    out = []
    try:
        _emit(data, "\n", out)
        text = "".join(out)
    except (_NotPlain, RecursionError):
        text = json.dumps(data, indent=2, sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _apply_overrides(problem: LoadedProblem, args) -> None:
    changes = {}
    if args.tmax is not None:
        changes["t_max"] = args.tmax
    if args.tol is not None:
        changes.update(rtol=args.tol, atol=args.tol * 1e-2)
    try:
        # rebuilt, not assigned, so the options' own checks run
        problem.options = dataclasses.replace(problem.options, **changes)
    except ValueError as exc:
        raise DaekitError(f"invalid --tmax/--tol override: {exc}")


def _pick_approach(problem: LoadedProblem, requested: str) -> str:
    if requested != "auto":
        return requested
    return "cascade" if problem.dae.structured else "first"


def _x_guess(problem: LoadedProblem, override) -> np.ndarray:
    guess = problem.x_guess.copy()
    if override:
        try:
            vals = [float(v) for v in override.split(",")]
        except ValueError as exc:
            raise DaekitError(f"--x0 must be comma-separated numbers: {exc}")
        if not np.all(np.isfinite(vals)):
            raise DaekitError(f"--x0 entries must be finite: {override}")
        if len(vals) > guess.size:
            raise DaekitError(f"--x0 has {len(vals)} entries for dimension "
                              f"{guess.size}")
        guess[:len(vals)] = vals
    return guess


def _reduce(problem: LoadedProblem, approach: str):
    if approach == "cascade":
        return reduce_cascade(problem.dae, waive_structure_check=True)
    return reduce_first(problem.dae)


def _simulate_once(problem: LoadedProblem, guess, approach: str):
    reduced = _reduce(problem, approach)
    integrate = integrate_cascade if approach == "cascade" else integrate_first
    return integrate(reduced, problem.options.t0, guess, problem.options)


def _trajectory_json(traj) -> dict:
    return {
        "times": traj.times.tolist(),
        "states": traj.states.tolist(),
        "w_norms": traj.w_norms.tolist(),
        "residuals": traj.residuals.tolist(),
        "termination": traj.termination.to_dict(),
        "stats": traj.stats,
    }


def _write_trajectory(traj, fmt: str, out_dir: Path, name: str) -> Path:
    """Write the trajectory to out_dir/name.json or name.csv."""
    path = out_dir / f"{name}.{fmt}"
    if fmt == "json":
        _dump_json(_trajectory_json(traj), path)
    else:
        traj.to_csv(path)
    return path


def cmd_analyze(args) -> int:
    problem = _load(args.problem)
    dae = problem.dae
    report = analysis_report(dae.pencil, dae.canonical, dae.dual)
    report["name"] = problem.name
    report["projector_residuals"] = dae.projectors.residuals
    out = Path(args.out) / f"{problem.name}_analysis.json"
    _dump_json(report, out)
    print(f"{problem.name}: index={report['index']} "
          f"kernel_dim={report['kernel_dimension']} "
          f"multiplicities={report['multiplicities']} -> {out}")
    return 0


def cmd_reduce(args) -> int:
    problem = _load(args.problem)
    dae = problem.dae
    approach = _pick_approach(problem, args.approach)
    # a route the field does not admit raises
    reduced = _reduce(problem, approach)
    summary = {
        "name": problem.name,
        "approach": approach,
        "index": reduced.nu,
        "equations": reduced.level_count,
        "kernel_dimension": dae.projectors.n,
        "structure_tag": dae.field.structure_tag.value,
    }
    if dae.field.structure_tag is not StructureTag.GENERAL:
        report = check_structure(dae)
        summary["structure_check"] = {
            "passed": report.passed,
            "worst_projection": report.worst_projection,
            "worst_dependence": report.worst_dependence,
        }
    out = Path(args.out) / f"{problem.name}_reduction.json"
    _dump_json(summary, out)
    print(f"{problem.name}: approach={approach} equations={summary['equations']}"
          f" -> {out}")
    return 0


def cmd_simulate(args) -> int:
    problem = _load(args.problem)
    _apply_overrides(problem, args)
    approach = _pick_approach(problem, args.approach)
    guess = _x_guess(problem, args.x0)
    traj = _simulate_once(problem, guess, approach)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = _write_trajectory(traj, args.format, out_dir,
                                  f"{problem.name}_trajectory")
    _dump_json(traj.termination.to_dict(),
               out_dir / f"{problem.name}_termination.json")
    term = traj.termination
    msg = term.kind
    if term.kind == "blowup_suspected":
        rate = "" if term.blowup_rate is None \
            else f", rate {term.blowup_rate:.6g}"
        msg += f" (escape estimate {term.t_escape_estimate:.6g}{rate})"
    if term.residual_exceeded is not None:
        over = term.residual_exceeded
        msg += (f", residual_exceeded from t {over['t']:.6g}"
                f" (worst {over['worst']:.6g})")
    print(f"{problem.name}: {msg}, {traj.times.size} points -> {data_path}")
    return 0


def cmd_certify(args) -> int:
    if args.seed < 0:
        raise DaekitError(f"--seed must be non-negative: {args.seed}")
    problem = _load(args.problem)
    if problem.certificate is None:
        raise DaekitError(f"problem '{problem.name}' declares no certificate")
    kind = problem.certificate["kind"]
    lyap = problem.lyapunov()
    comp = problem.comparison()
    reduced = _reduce(problem, _pick_approach(problem, args.approach))
    if kind == "blowup":
        report = check_blowup_certificate(reduced, lyap, comp, args.seed)
    elif kind == "lagrange_stability":
        report = check_lagrange_stability(reduced, lyap, comp, args.seed)
    elif kind == "global_solvability_norm":
        report = check_global_solvability(reduced, lyap, comp, args.seed,
                                          mode="norm_lipschitz")
    else:
        report = check_global_solvability(reduced, lyap, comp, args.seed)
    out = Path(args.out) / f"{problem.name}_certificate.json"
    _dump_json(report.to_dict(), out)
    print(f"{problem.name}: {kind} verdict={report.verdict} "
          f"({report.samples_checked} samples, "
          f"{len(report.violations)} violations) -> {out}")
    return 1 if report.verdict == VIOLATED else 0


def cmd_sweep(args) -> int:
    problem = _load(args.problem)
    _apply_overrides(problem, args)
    if not problem.sweep_values:
        raise DaekitError(f"problem '{problem.name}' declares no sweep block")
    approach = _pick_approach(problem, args.approach)
    results = []
    for idx, value in enumerate(problem.sweep_values):
        guess = problem.x_guess.copy()
        guess[:value.size] = value
        results.append((idx, guess, _simulate_once(problem, guess, approach)))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["index," + ",".join(f"x0_{k + 1}" for k in
                                 range(problem.x_guess.size))
             + ",termination,escape_estimate,final_norm"]
    for idx, guess, traj in results:
        term = traj.termination
        esc = "" if term.t_escape_estimate is None \
            else f"{term.t_escape_estimate:.17g}"
        fin = f"{traj.w_norms[-1]:.17g}"
        lines.append(f"{idx}," + ",".join(f"{v:.17g}" for v in guess)
                     + f",{term.kind},{esc},{fin}")
        _write_trajectory(traj, args.format, out_dir,
                          f"{problem.name}_run{idx}")
    summary = out_dir / f"{problem.name}_sweep.csv"
    summary.write_text("\n".join(lines) + "\n")
    flagged = [str(idx) for idx, _, traj in results
               if traj.termination.residual_exceeded is not None]
    over = f", residual_exceeded in runs {', '.join(flagged)}" if flagged else ""
    print(f"{problem.name}: swept {len(results)} initial points{over}"
          f" -> {summary}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other error: one line, exit code 2.  A
    token like "-0.5,1" or "-1e-3" is a value, as no option starts so."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise DaekitError(f"{self.prog}: {message}")


_OPTIONS = {
    "--tol": dict(type=float, default=None,
                  help="override step-error tolerance (rtol; atol=tol/100)"),
    "--tmax": dict(type=float, default=None,
                   help="override the integration horizon"),
    "--seed": dict(type=int, default=42,
                   help="seed of the certificate sampler"),
    "--format": dict(choices=["csv", "json"], default="csv"),
    "--approach": dict(choices=["auto", "first", "cascade"], default="auto"),
    "--x0": dict(default=None, help="comma-separated override of the "
                                    "leading initial-guess entries"),
}

# each command, run by `cmd_<name>`, takes only the options it reads
_COMMANDS = (
    ("analyze", ()),
    ("reduce", ("--approach",)),
    ("simulate", ("--tol", "--tmax", "--format", "--approach", "--x0")),
    ("certify", ("--seed", "--approach")),
    ("sweep", ("--tol", "--tmax", "--format", "--approach")),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process at its first
    use; each parse returns a fresh namespace."""
    parser = _Parser(
        prog="daekit",
        description="Analyze, reduce, simulate and certify semilinear "
                    "differential-algebraic systems.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("problem", help="problem file or bundled problem name")
        p.add_argument("--out", default="daekit-out", help="output directory")
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up at each call, not kept in the cached parser, so that a
        # command function replaced on the module (a wrapper) is the one run
        return globals()[f"cmd_{args.command}"](args)
    except DaekitError as exc:
        message = str(exc)  # cut at 500 characters: a repr may be any length
        if len(message) > 500:
            message = f"{message[:500]}... [{len(message)} characters]"
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
