"""Seeded benchmark of the daekit pipeline, driven through `daekit.cli.run`.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's problem files are generated from the seed into a scratch
directory under `.perfbench/`.  Set-up (import `daekit.cli`, then one load of
every distinct problem) is timed in fresh interpreters, several times.  The
run then repeats the workload's fixed task list, one `cli.run` call at a
time in this process (a closed loop with one client), until S seconds have
passed, and checks every task's outputs against its oracle.  A task fails on
a raised exception, an unexpected exit code, termination kind or verdict, or
an oracle bound exceeded; failures are counted, never fatal.  Times are
reported in reference seconds, corrected for the machine's changing speed
(see calibrate.py); the report shows the raw times beside them.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the first half of the time runs untraced and the second half
traced, and the last line holds the per-layer metrics, the tracing overhead
among them.  The traced round's spans are written to
`.perfbench/spans-<workload>.jsonl.gz`.  Lines before the last one are a
readable report.

Workloads: direct_escape, cascade_ladder, certify_sampling, pair_analysis
(see BENCHMARK.json), and cascade_defects, which holds the chain-family
tasks that fail at the parent commit and is kept out of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("direct_escape", "cascade_ladder", "certify_sampling",
             "pair_analysis", "cascade_defects")
SETUP_REPEATS = 3
# Kernel runs this close to a task's midpoint set its scale.
SPEED_WINDOW_S = 0.5
SETUP_TIMEOUT_S = 120
P90_MIN_SAMPLES = 100
# The end-to-end metrics of BENCHMARK.json: the ones every workload has and
# none reads 0.  The rest are printed in the report only.
REPORTED = ("setup_s", "wall_s", "task_ms_p50", "peak_rss_mb")
BLAS_THREADS = 1


def _configure_threads() -> dict:
    """Pin BLAS to one thread and give `sweep` at most nproc threads.  Must
    run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["DAEKIT_THREADS"] = str(min(2, nproc))
    return {"nproc": nproc, "blas_threads": BLAS_THREADS,
            "daekit_threads": int(os.environ["DAEKIT_THREADS"])}


def _environment(threads: dict) -> dict:
    from importlib.metadata import version

    env = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "jsonschema"):
        env[pkg] = version(pkg)
    env.update(threads)
    return env


@dataclass
class Outcome:
    label: str
    seconds: float
    failed: bool
    detail: str
    errors: dict
    known_defect: bool
    out_bytes: int
    scale: float = 1.0  # raw to reference seconds, see calibrate.py

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def _dir_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


def _run_task(cli, task, out_root: Path, tracer=None) -> Outcome:
    from workloads import OracleFailure

    out_dir = out_root / task.label
    argv = [*task.argv, "--out", str(out_dir)]
    sink = io.StringIO()
    crash = None
    if tracer is not None:
        tracer.task = task.label
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = perf_counter()
        try:
            rc = cli.run(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed task
            rc, crash = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    if tracer is not None:
        tracer.task = None
    failed, detail, errors = False, "", {}
    try:
        if crash is not None:
            raise OracleFailure(f"raised {crash}")
        errors = task.check(rc, out_root)
    except Exception as exc:  # an unreadable output fails the task too
        failed = True
        detail = str(exc) if isinstance(exc, OracleFailure) else \
            f"oracle could not read the outputs: {type(exc).__name__}: {exc}"
        tail = sink.getvalue().strip().splitlines()[-1:]
        if tail:
            detail += f" [daekit: {tail[0]}]"
    return Outcome(task.label, seconds, failed, detail, errors,
                   task.known_defect, _dir_bytes(out_dir))


def _run_rounds(cli, workload, out_root: Path, budget_s: float, tracer=None,
                on_round=None, setup=None):
    """Repeat the task list until `budget_s` of rounds has passed (at least
    once).  Returns the list of rounds, each a list of Outcomes.  The
    calibration kernel runs before the first task and after every task; a
    task's scale is REFERENCE_S over the median kernel time within
    SPEED_WINDOW_S of the task's midpoint, or of the two runs around it if
    none is that close.  With `setup`, set-up samples are taken between
    rounds, spread over the run, and their time is not charged to the
    budget."""
    from calibrate import probe

    rounds = []
    probes = []                       # (time, kernel seconds)
    mids = []                         # (outcome, midpoint time)
    start = perf_counter()
    probes.append((perf_counter(), probe()))
    while not rounds or perf_counter() - start < budget_s:
        rnd = []
        for task in workload.tasks:
            outcome = _run_task(cli, task, out_root, tracer)
            now = perf_counter()
            mids.append((outcome, now - 0.5 * outcome.seconds))
            probes.append((now, probe()))
            rnd.append(outcome)
        rounds.append(rnd)
        if on_round is not None:
            on_round(rnd)
        if setup is not None:
            progress = (perf_counter() - start) / budget_s \
                if budget_s > 0 else 1.0
            start += setup.sample_until(progress)
            probes.append((perf_counter(), probe()))
    if setup is not None:
        setup.sample_until(1.0)
    _assign_scales(mids, probes)
    return rounds


def _assign_scales(mids, probes) -> None:
    from calibrate import REFERENCE_S

    times = [t for t, _ in probes]
    for outcome, mid in mids:
        lo = bisect.bisect_left(times, mid - SPEED_WINDOW_S)
        hi = bisect.bisect_right(times, mid + SPEED_WINDOW_S)
        if hi - lo < 2:
            at = bisect.bisect_left(times, mid)
            lo, hi = max(at - 1, 0), min(at + 1, len(times))
        outcome.scale = REFERENCE_S / _median([k for _, k in probes[lo:hi]])


class _SetupSampler:
    """Times set-up in fresh interpreters (see setup_child.py).  Samples are
    spread over the run so that one slow spell of the machine does not
    set the median."""

    def __init__(self, workload, work: Path):
        self.manifest = work / "setup.json"
        self.manifest.write_text(json.dumps(
            {"loads": workload.loads, "chain_field": workload.chain_field}))
        self.samples: list = []

    def sample(self) -> None:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(ROOT),
             str(self.manifest)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        self.samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def sample_until(self, progress: float) -> float:
        """Take samples until SETUP_REPEATS * progress of them are done;
        return the seconds spent."""
        t0 = perf_counter()
        while len(self.samples) < min(SETUP_REPEATS,
                                      math.ceil(SETUP_REPEATS * progress)):
            self.sample()
        return perf_counter() - t0


def _median(values):
    return statistics.median(values) if values else float("nan")


def _log10_max(outcomes, key: str):
    vals = [o.errors[key] for o in outcomes if key in o.errors]
    if not vals:
        return None
    return math.log10(max(max(vals), 1e-300))


def _task_medians(rounds, attr: str = "seconds") -> list:
    """Each task's median cli.run time over the rounds."""
    return [_median([getattr(rnd[k], attr) for rnd in rounds])
            for k in range(len(rounds[0]))]


def _end_to_end(rounds, setups, rss_mb: float) -> dict:
    """End-to-end metrics; times are in reference seconds (see
    calibrate.py)."""
    from calibrate import REFERENCE_S

    outcomes = [o for rnd in rounds for o in rnd]
    task_ms = [1e3 * o.ref_seconds for o in outcomes]
    medians = _task_medians(rounds, "ref_seconds")
    failed = sum(o.failed for o in outcomes)
    setup_s = [(s["import_s"] + s["load_s"]) * REFERENCE_S / s["kernel_s"]
               for s in setups]
    out = {
        "setup_s": (_median(setup_s), "s"),
        # Medians per task first: the task list mixes commands whose times
        # differ several-fold, and a pooled median can sit in the gap
        # between two of them, where noise moves it most.
        "wall_s": (sum(medians), "s"),
        "task_ms_p50": (1e3 * _median(medians), "ms"),
        "task_ms_p90": ((float(statistics.quantiles(task_ms, n=10)[-1]), "ms")
                        if len(task_ms) >= P90_MIN_SAMPLES else (None, "ms")),
        "fail_share": (failed / len(outcomes), "ratio"),
        "ref_err_log10_max": (_log10_max(outcomes, "ref_err"), "log10"),
        "escape_err_log10_max": (_log10_max(outcomes, "escape_err"), "log10"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return out


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_end_to_end(name: str, e2e: dict, rounds, setups) -> None:
    outcomes = [o for rnd in rounds for o in rnd]
    n = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    scales = sorted(o.scale for o in outcomes)
    print(f"== {name}: {len(rounds)} rounds of {len(rounds[0])} tasks, "
          f"{n} task samples")
    print("  times in reference seconds (calibrate.py): raw times scaled by "
          f"{scales[0]:.3f} to {scales[-1]:.3f}, median {_median(scales):.3f}")
    imp = _median([s["import_s"] for s in setups])
    load = _median([s["load_s"] for s in setups])
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters, each "
                   f"scaled by its own kernel time; raw import {imp:.4f} s "
                   f"+ loads {load:.4f} s",
        "wall_s": "each task's median cli.run time over the rounds, summed; "
                  f"raw {sum(_task_medians(rounds)):.6g} s",
        "task_ms_p50": f"median over the {len(rounds[0])} tasks of each "
                       f"task's median over {len(rounds)} rounds; {n} "
                       "samples",
        "task_ms_p90": (f"pooled over {n} samples"
                        if e2e["task_ms_p90"][0] is not None
                        else f"not reported: {n} < {P90_MIN_SAMPLES} samples"),
        "fail_share": f"{failed} failed / {n} attempted",
        "ref_err_log10_max": "worst relative error against a closed form",
        "escape_err_log10_max": "worst relative escape-time error",
        "peak_rss_mb": "peak resident memory of this process",
    }
    for key, (value, unit) in e2e.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<22} {shown:>12} {unit:<6} ({notes[key]})")
    gaps = [o.errors[k] for o in outcomes for k in ("route_gap",
                                                      "proj_residual")
            if k in o.errors]
    if gaps:
        print(f"  other oracle margin: worst route gap / projector residual "
              f"{max(gaps):.3g}")


def _print_failures(outcomes) -> None:
    seen = set()
    for o in outcomes:
        if o.failed and o.label not in seen:
            seen.add(o.label)
            tag = "known defect" if o.known_defect else "FAILED"
            print(f"  {tag}: {o.label}: {o.detail}")


def _print_layers(name: str, workload, layer_rounds, wall: float,
                  traced_wall: float):
    layers = [r[0] for r in layer_rounds]
    keys = list(layers[0])
    median = {k: _median([m[k]["value"] for m in layers]) for k in keys}
    overhead = traced_wall - wall
    print(f"== {name}: per-layer metrics, median of {len(layers)} traced "
          f"rounds; times in raw seconds")
    for k in keys:
        base = layers[0][k]["base"]
        print(f"  {k:<34} {median[k]:>14.6g} {layers[0][k]['unit']:<6}"
              + (f" ({base})" if base else ""))
    print(f"  trace.overhead_s {overhead:.6g} s (traced wall_s "
          f"{traced_wall:.6g} s - untraced wall_s {wall:.6g} s, reference "
          f"seconds)")
    from layertrace import LAYERS
    for idx, what in ((1, "self wall time"), (2, "self CPU time")):
        per = {layer: _median([r[idx].get(layer, 0.0) for r in layer_rounds])
               for layer in LAYERS}
        total = sum(per.values()) or 1.0
        ranked = sorted(per.items(), key=lambda kv: -kv[1])
        print(f"  layer {what} (share of {total:.4g} s): " + ", ".join(
            f"{layer} {t:.4g} s {100 * t / total:.1f}%"
            for layer, t in ranked))
    # judged on CPU time: on sweep's worker threads wall time also holds
    # the wait for the interpreter lock, which lands in whichever span is
    # open when the lock changes hands
    top = ranked[0][0]
    verdict = "agrees" if top in workload.predicted else "disagrees"
    print(f"  dominant layer by self CPU time: {top}; predicted: "
          f"{' or '.join(workload.predicted)}; the trace {verdict}")
    median["trace.overhead_s"] = overhead
    median["trace.wall_s"] = traced_wall
    units = {k: layers[0][k]["unit"] for k in keys}
    units.update({"trace.overhead_s": "s", "trace.wall_s": "s"})
    return {k: {"value": v, "unit": units[k]} for k, v in median.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "daekit" / "cli.py").is_file():
        print(f"error: no daekit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    threads = _configure_threads()
    sys.path.insert(0, str(ROOT / "src"))

    scratch = ROOT / ".perfbench"
    work = scratch / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _bench(args, threads, scratch, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, threads: dict, scratch: Path, work: Path) -> int:
    import chain_field
    import workloads

    workload = workloads.build(args.workload, args.seed, work / "inputs")
    setup = _SetupSampler(workload, work)
    setup.sample()

    import daekit
    import daekit.cli as cli
    if Path(daekit.__file__).resolve().parent != ROOT / "src" / "daekit":
        print(f"error: imported daekit from {daekit.__file__}",
              file=sys.stderr)
        return 2
    if workload.chain_field:
        chain_field.register()
    for spec in workload.loads:
        workloads.load(spec)

    print("env: " + json.dumps(_environment(threads), sort_keys=True))
    for note in workload.notes:
        print(f"note: {note}")
    out_root = work / "out"
    # with --trace 1, half the time untraced, for wall_s and the overhead
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    rounds = _run_rounds(cli, workload, out_root, untraced_s, setup=setup)
    e2e = _end_to_end(rounds, setup.samples, _peak_rss_mb())
    _print_end_to_end(args.workload, e2e, rounds, setup.samples)
    if not args.trace:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]}
                   for k in REPORTED}
    else:
        from layertrace import Tracer, layer_metrics, write_spans

        tracer = Tracer()
        layer_rounds, last_spans = [], []

        def collect(rnd):
            nonlocal last_spans
            spans, counts = tracer.take()
            extra = {"cli.out_bytes": sum(o.out_bytes for o in rnd)}
            layer_rounds.append(layer_metrics(spans, counts, extra))
            last_spans = spans

        tracer.install()
        try:
            traced = _run_rounds(cli, workload, out_root, args.seconds / 2,
                                 tracer, collect)
        finally:
            tracer.uninstall()
        metrics = _print_layers(args.workload, workload, layer_rounds,
                                sum(_task_medians(rounds, "ref_seconds")),
                                sum(_task_medians(traced, "ref_seconds")))
        write_spans(last_spans, scratch / f"spans-{args.workload}.jsonl.gz")
        rounds += traced

    outcomes = [o for rnd in rounds for o in rnd]
    failed = sum(o.failed for o in outcomes)
    _print_failures(outcomes)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
