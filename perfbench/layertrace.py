"""Span tracing of daekit's layers from outside the package.

`Tracer.install()` replaces each traced function at every module attribute
that holds it (so `daekit.cli.reduce_first` and `daekit.reduction.reduce_first`
both lead to the wrapper) and each traced method on its class; `uninstall()`
puts the originals back.  A span records its name, layer, start, end, thread
CPU time, parent span, task id and whether it raised.  The parent stack is
thread-local; a span opened on a worker thread with an empty stack (the
`sweep` pool) takes the main thread's innermost open span as its parent.
Spans stay in memory until `take()`.

The layers are daekit's modules.  Field evaluations are counted, not
spanned: they are many and short, so their time stays in the caller's span.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import itertools
import json
import os
import sys
import threading
import types
from collections import Counter, defaultdict, namedtuple
from importlib import resources
from time import perf_counter, thread_time

LAYERS = ("cli", "problems", "pencil", "projectors", "reduction", "implicit",
          "integrate", "certificates")

# Methods traced besides every layer's public module-level functions.
_METHODS = {
    "daekit.reduction": {
        "ReducedFirst": ("solve_x20", "eta_hat", "drift_w",
                         "consistent_point", "residual_L0"),
        "ReducedCascade": ("drift_w1", "consistent_point", "level_residuals",
                           "residual_L0"),
        "_CascadeEvaluator": ("chain_values", "wedge_value",
                              "wedge_derivative", "eta_2sigma",
                              "algebraic_parts", "solve_x20"),
    },
    "daekit.certificates": {
        "_DriftAdapter": ("drift",),
        "LyapunovSpec": ("validate",),
    },
}
# Private functions traced because a metric needs their spans.
_PRIVATE = {"daekit.cli": ("_simulate_once",)}

# `cpu` is the thread CPU time the span used; on a worker thread it misses
# the time spent waiting for the interpreter lock.  `adopted` marks a span
# whose parent ran on another thread.
Span = namedtuple("Span", "id name layer start end cpu parent task error "
                          "adopted")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.task = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._lock = threading.Lock()
        self._patches: list = []
        self._fixture_bytes: dict = {}

    # -- recording ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = (self._main_stack
                     if threading.current_thread() is threading.main_thread()
                     else [])
            self._local.stack = stack
        return stack

    def count(self, key: str, n=1) -> None:
        with self._lock:
            self.counts[key] += n

    def _span_wrapper(self, fn, name: str, layer: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            adopted = not stack and stack is not tracer._main_stack
            if stack:
                parent = stack[-1][0]
            else:
                main = tracer._main_stack
                parent = main[-1][0] if main else None
            sid = next(tracer._ids)
            stack.append((sid, name))
            error = False
            c0 = thread_time()
            t0 = perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            except BaseException:
                error = True
                raise
            finally:
                t1 = perf_counter()
                cpu = thread_time() - c0
                stack.pop()
                tracer.spans.append(Span(sid, name, layer, t0, t1, cpu,
                                         parent, tracer.task, error,
                                         adopted))
        return wrapper

    def _count_wrapper(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)
        return wrapper

    def _in_span(self, prefix: str) -> bool:
        """Whether an enclosing span on this thread starts with `prefix`,
        not counting the innermost one."""
        return any(name.startswith(prefix) for _, name in self._stack()[:-1])

    # -- hooks that read work counters at the call boundary -------------------
    def _newton_hook(self, fn, args, kwargs):
        # solve_newton(problem, t, p, y0, opts=None, history=None)
        args = list(args)
        history = args[5] if len(args) > 5 else kwargs.get("history")
        if history is None:
            history = []
            if len(args) > 5:
                args[5] = history
            else:
                kwargs["history"] = history
        before = len(history)
        problem = args[0]
        if problem.jac_y is not None:
            args[0] = dataclasses.replace(
                problem,
                jac_y=self._count_wrapper(problem.jac_y, "implicit.jac_evals"))
        try:
            return fn(*args, **kwargs)
        finally:
            self.count("implicit.newton_iters", len(history) - before)

    def _load_file_hook(self, fn, args, kwargs):
        self.count("problems.in_bytes", os.path.getsize(args[0]))
        return fn(*args, **kwargs)

    def _load_builtin_hook(self, fn, args, kwargs):
        name = args[0]
        if name not in self._fixture_bytes:
            fixture = resources.files("daekit") / "fixtures" / f"{name}.json"
            self._fixture_bytes[name] = (len(fixture.read_bytes())
                                         if fixture.is_file() else 0)
        self.count("problems.in_bytes", self._fixture_bytes[name])
        return fn(*args, **kwargs)

    def _integrate_hook(self, fn, args, kwargs):
        traj = fn(*args, **kwargs)
        with self._lock:
            for key in ("nfev", "accepted", "rejected"):
                self.counts[f"integrate.{key}"] += traj.stats.get(key, 0)
        return traj

    def _certificate_hook(self, fn, args, kwargs):
        report = fn(*args, **kwargs)
        if not self._in_span("certificates.check_"):
            self.count("certificates.samples", report.samples_checked)
        return report

    _HOOKS = {
        "implicit.solve_newton": _newton_hook,
        "problems.load_problem": _load_file_hook,
        "problems.load_builtin": _load_builtin_hook,
        "integrate.integrate_first": _integrate_hook,
        "integrate.integrate_cascade": _integrate_hook,
        "certificates.check_global_solvability": _certificate_hook,
        "certificates.check_lagrange_stability": _certificate_hook,
        "certificates.check_blowup_certificate": _certificate_hook,
    }

    # -- patching -------------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import daekit.cli  # noqa: F401  (imports every layer module)

        modules = [m for n, m in sys.modules.items()
                   if (n == "daekit" or n.startswith("daekit."))
                   and isinstance(m, types.ModuleType)]
        for layer in LAYERS:
            modname = f"daekit.{layer}"
            mod = sys.modules[modname]
            names = [n for n, obj in vars(mod).items()
                     if isinstance(obj, types.FunctionType)
                     and obj.__module__ == modname and not n.startswith("_")]
            names += _PRIVATE.get(modname, ())
            for name in names:
                original = getattr(mod, name)
                key = f"{layer}.{name}"
                hook = self._HOOKS.get(key)
                wrapper = self._span_wrapper(
                    original, key, layer,
                    None if hook is None else functools.partial(hook, self))
                for other in modules:
                    for attr, val in list(vars(other).items()):
                        if val is original:
                            self._patch(other, attr, wrapper)
            for cls_name, methods in _METHODS.get(modname, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._patch(cls, meth, self._span_wrapper(
                        getattr(cls, meth), f"{layer}.{cls_name}.{meth}",
                        layer))
        # the SVD behind the Newton singularity test, traced only where
        # `implicit` reaches it
        implicit = sys.modules["daekit.implicit"]
        self._patch(implicit, "cond2", self._span_wrapper(
            implicit.cond2, "implicit.cond2", "implicit"))
        field_cls = sys.modules["daekit.reduction"].NonlinearField
        self._patch(field_cls, "__call__", self._count_wrapper(
            field_cls.__call__, "reduction.field_evals"))
        self._patch(field_cls, "jac", self._count_wrapper(
            field_cls.jac, "reduction.field_jac_evals"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """Hand over the recorded spans and counts and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def write_spans(spans, path) -> None:
    """One JSON object per span, gzip-compressed."""
    with gzip.open(path, "wt") as fh:
        for rec in spans:
            fh.write(json.dumps(rec._asdict()) + "\n")


# ---------------------------------------------------------------------------
# aggregation


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def _metric(values: dict, name: str, value, unit: str, base: str = "") -> None:
    values[name] = {"value": value, "unit": unit, "base": base}


def layer_metrics(spans, counts, extra: dict):
    """Per-layer metrics of one traced round.

    Returns (metrics, layer self wall time, layer self CPU time).  `extra`
    carries what the runner measures itself: `cli.out_bytes`.  Each metric
    is {"value", "unit", "base"}; `base` spells out a ratio.
    """
    by_id = {rec.id: rec for rec in spans}
    children = defaultdict(list)
    for rec in spans:
        if rec.parent in by_id:
            children[rec.parent].append(rec)
    self_wall = {}
    self_cpu = {}
    for rec in spans:
        kids = children.get(rec.id, ())
        self_wall[rec.id] = rec.end - rec.start - _covered(
            [(k.start, k.end) for k in kids], rec.start, rec.end)
        self_cpu[rec.id] = rec.cpu - sum(k.cpu for k in kids
                                         if not k.adopted)

    layer_self = Counter()
    layer_cpu = Counter()
    total = Counter()
    calls = Counter()
    self_by_name = Counter()
    for rec in spans:
        layer_self[rec.layer] += self_wall[rec.id]
        layer_cpu[rec.layer] += self_cpu[rec.id]
        total[rec.name] += rec.end - rec.start
        calls[rec.name] += 1
        self_by_name[rec.name] += self_wall[rec.id]

    def tot(*names):
        return sum(total[n] for n in names)

    def ncalls(*names):
        return sum(calls[n] for n in names)

    # work done inside reduced right-hand sides
    drift_names = ("reduction.ReducedFirst.drift_w",
                   "reduction.ReducedCascade.drift_w1")
    rhs_red_self = 0.0
    rhs_solves = 0
    todo = [rec for rec in spans if rec.name in drift_names]
    while todo:
        rec = todo.pop()
        if rec.layer == "reduction":
            rhs_red_self += self_wall[rec.id]
        if rec.name == "implicit.solve_newton":
            rhs_solves += 1
        todo.extend(children.get(rec.id, ()))

    sweep_overhead = 0.0
    for rec in spans:
        if rec.name == "cli.cmd_sweep":
            runs = sum(k.end - k.start for k in children.get(rec.id, ())
                       if k.name == "cli._simulate_once")
            sweep_overhead += rec.end - rec.start - runs

    fallbacks = sum(1 for rec in spans
                    if rec.name == "implicit.solve_fixed_point"
                    and rec.parent in by_id
                    and by_id[rec.parent].name == "implicit.solve_newton")
    newton_failures = sum(1 for rec in spans
                          if rec.name == "implicit.solve_newton" and rec.error)
    wait = sum(layer_self.values()) - sum(layer_cpu.values())

    rhs_calls = ncalls(*drift_names)
    newton_calls = calls["implicit.solve_newton"]
    nfev = counts["integrate.nfev"]
    drift_calls = calls["certificates._DriftAdapter.drift"]
    load_s = tot("problems.load_problem", "problems.load_builtin")

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict = {}
    _metric(out, "cli.self_s", layer_self["cli"], "s")
    _metric(out, "cli.out_bytes", extra["cli.out_bytes"], "bytes")
    _metric(out, "cli.sweep_overhead_s", sweep_overhead, "s",
            "cmd_sweep span minus the summed _simulate_once spans under it")
    _metric(out, "problems.load_s", load_s, "s")
    _metric(out, "problems.self_s", load_s - tot("problems.make_dae"), "s",
            "load spans minus make_dae spans")
    _metric(out, "problems.in_bytes", counts["problems.in_bytes"], "bytes")
    _metric(out, "pencil.self_s", layer_self["pencil"], "s")
    _metric(out, "pencil.regular_point_s", tot("pencil.find_regular_point"),
            "s")
    _metric(out, "pencil.compute_index_s", tot("pencil.compute_index"), "s")
    _metric(out, "pencil.chains_s", tot("pencil.build_chains"), "s")
    _metric(out, "pencil.duals_s", tot("pencil.build_dual_chains"), "s")
    _metric(out, "projectors.self_s", layer_self["projectors"], "s")
    _metric(out, "projectors.build_s",
            tot("projectors.build_projectors", "projectors.build_tilde_A",
                "projectors.build_semi_inverses"), "s")
    _metric(out, "projectors.verify_s", tot("projectors.verify_projectors"),
            "s")
    _metric(out, "projectors.verify_calls",
            calls["projectors.verify_projectors"], "count")
    _metric(out, "reduction.self_s", layer_self["reduction"], "s")
    _metric(out, "reduction.rhs_calls", rhs_calls, "count")
    _metric(out, "reduction.rhs_self_us", 1e6 * ratio(rhs_red_self, rhs_calls),
            "us", f"{rhs_red_self:.6g} s reduction self time inside RHS spans"
            f" / {rhs_calls} RHS calls")
    _metric(out, "reduction.solves_per_rhs", ratio(rhs_solves, rhs_calls),
            "ratio", f"{rhs_solves} Newton solves inside RHS spans / "
            f"{rhs_calls} RHS calls")
    _metric(out, "reduction.field_evals", counts["reduction.field_evals"],
            "count")
    _metric(out, "reduction.field_jac_evals",
            counts["reduction.field_jac_evals"], "count")
    _metric(out, "reduction.consistent_init_s",
            tot("reduction.ReducedFirst.consistent_point",
                "reduction.ReducedCascade.consistent_point"), "s")
    _metric(out, "implicit.self_s", layer_self["implicit"], "s")
    _metric(out, "implicit.newton_calls", newton_calls, "count")
    _metric(out, "implicit.newton_iters", counts["implicit.newton_iters"],
            "count", "entries of the history list passed to solve_newton")
    _metric(out, "implicit.iters_per_solve",
            ratio(counts["implicit.newton_iters"], newton_calls), "ratio",
            f"{counts['implicit.newton_iters']} iterations / {newton_calls} "
            "solve_newton calls")
    _metric(out, "implicit.newton_self_s",
            self_by_name["implicit.solve_newton"], "s")
    _metric(out, "implicit.jac_evals",
            counts["implicit.jac_evals"] + calls["implicit.fd_jacobian"],
            "count", "analytic jac_y calls from solve_newton plus fd_jacobian "
            "calls")
    _metric(out, "implicit.cond_calls", calls["implicit.cond2"], "count")
    _metric(out, "implicit.cond_s", total["implicit.cond2"], "s")
    _metric(out, "implicit.fixed_point_fallbacks", fallbacks, "count")
    _metric(out, "implicit.failures", newton_failures, "count")
    _metric(out, "integrate.nfev", nfev, "count")
    _metric(out, "integrate.accepted", counts["integrate.accepted"], "count")
    _metric(out, "integrate.rejected", counts["integrate.rejected"], "count")
    _metric(out, "integrate.self_s", layer_self["integrate"], "s",
            "integrate spans minus their drift and other child spans")
    integ = tot("integrate.integrate_first", "integrate.integrate_cascade")
    _metric(out, "integrate.rhs_us", 1e6 * ratio(integ, nfev), "us",
            f"{integ:.6g} s in integrate spans / {nfev} RHS evaluations")
    samples = counts["certificates.samples"]
    _metric(out, "certificates.samples", samples, "count")
    _metric(out, "certificates.drift_calls", drift_calls, "count")
    _metric(out, "certificates.placed_ratio", ratio(samples, drift_calls),
            "ratio", f"{samples} samples placed / {drift_calls} drift calls")
    _metric(out, "certificates.self_s", layer_self["certificates"], "s")
    _metric(out, "certificates.probe_s", tot("certificates.probe_integral"),
            "s")
    _metric(out, "trace.spans", len(spans), "count")
    _metric(out, "trace.wait_s", wait, "s",
            "summed span self time minus summed span self CPU time: waiting "
            "for the interpreter lock or I/O")
    return out, dict(layer_self), dict(layer_cpu)
