"""Adaptive integration of the reduced systems with per-step constraint
solves, plus termination classification (horizon reached, suspected
finite-time escape, constraint-solve failure, step collapse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from ._linalg import norm2
from .config import DEFAULT_TOLERANCES as TOL
from .errors import (ConstraintSolveFailure, InconsistentInitialValue,
                     NoConvergence, SingularJacobian)
from .implicit import JacobianCache
from .reduction import ReducedCascade, ReducedFirst

__all__ = ["IntegrationOptions", "Trajectory", "TerminationReason",
           "TrajectoryInternals", "integrate_first", "integrate_cascade",
           "classify_termination"]


@dataclass
class IntegrationOptions:
    t0: float = 0.0
    t_max: float = 1.0
    rtol: float = 1e-8
    atol: float = 1e-10
    h_init: float | None = None
    h_min: float = 1e-10
    h_max: float | None = None
    blowup_norm_cap: float = 1e6
    blowup_window: int = 5

    def __post_init__(self):
        # a NaN passes every comparison below, an infinite horizon or
        # tolerance makes the step loop run without end, and an escape past
        # a cap of NaN or infinity ends as a step collapse
        for name in ("t0", "t_max", "rtol", "atol", "h_init", "h_min",
                     "h_max", "blowup_norm_cap"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.t_max <= self.t0:
            raise ValueError("t_max must exceed t0")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.h_init is not None and not (
                self.h_min <= self.h_init <= self.step_bound):
            raise ValueError("need h_min <= h_init <= h_max")
        if self.h_min <= 0:
            raise ValueError("h_min must be positive")
        # below one, escaping() checks no growth and reads the cap alone
        if self.blowup_window < 1:
            raise ValueError("blowup_window must be at least 1")
        # a step bound below the floor would clamp every step to h_min
        if self.h_max is not None and not self.h_max >= self.h_min:
            raise ValueError("need h_min <= h_max")

    @property
    def step_bound(self) -> float:
        """The largest step: h_max, or the whole span t_max - t0 if unset."""
        return self.h_max if self.h_max is not None else self.t_max - self.t0


@dataclass(frozen=True)
class TerminationReason:
    kind: str  # reached_tmax | blowup_suspected | constraint_solve_failure | step_collapse
    t_escape_estimate: float | None = None
    final_norm: float | None = None
    t: float | None = None
    level: str | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for key in ("t_escape_estimate", "final_norm", "t", "level", "detail"):
            val = getattr(self, key)
            if val not in (None, ""):
                out[key] = val
        return out


@dataclass
class TrajectoryInternals:
    """Per-step record of the accepted points of a run, read by the
    termination classifier; `nonfinite` marks a run ended at the floor by a
    step that left the representable range."""

    times: list = dc_field(default_factory=list)
    norms: list = dc_field(default_factory=list)
    steps: list = dc_field(default_factory=list)
    h_min: float = 1e-10
    blowup_norm_cap: float = 1e6
    blowup_window: int = 5
    reached_t_max: bool = False
    nonfinite: bool = False
    failure: tuple | None = None  # (t, level, message)
    stats: dict = dc_field(default_factory=dict)  # nfev, accepted, rejected

    def escaping(self) -> bool:
        """The tracked norm exceeded the cap and grew monotonically over the
        configured window of accepted steps; an overflow at the floor counts
        as one more step to an infinite norm."""
        norms = self.norms + [math.inf] * self.nonfinite
        w = self.blowup_window
        return (len(norms) >= w + 1 and norms[-1] > self.blowup_norm_cap
                and all(norms[-k] > norms[-k - 1] for k in range(1, w + 1)))


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    w_states: np.ndarray
    residuals: np.ndarray
    termination: TerminationReason
    stats: dict = dc_field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Columns t, x_1..x_N, w_norm, residual, floats at 17 significant
        digits for lossless round trips."""
        n = self.states.shape[1]
        header = "t," + ",".join(f"x_{k + 1}" for k in range(n)) \
            + ",w_norm,residual"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for k in range(self.times.size):
                row = [self.times[k], *self.states[k],
                       float(np.linalg.norm(self.w_states[k])),
                       self.residuals[k]]
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _escape_estimate(times, norms) -> float:
    """Extrapolated escape time: the reciprocal norm is driven to zero by
    successive secant steps (Richardson-style refinement on the last pairs).
    """
    ts = np.asarray(times, dtype=float)
    us = 1.0 / np.maximum(np.asarray(norms, dtype=float), 1e-300)
    keep = min(6, ts.size)
    ts, us = ts[-keep:], us[-keep:]
    est = ts[-1]
    for k in range(1, ts.size):
        du = us[k - 1] - us[k]
        if du > 0:
            est = ts[k] + us[k] * (ts[k] - ts[k - 1]) / du
    return float(est)


def classify_termination(internals: TrajectoryInternals) -> TerminationReason:
    """Label the end of an integration from its per-step record.

    A suspected finite-time escape requires all three signals together:
    the tracked norm exceeded the cap, it grew monotonically over the
    configured window of accepted steps, and the step size was driven to
    its floor (or the state left the representable range while growing).
    """
    if internals.failure is not None:
        t, level, msg = internals.failure
        return TerminationReason(kind="constraint_solve_failure", t=t,
                                 level=level, detail=msg)
    if internals.reached_t_max:
        return TerminationReason(kind="reached_tmax",
                                 t=internals.times[-1] if internals.times else None)
    norms = internals.norms
    floored = (bool(internals.steps)
               and internals.steps[-1] <= internals.h_min * (1 + 1e-9))
    overflow = "state left the representable range" \
        if internals.nonfinite else ""
    if internals.escaping() and (floored or internals.nonfinite):
        return TerminationReason(
            kind="blowup_suspected",
            t_escape_estimate=_escape_estimate(internals.times, norms),
            final_norm=float(norms[-1]),
            t=float(internals.times[-1]), detail=overflow)
    t_last = float(internals.times[-1]) if internals.times else None
    return TerminationReason(
        kind="step_collapse", t=t_last,
        detail=overflow or "step size collapsed without norm growth")


# Dormand-Prince 5(4) coefficients, as Python floats
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))


def _combine(coefs, ks):
    """0 + sum of c_j k_j in the order of j, zero coefficients included: a
    0 * inf term still makes NaN, and the leading 0 turns a -0.0 sum to
    +0.0, as the built-in sum does."""
    acc = 0
    for c, k in zip(coefs, ks):
        acc = acc + c * k
    return acc


def _nonfinite_cause(exc: ConstraintSolveFailure) -> bool:
    cause = exc.cause
    return (isinstance(cause, NoConvergence)
            and not np.isfinite(cause.last_residual))


def _initial_step(y0, f0, opts: IntegrationOptions) -> float:
    sc = opts.atol + opts.rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / sc) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return float(min(max(h0, opts.h_min), opts.step_bound,
                     opts.t_max - opts.t0))


def _run(t0, w0, opts: IntegrationOptions, solve: Callable,
         residual: Callable) -> Trajectory:
    """Integrate w' = dw for (dw, x) = solve(t, w) by the embedded
    Dormand-Prince 5(4) pair with PI step control and a forced-accept floor.

    Each accepted point records w, the assembled state x and its constraint
    residual residual(t, x).  The solve at t0 gives x0 and the first
    right-hand side; a level singular there raises.  The pair is
    first-same-as-last: an accepted step ends at its seventh stage, so the
    state that stage's solve assembled is the state recorded.
    """
    t, y = t0, np.array(w0, dtype=float)
    k1, x = solve(t, y)
    nfev = 1
    rec = TrajectoryInternals(times=[float(t0)], norms=[norm2(y)],
                              steps=[0.0], h_min=opts.h_min,
                              blowup_norm_cap=opts.blowup_norm_cap,
                              blowup_window=opts.blowup_window)
    ws, states, residuals = [y], [x], [residual(t, x)]

    def f(tt, yy):
        nonlocal nfev, x
        nfev += 1
        try:
            dw, x = solve(tt, yy)
        except SingularJacobian as exc:
            # a level that loses its inverse after t0 ends the run
            raise ConstraintSolveFailure(tt, exc.level, exc)
        return dw

    h = opts.h_init if opts.h_init is not None else _initial_step(y, k1, opts)
    err_prev = 1e-4
    accepted = rejected = 0
    consecutive_forced = 0
    ks = [None] * 7
    while t < opts.t_max * (1 - 1e-14) and t + opts.h_min <= opts.t_max:
        h = min(h, opts.step_bound, opts.t_max - t)
        h = max(h, opts.h_min)
        at_floor = h <= opts.h_min * (1 + 1e-9)
        ks[0] = k1
        bad = False  # the step must shrink; at the floor, this is overflow
        try:
            # overflow near a finite-time escape is expected, not an error
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(1, 7):
                    yi = y + h * _combine(_A[i], ks)
                    # NaN and inf fail the test too
                    if not np.abs(yi).max() <= 1e150:
                        bad = True
                        break
                    ks[i] = f(t + _C[i] * h, yi)
        except ConstraintSolveFailure as exc:
            # away from the floor: shrink and retry, so persistent failure
            # ends at the floor.  There, a non-finite cause means the field
            # left the representable range: overflow of the dynamics, not
            # failure of the solvability hypotheses
            if at_floor and not _nonfinite_cause(exc):
                rec.failure = (exc.t, exc.level, str(exc.cause))
                break
            bad = True
        if not bad:
            # the last stage, yi, sits at the new solution point
            err_vec = h * _combine(_E, ks)
            sc = opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(yi))
            with np.errstate(invalid="ignore", over="ignore"):
                err = float(np.sqrt(np.mean((err_vec / sc) ** 2)))
            bad = not np.isfinite(err)
        if bad:
            if at_floor:
                rec.nonfinite = True
                break
            h = max(h * 0.25, opts.h_min)
            rejected += 1
            continue
        if err <= 1.0 or at_floor:
            forced = err > 1.0
            consecutive_forced = consecutive_forced + 1 if forced else 0
            t = t + h
            y = yi
            k1 = ks[6]
            accepted += 1
            # x is still the last stage's: no solve ran after it
            rec.times.append(float(t))
            rec.steps.append(float(h))
            rec.norms.append(norm2(y))
            ws.append(y)
            states.append(x)
            residuals.append(residual(t, x))
            if at_floor and rec.escaping():
                break
            if consecutive_forced > max(50, 3 * rec.blowup_window):
                break
            fac = 0.9 * err ** (-0.14) * err_prev ** 0.08 if err > 0 else 5.0
            fac = min(5.0, max(0.2, fac))
            if forced:
                fac = min(fac, 1.0)
            h = h * fac
            err_prev = max(err, 1e-10)
        else:
            rejected += 1
            h = h * min(1.0, max(0.2, 0.9 * err ** (-0.2)))
    else:
        rec.reached_t_max = True
    rec.stats = {"nfev": nfev, "accepted": accepted, "rejected": rejected}
    return Trajectory(times=np.asarray(rec.times),
                      states=np.vstack(states), w_states=np.vstack(ws),
                      residuals=np.asarray(residuals),
                      termination=classify_termination(rec), stats=rec.stats)


def integrate_first(reduced: ReducedFirst, t0: float, x0, opts: IntegrationOptions
                    ) -> Trajectory:
    """Integrate the direct reduction from a consistent initial state."""
    x0 = np.asarray(x0, dtype=float)
    res0 = reduced.residual_L0(t0, x0)
    if res0 > TOL.cons:
        raise InconsistentInitialValue(res0, TOL.cons)
    state = reduced.make_state(x0)

    def solve(t, w):
        # warm-started solve; on a kernel-level failure retry once from a
        # cold re-initialization of the kernel guess and Jacobian, keeping
        # the warm starts and kept Jacobians of the chain and wedge levels
        try:
            return reduced.drift_w(t, w, state)
        except ConstraintSolveFailure as first_exc:
            if first_exc.level != "kernel_level":
                raise
            state.warm.pop("kernel_level", None)
            state.jac_caches["kernel_level"] = JacobianCache()
            try:
                return reduced.drift_w(t, w, state)
            except ConstraintSolveFailure:
                raise first_exc

    return _run(t0, reduced.dae.pencil.a @ x0, opts, solve,
                lambda t, x: reduced.residual_L0(t, x, state))


def integrate_cascade(reduced: ReducedCascade, t0: float, x01,
                      opts: IntegrationOptions) -> Trajectory:
    """Integrate the cascade reduction from an explicit-part initial value."""
    x01 = np.asarray(x01, dtype=float)
    off = float(np.linalg.norm(x01 - reduced.ps.p1 @ x01))
    if off > 1e-8 * (1.0 + float(np.linalg.norm(x01))):
        raise InconsistentInitialValue(off, 1e-8)
    evaluator = reduced.make_state()

    def solve(t, w1):
        # on failure retry once from cold level guesses, keeping the warm
        # starts the retry found
        try:
            return reduced.drift_w1(t, w1, evaluator)
        except ConstraintSolveFailure:
            fresh = reduced.make_state()
            out = reduced.drift_w1(t, w1, fresh)
            evaluator.warm = fresh.warm
            evaluator.jac_caches = fresh.jac_caches
            evaluator.field_at = fresh.field_at
            return out

    return _run(t0, reduced.dae.pencil.a @ (reduced.ps.p1 @ x01), opts, solve,
                lambda t, x: reduced.residual_L0(t, x, evaluator))
