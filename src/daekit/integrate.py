"""Adaptive integration of the reduced systems with per-step constraint
solves, plus termination classification (horizon reached, suspected
finite-time escape, constraint-solve failure, step collapse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

import numpy as np

from ._linalg import norm2
from .config import DEFAULT_TOLERANCES as TOL
from .errors import ConstraintSolveFailure, NoConvergence, SingularJacobian
from .implicit import JacobianCache
from .reduction import ReducedCascade, ReducedFirst

__all__ = ["IntegrationOptions", "Trajectory", "TerminationReason",
           "TrajectoryInternals", "integrate_first", "integrate_cascade",
           "classify_termination"]

# The rate fit past the cap: alpha is searched below _RATE_MAX, and the
# escape is called once the fits through the triples ending at the last
# blowup_window points agree in alpha and in the escape time within
# _RATE_FIT_RTOL.  The default rtol is too tight for the agreement: the
# fits difference the recorded norms twice.
_RATE_MAX = 20.0
_RATE_FIT_RTOL = 1e-6


@dataclass
class IntegrationOptions:
    t0: float = 0.0
    t_max: float = 1.0
    rtol: float = 1e-8
    atol: float = 1e-10
    h_min: float = 1e-10
    h_max: float | None = None
    blowup_norm_cap: float = 1e2
    blowup_window: int = 5

    def __post_init__(self):
        # a NaN passes every comparison below, an infinite horizon or
        # tolerance makes the step loop run without end, and an escape past
        # a cap of NaN or infinity ends as a step collapse
        for name in ("t0", "t_max", "rtol", "atol", "h_min", "h_max",
                     "blowup_norm_cap"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.t_max <= self.t0:
            raise ValueError("t_max must exceed t0")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
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
    blowup_rate: float | None = None  # alpha of a rate-fit escape
    final_norm: float | None = None
    t: float | None = None
    level: str | None = None
    detail: str = ""
    # first t and worst value of a recorded residual above Tolerances.traj
    residual_exceeded: dict | None = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for key in ("t_escape_estimate", "blowup_rate", "final_norm", "t",
                    "level", "detail", "residual_exceeded"):
            val = getattr(self, key)
            if val not in (None, ""):
                out[key] = val
        return out


@dataclass
class TrajectoryInternals:
    """Per-step record of the accepted points of a run under `opts`, read by
    the termination classifier; `nonfinite` marks a run ended at the floor
    by a step that left the representable range, `rate_fit` the (alpha,
    T*) of a run ended by a converged rate fit past the cap."""

    opts: IntegrationOptions
    times: list = dc_field(default_factory=list)
    norms: list = dc_field(default_factory=list)
    steps: list = dc_field(default_factory=list)
    reached_t_max: bool = False
    nonfinite: bool = False
    failure: tuple | None = None  # (t, level, message)
    rate_fit: tuple | None = None  # (alpha, t_escape)
    stats: dict = dc_field(default_factory=dict)  # nfev, accepted, rejected

    def escaping(self) -> bool:
        """The tracked norm exceeded the cap and grew monotonically over the
        configured window of accepted steps; an overflow at the floor counts
        as one more step to an infinite norm."""
        w = self.opts.blowup_window
        norms = self.norms[-(w + 1 - self.nonfinite):] \
            + [math.inf] * self.nonfinite
        return (len(norms) == w + 1 and norms[-1] > self.opts.blowup_norm_cap
                and all(a < b for a, b in zip(norms, norms[1:])))

    def converged_fit(self) -> tuple | None:
        """The last (alpha, T*) of the rate fits through the triples ending
        at the window's points, where all of them are found, agree with it
        within _RATE_FIT_RTOL (T* relative to T* - t0), and put the escape
        at most t_max within that tolerance; else None."""
        opts, n = self.opts, len(self.norms)
        fits = [_rate_fit(self.times[k - 3:k], self.norms[k - 3:k])
                for k in range(max(3, n - opts.blowup_window + 1), n + 1)]
        if len(fits) < opts.blowup_window or None in fits:
            return None
        alpha, t_escape = fits[-1]
        tol = _RATE_FIT_RTOL * (t_escape - self.times[0])
        agree = all(abs(a - alpha) <= _RATE_FIT_RTOL * alpha
                    and abs(t - t_escape) <= tol for a, t in fits)
        return fits[-1] if agree and t_escape - opts.t_max <= tol else None


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    w_states: np.ndarray
    w_norms: np.ndarray  # |w| of each point, as the escape test read it
    residuals: np.ndarray
    termination: TerminationReason
    stats: dict = dc_field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Columns t, x_1..x_N, w_norm, residual, floats at 17 significant
        digits for lossless round trips."""
        n = self.states.shape[1]
        header = "t," + ",".join(f"x_{k + 1}" for k in range(n)) \
            + ",w_norm,residual"
        fmt = "{:.17g}".format
        rows = zip(self.times.tolist(), self.states.tolist(),
                   self.w_norms.tolist(), self.residuals.tolist())
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for t, x, w_norm, res in rows:
                fh.write(",".join(map(fmt, (t, *x, w_norm, res))) + "\n")


def _escape_estimate(times, norms) -> float:
    """Extrapolated escape time: where the secant of the reciprocal norm
    through the last consecutive pair of the last six points along which it
    falls meets zero; the last time where it falls along none."""
    ts = np.asarray(times, dtype=float)[-6:]
    us = 1.0 / np.maximum(np.asarray(norms, dtype=float)[-6:], 1e-300)
    falls = np.flatnonzero(us[:-1] - us[1:] > 0)
    if not falls.size:
        return float(ts[-1])
    k = falls[-1] + 1
    return float(ts[k] + us[k] * (ts[k] - ts[k - 1]) / (us[k - 1] - us[k]))


def _log_expm1(x: float) -> float:
    """log(e^x - 1) for x > 0, without overflow."""
    return x + math.log1p(-math.exp(-x)) if x > 1.0 \
        else math.log(math.expm1(x))


def _rate_fit(times, norms) -> tuple | None:
    """(alpha, T*) of the power law |w| = C (T* - t)^(-alpha) through three
    points, with alpha below _RATE_MAX; None where the norms do not grow
    strictly or grow no faster than such a law allows.

    The law makes u = |w|^(-1/alpha) affine in t.  With beta = 1/alpha and
    L_k = log(n_3 / n_k), equal secant slopes of u read
    expm1(beta L_1) / expm1(beta L_2) = (t_3 - t_1) / (t_3 - t_2).  The
    left side grows strictly with beta, so bisection finds beta; T* is
    where the secant of u through the last two points meets zero.
    """
    (t1, t2, t3), (n1, n2, n3) = times, norms
    if not (t1 < t2 < t3 and 0.0 < n1 < n2 < n3 < math.inf):
        return None
    l1, l2 = math.log(n3 / n1), math.log(n3 / n2)
    if not l1 > l2 > 0.0:  # norms too close for their logarithms
        return None
    target = math.log((t3 - t1) / (t3 - t2))

    def gap(beta):
        return _log_expm1(beta * l1) - _log_expm1(beta * l2) - target

    # alpha below the bound by more than the fits are compared to, so that
    # rounding puts no fit of a law at the bound under it
    lo = (1.0 + _RATE_FIT_RTOL) / _RATE_MAX
    if gap(lo) >= 0.0:
        return None
    # expm1(a) / expm1(b) >= e^(a - b) for a > b > 0: gap(hi) >= 0
    hi = target / (l1 - l2)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 1.0 / mid, t3 + (t3 - t2) * math.exp(-_log_expm1(mid * l2))


def classify_termination(internals: TrajectoryInternals) -> TerminationReason:
    """Label the end of an integration from its per-step record.

    A suspected finite-time escape needs the tracked norm above the cap
    and growing monotonically over the configured window of accepted
    steps, and one of two endings: the rate fits past the cap converged
    (their rate and escape time are reported), or the step size was
    driven to its floor (or the state left the representable range while
    growing), where the escape time is extrapolated from the last points.
    """
    if internals.failure is not None:
        t, level, msg = internals.failure
        return TerminationReason(kind="constraint_solve_failure", t=t,
                                 level=level, detail=msg)
    if internals.reached_t_max:
        return TerminationReason(kind="reached_tmax",
                                 t=internals.times[-1] if internals.times else None)
    norms = internals.norms
    if internals.rate_fit is not None:
        alpha, t_escape = internals.rate_fit
        return TerminationReason(
            kind="blowup_suspected", t_escape_estimate=t_escape,
            blowup_rate=alpha, final_norm=float(norms[-1]),
            t=float(internals.times[-1]))
    floored = (bool(internals.steps)
               and internals.steps[-1] <= internals.opts.h_min * (1 + 1e-9))
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
_TABLE = np.zeros((8, 8, 1))
for _i, _coefs in enumerate((*_A[1:], _E), start=1):
    _TABLE[_i, 1:_i + 1, 0] = _coefs


def _stage_sum(buf, i):
    """0 + sum of c_j k_j in the order of j, for the c_j of _A[i] (of _E for
    i = 7) and a stage buffer whose row 0 is zero and rows 1-7 hold k1-k7:
    the rows are added strictly in order, a zero c_j still makes NaN of inf,
    and the zero row turns a -0.0 sum to +0.0, as the built-in sum does."""
    return np.add.accumulate(_TABLE[i, :i + 1] * buf[:i + 1], axis=0)[-1]


def _nonfinite_cause(exc: ConstraintSolveFailure) -> bool:
    cause = exc.cause
    return (isinstance(cause, NoConvergence)
            and not np.isfinite(cause.last_residual))


def _rms(r) -> float:
    """np.sqrt(np.mean(r ** 2)) of a 1-D array, by the same operations."""
    return math.sqrt(float(np.add.reduce(r * r)) / r.size)


def _initial_step(y0, f0, opts: IntegrationOptions) -> float:
    sc = opts.atol + opts.rtol * np.abs(y0)
    # below rtol ~ 1e-155 both scaled norms overflow and their quotient is
    # NaN, which no step floor catches: such a start takes the 1e-6 step
    with np.errstate(over="ignore"):
        d0 = _rms(y0 / sc)
        d1 = _rms(f0 / sc)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not math.isfinite(h0):
        h0 = 1e-6
    return float(min(max(h0, opts.h_min), opts.step_bound,
                     opts.t_max - opts.t0))


def _run(t0, w0, opts: IntegrationOptions, solve: Callable,
         residual: Callable) -> Trajectory:
    """Integrate w' = dw for (dw, x) = solve(t, w, x_accepted) by the
    embedded Dormand-Prince 5(4) pair with PI step control and a
    forced-accept floor.  Past the escape cap, each accepted step fits a
    blow-up rate, and the run stops once the fits converge (see
    classify_termination).

    x_accepted is the state of the last accepted point, None at t0, for a
    solve that retries from it.  Each accepted point records w, the
    assembled state x and its constraint residual residual(t, x).  The
    solve at t0 gives x0 and the first right-hand side; a level singular
    there raises.  The pair is first-same-as-last: an accepted step ends at
    its seventh stage, so the state that stage's solve assembled is the
    state recorded.
    """
    t, y = t0, np.array(w0, dtype=float)
    buf = np.zeros((8, y.size))  # the stage buffer of _stage_sum
    buf[1], x = solve(t, y, None)
    nfev = 1
    rec = TrajectoryInternals(opts=opts, times=[float(t0)],
                              norms=[norm2(y)], steps=[0.0])
    ws, states, residuals = [y], [x], [residual(t, x)]

    def f(tt, yy):
        nonlocal nfev, x
        nfev += 1
        try:
            dw, x = solve(tt, yy, states[-1])
        except SingularJacobian as exc:
            # a level that loses its inverse after t0 ends the run
            raise ConstraintSolveFailure(tt, exc.level, exc)
        return dw

    h = _initial_step(y, buf[1], opts)
    err_prev = 1e-4
    accepted = rejected = 0
    consecutive_forced = 0
    while t < opts.t_max * (1 - 1e-14) and t + opts.h_min <= opts.t_max:
        h = min(h, opts.step_bound, opts.t_max - t)
        h = max(h, opts.h_min)
        at_floor = h <= opts.h_min * (1 + 1e-9)
        bad = True  # unless err is finite: shrink, or overflow at the floor
        try:
            # overflow near a finite-time escape is expected, not an error
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(1, 7):
                    yi = y + h * _stage_sum(buf, i)
                    # NaN and inf fail the test too
                    if not np.abs(yi).max() <= TOL.state_max:
                        break
                    buf[i + 1] = f(t + _C[i] * h, yi)
                else:
                    # the last stage, yi, sits at the new solution point
                    sc = opts.atol + opts.rtol * np.maximum(abs(y), abs(yi))
                    err = _rms(h * _stage_sum(buf, 7) / sc)
                    bad = not math.isfinite(err)
        except ConstraintSolveFailure as exc:
            # away from the floor: shrink and retry, so persistent failure
            # ends at the floor.  There, a non-finite cause means the field
            # left the representable range: overflow of the dynamics, not
            # failure of the solvability hypotheses
            if at_floor and not _nonfinite_cause(exc):
                rec.failure = (exc.t, exc.level, str(exc.cause))
                break
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
            buf[1] = buf[7]
            accepted += 1
            # x is still the last stage's: no solve ran after it
            rec.times.append(float(t))
            rec.steps.append(float(h))
            rec.norms.append(norm2(y))
            ws.append(y)
            states.append(x)
            residuals.append(residual(t, x))
            if rec.escaping():
                rec.rate_fit = rec.converged_fit()
                if rec.rate_fit is not None or at_floor:
                    break
            if consecutive_forced > max(50, 3 * opts.blowup_window):
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
    termination = classify_termination(rec)
    residuals = np.asarray(residuals)
    over = np.flatnonzero(residuals > TOL.traj)
    if over.size:
        termination = replace(termination, residual_exceeded={
            "t": rec.times[over[0]], "worst": float(residuals[over].max())})
    return Trajectory(times=np.asarray(rec.times),
                      states=np.vstack(states), w_states=np.vstack(ws),
                      w_norms=np.asarray(rec.norms), residuals=residuals,
                      termination=termination, stats=rec.stats)


def integrate_first(reduced: ReducedFirst, t0: float, x_guess,
                    opts: IntegrationOptions) -> Trajectory:
    """Integrate the direct reduction from the guess projected onto L0 by
    `consistent_point`, on the per-run state that made the projection."""
    state = reduced.make_state(x_guess)
    x0 = reduced.consistent_point(t0, x_guess, state)

    def solve(t, w, x_accepted):
        # warm-started solve; on a kernel-level failure retry once with the
        # kernel level warm-started from the last accepted state (x0 before
        # the first) and a fresh Jacobian, keeping the warm starts and kept
        # Jacobians of the chain and wedge levels
        try:
            return reduced.drift(t, w, state)
        except ConstraintSolveFailure as first_exc:
            if first_exc.level != "kernel_level":
                raise
            state.warm["kernel_level"] = reduced.kernel_coords(
                x0 if x_accepted is None else x_accepted)
            state.jac_caches["kernel_level"] = JacobianCache()
            try:
                return reduced.drift(t, w, state)
            except ConstraintSolveFailure:
                raise first_exc

    return _run(t0, reduced.dae.pencil.a @ x0, opts, solve,
                lambda t, x: reduced.residual_L0(t, x, state))


def integrate_cascade(reduced: ReducedCascade, t0: float, x_guess,
                      opts: IntegrationOptions) -> Trajectory:
    """Integrate the cascade reduction from the guess projected onto L0 by
    `consistent_point`, on the per-run state that made the projection.

    The reduced variable w1 holds the explicit part alone: it starts at
    A P1 x0.
    """
    evaluator = reduced.make_state(x_guess)
    x0 = reduced.consistent_point(t0, x_guess, evaluator)

    def solve(t, w1, _x_accepted):
        # on failure retry once from cold level guesses, keeping the warm
        # starts the retry found
        try:
            return reduced.drift(t, w1, evaluator)
        except ConstraintSolveFailure:
            fresh = reduced.make_state()
            out = reduced.drift(t, w1, fresh)
            evaluator.warm = fresh.warm
            evaluator.jac_caches = fresh.jac_caches
            evaluator.field_at = fresh.field_at
            return out

    return _run(t0, reduced.dae.pencil.a @ (reduced.ps.p1 @ x0), opts, solve,
                lambda t, x: reduced.residual_L0(t, x, evaluator))
