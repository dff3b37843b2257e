"""Nonlinear algebraic solver for the constraint equations.

Damped Newton on a condition-checked Jacobian, which can be kept across the
solves of one run: a numerically singular Jacobian raises SingularJacobian,
the sign that the level's algebraic part is not uniquely solvable there.
The same damped rule also solves many independent systems at once, one per
column of a stack.  Plus implicit differentiation of a solved branch.

The singularity test is the 1-norm condition number, in Python floats at
dimension 1 and from numpy above it; the solves are a division or numpy's
LAPACK.  This module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# `cond2` is not called here, but `perfbench/layertrace.py` patches
# `implicit.cond2` by name, so it stays importable until the tracer stops
from ._linalg import column_norms, cond2, norm2  # noqa: F401
from .errors import NoConvergence, SingularJacobian

__all__ = ["ImplicitProblem", "JacobianCache", "solve_newton",
           "solve_newton_columns", "implicit_derivative", "fd_jacobian"]


@dataclass
class ImplicitProblem:
    """Residual F(t, p, y) with an optional dF/dy."""

    residual: Callable
    jac_y: Callable | None = None


@dataclass
class JacobianCache:
    """dF/dy kept across the solves of one run, once it has passed the
    singularity test.

    `factors` is the form of the Jacobian that `_factor` returns, or None
    before the first one.  One cache belongs to one run: sharing it between
    runs would make a run's result depend on the runs before it.
    """

    factors: float | np.ndarray | None = None

    def factor_solve(self, j: np.ndarray, rhs: np.ndarray
                     ) -> np.ndarray | None:
        """Solution of j y = rhs, with j kept for the next solve.

        j is tested for singularity as in `solve_newton`, so a caller that
        has the Jacobian at a solution both uses and keeps its one test.
        Where j is numerically singular the cache is emptied and None is
        returned.
        """
        self.factors = _factor(j)
        if self.factors is None:
            return None
        return _lu_solve(self.factors, rhs)


# Newton iterations per solve
_MAX_ITER = 60
# line-search step factor, and the shortest step tried
_DAMPING = 0.5
_MIN_STEP = 2.0 ** -20
# condition number above which a matrix counts as singular
_COND_CAP = 1e14
# a step with kept factors must cut ||F|| at least this many times
_KEPT_CONTRACTION = 4.0
# central-difference step of `fd_jacobian`, relative to max(1, |y_k|)
_FD_REL_STEP = 1e-7


def _vec(y) -> np.ndarray:
    # a float64 vector is returned as it is, as the general path would
    if type(y) is np.ndarray and y.dtype == np.float64 and y.ndim == 1:
        return y
    return np.atleast_1d(np.asarray(y, dtype=float))


def _time_derivative(g: Callable, t: float):
    """Central difference of g at t, with step max(1e-6, 1e-6*|t|)."""
    h = max(1e-6, 1e-6 * abs(t))
    return (g(t + h) - g(t - h)) / (2.0 * h)


def fd_jacobian(fun: Callable, y: np.ndarray, f0: np.ndarray | None = None
                ) -> np.ndarray:
    """Central-difference Jacobian of fun at y."""
    y = _vec(y)
    n = y.size
    if f0 is None:
        f0 = _vec(fun(y))
    m = f0.size
    jac = np.empty((m, n))
    for k in range(n):
        h = _FD_REL_STEP * max(1.0, abs(y[k]))
        yp = y.copy(); yp[k] += h
        ym = y.copy(); ym[k] -= h
        jac[:, k] = (_vec(fun(yp)) - _vec(fun(ym))) / (2.0 * h)
    return jac


def _fd_mismatch(cases) -> float:
    """Worst max |derivative - fd| / max(1, max |fd|) over the cases (fun,
    derivative, y), for fd the `fd_jacobian` of fun at y."""
    worst = 0.0
    for fun, derivative, y in cases:
        fd = fd_jacobian(fun, np.asarray(y, float))
        scale = max(1.0, float(np.abs(fd).max()))
        worst = max(worst, float(np.abs(derivative - fd).max()) / scale)
    return worst


def _factor(j: np.ndarray) -> float | np.ndarray | None:
    """j in the form that `_lu_solve` keeps, or None when j is numerically
    singular: a 1-norm condition number ||j||_1 ||j^-1||_1 above the cap.

    Kept is the one entry of a 1x1 j, or a copy of j.  At dimension 1 the
    test stays in Python floats, clear of numpy's per-call overhead:
    |a| |1/a| is NaN for an infinite or NaN a and infinite for a subnormal
    one.  Above, numpy's `cond` reads an exactly singular j or an
    overflowing 1-norm as inf, without a warning, and a NaN entry as NaN.
    """
    if j.shape == (1, 1):
        a = float(j[0, 0])
        if a != 0.0 and abs(a) * abs(1.0 / a) <= _COND_CAP:
            return a
        return None
    return j.copy() if np.linalg.cond(j, 1) <= _COND_CAP else None


def _lu_solve(factors: float | np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solution of j x = rhs for j in the form `_factor` keeps.

    At dimension 1 it is the division rhs / a.  Above, it is numpy's LAPACK
    gesv, which factors j again on each call.
    """
    if isinstance(factors, float):
        return rhs / factors
    return np.linalg.solve(factors, rhs)


def solve_newton(problem: ImplicitProblem, t: float, p, y0,
                 tol: float = 1e-12,
                 history: list | None = None,
                 jac_cache: JacobianCache | None = None) -> np.ndarray:
    """Damped Newton with backtracking line search on ||F||.

    Stops when ||F|| <= tol (absolute, positive).  Each Jacobian is tested
    once; a numerically singular one (1-norm condition number above 1e14,
    which a non-finite entry or an exactly singular matrix exceeds) raises
    SingularJacobian at any iterate (`solve_newton_columns` fails a column
    singular after its start instead; here that would reach the retry
    `integrate_first` makes of a failed kernel solve but not of a singular
    one).  Each iterate's residual norm is appended to `history` when given.

    With `jac_cache` the solve first reuses the Jacobian kept there
    (simplified Newton, Hairer & Wanner, Solving ODEs II, IV.8): a full step
    with it is kept when it cuts ||F|| at least 4x.  Otherwise the Jacobian
    is evaluated and tested at the current iterate, stored in the cache,
    and the solve goes on as damped Newton.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    y = _vec(y0).copy()
    kept = jac_cache.factors if jac_cache is not None else None

    def jac(yv, f0):
        if problem.jac_y is not None:
            return np.atleast_2d(np.asarray(problem.jac_y(t, p, yv), dtype=float))
        return fd_jacobian(lambda z: problem.residual(t, p, z), yv, f0)

    f = _vec(problem.residual(t, p, y))
    res = norm2(f)
    for it in range(_MAX_ITER):
        if history is not None:
            history.append({"iter": it, "residual": res})
        if res <= tol:
            return y
        if not math.isfinite(res):
            raise NoConvergence(it + 1, res, label="newton")
        if kept is not None:
            y_new = y + _lu_solve(kept, -f)
            f_new = _vec(problem.residual(t, p, y_new))
            res_new = norm2(f_new)
            if res_new * _KEPT_CONTRACTION <= res:
                y, f, res = y_new, f_new, res_new
                continue
            kept = None
        factors = _factor(jac(y, f))
        if factors is None:
            raise SingularJacobian(point=(t, tuple(np.round(y, 6).tolist())))
        if jac_cache is not None:
            jac_cache.factors = factors
        step = _lu_solve(factors, -f)
        alpha = 1.0
        while alpha >= _MIN_STEP:
            y_new = y + alpha * step
            f_new = _vec(problem.residual(t, p, y_new))
            res_new = norm2(f_new)
            if math.isfinite(res_new) and res_new <= (1.0 - 1e-4 * alpha) * res:
                break
            alpha *= _DAMPING
        else:
            raise NoConvergence(it + 1, res, label="newton-linesearch")
        y, f, res = y_new, f_new, res_new
    if res <= tol:
        return y
    raise NoConvergence(_MAX_ITER, res, label="newton")


def solve_newton_columns(problem: ImplicitProblem, ts: np.ndarray,
                         params: Callable, y0: np.ndarray, tol: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on S independent systems at once, one per column.

    Column i solves F(ts[i], p_i, y) = 0 from y0[:, i] by `solve_newton`'s
    damped rule (same iteration cap, damping and shortest step, no kept
    Jacobian) until ||F|| <= tol[i].  The residual and `jac_y` take the
    columns idx stacked, residual(ts[idx], params(idx), Y) -> (k, len(idx))
    and jac_y(...) -> (len(idx), k, k), and only the columns still
    iterating are evaluated.  The singularity test is one stacked 1-norm
    condition number per iteration.

    Returns (Y, ok), ok[i] False where column i did not converge, or where
    its dF/dy turned numerically singular after its start.  Where some
    dF/dy is singular at its column's start, SingularJacobian is raised
    for the lowest such column.
    """
    y = np.array(y0, dtype=float)
    ok = np.zeros(y.shape[1], dtype=bool)
    act = np.arange(y.shape[1])
    if not act.size:
        return y, ok
    f = problem.residual(ts, params(act), y)
    res = column_norms(f)
    for it in range(_MAX_ITER):
        done = res <= tol[act]
        ok[act[done]] = True
        live = ~done & np.isfinite(res)
        act, f, res = act[live], f[:, live], res[live]
        if not act.size:
            break
        jac = problem.jac_y(ts[act], params(act), y[:, act])
        regular = np.linalg.cond(jac, 1) <= _COND_CAP
        if not regular.all():
            # only the first iteration evaluates dF/dy at the starts
            if it == 0:
                i = act[~regular][0]
                raise SingularJacobian(
                    point=(float(ts[i]), tuple(np.round(y[:, i], 6).tolist())))
            act, f, res = act[regular], f[:, regular], res[regular]
            jac = jac[regular]
            if not act.size:
                break
        step = np.linalg.solve(jac, -f.T[:, :, None])[:, :, 0].T
        # the line search, on the columns whose trial is not yet accepted
        alpha = np.ones(act.size)
        trial = np.arange(act.size)
        while trial.size:
            cols = act[trial]
            y_new = y[:, cols] + alpha[trial] * step[:, trial]
            f_new = problem.residual(ts[cols], params(cols), y_new)
            res_new = column_norms(f_new)
            accept = (np.isfinite(res_new)
                      & (res_new <= (1.0 - 1e-4 * alpha[trial]) * res[trial]))
            y[:, cols[accept]] = y_new[:, accept]
            f[:, trial[accept]] = f_new[:, accept]
            res[trial[accept]] = res_new[accept]
            alpha[trial[~accept]] *= _DAMPING
            trial = trial[~accept]
            trial = trial[alpha[trial] >= _MIN_STEP]
        # a column whose step shrank below the shortest one has failed
        keep = alpha >= _MIN_STEP
        act, f, res = act[keep], f[:, keep], res[keep]
    ok[act[res <= tol[act]]] = True
    return y, ok


def implicit_derivative(problem: ImplicitProblem, t: float, p,
                        y_solution) -> np.ndarray:
    """Time derivative of the solved branch: -(dF/dy)^{-1} dF/dt.

    dF/dt is taken by `_time_derivative`, holding y fixed.
    """
    y = _vec(y_solution)
    if problem.jac_y is not None:
        j = np.atleast_2d(np.asarray(problem.jac_y(t, p, y), dtype=float))
    else:
        j = fd_jacobian(lambda z: problem.residual(t, p, z), y)
    factors = _factor(j)
    if factors is None:
        raise SingularJacobian(point=(t,), message="dF/dy singular on branch")
    ft = _time_derivative(lambda tt: _vec(problem.residual(tt, p, y)), t)
    return _lu_solve(factors, -ft)
