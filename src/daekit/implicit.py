"""Nonlinear algebraic solvers for the constraint equations.

Two modes: an anchored fixed-point iteration (whose per-step contraction
estimates are reported, so a failed contraction hypothesis is visible), and
a damped Newton method with a fixed-point fallback, which can keep its
Jacobian's LU factors across the solves of one run.  Plus implicit
differentiation of a solved branch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._linalg import cond2, norm2
from .errors import NoConvergence, SingularJacobian

__all__ = ["ImplicitProblem", "SolveOptions", "JacobianCache",
           "solve_fixed_point", "solve_newton", "implicit_derivative",
           "consistent_initialize", "fd_jacobian"]


@dataclass
class ImplicitProblem:
    """Residual F(t, p, y) with optional derivatives and anchor operator."""

    residual: Callable
    jac_y: Callable | None = None
    jac_t: Callable | None = None
    anchor_W: np.ndarray | None = None


@dataclass
class SolveOptions:
    tol: float = 1e-12
    max_iter: int = 60
    damping: float = 0.5

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter >= 1")
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping factor must lie in (0, 1)")


@dataclass
class JacobianCache:
    """LU factors of dF/dy kept across the solves of one run.

    `factors` is the (lu, piv) pair of LAPACK getrf, or None before the
    first factorisation.  One cache belongs to one run: sharing it between
    runs would make a run's result depend on the runs before it.
    """

    factors: tuple | None = None


_MIN_STEP = 2.0 ** -20
# condition number above which a matrix counts as singular
_COND_CAP = 1e14
# a step with kept factors must cut ||F|| at least this many times
_KEPT_CONTRACTION = 4.0


def _vec(y) -> np.ndarray:
    # a float64 vector is returned as it is, as the general path would
    if type(y) is np.ndarray and y.dtype == np.float64 and y.ndim == 1:
        return y
    return np.atleast_1d(np.asarray(y, dtype=float))


def fd_jacobian(fun: Callable, y: np.ndarray, f0: np.ndarray | None = None,
                rel_step: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of fun at y."""
    y = _vec(y)
    n = y.size
    if f0 is None:
        f0 = _vec(fun(y))
    m = f0.size
    jac = np.empty((m, n))
    for k in range(n):
        h = rel_step * max(1.0, abs(y[k]))
        yp = y.copy(); yp[k] += h
        ym = y.copy(); ym[k] -= h
        jac[:, k] = (_vec(fun(yp)) - _vec(fun(ym))) / (2.0 * h)
    return jac


@functools.cache
def _lapack():
    """scipy's LAPACK wrappers, imported at the first Newton solve, so that
    importing daekit loads no scipy."""
    from scipy.linalg import lapack

    return lapack


def _factor(j: np.ndarray) -> tuple | None:
    """LU factors of j, or None when j is numerically singular: a zero pivot,
    or a 1-norm condition estimate (LAPACK gecon) above the cap."""
    lapack = _lapack()
    lu, piv, info = lapack.dgetrf(j)
    if info > 0:
        return None
    rcond, _ = lapack.dgecon(lu, np.linalg.norm(j, 1), norm="1")
    if not rcond * _COND_CAP >= 1.0:
        return None
    return lu, piv


def _lu_solve(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    x, _ = _lapack().dgetrs(*factors, rhs)
    return x


def solve_fixed_point(problem: ImplicitProblem, t: float, p, y0,
                      opts: SolveOptions | None = None,
                      history: list | None = None) -> np.ndarray:
    """Anchored iteration y <- y - W^{-1} F(t, p, y).

    Per-step contraction estimates ||dy_k|| / ||dy_{k-1}|| are recorded in
    `history` when given; an estimate >= 1 at failure signals that the
    contraction hypothesis does not hold near this point.
    """
    opts = opts or SolveOptions()
    if problem.anchor_W is None:
        raise ValueError("fixed-point mode requires an anchor operator")
    w = np.atleast_2d(np.asarray(problem.anchor_W, dtype=float))
    if cond2(w) > _COND_CAP:
        raise SingularJacobian(point=(t,), message="anchor operator singular")
    y = _vec(y0).copy()
    prev_step = None
    contraction = None
    for it in range(opts.max_iter):
        f = _vec(problem.residual(t, p, y))
        res = float(np.linalg.norm(f))
        if history is not None:
            history.append({"iter": it, "residual": res,
                            "contraction": contraction})
        if res <= opts.tol:
            return y
        if not np.isfinite(res) or res > 1e100:
            raise NoConvergence(it + 1, res, contraction, label="fixed_point")
        step = np.linalg.solve(w, f)
        if prev_step is not None and prev_step > 0:
            contraction = float(np.linalg.norm(step)) / prev_step
        prev_step = float(np.linalg.norm(step))
        y = y - step
        if not np.all(np.isfinite(y)):
            raise NoConvergence(it + 1, res, contraction, label="fixed_point")
    f = _vec(problem.residual(t, p, y))
    raise NoConvergence(opts.max_iter, float(np.linalg.norm(f)),
                        contraction, label="fixed_point")


def solve_newton(problem: ImplicitProblem, t: float, p, y0,
                 opts: SolveOptions | None = None,
                 history: list | None = None,
                 jac_cache: JacobianCache | None = None) -> np.ndarray:
    """Damped Newton with backtracking line search on ||F||.

    Each Jacobian is LU-factored once.  Falls back to the anchored
    fixed-point iteration when the Jacobian is numerically singular at an
    iterate and an anchor is available; otherwise raises SingularJacobian.

    With `jac_cache` the solve first reuses the factors kept there
    (simplified Newton, Hairer & Wanner, Solving ODEs II, IV.8): a full step
    with them is kept when it cuts ||F|| at least 4x.  Otherwise the
    Jacobian is evaluated and factored at the current iterate, stored in the
    cache, and the solve goes on as damped Newton.
    """
    opts = opts or SolveOptions()
    y = _vec(y0).copy()
    kept = jac_cache.factors if jac_cache is not None else None

    def jac(yv, f0):
        if problem.jac_y is not None:
            return np.atleast_2d(np.asarray(problem.jac_y(t, p, yv), dtype=float))
        return fd_jacobian(lambda z: problem.residual(t, p, z), yv, f0)

    f = _vec(problem.residual(t, p, y))
    res = norm2(f)
    for it in range(opts.max_iter):
        if history is not None:
            history.append({"iter": it, "residual": res})
        if res <= opts.tol:
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
            if problem.anchor_W is not None:
                return solve_fixed_point(problem, t, p, y, opts, history)
            raise SingularJacobian(point=(t, tuple(np.round(y, 6))))
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
            alpha *= opts.damping
        else:
            raise NoConvergence(it + 1, res, label="newton-linesearch")
        y, f, res = y_new, f_new, res_new
    if res <= opts.tol:
        return y
    raise NoConvergence(opts.max_iter, res, label="newton")


def implicit_derivative(problem: ImplicitProblem, t: float, p,
                        y_solution, cross_check: bool = False,
                        check_rtol: float = 1e-4) -> np.ndarray:
    """Time derivative of the solved branch: -(dF/dy)^{-1} dF/dt.

    When no analytic dF/dt is supplied it is taken by central differences
    with step max(1e-6, 1e-6*|t|), holding y fixed.  With `cross_check` the
    result is compared against a finite difference of the re-solved branch
    and a mismatch beyond `check_rtol` raises.
    """
    y = _vec(y_solution)
    if problem.jac_y is not None:
        j = np.atleast_2d(np.asarray(problem.jac_y(t, p, y), dtype=float))
    else:
        j = fd_jacobian(lambda z: problem.residual(t, p, z), y)
    if cond2(j) > _COND_CAP:
        raise SingularJacobian(point=(t,), message="dF/dy singular on branch")
    if problem.jac_t is not None:
        ft = _vec(problem.jac_t(t, p, y))
    else:
        h = max(1e-6, 1e-6 * abs(t))
        ft = (_vec(problem.residual(t + h, p, y))
              - _vec(problem.residual(t - h, p, y))) / (2.0 * h)
    out = np.linalg.solve(j, -ft)
    if cross_check:
        hb = max(1e-5, 1e-5 * abs(t))
        yp = solve_newton(problem, t + hb, p, y)
        ym = solve_newton(problem, t - hb, p, y)
        fd = (yp - ym) / (2.0 * hb)
        scale = max(1.0, float(np.abs(fd).max()))
        if float(np.abs(out - fd).max()) > check_rtol * scale:
            raise NoConvergence(1, float(np.abs(out - fd).max()),
                                label="implicit-derivative cross-check")
    return out


def consistent_initialize(reduced, t0: float, x_guess,
                          tol: float | None = None) -> np.ndarray:
    """Project a guess onto the constraint manifold of a reduced system.

    Dispatches to the reduction object: the explicit components of the
    guess are kept and the algebraic components are solved for.
    """
    return reduced.consistent_point(t0, np.asarray(x_guess, dtype=float),
                                    tol=tol)
