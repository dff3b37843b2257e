"""Nonlinear algebraic solver for the constraint equations.

Damped Newton on a condition-checked Jacobian, which can be kept across the
solves of one run: a numerically singular Jacobian raises SingularJacobian,
the sign that the level's algebraic part is not uniquely solvable there.
Plus implicit differentiation of a solved branch.

The singularity test, an LU factorisation with partial pivoting and a 1-norm
condition estimate, is plain Python over lists of floats, as the level
equations are small; the solves are a division or numpy's LAPACK.  This
module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._linalg import cond2, norm2
from .errors import NoConvergence, SingularJacobian

__all__ = ["ImplicitProblem", "JacobianCache", "solve_newton",
           "implicit_derivative", "consistent_initialize", "fd_jacobian"]


@dataclass
class ImplicitProblem:
    """Residual F(t, p, y) with optional derivatives."""

    residual: Callable
    jac_y: Callable | None = None
    jac_t: Callable | None = None


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


def _factor(j: np.ndarray) -> float | np.ndarray | None:
    """j in the form that `_lu_solve` keeps, or None when j is numerically
    singular: a non-finite entry, a zero pivot, or a 1-norm condition
    estimate above the cap.

    The test factors j with partial pivoting and estimates ||j^-1||_1 from
    the factors, in Python floats: the levels are small (dimension 1 or 2
    on every bundled problem), where that beats the per-call overhead of
    numpy.  Kept is the one entry of a 1x1 j, or a copy of j.
    """
    rows = j.tolist()
    n = len(rows)
    col_sums = [0.0] * n
    for row in rows:
        for k in range(n):
            col_sums[k] += abs(row[k])
    # NaN and inf propagate into the sum; an overflowing sum means an
    # infinite 1-norm, singular all the same
    if not math.isfinite(sum(col_sums)):
        return None
    factors = _lu(rows)
    if factors is None or not max(col_sums) * _inv_norm1(factors) <= _COND_CAP:
        return None
    return factors[0][0][0] if n == 1 else j.copy()


def _lu(rows: list) -> tuple | None:
    """LU factors with partial pivoting of the matrix given as a list of
    rows, which is overwritten, or None at a zero pivot.

    The factors are (lu, perm): the rows of L (unit diagonal, not stored)
    and U in one list of row lists, and the original index of each row.
    """
    n = len(rows)
    perm = list(range(n))
    for k in range(n):
        p, big = k, abs(rows[k][k])
        for i in range(k + 1, n):
            if abs(rows[i][k]) > big:
                p, big = i, abs(rows[i][k])
        if big == 0.0:
            return None
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            perm[k], perm[p] = perm[p], perm[k]
        top = rows[k]
        for i in range(k + 1, n):
            row = rows[i]
            m = row[k] / top[k]
            row[k] = m
            for c in range(k + 1, n):
                row[c] -= m * top[c]
    return rows, perm


def _solve(factors: tuple, b: list) -> list:
    """Solution of A x = b from the factors of A, as a list."""
    lu, perm = factors
    n = len(lu)
    x = [b[p] for p in perm]
    for i in range(n):
        row = lu[i]
        s = x[i]
        for k in range(i):
            s -= row[k] * x[k]
        x[i] = s
    for i in range(n - 1, -1, -1):
        row = lu[i]
        s = x[i]
        for k in range(i + 1, n):
            s -= row[k] * x[k]
        x[i] = s / row[i]
    return x


def _solve_transposed(factors: tuple, b: list) -> list:
    """Solution of A^T x = b from the factors of A, as a list."""
    lu, perm = factors
    n = len(lu)
    y = list(b)
    for i in range(n):
        s = y[i]
        for k in range(i):
            s -= lu[k][i] * y[k]
        y[i] = s / lu[i][i]
    for i in range(n - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, n):
            s -= lu[k][i] * y[k]
        y[i] = s
    x = [0.0] * n
    for i, p in enumerate(perm):
        x[p] = y[i]
    return x


def _inv_norm1(factors: tuple) -> float:
    """Lower estimate of ||A^-1||_1 from the factors of A: Hager's method
    with Higham's refinements (Hager 1984, SISC 5:311; Higham 1988, ACM
    TOMS 14:381, Algorithm 4.1), the estimator of LAPACK's gecon.  Each
    candidate is ||A^-1 x||_1 for some x with ||x||_1 = 1, so in exact
    arithmetic the estimate never exceeds the norm."""
    lu = factors[0]
    n = len(lu)
    if n == 1:
        # the first candidate, |1/a|, is the norm itself
        return abs(1.0 / lu[0][0])
    x = _solve(factors, [1.0 / n] * n)
    est = sum(map(abs, x))
    sign = [1.0 if v >= 0.0 else -1.0 for v in x]
    z = _solve_transposed(factors, sign)
    j = max(range(n), key=lambda i: abs(z[i]))
    for _ in range(4):
        unit = [0.0] * n
        unit[j] = 1.0
        x = _solve(factors, unit)
        old, est = est, sum(map(abs, x))
        new_sign = [1.0 if v >= 0.0 else -1.0 for v in x]
        # a repeated sign vector or no growth: the iteration has converged
        if new_sign == sign or est <= old:
            est = max(est, old)
            break
        sign = new_sign
        z = _solve_transposed(factors, sign)
        j_last, j = j, max(range(n), key=lambda i: abs(z[i]))
        if abs(z[j_last]) == abs(z[j]):
            break
    # Higham's extra vector, for matrices on which the iteration stalls
    alt = _solve(factors, [(1.0 if i % 2 == 0 else -1.0) * (1.0 + i / (n - 1))
                           for i in range(n)])
    return max(est, 2.0 * sum(map(abs, alt)) / (3.0 * n))


def _lu_solve(factors: float | np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solution of j x = rhs for j in the form `_factor` keeps.

    At dimension 1 it is the division rhs / a.  Above, it is numpy's LAPACK
    gesv, which factors j again on each call: OpenBLAS's getf2 and getrs
    round differently from `_lu` and `_solve` (a reciprocal of the pivot,
    fused multiply-adds), and gesv keeps the bits of the getrf + getrs pair
    that the solves used before (checked for dimensions 2 to 5).
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
    once; a numerically singular one (non-finite entry, zero pivot, or
    condition estimate above 1e14) raises SingularJacobian.  Each iterate's
    residual norm is appended to `history` when given.

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
            alpha *= _DAMPING
        else:
            raise NoConvergence(it + 1, res, label="newton-linesearch")
        y, f, res = y_new, f_new, res_new
    if res <= tol:
        return y
    raise NoConvergence(_MAX_ITER, res, label="newton")


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
