import warnings
from fractions import Fraction

import numpy as np
import pytest

from daekit import implicit
from daekit import (ImplicitProblem, InconsistentInitialValue, JacobianCache,
                    SingularJacobian, implicit_derivative, reduce_cascade,
                    reduce_first, solve_newton, solve_newton_columns)
from daekit._linalg import norm2
from daekit.problems import load_builtin
from test_reduction import misdeclared_index2


def bisect_root(fun, lo, hi, tol=1e-12):
    """Independent oracle: plain bisection for a sign-changing scalar."""
    flo = fun(lo)
    assert flo * fun(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * fun(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = fun(lo)
    return 0.5 * (lo + hi)


CUBIC_ROOT = bisect_root(lambda y: y ** 3 + y - 1.0, 0.0, 1.0, tol=1e-14)


def scalar_problem(fun, jac=None):
    return ImplicitProblem(
        residual=lambda t, p, y: np.array([fun(float(y[0]))]),
        jac_y=(None if jac is None
               else lambda t, p, y: np.array([[jac(float(y[0]))]])))


def test_newton_cubic_with_quadratic_tail():
    hist = []
    prob = scalar_problem(lambda y: y ** 3 + y - 1.0,
                          jac=lambda y: 3 * y ** 2 + 1.0)
    y = solve_newton(prob, 0.0, None, np.zeros(1),
                     1e-14, history=hist)
    assert abs(y[0] - CUBIC_ROOT) < 1e-10
    res = [h["residual"] for h in hist if h["residual"] > 0]
    # quadratic tail: each contraction above the fp floor squares the scale
    assert res[-2] < res[-3] ** 1.5


def test_newton_linear_exact_in_one_step():
    k = np.array([[2.0, 1.0], [0.0, 3.0]])
    b = np.array([1.0, 6.0])
    prob = ImplicitProblem(residual=lambda t, p, y: k @ y - b,
                           jac_y=lambda t, p, y: k)
    hist = []
    y = solve_newton(prob, 0.0, None, np.zeros(2), history=hist)
    np.testing.assert_allclose(k @ y, b, atol=1e-12)
    assert len(hist) <= 2


def test_newton_degenerate_root():
    # derivative vanishes at the start while the residual does not:
    # singular, so SingularJacobian
    prob = scalar_problem(lambda y: y ** 2 + 1.0, jac=lambda y: 2 * y)
    with pytest.raises(SingularJacobian) as info:
        solve_newton(prob, 0.0, None, np.zeros(1))
    # plain floats, whatever the numpy version's scalar repr
    assert str(info.value) == "singular jacobian at (0.0, (0.0,))"
    # on the doubly degenerate root itself the damped iteration still
    # drives the residual below tolerance (the root converges at sqrt-rate)
    prob2 = scalar_problem(lambda y: y ** 2, jac=lambda y: 2 * y)
    y = solve_newton(prob2, 0.0, None, np.ones(1), 1e-12)
    assert y[0] ** 2 <= 1e-12


def counted(jac):
    calls = []

    def wrapped(t, p, y):
        calls.append(y.copy())
        return jac(t, p, y)
    return wrapped, calls


def test_kept_factors_reused_for_constant_jacobian():
    k = np.array([[2.0, 1.0], [0.0, 3.0]])
    jac, calls = counted(lambda t, p, y: k)
    prob = ImplicitProblem(residual=lambda t, p, y: k @ y - p, jac_y=jac)
    cache = JacobianCache()
    solve_newton(prob, 0.0, np.array([1.0, 6.0]), np.zeros(2),
                 jac_cache=cache)
    assert len(calls) == 1 and cache.factors is not None
    rhs = np.array([-2.0, 4.5])
    kept = solve_newton(prob, 0.0, rhs, np.zeros(2), jac_cache=cache)
    assert len(calls) == 1  # the kept factors did the whole solve
    fresh = solve_newton(prob, 0.0, rhs, np.zeros(2))
    assert np.array_equal(kept, fresh)


def test_kept_factors_refreshed_on_slow_contraction():
    def problem(jac):
        return ImplicitProblem(
            residual=lambda t, p, y: np.array([y[0] ** 3 + y[0] - p]),
            jac_y=jac)

    def slope(t, p, y):
        return np.array([[3 * y[0] ** 2 + 1.0]])

    jac, calls = counted(slope)
    cache = JacobianCache()
    tol = 1e-13
    # factors taken at the distant root y = 10 (slope 301 against 1 at y = 0)
    solve_newton(problem(jac), 0.0, 1010.0, np.array([10.0]), tol,
                 jac_cache=cache)
    calls.clear()
    y = solve_newton(problem(jac), 0.0, 1.0, np.zeros(1), tol,
                     jac_cache=cache)
    assert calls and calls[0][0] == 0.0  # refreshed where the kept step failed
    assert abs(y[0] ** 3 + y[0] - 1.0) <= 1e-13
    uncached = solve_newton(problem(slope), 0.0, 1.0, np.zeros(1), tol)
    assert abs(y[0] - uncached[0]) < 1e-10
    assert abs(y[0] - CUBIC_ROOT) < 1e-10
    # a nearby right-hand side converges on the kept factors alone
    calls.clear()
    y2 = solve_newton(problem(jac), 0.0, 1.001, y, tol, jac_cache=cache)
    assert not calls and abs(y2[0] ** 3 + y2[0] - 1.001) <= 1e-13


@pytest.mark.parametrize("j, b", [
    (np.diag([1.0, 1e-16]), np.array([1.0, 0.0])),
    (np.ones((2, 2)), np.ones(2)),
    (np.zeros((2, 2)), np.ones(2)),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)),
    (np.array([[1.0, 0.0], [np.inf, 1.0]]), np.ones(2))])
def test_newton_singular_jacobian(j, b):
    # an ill-conditioned matrix, exact zero pivots and non-finite entries;
    # the residual stays finite, so only the Jacobian can stop the solve
    assert JacobianCache().factor_solve(j, b) is None
    prob = ImplicitProblem(residual=lambda t, p, y: y - b,
                           jac_y=lambda t, p, y: j)
    with pytest.raises(SingularJacobian):
        solve_newton(prob, 0.0, None, np.zeros(2), jac_cache=JacobianCache())


@pytest.mark.parametrize("n", range(1, 9))
def test_lu_solve_matches_numpy(n):
    # the solve of a chain level, whose cache keeps j for its next solve
    rng = np.random.default_rng(n)
    for _ in range(20):
        j = rng.standard_normal((n, n))
        rhs = rng.standard_normal(n)
        cache = JacobianCache()
        got = cache.factor_solve(j, rhs)
        want = np.linalg.solve(j, rhs)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert np.array_equal(implicit._lu_solve(cache.factors, rhs), got)


def test_lu_solve_at_dimension_one_is_a_division():
    rng = np.random.default_rng(11)
    scales = 10.0 ** rng.integers(-150, 150, 2000)
    for a, r in zip(rng.standard_normal(2000) * scales,
                    rng.standard_normal(2000)):
        j, rhs = np.array([[a]]), np.array([r])
        assert implicit._lu_solve(implicit._factor(j), rhs)[0] == r / a


def _exact_inverse_norm1(j):
    """||j^-1||_1 by Gauss-Jordan elimination in exact rational
    arithmetic on the float entries of j."""
    n = j.shape[0]
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == k))
                                          for k in range(n)]
            for i, row in enumerate(j.tolist())]
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k][k]
        rows[k] = [v / pivot for v in rows[k]]
        for i in range(n):
            if i != k and rows[i][k] != 0:
                m = rows[i][k]
                rows[i] = [a - m * b for a, b in zip(rows[i], rows[k])]
    return float(max(sum(abs(rows[i][n + c]) for i in range(n))
                     for c in range(n)))


# matrices at the ends of the float range, and whether they are singular:
# a subnormal scalar (its reciprocal overflows), the smallest normal ones,
# and a 1-norm that overflows
_SINGULARITY_EDGES = {
    1: [(np.array([[5e-324]]), True), (np.array([[-5e-324]]), True),
        (np.array([[1.5e-308]]), False), (np.array([[-2.3e-308]]), False)],
    2: [(np.full((2, 2), 1e308), True)],
}


@pytest.mark.parametrize("n", range(1, 9))
def test_singularity_decision_matches_exact_condition_number(n):
    rng = np.random.default_rng(100 + n)
    cases = list(_SINGULARITY_EDGES.get(n, []))
    if n == 1:
        # kappa_1 of a nonzero normal scalar is 1
        cases += [(np.array([[a]]), False) for a in
                  rng.standard_normal(20) * 10.0 ** rng.integers(-300, 300, 20)]
    while len(cases) < 20:
        # Q diag(d) with d in [1, 4] is well conditioned; scaling its
        # columns by powers of two sets kappa_1 while the inverse numpy
        # computes stays an exact scaling of a well-conditioned one, so the
        # decision is tested, not the rounding of an ill-conditioned inverse
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        j = q * rng.uniform(1.0, 4.0, n) * 2.0 ** rng.integers(-26, 27, n)
        kappa = np.abs(j).sum(axis=0).max() * _exact_inverse_norm1(j)
        if 1e12 <= kappa <= 1e16 and abs(kappa / 1e14 - 1.0) > 1e-6:
            cases.append((j, kappa > 1e14))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j, singular in cases:
            assert (implicit._factor(j) is None) == singular, j


def test_implicit_derivative_singular_branch():
    # y^2 = t has the two branches +-sqrt(t), which meet at y = 0, t = 0
    # with dF/dy = 2y = 0; analytic and finite-difference Jacobians alike
    for jac in (lambda t, p, y: np.array([[2.0 * y[0]]]), None):
        prob = ImplicitProblem(residual=lambda t, p, y: y ** 2 - t,
                               jac_y=jac)
        with pytest.raises(SingularJacobian):
            implicit_derivative(prob, 0.0, None, np.zeros(1))


@pytest.mark.parametrize("tol", [0.0, -1e-12])
def test_newton_rejects_non_positive_tol(tol):
    prob = ImplicitProblem(residual=lambda t, p, y: y - 1.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_newton(prob, 0.0, None, np.zeros(1), tol)


def cardano_root(c):
    """Independent oracle: the real root of y^3 + y - c in closed form."""
    s = np.sqrt(c ** 2 / 4 + 1 / 27)
    return np.cbrt(c / 2 + s) + np.cbrt(c / 2 - s)


def test_newton_against_independent_oracles():
    from scipy.optimize import fsolve
    for c in (0.5, 1.0, 2.0, 5.0):
        prob = scalar_problem(lambda y, c=c: y ** 3 + y - c,
                              jac=lambda y: 3 * y ** 2 + 1.0)
        y = solve_newton(prob, 0.0, None, np.zeros(1), 1e-13)
        assert abs(y[0] - cardano_root(c)) < 1e-9

    def fun(y):
        return np.array([y[0] + 0.1 * np.sin(y[1]) - 1.0,
                         y[1] + 0.1 * y[0] ** 2 - 2.0])

    # finite-difference Jacobian on the Newton side, MINPACK hybrd on the
    # reference side
    prob = ImplicitProblem(residual=lambda t, p, y: fun(y))
    y = solve_newton(prob, 0.0, None, np.zeros(2), 1e-13)
    ref = fsolve(fun, np.zeros(2), xtol=1e-14)
    assert np.abs(fun(ref)).max() < 1e-12
    assert np.abs(y - ref).max() < 1e-9


def test_implicit_derivative_explicit_branch():
    prob = ImplicitProblem(residual=lambda t, p, y: y - np.sin(t))
    d = implicit_derivative(prob, 0.0, None, np.array([0.0]))
    assert abs(d[0] - 1.0) < 1e-8


def test_implicit_derivative_cubic_branch():
    prob = ImplicitProblem(
        residual=lambda t, p, y: np.array([y[0] ** 3 + y[0] - t]),
        jac_y=lambda t, p, y: np.array([[3 * y[0] ** 2 + 1.0]]))
    y1 = CUBIC_ROOT
    d = implicit_derivative(prob, 1.0, None, np.array([y1]))
    assert abs(d[0] - 1.0 / (3 * y1 ** 2 + 1.0)) < 1e-8
    assert abs(d[0] - 0.4175) < 5e-4
    # cross-check against finite differences of the solved branch
    h = 1e-5
    yp = bisect_root(lambda y: y ** 3 + y - (1.0 + h), 0.0, 2.0, 1e-14)
    ym = bisect_root(lambda y: y ** 3 + y - (1.0 - h), 0.0, 2.0, 1e-14)
    assert abs(d[0] - (yp - ym) / (2 * h)) < 1e-4 * abs(d[0])


def test_implicit_derivative_constant_branch():
    prob = ImplicitProblem(residual=lambda t, p, y: y - 2.0)
    d = implicit_derivative(prob, 0.3, None, np.array([2.0]))
    assert abs(d[0]) < 1e-9


def test_consistent_initialize_blowup_fixture():
    red = reduce_first(load_builtin("index1_blowup").dae)
    x0 = red.consistent_point(0.0, np.array([1.0, 0.0]))
    np.testing.assert_allclose(x0, [1.0, 1.0], atol=1e-12)
    assert red.residual_L0(0.0, x0) <= 1e-10
    again = red.consistent_point(0.0, x0)
    assert np.abs(again - x0).max() <= 1e-10  # idempotent


def test_consistent_initialize_zero_field():
    from daekit.problems import make_dae
    from daekit.reduction import NonlinearField
    fld = NonlinearField(eval=lambda t, x: np.zeros(2))
    dae = make_dae(np.diag([1.0, 0.0]), np.eye(2), fld)
    red = reduce_first(dae)
    x0 = red.consistent_point(0.0, np.array([0.7, 0.4]))
    np.testing.assert_allclose(x0, dae.projectors.p1 @ np.array([0.7, 0.4]),
                               atol=1e-12)


def test_consistent_initialize_cascade_levels():
    pb = load_builtin("index2_structured")
    red = reduce_cascade(pb.dae, waive_structure_check=True)
    x0 = red.consistent_point(0.0, pb.x_guess)
    assert red.residual_L0(0.0, x0) <= 1e-10
    # the chain level is scalar linear: x3 solves x3 = 0.5 x3 + 0.8 sin t
    assert abs(x0[2] - 1.6 * np.sin(0.0)) < 1e-12
    again = red.consistent_point(0.0, x0)
    assert np.abs(again - x0).max() <= 1e-10


def test_consistent_point_off_the_manifold_raises():
    # a dependence of the chain row on x1 below the structure check's
    # tolerance: the check passes, and the levels cannot bring the start
    # onto L0
    dae, pb = misdeclared_index2(1e-8, 0)
    with pytest.raises(InconsistentInitialValue) as err:
        reduce_first(dae).consistent_point(0.0, pb.x_guess)
    assert err.value.residual > err.value.tol


def test_norm2_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(7)
    vectors = [s * rng.standard_normal(n) for n in (1, 2, 3, 7, 64, 1000)
               for s in (1e-200, 1e-3, 1.0, 1e150)]
    vectors += [np.zeros(0), np.array([np.inf, 1.0]), np.array([-np.inf]),
                np.array([np.nan, 2.0]), np.array([1e200, -1e200]),
                np.array([1.3e154, 1.3e154])]
    with np.errstate(over="ignore"):
        for v in vectors:
            got = np.float64(norm2(v)).tobytes()
            assert got == np.float64(np.linalg.norm(v)).tobytes(), v


# -- stacked Newton -----------------------------------------------------------

def _arctan_problems():
    """arctan(y - p) = 0 for one system and for a stack of columns: from
    y = 0 a full Newton step overshoots where |p| > 1.39, so those columns
    need the line search."""
    def residual(t, p, y):
        return np.arctan(y - p)

    def slope(p, y):
        return 1.0 / (1.0 + (y - p) ** 2)

    return (ImplicitProblem(residual, lambda t, p, y: slope(p, y)[:, None]),
            ImplicitProblem(residual,
                            lambda t, p, y: slope(p, y).T[:, :, None]))


def test_stacked_newton_damps_each_column_as_solve_newton_does():
    single, stacked = _arctan_problems()
    targets = np.linspace(-6.0, 6.0, 25)
    roots, damped = [], []
    for p in targets:
        history, calls = [], [0]

        def counted(t, p, y, fun=single.residual):
            calls[0] += 1
            return fun(t, p, y)

        roots.append(solve_newton(ImplicitProblem(counted, single.jac_y), 0.0,
                                  p, np.zeros(1), 1e-12, history)[0])
        # an undamped solve makes one residual per history entry
        damped.append(calls[0] > len(history))
    assert any(damped) and not all(damped)
    y, ok = solve_newton_columns(stacked, np.zeros(25),
                                 lambda idx: targets[idx][None, :],
                                 np.zeros((1, 25)), np.full(25, 1e-12))
    assert ok.all()
    np.testing.assert_allclose(y[0], roots, rtol=0.0, atol=1e-12)


def test_stacked_newton_drops_a_column_without_a_root():
    # y^2 - 2y + p = 0 has no real root for p > 1, and Newton there stalls
    # near the vertex y = 1 until its line search gives up; the other
    # columns converge
    problem = ImplicitProblem(lambda t, p, y: y ** 2 - 2.0 * y + p,
                              lambda t, p, y: (2.0 * y - 2.0).T[:, :, None])
    ps = np.array([0.5, 2.3, -3.0])
    y, ok = solve_newton_columns(problem, np.zeros(3),
                                 lambda idx: ps[idx][None, :],
                                 np.zeros((1, 3)), np.full(3, 1e-12))
    assert ok.tolist() == [True, False, True]
    np.testing.assert_allclose(y[0, ok], 1.0 - np.sqrt(1.0 - ps[ok]),
                               rtol=1e-12)


def test_stacked_newton_raises_for_the_first_singular_column():
    # dF/dy = y - p vanishes at the start y = 0 where p = 0
    problem = ImplicitProblem(lambda t, p, y: 0.5 * (y - p) ** 2 - 1.0,
                              lambda t, p, y: (y - p).T[:, :, None])
    ps = np.array([1.0, 0.0, 2.0, 0.0])
    with pytest.raises(SingularJacobian) as err:
        solve_newton_columns(problem, np.array([0.0, 1.0, 2.0, 3.0]),
                             lambda idx: ps[idx][None, :],
                             np.zeros((1, 4)), np.full(4, 1e-12))
    assert err.value.point == (1.0, (0.0,))
