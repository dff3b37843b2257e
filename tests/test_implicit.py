import numpy as np
import pytest

from daekit import (ImplicitProblem, NoConvergence, SingularJacobian,
                    SolveOptions, consistent_initialize, implicit_derivative,
                    reduce_cascade, reduce_first, solve_fixed_point,
                    solve_newton)
from daekit.problems import load_builtin


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


def scalar_problem(fun, jac=None, anchor=None):
    return ImplicitProblem(
        residual=lambda t, p, y: np.array([fun(float(y[0]))]),
        jac_y=(None if jac is None
               else lambda t, p, y: np.array([[jac(float(y[0]))]])),
        anchor_W=anchor)


def test_fixed_point_one_step():
    prob = scalar_problem(lambda y: y - 3.5, anchor=np.array([[1.0]]))
    y = solve_fixed_point(prob, 0.0, None, np.zeros(1))
    assert abs(y[0] - 3.5) < 1e-12


def test_fixed_point_cubic_vs_bisection():
    # anchor at the derivative near the root
    w = 3 * 0.6 ** 2 + 1.0
    prob = scalar_problem(lambda y: y ** 3 + y - 1.0,
                          anchor=np.array([[w]]))
    hist = []
    y = solve_fixed_point(prob, 0.0, None, np.zeros(1),
                          SolveOptions(tol=1e-13),
                          history=hist)
    assert abs(y[0] - CUBIC_ROOT) < 1e-10
    assert abs(y[0] - 0.6823278) < 1e-6
    assert len(hist) >= 2  # contraction estimates recorded


def test_fixed_point_no_real_root():
    prob = scalar_problem(lambda y: y ** 2 + 1.0, anchor=np.array([[2.0]]))
    with pytest.raises(NoConvergence) as err:
        solve_fixed_point(prob, 0.0, None, np.zeros(1))
    assert err.value.last_residual > 0


def test_newton_cubic_with_quadratic_tail():
    hist = []
    prob = scalar_problem(lambda y: y ** 3 + y - 1.0,
                          jac=lambda y: 3 * y ** 2 + 1.0)
    y = solve_newton(prob, 0.0, None, np.zeros(1),
                     SolveOptions(tol=1e-14), history=hist)
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
    # singular, and there is no anchor to fall back to
    prob = scalar_problem(lambda y: y ** 2 + 1.0, jac=lambda y: 2 * y)
    with pytest.raises(SingularJacobian):
        solve_newton(prob, 0.0, None, np.zeros(1))
    # on the doubly degenerate root itself the damped iteration still
    # drives the residual below tolerance (the root converges at sqrt-rate)
    prob2 = scalar_problem(lambda y: y ** 2, jac=lambda y: 2 * y)
    y = solve_newton(prob2, 0.0, None, np.ones(1), SolveOptions(tol=1e-12))
    assert y[0] ** 2 <= 1e-12


def test_newton_falls_back_to_anchor():
    def fun(t, p, y):
        return np.array([y[0] ** 3 - 0.001, y[1] + y[0]])

    def jac(t, p, y):
        return np.array([[3 * y[0] ** 2, 0.0], [1.0, 1.0]])

    prob = ImplicitProblem(residual=fun, jac_y=jac,
                           anchor_W=np.array([[0.03, 0.0], [1.0, 1.0]]))
    y = solve_newton(prob, 0.0, None, np.zeros(2), SolveOptions(tol=1e-12))
    assert abs(y[0] - 0.1) < 1e-6 and abs(y[1] + 0.1) < 1e-6


def test_modes_agree_on_shared_corpus():
    # scalar and 2-d residuals with known-by-oracle roots
    cases = []
    for c in (0.5, 1.0, 2.0, 5.0):
        root = bisect_root(lambda y, c=c: y ** 3 + y - c, 0.0, 3.0, 1e-14)
        cases.append((
            lambda t, p, y, c=c: np.array([y[0] ** 3 + y[0] - c]),
            lambda t, p, y: np.array([[3 * y[0] ** 2 + 1.0]]),
            np.array([[3 * root ** 2 + 1.0]]), np.zeros(1),
            np.array([root])))
    cases.append((
        lambda t, p, y: np.array([y[0] + 0.1 * np.sin(y[1]) - 1.0,
                                  y[1] + 0.1 * y[0] ** 2 - 2.0]),
        None, np.eye(2), np.zeros(2), None))
    for fun, jac, anchor, y0, oracle in cases:
        prob = ImplicitProblem(residual=fun, jac_y=jac, anchor_W=anchor)
        y_newton = solve_newton(prob, 0.0, None, y0, SolveOptions(tol=1e-13))
        y_fixed = solve_fixed_point(prob, 0.0, None, y0,
                                    SolveOptions(tol=1e-13))
        assert np.abs(y_newton - y_fixed).max() < 1e-9
        if oracle is not None:
            assert np.abs(y_newton - oracle).max() < 1e-9


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


def test_implicit_derivative_cross_check_flag():
    prob = ImplicitProblem(
        residual=lambda t, p, y: np.array([y[0] ** 3 + y[0] - t]),
        jac_y=lambda t, p, y: np.array([[3 * y[0] ** 2 + 1.0]]))
    y1 = np.array([CUBIC_ROOT])
    d = implicit_derivative(prob, 1.0, None, y1, cross_check=True)
    assert abs(d[0] - 1.0 / (3 * CUBIC_ROOT ** 2 + 1.0)) < 1e-8
    # a wrong time derivative makes the cross-check fire
    bad = ImplicitProblem(residual=prob.residual, jac_y=prob.jac_y,
                          jac_t=lambda t, p, y: np.array([2.0]))
    with pytest.raises(NoConvergence):
        implicit_derivative(bad, 1.0, None, y1, cross_check=True)


def test_implicit_derivative_constant_branch():
    prob = ImplicitProblem(residual=lambda t, p, y: y - 2.0)
    d = implicit_derivative(prob, 0.3, None, np.array([2.0]))
    assert abs(d[0]) < 1e-9


def test_consistent_initialize_blowup_fixture():
    red = reduce_first(load_builtin("index1_blowup").dae)
    x0 = consistent_initialize(red, 0.0, np.array([1.0, 0.0]))
    np.testing.assert_allclose(x0, [1.0, 1.0], atol=1e-12)
    assert red.residual_L0(0.0, x0) <= 1e-10
    again = consistent_initialize(red, 0.0, x0)
    assert np.abs(again - x0).max() <= 1e-10  # idempotent


def test_consistent_initialize_zero_field():
    from daekit.problems import make_dae
    from daekit.reduction import NonlinearField
    fld = NonlinearField(eval=lambda t, x: np.zeros(2))
    dae = make_dae(np.diag([1.0, 0.0]), np.eye(2), fld)
    red = reduce_first(dae)
    x0 = consistent_initialize(red, 0.0, np.array([0.7, 0.4]))
    np.testing.assert_allclose(x0, dae.projectors.p1 @ np.array([0.7, 0.4]),
                               atol=1e-12)


def test_consistent_initialize_cascade_levels():
    pb = load_builtin("index2_structured")
    red = reduce_cascade(pb.dae, waive_structure_check=True)
    x0 = consistent_initialize(red, 0.0, pb.x_guess)
    assert red.residual_L0(0.0, x0) <= 1e-10
    # the chain level is scalar linear: x3 solves x3 = 0.5 x3 + 0.8 sin t
    assert abs(x0[2] - 1.6 * np.sin(0.0)) < 1e-12
    again = consistent_initialize(red, 0.0, x0)
    assert np.abs(again - x0).max() <= 1e-10
