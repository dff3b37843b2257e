import dataclasses
import json

import numpy as np
import pytest
from scipy.linalg import expm

from daekit import (InconsistentInitialValue, IntegrationOptions,
                    NonlinearField, StructureTag, TrajectoryInternals,
                    classify_termination, integrate_cascade,
                    integrate_first, reduce_cascade, reduce_first)
from daekit._linalg import norm2
from daekit.integrate import _escape_estimate, _rate_fit
from daekit.problems import (_FIXTURES, builtin_names, load_builtin,
                             make_dae, reference_solution)
from test_reduction import misdeclared_index2


def test_linear_index2_matches_closed_form():
    pb = load_builtin("index2_nilpotent_linear")
    red = reduce_first(pb.dae)
    x0 = red.consistent_point(0.0, pb.x_guess)
    traj = integrate_first(red, 0.0, x0, pb.options)
    assert traj.termination.kind == "reached_tmax"
    exact = reference_solution("index2_nilpotent_linear", 1.0, x0)
    assert np.abs(traj.states[-1] - exact).max() <= 1e-6
    assert traj.residuals.max() <= 1e-6


def test_order_of_accuracy():
    # fixed-step runs (step pinned through the h bounds) must show the
    # five-stage order; halving tolerances must also reduce the error
    pb = load_builtin("index2_nilpotent_linear")
    red = reduce_first(pb.dae)
    x0 = red.consistent_point(0.0, pb.x_guess)
    errs = {}
    for h in (1.0 / 8, 1.0 / 16):
        opts = IntegrationOptions(t_max=1.0, rtol=1e-2, atol=1e-2,
                                  h_min=h, h_max=h)
        traj = integrate_first(red, 0.0, x0, opts)
        exact = reference_solution("index2_nilpotent_linear", 1.0, x0)
        errs[h] = np.abs(traj.states[-1] - exact).max()
    order = np.log2(errs[1.0 / 8] / errs[1.0 / 16])
    assert order >= 4.5

    tol_errs = []
    for rtol in (1e-6, 5e-7):
        opts = IntegrationOptions(t_max=1.0, rtol=rtol, atol=rtol * 1e-2)
        traj = integrate_first(red, 0.0, x0, opts)
        exact = reference_solution("index2_nilpotent_linear", 1.0, x0)
        tol_errs.append(np.abs(traj.states[-1] - exact).max())
    assert tol_errs[1] < tol_errs[0]


@pytest.mark.parametrize("x1_init", [0.5, 1.0, 2.0])
def test_blowup_escape_estimates(x1_init):
    pb = load_builtin("index1_blowup")
    red = reduce_first(pb.dae)
    guess = pb.x_guess.copy()
    guess[0] = x1_init
    x0 = red.consistent_point(0.0, guess)
    traj = integrate_first(red, 0.0, x0, pb.options)
    assert traj.termination.kind == "blowup_suspected"
    exact = 1.0 / x1_init
    assert abs(traj.termination.t_escape_estimate - exact) <= 0.01 * exact


def test_decay_matches_matrix_exponential():
    pb = load_builtin("ode_index0")
    red = reduce_first(pb.dae)
    opts = IntegrationOptions(t_max=1.0, rtol=1e-10, atol=1e-12)
    traj = integrate_first(red, 0.0, pb.x_guess, opts)
    exact = expm(-pb.dae.pencil.b * 1.0) @ pb.x_guess
    assert np.abs(traj.states[-1] - exact).max() <= 1e-9


def test_zero_field_decay_block():
    # f == 0 with identity coupling: the explicit block decays exponentially
    fld = NonlinearField(eval=lambda t, x: np.zeros(2))
    dae = make_dae(np.diag([1.0, 0.0]), np.eye(2), fld)
    red = reduce_first(dae)
    x0 = red.consistent_point(0.0, np.array([1.0, 0.5]))
    np.testing.assert_allclose(x0, [1.0, 0.0], atol=1e-12)
    traj = integrate_first(red, 0.0, x0, IntegrationOptions(
        t_max=2.0, rtol=1e-10, atol=1e-12))
    assert traj.termination.kind == "reached_tmax"
    assert abs(traj.states[-1][0] - np.exp(-2.0)) <= 1e-9


def test_classifier_quadratic_escape():
    pb = load_builtin("ode_scalar_quadratic")
    red = reduce_first(pb.dae)
    traj = integrate_first(red, 0.0, np.array([1.0]), pb.options)
    assert traj.termination.kind == "blowup_suspected"
    assert abs(traj.termination.t_escape_estimate - 1.0) <= 0.01


def test_classifier_decay_reaches_horizon():
    pb = load_builtin("ode_scalar_decay")
    red = reduce_first(pb.dae)
    traj = integrate_first(red, 0.0, np.array([1.0]), pb.options)
    assert traj.termination.kind == "reached_tmax"
    assert abs(traj.states[-1][0] - np.exp(-10.0)) <= 1e-8


def test_classifier_constraint_failure():
    pb = load_builtin("failing_constraint")
    red = reduce_first(pb.dae)
    x0 = red.consistent_point(0.0, pb.x_guess)
    traj = integrate_first(red, 0.0, x0, pb.options)
    assert traj.termination.kind == "constraint_solve_failure"
    assert traj.termination.level == "kernel_level"
    assert 0.25 <= traj.termination.t <= 0.45


@pytest.mark.parametrize("tag, level", [
    (StructureTag.STRUCTURED, "chain_level_1"),
    (StructureTag.STRUCTURED_VARIANT, "chain_levels")])
def test_classifier_chain_level_failure(tag, level):
    # from t = 0.3 the chain row reads x3 = x3^2 + 1, which has no real
    # root: the run ends in a classified failure at the chain level, also
    # where the chain levels of a variant field are solved as one equation
    pb = load_builtin("index2_structured")
    base = pb.dae.field.eval

    def field(t, x):
        out = base(t, x)
        if t >= 0.3:
            out[2] = x[2] ** 2 + 1.0
        return out

    dae = make_dae(pb.dae.pencil.a, pb.dae.pencil.b,
                   NonlinearField(eval=field, structure_tag=tag))
    red = reduce_cascade(dae, waive_structure_check=True)
    traj = integrate_cascade(red, 0.0, pb.x_guess, pb.options)
    assert traj.termination.kind == "constraint_solve_failure"
    assert traj.termination.level == level
    assert 0.3 <= traj.termination.t <= 0.31


def _fold():
    """x1' = 1, 0 = x2^2 + x1: from (-1, 1), x2 = sqrt(1 - t), and the
    kernel-level Jacobian 2 x2 vanishes at t = 1, where the solution stops
    existing, and at x2 = 0."""
    fld = NonlinearField(
        eval=lambda t, x: np.array([1.0, x[1] + x[1] ** 2 + x[0]]),
        jacobian=lambda t, x: np.array([[0.0, 0.0], [1.0, 1.0 + 2 * x[1]]]))
    return make_dae(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), fld)


def test_kernel_level_singular_during_run_ends_it():
    # a failed solve retries from the last accepted state, not from x2 = 0,
    # where the Jacobian is zero, so the run ends at the fold
    traj = integrate_first(reduce_first(_fold()), 0.0, np.array([-1.0, 1.0]),
                           IntegrationOptions(t_max=2.0))
    assert traj.termination.kind == "constraint_solve_failure"
    assert traj.termination.level == "kernel_level"
    assert 0.999 < traj.times[-1] < 1.0
    # the constraint holds to the solver tolerance at every point; near the
    # fold a residual r moves x2 by r / (2 x2), so x2 is compared with the
    # closed form where 1 - t >= 1e-3 only
    assert traj.residuals.max() <= 1e-12
    away = 1.0 - traj.times >= 1e-3
    np.testing.assert_allclose(traj.states[away, 1],
                               np.sqrt(1.0 - traj.times[away]), rtol=1e-8)


def test_cascade_starts_where_the_kernel_jacobian_vanishes_at_zero():
    # the kernel level starts from the kernel part of x0, not from x2 = 0
    dae = _fold()
    x0 = np.array([-1.0, 1.0])
    opts = IntegrationOptions(t_max=0.5)
    tc = integrate_cascade(reduce_cascade(dae), 0.0, x0, opts)
    tf = integrate_first(reduce_first(dae), 0.0, x0, opts)
    assert tc.termination.kind == "reached_tmax"
    assert np.abs(tc.states[-1] - tf.states[-1]).max() <= 1e-9


def _chain_singular_at_half():
    """(dae, x_guess, opts): the chain row (1/2 - t)(x3 - sin t) = 0 has
    the solution x3 = sin t and a Jacobian that vanishes at t = 1/2, which
    the fixed steps of 1/8 meet exactly."""
    pb = load_builtin("index2_structured")
    base = pb.dae.field

    def field(t, x):
        out = base.eval(t, x)
        out[2] = x[2] + (0.5 - t) * (x[2] - np.sin(t))
        return out

    def jacobian(t, x):
        out = base.jacobian(t, x)
        out[2, 2] = 1.5 - t
        return out

    def t_derivative(t, x):
        out = base.t_derivative(t, x)
        out[2] = np.sin(t) - x[2] - (0.5 - t) * np.cos(t)
        return out

    dae = make_dae(pb.dae.pencil.a, pb.dae.pencil.b, NonlinearField(
        eval=field, jacobian=jacobian, t_derivative=t_derivative,
        structure_tag=StructureTag.STRUCTURED))
    opts = IntegrationOptions(t_max=1.0, h_min=0.125, h_max=0.125)
    return dae, pb.x_guess, opts


def _integrate(dae, x_guess, opts, approach, wrap=lambda red: None):
    """Trajectory of `dae` from the guess on the direct or the cascade
    route; `wrap(reduction)` runs just before the integration."""
    t0 = opts.t0
    if approach == "first":
        red, integrate = reduce_first(dae), integrate_first
    else:
        red = reduce_cascade(dae, waive_structure_check=True)
        integrate = integrate_cascade
    wrap(red)
    return integrate(red, t0, x_guess, opts)


@pytest.mark.parametrize("approach", ["first", "cascade"])
def test_chain_level_singular_during_run_ends_it(approach):
    traj = _integrate(*_chain_singular_at_half(), approach)
    assert traj.termination.kind == "constraint_solve_failure"
    assert traj.termination.level == "chain_level_1"
    assert traj.termination.t == 0.5
    np.testing.assert_array_equal(traj.times, [0.0, 0.125, 0.25, 0.375])
    assert np.abs(traj.states[:, 2] - np.sin(traj.times)).max() <= 1e-10


@pytest.mark.parametrize("approach", ["first", "cascade"])
@pytest.mark.parametrize("name", ["index1_blowup", "index1_stable",
                                  "index2_structured", "index3_chain"])
def test_each_rhs_evaluation_solves_once(name, approach):
    # the solve that assembles x0 gives the first right-hand side, and an
    # accepted step records the state its last stage's solve assembled
    pb = load_builtin(name)
    calls = [0]

    def wrap(red):
        drift = red.drift

        def counted(*args):
            calls[0] += 1
            return drift(*args)

        setattr(red, "drift_w" if approach == "first" else "drift_w1",
                counted)

    traj = _integrate(pb.dae, pb.x_guess, pb.options, approach, wrap)
    assert calls[0] == traj.stats["nfev"]


def _unresolvable():
    fld = NonlinearField(eval=lambda t, x: np.array([np.sin(1e8 * t)]))
    return (make_dae(np.eye(1), np.zeros((1, 1)), fld), np.zeros(1),
            IntegrationOptions(t_max=1.0, rtol=1e-10, atol=1e-12, h_min=1e-4))


def _bundled(name):
    pb = load_builtin(name)
    return pb.dae, pb.x_guess, pb.options


def _floor_cubic():
    pb = load_builtin("index1_cubic_blowup")
    return (pb.dae, pb.x_guess,
            dataclasses.replace(pb.options, blowup_norm_cap=1e6))


_ENDINGS = {
    "reached_tmax": (lambda: _bundled("index1_stable"), "reached_tmax"),
    "escape by rate fit": (lambda: _bundled("index1_blowup"),
                           "blowup_suspected"),
    # under a cap of 1e6 x1' = x1^3 reaches the floor before the cap
    "escape at the floor": (_floor_cubic, "blowup_suspected"),
    # ends on a step that overflows at the floor, which is no accepted point
    "overflow": (lambda: (load_builtin("ode_scalar_quadratic").dae,
                          np.array([1.0]),
                          IntegrationOptions(t_max=2.0,
                                             blowup_norm_cap=1e120)),
                 "blowup_suspected"),
    "step collapse": (_unresolvable, "step_collapse"),
    "solve failure after t0": (_chain_singular_at_half,
                               "constraint_solve_failure"),
}


@pytest.mark.parametrize("approach", ["first", "cascade"])
@pytest.mark.parametrize("ending", list(_ENDINGS))
def test_trajectory_arrays_hold_one_row_per_accepted_point(ending, approach):
    build, kind = _ENDINGS[ending]
    traj = _integrate(*build(), approach)
    assert traj.termination.kind == kind
    rows = traj.stats["accepted"] + 1
    assert (traj.times.shape[0] == traj.states.shape[0]
            == traj.w_states.shape[0] == traj.residuals.shape[0] == rows)


# accepted steps and relative escape-time error of each bundled escape
# ended by the floor rule with no rate fit: the rate fit must take fewer
# steps at no larger error
_FLOOR_ONLY = {"index1_blowup": (345, 2.65e-10),
               "ode_scalar_quadratic": (374, 8.2e-11),
               "index1_cubic_blowup": (215, 4.1e-9)}


def _certified_rate(name):
    """1 / (2 (p - 1)) for the bundled escape certificate U = c v^p on
    v = |w|^2: the rate alpha of |w| ~ (T* - t)^(-alpha) it implies."""
    data = json.loads((_FIXTURES / f"{name}.json").read_text())
    p = data["certificate"]["U"]["params"]["exponent"]
    return 1.0 / (2.0 * (p - 1.0))


@pytest.mark.parametrize("approach", ["first", "cascade"])
@pytest.mark.parametrize("name", list(_FLOOR_ONLY))
def test_bundled_escapes(name, approach):
    # x1' = x1^p from x1(0) = 1 escapes at 1 / (p - 1); each ends by
    # the rate fit past the cap, well before the floor
    pb = load_builtin(name)
    traj = _integrate(pb.dae, pb.x_guess, pb.options, approach)
    term = traj.termination
    assert term.kind == "blowup_suspected"
    accepted, err = _FLOOR_ONLY[name]
    exact = 0.5 if name == "index1_cubic_blowup" else 1.0
    assert abs(term.t_escape_estimate - exact) <= 1.01 * err * exact
    assert abs(term.blowup_rate - _certified_rate(name)) <= 1e-3
    assert traj.stats["accepted"] <= 0.7 * accepted
    assert term.final_norm > pb.options.blowup_norm_cap


def test_escape_on_the_horizon_is_called_by_the_fit():
    # x1' = x1^2 from 0.5 escapes at t_max = 2; the fitted T* lies past it
    # by less than the fit tolerance (357 accepted steps at the floor)
    pb = load_builtin("index1_blowup")
    red = reduce_first(pb.dae)
    guess = pb.x_guess.copy()
    guess[0] = 0.5
    traj = integrate_first(red, 0.0, guess, pb.options)
    term = traj.termination
    assert term.kind == "blowup_suspected"
    assert abs(term.blowup_rate - 1.0) <= 1e-6
    assert abs(term.t_escape_estimate - 2.0) <= 1e-6 * 2.0
    assert traj.times.size <= 260


def _scalar(f, x0, t_max):
    """x' = f(t, x) from x(0) = x0, as the pair A = I, B = 0 of size 1."""
    fld = NonlinearField(eval=lambda t, x: np.array([f(t, x[0])]))
    return (make_dae(np.eye(1), np.zeros((1, 1)), fld), np.array([x0]),
            IntegrationOptions(t_max=t_max))


def test_exponential_growth_past_the_cap_is_no_escape():
    # x' = x from x(0) = 1 passes the cap at t = log(1e2)
    traj = _integrate(*_scalar(lambda t, x: x, 1.0, 40.0), "first")
    assert traj.termination.kind == "reached_tmax"
    assert traj.w_states[-1][0] > 1e17


# more growth past the default cap that is no escape: polynomial in t;
# logistic, bounded by K; quadratic and bounded by K, run to just past the
# escape time 1 of x' = x^2; quadratic with an oscillating or a decaying
# coefficient (1/x = 2 - sin t and 1/x = 1/x0 - t/(1+t))
_NO_ESCAPE = {
    "6x/(1+t)": (lambda t, x: 6.0 * x / (1.0 + t), 1.0, 1000.0),
    "20x/(1+t)": (lambda t, x: 20.0 * x / (1.0 + t), 1.0, 100.0),
    **{f"x(1-x/{k:g})": (lambda t, x, k=k: x * (1.0 - x / k), 1.0, 60.0)
       for k in (1e3, 1e6, 1e9)},
    **{f"x^2(1-x/{k:g})": (lambda t, x, k=k: x * x * (1.0 - x / k), 1.0,
                           1.0 + 10.0 / k)
       for k in (10.0, 1e3, 1e6)},
    "x^2 cos t": (lambda t, x: x * x * np.cos(t), 0.5, 30.0),
    **{f"x^2/(1+t)^2 from {x0}": (lambda t, x: x * x / (1.0 + t) ** 2, x0,
                                  1e4)
       for x0 in (0.5, 0.999)},
}


@pytest.mark.parametrize("law", list(_NO_ESCAPE))
def test_bounded_or_slow_growth_is_no_escape(law):
    traj = _integrate(*_scalar(*_NO_ESCAPE[law]), "first")
    assert traj.termination.kind == "reached_tmax"


# finite-time escapes from x(0) = x0: (f, x0, t_max, T*, alpha of the rate
# fit, or None where the run ends at the floor)
_ESCAPES = {
    "x^2": (lambda t, x: x * x, 1.0, 2.0, 1.0, 1.0),
    "x^1.1": (lambda t, x: abs(x) ** 1.1, 1.0, 20.0, 10.0, 10.0),
    "x^2+1": (lambda t, x: x * x + 1.0, 1.0, 2.0, np.pi / 4, 1.0),
    # x = -log(1 - t) is no power law; a step overflows at the floor
    "e^x": (lambda t, x: np.exp(x), 0.0, 2.0, 1.0, None),
}


@pytest.mark.parametrize("law", list(_ESCAPES))
def test_finite_time_escape_is_called(law):
    f, x0, t_max, t_escape, alpha = _ESCAPES[law]
    term = _integrate(*_scalar(f, x0, t_max), "first").termination
    assert term.kind == "blowup_suspected"
    assert abs(term.t_escape_estimate - t_escape) <= 1e-6 * t_escape
    if alpha is None:
        assert term.blowup_rate is None
    else:
        assert abs(term.blowup_rate - alpha) <= 1e-3 * alpha


def test_fitted_escape_after_the_horizon_is_not_called():
    # x' = x^2 from 2e6, past the cap from the start, escapes at 5e-7
    pb = load_builtin("ode_scalar_quadratic")
    red = reduce_first(pb.dae)
    x0 = np.array([2e6])
    traj = integrate_first(red, 0.0, x0, IntegrationOptions(t_max=4e-7))
    assert traj.termination.kind == "reached_tmax"
    term = integrate_first(red, 0.0, x0,
                           IntegrationOptions(t_max=6e-7)).termination
    assert term.kind == "blowup_suspected"
    assert abs(term.t_escape_estimate - 5e-7) <= 1e-9 * 5e-7


_TIMES = [0.9, 0.95, 0.97]


def test_rate_fit_on_exact_power_laws():
    for alpha in (1.0, 0.5):
        fit_alpha, t_escape = _rate_fit(_TIMES, [(1.0 - t) ** -alpha
                                                 for t in _TIMES])
        assert abs(fit_alpha - alpha) <= 1e-12
        assert abs(t_escape - 1.0) <= 1e-12
    # a jump after two nearly equal norms: a steep law, found without
    # overflow, escaping just after the last point
    fit_alpha, t_escape = _rate_fit(_TIMES, [1.0, 1.0 + 1e-12, 1e6])
    assert 0.0 < fit_alpha < 1e-6
    assert _TIMES[-1] <= t_escape <= _TIMES[-1] + 1e-12


@pytest.mark.parametrize("times, norms", [
    (_TIMES, [5.0, 5.0, 5.0]),                              # equal
    (_TIMES, [1e6, 1e6 * (1 + 1e-16), 1e6 * (1 + 3e-16)]),  # equal logs
    (_TIMES, [(1.0 - t) ** -20.0 for t in _TIMES]),         # at the bound
    (_TIMES, [(1.0 - t) ** -30.0 for t in _TIMES]),         # past it
    (_TIMES, [np.exp(t) for t in _TIMES]),                  # exponential
    (_TIMES, [3.0, 2.0, 1.0]),                              # falling
    ([0.9, 0.9, 0.97], [1.0, 2.0, 3.0]),                    # equal times
])
def test_rate_fit_rejects_degenerate_triples(times, norms):
    assert _rate_fit(times, norms) is None


def test_escape_estimate_reads_the_last_falling_pair():
    # the reciprocal norms 1, 1/2, 1/4, 1/4 fall along the first two pairs
    # only: the secant through the second, (1, 1/2) to (2, 1/4), meets
    # zero at t = 3 (through the first it would be t = 2)
    assert _escape_estimate([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 4.0, 4.0]) == 3.0
    # only the last six points count: a pair that falls before them does
    # not, and with none falling the estimate is the last time
    assert _escape_estimate([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                            [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]) == 6.0


def test_classifier_unit():
    internals = TrajectoryInternals(IntegrationOptions(
        h_min=1e-10, blowup_norm_cap=10.0, blowup_window=3))
    internals.times = [0.0, 0.5, 0.8, 0.9, 0.95]
    internals.norms = [1.0, 2.0, 5.0, 12.0, 30.0]
    internals.steps = [0.0, 0.5, 0.3, 0.1, 1e-10]
    reason = classify_termination(internals)
    assert reason.kind == "blowup_suspected"
    assert reason.t_escape_estimate >= 0.95
    assert "blowup_rate" not in reason.to_dict()
    # a converged rate fit gives the estimate and the rate
    internals.rate_fit = (1.0, 0.97)
    reason = classify_termination(internals)
    assert reason.kind == "blowup_suspected"
    assert reason.to_dict() == {
        "kind": "blowup_suspected", "t_escape_estimate": 0.97,
        "blowup_rate": 1.0, "final_norm": 30.0, "t": 0.95}
    internals.reached_t_max = True
    assert classify_termination(internals).kind == "reached_tmax"


def test_options_validation():
    with pytest.raises(ValueError):
        IntegrationOptions(t0=1.0, t_max=0.5)
    with pytest.raises(ValueError):
        IntegrationOptions(t_max=1.0, rtol=-1e-8)
    for h_max in (-1.0, 0.0, 1e-12):  # at or below the step floor
        with pytest.raises(ValueError):
            IntegrationOptions(t_max=1.0, h_min=1e-10, h_max=h_max)
    for key in ("t0", "t_max", "rtol", "atol", "h_min", "h_max",
                "blowup_norm_cap"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"^{key} must be finite"):
                IntegrationOptions(**{key: value})
    for window in (0, -1):  # no monotone-growth check left
        with pytest.raises(ValueError, match="^blowup_window"):
            IntegrationOptions(blowup_window=window)


def _route(dae, approach):
    if approach == "first":
        return reduce_first(dae), integrate_first
    return reduce_cascade(dae, waive_structure_check=True), integrate_cascade


@pytest.mark.parametrize("approach", ["first", "cascade"])
def test_inconsistent_initial_value_raises(approach):
    # a dependence of the chain row on x1 below the structure check's
    # tolerance: the check passes, and the levels cannot bring the start
    # onto L0
    dae, pb = misdeclared_index2(1e-8, 0)
    red, integrate = _route(dae, approach)
    with pytest.raises(InconsistentInitialValue) as err:
        integrate(red, 0.0, pb.x_guess, pb.options)
    assert err.value.residual > err.value.tol


@pytest.mark.parametrize("approach", ["first", "cascade"])
@pytest.mark.parametrize("name", ["index1_blowup", "index2_structured",
                                  "index3_chain"])
def test_a_consistent_start_is_kept(name, approach):
    # the integrators project every start; a point already on L0 stays
    pb = load_builtin(name)
    red, integrate = _route(pb.dae, approach)
    x0 = red.consistent_point(pb.options.t0, pb.x_guess)
    traj = integrate(red, pb.options.t0, x0, pb.options)
    assert np.abs(traj.states[0] - x0).max() <= 1e-10


def test_w_consistency_along_trajectory():
    pb = load_builtin("index2_nilpotent_linear")
    red = reduce_first(pb.dae)
    x0 = red.consistent_point(0.0, pb.x_guess)
    traj = integrate_first(red, 0.0, x0, pb.options)
    for k in range(traj.times.size):
        ax = pb.dae.pencil.a @ traj.states[k]
        assert np.abs(ax - traj.w_states[k]).max() <= 1e-6


def test_cross_method_agreement_index2():
    pb = load_builtin("index2_structured")
    dae = pb.dae
    rf = reduce_first(dae)
    rc = reduce_cascade(dae, waive_structure_check=True)
    checkpoints = np.linspace(0.0, 1.0, 11)
    opts = dict(rtol=1e-11, atol=1e-13)
    xf = rf.consistent_point(0.0, pb.x_guess)
    xc = xf.copy()
    sup = 0.0
    for ta, tb in zip(checkpoints[:-1], checkpoints[1:]):
        o = IntegrationOptions(t0=ta, t_max=tb, **opts)
        tf = integrate_first(rf, ta, xf, o)
        tc = integrate_cascade(rc, ta, xc, o)
        xf = tf.states[-1]
        xc = tc.states[-1]
        sup = max(sup, float(np.abs(xf - xc).max()))
        xf = rf.consistent_point(tb, xf)
    assert sup <= 1e-8


def test_cascade_matches_first_for_index1_trajectories():
    pb = load_builtin("index1_stable")
    from daekit.reduction import StructureTag
    fld = NonlinearField(eval=pb.dae.field.eval,
                         jacobian=pb.dae.field.jacobian,
                         t_derivative=pb.dae.field.t_derivative,
                         structure_tag=StructureTag.STRUCTURED)
    dae = make_dae(pb.dae.pencil.a, pb.dae.pencil.b, fld)
    rf = reduce_first(dae)
    rc = reduce_cascade(dae)
    opts = IntegrationOptions(t_max=2.0, rtol=1e-10, atol=1e-12)
    x0 = rf.consistent_point(0.0, pb.x_guess)
    tf = integrate_first(rf, 0.0, x0, opts)
    tc = integrate_cascade(rc, 0.0, x0, opts)
    assert np.abs(tf.states[-1] - tc.states[-1]).max() <= 1e-9


def test_step_collapse_on_unresolvable_field():
    fld = NonlinearField(eval=lambda t, x: np.array([np.sin(1e8 * t)]))
    dae = make_dae(np.eye(1), np.zeros((1, 1)), fld)
    red = reduce_first(dae)
    opts = IntegrationOptions(t_max=1.0, rtol=1e-10, atol=1e-12, h_min=1e-4)
    traj = integrate_first(red, 0.0, np.zeros(1), opts)
    assert traj.termination.kind == "step_collapse"


def _ends_on_the_last_accepted_point(traj):
    # the record keeps accepted points only: the classification reads the
    # last of them, not the end of the step that overflowed
    term = traj.termination
    assert term.kind == "blowup_suspected"
    assert term.detail == "state left the representable range"
    assert term.t == traj.times[-1]
    assert term.final_norm == float(np.linalg.norm(traj.w_states[-1]))
    assert term.t_escape_estimate >= traj.times[-1]
    return term


def test_overflow_is_classified_as_escape():
    pb = load_builtin("ode_scalar_quadratic")
    red = reduce_first(pb.dae)
    opts = IntegrationOptions(t_max=2.0, blowup_norm_cap=1e120)
    traj = integrate_first(red, 0.0, np.array([1.0]), opts)
    _ends_on_the_last_accepted_point(traj)


def test_overflow_escape_estimate_reads_accepted_points():
    # x1' = x1^3 escapes at 1 / (2 x1(0)^2); from this start, under a cap
    # of 1e6, a step leaves the representable range at the floor (the
    # default cap lets the rate fit end the run first)
    pb = load_builtin("index1_cubic_blowup")
    red = reduce_first(pb.dae)
    x1_init = 0.8541666666666666
    x0 = red.consistent_point(0.0, np.array([x1_init, 0.0]))
    opts = dataclasses.replace(pb.options, blowup_norm_cap=1e6)
    term = _ends_on_the_last_accepted_point(
        integrate_first(red, 0.0, x0, opts))
    exact = 1.0 / (2.0 * x1_init ** 2)
    assert abs(term.t_escape_estimate - exact) <= 1e-8 * exact


def test_trajectory_csv_roundtrip(tmp_path):
    pb = load_builtin("ode_scalar_decay")
    red = reduce_first(pb.dae)
    traj = integrate_first(red, 0.0, np.array([1.0]), pb.options)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x_1,w_norm,residual"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], traj.times, rtol=0, atol=0)
    np.testing.assert_allclose(data[:, 1], traj.states[:, 0], rtol=0, atol=0)
    assert traj.termination.to_dict() == {"kind": "reached_tmax",
                                          "t": traj.times[-1]}


def test_trajectory_csv_matches_the_per_row_writer(tmp_path):
    pb = load_builtin("index3_chain")
    red = reduce_first(pb.dae)
    traj = integrate_first(red, 0.0, pb.x_guess, pb.options)
    # reference: one row at a time from the numpy arrays
    n = traj.states.shape[1]
    ref = ["t," + ",".join(f"x_{k + 1}" for k in range(n))
           + ",w_norm,residual"]
    for k in range(traj.times.size):
        row = [traj.times[k], *traj.states[k],
               float(np.linalg.norm(traj.w_states[k])), traj.residuals[k]]
        ref.append(",".join(f"{v:.17g}" for v in row))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    assert path.read_bytes() == ("\n".join(ref) + "\n").encode()


@pytest.mark.parametrize("n", [1, 4, 64])
def test_error_norm_matches_numpy_rms_bit_for_bit(n):
    from daekit.integrate import _rms

    rng = np.random.default_rng(7)
    sc = 1e-10 + 1e-8 * np.abs(rng.standard_normal(n))
    cases = [rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)]
    for value in (np.inf, -np.inf, np.nan, 1e300):
        e = cases[0].copy()
        e[-1] = value
        cases.append(e)
    with np.errstate(over="ignore", invalid="ignore"):
        for e in cases:
            ref = float(np.sqrt(np.mean((e / sc) ** 2)))
            got = _rms(e / sc)
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()


def _counting(pb):
    """The problem's pair with its field wrapped to count evaluations."""
    orig = pb.dae.field
    calls = [0]

    def ev(t, x):
        calls[0] += 1
        return orig.eval(t, x)

    fld = NonlinearField(ev, orig.jacobian, orig.t_derivative,
                         orig.structure_tag)
    return dataclasses.replace(pb.dae, field=fld), calls


def test_direct_rhs_evaluates_the_field_only_in_newton_residuals():
    # a warm kernel solve takes two residuals; the drift and the residual
    # of an accepted step reuse the last one (one more for the initial
    # check of x0)
    pb = load_builtin("index1_blowup")
    dae, calls = _counting(pb)
    red = reduce_first(dae)
    x0 = red.consistent_point(0.0, pb.x_guess)
    calls[0] = 0
    traj = integrate_first(red, 0.0, x0, pb.options)
    assert traj.termination.kind == "blowup_suspected"
    assert calls[0] <= 2 * traj.stats["nfev"] + 5


@pytest.mark.parametrize("approach", ["first", "cascade"])
@pytest.mark.parametrize("name", ["index1_blowup", "index3_chain"])
def test_trajectory_residuals_match_fresh_evaluation(name, approach):
    pb = load_builtin(name)
    t0 = pb.options.t0
    if approach == "first":
        red, integrate = reduce_first(pb.dae), integrate_first
    else:
        red, integrate = reduce_cascade(pb.dae), integrate_cascade
    traj = integrate(red, t0, pb.x_guess, pb.options)
    assert len(traj.times) > 10
    fresh = [red.residual_L0(t, x) for t, x in zip(traj.times, traj.states)]
    assert traj.residuals.tolist() == fresh


def test_stage_sums_match_the_builtin_sum_bit_for_bit():
    # reference: the generator sum the stage and error vectors were formed
    # with; a zero coefficient meets inf, a NaN entry, and sums of -0.0
    # terms
    from daekit.integrate import _A, _E, _stage_sum

    rng = np.random.default_rng(5)
    cases = []
    for n in (1, 4, 64):
        base = [rng.standard_normal(n) for _ in range(7)]
        cases += [base, [np.full(n, -0.0)] * 7]
        for row, value in ((1, np.inf), (3, np.nan)):
            ks = [k.copy() for k in base]
            ks[row][-1] = value
            cases.append(ks)
    with np.errstate(invalid="ignore"):
        for ks in cases:
            buf = np.vstack([np.zeros_like(ks[0]), *ks])
            for i, coefs in enumerate((*_A[1:], _E), start=1):
                ref = sum(c * k for c, k in zip(coefs, ks))
                assert _stage_sum(buf, i).tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", builtin_names())
def test_w_norms_are_the_norms_of_the_recorded_w(name):
    # |w| is computed once, by the step loop for the escape test; the
    # trajectory writers read it from there.  The cascade route runs where
    # it admits the field
    pb = load_builtin(name)
    runs = [(reduce_first(pb.dae), integrate_first)]
    if pb.dae.structured or pb.dae.projectors.nu < 2:
        runs.append((reduce_cascade(pb.dae, waive_structure_check=True),
                     integrate_cascade))
    for red, integrate in runs:
        traj = integrate(red, pb.options.t0, pb.x_guess, pb.options)
        assert traj.w_norms.tolist() == [norm2(w) for w in traj.w_states]
