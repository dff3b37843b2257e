import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from daekit import (InconsistentInitialValue, IntegrationOptions,
                    NonlinearField, StructureTag, TrajectoryInternals,
                    classify_termination, consistent_initialize,
                    integrate_cascade, integrate_first, reduce_cascade,
                    reduce_first)
from daekit.problems import load_builtin, make_dae, reference_solution


def test_linear_index2_matches_closed_form():
    pb = load_builtin("index2_nilpotent_linear")
    red = reduce_first(pb.dae)
    x0 = consistent_initialize(red, 0.0, pb.x_guess)
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
    x0 = consistent_initialize(red, 0.0, pb.x_guess)
    errs = {}
    for h in (1.0 / 8, 1.0 / 16):
        opts = IntegrationOptions(t_max=1.0, rtol=1e-2, atol=1e-2,
                                  h_init=h, h_min=h, h_max=h)
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
    x0 = consistent_initialize(red, 0.0, guess)
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
    x0 = consistent_initialize(red, 0.0, np.array([1.0, 0.5]))
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
    x0 = consistent_initialize(red, 0.0, pb.x_guess)
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
    traj = integrate_cascade(red, 0.0, dae.projectors.p1 @ pb.x_guess,
                             pb.options)
    assert traj.termination.kind == "constraint_solve_failure"
    assert traj.termination.level == level
    assert 0.3 <= traj.termination.t <= 0.31


def test_kernel_level_singular_during_run_ends_it():
    # x1' = 1, 0 = x2^2 + x1 from (-1, 1): x2 = sqrt(1 - t), and the level
    # Jacobian 2 x2 vanishes at t = 1, where the solution stops existing.
    # The failed solves past t = 1 retry from x2 = 0, where it is zero.
    fld = NonlinearField(
        eval=lambda t, x: np.array([1.0, x[1] + x[1] ** 2 + x[0]]),
        jacobian=lambda t, x: np.array([[0.0, 0.0], [1.0, 1.0 + 2 * x[1]]]))
    dae = make_dae(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), fld)
    traj = integrate_first(reduce_first(dae), 0.0, np.array([-1.0, 1.0]),
                           IntegrationOptions(t_max=2.0))
    assert traj.termination.kind == "constraint_solve_failure"
    assert traj.termination.level == "kernel_level"
    assert "singular jacobian" in traj.termination.detail
    assert traj.times[-1] < 1.0
    np.testing.assert_allclose(traj.states[:, 1], np.sqrt(1.0 - traj.times),
                               rtol=1e-8)


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
    opts = IntegrationOptions(t_max=1.0, h_init=0.125, h_min=0.125,
                              h_max=0.125)
    return dae, pb.x_guess, opts


def _integrate(dae, x_guess, opts, approach, wrap=lambda red: None):
    """Trajectory of `dae` from the guess on the direct or the cascade
    route; `wrap(reduction)` runs just before the integration."""
    t0 = opts.t0
    if approach == "first":
        red = reduce_first(dae)
        x0 = consistent_initialize(red, t0, x_guess)
        wrap(red)
        return integrate_first(red, t0, x0, opts)
    red = reduce_cascade(dae, waive_structure_check=True)
    wrap(red)
    return integrate_cascade(red, t0, dae.projectors.p1 @ x_guess, opts)


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


_ENDINGS = {
    "reached_tmax": (lambda: _bundled("index1_stable"), "reached_tmax"),
    "escape at the floor": (lambda: _bundled("index1_blowup"),
                            "blowup_suspected"),
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


def test_classifier_unit():
    internals = TrajectoryInternals(h_min=1e-10, blowup_norm_cap=10.0,
                                    blowup_window=3)
    internals.times = [0.0, 0.5, 0.8, 0.9, 0.95]
    internals.norms = [1.0, 2.0, 5.0, 12.0, 30.0]
    internals.steps = [0.0, 0.5, 0.3, 0.1, 1e-10]
    reason = classify_termination(internals)
    assert reason.kind == "blowup_suspected"
    assert reason.t_escape_estimate >= 0.95
    internals.reached_t_max = True
    assert classify_termination(internals).kind == "reached_tmax"


def test_options_validation():
    with pytest.raises(ValueError):
        IntegrationOptions(t0=1.0, t_max=0.5)
    with pytest.raises(ValueError):
        IntegrationOptions(t_max=1.0, rtol=-1e-8)
    with pytest.raises(ValueError):
        IntegrationOptions(t_max=1.0, h_init=1e-12, h_min=1e-10)
    for h_max in (-1.0, 0.0, 1e-12):  # at or below the step floor
        with pytest.raises(ValueError):
            IntegrationOptions(t_max=1.0, h_min=1e-10, h_max=h_max)
    for key in ("t0", "t_max", "rtol", "atol", "h_init", "h_min", "h_max",
                "blowup_norm_cap"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"^{key} must be finite"):
                IntegrationOptions(**{key: value})
    for window in (0, -1):  # no monotone-growth check left
        with pytest.raises(ValueError, match="^blowup_window"):
            IntegrationOptions(blowup_window=window)
    opts = IntegrationOptions(t_max=1.0, h_init=1e-3, h_min=1e-6, h_max=0.1)
    assert opts.h_min <= opts.h_init <= opts.h_max


def test_inconsistent_initial_value_raises():
    pb = load_builtin("index1_blowup")
    red = reduce_first(pb.dae)
    with pytest.raises(InconsistentInitialValue):
        integrate_first(red, 0.0, np.array([1.0, 0.0]), pb.options)


def test_w_consistency_along_trajectory():
    pb = load_builtin("index2_nilpotent_linear")
    red = reduce_first(pb.dae)
    x0 = consistent_initialize(red, 0.0, pb.x_guess)
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
    xf = consistent_initialize(rf, 0.0, pb.x_guess)
    xc = xf.copy()
    sup = 0.0
    for ta, tb in zip(checkpoints[:-1], checkpoints[1:]):
        o = IntegrationOptions(t0=ta, t_max=tb, **opts)
        tf = integrate_first(rf, ta, xf, o)
        tc = integrate_cascade(rc, ta, dae.projectors.p1 @ xc, o)
        xf = tf.states[-1]
        xc = tc.states[-1]
        sup = max(sup, float(np.abs(xf - xc).max()))
        xf = consistent_initialize(rf, tb, xf)
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
    x0 = consistent_initialize(rf, 0.0, pb.x_guess)
    tf = integrate_first(rf, 0.0, x0, opts)
    tc = integrate_cascade(rc, 0.0, dae.projectors.p1 @ x0, opts)
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
    # x1' = x1^3 escapes at 1 / (2 x1(0)^2); from this start a step leaves
    # the representable range at the floor
    pb = load_builtin("index1_cubic_blowup")
    red = reduce_first(pb.dae)
    x1_init = 0.8541666666666666
    x0 = consistent_initialize(red, 0.0, np.array([x1_init, 0.0]))
    term = _ends_on_the_last_accepted_point(
        integrate_first(red, 0.0, x0, pb.options))
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
    x0 = consistent_initialize(red, 0.0, pb.x_guess)
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
        red = reduce_first(pb.dae)
        x0 = consistent_initialize(red, t0, pb.x_guess)
        traj = integrate_first(red, t0, x0, pb.options)
    else:
        red = reduce_cascade(pb.dae)
        traj = integrate_cascade(red, t0, pb.dae.projectors.p1 @ pb.x_guess,
                                 pb.options)
    assert len(traj.times) > 10
    fresh = [red.residual_L0(t, x) for t, x in zip(traj.times, traj.states)]
    assert traj.residuals.tolist() == fresh


def test_stage_sums_match_the_builtin_sum_bit_for_bit():
    # reference: the generator sum the stage and error vectors were formed
    # with; a zero coefficient meets inf, and a sum of -0.0 terms
    from daekit.integrate import _A, _E, _combine

    rng = np.random.default_rng(5)
    ks = [rng.standard_normal(4) for _ in range(7)]
    ks[1][0] = np.inf
    for k in ks:
        k[3] = -0.0
    with np.errstate(invalid="ignore"):
        for coefs in (*_A[1:], _E):
            ref = sum(c * k for c, k in zip(coefs, ks))
            assert _combine(coefs, ks).tobytes() == ref.tobytes()
