import dataclasses
from collections import Counter, defaultdict

import numpy as np
import pytest

from daekit import (ConstraintSolveFailure, InconsistentInitialValue,
                    IntegrationOptions, NoConvergence, NonlinearField,
                    StructureTag, StructureViolation, check_structure,
                    integrate_cascade, integrate_first, reduce_cascade,
                    reduce_first)
from daekit import reduction
from daekit.problems import (load_builtin, load_problem_dict, make_dae,
                             random_weierstrass)
from daekit.reduction import (ReducedCascade, ReducedFirst, _CascadeEvaluator,
                              _Reduced)
from test_problems import NAN_START


def quad_lag_dae():
    # explicit part drives itself quadratically; algebraic part lags it
    fld = NonlinearField(
        eval=lambda t, x: np.array([x[0] ** 2, np.sin(t) + x[0]]),
        jacobian=lambda t, x: np.array([[2 * x[0], 0.0], [1.0, 0.0]]),
        t_derivative=lambda t, x: np.array([0.0, np.cos(t)]))
    return make_dae(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), fld)


def semi_inverse_drift(dae, t, x):
    """The drift of the differential block in the state space: the
    semi-inverse of A applied to f(t, x) - B x."""
    return dae.projectors.a_semi_inv @ (dae.field(t, x) - dae.pencil.b @ x)


def test_reduce_first_index1_split():
    dae = quad_lag_dae()
    red = reduce_first(dae)
    x = np.array([1.3, 0.4])
    np.testing.assert_allclose(semi_inverse_drift(dae, 0.7, x),
                               [1.3 ** 2, 0.0], atol=1e-12)
    f2 = red.f2_star(0.7, red.ps.p1 @ x + red.ps.p20 @ x)
    np.testing.assert_allclose(f2, [0.0, np.sin(0.7) + 1.3 - 0.4], atol=1e-12)


def test_reduce_first_linear_forcing_formula():
    rng = np.random.default_rng(5)
    q_of_t = lambda t: np.array([np.sin(t), np.cos(t)])
    fld = NonlinearField(eval=lambda t, x: q_of_t(t))
    dae = make_dae(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), fld)
    ps = dae.projectors
    for _ in range(5):
        t = float(rng.uniform(0, 3))
        x = rng.standard_normal(2)
        expect = ps.a_tilde_inv @ ((ps.q1 + ps.q2_sigma)
                                   @ (q_of_t(t) - dae.pencil.b @ x))
        np.testing.assert_allclose(semi_inverse_drift(dae, t, x), expect,
                                   atol=1e-12)
        # the first row reads x2' = sin t - x1; the kernel direction
        # (the first coordinate) has no drift
        np.testing.assert_allclose(expect, [0.0, np.sin(t) - x[0]],
                                   atol=1e-12)


def test_reduce_first_zero_field_constraint():
    fld = NonlinearField(eval=lambda t, x: np.zeros(2))
    dae = make_dae(np.diag([1.0, 0.0]), np.eye(2), fld)
    red = reduce_first(dae)
    x = np.array([0.0, 0.8])
    np.testing.assert_allclose(red.f2_star(0.0, x),
                               -dae.projectors.q2_star @ (np.eye(2) @ x),
                               atol=1e-12)


def test_reduce_first_index0_is_explicit():
    fld = NonlinearField(eval=lambda t, x: np.zeros(2))
    dae = make_dae(np.eye(2), np.diag([1.0, 2.0]), fld)
    red = reduce_first(dae)
    assert red.n == 0
    assert red.residual_L0(0.0, np.array([1.0, 1.0])) == 0.0
    x = np.array([2.0, -1.0])
    np.testing.assert_allclose(semi_inverse_drift(dae, 0.0, x),
                               -np.diag([1.0, 2.0]) @ x, atol=1e-12)


def test_residual_L0_examples():
    red = reduce_first(quad_lag_dae())
    assert red.residual_L0(0.0, np.array([1.0, 1.0])) <= 1e-14
    assert abs(red.residual_L0(0.0, np.array([1.0, 0.0])) - 1.0) <= 1e-14
    fld = NonlinearField(eval=lambda t, x: np.zeros(2))
    dae = make_dae(np.diag([1.0, 0.0]), np.eye(2), fld)
    red0 = reduce_first(dae)
    x = dae.projectors.p1 @ np.array([0.9, 0.6])
    assert red0.residual_L0(0.0, x) <= 1e-14


def test_recombination_identity():
    # the projected pieces reassemble the full right-hand side exactly
    rng = np.random.default_rng(11)
    for name in ("index1_blowup", "index2_nilpotent_linear",
                 "index2_structured"):
        pb = load_builtin(name)
        dae = pb.dae
        red = reduce_first(dae)
        ps = dae.projectors
        for _ in range(8):
            t = float(rng.uniform(0, 2))
            x = rng.standard_normal(dae.pencil.n_dim)
            full = dae.field(t, x) - dae.pencil.b @ x
            pieces = (ps.a_tilde @ semi_inverse_drift(dae, t, x)
                      + red.f2_star(t, x))
            assert np.abs(pieces - full).max() <= 1e-12 * max(
                1.0, float(np.abs(full).max()))


def test_check_structure_passes_by_construction():
    pb = load_builtin("index2_structured")
    report = check_structure(pb.dae)
    assert report.passed
    assert report.worst_dependence <= 1e-7


def misdeclared_index2(coef, j):
    """index2_structured with coef * x_j added to its chain row (field row
    2), still declared structured: for j = 0, 1 or 3 the row reads a slice
    that the declared structure excludes."""
    pb = load_builtin("index2_structured")
    base = pb.dae.field.eval

    def tampered(t, x):
        out = base(t, x)
        out[2] += coef * x[j]
        return out

    fld = NonlinearField(eval=tampered,
                         structure_tag=StructureTag.STRUCTURED)
    return make_dae(pb.dae.pencil.a, pb.dae.pencil.b, fld), pb


def test_check_structure_detects_injected_dependence():
    # the chain row now depends on the explicit part
    dae, _ = misdeclared_index2(0.1, 0)
    with pytest.raises(StructureViolation) as err:
        check_structure(dae)
    assert err.value.dependence > 1e-3


@pytest.mark.parametrize("approach", ["first", "cascade"])
@pytest.mark.parametrize("j", [0, 1, 3])
def test_start_off_L0_names_a_misdeclared_structure(j, approach):
    # the start fails on L0, and the structure check says why
    dae, pb = misdeclared_index2(0.3, j)
    red = reduce_first(dae) if approach == "first" \
        else reduce_cascade(dae, waive_structure_check=True)
    with pytest.raises(StructureViolation, match="^projection chain_rows"):
        red.consistent_point(0.0, pb.x_guess)


def test_check_structure_vacuous_for_index_one():
    pb = load_builtin("index1_blowup")
    fld = NonlinearField(eval=pb.dae.field.eval,
                         structure_tag=StructureTag.STRUCTURED)
    dae = make_dae(pb.dae.pencil.a, pb.dae.pencil.b, fld)
    report = check_structure(dae)
    assert report.passed and report.worst_projection == "<vacuous>"


@pytest.mark.parametrize("tag", [StructureTag.STRUCTURED,
                                 StructureTag.STRUCTURED_VARIANT])
def test_structure_rule_at_index_four(tag):
    # levels are solved top first: chain tops by falling order, then wedges
    # by falling order, then the kernel.  The rows of a level may read
    # neither the explicit part nor a level solved after theirs; a variant
    # field's chain tops are one fused level, so its chain rows may read
    # chain tops of any order.  f = 0.1 B phi_L J (q_S^H B x), J all ones,
    # makes only the rows of L read the slice S
    ws = random_weierstrass(11, 11, [4, 3, 2])
    dae = make_dae(ws.pencil.a, ws.pencil.b,
                   NonlinearField(eval=lambda t, x: np.zeros(len(x))))
    assert dae.projectors.nu == 4
    b = dae.pencil.b
    preds = {("chain", s): lambda m, j, s=s: j == s + 1 and m == s + 1
             for s in (1, 2, 3)}
    preds.update({("wedge", s): lambda m, j, s=s: j == s + 1 and m >= s + 2
                  for s in (1, 2)})
    preds["kernel", 0] = lambda m, j: j == 1
    blocks = {key: reduction._select_block(dae, pred)
              for key, pred in preds.items()}
    readers = {key: b.conj().T @ blk.q for key, blk in blocks.items()}
    p1 = dae.projectors.p1
    readers["explicit", 0] = p1.conj().T @ p1[:, :1]

    def rank(kind, s):
        """The position of a slice's level in the solve order."""
        if kind == "chain" and tag is StructureTag.STRUCTURED_VARIANT:
            s = 0
        return {"chain": 0, "wedge": 1, "kernel": 2}[kind], -s

    for (kind, s), rows in blocks.items():
        if kind == "kernel":
            continue
        for (read, r), reader in readers.items():
            mix = 0.1 * b @ rows.phi @ np.ones((rows.dim, reader.shape[1]))
            fld = NonlinearField(eval=lambda t, x, mix=mix, reader=reader:
                                 mix @ (reader.conj().T @ x),
                                 structure_tag=tag)
            tampered = dataclasses.replace(dae, field=fld)
            if read == "explicit" or rank(read, r) > rank(kind, s):
                with pytest.raises(StructureViolation) as err:
                    check_structure(tampered)
                assert err.value.projection == f"{kind}_rows_level_{s}"
            else:
                assert check_structure(tampered).passed, (kind, s, read, r)


@pytest.mark.parametrize("tag", [StructureTag.STRUCTURED,
                                 StructureTag.STRUCTURED_VARIANT])
def test_eta_is_the_sum_of_the_lifted_level_values(tag):
    # eta is summed once, by the pass that solves the levels: it has the
    # bits of the lifts of the chain and wedge coordinates added in the
    # table's order.  The field reads no state, so it has either structure
    ws = random_weierstrass(11, 11, [4, 3, 2])
    g = np.random.default_rng(3).standard_normal(11)
    dae = make_dae(ws.pencil.a, ws.pencil.b, NonlinearField(
        eval=lambda t, x: np.sin(t + g), structure_tag=tag))
    rc = reduce_cascade(dae)
    ev = rc.make_state()
    for t in (0.0, 0.3, 1.7):
        parts = ev.algebraic_parts(t)
        values = ev.chain_values(t)["values"]
        eta = np.zeros(11)
        for label, blk in rc.levels.items():
            if label == "kernel_level":
                continue
            if blk.order is None:  # a chain level, one or more orders fused
                c = np.zeros(blk.dim)
                for s, (top, _) in rc.parts.items():
                    if top is not None and top[0] == label:
                        c[top[1]] = values[s]
            else:
                c = ev.wedge_value(blk.order, t)
            eta = eta + blk.lift(c)
        assert np.abs(eta).max() > 0.1
        assert parts["eta_2sigma"].tobytes() == eta.tobytes()
        assert parts["d_vec"].tobytes() == ev.level_offset(0, t).tobytes()


def test_cascade_chain_level_closed_form():
    # the top level solves x3 = gamma*x3 + g(t), a scalar linear equation
    pb = load_builtin("index2_structured")
    rc = reduce_cascade(pb.dae, waive_structure_check=True)
    ev = rc.make_state()
    for t in (0.0, 0.4, 1.1):
        eta = ev.eta_2sigma(t)
        assert abs(eta[2] - 1.6 * np.sin(t)) <= 1e-10


def test_cascade_matches_first_for_index1():
    pb = load_builtin("index1_blowup")
    fld = NonlinearField(eval=pb.dae.field.eval,
                         jacobian=pb.dae.field.jacobian,
                         t_derivative=pb.dae.field.t_derivative,
                         structure_tag=StructureTag.STRUCTURED)
    dae = make_dae(pb.dae.pencil.a, pb.dae.pencil.b, fld)
    rf = reduce_first(dae)
    rc = reduce_cascade(dae)
    assert rc.level_count == 1
    rng = np.random.default_rng(2)
    ev = rc.make_state()
    for _ in range(5):
        t = float(rng.uniform(0, 2))
        x1 = dae.projectors.p1 @ rng.standard_normal(2)
        x20_f, _ = rf.solve_x20(t, x1)
        parts = ev.algebraic_parts(t)
        x20_c = ev.solve_x20(t, x1, parts)
        assert np.abs(x20_f - x20_c).max() <= 1e-10


def test_cascade_index3_hand_solution():
    # hand-derived closed forms for the algebraic components (the chain
    # basis is a convention, so only solution components are asserted):
    #   x4 = cos t + 0.2 x4            -> x4 = 1.25 cos t
    #   0.9 x3 = sin t + 0.5 x4 - dx4  -> x3 = 2.5 sin t + 25/36 cos t
    #   0.85 x2 = 0.4 + 0.3 x1 - dx3
    pb = load_builtin("index3_chain")
    rc = reduce_cascade(pb.dae)
    assert rc.nu == 3 and rc.level_count == 5
    ev = rc.make_state()
    for t in (0.2, 0.9, 1.7):
        parts = ev.algebraic_parts(t)
        eta = parts["eta_2sigma"]
        x4 = 1.25 * np.cos(t)
        x3 = 2.5 * np.sin(t) + (25.0 / 36.0) * np.cos(t)
        assert abs(eta[3] - x4) <= 1e-10
        assert abs(eta[2] - x3) <= 1e-8  # wedge level uses fd derivatives
        x1 = pb.dae.projectors.p1 @ np.array([0.3, 0.0, 0.0, 0.0])
        x20 = ev.solve_x20(t, x1, parts)
        x = x1 + eta + x20
        x3dot = 2.5 * np.cos(t) - (25.0 / 36.0) * np.sin(t)
        x2 = (0.4 + 0.3 * x1[0] - x3dot) / 0.85
        assert abs(x[1] - x2) <= 1e-6


def test_cascade_semi_inverse_equivalence():
    # at solved points the level equation agrees with its semi-inverse form;
    # at index 2 every order-1 vector tops a chain of length 2, so q2s[1]
    # is the projector onto those chain tops
    pb = load_builtin("index2_structured")
    dae = pb.dae
    rc = reduce_cascade(dae, waive_structure_check=True)
    ev = rc.make_state()
    b2 = dae.projectors.b2_semi_inv
    for t in (0.3, 1.2):
        vals = ev.chain_values(t)["values"]
        x21 = rc.levels["chain_level_1"].lift(vals[1])
        arg = x21
        rhs = b2 @ (dae.projectors.q2s[1] @ dae.field(t, arg))
        assert np.abs(x21 - rhs).max() <= 1e-10


def test_variant_tag_fused_levels_match_standard():
    # at index 2 the variant structure coincides with the standard one, so
    # the fused chain solve must reproduce the per-level solve exactly
    pb = load_builtin("index2_structured")
    base = pb.dae.field
    fld = NonlinearField(eval=base.eval, jacobian=base.jacobian,
                         t_derivative=base.t_derivative,
                         structure_tag=StructureTag.STRUCTURED_VARIANT)
    dae_v = make_dae(pb.dae.pencil.a, pb.dae.pencil.b, fld)
    rc_v = reduce_cascade(dae_v)
    rc_s = reduce_cascade(pb.dae, waive_structure_check=True)
    ev_v, ev_s = rc_v.make_state(), rc_s.make_state()
    for t in (0.0, 0.7, 1.3):
        np.testing.assert_allclose(ev_v.eta_2sigma(t), ev_s.eta_2sigma(t),
                                   atol=1e-10)
        np.testing.assert_allclose(ev_v.chain_values(t)["derivatives"][1],
                                   ev_s.chain_values(t)["derivatives"][1],
                                   atol=1e-10)
        np.testing.assert_allclose(ev_v.algebraic_parts(t)["d_vec"],
                                   ev_s.algebraic_parts(t)["d_vec"],
                                   atol=1e-10)
    x0v = rc_v.consistent_point(0.0, pb.x_guess)
    x0s = rc_s.consistent_point(0.0, pb.x_guess)
    np.testing.assert_allclose(x0v, x0s, atol=1e-10)


@pytest.mark.parametrize("name, labels", [
    ("index2_structured", ["chain_level_1", "kernel_level"]),
    ("index3_chain", ["chain_level_2", "wedge_level_1", "kernel_level"])])
def test_level_residuals_vanish_on_the_manifold(name, labels):
    pb = load_builtin(name)
    rc = reduce_cascade(pb.dae)
    x0 = rc.consistent_point(0.4, pb.x_guess)
    res = rc.level_residuals(0.4, x0)
    assert list(res) == labels
    assert max(res.values()) <= 1e-12
    # moving the kernel component off its solution shows in its own row
    moved = rc.level_residuals(
        0.4, x0 + 0.1 * rc.levels["kernel_level"].phi[:, 0])
    assert moved["kernel_level"] >= 1e-3


def test_structured_tag_required_for_cascade():
    pb = load_builtin("index2_nilpotent_linear")
    with pytest.raises(StructureViolation):
        reduce_cascade(pb.dae)


def test_runs_on_one_reduction_are_independent():
    # the kernel-level Jacobian of this pair changes along a run (the
    # constraint reads x2 = x1^3 and the kernel is spanned by (1, -1)); a
    # run on a reduction that already served another run must match a run
    # on a fresh one, so no kept factorisation outlives its run
    fld = NonlinearField(
        eval=lambda t, x: np.array([x[0] ** 3, np.sin(t) + x[0]]),
        jacobian=lambda t, x: np.array([[3 * x[0] ** 2, 0.0], [1.0, 0.0]]))
    dae = make_dae(np.array([[0.0, 0.0], [1.0, 1.0]]),
                   np.array([[0.0, 1.0], [0.0, 1.0]]), fld)
    opts = IntegrationOptions(t_max=1.0)

    def simulate(red, guess):
        x0 = red.consistent_point(0.0, np.array(guess))
        return integrate_first(red, 0.0, x0, opts)

    shared = reduce_first(dae)
    simulate(shared, [0.3, 0.0])
    again = simulate(shared, [0.6, 0.0])
    fresh = simulate(reduce_first(dae), [0.6, 0.0])
    assert np.array_equal(again.states, fresh.states)
    assert again.stats == fresh.stats


@pytest.mark.parametrize("name", ["index3_chain", "index2_structured"])
def test_direct_route_runs_on_the_shared_level_state(name, monkeypatch):
    # both routes run on one kind of per-run state over one level table:
    # the direct route's kernel warm start sits next to the chain and wedge
    # ones, and no second (cascade) reduction is built for its d_vec
    pb = load_builtin(name)
    cascade_state = reduce_cascade(pb.dae).make_state()
    built = []
    init = ReducedCascade.__init__

    def counting_init(self, dae):
        built.append(dae)
        init(self, dae)

    monkeypatch.setattr(ReducedCascade, "__init__", counting_init)
    red = reduce_first(pb.dae)
    state = red.make_state()
    assert type(state) is type(cascade_state)
    t0 = pb.options.t0
    x0 = red.consistent_point(t0, pb.x_guess)
    red.drift_w(t0, pb.dae.pencil.a @ x0, state)
    assert "kernel_level" in red.levels
    assert set(state.warm) == set(red.levels) == set(cascade_state.rc.levels)
    opts = dataclasses.replace(pb.options, t_max=t0 + 0.1)
    assert integrate_first(red, t0, x0, opts).termination.kind == "reached_tmax"
    assert built == []


@pytest.mark.parametrize("seed, segre", [
    (1, [2, 1]), (2, [3, 1]), (3, [3, 3, 2]), (4, [4, 2, 1]), (5, [4, 4]),
    (6, [5, 3, 1]), (7, [6]), (8, [6, 5, 2, 1])])
def test_every_wedge_slice_is_non_empty(seed, segre):
    # wedge slice s holds the order-(s + 1) vector of a longest chain,
    # whose length nu is at least s + 2
    ws = random_weierstrass(seed, sum(segre) + 2, segre)
    zero = NonlinearField(eval=lambda t, x: np.zeros(len(x)))
    red = _Reduced(make_dae(ws.pencil.a, ws.pencil.b, zero))
    assert red.nu == max(segre)
    wedges = [blk for blk in red.levels.values() if blk.order is not None]
    assert [blk.order for blk in wedges] == list(range(red.nu - 2, 0, -1))
    assert all(blk.dim for blk in wedges)
    assert [blk.label for blk in wedges] == [
        f"wedge_level_{s}" for s in range(red.nu - 2, 0, -1)]


def _run_route(dae, pb, approach, opts):
    """(reduction, trajectory) of the problem's pair with the field of
    `dae`, on the direct or the cascade route."""
    t0 = opts.t0
    if approach == "first":
        red, integrate = reduce_first(dae), integrate_first
    else:
        red, integrate = reduce_cascade(dae), integrate_cascade
    return red, integrate(red, t0, pb.x_guess, opts)


def _empty_kept_factors_before_each_solve(monkeypatch):
    solve_newton = reduction.solve_newton

    def cold(problem, t, p, y0, tol=1e-12, history=None, jac_cache=None):
        if jac_cache is not None:
            jac_cache.factors = None
        return solve_newton(problem, t, p, y0, tol, history, jac_cache)

    monkeypatch.setattr(reduction, "solve_newton", cold)


@pytest.mark.parametrize("approach", ["first", "cascade"])
@pytest.mark.parametrize("name", ["index2_structured", "index3_chain"])
def test_kept_level_factors_leave_the_trajectory_unchanged(name, approach,
                                                           monkeypatch):
    # every level equation here is affine, so a step with kept factors is
    # the step a fresh Newton iteration takes
    pb = load_builtin(name)
    _, kept = _run_route(pb.dae, pb, approach, pb.options)
    _empty_kept_factors_before_each_solve(monkeypatch)
    _, cold = _run_route(pb.dae, pb, approach, pb.options)
    assert kept.times.tobytes() == cold.times.tobytes()
    assert kept.states.tobytes() == cold.states.tobytes()
    assert kept.stats == cold.stats


@pytest.mark.parametrize("approach", ["first", "cascade"])
@pytest.mark.parametrize("name", ["index2_structured", "index3_chain"])
def test_chain_level_evaluates_its_jacobian_once_per_time(name, approach,
                                                          monkeypatch):
    # each chain and wedge level is solved once per time, and its implicit
    # derivative there evaluates its Jacobian once, whose factorisation
    # serves the level's next Newton solve; index3_chain's wedge level
    # evaluates two more, of the chain level's derivative at t - h and
    # t + h on its tangent line.  Every level equation here is affine, so
    # beyond that each level evaluates its Jacobian only at its first solve
    # (index2_structured's chain level starts at its solution, 0 at t0)
    per_time, first = {"index2_structured": (1, 1),
                       "index3_chain": (4, 3)}[name]
    pb = load_builtin(name)
    calls = [0]

    def jac(t, x):
        calls[0] += 1
        return pb.dae.field.jacobian(t, x)

    dae = dataclasses.replace(
        pb.dae, field=dataclasses.replace(pb.dae.field, jacobian=jac))
    solved = Counter()
    times = set()
    solve = _CascadeEvaluator._solve

    def counting(self, label, t, *args):
        solved[label] += 1
        times.add(t)
        return solve(self, label, t, *args)

    monkeypatch.setattr(_CascadeEvaluator, "_solve", counting)
    _, traj = _run_route(dae, pb, approach, pb.options)
    assert traj.termination.kind == "reached_tmax"
    chain_solves = sum(n for label, n in solved.items()
                       if label.startswith("chain_level"))
    assert chain_solves == len(times) > 50
    assert calls[0] == per_time * len(times) + first


def test_direct_route_solves_wedge_levels_only_for_the_kernel_offset(
        monkeypatch):
    # the direct route reads the kernel level's offset d_vec alone, which
    # needs the wedge level's implicit derivative at t, so the wedge level
    # is solved once per drift time; the consistent initial point solves it
    # at t0, and that solve serves the first right-hand side on the same
    # per-run state
    pb = load_builtin("index3_chain")
    solved = Counter()
    times = set()
    solve, drift_w = _CascadeEvaluator._solve, reduction.ReducedFirst.drift_w

    def counting(self, label, *args):
        solved[label] += 1
        return solve(self, label, *args)

    def timed(self, t, w, state):
        times.add(t)
        return drift_w(self, t, w, state)

    monkeypatch.setattr(_CascadeEvaluator, "_solve", counting)
    monkeypatch.setattr(reduction.ReducedFirst, "drift_w", timed)
    _, traj = _run_route(pb.dae, pb, "first", pb.options)
    assert traj.termination.kind == "reached_tmax"
    assert len(times) > 100 and pb.options.t0 in times
    assert solved["wedge_level_1"] == len(times)


@pytest.mark.parametrize("approach", ["first", "cascade"])
def test_levels_are_solved_only_at_the_times_asked_for(approach, monkeypatch):
    # every chain and wedge level takes its derivative implicitly at the
    # time it is solved, and a wedge offset's derivative differentiates the
    # levels above along their tangent lines, so no level is solved at a
    # shifted time: each only at the drift's times and the start t0
    pb = load_builtin("index3_chain")
    solved = defaultdict(set)
    asked = {pb.options.t0}
    solve = _CascadeEvaluator._solve
    cls = ReducedFirst if approach == "first" else ReducedCascade
    name = "drift_w" if approach == "first" else "drift_w1"
    drift = getattr(cls, name)

    def counting(self, label, t, *args):
        solved[label].add(t)
        return solve(self, label, t, *args)

    def timed(self, t, w, state):
        asked.add(t)
        return drift(self, t, w, state)

    monkeypatch.setattr(_CascadeEvaluator, "_solve", counting)
    monkeypatch.setattr(cls, name, timed)
    red, traj = _run_route(pb.dae, pb, approach, pb.options)
    assert traj.termination.kind == "reached_tmax"
    assert len(asked) > 100
    assert set(solved) == set(red.levels) == {
        "chain_level_2", "wedge_level_1", "kernel_level"}
    for label in ("chain_level_2", "wedge_level_1"):
        assert solved[label] == asked


def _sine_chain_dae(omega):
    """A = diag(1, J_3) with J_3 the nilpotent upper shift, B = I and
    f = sin(omega t): index 3, one chain (x1, x2, x3) whose kernel row reads
    x1 + x2' = sin(omega_1 t)."""
    a = np.diag([1.0, 0.0, 0.0, 0.0])
    a[1, 2] = a[2, 3] = 1.0
    fld = NonlinearField(
        eval=lambda t, x: np.sin(omega * t),
        jacobian=lambda t, x: np.zeros((4, 4)),
        t_derivative=lambda t, x: omega * np.cos(omega * t),
        structure_tag=StructureTag.STRUCTURED)
    return make_dae(a, np.eye(4), fld)


def _sine_chain_velocity(omega, t):
    """x'(t) of the sine chain: x_k = sum_j (-1)^j g_{k+j}^(j) for k = 1..3,
    with g_k^(j)(t) = omega_k^j sin(omega_k t + j pi / 2); the explicit
    component x0 is left 0, as no level reads it."""
    def g(k, j):
        return omega[k] ** j * np.sin(omega[k] * t + j * np.pi / 2)
    return np.array([0.0] + [sum((-1) ** j * g(k + j, j + 1)
                                 for j in range(4 - k)) for k in (1, 2, 3)])


def test_level_derivatives_match_the_sine_chain_closed_form():
    # each level's coordinates are q^H B x of its slice, so their exact
    # derivatives are q^H B x'(t); the kernel offset is A times the
    # derivative of the order-1 (wedge) part.  The wedge derivative needs
    # the chain level's second derivative, taken along its tangent line
    omega = np.array([0.9, 1.1, 1.3, 0.7])
    dae = _sine_chain_dae(omega)
    a, b = dae.pencil.a, dae.pencil.b
    states = {"first": reduce_first(dae).make_state(),
              "cascade": reduce_cascade(dae).make_state()}
    rc = states["cascade"].rc
    assert list(rc.levels) == ["chain_level_2", "wedge_level_1",
                               "kernel_level"]
    chain, wedge = rc.levels["chain_level_2"], rc.levels["wedge_level_1"]

    def close(got, exact):
        return np.linalg.norm(got - exact) <= 1e-9 * np.linalg.norm(exact)

    for t in (0.0, 0.3, 0.7, 1.9, 4.2):
        xdot = _sine_chain_velocity(omega, t)
        exact_dvec = a @ wedge.lift(wedge.x_coords(b, xdot))
        for approach, state in states.items():
            d_vec = (state.level_offset(0, t) if approach == "first"
                     else state.algebraic_parts(t)["d_vec"])
            assert close(d_vec, exact_dvec), (approach, t)
            assert close(state.chain_values(t)["derivatives"][2],
                         chain.x_coords(b, xdot)), (approach, t)
            assert close(state.wedge_derivative(1, t),
                         wedge.x_coords(b, xdot)), (approach, t)


@pytest.mark.parametrize("name", ["index1_blowup", "index3_chain",
                                  "index2_structured"])
def test_direct_route_solves_the_kernel_level_on_the_state(name, monkeypatch):
    # each right-hand side of the direct route solves its kernel level once,
    # through the per-run state's one level solve, and the consistent
    # initial point once more
    pb = load_builtin(name)
    red = reduce_first(pb.dae)
    t0 = pb.options.t0
    solved = Counter()
    solve = _CascadeEvaluator._solve

    def counting(self, label, *args):
        solved[label] += 1
        return solve(self, label, *args)

    monkeypatch.setattr(_CascadeEvaluator, "_solve", counting)
    traj = integrate_first(red, t0, pb.x_guess, pb.options)
    assert solved["kernel_level"] == traj.stats["nfev"] + 1


def test_direct_kernel_failure_is_a_constraint_solve_failure():
    # from t = 0.3 the kernel row reads x2^2 + 1 + x1 = 0, which has no
    # real root near the run: the failure is labelled as on the cascade route
    pb = load_builtin("failing_constraint")
    red = reduce_first(pb.dae)
    x0 = red.consistent_point(0.0, pb.x_guess)
    with pytest.raises(ConstraintSolveFailure) as info:
        red.drift_w(0.5, pb.dae.pencil.a @ x0, red.make_state(x0))
    assert info.value.level == "kernel_level"
    assert isinstance(info.value.cause, NoConvergence)


def _cubic_chain_row(pb):
    """index2_structured's pair with a chain row whose Jacobian changes
    along a run: the level equation 0.5 x3 + 0.1 x3^3 = 0.8 sin t has the
    derivative 0.5 + 0.3 x3^2, so kept factors are never exact."""
    base = pb.dae.field

    def ev(t, x):
        f = base.eval(t, x)
        f[2] = 0.5 * x[2] - 0.1 * x[2] ** 3 + 0.8 * np.sin(t)
        return f

    def jac(t, x):
        j = base.jacobian(t, x)
        j[2, 2] = 0.5 - 0.3 * x[2] ** 2
        return j

    fld = dataclasses.replace(base, eval=ev, jacobian=jac)
    return make_dae(pb.dae.pencil.a, pb.dae.pencil.b, fld)


def test_kept_factors_follow_a_varying_chain_jacobian(monkeypatch):
    pb = load_builtin("index2_structured")
    dae = _cubic_chain_row(pb)
    opts = dataclasses.replace(pb.options, rtol=1e-10, atol=1e-12)
    routes = ("first", "cascade")
    kept = {a: _run_route(dae, pb, a, opts)[1] for a in routes}
    _empty_kept_factors_before_each_solve(monkeypatch)
    for a in routes:
        cold = _run_route(dae, pb, a, opts)[1]
        assert kept[a].termination.kind == "reached_tmax"
        assert cold.termination.kind == "reached_tmax"
        assert np.abs(kept[a].states[-1] - cold.states[-1]).max() <= 1e-10
    gap = np.abs(kept["first"].states[-1] - kept["cascade"].states[-1]).max()
    assert gap <= 1e-7


def test_nan_start_residual_is_off_the_manifold():
    # NaN fails every comparison, so a start must pass `res <= tol`, not
    # merely fail `res > tol`; the field's warnings at the start are muted
    pb = load_problem_dict(NAN_START)
    with pytest.raises(InconsistentInitialValue) as info:
        integrate_first(reduce_first(pb.dae), pb.options.t0, pb.x_guess,
                        pb.options)
    assert np.isnan(info.value.residual)
