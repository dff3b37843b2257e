import copy
import dataclasses
import functools
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from daekit import (ComparisonSpec, IntegrationOptions, LyapunovComponent,
                    LyapunovSpec, NonlinearField, SamplingFailure,
                    SingularJacobian, check_blowup_certificate,
                    check_global_solvability, check_lagrange_stability,
                    integrate_first, make_dae, monitor_comparison,
                    probe_integral, reduce_cascade, reduce_first)
from daekit import certificates, problems
from daekit.certificates import CONVERGES, DIVERGES, INCONCLUSIVE, PASS, \
    UNDECIDED, VIOLATED
from daekit.cli import run
from daekit.errors import ConstraintSolveFailure
from daekit.problems import load_builtin, load_problem_dict


def sq_norm():
    return LyapunovSpec(components=[LyapunovComponent(
        eval=lambda w: np.sum(w * w, axis=0),
        gradient=lambda w: 2.0 * np.asarray(w))])


# -- integral probe ---------------------------------------------------------

def test_probe_harmonic_tail_diverges():
    assert probe_integral(lambda u: 1.0 / (1.0 + u), 1.0) == DIVERGES


def test_probe_p_integral_converges():
    assert probe_integral(lambda u: u ** -1.5, 1.0) == CONVERGES


def test_probe_slow_logarithmic_inconclusive():
    assert probe_integral(lambda u: 1.0 / (u * np.log(u)), 10.0) == INCONCLUSIVE


@pytest.mark.parametrize("p,expected", [
    (0.5, DIVERGES), (1.0, DIVERGES), (1.5, CONVERGES), (2.0, CONVERGES)])
def test_probe_p_family(p, expected):
    assert probe_integral(lambda u: u ** -p, 1.0) == expected


def test_probe_time_weights():
    assert probe_integral(lambda t: np.exp(-t), 0.0, kind="over_time") \
        == CONVERGES
    assert probe_integral(lambda t: 1.0, 0.0, kind="over_time") == DIVERGES


def _power_window(p):
    def integral(lo, hi):
        if p == 1.0:
            return math.log(hi / lo)
        return lo ** (1.0 - p) * -math.expm1((1.0 - p) * math.log(hi / lo)) \
            / (p - 1.0)
    return integral


def _affine_window(offset, slope):
    def integral(lo, hi):
        if slope == 0.0:
            return (hi - lo) / offset
        return math.log1p(slope * (hi - lo) / (offset + slope * lo)) / slope
    return integral


def _exp_window(rate):
    return lambda lo, hi: math.exp(-rate * lo) \
        * -math.expm1(-rate * (hi - lo)) / rate


# the registry envelopes with the closed-form integral of each window and
# the class the probe gives them
_ENVELOPES = (
    [pytest.param("U", "power", {"exponent": p}, _power_window(p), cls,
                  id=f"power-{p}")
     for p, cls in [(0.5, DIVERGES), (1.0, DIVERGES), (1.5, CONVERGES),
                    (2.0, CONVERGES), (3.0, CONVERGES), (10.0, CONVERGES),
                    (30.0, INCONCLUSIVE)]]
    + [pytest.param("U", "affine", {"offset": a, "slope": b},
                    _affine_window(a, b), DIVERGES, id=f"affine-{a}-{b}")
       for a, b in [(1.0, 1.0), (0.5, 2.0), (1.0, 0.0)]]
    + [pytest.param("psi", "exp_decay", {"rate": r}, _exp_window(r),
                    CONVERGES, id=f"exp_decay-{r}")
       for r in (1e-3, 0.1, 1.0, 10.0, 100.0, 1e3)]
    + [pytest.param("psi", "constant", {"value": 1.0},
                    lambda lo, hi: hi - lo, DIVERGES, id="constant")])


@pytest.mark.parametrize("which, name, params, exact, expected", _ENVELOPES)
def test_probe_windows_match_closed_form(which, name, params, exact,
                                         expected):
    if which == "U":
        envelope = problems._U_REGISTRY[name](params)
        args = (lambda u: 1.0 / envelope(u), 1.0, "over_value")
    else:
        args = (problems._PSI_REGISTRY[name](params), 0.0, "over_time")
    trace = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert probe_integral(*args, trace=trace) == expected
    assert caught == []
    values = [exact(*w["window"]) for w in trace]
    total = sum(values)
    for w, value in zip(trace, values):
        if value >= 1e-12 * total:
            assert abs(w["value"] - value) <= 1e-13 * value, w
        else:
            assert abs(w["value"] - value) <= 1e-15 * total, w


def test_probe_overflow_inconclusive_and_nan_diverges():
    power = problems._U_REGISTRY["power"]({"exponent": 400.0})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert probe_integral(lambda u: 1.0 / power(u), 1.0) == INCONCLUSIVE
        assert probe_integral(lambda u: float("nan"), 1.0) == DIVERGES
    assert caught == []


def test_probe_rough_integrand_ends_within_the_split_budget():
    # |sin t| has a kink every pi, so on the far windows no piece's two
    # rules ever agree; the budget of bisections per window ends the probe
    calls = [0]

    def rough(t):
        calls[0] += 1
        return abs(math.sin(t))

    assert probe_integral(rough, 0.0, kind="over_time") == DIVERGES
    assert calls[0] <= certificates._PROBE_WINDOWS * 30 \
        * (1 + 2 * certificates._PROBE_SPLITS)


# -- global solvability -----------------------------------------------------

def stable_setup():
    pb = load_builtin("index1_stable")
    return reduce_first(pb.dae), pb


def test_global_solvability_passes():
    red, pb = stable_setup()
    comp = ComparisonSpec(U=lambda u: 1.0 + u, psi=lambda t: np.exp(-t), R=1.0)
    rep = check_global_solvability(red, sq_norm(), comp)
    assert rep.verdict == PASS
    assert rep.violations == []
    assert rep.integral_U == DIVERGES
    assert rep.samples_checked == 500


def test_global_solvability_zero_weight_violated():
    # with a vanishing weight the bound fails where the forcing dominates,
    # i.e. on samples with 0 < w1 < e^{-t}; the exclusion radius must sit
    # below that band for the checker to see them
    red, pb = stable_setup()
    comp = ComparisonSpec(U=lambda u: 1.0 + u, psi=lambda t: 0.0, R=1e-3)
    rep = check_global_solvability(red, sq_norm(), comp)
    assert rep.verdict == VIOLATED
    for v in rep.violations:
        assert 0.0 < v["w"][0] < np.exp(-v["t"])


def test_global_solvability_converging_envelope_inconclusive():
    red, pb = stable_setup()
    comp = ComparisonSpec(U=lambda u: u ** 2, psi=lambda t: np.exp(-t), R=1.0)
    rep = check_global_solvability(red, sq_norm(), comp)
    assert rep.violations == []
    assert rep.integral_U == CONVERGES
    assert rep.verdict == UNDECIDED


def test_norm_mode():
    red, pb = stable_setup()
    # ||drift|| = |e^{-t} - w1| <= (1 + w1^2) * 1
    comp = ComparisonSpec(U=lambda u: 1.0 + u, psi=lambda t: 1.0, R=1.0)
    rep = check_global_solvability(red, sq_norm(), comp,
                                   mode="norm_lipschitz")
    assert rep.kind == "global_solvability_norm"
    assert rep.violations == []


def test_unknown_mode_rejected_before_sampling(monkeypatch):
    def no_drift(self, t, w):
        raise AssertionError("drift solved before the mode was checked")

    monkeypatch.setattr(certificates._DriftAdapter, "drift", no_drift)
    red, pb = stable_setup()
    with pytest.raises(ValueError, match="mode must be"):
        check_global_solvability(red, sq_norm(), pb.comparison(),
                                 mode="bogus")


# -- stability ---------------------------------------------------------------

def test_lagrange_stability_fixture():
    red, pb = stable_setup()
    rep = check_lagrange_stability(red, pb.lyapunov(), pb.comparison())
    assert rep.verdict == PASS
    assert rep.integral_psi == CONVERGES
    ladder = rep.extras["kernel_bound_ladder"]
    for b, k in ladder.items():
        assert k <= 1.0 + float(b) + 1e-9  # |x2| <= 1 + |x1|


def _no_ladder_root_field():
    # 0 = x2^2 + 64 - x1^2 - x2 has a real root only where x1^2 >= 63.75:
    # every main-sampler point (|w| >= R = 10) has one, no point of the
    # ladder levels b = 1, 2, 4 has one
    return NonlinearField(
        eval=lambda t, x: np.array([-x[0], x[1] ** 2 + 64.0 - x[0] ** 2]),
        jacobian=lambda t, x: np.array([[-1.0, 0.0],
                                        [-2.0 * x[0], 2.0 * x[1]]]))


def test_ladder_level_without_samples_is_a_sampling_failure():
    # a level that places nothing used to report K(b) = 0.0
    pb = load_builtin("index1_stable")
    dae = make_dae(pb.dae.pencil.a, pb.dae.pencil.b, _no_ladder_root_field())
    comp = ComparisonSpec(U=lambda u: 1.0 + u, psi=lambda t: np.exp(-t),
                          R=10.0)
    with pytest.raises(SamplingFailure, match=(
            r"^kernel bound ladder at b = 1.0: placed 0/31 samples after "
            r"248 random attempts \(248 constraint-solve failures\)$")):
        check_lagrange_stability(reduce_first(dae), sq_norm(), comp)


def test_stability_with_constant_weight_inconclusive():
    red, pb = stable_setup()
    comp = dataclasses.replace(pb.comparison(), psi=lambda t: 1.0)
    rep = check_lagrange_stability(red, pb.lyapunov(), comp)
    assert rep.integral_psi == DIVERGES
    assert rep.verdict == UNDECIDED


# -- escape certificates ------------------------------------------------------

def cubic_flow():
    pb = load_builtin("index1_cubic_blowup")
    return reduce_first(pb.dae), pb


def test_blowup_certificate_exact_envelope():
    red, pb = cubic_flow()
    rep = check_blowup_certificate(red, pb.lyapunov(), pb.comparison())
    assert rep.verdict == PASS
    assert rep.integral_U == CONVERGES and rep.integral_psi == DIVERGES


def test_blowup_certificate_weak_envelope_is_violated():
    # with envelope 2u^{3/2} the inequality 2w^4 >= 2|w|^3 fails on (1/2, 1)
    red, pb = cubic_flow()
    comp = dataclasses.replace(pb.comparison(),
                               U=lambda u: 2.0 * np.maximum(u, 0.0) ** 1.5)
    rep = check_blowup_certificate(red, pb.lyapunov(), comp)
    assert rep.verdict == VIOLATED
    for v in rep.violations:
        assert 0.25 <= v["w"][0] ** 2 <= 1.0


def test_blowup_certificate_diverging_envelope_inconclusive():
    # 2w^4 >= 0.5 w^2 holds on |w| > 1/2, but the reciprocal envelope
    # integral diverges, so the escape conclusion stays out of reach
    red, pb = cubic_flow()
    comp = dataclasses.replace(pb.comparison(),
                               U=lambda u: 0.5 * np.maximum(u, 1e-12))
    rep = check_blowup_certificate(red, pb.lyapunov(), comp)
    assert rep.violations == []
    assert rep.integral_U == DIVERGES
    assert rep.verdict == UNDECIDED


def test_blowup_certificate_decaying_flow_violated():
    pb = load_builtin("index1_cubic_blowup")
    from daekit.problems import make_dae
    from daekit.reduction import NonlinearField
    fld = NonlinearField(
        eval=lambda t, x: np.array([-x[0], np.sin(t) + x[0]]))
    dae = make_dae(pb.dae.pencil.a, pb.dae.pencil.b, fld)
    red = reduce_first(dae)
    rep = check_blowup_certificate(red, pb.lyapunov(), pb.comparison())
    assert rep.verdict == VIOLATED


def test_sampling_failure_on_unreachable_region():
    red, pb = cubic_flow()
    comp = dataclasses.replace(
        pb.comparison(), domain_set=lambda w: float(w[0]) > 1e9)
    with pytest.raises(SamplingFailure):
        check_blowup_certificate(red, pb.lyapunov(), comp)


@pytest.mark.parametrize("check", [check_global_solvability,
                                   check_lagrange_stability])
def test_non_finite_sample_is_a_sampling_failure(check):
    # at R = 1e300 the sampled drift and envelope overflow; every comparison
    # with NaN is false, so such a sample must not count as satisfied
    red, pb = stable_setup()
    comp = dataclasses.replace(pb.comparison(), R=1e300)
    with pytest.raises(SamplingFailure, match="non-finite sample at t="):
        check(red, pb.lyapunov(), comp)


@pytest.mark.parametrize("envelope", [lambda u: float("nan"),
                                      lambda u: 2.0 * u ** 400])
def test_non_finite_envelope_ends_the_escape_check(envelope):
    # NaN fails every comparison; u ** 400 raises OverflowError on floats
    red, pb = cubic_flow()
    comp = dataclasses.replace(pb.comparison(), U=envelope)
    with pytest.raises(SamplingFailure, match="non-finite sample at t="):
        check_blowup_certificate(red, pb.lyapunov(), comp)


# -- lyapunov spec ------------------------------------------------------------

def test_tie_breaking_is_lowest_index():
    spec = LyapunovSpec(components=[
        LyapunovComponent(eval=lambda w: float(w[0] ** 2),
                          gradient=lambda w: np.array([2 * w[0]])),
        LyapunovComponent(eval=lambda w: float(w[0] ** 2),
                          gradient=lambda w: np.array([2 * w[0]])),
    ])
    # the active component, whose gradient the sampled check reads
    assert spec._extremum(np.array([1.3]))[1] == 0
    spec_min = LyapunovSpec(components=spec.components, kind="min")
    assert spec_min._extremum(np.array([1.3]))[1] == 0


def test_gradient_validation_catches_mismatch():
    bad = LyapunovSpec(components=[LyapunovComponent(
        eval=lambda w: float(np.dot(w, w)),
        gradient=lambda w: 3.0 * np.asarray(w))])
    with pytest.raises(ValueError):
        bad.validate([np.array([1.0, 2.0])])


def test_kind_mismatch_rejected():
    red, pb = cubic_flow()
    with pytest.raises(ValueError):
        check_blowup_certificate(red, sq_norm(), pb.comparison())
    with pytest.raises(ValueError):
        spec = LyapunovSpec(components=sq_norm().components, kind="min")
        check_global_solvability(red, spec, pb.comparison())


# -- trajectory monitor --------------------------------------------------------

def cubic_trajectory(x1_init=0.8, norm_cap=1e3):
    red, pb = cubic_flow()
    x0 = red.consistent_point(0.0, np.array([x1_init, 0.0]))
    traj = integrate_first(red, 0.0, x0, IntegrationOptions(
        t_max=5.0, rtol=1e-11, atol=1e-13))
    keep = np.abs(traj.w_states[:, 0]) < norm_cap
    return dataclasses.replace(traj, times=traj.times[keep],
                               states=traj.states[keep],
                               w_states=traj.w_states[keep],
                               residuals=traj.residuals[keep]), pb


def test_monitor_escape_inequality_holds():
    traj, pb = cubic_trajectory()
    rep = monitor_comparison(traj, pb.lyapunov(), pb.comparison(),
                             direction="ge")
    # the comparison holds with equality; the margin is quadrature-limited
    assert rep.worst_margin_relative >= -5e-3
    assert rep.in_region_fraction == 1.0
    assert rep.first_exit_index is None


def test_monitor_vacuous_outside_region():
    traj, pb = cubic_trajectory()
    comp = dataclasses.replace(pb.comparison(),
                               domain_set=lambda w: float(w[0]) > 1e9)
    rep = monitor_comparison(traj, pb.lyapunov(), comp, direction="ge")
    assert rep.in_region_fraction == 0.0
    assert rep.first_exit_index == 0


def test_monitor_flags_decaying_trajectory():
    pb = load_builtin("ode_scalar_decay")
    red = reduce_first(pb.dae)
    traj = integrate_first(red, 0.0, np.array([1.0]), pb.options)
    comp = ComparisonSpec(U=lambda u: np.maximum(u, 1e-12),
                          psi=lambda t: 1.0)
    rep = monitor_comparison(traj, sq_norm(), comp, direction="ge")
    assert rep.worst_margin < -1e-2  # expected violation, by construction


@pytest.mark.parametrize("direction", ["ge", "le"])
def test_monitor_on_a_one_point_trajectory(direction):
    # a start just before the switch: the first step's constraint solve
    # fails, so the trajectory holds its start alone and no subinterval
    pb = load_builtin("failing_constraint")
    traj = integrate_first(reduce_first(pb.dae), 0.3 - 5e-11,
                           np.array([0.2, 0.0]), pb.options)
    assert traj.times.size == 1
    assert traj.termination.kind == "constraint_solve_failure"
    for inside, fraction, exit_index in ((True, 1.0, None), (False, 0.0, 0)):
        comp = ComparisonSpec(U=lambda u: u, psi=lambda t: 1.0,
                              domain_set=lambda w, inside=inside: inside)
        rep = monitor_comparison(traj, sq_norm(), comp, direction=direction)
        assert rep.worst_margin == 0.0 and rep.worst_margin_relative == 0.0
        assert rep.in_region_fraction == fraction
        assert rep.first_exit_index == exit_index


# -- the stacked sampler ------------------------------------------------------

_CERTIFIED = ("index1_blowup", "index1_cubic_blowup", "index1_stable",
              "ode_scalar_quadratic")
_ROUTES = {"first": reduce_first, "cascade": reduce_cascade}


def _block_candidates(rng, basis, mag_range, size):
    """Endless (t, w) candidates, or None for a zero direction, drawn in
    blocks of `size`: uniform log-times, a (size, k) standard-normal draw
    whose rows are the directions, then uniform log-magnitudes."""
    k = basis.shape[1]
    while True:
        ts = 10.0 ** rng.uniform(np.log10(1e-3), np.log10(1e3), size)
        directions = rng.standard_normal((size, k))
        mags = 10.0 ** rng.uniform(*np.log10(mag_range), size)
        for i in range(size):
            nrm = np.linalg.norm(directions[i])
            yield None if nrm == 0.0 else (
                float(ts[i]), basis @ (mags[i] * (directions[i] / nrm)))


def _one_at_a_time(reduced, comp, seed, region):
    """The (t, w) that a sampler keeps which solves one candidate at a
    time, each on a fresh state, drawing candidates in blocks of 500."""
    basis = certificates._DriftAdapter(reduced).basis
    want = certificates._N_SAMPLES
    out = []

    def try_add(t, w):
        if region is not None and not region(w):
            return
        try:
            reduced.drift(t, w, reduced.make_state())
        except ConstraintSolveFailure:
            return
        out.append((t, w.tolist()))

    for t in certificates._GRID_TIMES:
        for mag in certificates._GRID_MAGNITUDES:
            for k in range(basis.shape[1]):
                for sign in (1.0, -1.0):
                    if len(out) < want:
                        try_add(t, basis[:, k] * (sign * mag * comp.R))
    draws = _block_candidates(np.random.default_rng(seed), basis,
                              (comp.R, comp.R * 1e3), want)
    for cand in itertools.islice(draws, 8 * want):
        if len(out) == want:
            break
        if cand is not None:
            try_add(*cand)
    return out


def _assert_per_sample_drifts(reduced, samples):
    """Each stacked drift and state is the per-sample one, from a fresh
    state, within 1e-12 relative."""
    for t, w, dw, x in samples:
        ref_dw, ref_x = reduced.drift(t, w, reduced.make_state())
        np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(x, ref_x, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("approach", sorted(_ROUTES))
@pytest.mark.parametrize("name", _CERTIFIED)
def test_stacked_samples_are_the_one_at_a_time_draws(name, approach, seed):
    pb = load_builtin(name)
    reduced = _ROUTES[approach](pb.dae)
    comp = pb.comparison()
    samples = certificates._draw_samples(certificates._DriftAdapter(reduced),
                                         comp, seed, comp.domain_set)
    assert [(t, w.tolist()) for t, w, _, _ in samples] \
        == _one_at_a_time(reduced, comp, seed, comp.domain_set)
    _assert_per_sample_drifts(reduced, samples)


def test_region_keeps_a_subsequence_of_the_region_free_candidates():
    # a block's candidates do not depend on which earlier ones were kept,
    # so the region's rejections shift no later candidate
    pb = load_builtin("index1_cubic_blowup")
    adapter = certificates._DriftAdapter(reduce_first(pb.dae))
    want, limit = 100, 800

    def draws():
        rng = np.random.default_rng(5)
        return certificates._random_draws(
            rng, adapter.basis, lambda size: 10.0 * rng.random(size), want)

    candidates = iter([c for c in itertools.islice(draws(), limit)
                       if c is not None])
    placed = certificates._place(adapter, want, draws(), limit,
                                 region=pb.comparison().domain_set)
    assert len(placed.samples) == want and placed.outside > 0
    for t, w, _, _ in placed.samples:
        assert any(t == c[0] and np.array_equal(w, c[1]) for c in candidates)


_CHECKS = {"blowup": check_blowup_certificate,
           "lagrange_stability": check_lagrange_stability}


@pytest.mark.parametrize("approach", sorted(_ROUTES))
@pytest.mark.parametrize("name", _CERTIFIED)
def test_report_dict_is_the_dataclass_dict(name, approach):
    pb = load_builtin(name)
    rep = _CHECKS[pb.certificate["kind"]](_ROUTES[approach](pb.dae),
                                          pb.lyapunov(), pb.comparison())
    assert json.dumps(rep.to_dict(), sort_keys=True) \
        == json.dumps(dataclasses.asdict(rep), sort_keys=True)


def test_unsolved_column_is_dropped_and_counted():
    pb = load_builtin("index1_stable")
    reduced = reduce_first(make_dae(pb.dae.pencil.a, pb.dae.pencil.b,
                                    _no_ladder_root_field()))
    adapter = certificates._DriftAdapter(reduced)
    e1 = adapter.basis[:, 0] * np.sign(adapter.basis[0, 0])
    x1s = (5.0, 10.0, -7.0, 9.0, 20.0)
    draws = iter([(float(k), x1 * e1) for k, x1 in enumerate(x1s)])
    placed = certificates._place(adapter, 2, draws, limit=10)
    # the two rootless candidates are dropped, and no draw follows the
    # second sample
    assert [w[0] for _, w, _, _ in placed.samples] == [10.0, 9.0]
    assert (placed.attempts, placed.failures) == (4, 2)
    _assert_per_sample_drifts(reduced, placed.samples)


def test_damped_kernel_columns_give_the_per_sample_roots():
    # 0 = -arctan(x2 - 3 x1): from x2 = 0 a full Newton step overshoots
    # where |3 x1| > 1.39, so those columns need the line search
    pb = load_builtin("index1_blowup")
    fld = NonlinearField(
        eval=lambda t, x: np.array([-x[0],
                                    x[1] - np.arctan(x[1] - 3.0 * x[0])]),
        jacobian=lambda t, x: np.array(
            [[-1.0, 0.0],
             [3.0, 1.0 - 1.0 / (1.0 + (x[1] - 3.0 * x[0]) ** 2)]]))
    for route in _ROUTES.values():
        reduced = route(make_dae(pb.dae.pencil.a, pb.dae.pencil.b, fld))
        adapter = certificates._DriftAdapter(reduced)
        ts = np.linspace(0.0, 2.0, 9)
        w = np.outer(adapter.basis[:, 0], np.linspace(-4.0, 4.0, 9))
        dw, x, ok = adapter.drift(ts, w)
        assert ok.all()
        np.testing.assert_allclose(x[1], 3.0 * x[0], rtol=1e-12, atol=1e-12)
        _assert_per_sample_drifts(reduced, [
            (t, w[:, i], dw[:, i], x[:, i]) for i, t in enumerate(ts)])


def _singular_at_5(params):
    # 0 = x2^2 + (x1 - 5) x2 - 1 has two real roots for every x1, but its
    # Jacobian at the cold start x2 = 0 vanishes where x1 = 5
    return NonlinearField(
        eval=lambda t, x: np.array([-x[0], x[1] + x[1] ** 2
                                    + (x[0] - 5.0) * x[1] - 1.0]),
        jacobian=lambda t, x: np.array([[-1.0, 0.0],
                                        [x[1], 1.0 + 2.0 * x[1] + x[0]
                                         - 5.0]]))


@pytest.mark.parametrize("approach", sorted(_ROUTES))
def test_singular_column_raises_at_the_kernel_level(tmp_path, capsys,
                                                    monkeypatch, approach):
    monkeypatch.setitem(problems.FIELD_REGISTRY, "singular_at_5",
                        _singular_at_5)
    data = copy.deepcopy(load_builtin("index1_blowup").raw)
    data.update(name="singular_at_5", field={"registry_id": "singular_at_5"})
    data["certificate"] = {
        "kind": "global_solvability", "V": [{"registry_id": "squared_norm"}],
        "U": {"registry_id": "affine"},
        "psi": {"registry_id": "constant"}, "R": 0.5}
    pb = load_problem_dict(data)
    # the grid's third or fourth point, x1 = 5 at t = 0, is the first
    # singular column; the grid points after it are singular too
    with pytest.raises(SingularJacobian) as err:
        check_global_solvability(_ROUTES[approach](pb.dae), pb.lyapunov(),
                                 pb.comparison())
    assert err.value.level == "kernel_level"
    assert err.value.point == (0.0, (0.0,))
    path = tmp_path / "singular_at_5.json"
    path.write_text(json.dumps(data))
    assert run(["certify", str(path), "--approach", approach,
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: SingularJacobian: singular jacobian at (0.0, (0.0,))\n")


@pytest.mark.parametrize("approach", sorted(_ROUTES))
@pytest.mark.parametrize("name, nu, direct_violations",
                         [("index2_structured", 2, 11),
                          ("index3_chain", 3, 73)],
                         ids=["index2_structured", "index3_chain"])
def test_structured_certificate_on_both_routes(name, nu, direct_violations,
                                               approach):
    # the parts that depend on t only (chain and wedge levels, the kernel
    # offset) are solved per sample on a fresh state; no bundled
    # certificate reaches them.  The direct route's samples are off L0 at
    # index 2 and above, as w holds free x2_sigma coordinates, which is
    # where its violations come from; the cascade route's are on L0.
    data = copy.deepcopy(load_builtin(name).raw)
    data["certificate"] = {
        "kind": "global_solvability", "V": [{"registry_id": "squared_norm"}],
        "U": {"registry_id": "affine"},
        "psi": {"registry_id": "constant"}, "R": 1.0}
    pb = load_problem_dict(data)
    reduced = _ROUTES[approach](pb.dae)
    assert reduced.nu == nu
    rep = check_global_solvability(reduced, pb.lyapunov(), pb.comparison())
    assert rep.samples_checked == 500
    assert len(rep.violations) == (direct_violations if approach == "first"
                                   else 0)
    samples = certificates._draw_samples(certificates._DriftAdapter(reduced),
                                         pb.comparison(), 42, None)
    _assert_per_sample_drifts(reduced, samples)


# -- the array form of the sampled check --------------------------------------

def _one_extremum(lyap, w):
    """V(w) and its active index by the one-state rule, in Python floats:
    the reference of the tie rule over columns."""
    vals = [float(c.eval(w)) for c in lyap.components]
    target = max(vals) if lyap.kind == "max" else min(vals)
    tol = certificates._TIE_TOLERANCE * (1.0 + abs(target))
    for k, v in enumerate(vals):
        if abs(v - target) <= tol:
            return target, k
    return target, int(np.argmax(vals) if lyap.kind == "max"
                       else np.argmin(vals))


def _per_sample_violations(reduced, lyap, comp, seed, norm, direction):
    """The violations of the sampled check taken one sample at a time, with
    one-value calls of V, its gradient, U and psi: the reference of the
    array form."""
    samples = certificates._draw_samples(certificates._DriftAdapter(reduced),
                                         comp, seed, comp.domain_set)
    out = []
    for t, w, dw, _ in samples:
        v, k = _one_extremum(lyap, w)
        rhs = comp.U(v) * comp.psi(t)
        side = float(np.linalg.norm(dw)) if norm else float(np.dot(
            dw, np.asarray(lyap.components[k].gradient(w), dtype=float)))
        assert math.isfinite(side) and math.isfinite(rhs)
        slack = 1e-9 * (1.0 + abs(side) + abs(rhs))
        if (side > rhs + slack if direction == "le"
                else side < rhs - slack):
            out.append({"t": t, "w": w.tolist(), "lhs": side, "rhs": rhs})
    return out


def _norm_above_blowup():
    data = copy.deepcopy(load_builtin("index1_blowup").raw)
    data["certificate"]["region"] = {"registry_id": "norm_above",
                                     "params": {"radius": 0.5}}
    return load_problem_dict(data)


def _index3_global():
    data = copy.deepcopy(load_builtin("index3_chain").raw)
    data["certificate"] = {
        "kind": "global_solvability", "V": [{"registry_id": "squared_norm"}],
        "U": {"registry_id": "affine"},
        "psi": {"registry_id": "constant"}, "R": 1.0}
    return load_problem_dict(data)


@pytest.mark.parametrize("case, approach, count", [
    ("norm_above_blowup", "first", 253), ("norm_above_blowup", "cascade", 253),
    ("index3_global", "first", 73), ("stable_norm", "first", 216),
    ("stable_norm", "cascade", 216)])
def test_array_check_is_the_per_sample_check(case, approach, count):
    if case == "norm_above_blowup":
        pb, norm, direction = _norm_above_blowup(), False, "ge"
        check = check_blowup_certificate
    elif case == "index3_global":
        pb, norm, direction = _index3_global(), False, "le"
        check = check_global_solvability
    else:
        pb, norm, direction = load_builtin("index1_stable"), True, "le"
        check = functools.partial(check_global_solvability,
                                  mode="norm_lipschitz")
    reduced = _ROUTES[approach](pb.dae)
    rep = check(reduced, pb.lyapunov(), pb.comparison())
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _per_sample_violations(reduced, pb.lyapunov(), pb.comparison(),
                                     42, norm, direction)
    assert len(rep.violations) == len(ref) == count
    assert [(v["t"], v["w"]) for v in rep.violations] \
        == [(v["t"], v["w"]) for v in ref]
    for side in ("lhs", "rhs"):
        np.testing.assert_allclose([v[side] for v in rep.violations],
                                   [v[side] for v in ref],
                                   rtol=1e-15, atol=0.0)


def _component(value):
    return LyapunovComponent(eval=value, gradient=lambda w: 2.0 * w)


@pytest.mark.parametrize("kind", ["max", "min"])
@pytest.mark.parametrize("values", [
    # two tied components, one off by a relative 1e-12, within the tolerance
    (lambda w: w[0] ** 2, lambda w: w[0] ** 2 * (1.0 + 1e-12)),
    # a finite and an infinite component
    (lambda w: np.sum(w * w, axis=0),
     lambda w: np.full(np.shape(w)[1:], np.inf)),
    # two infinite ones: an infinite extremum ties with neither
    (lambda w: np.full(np.shape(w)[1:], np.inf),
     lambda w: np.full(np.shape(w)[1:], np.inf), lambda w: w[1] ** 2),
], ids=["tied", "one_infinite", "two_infinite"])
def test_tie_rule_over_columns_is_the_one_state_rule(kind, values):
    lyap = LyapunovSpec(components=[_component(v) for v in values],
                        kind=kind)
    w = np.array([[1.3, -0.2, 0.0, 2.0, 0.7],
                  [0.5, 1.0, -3.0, 0.1, 0.0]])
    v, k = lyap._extremum(w)
    ref = [_one_extremum(lyap, w[:, i]) for i in range(w.shape[1])]
    assert v.tolist() == [r[0] for r in ref]
    assert k.tolist() == [r[1] for r in ref]


def test_certify_runs_on_a_field_that_does_not_broadcast():
    # the README's field: no `columns`, so the stacked kernel solves call
    # it one column at a time
    pb = load_builtin("index1_blowup")
    fld = NonlinearField(
        eval=lambda t, x: np.array([x[0] ** 2, np.sin(t) + x[0]]),
        jacobian=lambda t, x: np.array([[2 * x[0], 0.0], [1.0, 0.0]]),
        t_derivative=lambda t, x: np.array([0.0, np.cos(t)]))
    assert not fld.columns and pb.dae.field.columns
    for route in _ROUTES.values():
        ref = check_blowup_certificate(route(pb.dae), pb.lyapunov(),
                                       pb.comparison())
        rep = check_blowup_certificate(
            route(make_dae(pb.dae.pencil.a, pb.dae.pencil.b, fld)),
            pb.lyapunov(), pb.comparison())
        assert rep.verdict == ref.verdict == PASS
        assert rep.samples_checked == 500 and rep.violations == []


def _stable_with(**blocks):
    data = copy.deepcopy(load_builtin("index1_stable").raw)
    data["certificate"].update(blocks)
    return data


def test_power_envelope_of_coefficient_zero_probes_inconclusive():
    # 1 / U(u) divides by a Python 0.0: the probe reads the raise
    pb = load_problem_dict(_stable_with(
        U={"registry_id": "power", "params": {"coefficient": 0.0}}))
    assert certificates._probes(pb.comparison())[0] == INCONCLUSIVE
    rep = check_lagrange_stability(reduce_first(pb.dae), pb.lyapunov(),
                                   pb.comparison())
    assert rep.integral_U == INCONCLUSIVE and rep.verdict == UNDECIDED


@pytest.mark.parametrize("approach", sorted(_ROUTES))
@pytest.mark.parametrize("blocks, line", [
    ({"U": {"registry_id": "power", "params": {"exponent": 400.0}}},
     "non-finite sample at t=0: lhs -180.0, rhs inf"),
    ({"psi": {"registry_id": "exp_decay", "params": {"rate": -1000.0}}},
     "non-finite sample at t=1: lhs -1.2642411176571153, rhs inf"),
], ids=["power_400", "exp_decay_-1000"])
def test_overflowing_envelope_ends_in_one_error_line(tmp_path, capsys,
                                                     approach, blocks, line):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_stable_with(**blocks)))
    assert run(["certify", str(path), "--approach", approach,
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: SamplingFailure: {line}\n"
