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
from daekit.implicit import _fd_mismatch
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


# -- the probe's array pass ---------------------------------------------------

_CERTIFIED = ("index1_blowup", "index1_cubic_blowup", "index1_stable",
              "ode_scalar_quadratic")


def _integrand(which, name, params):
    if which == "U":
        envelope = problems._U_REGISTRY[name](params)
        return lambda u: 1.0 / envelope(u), 1.0, "over_value"
    return problems._PSI_REGISTRY[name](params), 0.0, "over_time"


def _bundled_integrands():
    for name in _CERTIFIED:
        comp = load_builtin(name).comparison()
        yield pytest.param(lambda u, U=comp.U: 1.0 / U(u), 1.0, "over_value",
                           id=f"{name}-U")
        yield pytest.param(comp.psi, 0.0, "over_time", id=f"{name}-psi")


# every registry envelope but power-30, which overflows on the array pass,
# and a weight of -0.0, whose one-value sums start from 0.0
_ARRAY_INTEGRANDS = (
    [pytest.param(*_integrand(*p.values[:3]), id=p.id) for p in _ENVELOPES
     if p.id != "power-30.0"]
    + [pytest.param(*_integrand("psi", "constant", {"value": -0.0}),
                    id="constant--0.0")]
    + list(_bundled_integrands()))


def _hex_pairs(pairs):
    return [tuple(map(float.hex, p)) for p in pairs]


def _one_value_probe(monkeypatch, g, lower, kind):
    """probe_integral's class and trace with the array pass switched off."""
    trace = []
    with monkeypatch.context() as m:
        m.setattr(certificates, "_first_pairs", lambda g, edges: None)
        cls = probe_integral(g, lower, kind, trace=trace)
    return cls, trace


@pytest.mark.parametrize("g, lower, kind", _ARRAY_INTEGRANDS)
def test_array_pass_has_the_bits_of_the_one_value_pass(monkeypatch, g, lower,
                                                       kind):
    edges = certificates._probe_edges(lower, kind)
    pairs = certificates._first_pairs(g, edges)
    assert pairs is not None
    with np.errstate(all="ignore"):
        ref = [certificates._gauss_pair(g, a, b)
               for a, b in zip(edges[:-1], edges[1:])]
    assert _hex_pairs(pairs) == _hex_pairs(ref)
    cls, ref_trace = _one_value_probe(monkeypatch, g, lower, kind)
    trace = []
    assert probe_integral(g, lower, kind, trace=trace) == cls
    assert json.dumps(trace) == json.dumps(ref_trace)


@pytest.mark.parametrize("name", _CERTIFIED)
def test_probe_traces_are_the_one_value_traces(monkeypatch, name):
    comp = dataclasses.replace(load_builtin(name).comparison(),
                               declared_U_integral=None,
                               declared_psi_integral=None)
    batched = certificates._probes(comp)
    with monkeypatch.context() as m:
        m.setattr(certificates, "_first_pairs", lambda g, edges: None)
        one_value = certificates._probes(comp)
    assert json.dumps(batched) == json.dumps(one_value)


def _scalar_only(u):
    if np.ndim(u):
        raise TypeError("one value at a time")
    return 1.0 + u


@pytest.mark.parametrize("g, expected, windows", [
    (_integrand("U", "power", {"coefficient": 0.0})[0], INCONCLUSIVE, 0),
    (_integrand("U", "power", {"exponent": 400.0})[0], INCONCLUSIVE, 2),
    (_integrand("U", "power", {"exponent": 30.0})[0], INCONCLUSIVE, 34),
    (lambda u: 1.0 / _scalar_only(u), DIVERGES, 40),
], ids=["power-coefficient-0", "power-400", "power-30", "scalar-only"])
def test_array_pass_that_raises_falls_back_to_one_value_calls(
        monkeypatch, g, expected, windows):
    edges = certificates._probe_edges(1.0, "over_value")
    assert certificates._first_pairs(g, edges) is None
    trace = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert probe_integral(g, 1.0, trace=trace) == expected
    assert caught == []
    assert len(trace) == windows
    assert (expected, trace) == _one_value_probe(monkeypatch, g, 1.0,
                                                 "over_value")


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
        pb.comparison(), domain_set=lambda w: w[0] > 1e9)
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
        eval=lambda w: np.sum(w * w, axis=0),
        gradient=lambda w: 3.0 * np.asarray(w))])
    with pytest.raises(ValueError, match="gradient mismatch"):
        bad.validate([np.array([1.0, 2.0])])


def _validate_one_point(spec: LyapunovSpec, points) -> float:
    """The gradient check one point and one coordinate at a time, with
    `fd_jacobian`: the reference of LyapunovSpec.validate."""
    for k, comp in enumerate(spec.components):
        if any(float(comp.eval(w)) < -1e-12 for w in points):
            raise ValueError(f"component {k} negative at sampled point")
    worst = _fd_mismatch(
        (lambda z, c=comp: np.atleast_1d(c.eval(z)),
         np.atleast_2d(np.asarray(comp.gradient(w), dtype=float)), w)
        for w in points for comp in spec.components)
    if worst > certificates._GRAD_RTOL:
        raise ValueError(f"gradient mismatch {worst:.3e}")
    return worst


def _squared_norm():
    return problems._LYAPUNOV_REGISTRY["squared_norm"]({})


def _gradient_cases():
    rng = np.random.default_rng(39)
    sq = _squared_norm()
    shifted = LyapunovComponent(
        eval=sq.eval, gradient=lambda w: sq.gradient(w) + 1e-3)
    below_one = LyapunovComponent(
        eval=lambda w: sq.eval(w) - 1.0, gradient=sq.gradient)
    quartic = LyapunovComponent(
        eval=lambda w: sq.eval(w) ** 2,
        gradient=lambda w: 2.0 * sq.eval(w) * sq.gradient(w))
    # NaN far out, where the one-point check passes a point over
    nan_far = LyapunovComponent(
        eval=lambda w: np.where(sq.eval(w) > 1e3, np.nan, sq.eval(w)),
        gradient=shifted.gradient)
    for n in (1, 2, 3):
        points = list(rng.standard_normal((3, n)) * [[0.5], [3.0], [40.0]])
        far = [2.0 + p for p in points]
        yield [sq], points
        yield [sq, quartic], far
        # a gradient off by 1e-3, and a component negative at one point
        yield [sq, shifted], points
        yield [below_one], [far[0], 0.1 * points[0], far[2]]
        yield [nan_far], [points[0], 100.0 + points[1], points[2]]
        yield [nan_far], [100.0 + p for p in points]


@pytest.mark.parametrize("k, case", enumerate(_gradient_cases()))
def test_stacked_gradient_check_decides_as_the_one_point_check(k, case):
    components, points = case
    spec = LyapunovSpec(components=components)
    try:
        expected = _validate_one_point(spec, points)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            spec.validate(points)
        assert str(err.value).split()[:2] == str(exc).split()[:2]
        return
    assert spec.validate(points) == pytest.approx(expected, rel=1e-9,
                                                  abs=1e-15)


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
                               w_norms=traj.w_norms[keep],
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
                               domain_set=lambda w: w[0] > 1e9)
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
        comp = ComparisonSpec(
            U=lambda u: u, psi=lambda t: 1.0,
            domain_set=lambda w, inside=inside: np.full(np.shape(w)[1:],
                                                        inside))
        rep = monitor_comparison(traj, sq_norm(), comp, direction=direction)
        assert rep.worst_margin == 0.0 and rep.worst_margin_relative == 0.0
        assert rep.in_region_fraction == fraction
        assert rep.first_exit_index == exit_index


# -- the stacked sampler ------------------------------------------------------

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


def _assert_per_sample_drifts(reduced, placed):
    """Each stacked drift and state is the per-sample one, from a fresh
    state, within 1e-12 relative."""
    for i, t in enumerate(placed.ts.tolist()):
        dw, x = placed.dw[:, i], placed.x[:, i]
        ref_dw, ref_x = reduced.drift(t, placed.w[:, i], reduced.make_state())
        np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(x, ref_x, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("approach", sorted(_ROUTES))
@pytest.mark.parametrize("name", _CERTIFIED)
def test_stacked_samples_are_the_one_at_a_time_draws(name, approach, seed):
    pb = load_builtin(name)
    reduced = _ROUTES[approach](pb.dae)
    comp = pb.comparison()
    placed = certificates._draw_samples(certificates._DriftAdapter(reduced),
                                        comp, seed, comp.domain_set)
    assert list(zip(placed.ts.tolist(), placed.w.T.tolist())) \
        == _one_at_a_time(reduced, comp, seed, comp.domain_set)
    _assert_per_sample_drifts(reduced, placed)


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

    candidates = iter([c for c in itertools.islice(_candidates(draws()), limit)
                       if c is not None])
    placed = certificates._place(adapter, want, draws(), limit,
                                 region=pb.comparison().domain_set)
    assert placed.ts.size == want and placed.outside > 0
    for t, w in zip(placed.ts.tolist(), placed.w.T):
        assert any(t == c[0] and np.array_equal(w, c[1]) for c in candidates)


def _candidates(blocks):
    """The candidates of `_random_draws` blocks one at a time: (t, w), or
    None for a zero direction.  A block is drawn when the one before it is
    used up."""
    for ts, ws, nonzero in blocks:
        for t, w, ok in zip(ts.tolist(), ws.T, nonzero.tolist()):
            yield (t, w) if ok else None


def _place_one_at_a_time(adapter, want, draws, limit, grid=(), region=None):
    """The per-candidate placement loop, over (t, w) candidates or None:
    the reference of `_place`, which takes its candidates block by block.
    Returns the (t, w, drift, state) of each sample and the counts."""
    samples, attempts, failures, outside = [], 0, 0, 0
    grid = iter(grid)
    while len(samples) < want:
        ts, ws = [], []
        while len(ts) < want - len(samples):
            cand = next(grid, None)
            if cand is None:
                if attempts == limit:
                    break
                attempts += 1
                cand = next(draws)
                if cand is None:
                    continue
            if region is not None and not region(cand[1]):
                outside += 1
                continue
            ts.append(cand[0])
            ws.append(cand[1])
        if not ts:
            break
        dw, x, ok = adapter.drift(np.array(ts), np.array(ws).T.copy())
        failures += int(ok.size - ok.sum())
        samples += [(ts[i], ws[i], dw[:, i], x[:, i])
                    for i in np.flatnonzero(ok)]
    return samples, attempts, failures, outside


class _ZeroRows:
    """A seeded generator whose standard-normal draws have the given rows
    set to zero, so that those candidates have a zero direction."""

    def __init__(self, seed, rows):
        self.gen, self.rows = np.random.default_rng(seed), list(rows)

    def random(self, size):
        return self.gen.random(size)

    def standard_normal(self, shape):
        out = self.gen.standard_normal(shape)
        out[self.rows] = 0.0
        return out


def _assert_same_placement(placed, ref):
    samples, attempts, failures, outside = ref
    assert (placed.attempts, placed.failures, placed.outside) \
        == (attempts, failures, outside)
    assert placed.ts.tolist() == [s[0] for s in samples]
    for j, arr in enumerate((placed.w, placed.dw, placed.x), start=1):
        assert arr.flags.c_contiguous
        assert arr.shape == (placed.w.shape[0], len(samples))
        assert all(np.array_equal(arr[:, i], s[j])
                   for i, s in enumerate(samples))


def _compare_placements(adapter, want, limit, size, rng, magnitude,
                        region=None, grid=None):
    """`_place` against the per-candidate loop, each on a fresh copy of the
    generator `rng()`: the samples, counts and generator states after."""
    out = []
    for blocks in (True, False):
        gen = rng()
        draws = certificates._random_draws(
            gen, adapter.basis, lambda n, gen=gen: magnitude(gen, n), size)
        if blocks:
            placed = certificates._place(adapter, want, draws, limit, grid,
                                         region)
        else:
            ref = _place_one_at_a_time(
                adapter, want, _candidates(draws), limit,
                () if grid is None else _candidates(iter([grid])), region)
        out.append(getattr(gen, "gen", gen).bit_generator.state)
    assert out[0] == out[1]
    _assert_same_placement(placed, ref)
    return placed


def _rootless_adapter():
    """index1_stable's pair with a kernel level that has a root only where
    x1^2 >= 63.75, so that about half of |x1| <= 16 fail their solve."""
    pb = load_builtin("index1_stable")
    return certificates._DriftAdapter(reduce_first(make_dae(
        pb.dae.pencil.a, pb.dae.pencil.b, _no_ladder_root_field())))


def _right_half(w):
    return w[0] > 0.0


@pytest.mark.parametrize("case", [
    "limit_inside_a_block", "limit_at_a_block_boundary", "zero_direction",
    "rejects_everything", "grid_only"])
def test_block_placement_is_the_per_candidate_loop(case):
    adapter = _rootless_adapter()
    e1 = adapter.basis[:, 0] * np.sign(adapter.basis[0, 0])
    grid = (np.arange(6.0), np.outer(e1, [5.0, 10.0, -9.0, 2.0, -20.0, 12.0]),
            np.ones(6, dtype=bool))
    wide = lambda gen, n: 16.0 * gen.random(n)  # noqa: E731
    seeded = functools.partial(np.random.default_rng, 5)
    if case in ("limit_inside_a_block", "limit_at_a_block_boundary"):
        # three blocks hold too few samples; the limit cuts the third block
        # part-way, or ends the second, and then no third block is drawn
        limit = 60 if case == "limit_inside_a_block" else 50
        placed = _compare_placements(adapter, 40, limit, 25, seeded, wide,
                                     _right_half, grid)
        assert placed.attempts == limit and placed.ts.size < 40
        assert placed.failures > 0 and placed.outside > 0
    elif case == "zero_direction":
        for region in (None, _right_half):
            placed = _compare_placements(
                adapter, 30, 200, 25,
                functools.partial(_ZeroRows, 5, (0, 3, 24)), wide, region)
            assert placed.ts.size == 30 and placed.failures > 0
    elif case == "rejects_everything":
        placed = _compare_placements(
            adapter, 30, 70, 25, seeded, wide,
            lambda w: np.zeros(np.shape(w)[1:], dtype=bool), grid)
        assert placed.ts.size == 0 and placed.failures == 0
        assert (placed.attempts, placed.outside) == (70, 76)
    else:
        placed = _compare_placements(adapter, 2, 200, 25, seeded, wide,
                                     _right_half, grid)
        assert placed.attempts == 0 and placed.w[0].tolist() == [10.0, 12.0]
        assert (placed.failures, placed.outside) == (2, 2)


def test_ladder_levels_share_the_generator_as_the_per_candidate_loop():
    # the four levels draw from one generator, so each level's blocks
    # start where the level before it stopped drawing
    pb = load_builtin("index1_stable")
    adapter = certificates._DriftAdapter(reduce_first(pb.dae))
    per_b = max(16, certificates._N_SAMPLES
                // (4 * len(certificates._KERNEL_LADDER)))
    limit = certificates._MAX_ATTEMPT_FACTOR * per_b
    gens = [np.random.default_rng(43), np.random.default_rng(43)]
    for b in certificates._KERNEL_LADDER:
        draws = [certificates._random_draws(
            gen, adapter.basis, lambda n, gen=gen, b=b: b * gen.random(n),
            per_b) for gen in gens]
        placed = certificates._place(adapter, per_b, draws[0], limit)
        ref = _place_one_at_a_time(adapter, per_b, _candidates(draws[1]),
                                   limit)
        _assert_same_placement(placed, ref)
        assert placed.ts.size == per_b
        assert gens[0].bit_generator.state == gens[1].bit_generator.state


@pytest.mark.parametrize("n_dim", range(1, 7))
@pytest.mark.parametrize("name", ["halfspace", "norm_above"])
def test_region_on_a_stack_is_the_one_state_decision(name, n_dim):
    rng = np.random.default_rng(n_dim)
    w = rng.standard_normal((n_dim, 10_000)) * 10.0 ** rng.uniform(-1, 1,
                                                                    10_000)
    if name == "halfspace":
        normal = rng.standard_normal(n_dim)
        params = {"normal": normal.tolist(), "offset": 0.3}
        old = lambda v: float(np.dot(normal, v)) > 0.3  # noqa: E731
    else:
        params = {"radius": 1.5}
        old = lambda v: float(np.linalg.norm(v)) > 1.5  # noqa: E731
    region = problems._REGION_REGISTRY[name](params, n_dim)
    stack = region(w)
    assert stack.shape == (w.shape[1],) and stack.dtype == bool
    assert 0 < stack.sum() < w.shape[1]
    columns = [w[:, i].copy() for i in range(w.shape[1])]
    assert stack.tolist() == [bool(region(v)) for v in columns]
    if n_dim <= 3:
        # column_dots has the bits of np.dot up to n = 3
        assert stack.tolist() == [old(v) for v in columns]


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
    draws = iter([(np.arange(len(x1s), dtype=float), np.outer(e1, x1s),
                   np.ones(len(x1s), dtype=bool))])
    placed = certificates._place(adapter, 2, draws, limit=10)
    # the two rootless candidates are dropped, and no draw follows the
    # second sample
    assert placed.w[0].tolist() == [10.0, 9.0]
    assert (placed.attempts, placed.failures) == (4, 2)
    _assert_per_sample_drifts(reduced, placed)


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
        _assert_per_sample_drifts(reduced,
                                  certificates._Placed(ts, w, dw, x))


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
    placed = certificates._draw_samples(certificates._DriftAdapter(reduced),
                                        pb.comparison(), 42, None)
    _assert_per_sample_drifts(reduced, placed)


# -- the array form of the sampled check --------------------------------------

def _one_extremum(lyap, w):
    """V(w) and its active index by the one-state rule, in Python floats:
    the reference of the tie rule over columns.  Only an equal value ties
    with an infinite extremum."""
    vals = [float(c.eval(w)) for c in lyap.components]
    target = max(vals) if lyap.kind == "max" else min(vals)
    tol = certificates._TIE_TOLERANCE * (1.0 + abs(target))
    for k, v in enumerate(vals):
        if v == target or math.isfinite(target) and abs(v - target) <= tol:
            return target, k
    return target, int(np.argmax(vals) if lyap.kind == "max"
                       else np.argmin(vals))


def _per_sample_violations(reduced, lyap, comp, seed, norm, direction):
    """The violations of the sampled check taken one sample at a time, with
    one-value calls of V, its gradient, U and psi: the reference of the
    array form."""
    placed = certificates._draw_samples(certificates._DriftAdapter(reduced),
                                        comp, seed, comp.domain_set)
    out = []
    for t, w, dw in zip(placed.ts.tolist(), placed.w.T, placed.dw.T):
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
