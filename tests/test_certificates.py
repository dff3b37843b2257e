import dataclasses

import numpy as np
import pytest

from daekit import (ComparisonSpec, IntegrationOptions, LyapunovComponent,
                    LyapunovSpec, SamplerConfig, SamplingFailure,
                    check_blowup_certificate, check_global_solvability,
                    check_lagrange_stability, consistent_initialize,
                    integrate_first, monitor_comparison, probe_integral,
                    reduce_first)
from daekit.certificates import CONVERGES, DIVERGES, INCONCLUSIVE, PASS, \
    UNDECIDED, VIOLATED
from daekit.problems import load_builtin


def sq_norm():
    return LyapunovSpec(components=[LyapunovComponent(
        eval=lambda w: float(np.dot(w, w)),
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
    rep = check_global_solvability(
        red, sq_norm(), comp,
        SamplerConfig(t_low=1e-3, t_high=1.0, w_span=1e3))
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


# -- stability ---------------------------------------------------------------

def test_lagrange_stability_fixture():
    red, pb = stable_setup()
    rep = check_lagrange_stability(red, pb.lyapunov(), pb.comparison())
    assert rep.verdict == PASS
    assert rep.integral_psi == CONVERGES
    ladder = rep.extras["kernel_bound_ladder"]
    for b, k in ladder.items():
        assert k <= 1.0 + float(b) + 1e-9  # |x2| <= 1 + |x1|


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
                               U=lambda u: 2.0 * max(u, 0.0) ** 1.5)
    rep = check_blowup_certificate(red, pb.lyapunov(), comp)
    assert rep.verdict == VIOLATED
    for v in rep.violations:
        assert 0.25 <= v["w"][0] ** 2 <= 1.0


def test_blowup_certificate_diverging_envelope_inconclusive():
    # 2w^4 >= 0.5 w^2 holds on |w| > 1/2, but the reciprocal envelope
    # integral diverges, so the escape conclusion stays out of reach
    red, pb = cubic_flow()
    comp = dataclasses.replace(pb.comparison(),
                               U=lambda u: 0.5 * max(u, 1e-12))
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
        check_blowup_certificate(red, pb.lyapunov(), comp,
                                 SamplerConfig(n_samples=32))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("check", [check_global_solvability,
                                   check_lagrange_stability])
def test_non_finite_sample_is_a_sampling_failure(check):
    # at R = 1e300 the sampled drift and envelope overflow; every comparison
    # with NaN is false, so such a sample must not count as satisfied
    red, pb = stable_setup()
    comp = dataclasses.replace(pb.comparison(), R=1e300)
    with pytest.raises(SamplingFailure, match="non-finite sample at t="):
        check(red, pb.lyapunov(), comp)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("envelope", [lambda u: float("nan"),
                                      lambda u: 2.0 * u ** 400])
def test_non_finite_envelope_ends_the_escape_check(envelope):
    # NaN fails every comparison; u ** 400 raises OverflowError on floats
    red, pb = cubic_flow()
    comp = dataclasses.replace(pb.comparison(), U=envelope)
    with pytest.raises(SamplingFailure, match="non-finite sample at t="):
        check_blowup_certificate(red, pb.lyapunov(), comp,
                                 SamplerConfig(n_samples=32))


# -- lyapunov spec ------------------------------------------------------------

def test_tie_breaking_is_lowest_index():
    spec = LyapunovSpec(components=[
        LyapunovComponent(eval=lambda w: float(w[0] ** 2),
                          gradient=lambda w: np.array([2 * w[0]])),
        LyapunovComponent(eval=lambda w: float(w[0] ** 2),
                          gradient=lambda w: np.array([2 * w[0]])),
    ])
    assert spec.active_index(np.array([1.3])) == 0
    spec_min = LyapunovSpec(components=spec.components, kind="min")
    assert spec_min.active_index(np.array([1.3])) == 0


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
    x0 = consistent_initialize(red, 0.0, np.array([x1_init, 0.0]))
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
    comp = ComparisonSpec(U=lambda u: max(u, 1e-12), psi=lambda t: 1.0)
    rep = monitor_comparison(traj, sq_norm(), comp, direction="ge")
    assert rep.worst_margin < -1e-2  # expected violation, by construction
