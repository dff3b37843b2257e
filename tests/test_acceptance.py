"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity (run with -s to see them on success).
"""

import time

import numpy as np

from daekit import (IntegrationOptions, chain_residuals, check_blowup_certificate,
                    check_lagrange_stability, compute_index,
                    consistent_initialize, dual_residuals, integrate_cascade,
                    integrate_first, reduce_cascade, reduce_first,
                    solve_newton, verify_projectors)
from daekit.certificates import CONVERGES, DIVERGES, PASS
from daekit.implicit import ImplicitProblem, implicit_derivative
from daekit.problems import load_builtin, reference_solution
from daekit.cli import run as cli_run

INTEGRABLE_BUILTINS = (
    "ode_index0", "ode_scalar_quadratic", "ode_scalar_decay",
    "index1_blowup", "index1_cubic_blowup", "index1_stable",
    "index2_nilpotent_linear", "index2_structured", "index3_chain",
    "failing_constraint",
)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_index_oracle(pencil_corpus):
    t0 = time.time()
    hits = sum(compute_index(ws.pencil) == ws.index for ws in pencil_corpus)
    elapsed = time.time() - t0
    report(1, hits == 100 and elapsed < 5.0,
           f"index oracle {hits}/100 in {elapsed:.2f}s (< 5 s)")


def test_criterion_02_projector_identity_suite(analyzed_corpus):
    worst = 0.0
    for ws, _c, _d, ps in analyzed_corpus:
        worst = max(worst, max(verify_projectors(ps, ws.pencil).values()))
    report(2, worst <= 1e-8,
           f"worst projector identity residual {worst:.2e} (<= 1e-8)")


def test_criterion_03_chain_and_dual_validity(analyzed_corpus):
    worst_chain = worst_dual = 0.0
    for ws, canonical, dual, _ps in analyzed_corpus:
        worst_chain = max(worst_chain,
                          chain_residuals(ws.pencil, canonical)["worst"])
        worst_dual = max(worst_dual,
                         dual_residuals(ws.pencil, canonical, dual)["worst"])
    report(3, worst_chain <= 1e-8 and worst_dual <= 1e-8,
           f"chain residual {worst_chain:.2e}, dual/biorthogonality "
           f"{worst_dual:.2e} (<= 1e-8)")


def test_criterion_04_linear_exactness_and_order():
    pb = load_builtin("index2_nilpotent_linear")
    red = reduce_first(pb.dae)
    x0 = consistent_initialize(red, 0.0, pb.x_guess)
    exact = reference_solution("index2_nilpotent_linear", 1.0, x0)

    traj = integrate_first(red, 0.0, x0, pb.options)
    end_err = float(np.abs(traj.states[-1] - exact).max())

    errs = {}
    for h in (1.0 / 8, 1.0 / 16):
        opts = IntegrationOptions(t_max=1.0, rtol=1e-2, atol=1e-2,
                                  h_init=h, h_min=h, h_max=h)
        t = integrate_first(red, 0.0, x0, opts)
        errs[h] = float(np.abs(t.states[-1] - exact).max())
    order = float(np.log2(errs[1.0 / 8] / errs[1.0 / 16]))

    tol_err = []
    for rtol in (1e-6, 5e-7):
        t = integrate_first(red, 0.0, x0, IntegrationOptions(
            t_max=1.0, rtol=rtol, atol=rtol * 1e-2))
        tol_err.append(float(np.abs(t.states[-1] - exact).max()))

    report(4, end_err <= 1e-6 and order >= 4.5 and tol_err[1] < tol_err[0],
           f"end error {end_err:.2e} (<= 1e-6), observed order {order:.2f} "
           f"(>= 4.5), halving tolerances: {tol_err[0]:.2e} -> {tol_err[1]:.2e}")


def test_criterion_05_blowup_estimation():
    pb = load_builtin("index1_blowup")
    red = reduce_first(pb.dae)
    details = []
    ok = True
    for x1 in (0.5, 1.0, 2.0):
        guess = pb.x_guess.copy()
        guess[0] = x1
        x0 = consistent_initialize(red, 0.0, guess)
        t0 = time.time()
        traj = integrate_first(red, 0.0, x0, pb.options)
        elapsed = time.time() - t0
        est = traj.termination.t_escape_estimate
        exact = 1.0 / x1
        rel = abs(est - exact) / exact if est is not None else np.inf
        ok &= (traj.termination.kind == "blowup_suspected"
               and rel <= 0.01 and elapsed < 1.0)
        details.append(f"x1={x1}: est {est:.6f} rel {rel:.1e} {elapsed:.2f}s")
    report(5, ok, "; ".join(details) + " (<= 1%, < 1 s each)")


def test_criterion_06_constraint_preservation():
    worst_traj = 0.0
    worst_init = 0.0
    worst_idem = 0.0
    for name in INTEGRABLE_BUILTINS:
        pb = load_builtin(name)
        structured = pb.dae.projectors.nu >= 2 and \
            pb.dae.field.structure_tag.value != "general"
        if structured:
            red = reduce_cascade(pb.dae, waive_structure_check=True)
            x0 = consistent_initialize(red, pb.options.t0, pb.x_guess)
            traj = integrate_cascade(red, pb.options.t0,
                                     pb.dae.projectors.p1 @ x0, pb.options)
        else:
            red = reduce_first(pb.dae)
            x0 = consistent_initialize(red, pb.options.t0, pb.x_guess)
            traj = integrate_first(red, pb.options.t0, x0, pb.options)
        worst_traj = max(worst_traj, float(traj.residuals.max()))
        worst_init = max(worst_init,
                         red.residual_L0(pb.options.t0, x0))
        again = consistent_initialize(red, pb.options.t0, x0)
        worst_idem = max(worst_idem, float(np.abs(again - x0).max()))
    report(6, worst_traj <= 1e-6 and worst_init <= 1e-10
           and worst_idem <= 1e-10,
           f"trajectory residual {worst_traj:.2e} (<= 1e-6), initialization "
           f"residual {worst_init:.2e} and idempotency {worst_idem:.2e} "
           f"(<= 1e-10)")


def test_criterion_07_implicit_solver_oracles():
    # Newton against independent oracles: the Cardano closed form of the
    # real root of y^3 + y - c, and MINPACK's hybrd (scipy fsolve) on a 2-d
    # system; the implicit derivative against finite differences of the
    # solved branch
    from scipy.optimize import fsolve

    worst_gap = 0.0
    for c in (0.5, 1.0, 2.0, 5.0):
        prob = ImplicitProblem(
            residual=lambda t, p, y, c=c: np.array([y[0] ** 3 + y[0] - c]),
            jac_y=lambda t, p, y: np.array([[3 * y[0] ** 2 + 1.0]]))
        yn = solve_newton(prob, 0.0, None, np.zeros(1), 1e-13)
        s = np.sqrt(c ** 2 / 4 + 1 / 27)
        cardano = np.cbrt(c / 2 + s) + np.cbrt(c / 2 - s)
        worst_gap = max(worst_gap, abs(float(yn[0]) - cardano))

    def fun2(y):
        return np.array([y[0] + 0.1 * np.sin(y[1]) - 1.0,
                         y[1] + 0.1 * y[0] ** 2 - 2.0])

    prob2 = ImplicitProblem(residual=lambda t, p, y: fun2(y))
    yn = solve_newton(prob2, 0.0, None, np.zeros(2), 1e-13)
    ref = fsolve(fun2, np.zeros(2), xtol=1e-14)
    worst_gap = max(worst_gap, float(np.abs(yn - ref).max()))

    prob3 = ImplicitProblem(
        residual=lambda t, p, y: np.array([y[0] ** 3 + y[0] - t]),
        jac_y=lambda t, p, y: np.array([[3 * y[0] ** 2 + 1.0]]))
    worst_d = 0.0
    for t in (0.5, 1.0, 2.0):
        y = solve_newton(prob3, t, None, np.ones(1), 1e-14)
        d = implicit_derivative(prob3, t, None, y)
        h = 1e-5
        yp = solve_newton(prob3, t + h, None, y, 1e-14)
        ym = solve_newton(prob3, t - h, None, y, 1e-14)
        fd = (yp - ym) / (2 * h)
        worst_d = max(worst_d, float(abs(d[0] - fd[0]) / abs(fd[0])))
    report(7, worst_gap <= 1e-9 and worst_d <= 1e-4,
           f"gap to the oracles {worst_gap:.2e} (<= 1e-9), implicit derivative "
           f"vs branch fd {worst_d:.2e} (<= 1e-4 relative)")


def test_criterion_08_certificate_coherence():
    # stability side
    pb = load_builtin("index1_stable")
    red = reduce_first(pb.dae)
    rep = check_lagrange_stability(red, pb.lyapunov(), pb.comparison())
    stable_ok = (rep.verdict == PASS and len(rep.violations) == 0
                 and rep.samples_checked == 500
                 and rep.integral_psi == CONVERGES
                 and rep.integral_U == DIVERGES)
    x0 = consistent_initialize(red, 0.0, pb.x_guess)
    traj = integrate_first(red, 0.0, x0, pb.options)  # horizon 100
    sup_norm = float(np.linalg.norm(traj.states, axis=1).max())
    bounded_ok = (traj.termination.kind == "reached_tmax"
                  and sup_norm <= pb.bound_constant)

    # escape side
    pbc = load_builtin("index1_cubic_blowup")
    redc = reduce_first(pbc.dae)
    repc = check_blowup_certificate(redc, pbc.lyapunov(), pbc.comparison())
    blow_ok = repc.verdict == PASS
    rng = np.random.default_rng(42)
    starts = [0.6, 0.9, 1.3, 2.0] + list(rng.uniform(0.51, 2.5, 4))
    region = pbc.comparison().domain_set
    escapes = 0
    for x1 in starts:
        guess = np.array([float(x1), 0.0])
        x0c = consistent_initialize(redc, 0.0, guess)
        assert region(pbc.dae.pencil.a @ x0c)
        t = integrate_first(redc, 0.0, x0c, pbc.options)
        escapes += t.termination.kind == "blowup_suspected"
    report(8, stable_ok and bounded_ok and blow_ok and escapes == len(starts),
           f"stability verdict pass with sup-norm {sup_norm:.3f} <= "
           f"{pb.bound_constant}; escape certificate pass and "
           f"{escapes}/{len(starts)} sampled starts escaped")


def test_criterion_09_approach_equivalence():
    pb = load_builtin("index2_structured")
    dae = pb.dae
    rf = reduce_first(dae)
    rc = reduce_cascade(dae, waive_structure_check=True)
    checkpoints = np.linspace(0.0, 1.0, 21)
    xf = consistent_initialize(rf, 0.0, pb.x_guess)
    xc = xf.copy()
    sup = 0.0
    for ta, tb in zip(checkpoints[:-1], checkpoints[1:]):
        opts = IntegrationOptions(t0=ta, t_max=tb, rtol=1e-11, atol=1e-13)
        tf = integrate_first(rf, ta, xf, opts)
        tc = integrate_cascade(rc, ta, dae.projectors.p1 @ xc, opts)
        xf, xc = tf.states[-1], tc.states[-1]
        sup = max(sup, float(np.abs(xf - xc).max()))
        xf = consistent_initialize(rf, tb, xf)
    report(9, sup <= 1e-8,
           f"sup-norm gap between the approaches over [0,1]: {sup:.2e} "
           f"(<= 1e-8)")


def test_criterion_10_cli_determinism(tmp_path):
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_run(["simulate", "index1_blowup", "--x0", "1",
                        "--out", str(out)]) == 0
        assert cli_run(["certify", "index1_stable", "--seed", "42",
                        "--out", str(out)]) == 0
        assert cli_run(["sweep", "index1_blowup", "--out", str(out)]) == 0
        runs.append(out)
    names = ("index1_blowup_trajectory.csv", "index1_blowup_termination.json",
             "index1_stable_certificate.json", "index1_blowup_sweep.csv",
             "index1_blowup_run0.csv", "index1_blowup_run1.csv",
             "index1_blowup_run2.csv")
    identical = all((runs[0] / n).read_bytes() == (runs[1] / n).read_bytes()
                    for n in names)
    report(10, identical,
           f"{len(names)} output files byte-identical across repeated runs")
