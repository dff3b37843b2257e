"""Sampled certificate checking for boundedness and finite-time escape.

Two bundled problems carry certificate data:

* the stable problem declares V(w) = |w|^2, U(u) = 1 + u, psi = e^{-t};
  the growth inequality holds on 500 manifold samples, the reciprocal
  envelope integral diverges and psi is integrable, so the boundedness
  hypotheses pass and the [0,100] trajectory stays below the declared bound;
* the cubic problem declares U(u) = 2u^2 on the region w1 > 1/2, where the
  escape inequality holds with equality; the checker passes and a monitored
  trajectory confirms the comparison inequality and region invariance.
"""

import dataclasses

import numpy as np

from daekit import (check_blowup_certificate, check_lagrange_stability,
                    integrate_first, monitor_comparison, reduce_first)
from daekit.problems import load_builtin

stable = load_builtin("index1_stable")
red = reduce_first(stable.dae)
report = check_lagrange_stability(red, stable.lyapunov(), stable.comparison())
print("stability certificate:", report.verdict)
print("  samples:", report.samples_checked,
      " violations:", len(report.violations))
print("  1/U integral:", report.integral_U, " psi integral:",
      report.integral_psi)
print("  kernel bound ladder K(b):", report.extras["kernel_bound_ladder"])

traj = integrate_first(red, 0.0, stable.x_guess, stable.options)
sup = float(np.linalg.norm(traj.states, axis=1).max())
print(f"  sup |x(t)| over [0,100] = {sup:.3f} "
      f"(declared bound {stable.bound_constant})")

cubic = load_builtin("index1_cubic_blowup")
redc = reduce_first(cubic.dae)
report = check_blowup_certificate(redc, cubic.lyapunov(), cubic.comparison())
print("\nescape certificate:", report.verdict)
print("  1/U integral:", report.integral_U, " psi integral:",
      report.integral_psi)

traj = integrate_first(redc, 0.0, np.array([0.8, 0.0]), cubic.options)
print(f"  simulated from x1(0)=0.8: {traj.termination.kind}, escape "
      f"estimate {traj.termination.t_escape_estimate:.6f} "
      f"(exact {1 / (2 * 0.8 ** 2):.6f})")

keep = np.abs(traj.w_states[:, 0]) < 1e3
clipped = dataclasses.replace(traj, times=traj.times[keep],
                              states=traj.states[keep],
                              w_states=traj.w_states[keep],
                              w_norms=traj.w_norms[keep],
                              residuals=traj.residuals[keep])
monitor = monitor_comparison(clipped, cubic.lyapunov(), cubic.comparison(),
                             direction="ge")
print(f"  monitored comparison margin (relative): "
      f"{monitor.worst_margin_relative:.2e}; stayed in region: "
      f"{monitor.in_region_fraction == 1.0}")
