"""Finite-time escape detection with extrapolated escape times.

The explicit part of the bundled problem obeys dx1/dt = x1^2, so the exact
escape time from x1(0) = a is 1/a.  The integrator drives the step size to
its floor while the norm grows monotonically past the cap, reports the
escape as *suspected*, and extrapolates the escape time from the
reciprocal-norm tail.
"""

import numpy as np

from daekit import integrate_first, reduce_first
from daekit.problems import load_builtin

problem = load_builtin("index1_blowup")
reduced = reduce_first(problem.dae)

print(f"{'x1(0)':>6} {'exact t*':>9} {'estimate':>12} {'rel err':>9} "
      f"{'steps':>6}")
for a in (0.5, 1.0, 2.0):
    guess = problem.x_guess.copy()
    guess[0] = a
    x0 = reduced.consistent_point(0.0, guess)
    traj = integrate_first(reduced, 0.0, x0, problem.options)
    assert traj.termination.kind == "blowup_suspected"
    est = traj.termination.t_escape_estimate
    exact = 1.0 / a
    print(f"{a:6.2f} {exact:9.4f} {est:12.8f} "
          f"{abs(est - exact) / exact:9.1e} {traj.stats['accepted']:6d}")

print("\nfinal recorded norms (growth before the cap):")
tail = traj.w_states[-4:]
for w in tail:
    print(f"  |w| = {np.linalg.norm(w):.3e}")
