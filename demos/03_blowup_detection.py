"""Finite-time escape detection with extrapolated escape times.

The explicit part of the bundled problem obeys dx1/dt = x1^2, so the exact
escape time from x1(0) = a is 1/a.  Once the norm has grown monotonically
past the cap (|w| = 100 by default), the integrator fits
|w| = C (T* - t)^(-alpha) through each three consecutive points; when the
fits agree it stops, reports the escape as *suspected*, and gives T* as the
escape time and alpha (1 here) as the rate.  From x1(0) = 0.5 the escape
falls on the horizon t_max = 2: the fitted T* lies past it by less than the
fit tolerance, so that run is called by the fit too.
"""

import numpy as np

from daekit import integrate_first, reduce_first
from daekit.problems import load_builtin

problem = load_builtin("index1_blowup")
reduced = reduce_first(problem.dae)

print(f"{'x1(0)':>6} {'exact t*':>9} {'estimate':>12} {'rel err':>9} "
      f"{'rate':>9} {'steps':>6}")
for a in (0.5, 1.0, 2.0):
    guess = problem.x_guess.copy()
    guess[0] = a
    traj = integrate_first(reduced, 0.0, guess, problem.options)
    assert traj.termination.kind == "blowup_suspected"
    est = traj.termination.t_escape_estimate
    rate = traj.termination.blowup_rate
    rate = "-" if rate is None else f"{rate:.6f}"
    exact = 1.0 / a
    print(f"{a:6.2f} {exact:9.4f} {est:12.8f} "
          f"{abs(est - exact) / exact:9.1e} "
          f"{rate:>9} {traj.stats['accepted']:6d}")

print("\nfinal recorded norms (growth just past the cap, where the fits "
      "agree):")
tail = traj.w_states[-4:]
for w in tail:
    print(f"  |w| = {np.linalg.norm(w):.3e}")
