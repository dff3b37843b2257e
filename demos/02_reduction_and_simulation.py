"""Reduce an index-2 linear problem to explicit form and integrate it.

The bundled pair couples d/dt x2 + x1 to a forcing while the second row is
purely algebraic; eliminating blocks by hand gives the closed form
x2 = e^{-t}(x2(0) + 2t), x1 = x2 - e^{-t}, which the adaptive run
reproduces to ~1e-10 while re-solving the constraint at every step.
"""

import numpy as np

from daekit import integrate_first, reduce_first
from daekit.problems import load_builtin, reference_solution

problem = load_builtin("index2_nilpotent_linear")
reduced = reduce_first(problem.dae)

# the run projects the guess onto the constraint manifold, then integrates
traj = integrate_first(reduced, 0.0, problem.x_guess, problem.options)
x0 = reduced.consistent_point(0.0, problem.x_guess)  # that projection
print(f"consistent initial state: {x0} "
      f"(constraint residual {reduced.residual_L0(0.0, x0):.1e})")
print(f"termination: {traj.termination.kind} after {traj.times.size} points, "
      f"{traj.stats['nfev']} field evaluations")

exact = reference_solution("index2_nilpotent_linear", 1.0, x0)
print(f"state at t=1: {traj.states[-1]}")
print(f"closed form : {exact}")
print(f"error       : {np.abs(traj.states[-1] - exact).max():.2e}")
print(f"largest constraint residual along the run: "
      f"{traj.residuals.max():.2e}")
