"""Walk through the linear-algebra layer on a small matrix pair.

We take the 2x2 pair with a nilpotent A, read off its index from the Wong
sequence W_1 = ker A, W_{i+1} = A^{-1}(B W_i), build the
eigenvector/adjoined-vector chains and their dual functionals, and assemble
every projector of the decomposition, checking the defining identities.
"""

import numpy as np

from daekit import (Pencil, analysis_report, build_chains, build_dual_chains,
                    compute_index, verify_projectors)
from daekit.projectors import build_all

A = np.array([[0.0, 1.0], [0.0, 0.0]])
B = np.eye(2)

pencil = Pencil(A, B)
nu = compute_index(pencil)
print(f"index nu = {nu}  (steps of the Wong sequence before it stops growing)")

# the chains are one table: a column of Phi per chain vector, labelled by
# its chain's length m and its level j (j = 1 is the eigenvector); W_j is
# spanned by the chain vectors of levels up to j
canonical = build_chains(pencil)
phi, labels = canonical.phi, canonical.labels
dims = [len(canonical.columns(lambda m, j, i=i: j <= i))
        for i in range(1, nu + 1)]
print(f"Wong dimensions dim W_1..W_nu = {dims}")
print(f"\nkernel dimension n = {canonical.n}, "
      f"chain multiplicities = {canonical.multiplicities}")
for k, first in enumerate(canonical.columns(lambda m, j: j == 1)):
    m = labels[first][0]
    print(f"chain {k}: eigenvector {phi[:, first]}, "
          f"adjoined {phi[:, first + 1:first + m].T.tolist()}")

# the dual chains: column k of Q is the dual of column k of Phi
dual = build_dual_chains(pencil, canonical)
print("dual chain:", dual.q[:, :canonical.multiplicities[0]].T.tolist())

canonical, dual, ps = build_all(pencil)
print("\nP2 (root-space projector):\n", ps.p2)
print("P20 (kernel part):\n", ps.p20)
print("corrected operator and its inverse:\n", ps.a_tilde, "\n", ps.a_tilde_inv)

residuals = verify_projectors(ps, pencil)
worst = max(residuals, key=residuals.get)
print(f"\n{len(residuals)} operator identities verified; "
      f"worst residual {residuals[worst]:.2e} ({worst})")

print("\nanalysis report:")
for key, val in analysis_report(pencil, canonical, dual).items():
    print(f"  {key}: {val}")
