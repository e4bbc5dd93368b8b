"""Coulomb gauge fixing on the unit square.

Generates seeded small-curvature fields at ranks 1, 2, 4, fixes each to the
gauge with vanishing divergence and normal trace, and tabulates the norm
ratio that the uniform gauge-fixing estimate bounds.
"""

import numpy as np

from fareyflow.coulomb import (SquareGrid, coulomb_fix, curvature, grid_norms,
                               random_gauge_field)

grid = SquareGrid(64)
print("rank  seed  iters  |d*A|_L2    max|A_nu|   ratio ||A||_W12 / ||F||_L2")
ratios = []
for k in range(9):
    rank = (1, 2, 4)[k % 3]
    A = random_gauge_field(grid, rank, seed=100 + k, curvature_target=0.03)
    u, Ac, rep = coulomb_fix(A, tol=1e-6)
    ratios.append(rep.ratio)
    print("  %d   %4d   %3d   %.2e   %.2e   %.4f"
          % (rank, 100 + k, rep.iterations, rep.div_residual,
             rep.boundary_residual, rep.ratio))
ratios = np.array(ratios)
print("ratio max/median over the samples: %.4f" % (ratios.max() / np.median(ratios)))

A = random_gauge_field(grid, 2, seed=1, curvature_target=0.03)
f2 = grid_norms(curvature(A), "L^2")
w12 = grid_norms(A, "W^{1,2}")
print("\nbefore fixing: ||F||_L2 = %.4f, ||A||_W12 = %.4f" % (f2, w12))
u, Ac, rep = coulomb_fix(A, tol=1e-6)
print("after fixing:  ||A_c||_W12 = %.4f (ratio %.4f)" % (rep.a_w12, rep.ratio))
