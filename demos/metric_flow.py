"""Descent of the metric energy functional to the constant-curvature metric.

Perturbs the rank-2 model metric by a random self-adjoint field of operator
norm 1/2 and flows back, printing the residual and functional trajectory.
"""

from fractions import Fraction

from fareyflow import fiber
from fareyflow.torus_he import (MetricField, TorusGrid, build_model_bundle,
                                donaldson_flow, he_residual,
                                random_twisted_hermitian)

grid = TorusGrid(1j, 64)
twist, conn, H0 = build_model_bundle(2, 1, grid)
s = random_twisted_hermitian(grid, twist, seed=7, amplitude=0.5)
K = MetricField(grid, twist, fiber.herm_apply(fiber.exp(), s.data))
print("initial residual:", he_residual(conn, K, Fraction(1, 2)))

result = donaldson_flow(K, Fraction(1, 2), conn, tol=1e-6, max_iter=2000)
print("converged:", result.converged, "after", result.iterations, "iterations")
for i in range(0, len(result.residuals), max(1, len(result.residuals) // 12)):
    print("  iter %3d: residual %.3e   functional %+0.6e"
          % (i, result.residuals[i], result.functional[i]))
print("final residual: %.3e" % result.final_residual)
print("largest functional increase along the way: %.2e" % result.monotone_defect())
