"""Constant-curvature bundles on the square torus and their theta sections.

Builds the rank-2 degree-1 model, includes the theta line subbundle, and
checks the two central integral identities: the constant-curvature residual
of the model metric and the trace integral of the second fundamental form.
Also prints the sup/mean ratio of |beta|^2, which is ~2.19 rather than 1:
the pointwise norm is a theta-type density with one zero, not a constant.
"""

from fractions import Fraction

import numpy as np

from fareyflow.torus_he import (TorusGrid, build_model_bundle, chern_weil_check,
                                conformal_normalize, he_residual,
                                second_fundamental_form, theta_section,
                                threshold_probe)

grid = TorusGrid(1j, 96)
twist, conn, H0 = build_model_bundle(2, 1, grid)
print("rank 2, degree 1 model at N =", grid.N)
print("  constant-curvature residual:", he_residual(conn, H0, Fraction(1, 2)))

sec = theta_section(twist, grid, (0, 0))
print("  theta section: clutching residual %.2e, min |sigma| = %.4f"
      % (sec.automorphy_residual, sec.min_singular_value()))

sff = second_fundamental_form(sec, H0, conn)
lhs, rhs, rel = chern_weil_check(sff, H0, Fraction(1, 2), 0, 1)
print("  integral of |beta|^2 = %.9f vs 2 pi (mu_E - mu_S) rk S = %.9f "
      "(rel err %.1e)" % (lhs, rhs, rel))

probe = threshold_probe(sff)
b2 = sff.norm_sq
iz = np.unravel_index(b2.argmin(), b2.shape)
print("  sup/mean of |beta|^2 = %.5f; minimum %.2e at node (%d, %d) "
      "(a zero of a theta-type density)" % (probe.ratio, b2.min(), iz[0], iz[1]))

# restricted metric on the line subbundle: conformal determinant normalization
h_s = np.einsum("xya,xya->xy", sec.data.conj(), sec.data).real
from fareyflow.torus_he import ConnectionField, MetricField, TwistData, identity_metric
tw1 = TwistData(1, 0)
Hs = MetricField(grid, tw1, h_s[..., None, None].astype(complex))
zero = np.zeros((grid.N, grid.N), complex)
res = conformal_normalize(Hs, identity_metric(grid, tw1), 0,
                          ConnectionField(grid, tw1, zero, zero))
scaled = res.normalized.data[..., 0, 0].real
print("  conformal weight: mean phi = %.1e, det(e^phi h) constant to %.1e"
      % (res.mean_phi, scaled.std() / scaled.mean()))
