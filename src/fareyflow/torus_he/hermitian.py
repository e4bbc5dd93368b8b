"""Curvature of metrics over the background connection, constant-curvature
residuals, second fundamental forms, the integral trace identity, the
sup/mean threshold probe, and conformal determinant normalization.

The Hermitian-Einstein defect i Lambda F_H - 2 pi mu Id has one home,
`curvature_defect`: `he_residual` and the Donaldson flow both read it.

Conventions: the background unitary connection d + A (compatible with the
identity reference metric) is central, A = a Id with a a scalar one-form, so
[A_z, .] = [A_zbar, .] = 0 on endomorphisms.  For another metric H the Chern
connection adds the (1,0) piece  gamma = H^-1 d_z H dz  and the curvature
contraction becomes

    i Lambda F_H = i F^A_xy - 2 v d_zbar g,   g = gamma coeff.

For the constant-curvature model, i Lambda F = 2 pi mu Id exactly.

The model's reference metric is `identity_metric`, flagged `is_identity`.
On it the curvature skips its stencil of gamma = 0 and the metric products
(`MetricField.apply`, `dual`, `conjugate_half`, `chern_dz`) skip the factor
I, so the residual and the second fundamental form are bit-identical to the
general path at a fraction of its cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .. import fiber
from ..fiber import mm
from .fields import (ConnectionField, EndoField, FormField, MetricField,
                     SectionField, rho_norm_field)

SV_FLOOR = 1e-8             # smallest singular value an inclusion may have at a node
CONFORMAL_MEAN_TOL = 1e-6   # relative mean of the conformal right side accepted


def i_lambda_F_metric(H: MetricField, conn: ConnectionField) -> np.ndarray:
    """i Lambda of the curvature of the metric H over the background."""
    if H.is_identity:
        return conn.i_lambda_F()
    g = EndoField(H.grid, H.twist, H.gamma())
    return conn.i_lambda_F() - 2 * H.grid.v * g.d_zbar()


def curvature_defect(H: MetricField, conn: ConnectionField, mu) -> np.ndarray:
    """i Lambda F_H - 2 pi mu Id, the Hermitian-Einstein defect of H."""
    r = H.twist.rank
    return i_lambda_F_metric(H, conn) - 2 * np.pi * float(Fraction(mu)) * np.eye(r)


def he_residual(conn: ConnectionField, H: MetricField, mu) -> float:
    """sup over nodes of |i Lambda F_H - 2 pi mu Id| in the H-operator norm.

    The norm is the largest singular value of H^(1/2) S H^(-1/2), not a
    spectral radius: the discrete S = i Lambda F_H - 2 pi mu Id is not
    H-self-adjoint.  On amplitude-0.5 random metrics its relative H-adjoint
    defect is 9e-6 to 6e-5 at N = 64 (ranks 1-8, tau = i) and shrinks under
    refinement; on a model bundle, where S is rounding noise, it is O(1).
    The metric's square-root pair and gamma are its cached factors.  On the
    identity metric of a model bundle (`H.is_identity`) neither is read: no
    stencil of gamma = 0 and no conjugation by I is formed, and the residual
    is exactly the operator norm of i Lambda F_A - 2 pi mu Id.
    """
    return float(rho_norm_field(curvature_defect(H, conn, mu), H).max())


# ----------------------------------------------------------------------------
# subbundles and second fundamental forms


@dataclass
class SecondFundamentalForm:
    beta: FormField              # (1,0)-form, maps the subbundle to its complement
    projection: EndoField        # H-orthogonal projection onto the subbundle
    norm_sq: np.ndarray          # pointwise |beta|_H^2
    holomorphy_residual: float   # max |(1 - pi) dbar_A pi| (0 for a holomorphic subbundle)


def second_fundamental_form(incl: SectionField, H: MetricField,
                            conn: ConnectionField) -> SecondFundamentalForm:
    """beta = (1 - pi) d_H pi for the subbundle spanned by the given columns.

    The inclusion must be fiberwise injective: the smallest singular value of
    the column block is checked against SV_FLOOR and the offending node is
    named on failure.  Returns beta with the projection and the pointwise
    norm field |beta|^2 = 2 v tr(H^-1 b^dag H b).  The central background
    `conn` commutes with pi, so only the metric's gamma enters d_H pi.
    """
    cols = incl.columns
    svals = incl.sigma_min_field()
    worst = np.unravel_index(np.argmin(svals), svals.shape)
    if svals[worst] < SV_FLOOR:
        raise ValueError("inclusion nearly singular at node %r (sigma_min = %.3e)"
                         % (tuple(int(i) for i in worst), svals[worst]))
    cols_h = H.dual(cols)                                     # C^dag H, (m, r)
    gram_inv = fiber.inv(np.matmul(cols_h, cols))
    pi = np.matmul(np.matmul(cols, gram_inv), cols_h)
    pi_field = EndoField(H.grid, H.twist, pi)

    dz, dzb = pi_field.wirtinger()
    one_minus = np.eye(H.twist.rank) - pi
    b = mm(one_minus, H.chern_dz(dz, pi))
    holo = float(np.abs(mm(one_minus, dzb)).max())
    beta = FormField(H.grid, H.twist, b)
    return SecondFundamentalForm(beta, pi_field, beta.norm_sq_field(H), holo)


def chern_weil_check(beta: FormField | SecondFundamentalForm, H: MetricField,
                     muE, muS, rkS: int) -> tuple[float, float, float]:
    """Integral of |beta|^2 against 2 pi (mu_E - mu_S) rk(S); returns
    (lhs, rhs, relative error)."""
    if isinstance(beta, SecondFundamentalForm):
        field = beta.norm_sq
    else:
        field = beta.norm_sq_field(H)
    lhs = float(field.mean())
    rhs = float(2 * np.pi * (Fraction(muE) - Fraction(muS)) * rkS)
    rel = abs(lhs - rhs) / abs(rhs) if rhs else abs(lhs)
    return lhs, rhs, rel


@dataclass
class ThresholdProbe:
    ratio: float
    sup: float
    mean: float


def threshold_probe(beta: SecondFundamentalForm | np.ndarray) -> ThresholdProbe:
    """sup |beta|^2 / mean |beta|^2 of a second fundamental form or of a
    |beta|^2 field: an empirical lower bound for the constant relating the
    two in the convergence-threshold inequality."""
    field = beta.norm_sq if isinstance(beta, SecondFundamentalForm) else beta
    mean = float(field.mean())
    if mean <= 0:
        raise ValueError("beta vanishes identically; the ratio is undefined")
    return ThresholdProbe(float(field.max()) / mean, float(field.max()), mean)


# ----------------------------------------------------------------------------
# conformal normalization (Poisson solve on the torus)


@dataclass
class ConformalResult:
    phi: np.ndarray
    normalized: MetricField
    mean_phi: float
    rhs_mean_defect: float
    det_deviation: float         # max |det(e^phi H H0^-1) - 1|


def conformal_normalize(H_restricted: MetricField, H0: MetricField, mu_pair,
                        conn: ConnectionField | None = None) -> ConformalResult:
    """Solve  Lap(phi) = (2/rk) (tr i Lambda F_H - 2 pi mu_S rk)  with zero
    mean and rescale H by e^phi.

    The right side integrates to zero up to discretization (its mean is the
    curvature integral minus the degree), which is checked against
    CONFORMAL_MEAN_TOL.  The determinant det(e^phi H H0^-1) comes out constant; it equals 1 when
    the input pair is compatibly scaled (the reported deviation makes the
    leftover constant visible instead of hiding it).
    """
    grid = H_restricted.grid
    rk = H_restricted.twist.rank
    muE, muS = mu_pair
    if conn is None:
        zero = np.zeros((grid.N, grid.N), complex)
        conn = ConnectionField(grid, H_restricted.twist, zero, zero)
    tr_ilf = np.einsum("...aa->...", i_lambda_F_metric(H_restricted, conn)).real
    rhs = (2.0 / rk) * (tr_ilf - 2 * np.pi * float(Fraction(muS)) * rk)
    defect = float(abs(rhs.mean()))
    if defect > CONFORMAL_MEAN_TOL * max(1.0, float(np.abs(rhs).max())):
        raise ValueError("conformal equation not solvable: right side has mean %.3e"
                         % rhs.mean())
    phi = grid.poisson_solve(rhs - rhs.mean())
    scaled = MetricField(grid, H_restricted.twist,
                         np.exp(phi)[..., None, None] * H_restricted.data)
    ratio = mm(scaled.data, H0.inv())
    det = np.linalg.det(ratio)
    return ConformalResult(phi, scaled, float(abs(phi.mean())), defect,
                           float(np.abs(det - 1).max()))
