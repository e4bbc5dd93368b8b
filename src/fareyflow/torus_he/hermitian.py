"""Curvature of metrics over the background connection, constant-curvature
residuals, second fundamental forms, the integral trace identity, the
sup/mean threshold probe, and conformal determinant normalization.

The Hermitian-Einstein defect i Lambda F_H - 2 pi mu Id has one home,
`curvature_defect`: `he_residual` and the Donaldson flow both read it.  The
Einstein constant 2 pi mu has one home too, `_einstein_constant`.

Conventions: the background unitary connection d + A (compatible with the
identity reference metric) is central, A = a Id with a a scalar one-form, so
[A_z, .] = [A_zbar, .] = 0 on endomorphisms.  For another metric H the Chern
connection adds the (1,0) piece  gamma = H^-1 d_z H dz  and the curvature
contraction becomes

    i Lambda F_H = i F^A_xy - 2 v d_zbar g,   g = gamma coeff.

For the constant-curvature model, i Lambda F = 2 pi mu Id exactly.

The model's reference metric is `identity_metric`, flagged `is_identity`.
On it three metric products (`MetricField.apply`, `dual`, `chern_dz`) and
the trace of `_form_norm_sq` skip the factor I, so the second fundamental
form is bit-identical to the general path at a fraction of its cost.  The
residual there forms no matrix field at all: the defect is the scalar
i F_xy - 2 pi mu times Id, and its norm is read from that (N, N) scalar.
Everything else, the curvature `i_lambda_F_metric` included, takes the
general path on it: products with the exact I and stencils of the exact
gamma = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .. import fiber
from ..fiber import dagger, mm
from .fields import ConnectionField, EndoField, MetricField, SectionField, rho_norm_field

SV_FLOOR = 1e-8             # smallest singular value an inclusion may have at a node
CONFORMAL_MEAN_TOL = 1e-6   # relative mean of the conformal right side accepted


def i_lambda_F_metric(H: MetricField, conn: ConnectionField) -> np.ndarray:
    """i Lambda of the curvature of the metric H over the background."""
    g = EndoField(H.grid, H.twist, H.gamma())
    return conn.i_lambda_F() - 2 * H.grid.v * g.d_zbar()


def _einstein_constant(mu) -> float:
    """2 pi mu, the constant i Lambda F of a Hermitian-Einstein metric of slope mu."""
    return 2 * np.pi * float(Fraction(mu))


def curvature_defect(H: MetricField, conn: ConnectionField, mu) -> np.ndarray:
    """i Lambda F_H - 2 pi mu Id, the Hermitian-Einstein defect of H."""
    r = H.twist.rank
    return i_lambda_F_metric(H, conn) - _einstein_constant(mu) * np.eye(r)


def he_residual(conn: ConnectionField, H: MetricField, mu) -> float:
    """sup over nodes of |i Lambda F_H - 2 pi mu Id| in the H-operator norm.

    The norm is the largest singular value of H^(1/2) S H^(-1/2), not a
    spectral radius: the discrete S = i Lambda F_H - 2 pi mu Id is not
    H-self-adjoint.  On amplitude-0.5 random metrics its relative H-adjoint
    defect is 9e-6 to 6e-5 at N = 64 (ranks 1-8, tau = i) and shrinks under
    refinement; on a model bundle, where S is rounding noise, it is O(1).
    The metric's square-root pair and gamma are its cached factors.

    On the identity metric of a model bundle (`H.is_identity`) the defect is
    c Id with c = i F_xy - 2 pi mu, an (N, N) scalar field, and its operator
    norm is |c|: no (N, N, r, r) field, stencil of gamma = 0 or eigensolve
    is formed.  c is real (a_x and a_y are imaginary), so the general path's
    sqrt(fl(c^2)) is |c| exactly and both paths agree bit for bit.
    """
    if H.is_identity:
        c = 1j * conn.curvature_xy() - _einstein_constant(mu)
        return float(np.abs(c).max())
    return float(rho_norm_field(curvature_defect(H, conn, mu), H).max())


# ----------------------------------------------------------------------------
# subbundles and second fundamental forms


def _form_norm_sq(b: np.ndarray, H: MetricField) -> np.ndarray:
    """Pointwise |b dz|_H^2 = 2 v tr(H^-1 b^dag H b) (nonnegative) of an
    endomorphism-valued (1,0)-form, the trace taken without the product.

    It is formed in row blocks: a block's products (H^-1 b^dag)_ac (H b)_ca
    go C-ordered into one block-sized buffer, so the sum reads them in the
    same order whatever the operands' memory layout, and the identity metric
    skips its factors I bit for bit."""
    out, scale = np.empty(b.shape[:-2]), 2 * H.grid.v
    blocks = fiber.row_blocks(b)
    prod = np.empty(b[blocks[0]].shape, np.result_type(b, H.data))
    for rows in blocks:
        x = b[rows]
        A, B = (dagger(x), x) if H.is_identity else \
            (mm(H.inv()[rows], dagger(x)), mm(H.data[rows], x))
        products = np.multiply(A, np.swapaxes(B, -1, -2), out=prod[:len(x)])
        np.multiply(scale, np.sum(products, axis=(-2, -1)).real, out=out[rows])
    return out


@dataclass
class SecondFundamentalForm:
    beta: np.ndarray             # dz coefficient, maps the subbundle to its complement
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
    # each operand is dropped once read, and (1 - pi) d_zbar pi is measured
    # block by block, never held whole, so the form holds about 4.5 (N, N, r, r)
    # fields at a time
    cols = incl.columns
    svals = incl.sigma_min_field()
    worst = np.unravel_index(np.argmin(svals), svals.shape)
    if not svals[worst] >= SV_FLOOR:
        raise ValueError("inclusion nearly singular at node %r (sigma_min = %.3e)"
                         % (tuple(int(i) for i in worst), svals[worst]))
    cols_h = H.dual(cols)                                     # C^dag H, (m, r)
    gram_inv = fiber.inv(np.matmul(cols_h, cols))
    pi = np.matmul(np.matmul(cols, gram_inv), cols_h)
    del svals, cols_h, gram_inv
    pi_field = EndoField(H.grid, H.twist, pi)

    dz, dzb = pi_field.wirtinger()
    one_minus = np.eye(H.twist.rank) - pi
    holo = float(np.max([np.abs(mm(one_minus[rows], dzb[rows])).max()
                         for rows in fiber.row_blocks(dzb)]))
    del dzb
    b = mm(one_minus, H.chern_dz(dz, pi))
    del dz, one_minus
    return SecondFundamentalForm(b, pi_field, _form_norm_sq(b, H), holo)


def chern_weil_check(beta: SecondFundamentalForm, H: MetricField,
                     muE, muS, rkS: int) -> tuple[float, float, float]:
    """Integral of |beta|^2 against 2 pi (mu_E - mu_S) rk(S); returns
    (lhs, rhs, relative error).  `H` is not read: beta's norm field is
    already formed in its metric."""
    lhs = float(beta.norm_sq.mean())
    rhs = float(2 * np.pi * (Fraction(muE) - Fraction(muS)) * rkS)
    rel = abs(lhs - rhs) / abs(rhs) if rhs else abs(lhs)
    return lhs, rhs, rel


@dataclass
class ThresholdProbe:
    ratio: float
    mean: float


def threshold_probe(beta: SecondFundamentalForm) -> ThresholdProbe:
    """sup |beta|^2 / mean |beta|^2 of a second fundamental form: an
    empirical lower bound for the constant relating the two in the
    convergence-threshold inequality."""
    field = beta.norm_sq
    mean = float(field.mean())
    if not mean > 0:
        raise ValueError("beta vanishes identically; the ratio is undefined" if mean <= 0
                         else "mean |beta|^2 is %r; the ratio is undefined" % mean)
    return ThresholdProbe(float(field.max()) / mean, mean)


# ----------------------------------------------------------------------------
# conformal normalization (Poisson solve on the torus)


@dataclass
class ConformalResult:
    phi: np.ndarray
    normalized: MetricField
    mean_phi: float
    det_deviation: float         # max |det(e^phi H H0^-1) - 1|


def conformal_normalize(H_restricted: MetricField, H0: MetricField, muS,
                        conn: ConnectionField) -> ConformalResult:
    """Solve  Lap(phi) = (2/rk) (tr i Lambda F_H - 2 pi mu_S rk)  with zero
    mean and rescale H by e^phi.

    The right side integrates to zero up to discretization (its mean is the
    curvature integral minus the degree), which is checked against
    CONFORMAL_MEAN_TOL.  The determinant det(e^phi H H0^-1) comes out constant; it equals 1 when
    the input pair is compatibly scaled (the reported deviation makes the
    leftover constant visible instead of hiding it).  `muS` is the slope of
    the restricted bundle and `conn` its background connection, the zero
    connection for a line of degree 0.
    """
    grid = H_restricted.grid
    rk = H_restricted.twist.rank
    tr_ilf = np.einsum("...aa->...", i_lambda_F_metric(H_restricted, conn)).real
    rhs = (2.0 / rk) * (tr_ilf - _einstein_constant(muS) * rk)
    defect = float(abs(rhs.mean()))
    if not defect <= CONFORMAL_MEAN_TOL * max(1.0, float(np.abs(rhs).max())):
        raise ValueError("conformal equation not solvable: right side has mean %.3e"
                         % rhs.mean())
    phi = grid.poisson_solve(rhs - rhs.mean())
    scaled = MetricField(grid, H_restricted.twist,
                         np.exp(phi)[..., None, None] * H_restricted.data)
    ratio = mm(scaled.data, H0.inv())
    det = np.linalg.det(ratio)
    return ConformalResult(phi, scaled, float(abs(phi.mean())), float(np.abs(det - 1).max()))
