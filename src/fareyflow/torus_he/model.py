"""Constant-curvature model bundles on the flat torus and their theta sections.

For coprime (r, d) the bundle is realized with clock/shift clutching and the
background connection  A = 2 pi i (d/r) y (dx + Re(tau) dy) Id,  whose
curvature is the central constant i Lambda F = 2 pi (d/r) Id: the reference
metric (identity in this frame) is exactly the constant-curvature one.

Holomorphic sections exist for d >= 1 and are Gaussian mode sums: component
k of a section sums exp(i pi tau nu^2 r/d + 2 pi i (nu + a)(z + b)) over the
arithmetic progression r*nu = k (mod r), r*nu = j (mod d).  The integer class
j (mod d) indexes a basis of the d-dimensional space of sections.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .fields import ConnectionField, MetricField, SectionField, identity_metric
from .grid import TorusGrid
from .twist import TwistData


class ModelBundle(NamedTuple):
    twist: TwistData
    connection: ConnectionField
    metric: MetricField


def build_model_bundle(r: int, d: int, grid: TorusGrid) -> ModelBundle:
    """Clutching data, constant-curvature connection, and reference metric."""
    if math.gcd(r, d) != 1:
        raise ValueError("need gcd(rank, degree) = 1 for an irreducible "
                         "constant-curvature model, got (%d, %d)" % (r, d))
    twist = TwistData(r, d)
    c = d / r
    conn = ConnectionField(grid, twist, 2j * np.pi * c * grid.Y,
                           2j * np.pi * c * grid.tau.real * grid.Y)
    return ModelBundle(twist, conn, identity_metric(grid, twist))


def _theta_raw(twist: TwistData, grid: TorusGrid, j: int, b: float,
               x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mode sum in the unitary frame on the product of coordinate vectors x, y.

    A mode exp(i pi tau nu^2 r/d + 2 pi i nu (x + tau y + b)) is exp(2 pi i nu
    x) times a factor of y alone (which takes the frame Gaussian), so each
    component is one (len x, modes) @ (modes, len y) product.
    """
    r, d = twist.rank, twist.degree
    tau, v = grid.tau, grid.v
    c = d / r
    # Gaussian in nu centred near -(d/r) y; generous half-width for < 1e-16 tails
    width = math.sqrt(38.0 * d / (math.pi * r * v)) + d / r + 2
    t_span = int(math.ceil(width / d)) + 1
    nus = []
    for k in range(r):
        m0 = k if d == 1 else k + r * (((j - k) * pow(r, -1, d)) % d)
        nu0 = m0 / r
        t_mid = round((-c * (float(y.mean()) + 0.5) - nu0) / d)
        nus.append(nu0 + d * np.arange(t_mid - t_span, t_mid + t_span + 1))
    nu = np.array(nus)[..., None]                         # (r, modes, 1)
    along_x = np.exp(2j * np.pi * nu * x)                 # (r, modes, len x)
    along_y = np.exp(1j * np.pi * tau * nu * nu * r / d
                     + 2j * np.pi * nu * (tau * y + b) - np.pi * c * v * y ** 2)
    out = np.matmul(along_x.transpose(0, 2, 1), along_y)  # (r, len x, len y)
    return np.ascontiguousarray(out.transpose(1, 2, 0))


def theta_section(twist: TwistData, grid: TorusGrid, characteristic) -> SectionField:
    """One holomorphic section of the (r, d) model, in the unitary frame.

    `characteristic` is a pair of rationals (a, b): a must be an integer (it
    selects the basis class a mod d) and b must be a multiple of r/d (other
    values break the clutching quasi-periodicity and are rejected).  The mode
    window is wide enough that the dropped tail is below 1e-16 of the head;
    the clutching identities are then verified exactly by re-evaluating the
    sum at z + 1 and z + tau, and the worst mismatch is stored on the result
    as `automorphy_residual`.
    """
    r, d = twist.rank, twist.degree
    if d <= 0:
        raise ValueError("no holomorphic sections: degree %d <= 0" % d)
    a = Fraction(characteristic[0])
    b = Fraction(characteristic[1])
    if a.denominator != 1:
        raise ValueError("characteristic a = %s must be an integer" % a)
    if (b * d) % r != 0:
        raise ValueError("characteristic b = %s must be a multiple of %d/%d" % (b, r, d))
    j = int(a) % d
    bf = float(b)

    x, y = grid.X[:, 0], grid.Y[0]
    data = _theta_raw(twist, grid, j, bf, x, y)
    scale = np.abs(data).max()
    x_shift = _theta_raw(twist, grid, j, bf, x + 1, y)
    res_x = np.abs(x_shift - data @ twist.U.T).max()
    y_shift = _theta_raw(twist, grid, j, bf, x, y + 1)
    phase = twist.section_phase(grid)
    res_y = np.abs(y_shift - phase[..., None] * (data @ twist.V.T)).max()
    residual = float(max(res_x, res_y) / scale)
    if residual > 1e-10:
        raise AssertionError("theta series violates the clutching rule "
                             "(residual %.2e)" % residual)
    return SectionField(grid, twist, data, automorphy_residual=residual)
