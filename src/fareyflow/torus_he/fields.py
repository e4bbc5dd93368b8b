"""Grid-sampled fields on the twisted bundle: metrics, endomorphisms,
(1,0)-forms, connections, and sections, plus the fiberwise norms.

Arrays are indexed [ix, iy, ...] with matrix axes last.  Seam behaviour is
the only thing distinguishing the kinds: endomorphism-type data wraps by
conjugation, connection components add the curvature seam constant, and
section values carry the scalar automorphy phase.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .grid import TorusGrid
from .twist import (TwistData, d4_connection, d4_endo, shift_endo, shift_section)

mm = lambda A, B: np.einsum("...ab,...bc->...ac", A, B)


def dagger(A: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(A, -1, -2))


def comm(A, B):
    return mm(A, B) - mm(B, A)


@dataclass
class EndoField:
    """Endomorphism-valued field with twisted conjugation periodicity."""

    grid: TorusGrid
    twist: TwistData
    data: np.ndarray

    def __post_init__(self):
        N, r = self.grid.N, self.twist.rank
        if self.data.shape != (N, N, r, r):
            raise ValueError("expected shape %r, got %r" % ((N, N, r, r), self.data.shape))

    def seam_roundtrip(self) -> float:
        """Shift across each seam and back; nonzero only if the clutching
        conjugation is not implemented unitarily."""
        out = 0.0
        for axis in (0, 1):
            back = shift_endo(shift_endo(self.data, self.twist, axis, 1),
                              self.twist, axis, -1)
            out = max(out, float(np.abs(back - self.data).max()))
        return out

    def seam_jump(self) -> float:
        """Cross-seam smoothness probe: reconstruct each node from 6 ghost
        neighbours by polynomial interpolation and take the worst mismatch.
        O(h^6) for data that continues smoothly through the seams, O(1) if
        the twisted periodicity is violated."""
        w = {-3: 1 / 20, -2: -6 / 20, -1: 15 / 20, 1: 15 / 20, 2: -6 / 20, 3: 1 / 20}
        out = 0.0
        for axis in (0, 1):
            acc = np.zeros_like(self.data)
            for s, c in w.items():
                acc += c * shift_endo(self.data, self.twist, axis, s)
            out = max(out, float(np.abs(acc - self.data).max()))
        return out

    def d_z(self) -> np.ndarray:
        g = self.grid
        dx = d4_endo(self.data, self.twist, 0, g.h)
        dy = d4_endo(self.data, self.twist, 1, g.h)
        return g.cz[0] * dx + g.cz[1] * dy

    def d_zbar(self) -> np.ndarray:
        g = self.grid
        dx = d4_endo(self.data, self.twist, 0, g.h)
        dy = d4_endo(self.data, self.twist, 1, g.h)
        return g.czb[0] * dx + g.czb[1] * dy


class MetricField(EndoField):
    """Positive-definite Hermitian field (a metric relative to the frame)."""

    def __post_init__(self):
        super().__post_init__()
        herm = np.abs(self.data - dagger(self.data)).max()
        if herm > 1e-9 * max(1.0, np.abs(self.data).max()):
            raise ValueError("metric field is not Hermitian (defect %.2e)" % herm)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.data).min())

    def require_positive(self):
        m = self.min_eigenvalue()
        if m <= 0:
            raise ValueError("metric field is not positive (min eigenvalue %.3e)" % m)
        return self

    def sqrt_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(H^(1/2), H^(-1/2)) per node."""
        w, P = np.linalg.eigh(self.data)
        if w.min() <= 0:
            raise ValueError("metric lost positivity (min eigenvalue %.3e)" % w.min())
        s = np.sqrt(w)
        half = np.einsum("...ab,...b,...cb->...ac", P, s, P.conj())
        inv_half = np.einsum("...ab,...b,...cb->...ac", P, 1.0 / s, P.conj())
        return half, inv_half


def identity_metric(grid: TorusGrid, twist: TwistData) -> MetricField:
    N, r = grid.N, twist.rank
    data = np.broadcast_to(np.eye(r, dtype=complex), (N, N, r, r)).copy()
    return MetricField(grid, twist, data)


@dataclass
class ConnectionField:
    """Unitary connection one-form A = A_x dx + A_y dy on the twisted bundle.

    Across the y-seam the components jump by the constant 2 pi i (d/r) (dx +
    Re tau dy); the x-seam is a plain conjugation.
    """

    grid: TorusGrid
    twist: TwistData
    ax: np.ndarray
    ay: np.ndarray

    def __post_init__(self):
        N, r = self.grid.N, self.twist.rank
        for comp in (self.ax, self.ay):
            if comp.shape != (N, N, r, r):
                raise ValueError("connection component has shape %r" % (comp.shape,))

    @property
    def seam_x(self) -> complex:
        return 2j * np.pi * self.twist.degree / self.twist.rank

    def a_z(self) -> np.ndarray:
        c = self.grid.cz
        return c[0] * self.ax + c[1] * self.ay

    def a_zbar(self) -> np.ndarray:
        c = self.grid.czb
        return c[0] * self.ax + c[1] * self.ay

    def curvature_xy(self) -> np.ndarray:
        """F_xy = d_x A_y - d_y A_x + [A_x, A_y]."""
        h = self.grid.h
        dxAy = d4_connection(self.ay, self.twist, 0, h, 0.0)
        dyAx = d4_connection(self.ax, self.twist, 1, h, self.seam_x)
        return dxAy - dyAx + comm(self.ax, self.ay)

    def i_lambda_F(self) -> np.ndarray:
        """i Lambda F of the background connection (unit-volume form)."""
        return 1j * self.curvature_xy()


@dataclass
class FormField:
    """(1,0)-form with endomorphism values, stored by its dz coefficient."""

    grid: TorusGrid
    twist: TwistData
    coeff: np.ndarray

    def norm_sq_field(self, H: MetricField) -> np.ndarray:
        """Pointwise |.|_H^2 = 2 v tr(H^-1 b^dag H b) (nonnegative)."""
        b = self.coeff
        val = np.einsum("...ab,...bc,...cd,...da->...",
                        np.linalg.inv(H.data), dagger(b), H.data, b)
        return 2 * self.grid.v * val.real


@dataclass
class SectionField:
    """Holomorphic-section values (N, N, r) or a block of columns (N, N, r, m)."""

    grid: TorusGrid
    twist: TwistData
    data: np.ndarray

    def __post_init__(self):
        N, r = self.grid.N, self.twist.rank
        if self.data.shape[:3] != (N, N, r) or self.data.ndim not in (3, 4):
            raise ValueError("section data has shape %r" % (self.data.shape,))

    automorphy_residual: float | None = None

    @property
    def columns(self) -> np.ndarray:
        return self.data[..., None] if self.data.ndim == 3 else self.data

    def seam_roundtrip(self) -> float:
        out = 0.0
        for axis in (0, 1):
            back = shift_section(shift_section(self.data, self.twist, self.grid, axis, 1),
                                 self.twist, self.grid, axis, -1)
            out = max(out, float(np.abs(back - self.data).max()))
        scale = np.abs(self.data).max() or 1.0
        return out / scale

    def seam_jump(self) -> float:
        """Cross-seam smoothness probe (see EndoField.seam_jump)."""
        w = {-3: 1 / 20, -2: -6 / 20, -1: 15 / 20, 1: 15 / 20, 2: -6 / 20, 3: 1 / 20}
        out = 0.0
        for axis in (0, 1):
            acc = np.zeros_like(self.data)
            for s, c in w.items():
                acc += c * shift_section(self.data, self.twist, self.grid, axis, s)
            out = max(out, float(np.abs(acc - self.data).max()))
        scale = np.abs(self.data).max() or 1.0
        return out / scale

    def min_singular_value(self) -> float:
        return float(np.linalg.svd(self.columns, compute_uv=False)[..., -1].min())

    def gram(self, H: MetricField | None = None) -> np.ndarray:
        """L^2 Gram matrix of the columns."""
        cols = self.columns
        if H is None:
            g = np.einsum("xyam,xyan->mn", cols.conj(), cols)
        else:
            g = np.einsum("xyam,xyab,xybn->mn", cols.conj(), H.data, cols)
        return g * self.grid.weight


# ----------------------------------------------------------------------------
# fiberwise norms and the u_p diagnostic


def rho_norm_field(s: np.ndarray, H: MetricField) -> np.ndarray:
    """Fiberwise operator norm of s with respect to the metric H."""
    half, inv_half = H.sqrt_pair()
    m = mm(half, mm(s, inv_half))
    return np.linalg.svd(m, compute_uv=False)[..., 0]


def frobenius_norm_field(s: np.ndarray, H: MetricField) -> np.ndarray:
    """Fiberwise |s|_2 with s^dag taken relative to H: tr(s H^-1 s^dag H)."""
    val = np.einsum("...ab,...bc,...cd,...da->...",
                    s, np.linalg.inv(H.data), dagger(s), H.data)
    return np.sqrt(np.maximum(val.real, 0.0))


def lq_norm(field: np.ndarray, q, weight: float) -> float:
    if q == np.inf or q == "inf":
        return float(np.abs(field).max())
    q = float(q)
    return float((np.sum(np.abs(field) ** q) * weight) ** (1.0 / q))


@dataclass
class FieldNorms:
    rho: dict
    frobenius: dict
    u_p: dict
    u_p_monotone: bool
    u_p_limit: np.ndarray


def field_norms(s: EndoField, H: MetricField, qs=(1, 2, np.inf),
                u_powers=(1, 2, 4, 8, 16)) -> FieldNorms:
    """Integrated operator and Frobenius norms plus the u_p diagnostic.

    u_p = (1/p) log tr(exp(p s)) per node.  As p grows u_p is nonincreasing
    and converges to the largest eigenvalue of s; the classical bound chain
    runs through these quantities, and |s|_rho <= |s|_2 holds fiberwise.
    """
    rho_f = rho_norm_field(s.data, H)
    fro_f = frobenius_norm_field(s.data, H)
    w = s.grid.weight
    rho = {q: lq_norm(rho_f, q, w) for q in qs}
    fro = {q: lq_norm(fro_f, q, w) for q in qs}
    half, inv_half = H.sqrt_pair()
    lam = np.linalg.eigvalsh(mm(half, mm(s.data, inv_half)))
    u_p = {}
    for p in u_powers:
        m = lam.max(axis=-1, keepdims=True)
        u_p[p] = (np.log(np.sum(np.exp(p * (lam - m)), axis=-1)) / p + m[..., 0])
    powers = sorted(u_powers)
    mono = all(np.all(u_p[powers[i]] >= u_p[powers[i + 1]] - 1e-12)
               for i in range(len(powers) - 1))
    return FieldNorms(rho, fro, u_p, mono, lam.max(axis=-1))


def normalize_det_at_point(H: MetricField, H0: MetricField,
                           node: tuple[int, int]) -> MetricField:
    """Scale H so that det(H H0^-1) = 1 exactly at the given grid node."""
    r = H.twist.rank
    ratio = H.data[node] @ np.linalg.inv(H0.data[node])
    sign, logdet = np.linalg.slogdet(ratio)
    b = -(logdet + np.log(sign)) / r
    return MetricField(H.grid, H.twist, np.exp(b.real) * H.data)


# ----------------------------------------------------------------------------
# CSV grid dumps


def dump_grid_csv(path, field, grid: TorusGrid, twist: TwistData):
    """Row-major node dump with matrix entries flattened as re/im pairs."""
    data = field if isinstance(field, np.ndarray) else field.data
    r = twist.rank
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([grid.N, grid.tau.real, grid.tau.imag, twist.rank, twist.degree])
        for ix in range(grid.N):
            for iy in range(grid.N):
                row = [ix, iy]
                block = np.asarray(data[ix, iy]).reshape(-1)
                for val in block:
                    row.extend([repr(float(np.real(val))), repr(float(np.imag(val)))])
                w.writerow(row)


def load_grid_csv(path):
    """Inverse of dump_grid_csv; returns (header dict, complex array)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    N, tr, ti, rank, degree = rows[0]
    N, rank, degree = int(N), int(rank), int(degree)
    header = {"N": N, "tau": complex(float(tr), float(ti)), "rank": rank, "degree": degree}
    count = (len(rows[1]) - 2) // 2
    out = np.zeros((N, N, count), complex)
    for row in rows[1:]:
        ix, iy = int(row[0]), int(row[1])
        vals = np.array(row[2:], float)
        out[ix, iy] = vals[0::2] + 1j * vals[1::2]
    if count == rank * rank:
        out = out.reshape(N, N, rank, rank)
    return header, out
