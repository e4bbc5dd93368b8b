"""Grid-sampled fields on the twisted bundle: metrics, endomorphisms,
connections, and sections, plus the fiberwise norms.

Arrays are indexed [ix, iy, ...] with matrix axes last.  Seam behaviour is
the only thing distinguishing the kinds: endomorphism-type data wraps by
conjugation, the scalar components of the central connection add the
curvature seam constant, and section values carry the scalar automorphy
phase.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .. import fiber
from ..fiber import comm, dagger, mm
from .grid import TorusGrid
from .twist import TwistData, connection_seam, d4, endo_seam


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

    def wirtinger(self) -> tuple[np.ndarray, np.ndarray]:
        """(d_z, d_zbar) from one pair of 4th-order stencils (d_x, d_y): d_x
        is folded into both combinations before d_y is formed, and each
        stencil's own output holds its d_zbar term."""
        g, seam = self.grid, endo_seam(self.twist)
        dx = d4(self.data, 0, g.h, seam)
        dz = g.cz[0] * dx
        dzb = np.multiply(g.czb[0], dx, out=dx)
        dy = d4(self.data, 1, g.h, seam)
        dz += g.cz[1] * dy
        dzb += np.multiply(g.czb[1], dy, out=dy)
        return dz, dzb

    def _combination(self, c: tuple) -> np.ndarray:
        """c[0] d_x + c[1] d_y, each product formed in its stencil's output."""
        g, seam = self.grid, endo_seam(self.twist)
        dx = d4(self.data, 0, g.h, seam)
        out = np.multiply(c[0], dx, out=dx)
        dy = d4(self.data, 1, g.h, seam)
        out += np.multiply(c[1], dy, out=dy)
        return out

    def d_z(self) -> np.ndarray:
        return self._combination(self.grid.cz)

    def d_zbar(self) -> np.ndarray:
        return self._combination(self.grid.czb)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class MetricField(EndoField):
    """Positive-definite Hermitian field (a metric relative to the frame).

    Immutable: `data` is a read-only view of the array passed in (the
    caller's own array stays writable, and must not be written while the
    metric is in use), or a broadcast of one r x r block, the one value the
    Hermiticity check then reads.  The per-node factors `inv`, `sqrt_pair`
    and `gamma` are computed on first use, kept and returned read-only.
    `is_identity` holds only for the metric `identity_metric` builds; four
    products below (`apply`, `apply_inv`, `dual`, `chern_dz`) then skip the
    factor I and return their other operand, C-ordered as a product would be
    (`hermitian._form_norm_sq` and matmul read memory order, so this keeps the
    results bit-identical).  `conjugate_half` multiplies by the exact I.
    """

    def __post_init__(self):
        self.data = _frozen(self.data.view())
        super().__post_init__()
        vals = self.data[0, 0] if self.data.strides[:2] == (0, 0) else self.data
        herm = np.abs(vals - dagger(vals)).max()
        if herm > 1e-9 * max(1.0, np.abs(vals).max()):
            raise ValueError("metric field is not Hermitian (defect %.2e)" % herm)
        self._inv = self._sqrt_pair = self._gamma = None
        self._identity = False

    @property
    def is_identity(self) -> bool:
        """Exactly I at every node; set only by `identity_metric`."""
        return self._identity

    def inv(self) -> np.ndarray:
        """H^-1 per node."""
        if self._inv is None:
            self._inv = _frozen(fiber.inv(self.data))
        return self._inv

    def sqrt_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(H^(1/2), H^(-1/2)) per node, sharing one eigensystem."""
        if self._sqrt_pair is None:
            self._sqrt_pair = tuple(map(_frozen, fiber.herm_apply(fiber.SQRT_PAIR,
                                                                  self.data)))
        return self._sqrt_pair

    def gamma(self) -> np.ndarray:
        """(1,0)-coefficient H^-1 d_z H of the Chern-connection correction of H."""
        if self._gamma is None:
            self._gamma = _frozen(mm(self.inv(), self.d_z()))
        return self._gamma

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H x per node."""
        return np.ascontiguousarray(x) if self._identity else mm(self.data, x)

    def apply_inv(self, x: np.ndarray) -> np.ndarray:
        """H^-1 x per node."""
        return np.ascontiguousarray(x) if self._identity else mm(self.inv(), x)

    def dual(self, cols: np.ndarray) -> np.ndarray:
        """C^dag H for a column block C: the H-dual rows."""
        if self._identity:
            return np.ascontiguousarray(dagger(cols))
        return np.matmul(dagger(cols), self.data)

    def conjugate_half(self, s: np.ndarray) -> np.ndarray:
        """H^(1/2) s H^(-1/2): s in an H-orthonormal frame."""
        half, inv_half = self.sqrt_pair()
        return mm(half, mm(s, inv_half))

    def chern_dz(self, dz: np.ndarray, s: np.ndarray) -> np.ndarray:
        """d_z s + [gamma, s], the (1,0) Chern derivative of an endomorphism
        field s over a central background, from its d_z."""
        return dz if self._identity else dz + comm(self.gamma(), s)


def identity_metric(grid: TorusGrid, twist: TwistData) -> MetricField:
    """The reference metric I, carrying its exact factors: I^-1 = I^(+-1/2) = I
    and gamma = 0, each a read-only broadcast of one block; flagged `is_identity`."""
    N, r = grid.N, twist.rank
    H = MetricField(grid, twist, np.broadcast_to(np.eye(r, dtype=complex), (N, N, r, r)))
    H._inv, H._sqrt_pair = H.data, (H.data, H.data)
    H._gamma = np.broadcast_to(np.zeros((r, r), complex), H.data.shape)
    H._identity = True
    return H


@dataclass
class ConnectionField:
    """Central unitary connection A = (a_x dx + a_y dy) Id on the twisted bundle.

    On a curve a Hermitian-Einstein connection is projectively flat, so the
    background is a scalar one-form times the identity: `ax` and `ay` have
    shape (N, N), and A commutes with every endomorphism.  The x-seam leaves
    both unchanged; across the y-seam a_x jumps by the constant `seam_x` =
    2 pi i d/r (a_y is only ever differentiated along x).
    """

    grid: TorusGrid
    twist: TwistData
    ax: np.ndarray
    ay: np.ndarray

    def __post_init__(self):
        N = self.grid.N
        for comp in (self.ax, self.ay):
            if comp.shape != (N, N):
                raise ValueError("connection component has shape %r, expected %r"
                                 % (comp.shape, (N, N)))

    @property
    def seam_x(self) -> complex:
        return 2j * np.pi * self.twist.degree / self.twist.rank

    def curvature_xy(self) -> np.ndarray:
        """F_xy = d_x a_y - d_y a_x, a scalar field ([A_x, A_y] = 0)."""
        h, seam = self.grid.h, connection_seam(self.seam_x)
        return d4(self.ay, 0, h, seam) - d4(self.ax, 1, h, seam)

    def i_lambda_F(self) -> np.ndarray:
        """i Lambda F of the background connection (unit-volume form), as the
        (N, N, r, r) field i F_xy Id."""
        return (1j * self.curvature_xy())[..., None, None] * np.eye(self.twist.rank)


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

    def sigma_min_field(self) -> np.ndarray:
        """Smallest singular value of the column block per node: the vector
        norm of a single column, the SVD of a block of m >= 2 columns."""
        cols = self.columns
        if cols.shape[-1] == 1:
            return np.linalg.norm(cols[..., 0], axis=-1)
        return np.linalg.svd(cols, compute_uv=False)[..., -1]

    def min_singular_value(self) -> float:
        return float(self.sigma_min_field().min())


# ----------------------------------------------------------------------------
# fiberwise norms


def rho_norm_field(s: np.ndarray, H: MetricField) -> np.ndarray:
    """Fiberwise operator norm of s with respect to the metric H."""
    return fiber.op_norm(H.conjugate_half(s))


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
