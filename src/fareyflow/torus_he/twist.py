"""Clutching data and twisted derivative stencils on the torus grid.

A rank-r bundle of degree d is realized with constant clutching unitaries:
U = clock (diagonal of r-th roots of unity) across the x-seam and
V = shift^(-d) across the y-seam, which satisfy V U = exp(2 pi i d/r) U V.
Endomorphism-valued fields wrap seams by conjugation, connection components
pick up an additive constant across the y-seam, and section values pick up
the scalar automorphy phase.  Stencil shifts build ghost nodes with exactly
these rules, so 4th-order centered differences see globally smooth data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


def clock_matrix(r: int) -> np.ndarray:
    zeta = np.exp(2j * np.pi / r)
    return np.diag(zeta ** np.arange(r))


def shift_matrix(r: int) -> np.ndarray:
    S = np.zeros((r, r), complex)
    for a in range(r):
        S[a, (a - 1) % r] = 1.0
    return S


@dataclass(frozen=True)
class TwistData:
    """Constant clutching unitaries for a rank-r, degree-d bundle."""

    rank: int
    degree: int
    U: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)

    @classmethod
    def clock_shift(cls, rank: int, degree: int) -> "TwistData":
        if rank < 1:
            raise ValueError("rank must be >= 1")
        U = clock_matrix(rank)
        V = np.linalg.matrix_power(shift_matrix(rank).conj().T, degree % rank) \
            if degree % rank else np.eye(rank, dtype=complex)
        return cls(rank, degree, U, V)

    @classmethod
    def trivial(cls, rank: int) -> "TwistData":
        eye = np.eye(rank, dtype=complex)
        return cls(rank, 0, eye, eye)

    @property
    def mu(self) -> Fraction:
        return Fraction(self.degree, self.rank)

    @property
    def commutator_phase(self) -> complex:
        return np.exp(2j * np.pi * self.degree / self.rank)

    def check(self, tol: float = 1e-12) -> float:
        """Max residual of unitarity and the commutation relation."""
        eye = np.eye(self.rank)
        r = max(np.abs(self.U @ self.U.conj().T - eye).max(),
                np.abs(self.V @ self.V.conj().T - eye).max(),
                np.abs(self.V @ self.U - self.commutator_phase * self.U @ self.V).max())
        if r > tol:
            raise ValueError("clutching data inconsistent (residual %.2e)" % r)
        return float(r)

    def section_phase(self, grid, y_offset: int = 0) -> np.ndarray:
        """Scalar automorphy phase multiplying V at the y-seam.

        At base point z the upward seam rule for sections is
        sigma(z + tau) = exp(i theta(z)) V sigma(z) with
        theta = -pi (d/r) (2 Re z + Re tau).
        """
        c = self.degree / self.rank
        rez = grid.X + grid.tau.real * (grid.Y + y_offset)
        return np.exp(-1j * np.pi * c * (2 * rez + grid.tau.real))


# ----------------------------------------------------------------------------
# ghost-node shifts.  shift_*(F, s) returns the array whose node (j, k) holds
# the field value s grid steps away along the axis, using the seam rules.


def _conj(block: np.ndarray, M: np.ndarray) -> np.ndarray:
    return np.einsum("ab,...bc,dc->...ad", M, block, M.conj())


def _strip(ndim: int, axis: int, sl: slice) -> tuple:
    idx = [slice(None)] * ndim
    idx[axis] = sl
    return tuple(idx)


def shift_endo(F: np.ndarray, twist: TwistData, axis: int, s: int) -> np.ndarray:
    N = F.shape[axis]
    G = np.roll(F, -s, axis=axis)
    M = twist.U if axis == 0 else twist.V
    if s > 0:
        idx = _strip(F.ndim, axis, slice(N - s, N))
        G[idx] = _conj(G[idx], M)
    elif s < 0:
        idx = _strip(F.ndim, axis, slice(0, -s))
        G[idx] = _conj(G[idx], M.conj().T)
    return G


def shift_connection(F: np.ndarray, twist: TwistData, axis: int, s: int,
                     seam_const: complex) -> np.ndarray:
    """Like shift_endo but adds seam_const * Id per upward y-seam crossing."""
    N = F.shape[axis]
    G = shift_endo(F, twist, axis, s)
    if axis == 1 and seam_const != 0 and s != 0:
        eye = np.eye(twist.rank)
        if s > 0:
            idx = _strip(F.ndim, axis, slice(N - s, N))
            G[idx] = G[idx] + seam_const * eye
        else:
            idx = _strip(F.ndim, axis, slice(0, -s))
            G[idx] = G[idx] - seam_const * eye
    return G


def shift_section(F: np.ndarray, twist: TwistData, grid, axis: int, s: int) -> np.ndarray:
    """Seam rule for section values (N, N, r) or stacked columns (N, N, r, m)."""
    N = F.shape[axis]
    G = np.roll(F, -s, axis=axis)
    vec = "...a" if F.ndim == 3 else "...am"
    if s == 0:
        return G
    if axis == 0:
        M = twist.U if s > 0 else twist.U.conj().T
        idx = _strip(F.ndim, axis, slice(N - s, N) if s > 0 else slice(0, -s))
        G[idx] = np.einsum("ab,%s->%s" % (vec.replace("a", "b"), vec), M, G[idx])
        return G
    if s > 0:
        idx = _strip(F.ndim, axis, slice(N - s, N))
        ph = twist.section_phase(grid)[_strip(2, axis, slice(0, s))]
        blk = np.einsum("ab,%s->%s" % (vec.replace("a", "b"), vec), twist.V, G[idx])
        G[idx] = ph[..., None] * blk if F.ndim == 3 else ph[..., None, None] * blk
    else:
        idx = _strip(F.ndim, axis, slice(0, -s))
        ph = twist.section_phase(grid, y_offset=-1)[_strip(2, axis, slice(N + s, N))]
        blk = np.einsum("ba,%s->%s" % (vec.replace("a", "b"), vec), twist.V.conj(), G[idx])
        G[idx] = np.conj(ph)[..., None] * blk if F.ndim == 3 else np.conj(ph)[..., None, None] * blk
    return G


# ----------------------------------------------------------------------------
# 4th-order centered differences built on the ghost shifts


def _d4(shifts, h: float):
    m2, m1, p1, p2 = shifts
    return (m2 - 8 * m1 + 8 * p1 - p2) / (12 * h)


def d4_endo(F: np.ndarray, twist: TwistData, axis: int, h: float) -> np.ndarray:
    return _d4([shift_endo(F, twist, axis, s) for s in (-2, -1, 1, 2)], h)


def d4_connection(F: np.ndarray, twist: TwistData, axis: int, h: float,
                  seam_const: complex) -> np.ndarray:
    return _d4([shift_connection(F, twist, axis, s, seam_const) for s in (-2, -1, 1, 2)], h)


def d4_section(F: np.ndarray, twist: TwistData, grid, axis: int, h: float) -> np.ndarray:
    return _d4([shift_section(F, twist, grid, axis, s) for s in (-2, -1, 1, 2)], h)


# ----------------------------------------------------------------------------
# Weyl components: for clock/shift twists every endomorphism field expands as
# sum_{j,k} sigma_jk(x, y) C^j S^k where the scalar components obey Bloch
# conditions sigma(x+1, y) = zeta^k sigma, sigma(x, y+1) = zeta^(j d) sigma.
# Removing the Bloch phase makes them plainly periodic, which gives exact
# spectral calculus (used for preconditioning and as a derivative oracle).


class WeylTransform:
    def __init__(self, twist: TwistData, grid):
        r = twist.rank
        if not np.allclose(twist.U, clock_matrix(r)):
            raise ValueError("Weyl components need the clock/shift realization")
        C, S = clock_matrix(r), shift_matrix(r)
        basis = np.empty((r, r, r, r), complex)
        for j in range(r):
            for k in range(r):
                basis[j, k] = np.linalg.matrix_power(C, j) @ np.linalg.matrix_power(S, k)
        self.twist, self.grid = twist, grid
        self.basis = basis
        d = twist.degree
        self.alpha = np.arange(r).reshape(1, r) % r / r            # k/r per component
        self.beta = (np.arange(r).reshape(r, 1) * d) % r / r       # j d/r per component
        ph = np.exp(-2j * np.pi * (self.alpha[None, None] * grid.X[..., None, None]
                                   + self.beta[None, None] * grid.Y[..., None, None]))
        self.debloch = ph            # multiply to make components plain periodic
        m = np.fft.fftfreq(grid.N, d=1.0 / grid.N)
        self.modes = np.meshgrid(m, m, indexing="ij")

    def components(self, F: np.ndarray) -> np.ndarray:
        """sigma[j, k] scalars, shape (N, N, r, r) indexed by (j, k)."""
        return np.einsum("jkab,xyab->xyjk", self.basis.conj(), F) / self.twist.rank

    def assemble(self, sigma: np.ndarray) -> np.ndarray:
        return np.einsum("xyjk,jkab->xyab", sigma, self.basis)

    def laplace_symbol(self) -> np.ndarray:
        """Laplace-Beltrami symbol at the Bloch-shifted frequencies, (N,N,r,r)."""
        g = self.grid
        M = self.modes[0][..., None, None] + self.alpha[None, None]
        Nn = self.modes[1][..., None, None] + self.beta[None, None]
        return -4 * np.pi ** 2 * (g.v * M ** 2 + (M * g.tau.real - Nn) ** 2 / g.v)

    def apply_symbol(self, F: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """Multiply the Bloch-spectral representation of F by a mode symbol."""
        sig = self.components(F) * self.debloch
        hat = np.fft.fft2(sig, axes=(0, 1))
        hat *= symbol
        sig = np.fft.ifft2(hat, axes=(0, 1)) / self.debloch
        return self.assemble(sig)

    def derivative(self, F: np.ndarray, axis: int) -> np.ndarray:
        """Exact spectral d/dx or d/dy of a twisted endomorphism field."""
        M = self.modes[axis][..., None, None] + (self.alpha if axis == 0 else self.beta)[None, None]
        return self.apply_symbol(F, 2j * np.pi * M)
