"""Clutching data and twisted derivative stencils on the torus grid.

A rank-r bundle of degree d is realized with constant clutching unitaries:
U = clock (diagonal of r-th roots of unity) across the x-seam and
V = shift^(-d) across the y-seam, which satisfy V U = exp(2 pi i d/r) U V.
Both are monomial (one unit-modulus entry per row), so crossing a seam is a
gather times phases.  Endomorphism-valued fields wrap seams by conjugation
and connection components pick up an additive constant across the y-seam;
section values carry the scalar automorphy phase `TwistData.section_phase`,
but no section is differentiated, so they have no ghost rule.  `ghost_pad`
pads a field once along an axis with ghost layers filled by its kind's rule,
and a stencil is one weighted sum of slices of the padded array, so 4th-order
centered differences see globally smooth data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

CLUTCH_TOL = 1e-12   # unitarity and commutation residual `TwistData.check` accepts


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

    @property
    def mu(self) -> Fraction:
        return Fraction(self.degree, self.rank)

    @property
    def commutator_phase(self) -> complex:
        return np.exp(2j * np.pi * self.degree / self.rank)

    def check(self) -> float:
        """Max residual of unitarity and the commutation relation; above
        CLUTCH_TOL it raises."""
        eye = np.eye(self.rank)
        r = max(np.abs(self.U @ self.U.conj().T - eye).max(),
                np.abs(self.V @ self.V.conj().T - eye).max(),
                np.abs(self.V @ self.U - self.commutator_phase * self.U @ self.V).max())
        if r > CLUTCH_TOL:
            raise ValueError("clutching data inconsistent (residual %.2e)" % r)
        return float(r)

    def section_phase(self, grid) -> np.ndarray:
        """Scalar automorphy phase multiplying V at the y-seam.

        At base point z the upward seam rule for sections is
        sigma(z + tau) = exp(i theta(z)) V sigma(z) with
        theta = -pi (d/r) (2 Re z + Re tau).
        """
        c = self.degree / self.rank
        rez = grid.X + grid.tau.real * grid.Y
        return np.exp(-1j * np.pi * c * (2 * rez + grid.tau.real))

    @cached_property
    def gathers(self) -> dict:
        """(perm, phase) of U, U^dag, V, V^dag keyed by (axis, upward): the
        matrix a value crosses a seam with.  Clutching must be monomial, so
        M B M^dag is a gather times phases; else ValueError."""
        return {(axis, up): _monomial(M if up else M.conj().T)
                for axis, M in ((0, self.U), (1, self.V)) for up in (True, False)}


# ----------------------------------------------------------------------------
# ghost layers.  A seam rule(strip, axis, up) maps the w rows a stencil reads
# across a seam (0..w-1 if up, else N-w..N-1) to nodes N..N+w-1 (or -w..-1).


def _monomial(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) with M[a, perm[a]] = phase[a] and every other entry 0."""
    perm = np.abs(M).argmax(axis=1)
    mass = float(np.abs(M[perm[:, None] != np.arange(len(M))]).sum())
    if mass > 0:
        raise ValueError("clutching matrix is not monomial (off-pattern mass %.3e)" % mass)
    return perm, M[np.arange(len(M)), perm]


def _rows(F: np.ndarray, axis: int, start: int, stop: int) -> np.ndarray:
    return F[(slice(None),) * axis + (slice(start, stop),)]


def endo_seam(twist: TwistData):
    """Seam rule of endomorphism-type values: B -> M B M^dag, with M = U
    across the x-seam and V across the y-seam."""
    def rule(strip, axis, up):
        perm, phase = twist.gathers[axis, up]
        return phase[:, None] * strip[..., perm[:, None], perm] * phase.conj()
    return rule


def connection_seam(y_jump: complex):
    """Seam rule of a central connection's scalar components (N, N): the
    conjugation leaves a scalar unchanged, and each upward y-crossing adds
    y_jump."""
    def rule(strip, axis, up):
        return strip + (y_jump if up else -y_jump) if axis == 1 else strip
    return rule


def ghost_pad(F: np.ndarray, axis: int, w: int, seam) -> np.ndarray:
    """F with w ghost layers on both sides of `axis`, filled by the seam rule."""
    N = F.shape[axis]
    return np.concatenate([seam(_rows(F, axis, N - w, N), axis, False), F,
                           seam(_rows(F, axis, 0, w), axis, True)], axis=axis)


def stencil(F: np.ndarray, axis: int, weights: dict, seam) -> np.ndarray:
    """sum_s weights[s] F(node + s) along `axis`, reading ghosts past the seams."""
    w, N = max(abs(s) for s in weights), F.shape[axis]
    P = ghost_pad(F, axis, w, seam)
    return sum(c * _rows(P, axis, w + s, w + s + N) for s, c in weights.items())


def d4(F: np.ndarray, axis: int, h: float, seam) -> np.ndarray:
    """4th-order centered d/dx (axis 0) or d/dy (axis 1)."""
    return stencil(F, axis, {-2: 1, -1: -8, 1: 8, 2: -1}, seam) / (12 * h)


# ----------------------------------------------------------------------------
# Weyl components: for clock/shift twists every endomorphism field expands as
# sum_{j,k} sigma_jk(x, y) C^j S^k where the scalar components obey Bloch
# conditions sigma(x+1, y) = zeta^k sigma, sigma(x, y+1) = zeta^(j d) sigma.
# Removing the Bloch phase makes them plainly periodic, which gives exact
# spectral calculus for the flow's preconditioner.


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
        m, n = grid.modes            # shifted by the Bloch phase of each component
        self.freqs = (m[..., None, None] + self.alpha[None, None],
                      n[..., None, None] + self.beta[None, None])

    def components(self, F: np.ndarray) -> np.ndarray:
        """sigma[j, k] scalars, shape (N, N, r, r) indexed by (j, k)."""
        return np.einsum("jkab,xyab->xyjk", self.basis.conj(), F) / self.twist.rank

    def assemble(self, sigma: np.ndarray) -> np.ndarray:
        return np.einsum("xyjk,jkab->xyab", sigma, self.basis)

    def apply_symbol(self, F: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """Multiply the Bloch-spectral representation of F by a mode symbol."""
        sig = self.components(F) * self.debloch
        hat = np.fft.fft2(sig, axes=(0, 1))
        hat *= symbol
        sig = np.fft.ifft2(hat, axes=(0, 1)) / self.debloch
        return self.assemble(sig)
