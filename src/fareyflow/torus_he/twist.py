"""Clutching data and twisted derivative stencils on the torus grid.

A rank-r bundle of degree d is realized with constant clutching unitaries:
U = clock (diagonal of r-th roots of unity) across the x-seam and
V = shift^(-d) across the y-seam, which satisfy V U = exp(2 pi i d/r) U V.
Both are monomial (one unit-modulus entry per row), so crossing a seam is a
gather times phases.  Endomorphism-valued fields wrap seams by conjugation
and connection components pick up an additive constant across the y-seam;
section values carry the scalar automorphy phase `TwistData.section_phase`,
but no section is differentiated, so they have no ghost rule.  `ghost_pad`
pads a field along an axis with ghost layers filled by its kind's rule.  `d4`
reads the field in place away from the seams and pads only the rows next to
them, so 4th-order centered differences see globally smooth data; both
parts go through `fiber.centred_sum`, the 5-point sum `coulomb.diff4` shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ..fiber import centred_sum


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
    """Clock/shift clutching of the rank-r, degree-d bundle."""

    rank: int
    degree: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")

    @cached_property
    def U(self) -> np.ndarray:
        return clock_matrix(self.rank)

    @cached_property
    def V(self) -> np.ndarray:
        r, d = self.rank, self.degree
        return np.linalg.matrix_power(shift_matrix(r).conj().T, d % r) \
            if d % r else np.eye(r, dtype=complex)

    @property
    def mu(self) -> Fraction:
        return Fraction(self.degree, self.rank)

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
        matrix a value crosses a seam with.  Both are monomial, so M B M^dag
        is a gather times phases."""
        return {(axis, up): _monomial(M if up else M.conj().T)
                for axis, M in ((0, self.U), (1, self.V)) for up in (True, False)}


# ----------------------------------------------------------------------------
# ghost layers.  A seam rule(strip, axis, up) maps the w rows a stencil reads
# across a seam (0..w-1 if up, else N-w..N-1) to nodes N..N+w-1 (or -w..-1).


def _monomial(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) of a monomial M: M[a, perm[a]] = phase[a]."""
    perm = np.abs(M).argmax(axis=1)
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


def d4(F: np.ndarray, axis: int, h: float, seam) -> np.ndarray:
    """4th-order centered d/dx (axis 0) or d/dy (axis 1), reading ghosts past
    the seams: (F(node - 2) - 8 F(node - 1) + 8 F(node + 1) - F(node + 2)) / 12 h.

    `fiber.centred_sum` forms the quotient from F in place away from the seams,
    and from the 8 edge rows padded with their ghosts for the two rows on each
    side.
    """
    N = F.shape[axis]
    edges = ghost_pad(np.concatenate([_rows(F, axis, 0, 4), _rows(F, axis, N - 4, N)], axis),
                      axis, 2, seam)
    out = centred_sum(F, axis, h, np.result_type(F, edges))
    sums = centred_sum(edges, axis, h, edges.dtype)  # rows 0, 1 and N-2, N-1 at 2, 3, 8, 9
    _rows(out, axis, 0, 2)[...] = _rows(sums, axis, 2, 4)
    _rows(out, axis, N - 2, N)[...] = _rows(sums, axis, 8, 10)
    return out


# ----------------------------------------------------------------------------
# Weyl components: every endomorphism field expands as
# sum_{j,k} sigma_jk(x, y) C^j S^k where the scalar components obey Bloch
# conditions sigma(x+1, y) = zeta^k sigma, sigma(x, y+1) = zeta^(j d) sigma.
# Removing the Bloch phase makes them plainly periodic, which gives exact
# spectral calculus for the flow's preconditioner.


class WeylTransform:
    def __init__(self, twist: TwistData, grid):
        r = twist.rank
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
