"""Flat-torus grid: coordinates, quadrature, and spectral scalar calculus.

The torus is C/(Z + tau Z) with Im(tau) > 0, sampled at (x, y) = (j/N, k/N),
z = x + tau y.  The Kaehler form is the flat one scaled to unit total volume,
so the quadrature weight of every node is 1/N^2 and contraction against the
form turns a two-form coefficient F_xy into i*Lambda*F = i F_xy.
"""

from __future__ import annotations

import cmath
from functools import cached_property

import numpy as np

POISSON_MEAN_TOL = 1e-8   # relative mean of a right side the Poisson solve accepts


class TorusGrid:
    """N x N sample grid on the unit-volume flat torus of modulus tau."""

    def __init__(self, tau: complex, N: int):
        tau = complex(tau)
        if not cmath.isfinite(tau):
            raise ValueError("modulus %r is not finite" % tau)
        if tau.imag <= 0:
            raise ValueError("modulus must have positive imaginary part")
        if N < 16 or N % 2:
            raise ValueError("grid resolution must be even and >= 16")
        self.tau = tau
        self.N = int(N)
        self.v = tau.imag
        self.h = 1.0 / N
        x = np.arange(N) / N
        self.X, self.Y = np.meshgrid(x, x, indexing="ij")
        # dz = c1 dx + c2 dy pullbacks: d/dz and d/dzbar in grid coordinates
        two_iv = 2j * self.v
        self.cz = (1 - tau / two_iv, 1 / two_iv)      # d_z  = cz[0] d_x + cz[1] d_y
        self.czb = (tau / two_iv, -1 / two_iv)        # d_zb = czb[0] d_x + czb[1] d_y

    # --- spectral calculus for fully periodic scalar fields -----------------
    @cached_property
    def modes(self) -> list[np.ndarray]:
        """FFT frequencies (m, n) of the grid nodes, each (N, N)."""
        m = np.fft.fftfreq(self.N, d=1.0 / self.N)
        return np.meshgrid(m, m, indexing="ij")

    def laplace_symbol(self, m: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Laplace-Beltrami symbol of the mode exp(2 pi i (m x + n y)):
        -4 pi^2 (v m^2 + (m Re tau - n)^2 / v), for any broadcastable m, n."""
        v, re = self.v, self.tau.real
        return -4 * np.pi ** 2 * (v * m ** 2 + (m * re - n) ** 2 / v)

    def poisson_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve Laplace(phi) = rhs with mean(phi) = 0.

        The right side must integrate to ~0 (solvability on a closed surface);
        a mean above POISSON_MEAN_TOL relative raises with the measured value.
        """
        defect = float(np.abs(rhs.mean()))
        scale = float(np.abs(rhs).max()) or 1.0
        if not defect <= POISSON_MEAN_TOL * max(scale, 1.0):
            raise ValueError("Poisson right side has nonzero mean %.3e" % defect)
        sym = self.laplace_symbol(*self.modes)
        sym[0, 0] = 1.0
        hat = np.fft.fft2(rhs - rhs.mean())
        hat /= sym
        hat[0, 0] = 0.0
        out = np.fft.ifft2(hat)
        return out.real if np.isrealobj(rhs) else out
