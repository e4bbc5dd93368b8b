"""Reference forms of field operations and fixtures that only the tests use.

- `spectral_laplacian`: the Laplace-Beltrami operator of the unit-volume
  flat metric, applied mode by mode with the grid's own symbol;
- `weight`: the quadrature weight 1/N^2 of every node;
- `gram`: the L^2 Gram matrix of a block of section columns;
- `section_basis`: the d theta sections of a model bundle as one block;
- `a_zbar`: the d_zbar coefficient of the central background connection;
- `random_twisted_hermitian_loop`: the random field drawn and summed one
  scalar coefficient at a time.
"""

import numpy as np

from fareyflow import fiber
from fareyflow.torus_he import EndoField, SectionField, theta_section
from fareyflow.torus_he.donaldson import FIELD_MAX_MODE
from fareyflow.torus_he.twist import WeylTransform


def spectral_laplacian(grid, f):
    """Laplacian of a fully periodic scalar field by FFT."""
    out = np.fft.ifft2(grid.laplace_symbol(*grid.modes) * np.fft.fft2(f))
    return out.real if np.isrealobj(f) else out


def weight(grid):
    """Quadrature weight of one node of the unit-volume grid."""
    return grid.h * grid.h


def gram(sections):
    """L^2 Gram matrix (m, m) of the columns of a SectionField."""
    cols = sections.columns
    return np.einsum("xyam,xyan->mn", cols.conj(), cols) * weight(sections.grid)


def section_basis(twist, grid):
    """All d basis sections stacked as columns (N, N, r, d)."""
    cols = [theta_section(twist, grid, (j, 0)).data for j in range(twist.degree)]
    return SectionField(grid, twist, np.stack(cols, axis=-1))


def a_zbar(conn):
    """(0,1)-coefficient of A = (a_x dx + a_y dy) Id, as an (N, N) field."""
    c = conn.grid.czb
    return c[0] * conn.ax + c[1] * conn.ay


def random_twisted_hermitian_loop(grid, twist, seed, amplitude):
    """random_twisted_hermitian with one rng.normal() call per real number,
    each Bloch scalar of entry (j, k) summed mode by mode."""
    rng = np.random.default_rng(seed)
    wt = WeylTransform(twist, grid)
    N, r, K = grid.N, twist.rank, FIELD_MAX_MODE
    sig = np.zeros((N, N, r, r), complex)
    for j in range(r):
        for k in range(r):
            poly = np.zeros((N, N), complex)
            for m in range(-K, K + 1):
                for n in range(-K, K + 1):
                    c = rng.normal() + 1j * rng.normal()
                    poly += c * np.exp(2j * np.pi * (m * grid.X + n * grid.Y))
            sig[..., j, k] = poly
    sig *= np.conj(wt.debloch)
    raw = fiber.hermitize(wt.assemble(sig))
    sup = float(np.abs(fiber.eigvalsh(raw)).max())
    return EndoField(grid, twist, raw * (amplitude / sup))
