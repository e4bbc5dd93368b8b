"""Reference forms of field operations and fixtures that only the tests use.

- `spectral_laplacian`: the Laplace-Beltrami operator of the unit-volume
  flat metric, applied mode by mode with the grid's own symbol;
- `weight`: the quadrature weight 1/N^2 of every node;
- `gram`: the L^2 Gram matrix of a block of section columns;
- `section_basis`: the d theta sections of a model bundle as one block;
- `a_zbar`: the d_zbar coefficient of the central background connection.
"""

import numpy as np

from fareyflow.torus_he import SectionField, theta_section


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
