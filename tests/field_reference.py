"""Reference forms of three field operations that only the tests use.

- `spectral_laplacian`: the Laplace-Beltrami operator of the unit-volume
  flat metric, applied mode by mode with the grid's own symbol;
- `gram`: the L^2 Gram matrix of a block of section columns;
- `a_zbar`: the d_zbar coefficient of the central background connection.
"""

import numpy as np


def spectral_laplacian(grid, f):
    """Laplacian of a fully periodic scalar field by FFT."""
    out = np.fft.ifft2(grid.laplace_symbol(*grid.modes) * np.fft.fft2(f))
    return out.real if np.isrealobj(f) else out


def gram(sections):
    """L^2 Gram matrix (m, m) of the columns of a SectionField."""
    cols = sections.columns
    return np.einsum("xyam,xyan->mn", cols.conj(), cols) * sections.grid.weight


def a_zbar(conn):
    """(0,1)-coefficient of A = (a_x dx + a_y dy) Id, as an (N, N) field."""
    c = conn.grid.czb
    return c[0] * conn.ax + c[1] * conn.ay
