"""Reference forms of the Coulomb sweep solve that only the tests use.

`split_solve` is the sweep's Neumann solve in the layout it had before
`coulomb_fix` packed u(r) data into its r^2 real coordinates: every real and
imaginary part of all r^2 matrix entries is its own column, 2r^2 columns in
all, and the potential is joined back from them.

`physical_neumann` is the Neumann solve in the physical-space form it had
before `neumann_poisson` assembled its solution in cosine space: a quadratic
that takes the flux, three harmonic polynomials fitted by least squares to
the edge means, a cosine solve with homogeneous data, a dense harmonic
extension of each edge pair's oscillatory data, and the trapezoid mean
subtracted at the end.
"""

import numpy as np

from fareyflow.coulomb import _neumann_refined


def split(z):
    """Complex data -> real entries along a new trailing axis (re, im)."""
    return np.stack([z.real, z.imag], -1)


def join(f):
    return f[..., 0] + 1j * f[..., 1]


def split_solve(dstar, trace, grid):
    """The refined Neumann potential of d*A and the normal traces, one
    column per real and imaginary part of each matrix entry."""
    return join(_neumann_refined(split(dstar), split(trace), grid)[0])


def cos_coeffs(f):
    """f on all N+1 nodes (axis 0) -> coefficients of sum c_m cos(m pi x)."""
    import scipy.fft
    N = f.shape[0] - 1
    c = scipy.fft.dct(f, type=1, axis=0) / N
    c[0] /= 2
    c[-1] /= 2
    return c


def cos_synth(c):
    import scipy.fft
    c = c.copy()
    c[0] *= 2
    c[-1] *= 2
    return scipy.fft.dct(c, type=1, axis=0) / 2.0


def edge_profiles(x):
    """(x, m) profiles cosh(k x)/(k sinh(k)) and cosh(k (1-x))/(k sinh(k)),
    k = m pi for m = 1..N, overflow-safe."""
    k = np.pi * np.arange(1, len(x))
    kx = np.outer(x, k)
    denom = k * (1 - np.exp(-2 * k))
    return (np.exp(kx - k) + np.exp(-kx - k)) / denom, (np.exp(-kx) + np.exp(kx - 2 * k)) / denom


def edge_pair_correction(wl, wr, x):
    """Harmonic h with d_nu h = wl, wr (cosine modes m >= 1) on x = 0, 1 and
    zero normal derivative on the other two edges.  wl, wr are (s, batch) and
    h is (x, y, batch)."""
    grow, decay = edge_profiles(x)
    modes = grow[..., None] * cos_coeffs(wr)[1:] + decay[..., None] * cos_coeffs(wl)[1:]
    k = np.pi * np.arange(1, len(x))
    return np.tensordot(modes, np.cos(np.outer(k, x)), (1, 0)).swapaxes(1, 2)


def physical_neumann(rhs, w, grid):
    """Lap(a) = rhs - defect, d_nu a = w, zero trapezoid mean, for
    compatible rhs[x, y, batch] and w[edge, s, batch]; no check."""
    M = grid.N + 1
    X, Y = grid.X[..., None], grid.Y[..., None]
    flux = sum(grid.w1 @ w)
    rhs = rhs - (np.tensordot(grid.w2, rhs, 2) - flux)

    # quadratic particular solution absorbing the mean of rhs
    a = flux * (X ** 2 + Y ** 2) / 4.0
    w = w.copy()
    w[1::2] -= flux / 2           # a's outward derivative on right and top (0 on the others)
    rhs = rhs - flux

    # cosine solve with homogeneous Neumann data
    C = cos_coeffs(cos_coeffs(rhs.swapaxes(0, 1)).swapaxes(0, 1))
    m = np.arange(M)
    lam = -(np.pi ** 2) * (m[:, None] ** 2 + m[None, :] ** 2)
    lam[0, 0] = 1.0
    C = C / lam[..., None]
    C[0, 0] = 0.0
    a = a + cos_synth(cos_synth(C.swapaxes(0, 1)).swapaxes(0, 1))

    # edge means: three harmonic polynomials (rows: d_nu per edge) span the zero-sum data
    basis = np.array([[-1.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, -1.0, 1.0],
                      [0.5, 0.5, -0.5, -0.5]])
    coef, *_ = np.linalg.lstsq(basis.T, grid.w1 @ w, rcond=None)
    a = a + coef[0] * (X - 0.5) + coef[1] * (Y - 0.5) \
        + coef[2] * ((X - 0.5) ** 2 - (Y - 0.5) ** 2) / 2.0
    rem = w - (basis.T @ coef)[:, None]

    # oscillatory edge data via harmonic extensions (no cross-edge pollution)
    a = a + edge_pair_correction(rem[0], rem[1], grid.x)
    a = a + edge_pair_correction(rem[2], rem[3], grid.x).swapaxes(0, 1)
    return a - np.tensordot(grid.w2, a, 2)
