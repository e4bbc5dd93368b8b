"""Reference form of the Coulomb sweep solve that only the tests use.

`split_solve` is the sweep's Neumann solve in the layout it had before
`coulomb_fix` packed u(r) data into its r^2 real coordinates: every real and
imaginary part of all r^2 matrix entries is its own column, 2r^2 columns in
all, and the potential is joined back from them.
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
    w = {e: split(v) for e, v in trace.items()}
    return join(_neumann_refined(split(dstar), w, grid)[0])
