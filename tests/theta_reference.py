"""Reference theta mode sum evaluated term by term on the full grid.

`theta_raw` is the direct form of what
`fareyflow.torus_he.model._theta_raw` computes as one product of an x factor
and a y factor per component: every mode is one full-grid `exp`, added in
order of the mode index.  The tests compare the two.
"""

import math

import numpy as np


def theta_raw(twist, grid, j, b, X, Y):
    """Mode sum in the unitary frame at arbitrary coordinate arrays."""
    r, d = twist.rank, twist.degree
    tau, v = grid.tau, grid.v
    c = d / r
    Z = X + tau * Y
    out = np.zeros(X.shape + (r,), complex)
    # Gaussian in nu centred near -(d/r) y; generous half-width for < 1e-16 tails
    width = math.sqrt(38.0 * d / (math.pi * r * v)) + d / r + 2
    for k in range(r):
        if d == 1:
            m0 = k
        else:
            s0 = ((j - k) * pow(r, -1, d)) % d
            m0 = k + r * s0
        nu0 = m0 / r
        t_mid = round((-c * (float(Y.mean()) + 0.5) - nu0) / d)
        t_span = int(math.ceil(width / d)) + 1
        acc = np.zeros(X.shape, complex)
        for t in range(t_mid - t_span, t_mid + t_span + 1):
            nu = nu0 + d * t
            acc += np.exp(1j * np.pi * tau * nu * nu * r / d
                          + 2j * np.pi * nu * (Z + b))
        out[..., k] = acc
    return out * np.exp(-np.pi * c * v * Y ** 2)[..., None]
