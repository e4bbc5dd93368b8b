"""Reference implementation of the twisted ghost rules by whole-field rolls.

`shift_*(F, s)` returns the array whose node (j, k) holds the field value s
grid steps away along the axis: the field is rolled by -s and the wrapped
seam strip is mapped by the clutching rule with dense matrix products.  This
is the direct, slow form of what `fareyflow.torus_he.twist.ghost_pad` does
with one padded copy; the tests compare the two.
"""

import numpy as np

from fareyflow.fiber import dagger, mm


def _strip(ndim, axis, sl):
    idx = [slice(None)] * ndim
    idx[axis] = sl
    return tuple(idx)


def shift_endo(F, twist, axis, s):
    """Endomorphism rule: M B M^dag per upward crossing (M = U or V)."""
    N = F.shape[axis]
    G = np.roll(F, -s, axis=axis)
    M = twist.U if axis == 0 else twist.V
    if s > 0:
        idx = _strip(F.ndim, axis, slice(N - s, N))
        G[idx] = mm(mm(M, G[idx]), dagger(M))
    elif s < 0:
        idx = _strip(F.ndim, axis, slice(0, -s))
        G[idx] = mm(mm(M.conj().T, G[idx]), M)
    return G


def shift_connection(F, twist, axis, s, seam_const):
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


def _section_phase_below(twist, grid):
    """`TwistData.section_phase` at the base point z - tau: the phase that
    carried the strip below the y-seam up to where it is read from."""
    c = twist.degree / twist.rank
    rez = grid.X + grid.tau.real * (grid.Y - 1)
    return np.exp(-1j * np.pi * c * (2 * rez + grid.tau.real))


def shift_section(F, twist, grid, axis, s):
    """Section rule for values (N, N, r) or stacked columns (N, N, r, m)."""
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
        ph = _section_phase_below(twist, grid)[_strip(2, axis, slice(N + s, N))]
        blk = np.einsum("ba,%s->%s" % (vec.replace("a", "b"), vec), twist.V.conj(), G[idx])
        G[idx] = np.conj(ph)[..., None] * blk if F.ndim == 3 else np.conj(ph)[..., None, None] * blk
    return G


def d4(shift, h):
    """4th-order centered difference from a shift function s -> F(x + s h)."""
    m2, m1, p1, p2 = (shift(s) for s in (-2, -1, 1, 2))
    return (m2 - 8 * m1 + 8 * p1 - p2) / (12 * h)


PROBE = {-3: 1 / 20, -2: -6 / 20, -1: 15 / 20, 1: 15 / 20, 2: -6 / 20, 3: 1 / 20}


def endo_seam_jump(F, twist):
    """Cross-seam smoothness probe: reconstruct each node from its 6 shifted
    neighbours by polynomial interpolation and take the worst mismatch.
    O(h^6) for data that continues smoothly through the seams, O(1) if the
    twisted periodicity is violated."""
    out = 0.0
    for axis in (0, 1):
        acc = np.zeros_like(F)
        for s, c in PROBE.items():
            acc += c * shift_endo(F, twist, axis, s)
        out = max(out, float(np.abs(acc - F).max()))
    return out


def endo_seam_roundtrip(F, twist):
    """Shift up across each seam and back down; nonzero only if the
    clutching conjugation is not unitary."""
    out = 0.0
    for axis in (0, 1):
        back = shift_endo(shift_endo(F, twist, axis, 1), twist, axis, -1)
        out = max(out, float(np.abs(back - F).max()))
    return out
