"""Fiberwise matrix algebra on fields of r x r matrices, dispatched on r.

Fields are arrays (..., r, r) with the matrix axes last; the leading axes
broadcast.  The rank is read from the shape:

- r = 1: every operation is elementwise;
- r = 2: products and Hermitian parts are written out entry by entry,
  inverses are the adjugate over the determinant, and Hermitian matrix
  functions use the closed form below instead of an eigensolver;
- r >= 3: products go through `np.matmul`, inverses through
  `np.linalg.inv`, matrix functions through `np.linalg.eigh`.

`op_norm` is the largest singular value, the square root of the top
eigenvalue of A^dag A; it needs no self-adjointness of A, so it is the
operator norm of any field (at rank 2 in closed form).  `cross_block_norms`
splits a rank-2 field by the spectral projectors of a Hermitian one.
`centred_sum` is the 5-point sum of the 4th-order stencils `torus_he.twist.d4`
and `coulomb.diff4`.

Rank-2 matrix functions.  For Hermitian H = [[a, b], [conj b, d]] put
m = (a + d)/2 and T = H - m I, so T^2 = g^2 I with g = sqrt(((a - d)/2)^2 +
|b|^2), and the eigenvalues are m -+ g.  Every f then satisfies

    f(H) = f0 I + f1 T,   f0 = (f(m + g) + f(m - g))/2,
                          f1 = (f(m + g) - f(m - g))/(2 g),

exactly (Cayley-Hamilton; the 2 x 2 case of Kopp 2008, "Efficient numerical
diagonalization of hermitian 3x3 matrices").  The divided difference f1 is
written in a form without cancellation for each function: e^(tm) sinh(tg)/g
for exp(tH), atanh(g/m)/g for log, 1/(sqrt l1 + sqrt l2) and
-1/(sqrt l1 sqrt l2 (sqrt l1 + sqrt l2)) for H^(1/2) and H^(-1/2); where a
quotient becomes 0/0 (g -> 0) a Taylor series takes over.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

# below this |t g| (exp) or g/m (log) the divided difference is a series;
# the first omitted term is below 1e-16 relative there
_SERIES = 1e-4
# smallest reciprocal condition |det A| / |A|_F^2 a rank-2 inverse accepts;
# below it the adjugate formula (like any inverse) keeps fewer than 2 digits
INV_RCOND = 1e-14


def dagger(A: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(A, -1, -2))


def hermitize(A: np.ndarray) -> np.ndarray:
    """The Hermitian part (A + A^dag) / 2.  Rank 2 is written out, C-ordered,
    with the generic bits on finite fields: 0.5 (a + conj a) is exactly Re a +
    0i, and each off-diagonal entry is formed on its own (signed zeros)."""
    if A.shape[-2:] != (2, 2):
        return 0.5 * (A + dagger(A))
    out = np.empty(A.shape, np.result_type(A, 0.5))
    out[..., 0, 0], out[..., 1, 1] = A[..., 0, 0].real, A[..., 1, 1].real
    out[..., 0, 1] = 0.5 * (A[..., 0, 1] + np.conj(A[..., 1, 0]))
    out[..., 1, 0] = 0.5 * (A[..., 1, 0] + np.conj(A[..., 0, 1]))
    return out


def _is_rank(A: np.ndarray, B: np.ndarray, r: int) -> bool:
    return A.shape[-2:] == B.shape[-2:] == (r, r)


def mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Fiberwise product A B (leading axes broadcast)."""
    if _is_rank(A, B, 1):
        return A * B
    if not _is_rank(A, B, 2):
        return np.matmul(A, B)
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    e, f, g, h = B[..., 0, 0], B[..., 0, 1], B[..., 1, 0], B[..., 1, 1]
    out = np.empty(np.broadcast_shapes(A.shape, B.shape), np.result_type(A, B))
    out[..., 0, 0] = a * e + b * g
    out[..., 0, 1] = a * f + b * h
    out[..., 1, 0] = c * e + d * g
    out[..., 1, 1] = c * f + d * h
    return out


def comm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return mm(A, B) - mm(B, A)


def inv(A: np.ndarray) -> np.ndarray:
    """Fiberwise inverse of a square field.

    At rank 2 a field whose reciprocal condition |det| / |A|_F^2 falls below
    INV_RCOND anywhere raises ValueError naming the smallest measured value.
    """
    r = A.shape[-1]
    if r == 1:
        return 1.0 / A
    if r != 2:
        return np.linalg.inv(A)
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    det = a * d - b * c
    with np.errstate(invalid="ignore", divide="ignore"):
        rcond = np.abs(det) / np.sum(np.abs(A) ** 2, axis=(-2, -1))
    worst = float(np.min(rcond, initial=np.inf))
    if not worst >= INV_RCOND:
        raise ValueError("field is singular to working precision (min reciprocal "
                         "condition %.3e)" % worst)
    out = np.empty(A.shape, np.result_type(A, 1.0))
    out[..., 0, 0] = d / det
    out[..., 0, 1] = -b / det
    out[..., 1, 0] = -c / det
    out[..., 1, 1] = a / det
    return out


def centred_sum(F: np.ndarray, axis: int, dtype) -> np.ndarray:
    """((0 + F(-2)) - 8 F(-1) + 8 F(+1)) - F(+2) along `axis`, summed in that
    order over the flattened field into a new C-ordered array of `dtype`; it
    is right at nodes 2..n-3, and callers overwrite the two rows at each end.
    Starting from 0 makes every zero of the sum +0, whatever the signs of zero
    in F and in the products by 8."""
    F = np.ascontiguousarray(F)
    out, step = np.empty(F.shape, dtype), F.strides[axis] // F.itemsize
    n = F.size - 4 * step
    row = [F.reshape(-1)[k * step:k * step + n] for k in range(5)]     # F(-2) .. F(+2)
    sums, scratch = out.reshape(-1)[2 * step:2 * step + n], np.empty(n, dtype)
    np.add(row[0], 0, out=sums)
    sums -= np.multiply(row[1], 8, out=scratch)
    sums += np.multiply(row[3], 8, out=scratch)
    sums -= row[4]
    return out


# ----------------------------------------------------------------------------
# Hermitian matrix functions


class Spectral(NamedTuple):
    """A scalar function in the two forms `herm_apply` evaluates.

    `values(lam)` is f on eigenvalues (ranks 1 and >= 3); `split(m, g)`
    returns (f0, f1) with f(m +- g) = f0 +- g f1 (rank 2, see the module
    docstring).  `positive` restricts the domain to positive definite fields.
    """

    values: Callable[[np.ndarray], np.ndarray]
    split: Callable[[np.ndarray, np.ndarray], tuple]
    positive: bool


def _small(x):
    """(mask of |x| < _SERIES, x with those entries replaced by 1)."""
    small = np.abs(x) < _SERIES
    return small, np.where(small, 1.0, x)


def exp(t: complex) -> Spectral:
    """exp(t H); t may be negative or complex (t = i gives exp of i H)."""

    def split(m, g):
        x = t * g
        small, safe = _small(x)
        scale = np.exp(t * m)
        x2 = x * x
        sinhc = np.where(small, 1.0 + x2 / 6.0 * (1.0 + x2 / 20.0), np.sinh(safe) / safe)
        return scale * np.cosh(x), scale * t * sinhc

    return Spectral(lambda lam: np.exp(t * lam), split, False)


def _log_split(m, g):
    # atanh(x)/g with x = g/m; from x = 1/2 on (eigenvalue ratio >= 3) the
    # plain difference of logs has no cancellation and stays finite where x
    # rounds to 1
    log1, log2 = np.log(m + g), np.log(m - g)
    ratio = g / m
    small, x = _small(ratio)
    atanh = np.where(x < 0.5, np.arctanh(np.minimum(x, 0.5)), 0.5 * (log1 - log2))
    x2 = ratio * ratio
    return 0.5 * (log1 + log2), np.where(small, 1.0 + x2 / 3.0 * (1.0 + 0.6 * x2), atanh / x) / m


def _sqrt_split(m, g):
    r1, r2 = np.sqrt(m + g), np.sqrt(m - g)
    return 0.5 * (r1 + r2), 1.0 / (r1 + r2)


def _inv_sqrt_split(m, g):
    r1, r2 = np.sqrt(m + g), np.sqrt(m - g)
    p, s = r1 * r2, r1 + r2
    return 0.5 * s / p, -1.0 / (p * s)


LOG = Spectral(np.log, _log_split, True)
SQRT = Spectral(np.sqrt, _sqrt_split, True)
INV_SQRT = Spectral(lambda lam: 1.0 / np.sqrt(lam), _inv_sqrt_split, True)
SQRT_PAIR = (SQRT, INV_SQRT)


def _rank2_parts(H: np.ndarray):
    """(m, g, (a - d)/2, b) of the Hermitian part of a 2 x 2 field."""
    a, d = H[..., 0, 0].real, H[..., 1, 1].real
    b = 0.5 * (H[..., 0, 1] + np.conj(H[..., 1, 0]))
    half_diff = 0.5 * (a - d)
    return 0.5 * (a + d), np.hypot(half_diff, np.abs(b)), half_diff, b


def eigvalsh(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian field, shape (..., r)."""
    r = H.shape[-1]
    if r == 1:
        return H[..., 0, :].real.copy()
    if r == 2:
        m, g, _, _ = _rank2_parts(H)
        return np.stack([m - g, m + g], axis=-1)
    return np.linalg.eigvalsh(H)


def op_norm(A: np.ndarray) -> np.ndarray:
    """Largest singular value per node of a square field, shape (...)."""
    if A.shape[-1] == 1:
        return np.abs(A[..., 0, 0])
    top = eigvalsh(mm(dagger(A), A))[..., -1]
    return np.sqrt(np.maximum(top, 0.0))


def cross_block_norms(H: np.ndarray, D: np.ndarray):
    """(g, |P+ D P-|_F^2, |P- D P+|_F^2) per node for a rank-2 Hermitian H.

    With H = m I + T as in the module docstring, P+- project onto the
    eigenvalues m +- g, and T/g = [[u, w], [conj w, -u]] has the eigenvectors
    e+ = (1 + u, conj w), e- = (-w, 1 + u) for u >= 0 and e+ = (w, 1 - u),
    e- = (1 - u, -conj w) for u < 0, of squared norm n = 2(1 + |u|) >= 2.  So
    |P+ D P-|_F^2 = |e+^dag D e-|^2 / n^2 and |P- D P+|_F^2 = |e-^dag D e+|^2
    / n^2, with no eigensolver and no cancelling trace identity.  Where g = 0
    the projectors are undefined and both norms are 0.  They are 0 where g is
    subnormal too: there the division by g would overflow, and the pairing
    weighs these norms by phi(+-2g) - 1/2 = O(g).
    """
    _, g, half_diff, b = _rank2_parts(H)
    split = g >= np.finfo(float).tiny
    safe_g = np.where(split, g, 1.0)
    u = half_diff / safe_g
    # for u < 0 the pair is the u >= 0 pair of (u, -w) with e+ and e- swapped
    p, w = 1.0 + np.abs(u), np.where(u >= 0, b, -b) / safe_g
    d01, d10, diag = D[..., 0, 1], D[..., 1, 0], D[..., 1, 1] - D[..., 0, 0]
    p2, pw, w2 = p * p, p * w, w * w
    first = p2 * d01 - w2 * d10 + pw * diag
    second = p2 * d10 - np.conj(w2) * d01 + np.conj(pw) * diag
    scale = np.where(split, 0.25 / p2, 0.0)
    first, second = (scale * (X.real ** 2 + X.imag ** 2) for X in (first, second))
    return g, np.where(u >= 0, first, second), np.where(u >= 0, second, first)


def _require_positive(lam_min: np.ndarray):
    low = float(np.min(lam_min))
    if not low > 0:
        raise ValueError("field is not positive definite (min eigenvalue %.3e)" % low)


def herm_apply(f, H: np.ndarray):
    """f(H) per node for a Hermitian field H.

    `f` is a `Spectral` or a tuple of them, in which case a tuple of results
    sharing one eigensystem is returned.  A function with a positive domain
    raises ValueError naming the measured minimum eigenvalue.
    """
    single = isinstance(f, Spectral)
    fs = (f,) if single else tuple(f)
    positive = any(fn.positive for fn in fs)
    r = H.shape[-1]
    if r == 2:
        m, g, half_diff, b = _rank2_parts(H)
        if positive:
            _require_positive(m - g)
        out = []
        for fn in fs:
            f0, f1 = fn.split(m, g)
            res = np.empty(H.shape, np.result_type(H, f0, f1))
            res[..., 0, 0] = f0 + f1 * half_diff
            res[..., 1, 1] = f0 - f1 * half_diff
            res[..., 0, 1] = f1 * b
            res[..., 1, 0] = f1 * np.conj(b)
            out.append(res)
    elif r == 1:
        lam = H.real
        if positive:
            _require_positive(lam)
        out = [v.astype(np.result_type(H, v), copy=False)
               for v in (fn.values(lam) for fn in fs)]
    else:
        lam, P = np.linalg.eigh(H)
        if positive:
            _require_positive(lam[..., 0])
        Pd = dagger(P)
        out = [np.matmul(P * fn.values(lam)[..., None, :], Pd) for fn in fs]
    return out[0] if single else tuple(out)
