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
and `coulomb.diff4`, divided by their 12 h.

Spectral radius.  `spectral_radius` is max |eigenvalue| per node of a
Hermitian field: from the closed-form `eigvalsh` at ranks 1 and 2 (|H_00|;
m -+ g as below), from `np.linalg.eigvalsh` at ranks 3 and >= 5, and at
rank 4 from the characteristic polynomial, which costs about a third of a
LAPACK call per node.  There T = H - m I, m the mean of the diagonal, is
scaled by the power of two that brings its largest real or imaginary part
into [1/2, 1), so that no square or fourth power over- or underflows.  With
s_k = tr T^k (s_2 = |T|_F^2; s_3 and s_4 = |T^2|_F^2 from one product T^2,
entry by entry), the eigenvalues of T / |T|_F are the roots of

    q(z) = z^4 - z^2/2 - a_3 z + a_4,   a_3 = s_3 / (3 s_2^(3/2)),
                                        a_4 = 1/8 - s_4 / (4 s_2^2)

(Newton's identities with e_1 = 0), all in [-sqrt(3/4), sqrt(3/4)]
(Samuelson's bound).  Laguerre's method (B. N. Parlett, Math. Comp. 18
(1964) 464-485) from sqrt(3/4) descends monotonically onto the largest root
of q(z), and of q(-z) for the smallest, both at once; one Newton step
polishes.  A node keeps max(|m + top|, |m + bottom|) only with a proof at
y -+ _RADIUS_DELTA around each root y: at y + DELTA, q and its first three
derivatives are all above _RADIUS_MARGIN, the bound on their rounding, so by
Taylor's formula (Budan-Fourier) no root lies above; at y - DELTA, q is below
-MARGIN, so a root lies in between.  As rho >= |H|_F / 2 >= |T|_F / 2, a
proven node is within 2 DELTA + 8 u = 9.1e-13 (u = 2^-53) of the spectral
radius, relative (for a radius in the normal range).  The nodes without a
proof (an extreme pair closer than about 0.03 |T|_F, a double root) go to
`np.linalg.eigvalsh` in one call, made even on an empty stack; a node with a
NaN entry is NaN.  Rank 4 reads every entry and LAPACK the lower triangle,
so the field must be Hermitian, as `coulomb._rho_skew` checks its input is.

Row blocks.  `mm` at rank 2 and `centred_sum` fill their one output array a
block of leading rows at a time (`row_blocks`), as do `torus_he.EndoField`'s
`wirtinger` combination and the second fundamental form's trace and
holomorphy residual (`torus_he.hermitian`).  A block holds at most
_BLOCK_BYTES, so its temporaries stay in the L2 cache and are reused from
block to block; a full-size temporary per operation instead streams the
field through memory once more and, at N = 256, takes fresh pages from the
allocator each time.  Every element goes through the same operations in the
same order as in one whole-field pass, so blocking changes no bytes.

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
# most bytes of a row block: a complex rank-2 field on the 65 x 65 Coulomb
# grid (270,400 bytes), so every rank <= 2 field at N = 64/65 is one block,
# and a block's few temporaries fit the 2 MiB per-core L2 cache
_BLOCK_BYTES = 9 << 15
# half-width of the bracket the rank-4 certificate proves a root in; a root
# within it moves the spectral radius by at most 2 _RADIUS_DELTA relative
# (rho >= |T|_F / 2), so with rounding the bound is 9.1e-13
_RADIUS_DELTA = 2.0 ** -41
# twice a bound on the rounding error of q, q', q'' and q''' at |z| <= 1:
# the coefficients from the products and sums of T, and Horner's rule, add
# up to about 60 ulps of 1 (measured against exact rational arithmetic: at
# most 16), so a value above it in floats is above 0 in exact arithmetic
_RADIUS_MARGIN = 2.0 ** -46
# Laguerre steps from Samuelson's bound: every root the certificate can prove
# (its neighbours at least about 0.03 |T|_F away) is within 1e-14 after five
_LAGUERRE_STEPS = 6


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


def row_blocks(F: np.ndarray) -> list[slice]:
    """Slices that cut the leading axis of F into blocks of whole rows, each
    of at most _BLOCK_BYTES bytes (or one row), the last one partial."""
    n = F.shape[0]
    step = max(1, _BLOCK_BYTES * n // max(1, F.nbytes))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Fiberwise product A B (leading axes broadcast).  At rank 2 the product
    is formed in row blocks of the output; an operand broadcast along the
    leading axis is passed whole."""
    if _is_rank(A, B, 1):
        return A * B
    if not _is_rank(A, B, 2):
        return np.matmul(A, B)
    out = np.empty(np.broadcast_shapes(A.shape, B.shape), np.result_type(A, B))
    cut_a, cut_b = (X.ndim == out.ndim and len(X) > 1 for X in (A, B))
    for rows in row_blocks(out):
        X, Y = A[rows] if cut_a else A, B[rows] if cut_b else B
        a, b, c, d = X[..., 0, 0], X[..., 0, 1], X[..., 1, 0], X[..., 1, 1]
        e, f, g, h = Y[..., 0, 0], Y[..., 0, 1], Y[..., 1, 0], Y[..., 1, 1]
        block = out[rows]
        block[..., 0, 0] = a * e + b * g
        block[..., 0, 1] = a * f + b * h
        block[..., 1, 0] = c * e + d * g
        block[..., 1, 1] = c * f + d * h
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


def centred_sum(F: np.ndarray, axis: int, h: float, dtype) -> np.ndarray:
    """(((0 + F(-2)) - 8 F(-1) + 8 F(+1)) - F(+2)) / 12 h along `axis`, formed
    in that order over the flattened field into a new C-ordered array of
    `dtype`; it is right at nodes 2..n-3, and callers overwrite the two rows at
    each end.  Starting from 0 makes every zero of the sum +0, whatever the
    signs of zero in F and in the products by 8.  The flattened sum is formed
    in row blocks with one block-sized scratch, each block divided as soon as
    it is summed.

    numpy divides a complex x by the real w = 12 h as (Re x + 0 Im x, Im x -
    0 Re x) times 1/w.  On a finite sum, which is never -0, the terms 0 Im x
    and 0 Re x change nothing, so a complex sum is multiplied part by part by
    1/w instead, with the same bits.  Where a part is inf or NaN the division
    also made the other part NaN; the product leaves that part as it is."""
    F = np.ascontiguousarray(F)
    out, step = np.empty(F.shape, dtype), F.strides[axis] // F.itemsize
    n = F.size - 4 * step
    flat, sums, width = F.reshape(-1), out.reshape(-1)[2 * step:2 * step + n], 12 * h
    blocks = row_blocks(sums)
    scratch = np.empty(blocks[0].stop, dtype)
    for rows in blocks:
        lo, hi = rows.start, rows.stop
        row = [flat[lo + k * step:hi + k * step] for k in range(5)]    # F(-2) .. F(+2)
        block, tmp = sums[rows], scratch[:hi - lo]
        np.add(row[0], 0, out=block)
        block -= np.multiply(row[1], 8, out=tmp)
        block += np.multiply(row[3], 8, out=tmp)
        block -= row[4]
        if np.iscomplexobj(block):
            parts = block.view(block.real.dtype)
            np.multiply(parts, 1 / width, out=parts)
        else:
            block /= width
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


def spectral_radius(H: np.ndarray) -> np.ndarray:
    """Largest |eigenvalue| per node of a Hermitian field, shape (...); the
    dispatch and the rank-4 certificate are in the module docstring."""
    r = H.shape[-1]
    if r <= 2:
        return np.abs(eigvalsh(H)).max(axis=-1)
    stack = H.reshape((-1, r, r))
    n = len(stack)
    rho, done = _radius4(stack) if r == 4 else (np.empty(n), np.zeros(n, bool))
    rest = ~done
    rho[rest] = np.abs(np.linalg.eigvalsh(stack[rest])).max(axis=-1)
    return rho.reshape(H.shape[:-2])


def _quartic(z, a, b):
    """(q, q', q'') of q(z) = z^4 - z^2/2 - a z + b, by Horner's rule."""
    z2 = z * z
    return ((z2 - 0.5) * z - a) * z + b, (4 * z2 - 1) * z - a, 12 * z2 - 1


@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _radius4(H: np.ndarray):
    """(rho, done) for a stack (n, 4, 4) of Hermitian matrices: where `done`,
    rho is the spectral radius, proven as the module docstring says (a node
    with a NaN entry is NaN); elsewhere it is to be computed another way.

    The stack is worked on as planes (4, 4, n), so that each entry of T and
    of T^2 is one contiguous array over the nodes."""
    P = np.array(np.moveaxis(H, 0, -1), complex, order="C")    # a copy, always
    m = (P[0, 0].real + P[1, 1].real + P[2, 2].real + P[3, 3].real) * 0.25
    for i in range(4):
        P[i, i] -= m                                 # P is T = H - m I from here
    parts = P.view(float)                            # Re and Im of each node, interleaved
    big = np.maximum(parts.max(axis=(0, 1)), -parts.min(axis=(0, 1)))
    big = np.maximum(big[0::2], big[1::2])           # largest |Re| or |Im| per node
    e = np.maximum(np.frexp(big)[1], -1023)          # 2^-e stays finite
    P *= np.ldexp(1.0, -e)                           # exact: largest part in [1/2, 1)
    sums = np.einsum("ijk,ijk->k", parts, parts)
    s2 = sums[0::2] + sums[1::2]                     # tr T^2 = |T|_F^2
    s3 = s4 = 0.0                                    # tr T^3, and tr T^4 = |T^2|_F^2
    for i in range(4):
        for j in range(i, 4):                        # (T^2)_ji is conj (T^2)_ij
            sq = P[i, 0] * P[0, j] + P[i, 1] * P[1, j] + P[i, 2] * P[2, j] + P[i, 3] * P[3, j]
            w = 1.0 if i == j else 2.0
            s3 = s3 + w * (sq.real * P[i, j].real + sq.imag * P[i, j].imag)
            s4 = s4 + w * (sq.real * sq.real + sq.imag * sq.imag)
    safe = np.where(s2 > 0, s2, 1.0)                 # T = 0 leaves q = z^4 - z^2/2
    a3 = s3 / (3 * safe * np.sqrt(safe))
    a4 = (0.125 * s2 * s2 - 0.25 * s4) / (safe * safe)
    a = np.stack([a3, -a3])                          # q(z) and q(-z): top and -bottom
    z = np.full(a.shape, np.sqrt(0.75))
    # Laguerre's step n / (G + sqrt((n - 1) (n (G^2 - q''/q) - G^2))), G = q'/q,
    # n = 4, with numerator and denominator multiplied by q
    for _ in range(_LAGUERRE_STEPS):
        q, q1, q2 = _quartic(z, a, a4)
        z -= 4 * q / (q1 + np.sqrt(np.maximum(9 * q1 * q1 - 12 * q * q2, 0.0)))
    q, q1, _ = _quartic(z, a, a4)
    z -= q / q1                                      # one Newton step
    hi, lo = z + _RADIUS_DELTA, z - _RADIUS_DELTA
    q, q1, q2 = _quartic(hi, a, a4)
    proven = ((q > _RADIUS_MARGIN) & (q1 > _RADIUS_MARGIN) & (q2 > _RADIUS_MARGIN)
              & (24 * hi > _RADIUS_MARGIN) & (_quartic(lo, a, a4)[0] < -_RADIUS_MARGIN))
    x = np.ldexp(z * np.sqrt(s2), e)                 # top and -bottom eigenvalue of T
    rho = np.maximum(np.abs(m + x[0]), np.abs(m - x[1]))
    return rho, (proven[0] & proven[1]) | np.isnan(big)


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
