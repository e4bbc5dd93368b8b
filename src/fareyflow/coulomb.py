"""Gauge fields on the unit square: curvature, gauge action, rho-L^2 and
rho-W^{1,2} norms, the Neumann cosine solve, and iterative Coulomb gauge
fixing.

The square is sampled inclusively at (j/N, k/N), j, k = 0..N.  Derivatives
are 4th-order finite differences (one-sided at the boundary).  Each gauge
sweep solves a Neumann problem for its divergence potential in a cosine
basis, whose parity matches the even reflection of the normal-derivative
condition.  The edge data w[edge, s], outward normal derivatives on the
edges left, right, bottom, top (x = 0, 1, y = 0, 1), enters in that basis
too, as each edge's cosine modes times profiles tabulated per grid, so a
solve is one analysis, elementwise products and one synthesis.  The solver
treats trailing array axes as a batch of independent real solves, so a
sweep's u(r)-valued data goes through one call in its r^2 real coordinates
(`_skew_coords`), and the potential is rebuilt from them skew-Hermitian by
construction (`_skew_field`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fiber
from .fiber import dagger, mm

COMPAT_TOL = 1e-5    # relative flux-balance defect a Neumann solve accepts
N_REFINE = 2         # Richardson corrections per Coulomb sweep
SKEW_TOL = 1e-12     # relative skew-Hermitian defect the rho norm of a gauge field accepts
UNITARY_TOL = 1e-8   # unitarity defect a gauge transform may have
MAX_SWEEPS = 25      # Coulomb sweeps before the fix gives up
GAUGE_MAX_MODE = 2   # highest sine/cosine mode of random_gauge_field
# Largest node 1-norm `_expm_skew` exponentiates without squaring.  A Horner
# step and a squaring each cost one batched product.  A squaring doubles the
# norm a degree reaches; one more degree widens it by theta_(m+1) / theta_m,
# where theta_m is the norm at which degree m meets 2^-53: by 2.15 from m = 6
# to 7, by 1.84 from 7 to 8.  So degrees up to 7 are cheaper than squaring,
# and 2^-5 (theta_7 = 0.038) is the power of two that stops at degree 7.
EXPM_THETA = 2.0 ** -5


class SquareGrid:
    """(N+1) x (N+1) inclusive node grid on [0, 1]^2."""

    def __init__(self, N: int):
        if N < 16 or N % 2:
            raise ValueError("resolution must be even and >= 16")
        self.N = N
        self.h = 1.0 / N
        x = np.arange(N + 1) / N
        self.x = x
        self.X, self.Y = np.meshgrid(x, x, indexing="ij")
        w = np.full(N + 1, self.h)
        w[0] = w[-1] = self.h / 2
        self.w1 = w
        self.w2 = np.outer(w, w)

    @functools.cached_property
    def neumann_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_neumann_tables` of this grid, built at its first Neumann solve."""
        return _neumann_tables(self.N)


# ----------------------------------------------------------------------------
# non-periodic 4th-order differences


_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def diff4(F: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order first derivative: centered inside (`fiber.centred_sum`, as in
    `torus_he.twist.d4`), one-sided with Fornberg's weights at the edges."""
    out = fiber.centred_sum(F, axis, h, np.result_type(F, 1.0))
    F, rows = np.moveaxis(F, axis, 0), np.moveaxis(out, axis, 0)
    rows[0] = sum(c * F[i] for i, c in enumerate(_EDGE0)) / h
    rows[1] = sum(c * F[i] for i, c in enumerate(_EDGE1)) / h
    rows[-1] = -sum(c * F[-1 - i] for i, c in enumerate(_EDGE0)) / h
    rows[-2] = -sum(c * F[-1 - i] for i, c in enumerate(_EDGE1)) / h
    return out


def _outward_trace(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """iota_nu (fx dx + fy dy) on the edges left, right, bottom, top (outward normal)."""
    return np.stack([-fx[0], fx[-1], -fy[:, 0], fy[:, -1]])


# ----------------------------------------------------------------------------
# fields


@dataclass
class GaugeField:
    """Skew-Hermitian-valued one-form A = A_x dx + A_y dy."""

    grid: SquareGrid
    ax: np.ndarray
    ay: np.ndarray

    def __post_init__(self):
        M = self.grid.N + 1
        for comp in (self.ax, self.ay):
            if comp.shape[:2] != (M, M) or comp.shape[-1] != comp.shape[-2]:
                raise ValueError("gauge component has shape %r" % (comp.shape,))
        # np.max, not max(): a NaN in either component propagates to the check
        skew = np.max([np.abs(c + dagger(c)).max() for c in (self.ax, self.ay)])
        scale = np.max([1.0, np.abs(self.ax).max(), np.abs(self.ay).max()])
        if not skew <= 1e-9 * scale:
            raise ValueError("gauge field is not skew-Hermitian (defect %.2e)" % skew)

    @property
    def rank(self) -> int:
        return self.ax.shape[-1]

    def normal_trace(self) -> np.ndarray:
        """iota_nu A on the four edges, as `_outward_trace` stacks it."""
        return _outward_trace(self.ax, self.ay)


@dataclass
class CurvatureField:
    grid: SquareGrid
    fxy: np.ndarray


def curvature(A: GaugeField) -> CurvatureField:
    """F = dA + A ^ A, i.e. F_xy = d_x A_y - d_y A_x + [A_x, A_y]."""
    h = A.grid.h
    f = diff4(A.ay, 0, h) - diff4(A.ax, 1, h) + mm(A.ax, A.ay) - mm(A.ay, A.ax)
    return CurvatureField(A.grid, f)


def gauge_act(u: np.ndarray, A: GaugeField) -> GaugeField:
    """u(A) = u A u^-1 - (du) u^-1 = (u A - du) u^-1 for a unitary field u;
    a unitarity defect above UNITARY_TOL, or NaN, raises ValueError naming
    it."""
    eye = np.eye(u.shape[-1])
    defect = np.abs(mm(u, dagger(u)) - eye).max()
    if not defect <= UNITARY_TOL:
        raise ValueError("gauge transform is not unitary (defect %.2e)" % defect)
    ui = dagger(u)
    h = A.grid.h
    ax = mm(mm(u, A.ax) - diff4(u, 0, h), ui)
    ay = mm(mm(u, A.ay) - diff4(u, 1, h), ui)
    skew = lambda B: 0.5 * (B - dagger(B))
    return GaugeField(A.grid, skew(ax), skew(ay))


# ----------------------------------------------------------------------------
# fiberwise and integrated norms


def _rho_skew(F: np.ndarray) -> np.ndarray:
    """rho norm of a skew-Hermitian field: the spectral radius max |eig(i F)|.

    Gauge potentials, their derivatives and curvatures are skew-Hermitian by
    construction; a field that is not (relative defect max|F + F^dag| /
    max|F| above SKEW_TOL, or NaN) raises ValueError naming the defect
    instead of getting a wrong norm.
    """
    defect = float(np.abs(F + dagger(F)).max(initial=0.0))
    if not defect <= SKEW_TOL * float(np.abs(F).max(initial=0.0)):
        raise ValueError("field is not skew-Hermitian (defect %.3e), so its spectral "
                         "radius is not its rho norm" % defect)
    return np.abs(fiber.eigvalsh(1j * F)).max(axis=-1)


def grid_norms(field, space: str) -> float:
    """rho-L^2 ("L^2") or rho-W^{1,2} ("W^{1,2}") norm of a gauge or
    curvature field.

    The fiber norm is the spectral radius of a skew-Hermitian component
    (`_rho_skew`); a one-form sums its two components' norms node by node,
    and W^{1,2} adds the squared norms of both first derivatives of each
    component.
    """
    comps = [field.ax, field.ay] if isinstance(field, GaugeField) else [field.fxy]
    g = field.grid
    if space == "L^2":
        node = sum(_rho_skew(c) for c in comps)
        return float((np.sum(node ** 2 * g.w2)) ** (1.0 / 2))
    if space == "W^{1,2}":
        total = np.zeros_like(g.w2)
        for c in comps:
            total += _rho_skew(c) ** 2
            total += _rho_skew(diff4(c, 0, g.h)) ** 2
            total += _rho_skew(diff4(c, 1, g.h)) ** 2
        return float(np.sum(total * g.w2) ** (1.0 / 2))
    raise ValueError("unknown space %r" % (space,))


# ----------------------------------------------------------------------------
# cosine scalar solver on the square
#
# This transform is fareyflow's only use of scipy.  It imports scipy.fft
# itself, so that `import fareyflow` and the CLI subcommands other
# than `coulomb` do not load scipy.  Calls go through the scipy.fft namespace,
# so a wrapper installed on scipy.fft.dct (perfbench's tracer) sees each.


def _dct(f: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalised DCT-I along one axis; applied twice it multiplies by 2N."""
    import scipy.fft
    return scipy.fft.dct(f, type=1, axis=axis)


def _neumann_tables(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cosine-space tables (K, G, D) of `neumann_poisson` on the N grid.

    With DCT2 the unnormalised 2-D DCT-I, a field f is DCT2(S) for S =
    DCT2(f) / (4 N^2), so a solve assembles S and synthesises once: rhs's
    DCT2 times K = 1 / (4 N^2 lam), lam = -pi^2 (mx^2 + my^2) the
    Laplacian's eigenvalues, plus each edge's unnormalised DCT-I mode my
    times the column my of G or D.  G[:, my] is the DCT-I in x, over 4 N^2,
    of the profile cosh(k x) / (k sinh k), k = my pi, whose x-derivative is
    1 at x = 1 and 0 at x = 0; its my = 0 column is of x^2 / 2, the limit of
    the profile less its constant 1/k^2 - 1/6.  D holds the mirror profiles,
    x -> 1 - x.  K, G and D are 0 at (0, 0), so every solution has zero
    trapezoid mean.
    """
    M, x = N + 1, np.arange(N + 1) / N
    m2 = np.arange(M) ** 2.0
    lam = -np.pi ** 2 * (m2[:, None] + m2)
    lam[0, 0] = -np.inf
    k = np.pi * np.arange(1, M)

    def profile(x):             # (x, my), overflow-safe
        kx = np.outer(x, k)
        return np.column_stack([x * x / 2, (np.exp(kx - k) + np.exp(-kx - k))
                                / (k * (1 - np.exp(-2 * k)))])

    G, D = _dct(np.stack([profile(x), profile(x[::-1])]), 1) / (4 * N * N)
    G[0, 0] = D[0, 0] = 0.0
    return 1 / (4 * N * N * lam), G, D


def neumann_poisson(rhs: np.ndarray, w: np.ndarray,
                    grid: SquareGrid) -> tuple[np.ndarray, float]:
    """Solve Lap(a) = rhs with d_nu a = w on the boundary, mean(a) = 0;
    returns (a, the worst compatibility defect over scale).

    w[edge, s, ...] holds the outward d_nu a on the edges left, right,
    bottom, top at s = 0..N along each; a leading shape other than (4, N + 1)
    raises ValueError.  rhs[x, y, ...] and w share their trailing axes, a
    batch of independent real solves.  Compatibility (integral of rhs equals
    boundary flux) is checked per entry up to COMPAT_TOL times that entry's
    scale, and larger defects raise; the measured defect is dropped with
    rhs's mean mode, so the solve is of Lap(a) = rhs - defect.

    The solution is assembled in cosine space (`_neumann_tables`): rhs's
    modes over the eigenvalues, plus each edge's cosine modes times the
    profile that carries them in from that edge with zero normal derivative
    on the other three (the edge means by quadratics, whose Laplacians sum
    to the flux), then synthesised once.
    """
    M = grid.N + 1
    if w.shape[:2] != (4, M):
        raise ValueError("edge data has shape %r, not (4, %d, ...)" % (w.shape, M))
    rhs_shape = rhs.shape
    rhs = rhs.reshape(M, M, -1)
    w = w.reshape(4, M, -1)
    flux = sum(grid.w1 @ w)
    defect = np.tensordot(grid.w2, rhs, 2) - flux
    scale = np.max([np.abs(rhs).max(axis=(0, 1)), np.abs(w).max(axis=(0, 1))], 0, initial=1.0)
    worst = np.argmax(np.abs(defect) / scale)
    compat = float(abs(defect[worst]) / scale[worst])
    if not abs(defect[worst]) <= COMPAT_TOL * scale[worst]:
        raise ValueError("incompatible div-curl data: volume minus flux = %.3e" % defect[worst])

    K, G, D = grid.neumann_tables
    S = _dct(_dct(rhs, 0), 1) * K[..., None]
    W = _dct(w, 1)              # each edge's modes along it
    S += G[..., None] * W[1] + D[..., None] * W[0]          # right, left: modes in y
    S += G.T[..., None] * W[3, :, None] + D.T[..., None] * W[2, :, None]    # top, bottom
    return _dct(_dct(S, 0), 1).reshape(rhs_shape), compat


# ----------------------------------------------------------------------------
# Coulomb gauge fixing


@dataclass
class CoulombReport:
    iterations: int
    div_residual: float
    boundary_residual: float
    curvature_l2: float
    a_w12: float
    compat_defect: float         # worst Neumann compatibility defect over scale, 0 if no sweep
    history: list[tuple[float, float]]   # (div, boundary) per sweep

    @property
    def ratio(self) -> float:
        return self.a_w12 / self.curvature_l2 if self.curvature_l2 else math.inf

    def dump_trajectory_csv(self, path, seed, rank):
        """One row per sweep: seed, rank, sweep, div_residual, boundary_residual."""
        import csv
        with open(path, "a", newline="") as fh:
            w = csv.writer(fh)
            if fh.tell() == 0:
                w.writerow(["seed", "rank", "sweep", "div_residual", "boundary_residual"])
            for i, (dv, bd) in enumerate(self.history):
                w.writerow([seed, rank, i, repr(dv), repr(bd)])


def div_residuals(A: GaugeField) -> tuple[float, float]:
    """(L^2 norm of d*A, max boundary |iota_nu A|), both with the rho norm.

    The four corner nodes are excluded from the boundary maximum: the outward
    normal is undefined there and the two one-sided traces need not agree.
    """
    return _residual_norms(A, _d_star(A))


def _d_star(A: GaugeField) -> np.ndarray:
    g = A.grid
    return diff4(A.ax, 0, g.h) + diff4(A.ay, 1, g.h)


def _residual_norms(A: GaugeField, dstar: np.ndarray) -> tuple[float, float]:
    """`div_residuals` of A given its d*A; both go through `_rho_skew`'s
    skew check."""
    g = A.grid
    interior = _rho_skew(dstar)
    l2 = float(np.sqrt(np.sum(interior ** 2 * g.w2)))
    bdry = max(float(_rho_skew(v[1:-1]).max()) for v in A.normal_trace())
    return l2, bdry


def _expm_skew(chi: np.ndarray) -> np.ndarray:
    """Unitary exponential exp(chi) of an exactly skew-Hermitian field (as
    `_skew_field` builds it).

    Ranks 1 and 2 take `fiber.herm_apply`'s closed form of exp(i herm),
    herm = -i chi.  Rank >= 3 sums a Taylor polynomial with scaling and
    squaring (C. Moler and C. Van Loan, SIAM Review 45 (2003) 3-49; A. H.
    Al-Mohy and N. J. Higham, SIAM J. Matrix Anal. Appl. 31 (2009) 970-989).
    nu is the largest node 1-norm of chi (max column sum of |chi|); above
    EXPM_THETA chi is scaled by 2^-s, s = ceil(log2(nu / EXPM_THETA)), to
    chi_s of norm nu_s.  The degree m is the least m >= 1 with
    nu_s^(m+1) / (m+1)! <= 2^-53, evaluated by Horner's rule, and the result
    is squared s times.

    Error.  The 1-norm is induced, so |chi_s^k| <= nu_s^k and each node's
    truncation error is at most e^nu_s nu_s^(m+1) / (m+1)! <= 1.04 * 2^-53
    (nu_s <= EXPM_THETA).  The m - 1 Horner steps add rounding of order
    m r 2^-53, and the s squarings multiply a factor's error by 2^s, which
    is below 2 nu / EXPM_THETA.  Against the eigh path on random fields at
    ranks 3-8 with nu up to 8 (`test_expm_skew_against_eigh`), the largest
    deviation measured is 2.2e-14 and the largest unitarity defect 4.9e-14,
    both at nu = 8 (8 squarings); at nu <= EXPM_THETA, where the Coulomb
    sweeps are, they are 2.0e-15 and 3.3e-16.

    A non-finite nu raises ValueError naming it.
    """
    r = chi.shape[-1]
    if r <= 2:
        return fiber.herm_apply(fiber.exp(1j), -1j * chi)
    nu = float(np.einsum("...ij->...j", np.abs(chi)).max(initial=0.0))   # column sums
    if not math.isfinite(nu):
        raise ValueError("exponent has node 1-norm %r, not a finite number" % nu)
    s = math.ceil(math.log2(nu) - math.log2(EXPM_THETA)) if nu > EXPM_THETA else 0
    chi = chi * 2.0 ** -s            # exact: a power of two
    nu_s = nu * 2.0 ** -s
    m, term = 1, nu_s * nu_s / 2     # term = nu_s^(m+1) / (m+1)!
    while term > 2.0 ** -53:
        m += 1
        term *= nu_s / (m + 1)
    q = chi * (1.0 / m)              # Horner: q = I + chi/j q for j = m, ..., 1
    np.einsum("...ii->...i", q)[...] += 1
    buf = np.empty_like(q)
    for j in range(m - 1, 0, -1):
        np.matmul(chi, q, out=buf)
        buf *= 1.0 / j
        np.einsum("...ii->...i", buf)[...] += 1
        q, buf = buf, q
    for _ in range(s):
        q, buf = np.matmul(q, q, out=buf), q
    return q


def _skew_coords(F: np.ndarray) -> np.ndarray:
    """The r^2 real coordinates of u(r)-valued data F[..., r, r] on one
    trailing axis: Im of the diagonal, then Re and Im of the strict upper
    triangle.  A Hermitian part of F is dropped, so callers check F first."""
    iu = np.triu_indices(F.shape[-1], 1)
    upper = F[..., iu[0], iu[1]]
    return np.concatenate([np.diagonal(F, 0, -2, -1).imag, upper.real, upper.imag], -1)


def _skew_field(c: np.ndarray, r: int) -> np.ndarray:
    """The field F[..., r, r] with `_skew_coords` c, exactly F = -F^dag."""
    iu, d = np.triu_indices(r, 1), np.arange(r)
    re, im = np.split(c[..., r:], 2, axis=-1)
    F = np.zeros(c.shape[:-1] + (r, r), complex)
    F.imag[..., d, d] = c[..., :r]
    F.real[..., iu[0], iu[1]], F.imag[..., iu[0], iu[1]] = re, im
    F.real[..., iu[1], iu[0]], F.imag[..., iu[1], iu[0]] = -re, im
    return F


def _neumann_refined(rho: np.ndarray, w: np.ndarray, grid: SquareGrid) -> tuple[np.ndarray, float]:
    """Neumann solve, then Richardson-correct against the composed 4th-order
    difference operators so the update cancels the residual as the gauge
    sweep will actually measure it.  Returns (chi, the worst compatibility
    defect over scale of its solves)."""
    chi, compat = neumann_poisson(rho, w, grid)
    h = grid.h
    for _ in range(N_REFINE):
        gx, gy = diff4(chi, 0, h), diff4(chi, 1, h)
        lap = diff4(gx, 0, h) + diff4(gy, 1, h)
        step, defect = neumann_poisson(rho - lap, w - _outward_trace(gx, gy), grid)
        chi += step
        compat = max(compat, defect)
        del step                # before the next pass forms its differences
    return chi, compat


def coulomb_fix(A: GaugeField, *, tol: float, eps0: float = 0.1):
    """Gauge transform A into a Coulomb gauge: d*A = 0, iota_nu A = 0.

    Refuses when the curvature is above the smallness threshold eps0 in the
    rho-L^2 norm.  Each sweep solves the linearized Neumann problem
    Lap(chi) = d*A with d_nu chi = iota_nu A (refined against the discrete
    operators) and applies u = exp(chi); the total transform is reapplied to
    the original field every sweep so errors do not accumulate.  Returns
    (u, A_coulomb, CoulombReport).

    The worse of the two residuals must keep shrinking fast enough: once its
    last per-sweep factor, held for the sweeps left of MAX_SWEEPS, cannot
    bring it below tol, the fix raises RuntimeError with that measured factor
    instead of spending the rest of them.
    """
    g = A.grid
    f_l2 = grid_norms(curvature(A), "L^2")
    if not f_l2 <= eps0:            # a NaN norm is refused too
        raise ValueError("curvature %.4f exceeds the smallness threshold %.4f"
                         % (f_l2, eps0))
    r = A.rank
    M = g.N + 1
    u_total = np.broadcast_to(np.eye(r, dtype=complex), (M, M, r, r)).copy()
    A_cur = A
    history, compat = [], 0.0
    for it in range(MAX_SWEEPS + 1):
        dstar = _d_star(A_cur)
        div_l2, bdry = _residual_norms(A_cur, dstar)
        history.append((div_l2, bdry))
        if div_l2 < tol and bdry < tol:
            a_w12 = grid_norms(A_cur, "W^{1,2}")
            return u_total, A_cur, CoulombReport(it, div_l2, bdry, f_l2, a_w12,
                                                 compat, history)
        # at it == MAX_SWEEPS, rate ** 0 == 1, so any finite residual raises here
        worse = max(div_l2, bdry)
        rate = worse / max(history[-2]) if it else 0.0
        if worse * rate ** (MAX_SWEEPS - it) >= tol:
            raise RuntimeError("Coulomb iteration stalls: the residual %.2e shrinks by "
                               "a factor %.4f per sweep at sweep %d, too slow to reach "
                               "%.1e in the %d sweeps left; residual history: %s"
                               % (worse, rate, it, tol, MAX_SWEEPS - it,
                                  ["(%.2e, %.2e)" % hb for hb in history]))
        chi, defect = _neumann_refined(_skew_coords(dstar), _skew_coords(A_cur.normal_trace()), g)
        chi, compat = _skew_field(chi, r), max(compat, defect)
        u_total = mm(_expm_skew(chi), u_total)
        A_cur = gauge_act(u_total, A)
    raise RuntimeError("Coulomb iteration did not reach %.1e in %d sweeps; "
                       "residual history: %s"
                       % (tol, MAX_SWEEPS, ["(%.2e, %.2e)" % hb for hb in history]))


def random_gauge_field(grid: SquareGrid, rank: int, seed: int,
                       curvature_target: float) -> GaugeField:
    """Seeded smooth skew-Hermitian field scaled to a target curvature size.

    The components vanish to 4th order at the boundary, which keeps the
    induced Neumann data corner-compatible (fields that do not vanish at the
    corners force genuinely singular gauge potentials, and no grid gauge
    transform can then reach tiny divergence residuals).  Modes up to
    GAUGE_MAX_MODE enter with 1/(m n)^2 weights so the fields stay resolved.
    A target that is not positive and finite raises ValueError naming it.
    """
    if not 0 < curvature_target < math.inf:
        raise ValueError("curvature target %r is not positive and finite"
                         % curvature_target)
    rng = np.random.default_rng(seed)
    M = grid.N + 1
    window = (np.sin(np.pi * grid.X) * np.sin(np.pi * grid.Y)) ** 4

    def smooth():
        f = np.zeros((M, M))
        for m in range(1, GAUGE_MAX_MODE + 1):
            for n in range(1, GAUGE_MAX_MODE + 1):
                amp = 1.0 / (m * n) ** 2
                f += amp * rng.normal() * np.sin(m * np.pi * grid.X) * np.sin(n * np.pi * grid.Y)
                f += amp * rng.normal() * np.cos(m * np.pi * grid.X) * np.cos(n * np.pi * grid.Y)
        return f * window

    def herm():
        return fiber.hermitize(rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank)))

    ax = sum(smooth()[..., None, None] * herm() for _ in range(2)) * 1j
    ay = sum(smooth()[..., None, None] * herm() for _ in range(2)) * 1j
    A = GaugeField(grid, ax, ay)
    for _ in range(3):
        f = grid_norms(curvature(A), "L^2")
        s = curvature_target / f
        A = GaugeField(grid, A.ax * s, A.ay * s)
    return A
