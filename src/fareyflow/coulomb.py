"""Gauge fields on the unit square: curvature, gauge action, rho-L^2 and
rho-W^{1,2} norms, the Neumann cosine solve, and iterative Coulomb gauge
fixing.

The square is sampled inclusively at (j/N, k/N), j, k = 0..N.  Derivatives
are 4th-order finite differences (one-sided at the boundary).  Each gauge
sweep solves a Neumann problem for its divergence potential in a cosine
basis, whose parity matches the even reflection of the normal-derivative
condition, plus explicit harmonic corrections for the edge data.  The solver
treats trailing array axes as a batch of independent real solves, so a
sweep's u(r)-valued data goes through one call in its r^2 real coordinates
(`_skew_coords`), and the potential is rebuilt from them skew-Hermitian by
construction (`_skew_field`).
"""

from __future__ import annotations

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
_EDGES = ("left", "right", "bottom", "top")


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


# ----------------------------------------------------------------------------
# non-periodic 4th-order differences


_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def diff4(F: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order first derivative, centered inside, one-sided at the edges."""
    F = np.moveaxis(F, axis, 0)
    out = np.empty_like(F)
    out[2:-2] = (F[:-4] - 8 * F[1:-3] + 8 * F[3:-1] - F[4:]) / (12 * h)
    out[0] = sum(c * F[i] for i, c in enumerate(_EDGE0)) / h
    out[1] = sum(c * F[i] for i, c in enumerate(_EDGE1)) / h
    out[-1] = -sum(c * F[-1 - i] for i, c in enumerate(_EDGE0)) / h
    out[-2] = -sum(c * F[-1 - i] for i, c in enumerate(_EDGE1)) / h
    return np.moveaxis(out, 0, axis)


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
        skew = max(np.abs(self.ax + dagger(self.ax)).max(),
                   np.abs(self.ay + dagger(self.ay)).max())
        scale = max(1.0, np.abs(self.ax).max(), np.abs(self.ay).max())
        if skew > 1e-9 * scale:
            raise ValueError("gauge field is not skew-Hermitian (defect %.2e)" % skew)

    @property
    def rank(self) -> int:
        return self.ax.shape[-1]

    def normal_trace(self) -> dict[str, np.ndarray]:
        """iota_nu A on the four edges (outward normal)."""
        return {"left": -self.ax[0], "right": self.ax[-1],
                "bottom": -self.ay[:, 0], "top": self.ay[:, -1]}


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
    """u(A) = u A u^-1 - (du) u^-1 for a unitary field u."""
    eye = np.eye(u.shape[-1])
    defect = np.abs(mm(u, dagger(u)) - eye).max()
    if defect > UNITARY_TOL:
        raise ValueError("gauge transform is not unitary (defect %.2e)" % defect)
    ui = dagger(u)
    h = A.grid.h
    ax = mm(u, mm(A.ax, ui)) - mm(diff4(u, 0, h), ui)
    ay = mm(u, mm(A.ay, ui)) - mm(diff4(u, 1, h), ui)
    skew = lambda B: 0.5 * (B - dagger(B))
    return GaugeField(A.grid, skew(ax), skew(ay))


# ----------------------------------------------------------------------------
# fiberwise and integrated norms


def _rho_skew(F: np.ndarray) -> np.ndarray:
    """rho norm of a skew-Hermitian field: the spectral radius max |eig(i F)|.

    Gauge potentials, their derivatives and curvatures are skew-Hermitian by
    construction; a field that is not (relative defect max|F + F^dag| /
    max|F| above SKEW_TOL) raises ValueError naming the defect instead of
    getting a wrong norm.
    """
    defect = float(np.abs(F + dagger(F)).max(initial=0.0))
    if defect > SKEW_TOL * float(np.abs(F).max(initial=0.0)):
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
# These two transforms are fareyflow's only use of scipy.  Each imports
# scipy.fft itself, so that `import fareyflow` and the CLI subcommands other
# than `coulomb` do not load scipy.  Calls go through the scipy.fft namespace,
# so a wrapper installed on scipy.fft.dct (perfbench's tracer) sees each.


def _cos_coeffs(f: np.ndarray) -> np.ndarray:
    """f on all N+1 nodes -> coefficients of sum c_m cos(m pi x)."""
    import scipy.fft
    N = f.shape[0] - 1
    c = scipy.fft.dct(f, type=1, axis=0) / N
    c[0] /= 2
    c[-1] /= 2
    return c


def _cos_synth(c: np.ndarray) -> np.ndarray:
    import scipy.fft
    c = c.copy()
    c[0] *= 2
    c[-1] *= 2
    return scipy.fft.dct(c, type=1, axis=0) / 2.0


def _edge_cos_pair_correction(wl: np.ndarray, wr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Harmonic h with d_nu h = wl, wr (cosine modes m >= 1) on x = 0, 1 and
    zero normal derivative on the other two edges.  wl, wr are (s, batch) and
    h is (x, y, batch)."""
    k = np.pi * np.arange(1, len(x))
    kx = np.outer(x, k)
    denom = k * (1 - np.exp(-2 * k))
    # (x, m) profiles cosh(k x)/(k sinh(k)) and cosh(k (1-x))/(k sinh(k)), overflow-safe
    grow = (np.exp(kx - k) + np.exp(-kx - k)) / denom
    decay = (np.exp(-kx) + np.exp(kx - 2 * k)) / denom
    modes = grow[..., None] * _cos_coeffs(wr)[1:] + decay[..., None] * _cos_coeffs(wl)[1:]
    return np.tensordot(modes, np.cos(kx.T), (1, 0)).swapaxes(1, 2)


def neumann_poisson(rhs: np.ndarray, w: dict[str, np.ndarray],
                    grid: SquareGrid) -> tuple[np.ndarray, float]:
    """Solve Lap(a) = rhs with d_nu a = w on the boundary, mean(a) = 0;
    returns (a, the worst compatibility defect over scale).

    rhs[x, y, ...] and the edge data w[e][s, ...] share their trailing axes,
    a batch of independent real solves.  Compatibility (integral of rhs
    equals boundary flux) is checked per entry up to COMPAT_TOL times that
    entry's scale; the measured defect is spread as a constant so the
    expansion is exactly solvable, and larger defects raise.
    """
    M = grid.N + 1
    rhs_shape = rhs.shape
    rhs = rhs.reshape(M, M, -1)
    w = {e: w[e].reshape(M, -1) for e in _EDGES}
    X, Y = grid.X[..., None], grid.Y[..., None]
    flux = sum(grid.w1 @ w[e] for e in _EDGES)
    defect = np.tensordot(grid.w2, rhs, 2) - flux
    entries = np.concatenate([rhs.reshape(M * M, -1), *w.values()])
    scale = np.maximum(1.0, np.abs(entries).max(axis=0))
    worst = np.argmax(np.abs(defect) / scale)
    compat = float(abs(defect[worst]) / scale[worst])
    if abs(defect[worst]) > COMPAT_TOL * scale[worst]:
        raise ValueError("incompatible div-curl data: volume minus flux = %.3e" % defect[worst])
    rhs = rhs - defect            # restore exact compatibility

    # quadratic particular solution absorbing the mean of rhs
    c0 = flux
    a = c0 * (X ** 2 + Y ** 2) / 4.0
    w = {"left": w["left"], "right": w["right"] - c0 / 2,
         "bottom": w["bottom"], "top": w["top"] - c0 / 2}
    rhs = rhs - c0

    # cosine solve with homogeneous Neumann data
    C = _cos_coeffs(_cos_coeffs(rhs.swapaxes(0, 1)).swapaxes(0, 1))
    m = np.arange(M)
    lam = -(np.pi ** 2) * (m[:, None] ** 2 + m[None, :] ** 2)
    lam[0, 0] = 1.0
    C = C / lam[..., None]
    C[0, 0] = 0.0
    a = a + _cos_synth(_cos_synth(C.swapaxes(0, 1)).swapaxes(0, 1))

    # edge means: three independent harmonic polynomials span the zero-sum data
    means = np.array([grid.w1 @ w[e] for e in _EDGES])
    basis = np.array([[-1.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, -1.0, 1.0],
                      [0.5, 0.5, -0.5, -0.5]])
    coef, *_ = np.linalg.lstsq(basis.T, means, rcond=None)
    a = a + coef[0] * (X - 0.5) + coef[1] * (Y - 0.5) \
        + coef[2] * ((X - 0.5) ** 2 - (Y - 0.5) ** 2) / 2.0
    rem = {"left": w["left"] - (-coef[0] + coef[2] * 0.5),
           "right": w["right"] - (coef[0] + coef[2] * 0.5),
           "bottom": w["bottom"] - (-coef[1] - coef[2] * 0.5),
           "top": w["top"] - (coef[1] - coef[2] * 0.5)}

    # oscillatory edge data via harmonic extensions (no cross-edge pollution)
    a = a + _edge_cos_pair_correction(rem["left"], rem["right"], grid.x)
    a = a + _edge_cos_pair_correction(rem["bottom"], rem["top"], grid.x).swapaxes(0, 1)
    return (a - np.tensordot(grid.w2, a, 2)).reshape(rhs_shape), compat


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
    history: list[tuple[float, float]] | None = None   # (div, boundary) per sweep

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
            for i, (dv, bd) in enumerate(self.history or []):
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
    bdry = max(float(_rho_skew(v[1:-1]).max()) for v in A.normal_trace().values())
    return l2, bdry


def _expm_skew(chi: np.ndarray) -> np.ndarray:
    """Exact unitary exponential exp(chi) = exp(i herm) of an exactly
    skew-Hermitian field (as `_skew_field` builds it), herm = -i chi (closed
    form at rank 2, eigh at rank >= 3)."""
    return fiber.herm_apply(fiber.exp(1j), -1j * chi)


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


def _neumann_refined(rho: np.ndarray, w: dict[str, np.ndarray],
                     grid: SquareGrid) -> tuple[np.ndarray, float]:
    """Neumann solve, then Richardson-correct against the composed 4th-order
    difference operators so the update cancels the residual as the gauge
    sweep will actually measure it.  Returns (chi, the worst compatibility
    defect over scale of its solves)."""
    chi, compat = neumann_poisson(rho, w, grid)
    h = grid.h
    for _ in range(N_REFINE):
        gx = diff4(chi, 0, h)
        gy = diff4(chi, 1, h)
        lap = diff4(gx, 0, h) + diff4(gy, 1, h)
        rb = {"left": w["left"] + gx[0], "right": w["right"] - gx[-1],
              "bottom": w["bottom"] + gy[:, 0], "top": w["top"] - gy[:, -1]}
        step, defect = neumann_poisson(rho - lap, rb, grid)
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
        wdata = {e: _skew_coords(v) for e, v in A_cur.normal_trace().items()}
        chi, defect = _neumann_refined(_skew_coords(dstar), wdata, g)   # coordinates
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
    """
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
