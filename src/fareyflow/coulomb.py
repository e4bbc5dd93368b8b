"""Gauge fields on the unit square: curvature, gauge action, div-curl solves
with prescribed normal trace, and iterative Coulomb gauge fixing.

The square is sampled inclusively at (j/N, k/N), j, k = 0..N.  Derivatives
are 4th-order finite differences (one-sided at the boundary).  The scalar
solves behind the div-curl system and the gauge-fixing iteration use sine /
cosine bases, whose parities match the even/odd reflections of the normal
trace condition: a Dirichlet sine solve for the curl potential, a Neumann
cosine solve plus explicit harmonic corrections for the divergence potential.
Both solvers treat trailing array axes as a batch of independent real solves,
so matrix-valued complex data goes through one call (real and imaginary parts
on one more trailing axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

COMPAT_TOL = 1e-5    # relative flux-balance defect a Neumann solve accepts
N_REFINE = 2         # Richardson corrections per Coulomb sweep
_EDGES = ("left", "right", "bottom", "top")

mm = lambda A, B: np.einsum("...ab,...bc->...ac", A, B)


def dagger(A: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(A, -1, -2))


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


def gauge_act(u: np.ndarray, A: GaugeField, unitary_tol: float = 1e-8) -> GaugeField:
    """u(A) = u A u^-1 - (du) u^-1 for a unitary field u."""
    eye = np.eye(u.shape[-1])
    defect = np.abs(mm(u, dagger(u)) - eye).max()
    if defect > unitary_tol:
        raise ValueError("gauge transform is not unitary (defect %.2e)" % defect)
    ui = dagger(u)
    h = A.grid.h
    ax = mm(u, mm(A.ax, ui)) - mm(diff4(u, 0, h), ui)
    ay = mm(u, mm(A.ay, ui)) - mm(diff4(u, 1, h), ui)
    skew = lambda B: 0.5 * (B - dagger(B))
    return GaugeField(A.grid, skew(ax), skew(ay))


# ----------------------------------------------------------------------------
# fiberwise and integrated norms


def rho_field(F: np.ndarray) -> np.ndarray:
    if F.shape[-1] == 1:
        return np.abs(F[..., 0, 0])
    return np.linalg.svd(F, compute_uv=False)[..., 0]


def fro_field(F: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...ab,...ab->...", F, F.conj()).real)


def _node_norm(field, which: str) -> np.ndarray:
    """Per-node scalar: one-forms aggregate components by summing."""
    f = rho_field if which == "rho" else fro_field
    if isinstance(field, GaugeField):
        return f(field.ax) + f(field.ay)
    if isinstance(field, CurvatureField):
        return f(field.fxy)
    return f(field)


@dataclass
class NormReport:
    which: str
    space: str
    p: float | None
    alpha: float | None
    value: float


def _integrate_p(node_vals: np.ndarray, grid: SquareGrid, p) -> float:
    if p in (np.inf, "inf"):
        return float(node_vals.max())
    return float((np.sum(node_vals ** p * grid.w2)) ** (1.0 / p))


def grid_norms(field, which: str, space: str, p=2, alpha: float = 0.5,
               grid: SquareGrid | None = None, holder_nodes: int = 1024) -> NormReport:
    """L^p, W^{1,p}, or C^alpha norms with the rho or Frobenius fiber norm.

    The Hoelder seminorm is evaluated on a subsampled node set (about
    `holder_nodes` nodes), which is an upper-bounded-from-below surrogate of
    the true supremum; it is exact in the refinement limit.
    """
    if which not in ("rho", "frobenius"):
        raise ValueError("which must be 'rho' or 'frobenius'")
    if grid is None:
        grid = field.grid
    if space == "L^p":
        if p not in (1, 2, 4, np.inf, "inf"):
            raise ValueError("unsupported exponent %r" % (p,))
        return NormReport(which, space, None if p == "inf" else p, None,
                          _integrate_p(_node_norm(field, which), grid, p))
    if space == "W^{1,p}":
        if p not in (1, 2, 4):
            raise ValueError("unsupported exponent %r" % (p,))
        comps = [field.ax, field.ay] if isinstance(field, GaugeField) else \
            [field.fxy] if isinstance(field, CurvatureField) else [field]
        f = rho_field if which == "rho" else fro_field
        total = np.zeros_like(grid.w2)
        for c in comps:
            total += f(c) ** p
            total += f(diff4(c, 0, grid.h)) ** p
            total += f(diff4(c, 1, grid.h)) ** p
        return NormReport(which, space, p, None, float(np.sum(total * grid.w2) ** (1.0 / p)))
    if space == "C^alpha":
        if not 0 < alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        vals = _node_norm(field, which)       # scalar surrogate per node
        comps = [field.ax, field.ay] if isinstance(field, GaugeField) else \
            [field.fxy] if isinstance(field, CurvatureField) else [field]
        M = grid.N + 1
        stride = max(1, int(math.ceil(M / math.sqrt(holder_nodes))))
        sub = np.ix_(range(0, M, stride), range(0, M, stride))
        pts_x = grid.X[sub].ravel()
        pts_y = grid.Y[sub].ravel()
        blocks = np.concatenate([c[sub].reshape(len(pts_x), -1) for c in comps], axis=1)
        diff = blocks[:, None, :] - blocks[None, :, :]
        if which == "rho":
            r = comps[0].shape[-1]
            nmats = len(comps)
            d = diff.reshape(len(pts_x), len(pts_x), nmats, r, r)
            num = np.linalg.svd(d, compute_uv=False)[..., 0].sum(axis=-1)
        else:
            num = np.sqrt((np.abs(diff) ** 2).sum(axis=-1))
        dx = pts_x[:, None] - pts_x[None, :]
        dy = pts_y[:, None] - pts_y[None, :]
        dist = np.hypot(dx, dy)
        np.fill_diagonal(dist, np.inf)
        ratio = num / dist ** alpha
        return NormReport(which, space, None, alpha, float(ratio.max()))
    raise ValueError("unknown space %r" % (space,))


# ----------------------------------------------------------------------------
# sine/cosine scalar solvers on the square


def _sin_coeffs(f: np.ndarray) -> np.ndarray:
    """f on interior nodes -> coefficients of sum s_m sin(m pi x)."""
    return scipy.fft.dst(f, type=1, axis=0) / (f.shape[0] + 1)


def _sin_synth(s: np.ndarray) -> np.ndarray:
    return scipy.fft.dst(s, type=1, axis=0) / 2.0


def _cos_coeffs(f: np.ndarray) -> np.ndarray:
    """f on all N+1 nodes -> coefficients of sum c_m cos(m pi x)."""
    N = f.shape[0] - 1
    c = scipy.fft.dct(f, type=1, axis=0) / N
    c[0] /= 2
    c[-1] /= 2
    return c

def _cos_synth(c: np.ndarray) -> np.ndarray:
    c = c.copy()
    c[0] *= 2
    c[-1] *= 2
    return scipy.fft.dct(c, type=1, axis=0) / 2.0


def _split(z: np.ndarray) -> np.ndarray:
    """Complex data -> real entries along a new trailing axis (re, im)."""
    return np.stack([z.real, z.imag], -1)


def _join(f: np.ndarray) -> np.ndarray:
    return f[..., 0] + 1j * f[..., 1]


def dirichlet_poisson(rhs: np.ndarray) -> np.ndarray:
    """Solve Lap(b) = rhs, b = 0 on the boundary (sine Galerkin).

    rhs[x, y, ...] is given on the full (N+1)^2 node grid; trailing axes are
    a batch of independent real solves.  The interior values drive the sine
    expansion and the returned b carries exact zero boundary values.
    """
    M = rhs.shape[0]
    f = rhs.reshape(M, M, -1)
    S = _sin_coeffs(_sin_coeffs(f[1:-1, 1:-1].swapaxes(0, 1)).swapaxes(0, 1))
    m = np.arange(1, M - 1)
    lam = -(np.pi ** 2) * (m[:, None] ** 2 + m[None, :] ** 2)
    S = S / lam[..., None]
    b = np.zeros_like(f)
    b[1:-1, 1:-1] = _sin_synth(_sin_synth(S.swapaxes(0, 1)).swapaxes(0, 1))
    return b.reshape(rhs.shape)


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


def neumann_poisson(rhs: np.ndarray, w: dict[str, np.ndarray], grid: SquareGrid) -> np.ndarray:
    """Solve Lap(a) = rhs with d_nu a = w on the boundary, mean(a) = 0.

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
    return (a - np.tensordot(grid.w2, a, 2)).reshape(rhs_shape)


def hodge_solve(phi: np.ndarray, psi: np.ndarray, w: dict[str, np.ndarray] | None,
                grid: SquareGrid) -> tuple[np.ndarray, np.ndarray]:
    """Solve d_x u_y - d_y u_x = phi, d_x u_x + d_y u_y = psi, iota_nu u = w.

    Split u = grad(a) + rot(b) with rot(b) = (-d_y b, d_x b): the divergence
    potential a solves a Neumann problem with data (psi, w), the curl
    potential b a Dirichlet problem for phi.  Data may be scalar fields or
    matrix-valued, real or complex; the system is linear, so every real and
    imaginary part of every entry is one member of a single batched solve.
    """
    M = grid.N + 1
    if phi.shape[:2] != (M, M) or psi.shape[:2] != (M, M):
        raise ValueError("data must live on the full node grid")
    w = w or {}
    wd = {e: _split(np.asarray(w.get(e, np.zeros((M,) + psi.shape[2:])))) for e in _EDGES}
    b = dirichlet_poisson(_split(phi))
    a = neumann_poisson(_split(psi), wd, grid)
    return (_join(diff4(a, 0, grid.h) - diff4(b, 1, grid.h)),
            _join(diff4(a, 1, grid.h) + diff4(b, 0, grid.h)))


# ----------------------------------------------------------------------------
# Coulomb gauge fixing


@dataclass
class CoulombReport:
    iterations: int
    div_residual: float
    boundary_residual: float
    curvature_l2: float
    a_w12: float
    history: list[tuple[float, float]] | None = None   # (div, boundary) per sweep

    @property
    def ratio(self) -> float:
        return self.a_w12 / self.curvature_l2 if self.curvature_l2 else math.inf

    def dump_trajectory_csv(self, path, seed=None, rank=None):
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
    g = A.grid
    dstar = diff4(A.ax, 0, g.h) + diff4(A.ay, 1, g.h)
    interior = rho_field(dstar)
    l2 = float(np.sqrt(np.sum(interior ** 2 * g.w2)))
    bdry = max(float(rho_field(v[1:-1]).max()) for v in A.normal_trace().values())
    return l2, bdry


def _expm_skew(chi: np.ndarray) -> np.ndarray:
    """Exact unitary exponential of a skew-Hermitian field via eigh of -i chi."""
    herm = -1j * 0.5 * (chi - dagger(chi))
    lam, P = np.linalg.eigh(herm)
    return np.einsum("...ab,...b,...cb->...ac", P, np.exp(1j * lam), P.conj())


def _neumann_refined(rho: np.ndarray, w: dict[str, np.ndarray], grid: SquareGrid) -> np.ndarray:
    """Neumann solve, then Richardson-correct against the composed 4th-order
    difference operators so the update cancels the residual as the gauge
    sweep will actually measure it."""
    chi = neumann_poisson(rho, w, grid)
    h = grid.h
    for _ in range(N_REFINE):
        gx = diff4(chi, 0, h)
        gy = diff4(chi, 1, h)
        lap = diff4(gx, 0, h) + diff4(gy, 1, h)
        rb = {"left": w["left"] + gx[0], "right": w["right"] - gx[-1],
              "bottom": w["bottom"] + gy[:, 0], "top": w["top"] - gy[:, -1]}
        chi = chi + neumann_poisson(rho - lap, rb, grid)
    return chi


def coulomb_fix(A: GaugeField, tol: float = 1e-6, max_iter: int = 25,
                eps0: float = 0.1):
    """Gauge transform A into a Coulomb gauge: d*A = 0, iota_nu A = 0.

    Refuses when the curvature is above the smallness threshold eps0 in the
    rho-L^2 norm.  Each sweep solves the linearized Neumann problem
    Lap(chi) = d*A with d_nu chi = iota_nu A (refined against the discrete
    operators) and applies u = exp(chi); the total transform is reapplied to
    the original field every sweep so errors do not accumulate.  Returns
    (u, A_coulomb, CoulombReport).
    """
    g = A.grid
    f_l2 = grid_norms(curvature(A), "rho", "L^p", p=2).value
    if f_l2 > eps0:
        raise ValueError("curvature %.4f exceeds the smallness threshold %.4f"
                         % (f_l2, eps0))
    r = A.rank
    M = g.N + 1
    u_total = np.broadcast_to(np.eye(r, dtype=complex), (M, M, r, r)).copy()
    A_cur = A
    history = []
    for it in range(max_iter + 1):
        div_l2, bdry = div_residuals(A_cur)
        history.append((div_l2, bdry))
        if div_l2 < tol and bdry < tol:
            a_w12 = grid_norms(A_cur, "rho", "W^{1,p}", p=2).value
            return u_total, A_cur, CoulombReport(it, div_l2, bdry, f_l2, a_w12,
                                                 history)
        if it == max_iter:
            break
        dstar = diff4(A_cur.ax, 0, g.h) + diff4(A_cur.ay, 1, g.h)
        wdata = {e: _split(v) for e, v in A_cur.normal_trace().items()}
        chi = _join(_neumann_refined(_split(dstar), wdata, g))
        chi = 0.5 * (chi - dagger(chi))
        u_total = mm(_expm_skew(chi), u_total)
        A_cur = gauge_act(u_total, A)
    raise RuntimeError("Coulomb iteration did not reach %.1e in %d sweeps; "
                       "residual history: %s"
                       % (tol, max_iter, ["(%.2e, %.2e)" % hb for hb in history]))


def random_gauge_field(grid: SquareGrid, rank: int, seed: int,
                       curvature_target: float = 0.03, max_mode: int = 2,
                       boundary_flat: bool = True) -> GaugeField:
    """Seeded smooth skew-Hermitian field scaled to a target curvature size.

    With boundary_flat the components vanish to 4th order at the boundary,
    which keeps the induced Neumann data corner-compatible (fields that do
    not vanish at the corners force genuinely singular gauge potentials, and
    no grid gauge transform can then reach tiny divergence residuals).
    Higher modes enter with 1/(m n)^2 weights so the fields stay resolved.
    """
    rng = np.random.default_rng(seed)
    M = grid.N + 1
    window = (np.sin(np.pi * grid.X) * np.sin(np.pi * grid.Y)) ** 4 \
        if boundary_flat else np.ones((M, M))

    def smooth():
        f = np.zeros((M, M))
        for m in range(1, max_mode + 1):
            for n in range(1, max_mode + 1):
                amp = 1.0 / (m * n) ** 2
                f += amp * rng.normal() * np.sin(m * np.pi * grid.X) * np.sin(n * np.pi * grid.Y)
                f += amp * rng.normal() * np.cos(m * np.pi * grid.X) * np.cos(n * np.pi * grid.Y)
        return f * window

    def herm():
        B = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
        return 0.5 * (B + B.conj().T)

    ax = sum(smooth()[..., None, None] * herm() for _ in range(2)) * 1j
    ay = sum(smooth()[..., None, None] * herm() for _ in range(2)) * 1j
    A = GaugeField(grid, ax, ay)
    for _ in range(3):
        f = grid_norms(curvature(A), "rho", "L^p", p=2).value
        s = curvature_target / f
        A = GaugeField(grid, A.ax * s, A.ay * s)
    return A
