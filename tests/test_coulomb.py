import math

import numpy as np
import pytest

from fareyflow.coulomb import (CoulombReport, GaugeField, SquareGrid, coulomb_fix,
                               curvature, diff4, dirichlet_poisson, div_residuals,
                               gauge_act, grid_norms, hodge_solve, neumann_poisson,
                               random_gauge_field, rho_field)
from fareyflow.coulomb import _expm_skew


@pytest.fixture(scope="module")
def grid():
    return SquareGrid(64)


def test_diff4_exact_on_quartics(grid):
    f = grid.x ** 4 - 2 * grid.x ** 3 + 0.5 * grid.x
    df = 4 * grid.x ** 3 - 6 * grid.x ** 2 + 0.5
    assert np.abs(diff4(f, 0, grid.h) - df).max() < 1e-10


def test_diff4_order():
    errs = []
    for N in (32, 64):
        g = SquareGrid(N)
        f = np.sin(3 * np.pi * g.x)
        df = 3 * np.pi * np.cos(3 * np.pi * g.x)
        errs.append(np.abs(diff4(f, 0, g.h) - df).max())
    assert 3.5 < math.log2(errs[0] / errs[1]) < 4.6


def test_curvature_examples(grid):
    M = grid.N + 1
    z = np.zeros((M, M, 1, 1), complex)
    A0 = GaugeField(grid, z, z.copy())
    assert np.abs(curvature(A0).fxy).max() == 0
    T = 1j * np.ones((1, 1))
    A = GaugeField(grid, z.copy(), grid.X[..., None, None] * T)
    assert np.abs(curvature(A).fxy - T).max() < 1e-12


def test_pure_gauge_curvature_at_discretization_level():
    sups = []
    for N in (32, 64):
        g = SquareGrid(N)
        M = g.N + 1
        chi = 1j * (0.4 * np.cos(np.pi * g.X) * np.cos(np.pi * g.Y))[..., None, None]
        u = _expm_skew(chi * np.ones((1, 1)))
        zero = GaugeField(g, np.zeros((M, M, 1, 1), complex),
                          np.zeros((M, M, 1, 1), complex))
        sups.append(grid_norms(curvature(gauge_act(u, zero)), "rho", "L^p",
                               p="inf").value)
    assert sups[1] < 5e-6
    assert math.log2(sups[0] / sups[1]) > 3.5     # vanishes at the scheme's order


def test_gauge_act_identity_and_constant(grid):
    A = random_gauge_field(grid, 2, seed=0)
    M = grid.N + 1
    eye = np.broadcast_to(np.eye(2, dtype=complex), (M, M, 2, 2)).copy()
    A1 = gauge_act(eye, A)
    assert np.abs(A1.ax - A.ax).max() < 1e-14
    rng = np.random.default_rng(1)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    w, P = np.linalg.eigh(h + h.conj().T)
    const = np.broadcast_to(P, (M, M, 2, 2)).copy()
    A2 = gauge_act(const, A)
    assert np.abs(A2.ax - np.einsum("ab,...bc,dc->...ad", P, A.ax, P.conj())).max() < 1e-12
    n1 = grid_norms(curvature(A), "rho", "L^p", p=2).value
    n2 = grid_norms(curvature(A2), "rho", "L^p", p=2).value
    assert n1 == pytest.approx(n2, rel=1e-12)


def test_gauge_act_rejects_nonunitary(grid):
    A = random_gauge_field(grid, 2, seed=0)
    M = grid.N + 1
    with pytest.raises(ValueError, match="unitary"):
        gauge_act(2.0 * np.broadcast_to(np.eye(2, dtype=complex), (M, M, 2, 2)), A)


def test_gauge_invariance_of_curvature_norms(grid):
    A = random_gauge_field(grid, 2, seed=7, curvature_target=0.05)
    chi = 1j * (0.3 * np.sin(np.pi * grid.X) * np.sin(2 * np.pi * grid.Y))
    herm = np.array([[1.0, 0.5], [0.5, -0.3]], complex)
    u = _expm_skew(chi[..., None, None] * herm)
    A2 = gauge_act(u, A)
    for p in (1, 2, "inf"):
        n1 = grid_norms(curvature(A), "rho", "L^p", p=p).value
        n2 = grid_norms(curvature(A2), "rho", "L^p", p=p).value
        assert n1 == pytest.approx(n2, rel=1e-4, abs=1e-7)


def test_grid_norms_constant_identity(grid):
    M = grid.N + 1
    f = np.broadcast_to(np.eye(3, dtype=complex), (M, M, 3, 3))
    assert grid_norms(f, "rho", "L^p", p=2, grid=grid).value == pytest.approx(1.0)
    assert grid_norms(f, "frobenius", "L^p", p=2, grid=grid).value == pytest.approx(math.sqrt(3))
    with pytest.raises(ValueError, match="exponent"):
        grid_norms(f, "rho", "L^p", p=3, grid=grid)


def test_rho_le_frobenius_nodewise(grid):
    rng = np.random.default_rng(2)
    M = grid.N + 1
    f = rng.normal(size=(M, M, 3, 3)) + 1j * rng.normal(size=(M, M, 3, 3))
    from fareyflow.coulomb import fro_field
    assert np.all(rho_field(f) <= fro_field(f) + 1e-12)


def test_holder_seminorm_linear_field(grid):
    M = grid.N + 1
    f = (2.5 * grid.X)[..., None, None].astype(complex)
    for alpha, expect_ge in ((0.9, 2.0), (0.99, 2.3)):
        rep = grid_norms(f, "rho", "C^alpha", alpha=alpha, grid=grid)
        # sup |f(x)-f(y)|/|x-y|^alpha -> slope as alpha -> 1 (attained at distance 1)
        assert expect_ge <= rep.value <= 2.5 * 1.05 + 0.6
    rep = grid_norms(f, "rho", "C^alpha", alpha=0.999, grid=grid)
    assert rep.value == pytest.approx(2.5, rel=0.05)


def _neumann_case(g, n):
    """Mean-zero u = cos(pi x) cos(n pi y) plus, from each edge, the harmonic
    extension of one cosine mode; returns (u, Lap u, outward d_nu u).  Both
    the volume and the trapezoid flux integrals vanish exactly."""
    X, Y, x = g.X, g.Y, g.x
    kl, kr, kb, kt = np.pi * np.array([n + 1, n - 1, n, n - 2])
    ch = np.cosh
    u = (np.cos(np.pi * X) * np.cos(n * np.pi * Y)
         + ch(kl * (1 - X)) * np.cos(kl * Y) / ch(kl) + ch(kr * X) * np.cos(kr * Y) / ch(kr)
         + ch(kb * (1 - Y)) * np.cos(kb * X) / ch(kb) + ch(kt * Y) * np.cos(kt * X) / ch(kt))
    rhs = -(1 + n ** 2) * np.pi ** 2 * np.cos(np.pi * X) * np.cos(n * np.pi * Y)
    w = {e: k * np.tanh(k) * np.cos(k * x)
         for e, k in zip(("left", "right", "bottom", "top"), (kl, kr, kb, kt))}
    return u - np.sum(u * g.w2), rhs, w


def test_dirichlet_neumann_solvers(grid):
    b_true = np.sin(2 * np.pi * grid.X) * np.sin(np.pi * grid.Y)
    b = dirichlet_poisson(-(4 * np.pi ** 2 + np.pi ** 2) * b_true)
    assert np.abs(b - b_true).max() < 1e-12
    a_true = np.cos(np.pi * grid.X) * np.cos(3 * np.pi * grid.Y)
    rhs = -(np.pi ** 2 + 9 * np.pi ** 2) * a_true
    zero_w = {e: np.zeros(grid.N + 1) for e in ("left", "right", "bottom", "top")}
    a = neumann_poisson(rhs, zero_w, grid)
    assert np.abs(a - (a_true - np.sum(a_true * grid.w2))).max() < 1e-12
    with pytest.raises(ValueError, match="incompatible"):
        neumann_poisson(np.ones((grid.N + 1, grid.N + 1)), zero_w, grid)
    # oscillatory Neumann data on all four edges, reproduced to rounding
    for N in (32, 64, 128):
        g = SquareGrid(N)
        u, rhs, w = _neumann_case(g, 3)
        assert np.abs(neumann_poisson(rhs, w, g) - u).max() < 1e-12
    # trailing axes are a batch: equal to column-by-column solves
    cases = [_neumann_case(grid, n) for n in (3, 4, 5, 6)]
    M = grid.N + 1
    rhs = np.stack([c[1] for c in cases], -1).reshape(M, M, 2, 2)
    w = {e: np.stack([c[2][e] for c in cases], -1).reshape(M, 2, 2) for e in zero_w}
    a = neumann_poisson(rhs, w, grid).reshape(M, M, 4)
    b = dirichlet_poisson(rhs).reshape(M, M, 4)
    for k, (u, rk, wk) in enumerate(cases):
        assert np.abs(a[..., k] - neumann_poisson(rk, wk, grid)).max() < 1e-13
        assert np.abs(a[..., k] - u).max() < 1e-12
        assert np.abs(b[..., k] - dirichlet_poisson(rk)).max() < 1e-13
    # the compatibility check is per entry: one bad column raises
    rhs[..., 1, 0] += 1.0
    with pytest.raises(ValueError, match=r"incompatible.* = 1\.000e\+00"):
        neumann_poisson(rhs, w, grid)


def test_hodge_zero_data(grid):
    M = grid.N + 1
    ux, uy = hodge_solve(np.zeros((M, M)), np.zeros((M, M)), None, grid)
    assert np.abs(ux).max() == 0 and np.abs(uy).max() == 0


def test_hodge_manufactured(grid):
    ux_t = np.sin(np.pi * grid.X) * np.cos(2 * np.pi * grid.Y)
    uy_t = (grid.Y ** 2 - grid.Y) * np.cos(np.pi * grid.X)
    phi = -np.pi * np.sin(np.pi * grid.X) * (grid.Y ** 2 - grid.Y) \
        + 2 * np.pi * np.sin(np.pi * grid.X) * np.sin(2 * np.pi * grid.Y)
    psi = np.pi * np.cos(np.pi * grid.X) * np.cos(2 * np.pi * grid.Y) \
        + (2 * grid.Y - 1) * np.cos(np.pi * grid.X)
    ux, uy = hodge_solve(phi, psi, None, grid)
    assert np.abs(ux.real - ux_t).max() < 2e-4
    assert np.abs(uy.real - uy_t).max() < 2e-4


def test_hodge_linearity(grid):
    rng = np.random.default_rng(0)
    M = grid.N + 1
    win = (np.sin(np.pi * grid.X) * np.sin(np.pi * grid.Y)) ** 2
    phi1 = win * np.cos(np.pi * grid.X)
    psi1 = win * np.sin(2 * np.pi * grid.Y)
    phi2 = win * grid.Y
    psi2 = win * (grid.X - 0.5)
    # psi must satisfy the flux condition: window it to mean zero
    psi1 -= np.sum(psi1 * grid.w2)
    psi2 -= np.sum(psi2 * grid.w2)
    u1 = hodge_solve(phi1, psi1, None, grid)
    u2 = hodge_solve(phi2, psi2, None, grid)
    u12 = hodge_solve(phi1 + phi2, psi1 + psi2, None, grid)
    assert np.abs(u12[0] - u1[0] - u2[0]).max() < 1e-10
    assert np.abs(u12[1] - u1[1] - u2[1]).max() < 1e-10
    # complex matrix data: every entry equals the scalar solves of its parts
    phi = np.stack([phi1, phi2 + 0.5j * phi1, 1j * phi2, phi1 - 2j * phi2], -1)
    psi = np.stack([psi1 - 1j * psi2, 2 * psi2, 0.3j * psi1, psi1 + psi2], -1)
    u = hodge_solve(phi.reshape(M, M, 2, 2), psi.reshape(M, M, 2, 2), None, grid)
    for k in range(4):
        re = hodge_solve(phi[..., k].real, psi[..., k].real, None, grid)
        im = hodge_solve(phi[..., k].imag, psi[..., k].imag, None, grid)
        for c in range(2):
            entry = u[c].reshape(M, M, 4)[..., k]
            assert np.abs(entry - (re[c] + 1j * im[c])).max() < 1e-12


def test_hodge_stability_constant():
    # ||u||_W12 <= C (||phi|| + ||psi||) with C stable across random instances
    g = SquareGrid(32)
    rng = np.random.default_rng(5)
    win = (np.sin(np.pi * g.X) * np.sin(np.pi * g.Y)) ** 2
    ratios = []
    for _ in range(20):
        phi = win * sum(rng.normal() * np.cos(np.pi * (m * g.X + n * g.Y))
                        for m in range(3) for n in range(3))
        psi = win * sum(rng.normal() * np.sin(np.pi * m * g.X) * np.sin(np.pi * n * g.Y)
                        for m in range(1, 3) for n in range(1, 3))
        psi -= np.sum(psi * g.w2)
        ux, uy = hodge_solve(phi, psi, None, g)
        pieces = [ux, uy, diff4(ux, 0, g.h), diff4(ux, 1, g.h),
                  diff4(uy, 0, g.h), diff4(uy, 1, g.h)]
        w12 = math.sqrt(sum(np.sum(np.abs(p) ** 2 * g.w2) for p in pieces))
        data = math.sqrt(np.sum((np.abs(phi) ** 2 + np.abs(psi) ** 2) * g.w2))
        ratios.append(w12 / data)
    ratios = np.array(ratios)
    assert ratios.max() / np.median(ratios) < 3


def test_coulomb_zero_field(grid):
    M = grid.N + 1
    A0 = GaugeField(grid, np.zeros((M, M, 1, 1), complex),
                    np.zeros((M, M, 1, 1), complex))
    u, Ac, rep = coulomb_fix(A0, tol=1e-6)
    assert rep.iterations == 0
    assert np.abs(u - 1.0).max() < 1e-14


def test_coulomb_pure_gauge_recovers_zero(grid):
    M = grid.N + 1
    win = (np.sin(np.pi * grid.X) * np.sin(np.pi * grid.Y)) ** 4
    chi = 1j * (0.3 * win * np.cos(np.pi * grid.X))[..., None, None] * np.ones((1, 1))
    u0 = _expm_skew(chi)
    zero = GaugeField(grid, np.zeros((M, M, 1, 1), complex),
                      np.zeros((M, M, 1, 1), complex))
    A = gauge_act(u0, zero)
    u, Ac, rep = coulomb_fix(A, tol=1e-6)
    assert rep.div_residual < 1e-6 and rep.boundary_residual < 1e-6
    assert max(np.abs(Ac.ax).max(), np.abs(Ac.ay).max()) < 1e-4


def test_coulomb_refuses_large_curvature(grid):
    A = random_gauge_field(grid, 2, seed=3, curvature_target=0.5)
    with pytest.raises(ValueError, match="threshold"):
        coulomb_fix(A, tol=1e-6, eps0=0.1)


def test_coulomb_samples_converge_and_reproduce(grid):
    ratios = []
    for k, rank in enumerate((1, 2, 4) * 2):
        A = random_gauge_field(grid, rank, seed=50 + k, curvature_target=0.025)
        u, Ac, rep = coulomb_fix(A, tol=1e-6)
        assert rep.div_residual < 1e-6 and rep.boundary_residual < 1e-6
        reapplied = gauge_act(u, A)
        assert np.abs(reapplied.ax - Ac.ax).max() < 1e-8
        ratios.append(rep.ratio)
    ratios = np.array(ratios)
    assert ratios.max() / np.median(ratios) < 5
