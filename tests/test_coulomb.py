import math

import numpy as np
import pytest

from fareyflow import fiber
from fareyflow.coulomb import (CurvatureField, GaugeField, SquareGrid, coulomb_fix,
                               curvature, diff4, div_residuals, gauge_act, grid_norms,
                               neumann_poisson, random_gauge_field)
from fareyflow.coulomb import (_d_star, _expm_skew, _neumann_refined, _rho_skew, _skew_coords,
                               _skew_field)

from coulomb_reference import split_solve


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
        sups.append(float(_rho_skew(curvature(gauge_act(u, zero)).fxy).max()))
    assert sups[1] < 5e-6
    assert math.log2(sups[0] / sups[1]) > 3.5     # vanishes at the scheme's order


def test_gauge_act_identity_and_constant(grid):
    A = random_gauge_field(grid, 2, seed=0, curvature_target=0.03)
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
    n1 = grid_norms(curvature(A), "L^2")
    n2 = grid_norms(curvature(A2), "L^2")
    assert n1 == pytest.approx(n2, rel=1e-12)


def test_gauge_act_rejects_nonunitary(grid):
    A = random_gauge_field(grid, 2, seed=0, curvature_target=0.03)
    M = grid.N + 1
    with pytest.raises(ValueError, match="unitary"):
        gauge_act(2.0 * np.broadcast_to(np.eye(2, dtype=complex), (M, M, 2, 2)), A)


def test_gauge_invariance_of_curvature_norms(grid):
    A = random_gauge_field(grid, 2, seed=7, curvature_target=0.05)
    chi = 1j * (0.3 * np.sin(np.pi * grid.X) * np.sin(2 * np.pi * grid.Y))
    herm = np.array([[1.0, 0.5], [0.5, -0.3]], complex)
    u = _expm_skew(chi[..., None, None] * herm)
    A2 = gauge_act(u, A)
    F1, F2 = curvature(A), curvature(A2)
    assert grid_norms(F1, "L^2") == pytest.approx(grid_norms(F2, "L^2"), rel=1e-4, abs=1e-7)
    assert _rho_skew(F1.fxy).max() == pytest.approx(_rho_skew(F2.fxy).max(),
                                                    rel=1e-4, abs=1e-7)


def test_grid_norms_constant_identity(grid):
    """The constant field i Id has rho norm 1 at every node on a unit-area
    square, and no derivative; a one-form sums its components node by node."""
    M = grid.N + 1
    f = 1j * np.broadcast_to(np.eye(3, dtype=complex), (M, M, 3, 3))
    assert grid_norms(CurvatureField(grid, f), "L^2") == pytest.approx(1.0)
    A = GaugeField(grid, f, 0.5 * f)
    assert grid_norms(A, "L^2") == pytest.approx(1.5)
    assert grid_norms(A, "W^{1,2}") == pytest.approx(math.sqrt(1.25))
    with pytest.raises(ValueError, match="unknown space 'L\\^p'"):
        grid_norms(A, "L^p")


def test_rho_le_frobenius_nodewise(grid):
    rng = np.random.default_rng(2)
    M = grid.N + 1
    f = rng.normal(size=(M, M, 3, 3)) + 1j * rng.normal(size=(M, M, 3, 3))
    fro = np.sqrt(np.einsum("...ab,...ab->...", f, f.conj()).real)
    assert np.all(fiber.op_norm(f) <= fro + 1e-12)


def test_skew_rho_is_the_largest_singular_value(grid):
    """Gauge-field components, their derivatives and curvatures are
    skew-Hermitian, where the spectral radius is the rho norm."""
    for rank in (1, 2, 4):
        A = random_gauge_field(grid, rank, seed=11 + rank, curvature_target=0.03)
        F = curvature(A)
        for comp in (A.ax, A.ay, F.fxy, diff4(A.ax, 0, grid.h) + diff4(A.ay, 1, grid.h)):
            defect = np.abs(comp + np.conj(np.swapaxes(comp, -1, -2))).max()
            assert defect <= 1e-15 * np.abs(comp).max()
            svd = np.linalg.svd(comp, compute_uv=False)[..., 0]
            assert np.abs(_rho_skew(comp) - svd).max() <= 1e-14 * svd.max()
        assert grid_norms(A, "W^{1,2}") == pytest.approx(
            np.sqrt(np.sum(sum(fiber.op_norm(c) ** 2 for c in (
                A.ax, A.ay, diff4(A.ax, 0, grid.h), diff4(A.ax, 1, grid.h),
                diff4(A.ay, 0, grid.h), diff4(A.ay, 1, grid.h))) * grid.w2)), rel=1e-13)


def test_skew_rho_rejects_non_skew_fields(grid):
    A = random_gauge_field(grid, 2, seed=3, curvature_target=0.03)
    M = grid.N + 1
    shift = 1e-3 * np.broadcast_to(np.eye(2), (M, M, 2, 2))
    with pytest.raises(ValueError, match=r"not skew-Hermitian \(defect 2\.000e-03\)"):
        grid_norms(CurvatureField(grid, curvature(A).fxy + shift), "L^2")
    A.ax = A.ax + shift          # the arrays are public; construction checked them
    with pytest.raises(ValueError, match="skew-Hermitian"):
        div_residuals(A)


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


def test_neumann_solver(grid):
    a_true = np.cos(np.pi * grid.X) * np.cos(3 * np.pi * grid.Y)
    rhs = -(np.pi ** 2 + 9 * np.pi ** 2) * a_true
    zero_w = {e: np.zeros(grid.N + 1) for e in ("left", "right", "bottom", "top")}
    a, compat = neumann_poisson(rhs, zero_w, grid)
    assert np.abs(a - (a_true - np.sum(a_true * grid.w2))).max() < 1e-12
    with pytest.raises(ValueError, match="incompatible"):
        neumann_poisson(np.ones((grid.N + 1, grid.N + 1)), zero_w, grid)
    # a flux defect below COMPAT_TOL is solved away and reported over its scale
    planted = 1e-7 * np.abs(rhs).max()
    assert compat < 1e-15
    assert neumann_poisson(rhs + planted, zero_w, grid)[1] == pytest.approx(1e-7, rel=1e-6)
    # oscillatory Neumann data on all four edges, reproduced to rounding
    for N in (32, 64, 128):
        g = SquareGrid(N)
        u, rhs, w = _neumann_case(g, 3)
        assert np.abs(neumann_poisson(rhs, w, g)[0] - u).max() < 1e-12
    # trailing axes are a batch: equal to column-by-column solves
    cases = [_neumann_case(grid, n) for n in (3, 4, 5, 6)]
    M = grid.N + 1
    rhs = np.stack([c[1] for c in cases], -1).reshape(M, M, 2, 2)
    w = {e: np.stack([c[2][e] for c in cases], -1).reshape(M, 2, 2) for e in zero_w}
    a = neumann_poisson(rhs, w, grid)[0].reshape(M, M, 4)
    for k, (u, rk, wk) in enumerate(cases):
        assert np.abs(a[..., k] - neumann_poisson(rk, wk, grid)[0]).max() < 1e-13
        assert np.abs(a[..., k] - u).max() < 1e-12
    # the compatibility check is per entry: one bad column raises
    rhs[..., 1, 0] += 1.0
    with pytest.raises(ValueError, match=r"incompatible.* = 1\.000e\+00"):
        neumann_poisson(rhs, w, grid)


def _dagger(F):
    return np.conj(np.swapaxes(F, -1, -2))


def test_packed_sweep_solve_matches_split_columns(grid):
    """The sweep solves d*A and the normal traces in their r^2 real u(r)
    coordinates; the 2r^2-column solve of every real and imaginary part
    (coulomb_reference.py) is the oracle, at ranks 1-4 (no workload runs
    rank 3)."""
    for r in (1, 2, 3, 4):
        A = random_gauge_field(grid, r, seed=40 + r, curvature_target=0.03)
        dstar, trace = _d_star(A), A.normal_trace()
        assert np.array_equal(_skew_field(_skew_coords(dstar), r), dstar)
        w = {e: _skew_coords(v) for e, v in trace.items()}
        chi = _skew_field(_neumann_refined(_skew_coords(dstar), w, grid)[0], r)
        ref = split_solve(dstar, trace, grid)
        assert np.array_equal(chi, -_dagger(chi))
        assert np.abs(chi - ref).max() <= 1e-12 * np.abs(ref).max()
        if r == 1:
            continue
        # a flux defect in one off-diagonal coordinate is refused with the
        # value the split columns measure
        plant = np.zeros((r, r))
        plant[0, r - 1], plant[r - 1, 0] = 1e-3, -1e-3
        bad = dstar + plant
        with pytest.raises(ValueError, match="incompatible") as split_exc:
            split_solve(bad, trace, grid)
        with pytest.raises(ValueError, match="incompatible") as packed_exc:
            _neumann_refined(_skew_coords(bad), w, grid)
        assert str(packed_exc.value) == str(split_exc.value)
        assert str(packed_exc.value).endswith(" = 1.000e-03")


def test_coulomb_refuses_hermitian_part_before_solving(grid, monkeypatch):
    """An x-dependent multiple of the identity added to A_x leaves F_xy
    skew but gives d*A a Hermitian part, which the packed coordinates would
    drop; the fix refuses it with the measured defect and solves nothing."""
    def no_solve(*args):
        raise AssertionError("a Neumann solve ran")

    monkeypatch.setattr("fareyflow.coulomb.neumann_poisson", no_solve)
    for r in (1, 2, 4):
        A = random_gauge_field(grid, r, seed=30 + r, curvature_target=0.03)
        A.ax = A.ax + 1e-3 * grid.X[..., None, None] * np.eye(r)   # the arrays are public
        with pytest.raises(ValueError, match=r"not skew-Hermitian \(defect 2\.000e-03\)"):
            coulomb_fix(A, tol=1e-6)


def test_coulomb_refuses_nan_curvature_before_solving(monkeypatch):
    """A NaN entry makes the curvature norm NaN, which no smallness check
    passes: the fix refuses it with the measured value and solves nothing."""
    def no_solve(*args):
        raise AssertionError("a Neumann solve ran")

    monkeypatch.setattr("fareyflow.coulomb.neumann_poisson", no_solve)
    A = random_gauge_field(SquareGrid(16), 1, 0, 0.03)
    A.ax[5, 5] = np.nan
    with pytest.raises(ValueError, match="curvature nan exceeds the smallness threshold"):
        coulomb_fix(A, tol=1e-6)


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


def _manufactured_coulomb(grid, gauge):
    """(A0, A): the rank-1 Coulomb field A0 = i (d_y psi, -d_x psi) of the
    stream function psi = 0.004 w (1 + cos(pi x) sin(2 pi y) / 2), and A0
    moved by the gauge exp(i phi), A = A0 - i d phi, with phi = gauge w
    (cos(pi x) + sin(pi y) / 2).  w = (sin(pi x) sin(pi y))^4 vanishes to 4th
    order at the boundary, as `random_gauge_field`'s data do, so d*A0 = 0 and
    A0 is 0 on the boundary; every derivative is taken in closed form."""
    pi, sin, cos = np.pi, np.sin, np.cos
    X, Y = grid.X, grid.Y
    S = sin(pi * X) * sin(pi * Y)
    w, wx, wy = S ** 4, 4 * pi * S ** 3 * cos(pi * X) * sin(pi * Y), \
        4 * pi * S ** 3 * sin(pi * X) * cos(pi * Y)
    g = 1 + 0.5 * cos(pi * X) * sin(2 * pi * Y)
    gx, gy = -0.5 * pi * sin(pi * X) * sin(2 * pi * Y), pi * cos(pi * X) * cos(2 * pi * Y)
    q = cos(pi * X) + 0.5 * sin(pi * Y)
    qx, qy = -pi * sin(pi * X), 0.5 * pi * cos(pi * Y)
    a0x, a0y = 0.004j * (wy * g + w * gy), -0.004j * (wx * g + w * gx)
    phx, phy = gauge * (wx * q + w * qx), gauge * (wy * q + w * qy)
    field = lambda fx, fy: GaugeField(grid, fx[..., None, None], fy[..., None, None])
    return field(a0x, a0y), field(a0x - 1j * phx, a0y - 1j * phy)


def test_coulomb_fix_converges_to_the_exact_gauge_at_order_four():
    """An order check of the fix against an exact answer: A0 moved by a known
    gauge is fixed at N = 32, 64 and 128, and the rho-L^2 error of the fixed
    field against A0 falls at order 4 +- 0.8.  The residuals a fix can reach
    are the 4th-order discretisation floor (two sweeps take d*A from 1.37 to
    1.5e-3, 8.7e-5 and 6.1e-6), so tol follows it as 2e-3 (32/N)^4."""
    errs = []
    for N in (32, 64, 128):
        grid = SquareGrid(N)
        A0, A = _manufactured_coulomb(grid, 0.1)
        u, Ac, rep = coulomb_fix(A, tol=2e-3 * (32 / N) ** 4)
        assert rep.history[0][0] > 0.5 and rep.iterations >= 1
        errs.append(grid_norms(GaugeField(grid, Ac.ax - A0.ax, Ac.ay - A0.ay), "L^2"))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(abs(p - 4) <= 0.8 for p in orders), (errs, orders)


def test_coulomb_options_are_keyword_only(grid):
    M = grid.N + 1
    zero = GaugeField(grid, np.zeros((M, M, 1, 1), complex), np.zeros((M, M, 1, 1), complex))
    with pytest.raises(TypeError, match="positional"):
        coulomb_fix(zero, 1e-6, 25)


def test_coulomb_refuses_large_curvature(grid):
    A = random_gauge_field(grid, 2, seed=3, curvature_target=0.5)
    with pytest.raises(ValueError, match="threshold"):
        coulomb_fix(A, tol=1e-6, eps0=0.1)


def test_coulomb_stagnation_fails_fast():
    """At N = 32 this field's residual levels off near 5e-6, the 4th-order
    discretisation floor, falling by about 9% per sweep from sweep 5 on: the
    fix stops at sweep 6, where that rate held over the 19 sweeps left cannot
    reach tol, and names the rate (it used to spend all 25 sweeps)."""
    A = random_gauge_field(SquareGrid(32), 1, seed=6, curvature_target=0.03)
    with pytest.raises(RuntimeError, match=r"stalls: .* factor 0\.9\d+ per sweep at "
                                           r"sweep 6, .* in the 19 sweeps left") as exc:
        coulomb_fix(A, tol=1e-6)
    assert str(exc.value).split("history: ")[1].count("(") == 7    # sweeps 0..6


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
