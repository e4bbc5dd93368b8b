import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from fareyflow import fiber
from fareyflow.coulomb import (EXPM_THETA, CurvatureField, GaugeField, SquareGrid,
                               coulomb_fix, curvature, diff4, div_residuals, gauge_act,
                               grid_norms, neumann_poisson, random_gauge_field)
from fareyflow.coulomb import (_d_star, _expm_skew, _neumann_refined, _rho_skew, _skew_coords,
                               _skew_field)

from coulomb_reference import physical_neumann, split_solve


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


# Fornberg's one-sided weights of the first derivative on the two rows at an
# edge (Math. Comp. 51 (1988) 699-706), in units of 1/h
FORNBERG = (np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0,
            np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0)


def centred_oracle(F, axis, h):
    """The whole-array centred sum, a Python sum (from 0) of weighted slices,
    over 12 h inside, and the Fornberg rows at both edges."""
    F = np.moveaxis(F, axis, 0)
    n = len(F)
    weights = {-2: 1, -1: -8, 1: 8, 2: -1}
    inner = sum(c * F[2 + s:n - 2 + s] for s, c in weights.items()) / (12 * h)
    rows = [sum(c * F[i] for i, c in enumerate(w)) / h for w in FORNBERG]
    back = [-sum(c * F[-1 - i] for i, c in enumerate(w)) / h for w in FORNBERG]
    out = np.concatenate([np.stack(rows), inner, np.stack(back[::-1])])
    return np.moveaxis(out, 0, axis)


def _signed_zeros(rng, F):
    """F with a fifth of its entries +0 or -0 and, along both axes, the rows
    10, 11, 13, 14 set to -0, +0, -0, +0: the centred sum at row 12 is then
    a zero whose sign depends on where the sum starts."""
    F = F.copy()
    parts = (F.real, F.imag) if np.iscomplexobj(F) else (F,)
    for part in parts:
        hit = rng.random(part.shape) < 0.2
        part[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
        for axis in (0, 1):
            rows = np.moveaxis(part, axis, 0)
            rows[[10, 11, 13, 14]] = np.array([-0.0, 0.0, -0.0, 0.0])[:, None, None, None]
    return F


@pytest.mark.parametrize("rank", (1, 2, 3, 4))
def test_diff4_matches_centred_sum_bitwise(rank):
    """diff4 sums its interior with `fiber.centred_sum` and keeps Fornberg's
    one-sided rows at the edges; the whole-array oracle is its match byte
    for byte, signs of zero included, on real and complex fields, on views
    that are not C-contiguous and on broadcast views, along both axes."""
    rng = np.random.default_rng(800 + rank)
    for N in (16, 32):
        h = 1.0 / N
        shape = (N + 1, N + 1, rank, rank)
        for F in (rng.normal(size=shape), rng.normal(size=shape) + 1j * rng.normal(size=shape)):
            F = _signed_zeros(rng, F)
            for G in (F, np.swapaxes(F, 0, 1), F[:, :, ::-1], np.broadcast_to(F[0, 0], shape),
                      np.broadcast_to(F[:, :1], shape)):
                for axis in (0, 1):
                    want = centred_oracle(G, axis, h)
                    assert diff4(G, axis, h).tobytes() == want.tobytes()


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
    u = np.broadcast_to(np.eye(2, dtype=complex), (M, M, 2, 2)).copy()
    u[5, 5, 0, 1] = np.nan          # a NaN defect passes no bound
    with pytest.raises(ValueError, match=r"not unitary \(defect nan\)"):
        gauge_act(u, A)


def test_gauge_field_refuses_nan_entries(grid):
    A = random_gauge_field(grid, 2, seed=0, curvature_target=0.03)
    for comp in ("ax", "ay"):
        bad = getattr(A, comp).copy()
        bad[5, 5, 0, 0] = np.nan
        fields = {"ax": A.ax, "ay": A.ay, comp: bad}
        with pytest.raises(ValueError, match=r"not skew-Hermitian \(defect nan\)"):
            GaugeField(grid, **fields)


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
    extension of one cosine mode; returns (u, Lap u, outward d_nu u on the
    edges left, right, bottom, top).  Both the volume and the trapezoid flux
    integrals vanish exactly."""
    X, Y, x = g.X, g.Y, g.x
    k = np.pi * np.array([n + 1, n - 1, n, n - 2])
    kl, kr, kb, kt = k
    ch = np.cosh
    u = (np.cos(np.pi * X) * np.cos(n * np.pi * Y)
         + ch(kl * (1 - X)) * np.cos(kl * Y) / ch(kl) + ch(kr * X) * np.cos(kr * Y) / ch(kr)
         + ch(kb * (1 - Y)) * np.cos(kb * X) / ch(kb) + ch(kt * Y) * np.cos(kt * X) / ch(kt))
    rhs = -(1 + n ** 2) * np.pi ** 2 * np.cos(np.pi * X) * np.cos(n * np.pi * Y)
    return u - np.sum(u * g.w2), rhs, (k * np.tanh(k))[:, None] * np.cos(np.outer(k, x))


def test_neumann_solver(grid):
    a_true = np.cos(np.pi * grid.X) * np.cos(3 * np.pi * grid.Y)
    rhs = -(np.pi ** 2 + 9 * np.pi ** 2) * a_true
    zero_w = np.zeros((4, grid.N + 1))
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
    w = np.stack([c[2] for c in cases], -1).reshape(4, M, 2, 2)
    a = neumann_poisson(rhs, w, grid)[0].reshape(M, M, 4)
    for k, (u, rk, wk) in enumerate(cases):
        assert np.abs(a[..., k] - neumann_poisson(rk, wk, grid)[0]).max() < 1e-13
        assert np.abs(a[..., k] - u).max() < 1e-12
    # the compatibility check is per entry: one bad column raises
    rhs[..., 1, 0] += 1.0
    with pytest.raises(ValueError, match=r"incompatible.* = 1\.000e\+00"):
        neumann_poisson(rhs, w, grid)


def test_neumann_refuses_nan_data(grid):
    """A NaN in the right side or the edge data makes the flux defect NaN,
    which is refused with the defect named."""
    M = grid.N + 1
    rhs, w = np.zeros((M, M)), np.zeros((4, M))
    rhs[10, 20] = np.nan
    with pytest.raises(ValueError, match=r"incompatible.* = nan"):
        neumann_poisson(rhs, np.zeros((4, M)), grid)
    w[2, 7] = np.nan
    with pytest.raises(ValueError, match=r"incompatible.* = nan"):
        neumann_poisson(np.zeros((M, M)), w, grid)


def test_neumann_refuses_edge_data_of_another_shape(grid):
    """Edge data leads with its (4, N + 1) edge and node axes; any other
    leading shape, a transposed array included, is refused with its shape
    rather than reshaped."""
    M = grid.N + 1
    rhs = np.zeros((M, M, 3))
    for shape in ((M, 4, 3), (4, M - 1, 3), (3, M, 3), (4,)):
        with pytest.raises(ValueError, match=r"edge data has shape %s" % re.escape(repr(shape))):
            neumann_poisson(rhs, np.zeros(shape), grid)
    assert not neumann_poisson(rhs, np.zeros((4, M, 3)), grid)[0].any()


def test_neumann_matches_the_physical_space_solve():
    """The cosine-space assembly against the physical-space solve it
    replaced (coulomb_reference.py), on random batched data: a random rhs
    and random, so fully oscillatory, normal data on all four edges, with
    rhs shifted to match the flux.  Each column agrees within 1e-13 of its
    scale; the worst measured is 2.2e-15, at N = 128."""
    rng = np.random.default_rng(20261021)
    for N in (16, 32, 64, 128):
        g = SquareGrid(N)
        M = N + 1
        rhs, w = rng.normal(size=(M, M, 6)), rng.normal(size=(4, M, 6))
        rhs += sum(g.w1 @ w) - np.tensordot(g.w2, rhs, 2)
        a, compat = neumann_poisson(rhs.reshape(M, M, 2, 3), w.reshape(4, M, 2, 3), g)
        a, ref = a.reshape(M, M, 6), physical_neumann(rhs, w, g)
        assert compat < 1e-14
        assert (np.abs(a - ref).max(axis=(0, 1)) <= 1e-13 * np.abs(ref).max(axis=(0, 1))).all()


def test_neumann_tables_synthesise_the_edge_profiles():
    """Synthesised, the columns my >= 1 of the edge tables G and D are the
    profiles cosh(k x) / (k sinh k) and cosh(k (1 - x)) / (k sinh k), k =
    my pi; column 0 is x^2 / 2 and (1 - x)^2 / 2 less their trapezoid mean,
    as the tables' zero (0, 0) entry takes it out."""
    for N in (16, 64, 128):
        g = SquareGrid(N)
        _, G, D = g.neumann_tables
        x, k = g.x[:, None], np.pi * np.arange(1, N + 1)
        for table, xs in ((G, x), (D, 1 - x)):
            profiles = 2 * N * scipy.fft.dct(table, type=1, axis=0)
            exact = np.cosh(k * xs) / (k * np.sinh(k))
            assert np.abs(profiles[:, 1:] - exact).max() < 1e-15
            quad = xs[:, 0] ** 2 / 2
            assert np.abs(profiles[:, 0] - (quad - g.w1 @ quad)).max() < 1e-15


def _dagger(F):
    return np.conj(np.swapaxes(F, -1, -2))


def test_expm_skew_against_eigh():
    """The rank >= 3 Taylor exponential against the eigh path, `fiber.herm_apply`,
    on random skew-Hermitian fields at ranks 3-8 with a largest node 1-norm nu
    from 0 to 8, so that up to 8 squarings run.  The bounds, 32 eps on the
    deviation and 8 eps on the unitarity defect (which catches a degree one
    too low at nu = 1e-7), grow with the squarings as 2 nu / EXPM_THETA
    does.  The worst measured are a
    deviation of 2.2e-14 and a unitarity defect of 4.9e-14, both at nu = 8;
    at nu <= EXPM_THETA, where the Coulomb sweeps are, 2.0e-15 and 3.3e-16.
    Ranks 1 and 2 keep `herm_apply`'s closed form bit for bit, and a
    non-finite nu is refused."""
    rng = np.random.default_rng(20261020)
    closed_form = lambda chi: fiber.herm_apply(fiber.exp(1j), -1j * chi)
    for r in range(1, 9):
        for nu in (0.0, 1e-9, 1e-7, 3e-3, 0.02, EXPM_THETA, 0.1, 1.0, 3.0, 8.0):
            z = rng.normal(size=(6, 6, r, r)) + 1j * rng.normal(size=(6, 6, r, r))
            chi = z - _dagger(z)
            chi *= nu / np.abs(chi).sum(axis=-2).max()
            u, ref = _expm_skew(chi), closed_form(chi)
            if r <= 2:
                assert [x.hex() for x in u.view(float).ravel()] == \
                    [x.hex() for x in ref.view(float).ravel()]
                continue
            bound = np.finfo(float).eps * max(1.0, 2 * nu / EXPM_THETA)
            assert np.abs(u - ref).max() <= 32 * bound, (r, nu)
            assert np.abs(fiber.mm(u, _dagger(u)) - np.eye(r)).max() <= 8 * bound, (r, nu)
    for bad in (np.inf, np.nan):
        chi[1, 2, 0, 1] = bad
        with pytest.raises(ValueError, match="node 1-norm %s" % bad):
            _expm_skew(chi)


def test_packed_sweep_solve_matches_split_columns(grid):
    """The sweep solves d*A and the normal traces in their r^2 real u(r)
    coordinates; the 2r^2-column solve of every real and imaginary part
    (coulomb_reference.py) is the oracle, at ranks 1-4 (no workload runs
    rank 3)."""
    for r in (1, 2, 3, 4):
        A = random_gauge_field(grid, r, seed=40 + r, curvature_target=0.03)
        dstar, trace = _d_star(A), A.normal_trace()
        assert np.array_equal(_skew_field(_skew_coords(dstar), r), dstar)
        w = _skew_coords(trace)
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
    """A NaN entry makes the curvature's skew defect NaN, which no bound
    passes (its rho norm used to come out NaN): the fix refuses it, naming
    the defect, and solves nothing."""
    def no_solve(*args):
        raise AssertionError("a Neumann solve ran")

    monkeypatch.setattr("fareyflow.coulomb.neumann_poisson", no_solve)
    A = random_gauge_field(SquareGrid(16), 1, 0, 0.03)
    A.ax[5, 5] = np.nan
    with pytest.raises(ValueError, match=r"not skew-Hermitian \(defect nan\)"):
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


def test_benchmark_coulomb_picks_match_the_references(grid):
    """The criterion-12 stream entries that perfbench's coulomb_gauge picks
    for seeds 1-3, fixed at its N = 64 and tol 1e-6: a drift of a sweep
    count or a ratio shows here, not only in a benchmark run."""
    refs = json.loads((Path(__file__).resolve().parent.parent / "perfbench" /
                       "references.json").read_text())["coulomb_gauge"]["stream"]
    for k in (0, 4, 5, 15, 16, 20, 21):
        ref, rank = refs[k], (1, 2, 4)[k % 3]
        assert (ref["k"], ref["rank"]) == (k, rank)
        A = random_gauge_field(grid, rank, seed=7000 + k, curvature_target=0.02 + 0.01 * (k % 3))
        rep = coulomb_fix(A, tol=1e-6)[2]
        assert rep.iterations == ref["sweeps"], k
        assert rep.ratio == pytest.approx(ref["ratio"], rel=1e-9, abs=0), k


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
