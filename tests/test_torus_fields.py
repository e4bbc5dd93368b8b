import math
from types import SimpleNamespace

import numpy as np
import pytest

import field_reference
import roll_reference as ref

from fareyflow.torus_he import (ConnectionField, MetricField, TorusGrid,
                                TwistData, WeylTransform, build_model_bundle,
                                dump_grid_csv, load_grid_csv, theta_section)
from fareyflow.torus_he.twist import d4, endo_seam


def test_twist_commutation():
    for r in range(1, 9):
        eye = np.eye(r)
        for d in range(-8, 9):
            tw = TwistData(r, d)
            for M in (tw.U, tw.V):
                assert np.abs(M @ M.conj().T - eye).max() < 1e-12
                assert np.all(np.count_nonzero(M, axis=0) == 1)
                assert np.all(np.count_nonzero(M, axis=1) == 1)
            phase = np.exp(2j * np.pi * d / r)
            assert np.abs(tw.V @ tw.U - phase * tw.U @ tw.V).max() < 1e-12
            for (axis, up), (perm, ph) in tw.gathers.items():
                M = (tw.U, tw.V)[axis]
                M = M if up else M.conj().T
                assert M[np.arange(r), perm].tobytes() == ph.tobytes()


def test_twist_equality_and_hash():
    assert TwistData(2, 1) == TwistData(2, 1)
    assert hash(TwistData(2, 1)) == hash(TwistData(2, 1))
    assert TwistData(2, 1) != TwistData(2, 3)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(1.0, 64)       # real modulus
    with pytest.raises(ValueError):
        TorusGrid(1j, 15)
    for tau in (complex(1, math.inf), complex(math.nan, 1)):
        with pytest.raises(ValueError, match="modulus .* is not finite"):
            TorusGrid(tau, 16)
    g = TorusGrid(0.3 + 1.1j, 32)
    assert field_reference.weight(g) * g.N ** 2 == pytest.approx(1.0)


def test_poisson_solver_plane_wave():
    g = TorusGrid(0.4 + 0.9j, 64)
    f = np.cos(2 * np.pi * (2 * g.X + 3 * g.Y))
    phi = g.poisson_solve(field_reference.spectral_laplacian(g, f))
    assert np.abs(phi - f).max() < 1e-11
    assert abs(phi.mean()) < 1e-13
    with pytest.raises(ValueError, match="nonzero mean"):
        g.poisson_solve(np.ones((64, 64)))


def _random_twisted(grid, twist, seed, modes=2):
    """Twisted endo field from Bloch scalars with known analytic derivatives."""
    rng = np.random.default_rng(seed)
    wt = WeylTransform(twist, grid)
    r = twist.rank
    sig = np.zeros((grid.N, grid.N, r, r), complex)
    dsig_x, dsig_y = np.zeros_like(sig), np.zeros_like(sig)
    for j in range(r):
        for k in range(r):
            alpha = wt.alpha[0, k]
            beta = wt.beta[j, 0]
            for m in range(-modes, modes + 1):
                for n in range(-modes, modes + 1):
                    c = rng.normal() + 1j * rng.normal()
                    ph = np.exp(2j * np.pi * ((m + alpha) * grid.X + (n + beta) * grid.Y))
                    sig[..., j, k] += c * ph
                    dsig_x[..., j, k] += c * 2j * np.pi * (m + alpha) * ph
                    dsig_y[..., j, k] += c * 2j * np.pi * (n + beta) * ph
    return wt.assemble(sig), (wt.assemble(dsig_x), wt.assemble(dsig_y)), wt


def test_twisted_fd4_derivative_and_spectral_oracle():
    tw = TwistData(3, 2)
    seam = endo_seam(tw)
    errs = {0: [], 1: []}
    for N in (32, 64):
        g = TorusGrid(1j, N)
        F, exact, wt = _random_twisted(g, tw, seed=5)
        for axis in (0, 1):
            errs[axis].append(np.abs(d4(F, axis, g.h, seam) - exact[axis]).max())
            spectral = wt.apply_symbol(F, 2j * np.pi * wt.freqs[axis])
            assert np.abs(spectral - exact[axis]).max() < 1e-9
    for axis in (0, 1):
        order = np.log2(errs[axis][0] / errs[axis][1])
        assert 3.5 < order < 4.5


def test_seam_roundtrip_and_jump():
    tw = TwistData(2, 1)
    g = TorusGrid(1j, 64)
    F, _, _ = _random_twisted(g, tw, seed=1, modes=1)
    assert ref.endo_seam_roundtrip(F, tw) < 1e-13
    assert ref.endo_seam_jump(F, tw) < 1e-4      # O(h^6) interpolation floor for mode-1 data
    # corrupted clutching: the jump probe must blow up to O(1)
    eye = np.eye(2, dtype=complex)
    bad = SimpleNamespace(rank=2, degree=1, U=eye, V=eye)
    assert ref.endo_seam_jump(F, bad) > 1e-2


def test_connection_seam_exactness():
    # the model connection is linear in y; its curvature via twisted FD is exact
    g = TorusGrid(0.3 + 1.2j, 32)
    tw, conn, H0 = build_model_bundle(5, 3, g)
    ilf = conn.i_lambda_F()
    target = 2 * np.pi * 3 / 5
    assert np.abs(ilf - target * np.eye(5)).max() < 1e-11


def test_connection_rejects_matrix_components():
    g = TorusGrid(1j, 16)
    tw, conn, _ = build_model_bundle(2, 1, g)
    assert conn.ax.shape == conn.ay.shape == (16, 16)
    matrix = conn.ax[..., None, None] * np.eye(2)
    with pytest.raises(ValueError, match=r"\(16, 16, 2, 2\), expected \(16, 16\)"):
        ConnectionField(g, tw, matrix, conn.ay)
    with pytest.raises(ValueError, match="connection component has shape"):
        ConnectionField(g, tw, conn.ax, matrix)


def test_metric_validation():
    g = TorusGrid(1j, 32)
    tw = TwistData(2, 1)
    bad = np.zeros((32, 32, 2, 2), complex)
    bad[..., 0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        MetricField(g, tw, bad)
    npd = np.broadcast_to(np.diag([1.0, -1.0]).astype(complex), (32, 32, 2, 2)).copy()
    with pytest.raises(ValueError, match="positive"):
        MetricField(g, tw, npd).sqrt_pair()


def test_metric_refuses_a_nan_entry():
    """A NaN entry makes the Hermiticity defect NaN, which is refused when
    the metric is built, not later by the eigenvalue check of sqrt_pair."""
    g, tw = TorusGrid(1j, 16), TwistData(2, 1)
    data = np.broadcast_to(np.eye(2, dtype=complex), (16, 16, 2, 2)).copy()
    data[4, 7, 1, 1] = np.nan
    with pytest.raises(ValueError, match=r"not Hermitian \(defect nan\)"):
        MetricField(g, tw, data)


def test_poisson_solver_refuses_nan():
    g = TorusGrid(1j, 16)
    rhs = np.zeros((16, 16))
    rhs[2, 3] = np.nan
    with pytest.raises(ValueError, match="nonzero mean nan"):
        g.poisson_solve(rhs)


def test_rho_le_frobenius_random():
    from fareyflow.torus_he.fields import rho_norm_field
    g = TorusGrid(1j, 32)
    tw = TwistData(2, 1)
    rng = np.random.default_rng(3)
    H = MetricField(g, tw, np.broadcast_to(np.eye(2, dtype=complex), (32, 32, 2, 2)).copy()
                    + 0.0)
    s = rng.normal(size=(32, 32, 2, 2)) + 1j * rng.normal(size=(32, 32, 2, 2))
    fro = np.linalg.norm(s, axis=(-2, -1))         # H = Id: the plain Frobenius norm
    assert np.all(rho_norm_field(s, H) <= fro + 1e-10)


def test_csv_roundtrip(tmp_path):
    g = TorusGrid(1j, 16)
    tw, conn, H0 = build_model_bundle(2, 1, g)
    sec = theta_section(tw, g, (0, 0))
    pi_f = np.einsum("xya,xyb->xyab", sec.data, sec.data.conj())
    path = tmp_path / "grid.csv"
    dump_grid_csv(path, pi_f, g, tw)
    header, loaded = load_grid_csv(path)
    assert header == {"N": 16, "tau": 1j, "rank": 2, "degree": 1}
    assert np.abs(loaded - pi_f).max() < 1e-15


def test_csv_load_refuses_a_truncated_dump(tmp_path):
    g = TorusGrid(1j, 16)
    tw, conn, H0 = build_model_bundle(3, 1, g)
    path = tmp_path / "grid.csv"
    dump_grid_csv(path, H0, g, tw)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-100]))
    with pytest.raises(ValueError, match=r"covers 156 of its N \* N = 256 nodes"):
        load_grid_csv(path)
