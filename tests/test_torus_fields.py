import numpy as np
import pytest

import field_reference

from fareyflow.torus_he import (ConnectionField, EndoField, MetricField,
                                TorusGrid, TwistData, WeylTransform,
                                build_model_bundle, dump_grid_csv, field_norms,
                                identity_metric, load_grid_csv,
                                normalize_det_at_point, theta_section)
from fareyflow.torus_he.twist import clock_matrix, d4, endo_seam, shift_matrix


def test_twist_commutation():
    for r, d in [(1, 0), (2, 1), (3, 2), (5, 3), (8, -3)]:
        tw = TwistData.clock_shift(r, d)
        assert tw.check() < 1e-12
        phase = np.exp(2j * np.pi * d / r)
        assert np.abs(tw.V @ tw.U - phase * tw.U @ tw.V).max() < 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(1.0, 64)       # real modulus
    with pytest.raises(ValueError):
        TorusGrid(1j, 15)
    g = TorusGrid(0.3 + 1.1j, 32)
    assert g.weight * g.N ** 2 == pytest.approx(1.0)


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
    tw = TwistData.clock_shift(3, 2)
    seam = endo_seam(tw)
    errs = {0: [], 1: []}
    for N in (32, 64):
        g = TorusGrid(1j, N)
        F, exact, wt = _random_twisted(g, tw, seed=5)
        for axis in (0, 1):
            errs[axis].append(np.abs(d4(F, axis, g.h, seam) - exact[axis]).max())
            assert np.abs(wt.derivative(F, axis) - exact[axis]).max() < 1e-9
    for axis in (0, 1):
        order = np.log2(errs[axis][0] / errs[axis][1])
        assert 3.5 < order < 4.5
    # clutching that is not monomial is rejected with its measured off-pattern mass
    cs, sn = np.cos(0.3), np.sin(0.3)
    rot = np.array([[cs, -sn, 0], [sn, cs, 0], [0, 0, 1]], complex)
    bad = TwistData(3, 0, rot, np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match=r"off-pattern mass %.3e" % (2 * sn)):
        d4(F, 0, g.h, endo_seam(bad))


def test_seam_roundtrip_and_jump():
    tw = TwistData.clock_shift(2, 1)
    g = TorusGrid(1j, 64)
    F, _, _ = _random_twisted(g, tw, seed=1, modes=1)
    field = EndoField(g, tw, F)
    assert field.seam_roundtrip() < 1e-13
    assert field.seam_jump() < 1e-4      # O(h^6) interpolation floor for mode-1 data
    # corrupted clutching: the jump probe must blow up to O(1)
    bad = TwistData(2, 1, np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    assert EndoField(g, bad, F).seam_jump() > 1e-2


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
    tw = TwistData.clock_shift(2, 1)
    bad = np.zeros((32, 32, 2, 2), complex)
    bad[..., 0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        MetricField(g, tw, bad)
    npd = np.broadcast_to(np.diag([1.0, -1.0]).astype(complex), (32, 32, 2, 2)).copy()
    with pytest.raises(ValueError, match="positive"):
        MetricField(g, tw, npd).require_positive()


def test_field_norms_identity_and_up():
    g = TorusGrid(1j, 32)
    tw = TwistData.clock_shift(3, 1)
    H = identity_metric(g, tw)
    s = EndoField(g, tw, np.broadcast_to(np.eye(3, dtype=complex), (32, 32, 3, 3)).copy())
    norms = field_norms(s, H)
    assert norms.rho[2] == pytest.approx(1.0, abs=1e-12)
    assert norms.frobenius[2] == pytest.approx(np.sqrt(3), abs=1e-12)
    assert norms.rho[np.inf] <= norms.frobenius[np.inf] + 1e-12


def test_up_monotone_to_log_lambda_max():
    # h = diag(e, 1/e): u_p = (1/p) log(e^p + e^-p) decreases to 1
    g = TorusGrid(1j, 32)
    tw = TwistData.clock_shift(2, 1)
    H = identity_metric(g, tw)
    s = EndoField(g, tw, np.broadcast_to(np.diag([1.0, -1.0]).astype(complex),
                                         (32, 32, 2, 2)).copy())
    norms = field_norms(s, H, u_powers=(1, 2, 4, 8, 32))
    for p in (1, 2, 4, 8, 32):
        expected = np.log(np.exp(p) + np.exp(-p)) / p
        assert norms.u_p[p][0, 0] == pytest.approx(expected, abs=1e-12)
    assert norms.u_p_monotone
    assert norms.u_p[32][0, 0] == pytest.approx(1.0, abs=1e-10)
    vals = [norms.u_p[p][0, 0] for p in (1, 2, 4, 8, 32)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_rho_le_frobenius_random():
    from fareyflow.torus_he.fields import frobenius_norm_field, rho_norm_field
    g = TorusGrid(1j, 32)
    tw = TwistData.clock_shift(2, 1)
    rng = np.random.default_rng(3)
    H = MetricField(g, tw, np.broadcast_to(np.eye(2, dtype=complex), (32, 32, 2, 2)).copy()
                    + 0.0)
    s = rng.normal(size=(32, 32, 2, 2)) + 1j * rng.normal(size=(32, 32, 2, 2))
    assert np.all(rho_norm_field(s, H) <= frobenius_norm_field(s, H) + 1e-10)


def test_normalize_det_at_point():
    g = TorusGrid(1j, 32)
    tw = TwistData.clock_shift(1, 0)
    H0 = identity_metric(g, tw)
    H = MetricField(g, tw, 2.0 * H0.data)
    scaled = normalize_det_at_point(H, H0, (0, 0))
    assert np.abs(scaled.data - H0.data).max() < 1e-12

    tw3 = TwistData.clock_shift(3, 1)
    H0 = identity_metric(g, tw3)
    lam = 2.7
    H = MetricField(g, tw3, lam * H0.data)
    scaled = normalize_det_at_point(H, H0, (5, 7))
    assert np.abs(scaled.data - H0.data).max() < 1e-12

    rng = np.random.default_rng(0)
    B = rng.normal(size=(32, 32, 3, 3)) + 1j * rng.normal(size=(32, 32, 3, 3))
    Hr = MetricField(g, tw3, np.einsum("...ab,...cb->...ac", B, B.conj())
                     + 0.5 * np.eye(3))
    scaled = normalize_det_at_point(Hr, H0, (4, 4))
    det = np.linalg.det(scaled.data[4, 4] @ np.linalg.inv(H0.data[4, 4]))
    assert abs(det - 1) < 1e-12


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
