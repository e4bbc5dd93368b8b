import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import field_reference
import roll_reference as ref
import theta_reference
from fareyflow import fiber
from fareyflow.torus_he import (ConnectionField, EndoField, MetricField,
                                SectionField, TorusGrid, TwistData,
                                build_model_bundle, chern_weil_check,
                                conformal_normalize, curvature_defect,
                                donaldson_functional, he_residual, i_lambda_F_metric, identity_metric,
                                metric_log, random_twisted_hermitian,
                                second_fundamental_form, theta_section,
                                threshold_probe)
from fareyflow.torus_he import fields
from fareyflow.torus_he.fields import mm, rho_norm_field
from fareyflow.torus_he.hermitian import _form_norm_sq
from fareyflow.torus_he.model import _theta_raw
from fareyflow.torus_he.twist import d4


@pytest.fixture(scope="module")
def model21():
    grid = TorusGrid(1j, 64)
    tw, conn, H0 = build_model_bundle(2, 1, grid)
    return grid, tw, conn, H0


# ----------------------------------------------------------------------------
# model bundles


def test_model_residuals_coprime():
    g = TorusGrid(1j, 32)
    for r, d in [(1, 0), (2, 1), (3, 2), (5, 3), (5, -2), (7, 4)]:
        tw, conn, H0 = build_model_bundle(r, d, g)
        assert he_residual(conn, H0, Fraction(d, r)) < 1e-10


def test_model_rejects_common_factor():
    g = TorusGrid(1j, 32)
    with pytest.raises(ValueError, match="gcd"):
        build_model_bundle(4, 2, g)
    with pytest.raises(ValueError, match="gcd"):
        build_model_bundle(2, 0, g)


def test_model_generic_modulus():
    g = TorusGrid(-0.35 + 0.8j, 32)
    tw, conn, H0 = build_model_bundle(3, 1, g)
    assert he_residual(conn, H0, Fraction(1, 3)) < 1e-10


def test_residual_detects_wrong_slope():
    g = TorusGrid(1j, 32)
    tw, conn, H0 = build_model_bundle(2, 1, g)
    delta = Fraction(1, 50)
    assert he_residual(conn, H0, Fraction(1, 2) + delta) >= float(2 * math.pi * delta) - 1e-9


def test_model_residual_is_the_connection_curvature_defect():
    # the model metric is exactly I, so its residual is the operator norm of
    # i Lambda F_A - 2 pi mu Id bit for bit: factoring I adds no rounding
    for g in (TorusGrid(1j, 64), TorusGrid(1j, 32), TorusGrid(0.5 + 1j, 32)):
        for r in range(1, 9):
            for d in range(-8, 9):
                if math.gcd(r, d) != 1:
                    continue
                tw, conn, H0 = build_model_bundle(r, d, g)
                oracle = float(fiber.op_norm(conn.i_lambda_F()
                                             - 2 * np.pi * (d / r) * np.eye(r)).max())
                assert he_residual(conn, H0, Fraction(d, r)) == oracle, (g.tau, g.N, r, d)


def test_random_field_matches_scalar_draw_loop():
    # the batched draw takes the loop's normals in its order and sums the modes
    # in its order, so the field is bitwise the loop's
    for N in (32, 64):
        g = TorusGrid(0.2 + 1.0j, N)
        for r, d in [(1, 0), (2, 1), (3, 2), (5, 2)]:
            tw = TwistData(r, d)
            for seed in (0, 28):
                got = random_twisted_hermitian(g, tw, seed, amplitude=0.5).data
                ref = field_reference.random_twisted_hermitian_loop(g, tw, seed, 0.5).data
                assert got.tobytes() == ref.tobytes(), (N, r, d, seed)


@pytest.mark.parametrize("r", (1, 2, 3))
def test_metric_is_read_only_and_factors_once(r):
    g = TorusGrid(1j, 16)
    tw = build_model_bundle(r, 1, g).twist
    s = random_twisted_hermitian(g, tw, seed=r, amplitude=0.5)
    raw = fiber.herm_apply(fiber.exp(1.0), s.data)
    H = MetricField(g, tw, raw)
    with pytest.raises(ValueError):
        H.data[0, 0] = 0
    raw[0, 0] = raw[0, 0]                     # the caller's array stays writable
    for factor in (H.inv, H.sqrt_pair, H.gamma):
        assert factor() is factor()
    inv = fiber.inv(raw)
    fresh = [*fiber.herm_apply(fiber.SQRT_PAIR, raw), inv,
             mm(inv, EndoField(g, tw, raw).d_z())]
    for cached, ref in zip([*H.sqrt_pair(), H.inv(), H.gamma()], fresh):
        assert not cached.flags.writeable
        assert np.array_equal(cached, ref)


def test_identity_metric_carries_exact_factors():
    # I, its factors and gamma = 0 are read-only broadcasts of one r x r
    # block: building them allocates O(r^2), not a (128, 128, 8, 8) field
    # (about 50 MB once copied and scanned for Hermiticity)
    g, tw = TorusGrid(1j, 128), TwistData(8, 3)
    tracemalloc.start()
    try:
        H = identity_metric(g, tw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    half, inv_half = H.sqrt_pair()
    for exact in (H.data, H.inv(), half, inv_half, H.gamma()):
        assert exact.shape == (128, 128, 8, 8) and not exact.flags.writeable
    for exact in (H.data, H.inv(), half, inv_half):
        assert (exact == np.eye(8)).all()
    assert not H.gamma().any()
    assert H.is_identity
    assert not MetricField(g, H.twist, H.data.copy()).is_identity
    with pytest.raises(AttributeError):
        H.is_identity = False


def test_hermiticity_check_reads_every_distinct_value():
    g, tw = TorusGrid(1j, 16), TwistData(3, 1)
    shape = (16, 16, 3, 3)
    # a broadcast block is checked once, and still refused with its defect
    block = np.eye(3, dtype=complex)
    block[0, 1] = 1.0
    with pytest.raises(ValueError, match=r"not Hermitian \(defect 1\.00e\+00\)"):
        MetricField(g, tw, np.broadcast_to(block, shape))
    # any other field is scanned at every node: one bad node is found
    data = np.broadcast_to(np.eye(3, dtype=complex), shape).copy()
    data[11, 5, 2, 0] = 0.5
    with pytest.raises(ValueError, match=r"not Hermitian \(defect 5\.00e-01\)"):
        MetricField(g, tw, data)


# one coprime (r, d) per rank; the inclusion is the full rank-1 bundle, one
# theta section, or the d-section basis when 2 <= d < r.  The identity path
# matches the general path bit for bit because each skipped product is by an
# exact I and its other operand is handed on C-ordered, as the product would
# be: the trace sums and the matmul kernels depend on memory order.
ORACLE_PAIRS = [(1, 3), (2, 1), (3, 2), (4, 3), (5, 2), (6, 5), (7, 3), (8, 3)]


def _general(H0):
    """A metric with the data of the identity metric H0 that is not flagged
    `is_identity`, so every helper takes the general path on it.  It computes
    its own inverse and square-root pair (both come out exactly I) but takes
    H0's gamma = 0: the d_z stencil of I carries I across the seams as U U^dag
    and V V^dag, which are I only to rounding where the clock phases are
    inexact (ranks 3, 5-8), so a fresh gamma is O(1e-15) there, not 0."""
    H = MetricField(H0.grid, H0.twist, H0.data.copy())
    H._gamma = H0.gamma()
    return H


def _inclusion(g, tw):
    r, d = tw.rank, tw.degree
    if r == 1:
        return SectionField(g, tw, np.ones((g.N, g.N, 1, 1), complex))
    return (field_reference.section_basis(tw, g) if 2 <= d < r
            else theta_section(tw, g, (0, 0)))


@pytest.mark.parametrize("r, d", ORACLE_PAIRS)
def test_model_residual_reads_no_metric_factor(r, d, monkeypatch):
    # the identity metric's residual is read from the scalar curvature: it
    # forms no (N, N, r, r) curvature field, operator-norm eigensolve, stencil
    # of gamma = 0 or square-root pair, and equals both the operator-norm
    # oracle and the general path bit for bit; d4 still differentiates the
    # connection's (N, N) scalar components
    g = TorusGrid(1j, 32)
    tw, conn, H0 = build_model_bundle(r, d, g)
    mu = Fraction(d, r)
    oracle = float(fiber.op_norm(conn.i_lambda_F()
                                 - 2 * np.pi * float(mu) * np.eye(r)).max())
    general = he_residual(conn, _general(H0), mu)

    def refuse(*args):
        raise AssertionError("formed a matrix field for the identity metric")

    def scalar_d4(F, *args):
        if F.ndim != 2:
            refuse()
        return d4(F, *args)

    monkeypatch.setattr(ConnectionField, "i_lambda_F", refuse)
    monkeypatch.setattr(fiber, "op_norm", refuse)
    monkeypatch.setattr(fields, "d4", scalar_d4)
    monkeypatch.setattr(MetricField, "sqrt_pair", refuse)
    assert he_residual(conn, H0, mu).hex() == oracle.hex() == general.hex()


@pytest.mark.parametrize("r, d", ORACLE_PAIRS)
def test_identity_path_matches_general_path_bitwise(r, d):
    g = TorusGrid(1j, 32)
    tw, conn, H0 = build_model_bundle(r, d, g)
    H = _general(H0)
    assert H0.is_identity and not H.is_identity
    mu = Fraction(d, r)
    assert np.array_equal(i_lambda_F_metric(H0, conn), i_lambda_F_metric(H, conn))
    assert he_residual(conn, H0, mu).hex() == he_residual(conn, H, mu).hex()
    s = random_twisted_hermitian(g, tw, seed=r, amplitude=0.5)
    assert np.array_equal(rho_norm_field(s.data, H0), rho_norm_field(s.data, H))
    assert (donaldson_functional(H0, s, curvature_defect(H0, conn, mu)).hex()
            == donaldson_functional(H, s, curvature_defect(H, conn, mu)).hex())
    K = MetricField(g, tw, fiber.herm_apply(fiber.exp(1.0), s.data))
    assert np.array_equal(metric_log(K, H0).data, metric_log(K, H).data)
    incl = _inclusion(g, tw)
    fast, slow = (second_fundamental_form(incl, K, conn) for K in (H0, H))
    assert np.array_equal(fast.norm_sq, slow.norm_sq)
    assert fast.holomorphy_residual.hex() == slow.holomorphy_residual.hex()


def test_theta_line_chern_weil_identity_path_bitwise(model21):
    g, tw, conn, H0 = model21
    H = _general(H0)
    sec = theta_section(tw, g, (0, 0))
    fast, slow = (second_fundamental_form(sec, K, conn) for K in (H0, H))
    # and with |beta|^2 formed once more from each beta in its own metric
    again = [dataclasses.replace(b, norm_sq=_form_norm_sq(b.beta, K))
             for b, K in ((fast, H0), (slow, H))]
    for beta in ((fast, slow), again):
        cw = [chern_weil_check(b, K, Fraction(1, 2), 0, 1) for b, K in zip(beta, (H0, H))]
        assert [x.hex() for x in cw[0]] == [x.hex() for x in cw[1]]


def test_theta_line_form_transient_memory():
    # in units of one (128, 128, 2, 2) complex field: beta, pi and |beta|^2
    # stay (2.1), and at no time does the form hold more than 6 (it peaks at
    # 5.5): the stencils accumulate in place and pad only the edge rows, the
    # projection's factors go before any derivative, and d_zbar pi is reduced
    # to its residual before beta is formed
    g = TorusGrid(1j, 128)
    tw, conn, H0 = build_model_bundle(2, 1, g)
    sec = theta_section(tw, g, (0, 0))
    tracemalloc.start()
    try:
        sff = second_fundamental_form(sec, H0, conn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = sff.beta.nbytes
    assert field == 128 * 128 * 4 * 16
    assert peak <= 6 * field, peak / field


def test_residual_of_conformal_weight_vs_spectral_laplacian():
    # rank 1, d = 0, H = e^psi: residual must equal sup |Lap psi| / 2
    g = TorusGrid(1j, 64)
    tw, conn, H0 = build_model_bundle(1, 0, g)
    psi = np.sin(2 * np.pi * g.X)
    H = MetricField(g, tw, np.exp(psi)[..., None, None] * H0.data)
    res = he_residual(conn, H, 0)
    oracle = np.abs(field_reference.spectral_laplacian(g, psi)).max() / 2
    assert res == pytest.approx(oracle, rel=1e-5)
    assert oracle == pytest.approx(2 * np.pi ** 2, rel=1e-12)


# ----------------------------------------------------------------------------
# theta sections


def test_theta_r1_d1_matches_jtheta():
    # component 0 in the holomorphic frame is sum exp(i pi tau t^2 + 2 pi i t z)
    # = jtheta(3, pi z, exp(i pi tau)) in mpmath's convention
    g = TorusGrid(1j, 16)
    tw, conn, H0 = build_model_bundle(1, 1, g)
    sec = theta_section(tw, g, (0, 0))
    q = complex(mpmath.exp(1j * mpmath.pi * g.tau))
    for ix, iy in [(0, 0), (3, 7), (10, 2), (15, 15)]:
        z = g.X[ix, iy] + g.tau * g.Y[ix, iy]
        ref = complex(mpmath.jtheta(3, mpmath.pi * z, q))
        mine = sec.data[ix, iy, 0] * np.exp(np.pi * g.v * g.Y[ix, iy] ** 2)
        assert abs(mine - ref) < 1e-12 * max(1.0, abs(ref))


def test_theta_automorphy_residuals():
    g = TorusGrid(0.2 + 1.0j, 32)
    for r, d in [(1, 1), (2, 1), (3, 1), (3, 2), (1, 3)]:
        tw, conn, H0 = build_model_bundle(r, d, g)
        sec = theta_section(tw, g, (0, 0))
        assert sec.automorphy_residual < 1e-12


@pytest.mark.parametrize("tau", (1j, 0.3 + 1.1j, -0.45 + 0.8j))
@pytest.mark.parametrize("r, d", ((1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (5, 3), (4, 7)))
@pytest.mark.parametrize("N", (16, 64))
def test_theta_sum_matches_term_by_term_reference(tau, r, d, N):
    """The separable mode sum against the full-grid one, at the grid and at
    the z + 1 and z + tau re-evaluations the clutching check makes."""
    g = TorusGrid(tau, N)
    tw = build_model_bundle(r, d, g).twist
    chars = [(0, 0)] if d == 1 else [(0, 0), (d - 1, Fraction(r, d))]
    for a, b in chars:
        sec = theta_section(tw, g, (a, b))
        want = theta_reference.theta_raw(tw, g, a % d, float(b), g.X, g.Y)
        assert np.abs(sec.data - want).max() <= 1e-13 * np.abs(want).max()
        for X, Y in ((g.X + 1, g.Y), (g.X, g.Y + 1)):
            want = theta_reference.theta_raw(tw, g, a % d, float(b), X, Y)
            got = _theta_raw(tw, g, a % d, float(b), X[:, 0], Y[0])
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_theta_section_errors():
    g = TorusGrid(1j, 32)
    tw, conn, H0 = build_model_bundle(2, 1, g)
    with pytest.raises(ValueError, match="integer"):
        theta_section(tw, g, (Fraction(1, 2), 0))
    with pytest.raises(ValueError, match="multiple"):
        theta_section(tw, g, (0, Fraction(1, 2)))
    tw0, conn0, _ = build_model_bundle(1, 0, g)
    with pytest.raises(ValueError, match="degree"):
        theta_section(tw0, g, (0, 0))


def test_theta_r2_d1_nowhere_vanishing(model21):
    g, tw, conn, H0 = model21
    sec = theta_section(tw, g, (0, 0))
    assert sec.min_singular_value() > 0.5
    # zero set is empty on every grid line
    norms = np.linalg.norm(sec.data, axis=-1)
    assert norms.min(axis=0).min() > 0.5 and norms.min(axis=1).min() > 0.5


def test_theta_r1_d3_three_sections():
    g = TorusGrid(1j, 32)
    tw, conn, H0 = build_model_bundle(1, 3, g)
    basis = field_reference.section_basis(tw, g)
    gram = field_reference.gram(basis)
    assert gram.shape == (3, 3)
    w = np.linalg.eigvalsh(gram)
    assert w.min() > 1e-3 * w.max()       # rank 3


def test_theta_r3_d2_two_sections():
    g = TorusGrid(1j, 32)
    tw, conn, H0 = build_model_bundle(3, 2, g)
    gram = field_reference.gram(field_reference.section_basis(tw, g))
    assert gram.shape == (2, 2)
    w = np.linalg.eigvalsh(gram)
    assert w.min() > 1e-3 * w.max()       # the section space has dimension d


def test_theta_twisted_cauchy_riemann(model21):
    g, tw, conn, H0 = model21
    sec = theta_section(tw, g, (0, 0))
    dx, dy = (ref.d4(lambda s, a=axis: ref.shift_section(sec.data, tw, g, a, s), g.h)
              for axis in (0, 1))
    dzb = g.czb[0] * dx + g.czb[1] * dy
    cr = dzb + field_reference.a_zbar(conn)[..., None] * sec.data
    assert np.abs(cr).max() < 5e-6        # 4th-order differences at N = 64


# ----------------------------------------------------------------------------
# second fundamental forms


def test_sff_full_inclusion_vanishes(model21):
    g, tw, conn, H0 = model21
    cols = np.broadcast_to(np.eye(2, dtype=complex), (g.N, g.N, 2, 2)).copy()
    sff = second_fundamental_form(SectionField(g, tw, cols), H0, conn)
    assert np.abs(sff.projection.data - np.eye(2)).max() < 1e-12
    assert np.abs(sff.norm_sq).max() < 1e-20


def test_sff_parallel_summand_vanishes():
    # constant orthogonal summand of the flat degree-0 rank-2 bundle: the
    # clock fixes e0 and the shift^0 is I, so e0 is a global parallel section
    g = TorusGrid(1j, 32)
    tw = TwistData(2, 0)
    H0 = identity_metric(g, tw)
    zero = np.zeros((g.N, g.N), complex)
    conn = ConnectionField(g, tw, zero, zero)
    col = np.zeros((g.N, g.N, 2), complex)
    col[..., 0] = 1
    sff = second_fundamental_form(SectionField(g, tw, col), H0, conn)
    assert np.abs(sff.norm_sq).max() < 1e-24


def test_sff_near_singular_inclusion_names_node():
    g = TorusGrid(1j, 32)
    tw, conn, H0 = build_model_bundle(2, 1, g)
    sec = theta_section(tw, g, (0, 0))
    bad = sec.data.copy()
    bad[3, 5] *= 1e-12
    with pytest.raises(ValueError, match=r"\(3, 5\)"):
        second_fundamental_form(SectionField(g, tw, bad), H0, conn)


def test_sff_refuses_a_nan_section_value():
    g = TorusGrid(1j, 32)
    tw, conn, H0 = build_model_bundle(2, 1, g)
    bad = theta_section(tw, g, (0, 0)).data.copy()
    bad[3, 5, 1] = np.nan
    with pytest.raises(ValueError, match=r"\(3, 5\) \(sigma_min = nan\)"):
        second_fundamental_form(SectionField(g, tw, bad), H0, conn)


@pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0, np.inf)],
                         ids=["inf", "-inf", "1j*inf"])
def test_sff_refuses_an_infinite_section_value(value):
    # one column: its norm would read inf and pass SV_FLOOR; it reads nan,
    # without a RuntimeWarning, and the refusal names the node
    g = TorusGrid(1j, 16)
    tw, conn, H0 = build_model_bundle(2, 1, g)
    bad = theta_section(tw, g, (0, 0)).data.copy()
    bad[3, 5, 1] = value
    with np.errstate(all="raise"), \
            pytest.raises(ValueError, match=r"\(3, 5\) \(sigma_min = nan\)"):
        second_fundamental_form(SectionField(g, tw, bad), H0, conn)


def test_sff_refuses_a_nan_in_a_block_of_columns():
    # a block of m >= 2 columns goes through the SVD, which does not converge
    # on a NaN: the refusal names the node as the one-column case does
    g = TorusGrid(1j, 16)
    tw, conn, H0 = build_model_bundle(3, 2, g)
    bad = field_reference.section_basis(tw, g).data.copy()
    bad[3, 5, 1, 0] = np.nan
    with pytest.raises(ValueError, match=r"\(3, 5\) \(sigma_min = nan\)"):
        second_fundamental_form(SectionField(g, tw, bad), H0, conn)


def test_sigma_min_matches_svd():
    """One column takes its vector norm, a block of m >= 2 columns the SVD."""
    g = TorusGrid(0.3 + 1.1j, 16)
    for r, d in ((2, 1), (1, 3), (2, 3)):
        tw = build_model_bundle(r, d, g).twist
        for sec in (theta_section(tw, g, (0, 0)), field_reference.section_basis(tw, g)):
            want = np.linalg.svd(sec.columns, compute_uv=False)[..., -1]
            got = sec.sigma_min_field()
            assert np.abs(got - want).max() <= 1e-14 * want.max()
            assert sec.min_singular_value() == pytest.approx(want.min(), rel=1e-14)


def test_chern_weil_line_subbundle(model21):
    g, tw, conn, H0 = model21
    sec = theta_section(tw, g, (0, 0))
    sff = second_fundamental_form(sec, H0, conn)
    lhs, rhs, rel = chern_weil_check(sff, H0, Fraction(1, 2), 0, 1)
    assert rhs == pytest.approx(math.pi, abs=1e-14)
    assert rel < 1e-4
    assert sff.holomorphy_residual < 1e-4



def test_benchmark_theta_line_matches_the_references():
    """The theta-line Chern-Weil integral at the N = 128 and 256 grids of
    perfbench's torus_geometry, against its `lhs` references."""
    refs = json.loads((Path(__file__).resolve().parent.parent / "perfbench" /
                       "references.json").read_text())["torus_geometry"]["lhs"]
    for N, want in zip((128, 256), refs, strict=True):
        g = TorusGrid(1j, N)
        tw, conn, H0 = build_model_bundle(2, 1, g)
        sff = second_fundamental_form(theta_section(tw, g, (0, 0)), H0, conn)
        lhs, _, _ = chern_weil_check(sff, H0, Fraction(1, 2), 0, 1)
        assert lhs == pytest.approx(want, rel=1e-9, abs=0), N


def test_chern_weil_zero_beta(model21):
    g, tw, conn, H0 = model21
    beta = _theta_sff_with_norm(model21, np.zeros((g.N, g.N)))
    lhs, rhs, rel = chern_weil_check(beta, H0, Fraction(1, 2), Fraction(1, 2), 1)
    assert (lhs, rhs, rel) == (0.0, 0.0, 0.0)


def test_chern_weil_refines_at_fourth_order():
    errs = []
    for N in (32, 64):
        g = TorusGrid(1j, N)
        tw, conn, H0 = build_model_bundle(2, 1, g)
        sff = second_fundamental_form(theta_section(tw, g, (0, 0)), H0, conn)
        errs.append(chern_weil_check(sff, H0, Fraction(1, 2), 0, 1)[2])
    order = math.log2(errs[0] / errs[1])
    assert 3.2 <= order <= 4.8


# ----------------------------------------------------------------------------
# threshold probe


def _theta_sff_with_norm(model21, norm_sq):
    """The theta line's second fundamental form with |beta|^2 replaced."""
    g, tw, conn, H0 = model21
    sff = second_fundamental_form(theta_section(tw, g, (0, 0)), H0, conn)
    return dataclasses.replace(sff, norm_sq=norm_sq)


def test_threshold_constant_field_is_one(model21):
    g = model21[0]
    probe = threshold_probe(_theta_sff_with_norm(model21, np.ones((g.N, g.N))))
    assert probe.ratio == 1.0


def test_threshold_zero_beta_flagged(model21):
    g = model21[0]
    with pytest.raises(ValueError, match="vanishes"):
        threshold_probe(_theta_sff_with_norm(model21, np.zeros((g.N, g.N))))


def test_threshold_refuses_a_nan_norm(model21):
    g = model21[0]
    norm_sq = np.ones((g.N, g.N))
    norm_sq[7, 2] = np.nan
    with pytest.raises(ValueError, match=r"mean \|beta\|\^2 is nan"):
        threshold_probe(_theta_sff_with_norm(model21, norm_sq))


def test_threshold_theta_subbundle_ratio(model21, theta_line_density):
    # the pointwise |beta|^2 of the theta line subbundle is a Fubini-Study
    # density with one zero, not a constant: the ratio matches the closed
    # form (conftest.py) and is stable in N
    g, tw, conn, H0 = model21
    sff = second_fundamental_form(theta_section(tw, g, (0, 0)), H0, conn)
    probe = threshold_probe(sff)
    exact = theta_line_density(g.tau, g.N)
    assert probe.ratio == pytest.approx(exact.max() / exact.mean(), abs=1e-4)
    assert probe.ratio > 1
    g2 = TorusGrid(1j, 96)
    tw2, conn2, H02 = build_model_bundle(2, 1, g2)
    sff2 = second_fundamental_form(theta_section(tw2, g2, (0, 0)), H02, conn2)
    assert threshold_probe(sff2).ratio == pytest.approx(probe.ratio, abs=1e-4)


def test_threshold_perturbed_metric_above_one(model21):
    g, tw, conn, H0 = model21
    bump = 1.0 + 0.2 * np.cos(2 * np.pi * g.X)
    H = MetricField(g, tw, bump[..., None, None] * H0.data)
    sff = second_fundamental_form(theta_section(tw, g, (0, 0)), H, conn)
    assert threshold_probe(sff).ratio > 1.0


# ----------------------------------------------------------------------------
# conformal normalization


def test_conformal_flat_input_is_noop(model21):
    g, tw, conn, H0 = model21
    res = conformal_normalize(H0, H0, Fraction(1, 2), conn)
    assert np.abs(res.phi).max() < 1e-10
    assert res.det_deviation < 1e-10


def test_conformal_manufactured_cosine():
    g = TorusGrid(1j, 64)
    tw, conn, H0 = build_model_bundle(1, 0, g)
    psi = np.cos(2 * np.pi * g.X) / (4 * np.pi ** 2)
    H = MetricField(g, tw, np.exp(-psi)[..., None, None] * H0.data)
    res = conformal_normalize(H, H0, 0, conn)
    assert np.abs(res.phi - psi).max() < 1e-6
    assert res.det_deviation < 1e-6
    assert res.mean_phi < 1e-12


def test_conformal_rejects_nonzero_mean():
    g = TorusGrid(1j, 32)
    tw, conn, H0 = build_model_bundle(1, 0, g)
    # a metric whose curvature integral does not match the claimed slope
    H = MetricField(g, tw, np.exp(0.1 * np.cos(2 * np.pi * g.X))[..., None, None] * H0.data)
    with pytest.raises(ValueError, match="mean"):
        conformal_normalize(H, H0, Fraction(1, 5), conn)


def test_conformal_refuses_nan_curvature():
    g = TorusGrid(1j, 32)
    tw, conn, H0 = build_model_bundle(1, 0, g)
    ax = conn.ax.copy()
    ax[4, 4] = np.nan
    with pytest.raises(ValueError, match="right side has mean nan"):
        conformal_normalize(H0, H0, 0, ConnectionField(g, tw, ax, conn.ay))


def test_conformal_matches_logdet_route(model21):
    # independent identity: the zero-mean solution equals
    # -(1/rk)(log det h - mean log det h) for the restricted metric
    g, tw, conn, H0 = model21
    sec = theta_section(tw, g, (0, 0))
    h_s = np.einsum("xya,xya->xy", sec.data.conj(), sec.data).real
    tw1 = TwistData(1, 0)
    Hs = MetricField(g, tw1, h_s[..., None, None].astype(complex))
    H0s = identity_metric(g, tw1)
    zero = np.zeros((g.N, g.N), complex)
    res = conformal_normalize(Hs, H0s, 0,
                              ConnectionField(g, tw1, zero, zero))
    oracle = -(np.log(h_s) - np.log(h_s).mean())
    assert np.abs(res.phi - oracle).max() < 2e-5
    scaled_det = np.exp(res.phi) * h_s
    assert scaled_det.std() / scaled_det.mean() < 2e-5     # constant determinant
