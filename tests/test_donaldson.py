import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import roll_reference as ref
from fareyflow import fiber
from fareyflow.torus_he import (EndoField, FlowResult, MetricField, TorusGrid,
                                build_model_bundle, curvature_defect,
                                donaldson_flow, donaldson_functional, he_residual,
                                i_lambda_F_metric, metric_log,
                                phi_multiplier, random_twisted_hermitian)
from fareyflow.torus_he.donaldson import _pairing


def expm_h(s):
    lam, P = np.linalg.eigh(s)
    return np.einsum("...ab,...b,...cb->...ac", P, np.exp(lam), P.conj())


@pytest.fixture(scope="module")
def setup():
    grid = TorusGrid(1j, 32)
    tw, conn, H0 = build_model_bundle(2, 1, grid)
    return grid, tw, conn, H0


def test_phi_multiplier_limits():
    lam = np.array([[0.0, 0.0], [1.0, -1.0], [1e-9, 0.0]])
    out = phi_multiplier(lam)
    assert out[0, 0, 1] == pytest.approx(0.5, abs=1e-12)
    x = 2.0
    assert out[1, 0, 1] == pytest.approx((math.exp(x) - x - 1) / x ** 2, rel=1e-12)
    # series patch is continuous across the switch
    assert out[2, 0, 1] == pytest.approx(0.5 + 1e-9 / 6, abs=1e-12)


def _eigh_pairing(s_hat, D):
    """The pairing through the eigenbasis, sum_ij phi(l_i - l_j) |B_ij|^2."""
    lam, P = np.linalg.eigh(s_hat)
    B = fiber.mm(fiber.dagger(P), fiber.mm(D, P))
    return np.einsum("...ij,...ij->...", phi_multiplier(lam), np.abs(B) ** 2)


def _mp_pairing(s_hat, D):
    """The rank-2 pairing of one node at 40 digits (mpmath eigensolver)."""
    with mpmath.workdps(40):
        S = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in s_hat])
        lam, P = mpmath.eighe((S + S.H) / 2)
        B = P.H * mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in D]) * P
        total = mpmath.mpf(0)
        for i in range(2):
            for j in range(2):
                x = lam[i] - lam[j]
                if abs(x) < 1e-8:   # the quotient would cancel all 40 digits
                    phi = mpmath.polyval([mpmath.mpf(1) / math.factorial(k + 2)
                                          for k in range(5, -1, -1)], x)
                else:
                    phi = (mpmath.expm1(x) - x) / x ** 2
                total += phi * abs(B[i, j]) ** 2
        return float(total)


def _node(rng, r, lam):
    """Hermitian U diag(lam) U^dag and a complex Gaussian D, rank r."""
    z = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    U = np.linalg.qr(z)[0]
    S = U @ np.diag(lam) @ U.conj().T
    D = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    return 0.5 * (S + S.conj().T), D


# half-gaps g: degenerate, tiny, across the phi series switch at 2g = 0.1, and
# gaps 2g up to 20
HALF_GAPS = st.one_of(st.just(0.0), st.floats(-9.0, -3.0).map(lambda e: 10.0 ** e),
                      st.floats(0.04, 0.06), st.floats(0.06, 10.0))


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.floats(-3.0, 3.0), g=HALF_GAPS)
@example(seed=1, m=0.5, g=0.0)
@example(seed=2, m=-1.0, g=0.05)
@example(seed=3, m=0.0, g=10.0)
def test_rank2_pairing_matches_mpmath(seed, m, g):
    rng = np.random.default_rng(seed)
    nodes = [_node(rng, 2, [m - g, m + g]) for _ in range(3)]
    if g == 0.0:
        # exactly scalar s_hat: the spectral projectors are undefined
        nodes[0] = (m * np.eye(2, dtype=complex), nodes[0][1])
    S = np.array([n[0] for n in nodes])
    D = np.array([n[1] for n in nodes])
    with np.errstate(invalid="raise", divide="raise"):
        got = _pairing(S, D)
    want = np.array([_mp_pairing(*n) for n in nodes])
    assert np.all(np.abs(got - want) <= 1e-14 * want)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from([1, 3, 4]))
def test_pairing_other_ranks_match_eigh(seed, r):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-5.0, 5.0, size=r)
    lam[0] = lam[-1] + rng.choice([0.0, 1e-8, 0.05])   # a (near-)degenerate pair
    nodes = [_node(rng, r, lam) for _ in range(4)]
    S = np.array([n[0] for n in nodes])
    D = np.array([n[1] for n in nodes])
    np.testing.assert_array_equal(_pairing(S, D), _eigh_pairing(S, D))


def test_functional_zero_and_scalars(setup):
    grid, tw, conn, H0 = setup
    mu = Fraction(1, 2)
    defect = curvature_defect(H0, conn, mu)
    zero = EndoField(grid, tw, np.zeros_like(H0.data))
    assert donaldson_functional(H0, zero, defect) == 0.0
    for c in (-1.0, 0.5, 2.0):
        sc = EndoField(grid, tw, c * np.broadcast_to(np.eye(2, dtype=complex),
                                                     H0.data.shape).copy())
        assert abs(donaldson_functional(H0, sc, defect)) < 1e-8


def test_functional_rejects_non_selfadjoint(setup):
    grid, tw, conn, H0 = setup
    s = np.zeros_like(H0.data)
    s[..., 0, 1] = 1.0
    with pytest.raises(ValueError, match="self-adjoint"):
        donaldson_functional(H0, EndoField(grid, tw, s),
                             curvature_defect(H0, conn, Fraction(1, 2)))


def test_functional_refuses_a_nan_entry(setup):
    grid, tw, conn, H0 = setup
    s = np.zeros_like(H0.data)
    s[5, 9, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"self-adjoint .*\(defect nan\)"):
        donaldson_functional(H0, EndoField(grid, tw, s),
                             curvature_defect(H0, conn, Fraction(1, 2)))


def test_cocycle_identity(setup):
    grid, tw, conn, H0 = setup
    mu = Fraction(1, 2)
    sA = random_twisted_hermitian(grid, tw, 1, amplitude=0.08)
    sB = random_twisted_hermitian(grid, tw, 2, amplitude=0.08)
    HA = MetricField(grid, tw, expm_h(sA.data))
    HB = MetricField(grid, tw, expm_h(sB.data))
    defect0, defectA = (curvature_defect(K, conn, mu) for K in (H0, HA))
    m_ka = donaldson_functional(H0, metric_log(HA, H0), defect0)
    m_ab = donaldson_functional(HA, metric_log(HB, HA), defectA)
    m_kb = donaldson_functional(H0, metric_log(HB, H0), defect0)
    assert abs(m_ka + m_ab - m_kb) < 1e-6


def test_metric_log_roundtrip(setup):
    grid, tw, conn, H0 = setup
    s = random_twisted_hermitian(grid, tw, 9, amplitude=0.4)
    K = MetricField(grid, tw, expm_h(random_twisted_hermitian(grid, tw, 10, 0.3).data))
    # H = K exp(s_K): rebuild H from the log and compare
    half, inv_half = K.sqrt_pair()
    s_hat = np.einsum("...ab,...bc,...cd->...ad", half, s.data, inv_half)
    s_hat = 0.5 * (s_hat + np.conj(np.swapaxes(s_hat, -1, -2)))
    H = MetricField(grid, tw, np.einsum("...ab,...bc,...cd->...ad",
                                        half, expm_h(s_hat), half))
    back = metric_log(H, K)
    rebuilt = np.einsum("...ab,...bc,...cd->...ad",
                        half, expm_h(np.einsum("...ab,...bc,...cd->...ad",
                                               half, back.data, inv_half)), half)
    assert np.abs(rebuilt - H.data).max() < 1e-10
    ks = np.einsum("...ab,...bc->...ac", K.data, back.data)
    assert np.abs(ks - np.conj(np.swapaxes(ks, -1, -2))).max() < 1e-10


def test_ray_convexity(setup):
    grid, tw, conn, H0 = setup
    mu = Fraction(1, 2)
    defect = curvature_defect(H0, conn, mu)
    rng = np.random.default_rng(4)
    for trial in range(20):
        s = random_twisted_hermitian(grid, tw, 100 + trial, amplitude=0.5)
        t0 = rng.uniform(0.2, 2.0)
        dt = 0.1
        vals = [donaldson_functional(H0, EndoField(grid, tw, t * s.data), defect)
                for t in (t0 - dt, t0, t0 + dt)]
        second = vals[0] - 2 * vals[1] + vals[2]
        assert second >= -1e-6


def test_functional_positive_at_fixed_metric(setup):
    # K constant-curvature: M(K, e^sK) >= 0 with equality at scalars
    grid, tw, conn, H0 = setup
    s = random_twisted_hermitian(grid, tw, 17, amplitude=0.3)
    assert donaldson_functional(H0, s, curvature_defect(H0, conn, Fraction(1, 2))) > 0


def test_gradient_consistency_order_four():
    """dM/dt along H^(1/2) exp(t u) H^(1/2) against mean tr(G_hat u).

    The discrete residual G is the gradient of the discrete functional only
    up to the order of the stencils: the gap falls as N^-4 (3.2e-5, 2.0e-6,
    1.3e-7 at N = 32, 64, 128).  dM/dt is a fourth-order central difference
    in t; halving or doubling h moves it by less than 1e-13.
    """
    gaps = []
    for N in (32, 64, 128):
        grid = TorusGrid(1j, N)
        tw, conn, _ = build_model_bundle(2, 1, grid)
        mu = Fraction(1, 2)

        def metric(seed):
            s = random_twisted_hermitian(grid, tw, seed, amplitude=0.5)
            return MetricField(grid, tw, fiber.herm_apply(fiber.exp(1.0), s.data))

        K, H = metric(11), metric(42)
        defect = curvature_defect(K, conn, mu)
        u = random_twisted_hermitian(grid, tw, 7, amplitude=0.5).data
        half, inv_half = H.sqrt_pair()

        def M(t):
            expu = fiber.herm_apply(fiber.exp(t), u)
            Ht = fiber.mm(half, fiber.mm(expu, half))
            Ht = MetricField(grid, tw, 0.5 * (Ht + fiber.dagger(Ht)))
            return donaldson_functional(K, metric_log(Ht, K), defect)

        h = 1e-3
        d1 = (M(h) - M(-h)) / (2 * h)
        d2 = (M(2 * h) - M(-2 * h)) / (4 * h)
        G = i_lambda_F_metric(H, conn) - 2 * np.pi * float(mu) * np.eye(2)
        G_hat = fiber.mm(half, fiber.mm(G, inv_half))
        pairing = np.einsum("...ab,...ba->...", G_hat, u).real.mean()
        gaps.append(abs((4 * d1 - d2) / 3 - pairing))
    orders = [math.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
    assert all(3.5 <= p <= 4.5 for p in orders), (gaps, orders)


def test_flow_fixed_point(setup):
    grid, tw, conn, H0 = setup
    fr = donaldson_flow(H0, Fraction(1, 2), conn, tol=1e-6, max_iter=50)
    assert fr.iterations == 0 and fr.converged
    # a K0 that is not positive definite is refused at the first read of its
    # square root, with the measured minimum eigenvalue
    g = TorusGrid(1j, 16)
    for r in (1, 2, 3):
        tw_r, conn_r, _ = build_model_bundle(r, 1, g)
        lam = np.ones(r)
        lam[0] = -1.0
        K0 = MetricField(g, tw_r, np.broadcast_to(np.diag(lam).astype(complex),
                                                  (16, 16, r, r)).copy())
        with pytest.raises(ValueError, match=r"not positive definite "
                                             r"\(min eigenvalue -1\.000e\+00\)"):
            donaldson_flow(K0, Fraction(1, r), conn_r, tol=1e-6, max_iter=5)


def test_flow_rank1_matches_poisson():
    # the rank-1 flow solves the same scalar equation as the conformal solve
    grid = TorusGrid(1j, 32)
    tw, conn, H0 = build_model_bundle(1, 0, grid)
    psi = 0.4 * np.cos(2 * np.pi * grid.X) + 0.25 * np.sin(2 * np.pi * grid.Y)
    K = MetricField(grid, tw, np.exp(psi)[..., None, None] * H0.data)
    fr = donaldson_flow(K, 0, conn, tol=1e-9, max_iter=4000)
    assert fr.converged and fr.monotone_defect() <= 1e-10
    log_final = np.log(fr.final.data[..., 0, 0].real)
    # flat solution: constant log (scale preserved: mean of log unchanged)
    assert np.abs(log_final - log_final.mean()).max() < 1e-7
    assert log_final.mean() == pytest.approx(psi.mean(), abs=1e-8)


def test_flow_rank2_converges_monotone(setup):
    grid, tw, conn, H0 = setup
    s = random_twisted_hermitian(grid, tw, 42, amplitude=0.5)
    K = MetricField(grid, tw, expm_h(s.data))
    fr = donaldson_flow(K, Fraction(1, 2), conn, tol=1e-6, max_iter=2000)
    assert fr.converged
    assert fr.final_residual < 1e-6
    assert fr.monotone_defect() <= 1e-10
    assert he_residual(conn, fr.final, Fraction(1, 2)) < 1.5e-6
    # the evolved metric still satisfies the seam conditions
    assert ref.endo_seam_roundtrip(fr.final.data, tw) < 1e-10
    assert ref.endo_seam_jump(fr.final.data, tw) < 1e-4
    # functional strictly decreased overall
    assert fr.functional[-1] < fr.functional[1] < 0 or fr.functional[1] >= 0


def test_flow_evaluates_through_the_public_functions(setup, monkeypatch):
    # one implementation per quantity: every trial step of the flow goes
    # through the public metric_log and donaldson_functional, and each
    # recorded functional value is one that donaldson_functional returned
    from fareyflow.torus_he import donaldson
    grid, tw, conn, H0 = setup
    calls = {"donaldson_functional": 0, "metric_log": 0}
    returned = []

    def count(name):
        fn = getattr(donaldson, name)

        def counted(*args):
            calls[name] += 1
            out = fn(*args)
            if name == "donaldson_functional":
                returned.append(out)
            return out
        monkeypatch.setattr(donaldson, name, counted)

    count("donaldson_functional")
    count("metric_log")
    K = MetricField(grid, tw, expm_h(random_twisted_hermitian(grid, tw, 42, 0.5).data))
    fr = donaldson_flow(K, Fraction(1, 2), conn, tol=1e-6, max_iter=12)
    assert len(fr.steps) == 12
    assert calls["donaldson_functional"] >= len(fr.steps)
    assert calls["metric_log"] >= len(fr.steps)
    assert all(m in returned for m in fr.functional[1:])


def test_flow_result_uphill_counts():
    fr = FlowResult(None, [1.0] * 5, [0.0, -1.0, -0.5, -2.0, -1.75], [0.1] * 4, 4, True)
    assert fr.uphill_steps() == 2
    assert fr.uphill_rise() == 0.75
    assert fr.monotone_defect() == 0.5
    down = FlowResult(None, [1.0] * 3, [0.0, -1.0, -2.0], [0.1] * 2, 2, True)
    assert down.uphill_steps() == 0 and down.uphill_rise() == 0.0
    assert down.monotone_defect() == 0.0


def test_flow_options_are_keyword_only(setup):
    grid, tw, conn, H0 = setup
    with pytest.raises(TypeError, match="positional"):
        donaldson_flow(H0, Fraction(1, 2), conn, 1.0)
