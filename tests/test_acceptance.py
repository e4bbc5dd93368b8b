"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them).  Tolerances and runtime budgets are asserted as
stated; nothing is deferred to later calibration.

Criterion 8 measures the sup/mean threshold constant of the theta line
subbundle S of the rank-2 degree-1 flat model and checks it, and the pointwise
|beta|^2 it comes from, against a closed form (tests/conftest.py).  With
H0 = Id, Gauss-Codazzi  i Lambda F_S = i Lambda F_E - |beta|^2  gives

    |beta|^2 = (1/2) Lap log(|theta_0|^2 + |theta_1|^2)
             = 2 |theta_0 theta_1' - theta_1 theta_0'|^2 / (|theta_0|^2 + |theta_1|^2)^2

at tau = i: a Fubini-Study density, not a constant.  It vanishes at z = 0,
where the Wronskian does, and peaks at z = (1 + i)/2, so the constant is
sup/mean = 6.87518.../pi = 2.18844..., not 1.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fareyflow.contfrac import (ContinuedFraction, cf_expand, gauss_digit_density,
                                lagrange_estimate)
from fareyflow.farey import enumerate_triangles, is_farey_triangle, mediant
from fareyflow.stability import (WellApproxParams, lattice_interior_count,
                                 select_subsequence)
from fareyflow.surd import QuadraticSurd

GOLDEN = QuadraticSurd(1, 1, 5, 2)


def report(num, ok, detail):
    print("\n[criterion %02d] %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def fibonacci_parity_cf(n_digits: int) -> ContinuedFraction:
    """[1; 1, 2, 1, 3, 1, 5, 1, 8, ...]: ones at odd positions, growing
    (Fibonacci-type) digits at even positions, truncated to n_digits."""
    digits = [1]
    a, b = 2, 3
    while len(digits) < n_digits + 1:
        digits.append(1)
        digits.append(a)
        a, b = b, a + b
    return ContinuedFraction(1, tuple(digits[1:n_digits + 1]), exact=False)


# ----------------------------------------------------------------------------


def test_criterion_01_lagrange_golden_exact():
    t0 = time.perf_counter()
    est = lagrange_estimate(cf_expand(GOLDEN, 10), "even", 12, 60)
    elapsed = time.perf_counter() - t0
    exact_ok = est.estimate.exact == QuadraticSurd(0, 1, 5, 1)
    float_ok = abs(float(est.estimate) - math.sqrt(5)) < 1e-12
    ok = exact_ok and float_ok and elapsed < 1.0
    assert report(1, ok, "even value exact sqrt(5); numeric %.15f; %.3fs"
                  % (float(est.estimate), elapsed))


def test_criterion_02_parity_skew_reproduction():
    t0 = time.perf_counter()
    cf = fibonacci_parity_cf(200)
    even = lagrange_estimate(cf, "even", 60, 30)
    odd = lagrange_estimate(cf, "odd", 60, 30)
    elapsed = time.perf_counter() - t0
    even_vals = [float(t.hi) for t in even.terms]
    even_ok = len(even_vals) > 50 and all(v <= 1 + 1e-2 for v in even_vals[50:])
    odd_max = max(float(t.lo) for t in odd.terms)
    ok = even_ok and odd_max > 50 and elapsed < 1.0
    assert report(2, ok, "even t_50 = %.6f (<= 1.01), odd running max = %.3g; %.3fs"
                  % (even_vals[50], odd_max, elapsed))


def test_criterion_03_gauss_kuzmin_density():
    t0 = time.perf_counter()
    d = gauss_digit_density(100_000, 200, 1, "odd", seed=20260810, burn_in=32)
    elapsed = time.perf_counter() - t0
    dev = abs(d.empirical - d.reference)
    ok = dev <= 3 * d.stderr and elapsed < 30.0
    assert report(3, ok, "empirical %.6f vs log2(4/3) = %.6f (|dev| = %.2e, "
                  "3se = %.2e); %.1fs" % (d.empirical, d.reference, dev,
                                          3 * d.stderr, elapsed))


def test_criterion_04_farey_suite_exhaustive():
    t0 = time.perf_counter()
    count = 0
    for t in enumerate_triangles(60):
        ok, why = is_farey_triangle(t.left, t.middle, t.right)
        assert ok, why
        assert t.middle == mediant(t.left, t.right)
        # interior lattice points of the charge parallelogram (Pick-checked
        # inside lattice_interior_count)
        assert lattice_interior_count((-t.left.p, t.left.q),
                                      (-t.right.p, t.right.q)) == 0
        count += 1
    elapsed = time.perf_counter() - t0
    ok = count >= 1000 and elapsed < 10.0
    assert report(4, ok, "%d triangles with denominators <= 60, all conditions "
                  "hold; %.1fs" % (count, elapsed))


def test_criterion_05_well_approximated_subsequence():
    t0 = time.perf_counter()
    rep = select_subsequence(cf_expand(GOLDEN, 10), WellApproxParams(1), 10)
    inv_root5 = QuadraticSurd(0, 1, 5, 5)
    all_pass = rep.passing == list(range(10))
    monotone = all(e2.product < e1.product
                   for e1, e2 in zip(rep.entries, rep.entries[1:]))
    above = all(e.product > inv_root5 for e in rep.entries)
    near = abs(rep.entries[8].product_float - 1 / math.sqrt(5)) < 1e-3
    rep3 = select_subsequence(cf_expand(GOLDEN, 10), WellApproxParams(3), 12)
    elapsed = time.perf_counter() - t0
    ok = all_pass and monotone and above and near and rep3.passing == [] \
        and not rep.undecided and elapsed < 1.0
    assert report(5, ok, "10/10 pass at L=1 decreasing to 1/sqrt5 "
                  "(p8 = %.6f), 0 pass at L=3; exact verdicts; %.3fs"
                  % (rep.entries[8].product_float, elapsed))


def test_criterion_06_model_bundles():
    from fareyflow.torus_he import TorusGrid, build_model_bundle, he_residual
    t0 = time.perf_counter()
    grid = TorusGrid(1j, 64)
    worst = 0.0
    pairs = 0
    for r in range(1, 9):
        for d in range(-8, 9):
            if math.gcd(r, d) != 1:
                continue
            tw, conn, H0 = build_model_bundle(r, d, grid)
            worst = max(worst, he_residual(conn, H0, Fraction(d, r)))
            pairs += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    assert report(6, ok, "%d coprime (r, d) pairs, worst residual %.2e; %.1fs"
                  % (pairs, worst, elapsed))


@pytest.fixture(scope="module")
def theta_line_subbundle_128():
    from fareyflow.torus_he import (TorusGrid, build_model_bundle,
                                    second_fundamental_form, theta_section)
    grid = TorusGrid(1j, 128)
    tw, conn, H0 = build_model_bundle(2, 1, grid)
    sec = theta_section(tw, grid, (0, 0))
    return second_fundamental_form(sec, H0, conn), H0


def test_criterion_07_chern_weil(theta_line_subbundle_128):
    from fareyflow.torus_he import (TorusGrid, build_model_bundle, chern_weil_check,
                                    second_fundamental_form, theta_section)
    t0 = time.perf_counter()
    sff128, H0 = theta_line_subbundle_128
    lhs, rhs, rel128 = chern_weil_check(sff128, H0, Fraction(1, 2), 0, 1)
    grid = TorusGrid(1j, 256)
    tw, conn, H02 = build_model_bundle(2, 1, grid)
    sff256 = second_fundamental_form(theta_section(tw, grid, (0, 0)), H02, conn)
    _, _, rel256 = chern_weil_check(sff256, H02, Fraction(1, 2), 0, 1)
    order = math.log2(rel128 / rel256)
    elapsed = time.perf_counter() - t0
    ok = abs(rhs - math.pi) < 1e-14 and rel128 < 1e-3 \
        and 0.8 * 4 <= order <= 1.2 * 4 and elapsed < 120.0
    assert report(7, ok, "integral = %.9f vs pi (rel %.2e at N=128), refinement "
                  "order %.2f; %.1fs" % (lhs, rel128, order, elapsed))


def test_criterion_08_flat_threshold(theta_line_subbundle_128, theta_line_density):
    from fareyflow.torus_he import threshold_probe
    t0 = time.perf_counter()
    sff, H0 = theta_line_subbundle_128
    probe = threshold_probe(sff)
    exact = theta_line_density(H0.grid.tau, H0.grid.N)
    elapsed = time.perf_counter() - t0
    exact_ratio = float(exact.max() / exact.mean())
    mean_err = abs(float(exact.mean()) - math.pi)
    ratio_err = abs(probe.ratio - exact_ratio)
    point_err = float(np.abs(sff.norm_sq - exact).max()) / math.pi
    zero = float(sff.norm_sq[0, 0]) / probe.mean
    ok = mean_err <= 1e-12 and ratio_err <= 1e-5 and point_err <= 1e-5 \
        and zero <= 1e-12 and elapsed < 120.0
    assert report(8, ok, "sup/mean = %.7f vs closed form %.7f (|err| = %.1e <= 1e-5); "
                  "max pointwise |err|/pi = %.1e <= 1e-5; closed-form mean - pi = "
                  "%.1e; |beta|^2(0)/mean = %.1e (zero at z = 0, peak at "
                  "z = (1+i)/2); %.1fs" % (probe.ratio, exact_ratio, ratio_err,
                                          point_err, mean_err, zero, elapsed))


def test_criterion_09_functional_properties():
    from fareyflow.torus_he import (EndoField, MetricField, TorusGrid,
                                    build_model_bundle, curvature_defect,
                                    donaldson_functional, metric_log,
                                    random_twisted_hermitian)
    t0 = time.perf_counter()
    grid = TorusGrid(1j, 64)
    tw, conn, H0 = build_model_bundle(2, 1, grid)
    mu = Fraction(1, 2)
    defect0 = curvature_defect(H0, conn, mu)

    zero = EndoField(grid, tw, np.zeros_like(H0.data))
    m0 = donaldson_functional(H0, zero, defect0)
    scalars = []
    for c in (-1.0, 0.5, 2.0):
        sc = EndoField(grid, tw, c * np.broadcast_to(np.eye(2, dtype=complex),
                                                     H0.data.shape).copy())
        scalars.append(abs(donaldson_functional(H0, sc, defect0)))

    def expm_h(s):
        lam, P = np.linalg.eigh(s)
        return np.einsum("...ab,...b,...cb->...ac", P, np.exp(lam), P.conj())

    sA = random_twisted_hermitian(grid, tw, 11, amplitude=0.08)
    sB = random_twisted_hermitian(grid, tw, 12, amplitude=0.08)
    HA = MetricField(grid, tw, expm_h(sA.data))
    HB = MetricField(grid, tw, expm_h(sB.data))
    cocycle = abs(donaldson_functional(H0, metric_log(HA, H0), defect0)
                  + donaldson_functional(HA, metric_log(HB, HA),
                                         curvature_defect(HA, conn, mu))
                  - donaldson_functional(H0, metric_log(HB, H0), defect0))

    rng = np.random.default_rng(77)
    worst_second = math.inf
    for trial in range(20):
        s = random_twisted_hermitian(grid, tw, 300 + trial, amplitude=0.5)
        tc = rng.uniform(0.3, 2.0)
        vals = [donaldson_functional(H0, EndoField(grid, tw, t * s.data), defect0)
                for t in (tc - 0.1, tc, tc + 0.1)]
        worst_second = min(worst_second, vals[0] - 2 * vals[1] + vals[2])
    elapsed = time.perf_counter() - t0
    ok = m0 == 0.0 and max(scalars) < 1e-8 and cocycle < 1e-6 \
        and worst_second >= -1e-6 and elapsed < 60.0
    assert report(9, ok, "M(0) = %g, max|M(c Id)| = %.2e, cocycle defect %.2e, "
                  "min ray second difference %.2e; %.1fs"
                  % (m0, max(scalars), cocycle, worst_second, elapsed))


def test_criterion_10_flow_converges():
    from fareyflow.torus_he import (MetricField, TorusGrid, build_model_bundle,
                                    donaldson_flow, random_twisted_hermitian)
    t0 = time.perf_counter()
    grid = TorusGrid(1j, 64)
    tw, conn, H0 = build_model_bundle(2, 1, grid)
    s = random_twisted_hermitian(grid, tw, 20260810, amplitude=0.5)
    lam, P = np.linalg.eigh(s.data)
    K = MetricField(grid, tw,
                    np.einsum("...ab,...b,...cb->...ac", P, np.exp(lam), P.conj()))
    fr = donaldson_flow(K, Fraction(1, 2), conn, tol=1e-6, max_iter=2000)
    elapsed = time.perf_counter() - t0
    ok = fr.converged and fr.final_residual < 1e-6 \
        and fr.monotone_defect() <= 1e-10 and elapsed < 300.0
    assert report(10, ok, "residual %.2e after %d iterations, largest "
                  "functional increase %.1e; %.1fs"
                  % (fr.final_residual, fr.iterations, fr.monotone_defect(), elapsed))


def test_criterion_11_conformal_normalization():
    # manufactured RIGHT SIDE fed to the spectral torus solve: the closed-form
    # weight must come back, and applying it to a metric built from that
    # weight restores unit determinant
    from fareyflow.torus_he import MetricField, TorusGrid, build_model_bundle
    t0 = time.perf_counter()
    grid = TorusGrid(1j, 128)
    tw, conn, H0 = build_model_bundle(1, 0, grid)
    phi_true = (np.cos(2 * np.pi * grid.X) - 0.5 * np.sin(2 * np.pi * grid.Y)) \
        / (4 * np.pi ** 2)
    rhs = -(np.cos(2 * np.pi * grid.X) - 0.5 * np.sin(2 * np.pi * grid.Y))
    phi = grid.poisson_solve(rhs)
    err = np.abs(phi - phi_true).max()
    H = MetricField(grid, tw, np.exp(-phi_true)[..., None, None] * H0.data)
    det = np.exp(phi)[..., None, None] * H.data   # rank 1: det(e^phi H H0^-1)
    det_dev = np.abs(det[..., 0, 0] - 1).max()
    mean_phi = abs(phi.mean())
    elapsed = time.perf_counter() - t0
    ok = bool(err < 1e-8 and det_dev < 1e-8 and mean_phi < 1e-12 and elapsed < 10.0)
    assert report(11, ok, "phi recovered to %.2e, det deviation %.2e, "
                  "mean phi %.2e; %.1fs" % (err, det_dev, mean_phi, elapsed))


def test_criterion_12_coulomb_samples():
    from fareyflow.coulomb import SquareGrid, coulomb_fix, random_gauge_field
    t0 = time.perf_counter()
    grid = SquareGrid(64)
    ratios = {1: [], 2: [], 4: []}
    worst_div = worst_bdry = 0.0
    for k in range(51):
        rank = (1, 2, 4)[k % 3]
        A = random_gauge_field(grid, rank, seed=7000 + k,
                               curvature_target=0.02 + 0.01 * (k % 3))
        u, Ac, rep = coulomb_fix(A, tol=1e-6)
        worst_div = max(worst_div, rep.div_residual)
        worst_bdry = max(worst_bdry, rep.boundary_residual)
        ratios[rank].append(rep.ratio)
    pooled = np.array(sum(ratios.values(), []))
    spread = pooled.max() / np.median(pooled)
    medians = [np.median(ratios[r]) for r in (1, 2, 4)]
    rank_growth = max(medians) / min(medians)
    elapsed = time.perf_counter() - t0
    ok = worst_div < 1e-6 and worst_bdry < 1e-6 and spread < 5 \
        and rank_growth < 2 and elapsed < 300.0
    assert report(12, ok, "51 samples converged (max residuals %.3e / %.3e), "
                  "ratio max/median %.3f, rank-median spread %.3f; %.1fs"
                  % (worst_div, worst_bdry, spread, rank_growth, elapsed))


def test_criterion_13_determinism(tmp_path):
    from fareyflow.cli import main
    from fareyflow.reporting import read_journal, stable_view
    t0 = time.perf_counter()
    configs = {
        "density": ["density", "--samples", "100000", "--depth", "200",
                    "--digit", "1", "--parity", "odd", "--seed", "20260810"],
        "donaldson": ["donaldson", "--rank", "2", "--degree", "1", "--N", "64",
                      "--seed", "20260810", "--tol", "1e-6"],
        "coulomb": ["coulomb", "--rank", "2", "--N", "64", "--samples", "4",
                    "--seed", "7000", "--tol", "1e-6"],
    }
    all_ok = True
    for name, args in configs.items():
        j = str(tmp_path / ("%s.jsonl" % name))
        code1 = main(["--out", j] + args)
        code2 = main(["--out", j] + args)
        r1, r2 = read_journal(j)
        same = stable_view(r1) == stable_view(r2)
        all_ok = all_ok and same and code1 == 0 and code2 == 0
        if not same:
            print("mismatch in", name)
    elapsed = time.perf_counter() - t0
    assert report(13, all_ok, "density/donaldson/coulomb journal records "
                  "bit-identical across repeated seeded runs; %.1fs" % elapsed)
