import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fareyflow.contfrac import ContinuedFraction, cf_expand, lagrange_estimate
from fareyflow.farey import FareyTriangle, enumerate_triangles
from fareyflow.stability import (KClass, WellApproxParams, build_sequence,
                                 charge_combine, euler_pairing, hom_one_dim,
                                 lattice_interior_count, min_destabilizing_gap,
                                 select_subsequence, slope, well_approx_check)
from fareyflow.surd import QuadraticSurd, RatInterval

GOLDEN = QuadraticSurd(1, 1, 5, 2)


def test_slope():
    assert slope(KClass(1, 2)) == Fraction(1, 2)
    assert slope(KClass(1, 0)) == math.inf
    assert slope(KClass(-3, 5)) == Fraction(-3, 5)
    with pytest.raises(ValueError):
        KClass(0, 0)


def test_euler_pairing_examples():
    assert euler_pairing(KClass(1, 1), KClass(0, 1), 2) == -2
    assert hom_one_dim(KClass(1, 1), KClass(0, 1), 2) == 2
    assert euler_pairing(KClass(1, 1), KClass(0, 1), 1) == -1
    assert euler_pairing(KClass(0, 1), KClass(0, 1), 1) == 0


@given(st.integers(-9, 9), st.integers(0, 6), st.integers(-9, 9),
       st.integers(0, 6), st.integers(0, 4))
def test_euler_antisymmetry(d1, r1, d2, r2, g):
    if (d1, r1) == (0, 0) or (d2, r2) == (0, 0):
        return
    F, E = KClass(d1, r1), KClass(d2, r2)
    assert euler_pairing(F, E, g) + euler_pairing(E, F, g) == 2 * F.rk * E.rk * (1 - g)


def test_lattice_counts():
    assert lattice_interior_count((0, 1), (-1, 1)) == 0
    assert lattice_interior_count((0, 2), (-1, 0)) == 0   # no interior point: x in (-1,0)
    assert lattice_interior_count((1, 0), (0, 1)) == 0
    assert lattice_interior_count((2, 0), (0, 2)) == 1    # the center
    assert lattice_interior_count((3, 0), (0, 3)) == 4
    with pytest.raises(ValueError):
        lattice_interior_count((2, 4), (1, 2))


def test_lattice_brute_force_oracle():
    # independent dense enumeration without the exact s,t solve
    def oracle(v1, v3):
        det = v1[0] * v3[1] - v1[1] * v3[0]
        hits = 0
        for x in range(-10, 11):
            for y in range(-10, 11):
                s = (x * v3[1] - y * v3[0]) / det
                t = (y * v1[0] - x * v1[1]) / det
                if 1e-12 < s < 1 - 1e-12 and 1e-12 < t < 1 - 1e-12:
                    hits += 1
        return hits
    for v1, v3 in [((0, 2), (-1, 0)), ((2, 1), (1, 3)), ((3, 1), (-1, 2))]:
        assert lattice_interior_count(v1, v3) == oracle(v1, v3)


def _enumerated_interior(v1, v3):
    """Oracle: interior lattice points by enumerating the bounding box and
    solving (x, y) = s v1 + t v3 exactly at every point."""
    (x1, y1), (x3, y3) = v1, v3
    det = x1 * y3 - y1 * x3
    corners = [(0, 0), (x1, y1), (x3, y3), (x1 + x3, y1 + y3)]
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    count = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            s_num = x * y3 - y * x3
            t_num = y * x1 - x * y1
            if det < 0:
                s_num, t_num, d = -s_num, -t_num, -det
            else:
                d = det
            if 0 < s_num < d and 0 < t_num < d:
                count += 1
    return count


_COORD = st.integers(-12, 12)


@given(st.tuples(_COORD, _COORD), st.tuples(_COORD, _COORD))
@example((0, 5), (3, 2))
@example((4, 1), (0, -3))
@example((0, -7), (-5, 4))
@example((-12, 11), (12, -12))
@settings(max_examples=400, deadline=None)
def test_lattice_count_matches_enumeration(v1, v3):
    assume(v1[0] * v3[1] - v1[1] * v3[0] != 0)
    assert lattice_interior_count(v1, v3) == _enumerated_interior(v1, v3)


def test_lattice_count_matches_enumeration_on_farey_parallelograms():
    triangles = list(enumerate_triangles(60))
    assert len(triangles) == 1101
    for t in triangles:
        v1, v3 = (-t.left.p, t.left.q), (-t.right.p, t.right.q)
        assert lattice_interior_count(v1, v3) == _enumerated_interior(v1, v3)


def test_farey_triangle_parallelograms_empty():
    for t in list(enumerate_triangles(30))[::5]:
        v1 = (-t.left.p, t.left.q)
        v3 = (-t.right.p, t.right.q)
        assert lattice_interior_count(v1, v3) == 0


def test_well_approx_examples():
    theta = QuadraticSurd(-1, 1, 5, 2)           # (sqrt5 - 1)/2
    v = well_approx_check(KClass(1, 2), KClass(0, 1), WellApproxParams(1, theta))
    assert v.passes is True
    assert float(v.lhs) == pytest.approx(math.sqrt(5) - 2, abs=1e-12)
    assert v.rhs == Fraction(1, 2)
    # destabilizing slope: mu(S0) = mu(S) makes the right side zero
    v2 = well_approx_check(KClass(2, 4), KClass(1, 2), WellApproxParams(1, theta))
    assert v2.rhs == 0 and v2.passes is False
    # theta = mu(S): left side zero, passes for any smaller-slope S0
    v3 = well_approx_check(KClass(1, 2), KClass(0, 1),
                           WellApproxParams(1, Fraction(1, 2)))
    assert v3.passes is True and float(v3.lhs) == 0
    with pytest.raises(ValueError):
        well_approx_check(KClass(1, 2), KClass(1, 2), WellApproxParams(1, theta))


def test_well_approx_interval_undecided():
    theta = RatInterval(Fraction(549, 1000), Fraction(551, 1000))
    # rhs = 1/2; lhs = 2(theta - 1/2) in [0.098, 0.102]: decided True
    v = well_approx_check(KClass(1, 2), KClass(0, 1), WellApproxParams(1, theta))
    assert v.passes is True
    wide = RatInterval(Fraction(1, 2), Fraction(9, 10))
    v2 = well_approx_check(KClass(1, 2), KClass(0, 1), WellApproxParams(1, wide))
    assert v2.passes is None


def test_select_subsequence_golden():
    rep = select_subsequence(cf_expand(GOLDEN, 10), WellApproxParams(1), 10)
    vals = [e.product_float for e in rep.entries]
    assert vals[0] == pytest.approx(0.6180339887, abs=1e-9)
    assert vals[1] == pytest.approx(0.4721359550, abs=1e-9)
    assert vals[2] == pytest.approx(0.4508497187, abs=1e-9)
    # exact value (169 sqrt5 - 377)/2
    assert vals[3] == pytest.approx(0.4477440987, abs=1e-9)
    assert rep.passing == list(range(10)) and not rep.undecided
    # strictly decreasing toward 1/sqrt5, decided in exact arithmetic
    for e1, e2 in zip(rep.entries, rep.entries[1:]):
        assert e2.product < e1.product
    inv_root5 = QuadraticSurd(0, 1, 5, 5)
    assert all(e.product > inv_root5 for e in rep.entries)


def test_select_subsequence_L3_fails():
    rep = select_subsequence(cf_expand(GOLDEN, 10), WellApproxParams(3), 12)
    assert rep.passing == []


def test_select_subsequence_interval_theta():
    cf = cf_expand(math.pi, 30)
    rep = select_subsequence(cf, WellApproxParams(1), 5)
    assert rep.passing == [0, 1, 2, 3, 4]


def test_subsequence_matches_lagrange_definition():
    # cross-module: product < 1 at index i iff the parity term exceeds L
    cf = cf_expand(QuadraticSurd(0, 1, 2, 1), 10)
    for L in (Fraction(2), Fraction(5, 2), Fraction(3)):
        rep = select_subsequence(cf, WellApproxParams(L), 8)
        est = lagrange_estimate(cf, "even", 7, 40, check_L=L)
        assert rep.passing == est.definition_indices


def test_charge_combine():
    t = FareyTriangle.make((0, 1), (1, 2), (1, 1))
    assert charge_combine(t, 1, 1) == KClass(1, 2)
    assert charge_combine(t, 2, 3) == KClass(3, 5)
    assert charge_combine(t, 1, 0) == KClass(0, 1)
    with pytest.raises(ValueError):
        charge_combine(t, 0, 0)


@given(st.integers(1, 5), st.integers(1, 5))
def test_charge_slope_between_vertices(m, n):
    t = FareyTriangle.make((1, 3), (3, 8), (2, 5))
    c = charge_combine(t, m, n)
    assert Fraction(1, 3) < slope(c) < Fraction(2, 5)


def test_build_sequence_inverse_golden():
    cf = ContinuedFraction(0, (), (1,))
    seq = build_sequence(cf, 4)
    assert [(k.deg, k.rk) for k in seq] == [(0, 1), (1, 2), (3, 5), (8, 13)]


def test_build_sequence_sqrt2():
    seq = build_sequence(cf_expand(QuadraticSurd(0, 1, 2, 1), 10), 3)
    assert [(k.deg, k.rk) for k in seq] == [(1, 1), (7, 5), (41, 29)]


def test_build_sequence_floor():
    seq = build_sequence(cf_expand(math.pi, 10), 1)
    assert [(k.deg, k.rk) for k in seq] == [(3, 1)]
    with pytest.raises(ValueError):
        build_sequence(ContinuedFraction(1, (2, 2), exact=False), 5)


def test_minimum_gap_reduction():
    # brute-force oracle over all S0 = (d0, r0), r0 < rk, mu(S0) < mu(S)
    for deg, rk in [(3, 5), (8, 13), (7, 12), (5, 8)]:
        S = KClass(deg, rk)
        mu = slope(S)
        best = None
        for r0 in range(1, rk):
            for d0 in range(-3 * rk, 3 * rk):
                if Fraction(d0, r0) < mu:
                    gap = r0 * (mu - Fraction(d0, r0))
                    best = gap if best is None else min(best, gap)
        assert best == Fraction(1, rk)
        assert min_destabilizing_gap(S) == Fraction(1, rk)
