import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fareyflow import farey
from fareyflow.contfrac import ContinuedFraction, convergents
from fareyflow.farey import (FareyTriangle, PrimitiveVector, enumerate_triangles,
                             is_farey_triangle, mediant, stern_brocot_path)


def test_primitive_vector_canonical():
    assert PrimitiveVector.make(2, 4) == PrimitiveVector(1, 2)
    assert PrimitiveVector.make(-3, 0) == PrimitiveVector(1, 0)   # infinity
    assert PrimitiveVector.make(3, -6) == PrimitiveVector(-1, 2)
    with pytest.raises(ValueError):
        PrimitiveVector.make(0, 0)
    with pytest.raises(ValueError):
        PrimitiveVector(2, 4)
    # one encoding of infinity: -1/0 would compare unequal to 1/0 and fail the
    # mediant test of a triangle that 1/0 passes
    with pytest.raises(ValueError, match="infinity is 1/0"):
        PrimitiveVector(-1, 0)
    assert is_farey_triangle((0, 1), (1, 1), (-1, 0)) == (True, None)


def test_order_matches_extended_rationals():
    # p q' < p' q against the Fraction order, with 1/0 above every rational
    vecs = {PrimitiveVector.make(p, q) for p in range(-5, 6) for q in range(6) if p or q}
    assert any(v.p < 0 for v in vecs) and PrimitiveVector(1, 0) in vecs

    def key(v):
        return (1, 0) if v.q == 0 else (0, Fraction(v.p, v.q))
    for a in vecs:
        for b in vecs:
            assert (a < b) == (key(a) < key(b)), (a, b)


def test_mediant_examples():
    assert mediant((0, 1), (1, 1)) == PrimitiveVector(1, 2)
    assert mediant((1, 2), (1, 1)) == PrimitiveVector(2, 3)
    assert mediant((1, 2), (1, 2)) == PrimitiveVector(1, 2)


def test_triangle_examples():
    ok, why = is_farey_triangle((0, 1), (1, 2), (1, 1))
    assert ok and why is None
    ok, why = is_farey_triangle((0, 1), (1, 3), (1, 2))
    assert ok
    ok, why = is_farey_triangle((0, 1), (2, 3), (1, 1))
    assert not ok and "mediant" in why
    ok, why = is_farey_triangle((1, 2), (0, 1), (1, 1))
    assert not ok and "ordering" in why
    with pytest.raises(ValueError):
        FareyTriangle.make((0, 1), (2, 3), (1, 1))


def test_stern_brocot_examples():
    moves, tris = stern_brocot_path(Fraction(3, 5))
    assert moves == "LRL"
    assert [str(t.middle) for t in tris] == ["1/2", "2/3", "3/5"]
    assert stern_brocot_path(Fraction(1, 2))[0] == "L"
    assert stern_brocot_path(Fraction(1, 1))[0] == ""
    with pytest.raises(ValueError):
        stern_brocot_path((2, 4))


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 400), st.integers(1, 400))
def test_stern_brocot_replay(pn, qn):
    g = math.gcd(pn, qn)
    p, q = pn // g, qn // g
    moves, tris = stern_brocot_path((p, q))
    assert len(moves) <= p + q
    lo, hi = PrimitiveVector(0, 1), PrimitiveVector(1, 0)
    cur = mediant(lo, hi)
    for mv in moves:
        if mv == "L":
            hi = cur
        else:
            lo = cur
        cur = mediant(lo, hi)
    assert cur == PrimitiveVector(p, q)
    for t in tris:
        assert is_farey_triangle(t.left, t.middle, t.right)[0]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 40), st.integers(1, 40), st.integers(0, 40), st.integers(1, 40))
def test_geodesic_pairs_make_triangles(p1, q1, p2, q2):
    a = PrimitiveVector.make(p1, q1)
    b = PrimitiveVector.make(p2, q2)
    lo, hi = (a, b) if a < b else (b, a)
    if hi.p * lo.q - hi.q * lo.p != 1:       # not a Farey geodesic
        return
    m = mediant(lo, hi)
    assert is_farey_triangle(lo, m, hi)[0]


def test_enumeration_is_farey():
    tris = list(enumerate_triangles(40))
    assert len(tris) > 200
    for t in tris[::7]:
        assert max(t.left.q, t.middle.q, t.right.q) <= 40
        ok, why = is_farey_triangle(t.left, t.middle, t.right)
        assert ok, why
        assert t.middle == mediant(t.left, t.right)


def test_translation_invariance():
    for t in list(enumerate_triangles(12))[::5]:
        for k in (-3, 2, 7):
            ok, why = is_farey_triangle(*(
                (v.p + k * v.q, v.q) for v in (t.left, t.middle, t.right)))
            assert ok, why


def test_convergents_are_geodesic_connected():
    # consecutive convergents have |p_i q_{i+1} - p_{i+1} q_i| = 1
    cf = ContinuedFraction(0, (), (3, 1, 2))
    cs = convergents(cf, 9)
    for c1, c2 in zip(cs, cs[1:]):
        assert abs(c1.p * c2.q - c2.p * c1.q) == 1
