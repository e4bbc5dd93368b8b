import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fareyflow.surd import QuadraticSurd, RatInterval, squarefree_split


def test_squarefree_split():
    assert squarefree_split(72) == (6, 2)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(30) == (1, 30)
    with pytest.raises(ValueError):
        squarefree_split(0)


def test_canonicalization():
    s = QuadraticSurd(2, 2, 8, -4)       # (2 + 2*sqrt(8))/(-4) -> (-1 - 2 sqrt 2)/2
    assert (s.a, s.b, s.c, s.D) == (-1, -2, 2, 2)
    sq = QuadraticSurd(3, 5, 9, 6)       # sqrt(9) folds into the rational part
    assert sq.is_rational and sq.as_fraction() == Fraction(3 + 15, 6)


def test_golden_fixed_point():
    phi = QuadraticSurd(1, 1, 5, 2)
    assert (phi * phi - phi - 1).sign() == 0
    assert phi.floor() == 1
    assert abs(float(phi) - (1 + math.sqrt(5)) / 2) < 1e-15
    assert phi.inverse() == phi - 1


def test_comparisons_exact():
    r2 = QuadraticSurd(0, 1, 2, 1)
    assert Fraction(141421356, 100000000) < r2 < Fraction(141421357, 100000000)
    assert r2 > 1 and r2 < 2
    assert r2 == QuadraticSurd(0, 2, 2, 2)
    with pytest.raises(ValueError):
        _ = r2 < QuadraticSurd(0, 1, 3, 1)   # different fields


def test_enclosure_contains_value():
    s = QuadraticSurd(-3, 2, 7, 5)
    iv = s.enclosure(80)
    assert iv.hi - iv.lo <= Fraction(1, 2 ** 78)
    assert iv.lo <= s < iv.hi             # exact containment


@given(st.integers(-50, 50), st.integers(-20, 20), st.integers(1, 30),
       st.integers(-50, 50), st.integers(1, 30))
def test_floor_matches_interval(a, b, c, a2, c2):
    s = QuadraticSurd(a, b, 5, c)
    n = s.floor()
    assert n <= s < n + 1
    t = QuadraticSurd(a2, 1, 5, c2)
    # field arithmetic against rational interval arithmetic
    prod = s * t
    i1, i2 = s.enclosure(), t.enclosure()
    lo = min(i1.lo * i2.lo, i1.lo * i2.hi, i1.hi * i2.lo, i1.hi * i2.hi)
    hi = max(i1.lo * i2.lo, i1.lo * i2.hi, i1.hi * i2.lo, i1.hi * i2.hi)
    assert lo - Fraction(1, 2 ** 60) <= prod.enclosure().lo
    assert prod.enclosure().hi <= hi + Fraction(1, 2 ** 60)


@given(st.fractions(min_value=-10, max_value=10),
       st.fractions(min_value=-10, max_value=10))
def test_rational_embedding_matches_fraction(x, y):
    sx = QuadraticSurd(x.numerator, 0, 5, x.denominator)
    sy = QuadraticSurd(y.numerator, 0, 5, y.denominator)
    assert (sx + sy).as_fraction() == x + y
    assert (sx * sy).as_fraction() == x * y
    assert (sx < sy) == (x < y)


def test_interval_ops():
    a = RatInterval(Fraction(1, 3), Fraction(1, 2))
    b = RatInterval(Fraction(-1), Fraction(2))
    assert (a + 1).lo == Fraction(4, 3)
    assert (1 + a).hi == Fraction(3, 2)
    assert a.provably_lt(1) is True
    assert a.provably_lt(Fraction(2, 5)) is None
    assert b.provably_gt(5) is False
