import math
import operator
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fareyflow.surd import QuadraticSurd, RatInterval, squarefree_split


def test_squarefree_split():
    assert squarefree_split(72) == (6, 2)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(30) == (1, 30)
    with pytest.raises(ValueError):
        squarefree_split(0)


def test_squarefree_split_against_factorint():
    """The split against sympy's factorisation on prime powers (a cofactor
    that is exactly a cube stops the loop at its root), on n times a square,
    and on squares of primes and products of two primes near 1e8 (a cofactor
    whose prime factors all lie above its cube root)."""
    import random
    from sympy import factorint, nextprime
    rng = random.Random(20261021)
    big = lambda: nextprime(10 ** 8 + rng.randrange(10 ** 6))
    cases = [p ** e * k for p in (2, 3, 5, 7, 101) for e in range(1, 8) for k in (1, 6)]
    cases += [rng.randrange(1, 10 ** 6) * rng.randrange(1, 10 ** 4) ** 2 for _ in range(200)]
    for _ in range(8):
        p, q = big(), big()
        cases += [p * p, p * q, 12 * p * p, rng.randrange(1, 10 ** 4) * p * q]
    for n in cases:
        s, f = squarefree_split(n)
        assert s * s * f == n, n
        assert all(e == 1 for e in factorint(f).values()), n


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
    # irrational surds of distinct fields are never equal
    r3 = QuadraticSurd(0, 1, 3, 1)
    assert not r2 == r3 and r2 != r3
    assert QuadraticSurd(1, 2, 8, 3) != QuadraticSurd(1, 1, 18, 3)   # both in Q(sqrt 2)
    assert QuadraticSurd(1, 2, 8, 3) == QuadraticSurd(1, 4, 2, 3)
    assert QuadraticSurd(3, 0, 5, 1) == QuadraticSurd(6, 0, 7, 2) == 3
    # a surd combines with ints, Fractions and surds only, in either order
    for op in (operator.add, operator.sub, operator.mul, operator.lt, operator.gt):
        for foreign in (1.5, "1"):
            with pytest.raises(TypeError):
                op(r2, foreign)
            with pytest.raises(TypeError):
                op(foreign, r2)


def _sign_oracle(a: int, b: int, D: int) -> int:
    """Sign of a + b sqrt(D) in decimal arithmetic precise enough to decide it:
    with M = |a| + |b| sqrt(D), |a + b sqrt(D)| = |a^2 - b^2 D| / |a - b sqrt(D)|
    >= 1/M, while the rounding error stays below 2 M 10^(1 - prec)."""
    m = abs(a) + abs(b) * (math.isqrt(D) + 1)
    with localcontext() as ctx:
        ctx.prec = 2 * len(str(m)) + 5
        v = Decimal(a) + Decimal(b) * Decimal(D).sqrt()
    return (v > 0) - (v < 0)


SQUAREFREE = [2, 3, 5, 7, 10, 30030, 1_000_000_007, 2 * 3 * 1_000_000_007]


@settings(max_examples=400)
@given(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]), st.integers(1, 10 ** 40),
       st.integers(1, 10 ** 40), st.sampled_from(SQUAREFREE), st.integers(-3, 3),
       st.booleans(), st.integers(1, 10 ** 12))
def test_sign_matches_decimal_oracle(signs, a, b, D, offset, near, c):
    if near:        # |a| next to |b| sqrt(D), where the two parts nearly cancel
        a = max(1, math.isqrt(b * b * D) + offset)
    a, b = signs[0] * a, signs[1] * b
    s = QuadraticSurd(a, b, D, c)
    assert (s.a, s.b, s.D) == (a // math.gcd(a, b, c), b // math.gcd(a, b, c), D)
    assert s.sign() == _sign_oracle(a, b, D)
    assert QuadraticSurd(a, b, D, -c).sign() == -_sign_oracle(a, b, D)


def test_enclosure_contains_value():
    s = QuadraticSurd(-3, 2, 7, 5)
    iv = s.enclosure(80)
    assert iv.hi - iv.lo <= Fraction(1, 2 ** 78)
    assert not s < iv.lo and s < iv.hi    # exact containment


@settings(max_examples=400)
@given(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]), st.integers(0, 10 ** 40),
       st.integers(0, 10 ** 40), st.sampled_from(SQUAREFREE), st.integers(-3, 3),
       st.booleans(), st.integers(1, 10 ** 12), st.integers(-50, 50), st.integers(1, 30))
def test_floor_matches_interval(signs, a, b, D, offset, near, c, a2, c2):
    if near:        # a + b sqrt(D) within a few units of an integer: the value
        a = math.isqrt(b * b * D) + offset      # lies within a few 1/c of one
    s = QuadraticSurd(signs[0] * a, signs[1] * b, D, c)
    n = s.floor()
    assert not s < n and s < n + 1
    t = QuadraticSurd(a2, 1, D, c2)
    # field arithmetic against rational interval arithmetic: both enclosures
    # lie within 2**-96 of their values, so the slack holds at any magnitude
    prod = s * t
    i1, i2 = s.enclosure(96), t.enclosure(96)
    lo = min(i1.lo * i2.lo, i1.lo * i2.hi, i1.hi * i2.lo, i1.hi * i2.hi)
    hi = max(i1.lo * i2.lo, i1.lo * i2.hi, i1.hi * i2.lo, i1.hi * i2.hi)
    assert lo - Fraction(1, 2 ** 60) <= prod.enclosure(96).lo
    assert prod.enclosure(96).hi <= hi + Fraction(1, 2 ** 60)


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
    with pytest.raises(ValueError, match="out of order"):
        a * -1                            # the factor must be >= 0


# D up to 30030: every surd operation factors D again by trial division,
# about 1 ms for D near 10**9
_IRRATIONAL = st.builds(QuadraticSurd, st.integers(-10 ** 6, 10 ** 6),
                        st.integers(1, 10 ** 6) | st.integers(-10 ** 6, -1),
                        st.sampled_from(SQUAREFREE[:6]), st.integers(1, 10 ** 6))
_RATIONAL = st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 6)
_FACTOR = st.fractions(min_value=Fraction(1, 10 ** 6), max_value=1000,
                       max_denominator=10 ** 6)


@given(_IRRATIONAL, _RATIONAL, _FACTOR)
@settings(max_examples=300)
def test_interval_arithmetic_keeps_the_exact_value_inside(x, q, k):
    iv = RatInterval.of(x)
    assert iv.exact == x and iv.lo < x < iv.hi
    for out, want in ((iv + q, x + q), (q + iv, x + q), (iv - q, x - q),
                      (q - iv, -x + q), (iv * k, x * k), (k * iv, x * k)):
        assert out.exact == want
        assert out.lo < out.exact < out.hi


@given(_IRRATIONAL, _RATIONAL, st.fractions(min_value=0, max_value=1))
@settings(max_examples=300)
def test_an_exact_interval_decides_as_its_value(x, q, t):
    iv = RatInterval.of(x)
    # a point inside the enclosure the endpoints alone cannot place
    for p in (q, iv.lo + t * iv.width):
        assert iv.provably_lt(p) is (x < p)
        assert iv.provably_gt(p) is (x > p)


@given(_RATIONAL, _RATIONAL, _RATIONAL)
@settings(max_examples=300)
def test_a_plain_interval_verdict_holds_at_both_endpoints(u, v, x):
    iv = RatInterval(min(u, v), max(u, v))
    for p in (x, iv.lo, iv.hi, iv.mid):
        for verdict, holds in ((iv.provably_lt(p), lambda e: e < p),
                               (iv.provably_gt(p), lambda e: e > p)):
            at_ends = {holds(iv.lo), holds(iv.hi)}
            assert at_ends == ({verdict} if verdict is not None else {True, False})
