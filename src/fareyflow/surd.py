"""Exact arithmetic helpers: quadratic surds and rational-endpoint intervals.

A quadratic surd is a number (a + b*sqrt(D))/c with integer a, b, c and a
squarefree integer D > 1.  All arithmetic here is exact (big integers only),
so strict inequalities decided with these values are decided correctly --
no floating point enters until the caller asks for a float rendering.
`RatInterval` holds a real known exactly (a surd it carries, or a point) or
only to an interval; verdicts on it are exact, or three-valued otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

_ENCLOSE_BITS = 120          # precision of the rational enclosure of an irrational surd


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s**2 * f and f squarefree.  Requires n > 0.

    Trial division runs only while p^3 <= m for the cofactor m left: every
    prime factor of the final m is then above its cube root, so m is 1, a
    prime, a prime squared or a product of two distinct primes.
    """
    if n <= 0:
        raise ValueError("need a positive integer, got %r" % (n,))
    s, f, m = 1, 1, n
    p = 2
    while p * p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(m)
    return (s * r, f) if r * r == m else (s, f * m)


class QuadraticSurd:
    """(a + b*sqrt(D))/c in canonical form: c > 0, gcd(a, b, c) = 1, D squarefree.

    b = 0 is allowed (the value is rational); D is then 0, so a rational
    value combines with a surd of any field.
    """

    __slots__ = ("a", "b", "c", "D")

    def __init__(self, a: int, b: int, D: int, c: int):
        if c == 0:
            raise ZeroDivisionError("zero denominator in surd")
        s, f = squarefree_split(D)
        if f == 1:
            # D was a perfect square: fold it into the rational part
            a, b = a + b * s, 0
        else:
            b, D = b * s, f
        self._canonical(a, b, D, c)

    @classmethod
    def _squarefree(cls, a: int, b: int, D: int, c: int) -> "QuadraticSurd":
        """(a + b*sqrt(D))/c for a D already squarefree (any D if b = 0) and
        c != 0, as the arithmetic below makes them: no factoring."""
        surd = cls.__new__(cls)
        surd._canonical(a, b, D, c)
        return surd

    def _canonical(self, a: int, b: int, D: int, c: int) -> None:
        if b == 0:
            D = 0
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        self.a, self.b, self.c, self.D = a, b, c, D

    # --- predicates / conversions ----------------------------------------
    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("surd %r is irrational" % (self,))
        return Fraction(self.a, self.c)

    def __float__(self) -> float:
        root = math.sqrt(self.D) if self.D else 0.0
        return (self.a + self.b * root) / self.c

    # --- exact sign and comparisons ---------------------------------------
    def sign(self) -> int:
        """Exact sign of the value (-1, 0, +1)."""
        a, b, D = self.a, self.b, self.D
        if b == 0:
            return (a > 0) - (a < 0)
        # the larger of |a| and |b| sqrt(D) sets the sign (a^2 = b^2 D has no
        # solution for squarefree D > 1); when a and b share a sign, either does
        bigger_is_a = a * a > b * b * D
        return (1 if a > 0 else -1) if bigger_is_a else (1 if b > 0 else -1)

    def _coerce(self, other) -> "QuadraticSurd":
        if isinstance(other, QuadraticSurd):
            if self.D and other.D and self.D != other.D:
                raise ValueError("surds from different fields: sqrt(%d) vs sqrt(%d)"
                                 % (self.D, other.D))
            return other
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return QuadraticSurd._squarefree(q.numerator, 0, 0, q.denominator)
        raise TypeError("cannot combine a surd with %s" % type(other).__name__)

    def __add__(self, other):
        o = self._coerce(other)
        D = self.D or o.D
        return QuadraticSurd._squarefree(self.a * o.c + o.a * self.c,
                                         self.b * o.c + o.b * self.c, D, self.c * o.c)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd._squarefree(-self.a, -self.b, self.D, self.c)

    def __sub__(self, other):
        return self.__add__(-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        D = self.D or o.D
        a = self.a * o.a + self.b * o.b * D
        b = self.a * o.b + self.b * o.a
        return QuadraticSurd._squarefree(a, b, D, self.c * o.c)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticSurd":
        a, b, c, D = self.a, self.b, self.c, self.D
        n = a * a - b * b * D
        if n == 0:
            raise ZeroDivisionError("inverting zero surd")
        return QuadraticSurd._squarefree(a * c, -b * c, D, n)

    def __eq__(self, other):
        # irrational numbers of distinct quadratic fields are never equal
        if isinstance(other, QuadraticSurd) and self.D and other.D and self.D != other.D:
            return False
        if isinstance(other, (int, Fraction, QuadraticSurd)):
            return (self - self._coerce(other)).sign() == 0
        return NotImplemented

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __repr__(self):
        if self.b == 0:
            return "QuadraticSurd(%d/%d)" % (self.a, self.c)
        return "QuadraticSurd((%d %+d*sqrt(%d))/%d)" % (self.a, self.b, self.D, self.c)

    # --- floor and rational enclosures -------------------------------------
    def floor(self) -> int:
        # an irrational b sqrt(D) lies strictly between consecutive integers, so
        # the value has the floor of the 0-bit enclosure's lower end
        return math.floor(self.enclosure(0).lo)

    def enclosure(self, bits: int) -> "RatInterval":
        """Rational interval of width about 2**-bits containing the value."""
        if self.b == 0:
            v = Fraction(self.a, self.c)
            return RatInterval(v, v)
        scale = 1 << bits
        s = math.isqrt(self.b * self.b * self.D * scale * scale)
        lo_num = self.a * scale + (s if self.b > 0 else -(s + 1))
        lo = Fraction(lo_num, self.c * scale)
        hi = Fraction(lo_num + 1, self.c * scale)
        return RatInterval(lo, hi)


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with exact rational endpoints, optionally carrying the
    exact surd it encloses.  Arithmetic with a rational acts on that surd when
    there is one and encloses the result again, and on the endpoints if not."""

    lo: Fraction
    hi: Fraction
    exact: QuadraticSurd | None = None

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order: %s > %s" % (self.lo, self.hi))

    @classmethod
    def of(cls, value) -> "RatInterval":
        """A surd's enclosure carrying the surd, a rational's point interval;
        an interval passes through."""
        if isinstance(value, RatInterval):
            return value
        if isinstance(value, QuadraticSurd):
            return replace(value.enclosure(_ENCLOSE_BITS), exact=value)
        q = Fraction(value)
        return cls(q, q)

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other):
        """Shift by a rational."""
        if self.exact is not None:
            return RatInterval.of(self.exact + other)
        q = Fraction(other)
        return RatInterval(self.lo + q, self.hi + q)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Fraction(other))

    def __rsub__(self, other):
        """A rational minus the interval."""
        if self.exact is not None:
            return RatInterval.of(-self.exact + other)
        q = Fraction(other)
        return RatInterval(q - self.hi, q - self.lo)

    def __mul__(self, k):
        """The interval times a rational factor k >= 0."""
        k = Fraction(k)
        if k < 0:
            raise ValueError("factor %s < 0 would put the endpoints out of order" % k)
        if self.exact is not None:
            return RatInterval.of(self.exact * k)
        return RatInterval(self.lo * k, self.hi * k)

    __rmul__ = __mul__

    # three-valued strict comparisons: True/False when provable, None otherwise;
    # an exact value is always decided
    def provably_lt(self, x) -> bool | None:
        if self.exact is not None:
            return self.exact < x
        x = Fraction(x)
        if self.hi < x:
            return True
        if self.lo >= x:
            return False
        return None

    def provably_gt(self, x) -> bool | None:
        if self.exact is not None:
            return self.exact > x
        return (x - self).provably_lt(0)        # x - self is [x - hi, x - lo]

    def __float__(self) -> float:
        return float(self.exact) if self.exact is not None else float(self.mid)
