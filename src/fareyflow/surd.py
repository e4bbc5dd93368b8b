"""Exact arithmetic helpers: quadratic surds and rational-endpoint intervals.

A quadratic surd is a number (a + b*sqrt(D))/c with integer a, b, c and a
squarefree integer D > 1.  All arithmetic here is exact (big integers only),
so strict inequalities decided with these values are decided correctly --
no floating point enters until the caller asks for a float rendering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s**2 * f and f squarefree.  Requires n > 0."""
    if n <= 0:
        raise ValueError("need a positive integer, got %r" % (n,))
    s, f, m = 1, 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    return s, f * m


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
            a, b, D = a + b * s, 0, 0
        else:
            b, D = b * s, f
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
        if a >= 0 and b > 0:
            return 1
        if a <= 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 D
        lhs, rhs = a * a, b * b * D
        if lhs == rhs:
            return 0
        bigger_is_a = lhs > rhs
        return (1 if a > 0 else -1) if bigger_is_a else (1 if b > 0 else -1)

    def _coerce(self, other) -> "QuadraticSurd":
        if isinstance(other, QuadraticSurd):
            if self.D and other.D and self.D != other.D:
                raise ValueError("surds from different fields: sqrt(%d) vs sqrt(%d)"
                                 % (self.D, other.D))
            return other
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return QuadraticSurd(q.numerator, 0, self.D or 2, q.denominator)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        D = self.D or o.D or 2
        return QuadraticSurd(self.a * o.c + o.a * self.c,
                             self.b * o.c + o.b * self.c, D, self.c * o.c)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.a, -self.b, self.D or 2, self.c)

    def __sub__(self, other):
        o = self._coerce(other)
        return self.__add__(-o) if o is not NotImplemented else o

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        D = self.D or o.D or 2
        a = self.a * o.a + self.b * o.b * D
        b = self.a * o.b + self.b * o.a
        return QuadraticSurd(a, b, D, self.c * o.c)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticSurd":
        a, b, c, D = self.a, self.b, self.c, self.D or 2
        n = a * a - b * b * (self.D or 0)
        if n == 0:
            raise ZeroDivisionError("inverting zero surd")
        return QuadraticSurd(a * c, -b * c, D, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        return self.__mul__(o.inverse()) if o is not NotImplemented else o

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o.__mul__(self.inverse()) if o is not NotImplemented else o

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadraticSurd)):
            o = self._coerce(other)
            return (self - o).sign() == 0
        return NotImplemented

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    def __hash__(self):
        if self.is_rational:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.D))

    def __repr__(self):
        if self.b == 0:
            return "QuadraticSurd(%d/%d)" % (self.a, self.c)
        return "QuadraticSurd((%d %+d*sqrt(%d))/%d)" % (self.a, self.b, self.D, self.c)

    # --- floor and rational enclosures -------------------------------------
    def floor(self) -> int:
        a, b, c, D = self.a, self.b, self.c, self.D
        if b == 0:
            return a // c
        root = math.isqrt(b * b * D)
        num_lo = a + (root if b > 0 else -(root + 1))
        n = num_lo // c
        # num_lo underestimates the numerator by < 1, so at most one step up
        while self >= n + 1:
            n += 1
        return n

    def enclosure(self, bits: int = 96) -> "RatInterval":
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
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order: %s > %s" % (self.lo, self.hi))

    @classmethod
    def point(cls, x) -> "RatInterval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "RatInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __add__(self, other):
        if isinstance(other, RatInterval):
            return RatInterval(self.lo + other.lo, self.hi + other.hi)
        q = Fraction(other)
        return RatInterval(self.lo + q, self.hi + q)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        if isinstance(other, RatInterval):
            return self + (-other)
        return self + (-Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, k) -> "RatInterval":
        k = Fraction(k)
        if k >= 0:
            return RatInterval(self.lo * k, self.hi * k)
        return RatInterval(self.hi * k, self.lo * k)

    def __mul__(self, other):
        if isinstance(other, RatInterval):
            cands = [self.lo * other.lo, self.lo * other.hi,
                     self.hi * other.lo, self.hi * other.hi]
            return RatInterval(min(cands), max(cands))
        return self.scale(other)

    __rmul__ = __mul__

    def inverse(self) -> "RatInterval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval %s contains zero" % (self,))
        return RatInterval(1 / self.hi, 1 / self.lo)

    # three-valued strict comparisons: True/False when provable, None otherwise
    def provably_lt(self, x) -> bool | None:
        x = Fraction(x)
        if self.hi < x:
            return True
        if self.lo >= x:
            return False
        return None

    def provably_gt(self, x) -> bool | None:
        x = Fraction(x)
        if self.lo > x:
            return True
        if self.hi <= x:
            return False
        return None

    def __float__(self):
        return float(self.mid)
