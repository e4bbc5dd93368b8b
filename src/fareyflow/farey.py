"""Primitive integral vectors, mediants, Farey triangles, Stern-Brocot walks.

A reduced fraction p/q (q >= 0, gcd = 1) doubles as the primitive integral
vector (p, q); q = 0 encodes the point at infinity 1/0.  All tests here are
exact integer identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PrimitiveVector:
    p: int
    q: int

    def __post_init__(self):
        if (self.p, self.q) == (0, 0):
            raise ValueError("(0, 0) is not primitive")
        if self.q < 0:
            raise ValueError("use q >= 0 (canonical form)")
        if self.q == 0 and self.p != 1:
            raise ValueError("infinity is 1/0, not %d/0 (canonical form)" % self.p)
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("(%d, %d) is not reduced" % (self.p, self.q))

    @classmethod
    def make(cls, p: int, q: int) -> "PrimitiveVector":
        """Reduce and canonicalize (q >= 0; infinity becomes 1/0)."""
        if (p, q) == (0, 0):
            raise ValueError("(0, 0) is not primitive")
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        if q == 0:
            p = 1
        return cls(p, q)

    @classmethod
    def from_fraction(cls, r) -> "PrimitiveVector":
        r = Fraction(r)
        return cls.make(r.numerator, r.denominator)

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    def __lt__(self, other: "PrimitiveVector"):
        # p/q < p'/q' as extended rationals, 1/0 largest: with both q > 0 that
        # is p q' < p' q, and otherwise it holds when only `other` is 1/0
        if self.q and other.q:
            return self.p * other.q < other.p * self.q
        return other.q < self.q

    def __str__(self):
        return "%d/%d" % (self.p, self.q)


def _as_vec(x) -> PrimitiveVector:
    if isinstance(x, PrimitiveVector):
        return x
    if isinstance(x, tuple):
        return PrimitiveVector.make(*x)
    return PrimitiveVector.from_fraction(x)


def mediant(a, b) -> PrimitiveVector:
    """(p_a + p_b)/(q_a + q_b), reduced."""
    a, b = _as_vec(a), _as_vec(b)
    return PrimitiveVector.make(a.p + b.p, a.q + b.q)


def is_farey_triangle(left, middle, right) -> tuple[bool, str | None]:
    """Check the mediant and unimodularity conditions; name the first failure."""
    t = tuple(_as_vec(v) for v in (left, middle, right))
    v1, v2, v3 = t
    if not (v1 < v2 < v3):
        return False, "ordering p1/q1 < p2/q2 < p3/q3 fails"
    if v2.p != v1.p + v3.p or v2.q != v1.q + v3.q:
        return False, "mediant condition p2 = p1 + p3, q2 = q1 + q3 fails"
    # v2 = v1 + v3 makes p3 q2 - p2 q3 equal to p2 q1 - q2 p1: one test suffices
    if v2.p * v1.q - v2.q * v1.p != 1:
        return False, "unimodularity p2 q1 - q2 p1 = 1 fails"
    return True, None


@dataclass(frozen=True)
class FareyTriangle:
    left: PrimitiveVector
    middle: PrimitiveVector
    right: PrimitiveVector

    def __post_init__(self):
        ok, why = is_farey_triangle(self.left, self.middle, self.right)
        if not ok:
            raise ValueError("not a Farey triangle: %s" % why)
        if self.middle.is_infinite:
            raise ValueError("triangle middle must be a finite rational")

    @classmethod
    def make(cls, left, middle, right) -> "FareyTriangle":
        return cls(_as_vec(left), _as_vec(middle), _as_vec(right))

    def __str__(self):
        return "(%s, %s, %s)" % (self.left, self.middle, self.right)


def stern_brocot_path(r) -> tuple[str, list[FareyTriangle]]:
    """Walk the mediant tree from 1/1 down to a positive reduced fraction.

    Returns the L/R move string and the Farey triangles (lo, mediant, hi)
    visited along the way, the last one having the target as its middle.
    """
    if isinstance(r, tuple):
        p, q = r
        if math.gcd(p, q) != 1:
            raise ValueError("%d/%d is not reduced" % (p, q))
        target = PrimitiveVector(p, q)
    else:
        target = _as_vec(r)
    if target.is_infinite or target.p <= 0 or target.q <= 0:
        raise ValueError("target must be a positive finite rational")
    lo, hi = PrimitiveVector(0, 1), PrimitiveVector(1, 0)
    cur = mediant(lo, hi)
    moves: list[str] = []
    triangles: list[FareyTriangle] = []
    while cur != target:
        if target < cur:
            hi = cur
            moves.append("L")
        else:
            lo = cur
            moves.append("R")
        cur = mediant(lo, hi)
        if not hi.is_infinite:
            triangles.append(FareyTriangle(lo, cur, hi))
    return "".join(moves), triangles


def enumerate_triangles(max_q: int):
    """All Farey triangles with vertices in [0, 1] and denominators <= max_q.

    Every Farey triangle is an integer translate of one with left vertex in
    [0, 1), so up to translation this enumeration is exhaustive.
    """
    stack = [(PrimitiveVector(0, 1), PrimitiveVector(1, 1))]
    while stack:
        a, b = stack.pop()
        if a.q + b.q > max_q:
            continue
        m = mediant(a, b)
        yield FareyTriangle(a, m, b)
        stack.append((a, m))
        stack.append((m, b))
