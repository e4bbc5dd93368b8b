"""Central-charge and slope arithmetic for the integral stability condition on
a curve: Euler pairings, lattice-point counts, the well-approximation
inequality, and selection of well-approximated even convergents.

All verdicts are decided with exact rationals or quadratic surds; an interval
value for theta yields three-valued answers (True / False / None) rather than
a float guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .contfrac import ContinuedFraction, convergents
from .surd import QuadraticSurd, RatInterval


@dataclass(frozen=True)
class KClass:
    """Integer (degree, rank) pair with central charge Z = -deg + i rk."""

    deg: int
    rk: int

    def __post_init__(self):
        if self.rk < 0:
            raise ValueError("rank must be >= 0")
        if self.deg == 0 and self.rk == 0:
            raise ValueError("the zero class has no slope")

    @property
    def charge(self) -> complex:
        return complex(-self.deg, self.rk)


@dataclass(frozen=True)
class WellApproxParams:
    """Threshold constant L >= 1, the target irrational, and the genus."""

    L: Fraction
    theta: Fraction | QuadraticSurd | RatInterval | None = None
    genus: int = 1

    def __post_init__(self):
        object.__setattr__(self, "L", Fraction(self.L))
        if self.L < 1:
            raise ValueError("threshold constant must be >= 1")
        if self.genus < 1:
            raise ValueError("genus must be >= 1")


def slope(c: KClass) -> Fraction | float:
    """deg/rk as an exact rational, +inf for torsion classes (rk = 0)."""
    if c.rk == 0:
        return math.inf
    return Fraction(c.deg, c.rk)


def euler_pairing(F: KClass, E: KClass, g: int) -> int:
    """chi(F, E) = deg(E) rk(F) - deg(F) rk(E) + rk(F) rk(E) (1 - g)."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    return E.deg * F.rk - F.deg * E.rk + F.rk * E.rk * (1 - g)


def hom_one_dim(F: KClass, E: KClass, g: int) -> int:
    """h^1(F, E) = -chi(F, E) for stable pairs with mu(F) > mu(E) (h^0 = 0)."""
    if not slope(F) > slope(E):
        raise ValueError("h^1 shortcut needs mu(F) > mu(E)")
    return -euler_pairing(F, E, g)


def _column_bounds(a: int, b: int, d: int) -> tuple:
    """Least and greatest integer y with 0 < a + b y < d (lo > hi when none).

    The condition is unchanged under (a, b) -> (d - a, -b), which makes b >= 0;
    at b = 0 it holds for every y or for none."""
    if b < 0:
        a, b = d - a, -b
    if b == 0:
        return (-math.inf, math.inf) if 0 < a < d else (1, 0)
    return -a // b + 1, (d - a - 1) // b


def lattice_interior_count(v1: tuple[int, int], v3: tuple[int, int]) -> int:
    """Lattice points strictly inside the parallelogram spanned by v1, v3.

    Counted column by column: for each x, the integers y with
    (x, y) = s v1 + t v3, 0 < s, t < 1, solved exactly.  Cross-checked in
    place against Pick's theorem (interior = area - boundary/2 + 1).
    """
    (x1, y1), (x3, y3) = v1, v3
    det = x1 * y3 - y1 * x3
    if det == 0:
        raise ValueError("vectors are parallel; the parallelogram is degenerate")
    sign, d = (1, det) if det > 0 else (-1, -det)
    xs = [0, x1, x3, x1 + x3]
    count = 0
    for x in range(min(xs), max(xs) + 1):
        # d s = sign (x y3 - y x3) and d t = sign (y x1 - x y1) must lie in (0, d)
        s_lo, s_hi = _column_bounds(sign * x * y3, -sign * x3, d)
        t_lo, t_hi = _column_bounds(-sign * x * y1, sign * x1, d)
        count += max(0, min(s_hi, t_hi) - max(s_lo, t_lo) + 1)
    boundary = 2 * (math.gcd(abs(x1), abs(y1)) + math.gcd(abs(x3), abs(y3)))
    pick = d - boundary // 2 + 1
    if count != pick:
        raise AssertionError("column count (%d) disagrees with Pick count (%d)" % (count, pick))
    return count


@dataclass(frozen=True)
class WellApproxVerdict:
    passes: bool | None          # None when an interval theta cannot decide
    lhs: object                  # L (theta - mu(S)) rk S
    rhs: Fraction                # rk S0 (mu(S) - mu(S0))
    margin: object               # rhs - lhs

    def __bool__(self):
        if self.passes is None:
            raise ValueError("undecided verdict has no truth value")
        return self.passes


def well_approx_check(S: KClass, S0: KClass, params: WellApproxParams) -> WellApproxVerdict:
    """Strict inequality L (theta - mu(S)) rk S < rk S0 (mu(S) - mu(S0))."""
    if not 1 <= S0.rk < S.rk:
        raise ValueError("need 1 <= rk(S0) < rk(S), got %d and %d" % (S0.rk, S.rk))
    theta = params.theta
    if theta is None:
        raise ValueError("params.theta is required")
    muS, muS0 = slope(S), slope(S0)
    rhs = S0.rk * (muS - muS0)
    if isinstance(theta, RatInterval):
        lhs = (theta - muS).scale(params.L * S.rk)
        passes = lhs.provably_lt(rhs)
        margin = RatInterval(rhs - lhs.hi, rhs - lhs.lo)
        return WellApproxVerdict(passes, lhs, rhs, margin)
    lhs = (theta - muS) * S.rk * params.L
    return WellApproxVerdict(lhs < rhs, lhs, rhs, rhs - lhs)


def charge_combine(triangle, m: int, n: int) -> KClass:
    """Class with charge -(m p1 + n p3) + i (m q1 + n q3) from the outer vertices."""
    if m < 0 or n < 0 or (m, n) == (0, 0):
        raise ValueError("need nonnegative (m, n) != (0, 0)")
    v1, v3 = triangle.left, triangle.right
    return KClass(m * v1.p + n * v3.p, m * v1.q + n * v3.q)


def build_sequence(theta: ContinuedFraction, count: int) -> list[KClass]:
    """Classes (deg, rk) = (p_{2i}, q_{2i}) from the even convergents."""
    if count < 1:
        raise ValueError("count must be >= 1")
    n = 2 * (count - 1)
    if n > theta.available:
        raise ValueError("need %d digits for %d even convergents, have %d"
                         % (n, count, len(theta.tail)))
    cs = convergents(theta, n)
    return [KClass(cs[2 * i].p, cs[2 * i].q) for i in range(count)]


@dataclass(frozen=True)
class SubsequenceEntry:
    i: int
    p: int
    q: int
    product: object              # exact surd/rational or RatInterval
    passes: bool | None

    @property
    def product_float(self) -> float:
        return float(self.product)


@dataclass
class SubsequenceReport:
    L: Fraction
    entries: list[SubsequenceEntry]

    @property
    def passing(self) -> list[int]:
        return [e.i for e in self.entries if e.passes is True]

    @property
    def undecided(self) -> list[int]:
        return [e.i for e in self.entries if e.passes is None]


def _theta_value(theta: ContinuedFraction):
    if theta.source == "periodic":
        return theta.value()
    if theta.source == "finite":
        raise ValueError("theta must be irrational (periodic or truncated)")
    return theta.value_interval()


def select_subsequence(theta: ContinuedFraction, params: WellApproxParams,
                       count: int) -> SubsequenceReport:
    """Even convergents passing L |theta - p_{2i}/q_{2i}| q_{2i}^2 < 1.

    Products are exact for periodic theta (quadratic surd arithmetic) and
    interval-valued otherwise; entries whose interval straddles 1 are flagged
    as undecided instead of silently dropped.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    L = params.L
    value = _theta_value(theta)
    n = 2 * (count - 1)
    cs = convergents(theta, min(n, len(theta.tail)) if theta.source != "periodic" else n)
    entries = []
    for i in range(count):
        if 2 * i >= len(cs):
            break
        c = cs[2 * i]
        lam = Fraction(c.p, c.q)
        scale = L * c.q * c.q
        if isinstance(value, RatInterval):
            diff = value - lam
            if diff.lo >= 0:
                absdiff = diff
            elif diff.hi <= 0:
                absdiff = -diff
            else:
                absdiff = RatInterval(Fraction(0), max(-diff.lo, diff.hi))
            prod = absdiff.scale(scale)
            passes = prod.provably_lt(1)
        else:
            d = value - lam
            prod = (d if d >= 0 else -d) * scale
            passes = prod < 1
        entries.append(SubsequenceEntry(i, c.p, c.q, prod, passes))
    return SubsequenceReport(L, entries)


def min_destabilizing_gap(S: KClass) -> Fraction:
    """Brute-force min of rk(S0) (mu(S) - mu(S0)) over 1 <= rk(S0) < rk(S),
    mu(S0) < mu(S).  Equals 1/rk(S) for a primitive class."""
    if S.rk < 2:
        raise ValueError("need rk(S) >= 2")
    mu = slope(S)
    best = None
    for r0 in range(1, S.rk):
        d0 = math.floor(mu * r0)
        if Fraction(d0, r0) == mu:
            d0 -= 1
        gap = r0 * (mu - Fraction(d0, r0))
        if best is None or gap < best:
            best = gap
    return best
