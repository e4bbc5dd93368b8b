"""Continued fractions with exact digits: convergents, semiconvergents, tail
values, parity-restricted Lagrange numbers, and Gauss-map digit statistics.

Digits, convergents and periodic tails are handled with exact big-integer /
rational arithmetic.  Only inputs truncated from a real carry uncertainty,
and that uncertainty is tracked as a rational interval, never as float noise.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .surd import QuadraticSurd, RatInterval

_MAX_PERIOD_SEARCH = 200_000
_ENCLOSE_BITS = 120          # precision of the rational enclosure of an irrational surd


@dataclass(frozen=True)
class Enclosure:
    """Interval enclosure, optionally carrying the exact value it encloses."""

    lo: Fraction
    hi: Fraction
    exact: Fraction | QuadraticSurd | None = None

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def interval(self) -> RatInterval:
        return RatInterval(self.lo, self.hi)

    def __float__(self) -> float:
        if self.exact is not None:
            return float(self.exact)
        return float((self.lo + self.hi) / 2)


def _enclose(value: Fraction | QuadraticSurd) -> Enclosure:
    if isinstance(value, QuadraticSurd):         # periodic, so irrational
        iv = value.enclosure(_ENCLOSE_BITS)
        return Enclosure(iv.lo, iv.hi, value)
    value = Fraction(value)
    return Enclosure(value, value, value)


@dataclass(frozen=True)
class ContinuedFraction:
    """[a0; a1, a2, ...] with digits a_i >= 1 for i >= 1.

    `tail` holds the explicit digits after a0.  A nonempty `period` makes the
    digit stream eventually periodic (quadratic irrational); `exact=False`
    marks digits truncated from a real, with `error_bound` a rigorous bound on
    the distance between the real and the value of the recorded digits.
    """

    a0: int
    tail: tuple[int, ...] = ()
    period: tuple[int, ...] = ()
    exact: bool = True
    error_bound: Fraction | None = None
    exhausted: bool = False

    def __post_init__(self):
        if any(a < 1 for a in self.tail) or any(a < 1 for a in self.period):
            raise ValueError("partial quotients a_i must be >= 1 for i >= 1")
        if self.period and not self.exact:
            raise ValueError("periodic digits are exact by construction")

    @property
    def source(self) -> str:
        if self.period:
            return "periodic"
        return "finite" if self.exact else "real-truncated"

    @property
    def available(self) -> float:
        """Largest digit index available (inf for periodic sources)."""
        return math.inf if self.period else len(self.tail)

    def digit(self, i: int) -> int:
        if i == 0:
            return self.a0
        if i - 1 < len(self.tail):
            return self.tail[i - 1]
        if self.period:
            return self.period[(i - 1 - len(self.tail)) % len(self.period)]
        raise IndexError("digit %d requested but only %d digits available" % (i, len(self.tail)))

    def digits(self, n: int) -> list[int]:
        """Digits a_0 .. a_n."""
        return [self.digit(i) for i in range(n + 1)]

    def value(self) -> Fraction | QuadraticSurd:
        """Exact value; raises for truncated sources (use value_interval)."""
        if self.source == "finite":
            return _fold_finite([self.a0, *self.tail])
        if self.source == "periodic":
            return _periodic_tail_surd(self, 0)
        raise ValueError("truncated continued fraction has no exact value")

    def value_interval(self) -> RatInterval:
        if self.source == "finite":
            v = _fold_finite([self.a0, *self.tail])
            return RatInterval(v, v)
        if self.source == "periodic":
            return _periodic_tail_surd(self, 0).enclosure()
        iv = _cylinder([self.a0, *self.tail])
        if self.error_bound is not None:
            v = _fold_finite([self.a0, *self.tail])
            lo = max(iv.lo, v - self.error_bound)
            hi = min(iv.hi, v + self.error_bound)
            if lo <= hi:
                iv = RatInterval(lo, hi)
        return iv


@dataclass(frozen=True)
class Convergent:
    index: int
    p: int
    q: int

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("convergent denominator must be positive")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("convergent %d/%d is not reduced" % (self.p, self.q))

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.p, self.q)


# ----------------------------------------------------------------------------
# digit extraction


def cf_expand(x, max_depth: int) -> ContinuedFraction:
    """Expand a rational, quadratic surd, float, or decimal string.

    Rationals terminate exactly.  Quadratic surds get their eventual period
    detected exactly by repetition of the Gauss-map state.  Floats and decimal
    strings are treated as intervals; digits stop (with the `exhausted` flag)
    as soon as the next digit is ambiguous within the input's precision: 4
    ulp around a float, half a unit of the last decimal place of a string.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if isinstance(x, QuadraticSurd):
        if x.is_rational:
            return _expand_fraction(x.as_fraction())
        return _expand_surd(x)
    if isinstance(x, (int, Fraction)):
        return _expand_fraction(Fraction(x))
    if isinstance(x, float):
        eps = Fraction(4 * math.ulp(abs(x) or 1.0))
        v = Fraction(x)
        return _expand_interval(v - eps, v + eps, max_depth)
    if isinstance(x, str):
        v = Fraction(x)
        places = len(x.split(".")[1]) if "." in x else 0
        radius = Fraction(1, 2 * 10 ** places) if places else Fraction(0)
        if radius == 0:
            return _expand_fraction(v)
        return _expand_interval(v - radius, v + radius, max_depth)
    raise TypeError("cannot expand %r" % (x,))


def _expand_fraction(v: Fraction) -> ContinuedFraction:
    p, q = v.numerator, v.denominator
    digits = []
    while q:
        a, p = divmod(p, q)
        digits.append(a)
        p, q = q, p
    return ContinuedFraction(digits[0], tuple(digits[1:]))


def _expand_surd(x: QuadraticSurd) -> ContinuedFraction:
    seen: dict[tuple, int] = {}
    digits: list[int] = []
    for k in range(_MAX_PERIOD_SEARCH):
        key = (x.a, x.b, x.c, x.D)
        if key in seen:
            i = seen[key]
            word = digits[i:]
            if i == 0:
                # purely periodic stream: rotate so a0 sits outside the period
                return ContinuedFraction(word[0], (), tuple(word[1:] + word[:1]))
            return ContinuedFraction(digits[0], tuple(digits[1:i]), tuple(word))
        seen[key] = k
        a = x.floor()
        digits.append(a)
        x = (x - a).inverse()
    raise RuntimeError("period not found within %d Gauss-map steps" % _MAX_PERIOD_SEARCH)


def _expand_interval(lo: Fraction, hi: Fraction, max_depth: int) -> ContinuedFraction:
    orig_lo, orig_hi = lo, hi
    digits: list[int] = []
    exhausted = True
    for _ in range(max_depth + 1):
        alo, ahi = lo.__floor__(), hi.__floor__()
        if alo != ahi:
            break
        digits.append(alo)
        lo, hi = lo - alo, hi - alo
        if lo <= 0:          # remainder interval touches zero: next digit unknowable
            break
        lo, hi = 1 / hi, 1 / lo
    else:
        exhausted = False
    if not digits:
        raise ValueError("input interval too wide for even one digit")
    v = _fold_finite(digits)
    bound = max(v - orig_lo, orig_hi - v)
    return ContinuedFraction(digits[0], tuple(digits[1:]), exact=False,
                             error_bound=bound, exhausted=exhausted)


# ----------------------------------------------------------------------------
# convergents and semiconvergents


def _fold_finite(digits) -> Fraction:
    v = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        v = a + 1 / v
    return v


def _convergent_pair(digits) -> tuple[int, int, int, int]:
    """(p_n, q_n, p_{n-1}, q_{n-1}) for a finite digit word."""
    pm1, qm1 = 1, 0
    p, q = digits[0], 1
    for a in digits[1:]:
        p, pm1 = a * p + pm1, p
        q, qm1 = a * q + qm1, q
    return p, q, pm1, qm1


def _cylinder(digits) -> RatInterval:
    """Interval of all reals whose expansion starts with the given digits."""
    p, q, pm1, qm1 = _convergent_pair(digits)
    e1 = Fraction(p, q)
    e2 = Fraction(p + pm1, q + qm1)
    return RatInterval(min(e1, e2), max(e1, e2))


def convergents(cf: ContinuedFraction, n: int) -> list[Convergent]:
    """beta_0 .. beta_n = p_i/q_i by the standard three-term recurrence."""
    if n > cf.available:
        raise ValueError("requested %d convergents but only %d digits available"
                         % (n, len(cf.tail)))
    out = []
    pm1, qm1 = 1, 0
    p, q = cf.a0, 1
    out.append(Convergent(0, p, q))
    for i in range(1, n + 1):
        a = cf.digit(i)
        p, pm1 = a * p + pm1, p
        q, qm1 = a * q + qm1, q
        out.append(Convergent(i, p, q))
    return out


def semiconvergents(cf: ContinuedFraction, i: int, m_max: int) -> list[Fraction]:
    """beta_{i,m} = (p_i + m p_{i+1})/(q_i + m q_{i+1}) for m = 0..m_max."""
    if i + 2 > cf.available:
        raise ValueError("semiconvergents at index %d need digit %d" % (i, i + 2))
    a_next = cf.digit(i + 2)
    if not 0 <= m_max <= a_next:
        raise ValueError("m_max = %d out of range [0, a_%d = %d]" % (m_max, i + 2, a_next))
    cs = convergents(cf, i + 1)
    pi, qi = cs[i].p, cs[i].q
    pj, qj = cs[i + 1].p, cs[i + 1].q
    return [Fraction(pi + m * pj, qi + m * qj) for m in range(m_max + 1)]


# ----------------------------------------------------------------------------
# tail values


def _pure_periodic_value(word) -> QuadraticSurd:
    """Exact value of the purely periodic continued fraction with this word."""
    p, q, pm1, qm1 = _convergent_pair(list(word))
    # x = (p x + pm1)/(q x + qm1)  =>  q x^2 + (qm1 - p) x - pm1 = 0
    A, B, C = q, qm1 - p, -pm1
    disc = B * B - 4 * A * C
    return QuadraticSurd(-B, 1, disc, 2 * A)


def _periodic_tail_surd(cf: ContinuedFraction, k: int) -> QuadraticSurd:
    """Exact [a_k; a_{k+1}, ...] for a periodic continued fraction."""
    m = len(cf.period)
    ell = len(cf.tail)
    start = max(k, ell + 1)
    off = (start - ell - 1) % m
    word = tuple(cf.period[(off + j) % m] for j in range(m))
    x = _pure_periodic_value(word)
    for i in range(start - 1, k - 1, -1):
        x = cf.digit(i) + x.inverse()
    return x


def tail_value(cf: ContinuedFraction, k: int, depth: int) -> Enclosure:
    """Rigorous enclosure of the tail [a_k; a_{k+1}, ...].

    Periodic sources give the exact quadratic value; finite sources the exact
    rational; truncated sources a cylinder interval built from up to depth+1
    recorded digits (deeper enclosures nest inside shallower ones).
    """
    if k < 0:
        raise ValueError("tail position must be >= 0")
    if cf.source == "periodic":
        return _enclose(_periodic_tail_surd(cf, k))
    if k > cf.available:
        raise IndexError("tail at %d exceeds available depth %d" % (k, len(cf.tail)))
    digits = [cf.digit(i) for i in range(k, len(cf.tail) + 1)]
    if cf.source == "finite":
        return _enclose(_fold_finite(digits))
    use = digits[:depth + 2]
    iv = _cylinder(use)
    return Enclosure(iv.lo, iv.hi, None)


# ----------------------------------------------------------------------------
# Lagrange numbers in parity


@dataclass
class LagrangeEstimate:
    """Finite-depth estimate of a parity-restricted Lagrange number.

    `terms` are the per-index values t_i = (forward tail) + (reversed tail);
    the parity Lagrange number is limsup t_i.  `running` traces the prefix
    maximum of the term enclosures.  For periodic sources `estimate.exact`
    is the exact quadratic limsup and `attainable` is decided by inspecting
    one representative per period class; otherwise both stay heuristic.
    """

    parity: str
    terms: list[Enclosure]
    running: list[RatInterval]
    estimate: Enclosure
    attainable: bool | None = None
    truncated: bool = False
    definition_indices: list[int] | None = None
    definition_undecided: list[int] | None = None

    @property
    def depth(self) -> int:
        return len(self.terms)


def _reversed_ratio(cf: ContinuedFraction, s: int) -> Fraction:
    """[0; a_{s-1}, ..., a_1] = q_{s-2}/q_{s-1} (0 when s <= 1)."""
    if s <= 1:
        return Fraction(0)
    qm1, q = 0, 1
    for i in range(1, s):
        qm1, q = q, cf.digit(i) * q + qm1
    return Fraction(qm1, q)


def _parity_classes(cf: ContinuedFraction, parity: str):
    """Exact limsup data for a periodic cf: one (T, R_inf) pair per class."""
    m = len(cf.period)
    ell = len(cf.tail)
    base = 1 if parity == "even" else 2
    offs = sorted({(base - ell - 1 + 2 * i) % m for i in range(m)})
    out = []
    for off in offs:
        word_fwd = tuple(cf.period[(off + j) % m] for j in range(m))
        word_rev = tuple(cf.period[(off - 1 - j) % m] for j in range(m))
        T = _pure_periodic_value(word_fwd)
        R = _pure_periodic_value(word_rev).inverse()
        # smallest digit position s >= ell+1 of this class, pushed one period
        # deeper so the finite reversed word is entirely in the periodic zone
        s = base
        while s < ell + 1 or (s - ell - 1) % m != off:
            s += 2
        s += 2 * m
        out.append((off, T, R, s))
    return out


def lagrange_estimate(cf: ContinuedFraction, parity: str, i_max: int,
                      tail_depth: int, check_L=None) -> LagrangeEstimate:
    """Estimate the even (i=0) or odd (i=1) Lagrange number of the source.

    Each term is [a_{2i+1}; a_{2i+2}, ...] + [0; a_{2i}, ..., a_1] for even
    parity (indices shifted by one for odd).  The reversed part is computed
    exactly as q_{s-2}/q_{s-1}; the forward tail exactly for periodic sources
    and as a tail-cylinder enclosure otherwise.  With `check_L` given, the
    indices whose convergents satisfy |theta - p/q| < 1/(L q^2) are reported
    (that inequality is equivalent to t_i > L).
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if cf.source == "finite":
        raise ValueError("Lagrange numbers are defined for irrational sources")
    base = 1 if parity == "even" else 2

    terms: list[Enclosure] = []
    truncated = False
    for i in range(i_max + 1):
        s = base + 2 * i
        if cf.source != "periodic" and s + 1 > cf.available:
            truncated = True
            break
        R = _reversed_ratio(cf, s)
        if cf.source == "periodic":
            terms.append(_enclose(_periodic_tail_surd(cf, s) + R))
        else:
            T = tail_value(cf, s, tail_depth)
            terms.append(Enclosure(T.lo + R, T.hi + R, None))

    running: list[RatInterval] = []
    lo = hi = None
    for t in terms:
        lo = t.lo if lo is None else max(lo, t.lo)
        hi = t.hi if hi is None else max(hi, t.hi)
        running.append(RatInterval(lo, hi))

    attainable = None
    if cf.source == "periodic":
        classes = _parity_classes(cf, parity)
        best = None
        for _, T, R, _ in classes:
            cand = T + R
            if best is None or cand > best:
                best = cand
        estimate = _enclose(best)
        attainable = False
        for _, T, R_inf, s in classes:
            if T + R_inf == best and _reversed_ratio(cf, s) > R_inf:
                attainable = True
                break
    else:
        estimate = (Enclosure(running[-1].lo, running[-1].hi, None)
                    if running else Enclosure(Fraction(1), Fraction(10 ** 9), None))

    passing = undecided = None
    if check_L is not None:
        L = Fraction(check_L)
        passing, undecided = [], []
        for i, t in enumerate(terms):
            if t.exact is not None:
                if t.exact > L:
                    passing.append(i)
            else:
                verdict = t.interval().provably_gt(L)
                if verdict is True:
                    passing.append(i)
                elif verdict is None:
                    undecided.append(i)

    return LagrangeEstimate(parity, terms, running, estimate, attainable,
                            truncated, passing, undecided)


# ----------------------------------------------------------------------------
# Gauss-map digit statistics


@dataclass
class DigitDensity:
    digit: int
    parity: str
    empirical: float | None
    reference: float
    stderr: float | None
    positions_per_sample: int
    samples: int
    short_expansions: int = 0
    euclid_steps: int = 0           # quotients taken over all samples
    # how the expansions ran, not what they found: equality leaves them out
    batches: int = field(default=0, compare=False)
    helper_batches: int = field(default=0, compare=False)   # run in the helper process
    lehmer_rounds: int = field(default=0, compare=False)    # lane rounds that took quotients
    divmod_fallbacks: int = field(default=0, compare=False)


def gauss_kuzmin_density(digit: int) -> float:
    """Gauss-measure of the set {a_k = digit}: log2((d+1)^2 / (d(d+2)))."""
    d = digit
    return math.log2((d + 1) ** 2 / (d * (d + 2)))


# Samples per Lehmer batch: 4096 lanes keep two live 768-bit integers and a
# (9, 4096) int64 state each, about 2 MB, however many samples are drawn.
# One batch is live in this process and one in the density's helper process.
_LANES = 4096
# Leading bits per operand in a Lehmer round.  Every sum and product of a
# round stays below 2**63: a cofactor times its remainder is at most the
# round's leading word of q.
_WORD_BITS = 62


def _lehmer_round(x, y, k, depth, digit, burn_in, odd):
    """Single-word Euclid steps for every lane at once (Knuth's Algorithm L).

    `x`, `y` hold each lane's leading words of (q, p), both shifted by the
    same amount, and `k` the quotients it has taken so far.  A lane accepts
    the quotient of (x + a)/(y + c) while it equals that of (x + b)/(y + d):
    the true q'/p' lies between the two, so it has the same floor.  A lane
    that fails once is frozen (quotient 0) and left in place until fewer than
    half the columns still run.

    The state has one column per lane.  Rows 0, 2, 4 hold the triple
    (x, a, b) with x = a x0 + b y0, rows 1, 3, 5 the triple (y, c, d); a step
    subtracts quotient times the second triple from the first, and the two
    swap roles.  Rows 6-8 hold k, the hits and the counted positions of the
    round.  The returned state has every lane's first triple in rows 0, 2, 4,
    so the new pair is (a q + b p, c q + d p) with (a, c, b, d) in rows 2-5.
    """
    full = np.zeros((9, x.size), np.int64)
    full[0], full[1], full[2], full[5], full[6] = x, y, 1, 1, k
    S, cols, ok, f = full, None, True, 0
    while True:
        s = 1 - f
        den = S[s] + S[2 + s:6:2]
        ok = ok & (den[0] > 0) & (den[1] > 0) & (S[6] < depth)
        quot = (S[f] + S[2 + f:6:2]) // np.where(ok, den, 1)
        ok &= quot[0] == quot[1]
        running = np.count_nonzero(ok)
        if not running:
            break
        if 2 * running < ok.size:
            keep = np.flatnonzero(ok)
            if cols is not None:
                full[:, cols] = S
            cols = keep if cols is None else cols[keep]
            S, ok, quot = S.take(keep, axis=1), ok[keep], quot[:, keep]
        quot = quot[0] * ok
        S[f:6:2] -= quot * S[s:6:2]
        f = s
        S[6] += ok
        tally = ok & (S[6] > burn_in) & ((S[6] & 1) == odd)
        S[8] += tally
        S[7] += tally & (quot == digit)
    if cols is not None:
        full[:, cols] = S
    # a lane's triples swapped roles once per quotient it took
    flipped = np.flatnonzero((full[6] - k) & 1)
    full[2:6, flipped] = full[np.ix_([3, 2, 5, 4], flipped)]
    return full


def _leading_words(qs, ps):
    """Top `_WORD_BITS` bits of each q, and p shifted by the same amount."""
    shift = [t if t > 0 else 0 for t in [q.bit_length() - _WORD_BITS for q in qs]]
    return (np.array([q >> t for q, t in zip(qs, shift)], np.int64),
            np.array([p >> t for p, t in zip(ps, shift)], np.int64))


def _euclid_tally(qs, ps, depth, digit, burn_in, want_odd):
    """Euclid's algorithm on each pair (q, p), q > p >= 0, by Lehmer rounds.

    A pair stops after `depth` quotients or when p reaches 0.  The quotient
    at position k (from 1) is counted when k > burn_in and k has the wanted
    parity, and hits when it also equals `digit`.  Each round takes as many
    quotients as the leading words decide (`_lehmer_round`) and applies the
    lane's cofactor matrix to its big integers once; a lane that accepts none
    (a quotient too large or ambiguous for one word, or p shorter than the
    shift) takes one exact `divmod` step instead, so each round advances
    every live pair.  Returns lists (hits, cnt, steps, qs, ps) with the final
    pairs, then the number of lane rounds that took quotients and of `divmod`
    fall-backs; the input lists are left as they are.
    """
    n = len(qs)
    steps = np.zeros(n, np.int64)
    hits = np.zeros(n, np.int64)
    cnt = np.zeros(n, np.int64)
    odd = int(want_odd)
    rounds = fallbacks = 0
    idle = [not p or depth < 1 for p in ps]
    live = np.flatnonzero(np.logical_not(idle))
    lq = [qs[i] for i in live.tolist()]
    lp = [ps[i] for i in live.tolist()]
    # fresh output lists, so that the caller's inputs can go while pairs run
    qs = [q if i else None for q, i in zip(qs, idle)]
    ps = [p if i else None for p, i in zip(ps, idle)]
    for _ in range(depth):          # every round advances each live pair
        if not live.size:
            break
        k0 = steps[live]
        out = _lehmer_round(*_leading_words(lq, lp), k0, depth, digit, burn_in, odd)
        # in place, so that old and new remainders never coexist in full, and
        # a slice at a time, so that few cofactors exist as Python ints at once
        for lo in range(0, len(lq), 512):
            for j, a, c, b, d in zip(range(lo, len(lq)), *out[2:6, lo:lo + 512].tolist()):
                q, p = lq[j], lp[j]
                lq[j] = a * q + b * p
                lp[j] = c * q + d * p
        steps[live] = out[6]
        hits[live] += out[7]
        cnt[live] += out[8]
        slow = np.flatnonzero(out[6] == k0)
        del out                     # before the next round allocates its own
        rounds += live.size - slow.size
        fallbacks += slow.size
        if slow.size:
            hit = []
            for j in slow.tolist():
                quot, rem = divmod(lq[j], lp[j])
                lq[j], lp[j] = lp[j], rem
                hit.append(quot == digit)
            lanes = live[slow]
            steps[lanes] += 1
            tally = (steps[lanes] > burn_in) & ((steps[lanes] & 1) == odd)
            cnt[lanes] += tally
            hits[lanes] += tally & np.array(hit)
        going = steps[live] < depth
        if 0 in lp:
            going &= np.array([p != 0 for p in lp])
        if not going.all():
            for j in np.flatnonzero(~going).tolist():
                qs[live[j]], ps[live[j]] = lq[j], lp[j]
            keep = np.flatnonzero(going)
            live = live[keep]
            lq = [lq[j] for j in keep.tolist()]
            lp = [lp[j] for j in keep.tolist()]
    return hits.tolist(), cnt.tolist(), steps.tolist(), qs, ps, rounds, fallbacks


def _draw_and_tally(rng_state, n, bits, depth, digit, burn_in, want_odd):
    """Draw one batch of `n` samples from a generator in `rng_state` and
    expand them (`_euclid_tally`).

    Returns each sample's hit fraction in draw order, then the batch's
    quotients, short expansions, Lehmer lane rounds and `divmod` fall-backs.
    `gauss_digit_density` and its helper process both run batches here.
    """
    rng = random.Random()
    rng.setstate(rng_state)
    hits, cnt, steps, _, ps, rounds, fallbacks = _euclid_tally(
        [1 << bits] * n, [rng.getrandbits(bits) | 1 for _ in range(n)], depth, digit,
        burn_in, want_odd)
    short = sum(1 for k, p in zip(steps, ps) if not p and k < depth)
    return ([h / c if c else 0.0 for h, c in zip(hits, cnt)], sum(steps), short, rounds,
            fallbacks)


def gauss_digit_density(samples: int, depth: int, digit: int, parity: str,
                        seed: int, burn_in: int = 32, bits: int = 768) -> DigitDensity:
    """Empirical frequency of a digit at positions of one parity.

    Draws uniform reals in (0, 1) as exact dyadic rationals with `bits` random
    bits, expands each with integer Euclid steps, and counts positions of the
    requested parity past `burn_in` (the Gauss map needs a few iterations to
    reach its stationary digit law; the first positions are biased toward the
    Lebesgue law, so they are excluded from the tally).  The standard error is
    taken across samples, which is the honest scale given that digits within
    one expansion are correlated.

    The expansions run as Lehmer rounds (Lehmer 1938; Knuth, TAOCP vol. 2,
    4.5.2, Algorithm L) over batches of `_LANES` samples in draw order: numpy
    takes the quotients that the leading 62 bits of both remainders decide,
    and each sample's big integers are updated once per round.  A quotient is
    taken only when Knuth's two-quotient test proves it equal to the exact
    one, and a round that decides none falls back to one exact `divmod`, so
    the quotients, hit counts, short expansions and the per-sample float sums
    (added in sample order) are those of plain Euclid steps, bit for bit.

    The batches go in pairs: the first of each pair runs in this process and
    the second in one helper process, forked when there are two batches or
    more and joined before the call returns or raises.  Each batch draws its
    own samples from the generator state at its place in the stream, and the
    helper's results are added after those of its pair's first batch, so the
    split changes no bit.  A batch holds a few MB (see `_LANES`) on each
    side.  The helper needs the `fork` start method; where the platform has
    none, a call of more than one batch raises `ValueError`.
    """
    if digit < 1:
        raise ValueError("digit must be >= 1")
    if depth < 10:
        raise ValueError("depth must be >= 10")
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if depth <= burn_in:
        raise ValueError("depth must exceed burn_in = %d" % burn_in)
    reference = gauss_kuzmin_density(digit)
    if samples == 0:
        return DigitDensity(digit, parity, None, reference, None, 0, 0)

    want_odd = parity == "odd"
    rng = random.Random(seed)
    batches = []                    # (generator state, size) of each batch, in draw order
    for start in range(0, samples, _LANES):
        batches.append((rng.getstate(), min(_LANES, samples - start)))
        for _ in range(batches[-1][1]):
            rng.getrandbits(bits)   # the batch draws these itself
    work = (bits, depth, digit, burn_in, want_odd)
    if len(batches) > 1:
        # fork, not spawn: a spawned helper would import numpy and this package
        # again on every call; the pool forks before it starts its own threads
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        helper = ProcessPoolExecutor(1, multiprocessing.get_context("fork"))
    else:
        helper = contextlib.nullcontext()
    fractions_sum = 0.0
    fractions_sqsum = 0.0
    totals = [0, 0, 0, 0]           # quotients, short expansions, rounds, fall-backs
    with helper as pool:
        for i in range(0, len(batches), 2):
            helped = [pool.submit(_draw_and_tally, *b, *work) for b in batches[i + 1:i + 2]]
            results = [_draw_and_tally(*batches[i], *work)] + [h.result() for h in helped]
            for fractions, *counts in results:
                for f in fractions:
                    fractions_sum += f
                    fractions_sqsum += f * f
                totals = [t + c for t, c in zip(totals, counts)]
    mean = fractions_sum / samples
    var = max(fractions_sqsum / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / samples) if samples > 1 else None
    positions = sum(1 for k in range(burn_in + 1, depth + 1) if (k % 2 == 1) == want_odd)
    euclid_steps, short, rounds, fallbacks = totals
    return DigitDensity(digit, parity, mean, reference, stderr, positions, samples, short,
                        euclid_steps, len(batches), len(batches) // 2, rounds, fallbacks)
