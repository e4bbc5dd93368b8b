import math
import multiprocessing
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from fareyflow.cli import main
from fareyflow.contfrac import (_LANES, ContinuedFraction, DigitDensity,
                                _euclid_tally, cf_expand, convergents,
                                gauss_digit_density, gauss_kuzmin_density,
                                lagrange_estimate, semiconvergents, tail_value)
from fareyflow.reporting import read_journal, stable_view
from fareyflow.surd import QuadraticSurd

GOLDEN = QuadraticSurd(1, 1, 5, 2)
SQRT2 = QuadraticSurd(0, 1, 2, 1)


def fold(digits):
    v = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        v = a + 1 / v
    return v


# ----------------------------------------------------------------------------
# expansion


def test_expand_golden_period():
    cf = cf_expand(GOLDEN, 10)
    assert cf.source == "periodic"
    assert (cf.a0, cf.tail, cf.period) == (1, (), (1,))
    # tail value solves x = 1 + 1/x
    x = tail_value(cf, 1, 10).exact
    assert (x - 1 - x.inverse()).sign() == 0


def test_expand_sqrt2_period():
    cf = cf_expand(SQRT2, 8)
    assert (cf.a0, cf.period) == (1, (2,))
    x = tail_value(cf, 1, 8).exact       # tail solves (x-1)(x+1) = 2... x = 2 + 1/x
    assert (x * x - 2 * x - 1).sign() == 0


def test_expand_integer_and_rational():
    assert cf_expand(Fraction(3), 10).digits(0) == [3]
    cf = cf_expand(Fraction(355, 113), 10)
    assert fold(cf.digits(len(cf.tail))) == Fraction(355, 113)


def test_expand_float_records_bound():
    cf = cf_expand(math.pi, 12)
    assert cf.source == "real-truncated"
    assert cf.digits(3) == [3, 7, 15, 1]
    v = fold(cf.digits(len(cf.tail)))
    assert abs(Fraction(math.pi) - v) <= cf.error_bound


def test_expand_float_exhaustion_flag():
    cf = cf_expand(0.5, 40)
    assert cf.exhausted            # interval hits the rational 1/2
    deep = cf_expand(math.sqrt(2), 5)
    assert not deep.exhausted and len(deep.tail) == 5


def test_expand_decimal_string():
    cf = cf_expand("3.14159", 20)
    assert cf.digits(1) == [3, 7]
    assert cf.source == "real-truncated"


@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
def test_rational_roundtrip(p, q):
    v = Fraction(p, q)
    cf = cf_expand(v, 10)
    assert fold(cf.digits(len(cf.tail))) == v
    assert all(a >= 1 for a in cf.tail)


@settings(deadline=None, max_examples=40)
@given(st.integers(-8, 8), st.integers(1, 5), st.sampled_from([2, 3, 5, 6, 7, 10, 13]),
       st.integers(1, 7))
def test_surd_period_against_sympy(a, b, D, c):
    cf = cf_expand(QuadraticSurd(a, b, D, c), 10)
    # sympy expands (p + sqrt(d))/q; rewrite (a + b sqrt D)/c = (ac + sqrt(b^2 D c^2))/c^2
    ref = sympy.continued_fraction_periodic(a * c, c * c, b * b * D * c * c)
    ref_digits = list(ref[:-1]) + list(ref[-1]) * 8 if isinstance(ref[-1], list) else ref
    mine = cf.digits(min(len(ref_digits) - 1, 25))
    assert mine == [int(x) for x in ref_digits[:len(mine)]]


# ----------------------------------------------------------------------------
# convergents / semiconvergents


def test_convergents_fibonacci():
    cf = ContinuedFraction(0, (1,) * 6)
    cs = convergents(cf, 6)
    assert [(c.p, c.q) for c in cs] == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5),
                                        (5, 8), (8, 13)]


def test_convergents_pi_prefix():
    cs = convergents(ContinuedFraction(3, (7, 15, 1)), 3)
    assert [(c.p, c.q) for c in cs] == [(3, 1), (22, 7), (333, 106), (355, 113)]


def test_convergents_integer():
    assert [(c.p, c.q) for c in convergents(ContinuedFraction(5), 0)] == [(5, 1)]


def test_convergents_depth_error_names_available():
    with pytest.raises(ValueError, match="only 2 digits"):
        convergents(ContinuedFraction(1, (2, 3)), 5)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=6),
       st.integers(0, 3))
def test_convergent_identities_periodic(period, a0):
    cf = ContinuedFraction(a0, (), tuple(period))
    cs = convergents(cf, 12)
    theta = cf.value()
    qs = [c.q for c in cs]
    assert all(qs[i] < qs[i + 1] for i in range(1, len(qs) - 1))
    for i in range(12):
        det = cs[i].p * cs[i + 1].q - cs[i + 1].p * cs[i].q
        assert det == (-1) ** (i + 1)
    # even convergents increase strictly below theta, odd decrease above
    evens = [cs[i].fraction for i in range(0, 13, 2)]
    odds = [cs[i].fraction for i in range(1, 13, 2)]
    assert all(e1 < e2 for e1, e2 in zip(evens, evens[1:]))
    assert all(o1 > o2 for o1, o2 in zip(odds, odds[1:]))
    assert all(theta > e for e in evens) and all(theta < o for o in odds)
    # |theta - p_i/q_i| < 1/(q_i q_{i+1}), exactly decided
    for i in range(12):
        diff = theta - cs[i].fraction
        diff = diff if diff.sign() > 0 else -diff
        assert diff < Fraction(1, cs[i].q * cs[i + 1].q)


def test_semiconvergents_golden_like():
    cf = ContinuedFraction(0, (1,) * 8)
    assert semiconvergents(cf, 0, 1) == [Fraction(0, 1), Fraction(1, 2)]


def test_semiconvergents_pi():
    cf = ContinuedFraction(3, (7, 15, 1, 292))
    assert semiconvergents(cf, 0, 2) == [Fraction(3), Fraction(25, 8), Fraction(47, 15)]
    assert semiconvergents(cf, 0, 0) == [Fraction(3)]
    with pytest.raises(ValueError, match="out of range"):
        semiconvergents(cf, 0, 16)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=5), st.integers(0, 4))
def test_semiconvergent_endpoints(period, i):
    cf = ContinuedFraction(1, (), tuple(period))
    cs = convergents(cf, i + 2)
    m_max = cf.digit(i + 2)
    ss = semiconvergents(cf, i, m_max)
    assert ss[0] == cs[i].fraction
    assert ss[-1] == cs[i + 2].fraction


# ----------------------------------------------------------------------------
# tails


def test_tail_values_exact():
    assert float(tail_value(cf_expand(SQRT2, 8), 1, 10)) == pytest.approx(1 + math.sqrt(2), abs=1e-12)
    assert float(tail_value(cf_expand(GOLDEN, 8), 0, 10)) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
    t = tail_value(ContinuedFraction(7), 0, 5)
    assert t.exact == Fraction(7) and t.width == 0


def test_tail_enclosures_nest_and_bound():
    cf = cf_expand(math.pi, 14)
    prev = None
    for depth in (2, 4, 6, 8):
        t = tail_value(cf, 1, depth)
        if prev is not None:
            assert prev.interval().contains_interval(t.interval())
        prev = t
        # width <= 1/(q_depth q_{depth+1}) of the tail's own convergents
        tail_digits = [cf.digit(i) for i in range(1, 1 + depth + 2)]
        cs = convergents(ContinuedFraction(tail_digits[0], tuple(tail_digits[1:])), depth + 1)
        assert t.width <= Fraction(1, cs[depth].q * cs[depth + 1].q)


# ----------------------------------------------------------------------------
# Lagrange numbers


def test_lagrange_golden_even_exact_root5():
    est = lagrange_estimate(cf_expand(GOLDEN, 10), "even", 10, 40)
    assert est.estimate.exact == QuadraticSurd(0, 1, 5, 1)
    assert abs(float(est.estimate) - math.sqrt(5)) < 1e-12
    assert est.attainable is False          # even terms increase toward sqrt 5
    assert est.estimate.width < Fraction(1, 10 ** 20)


def test_lagrange_golden_odd_attainable():
    est = lagrange_estimate(cf_expand(GOLDEN, 10), "odd", 10, 40)
    assert est.estimate.exact == QuadraticSurd(0, 1, 5, 1)
    assert est.attainable is True


def test_lagrange_sqrt2_even_value():
    # forward tail (1+sqrt2) plus reversed tail (sqrt2 - 1) = 2 sqrt 2
    est = lagrange_estimate(cf_expand(SQRT2, 10), "even", 8, 40)
    assert est.estimate.exact == QuadraticSurd(0, 2, 2, 1)
    assert abs(float(est.estimate) - 2 * math.sqrt(2)) < 1e-12


def test_lagrange_terms_against_float_folding():
    # independent float oracle: fold the digit lists directly
    cf = cf_expand(SQRT2, 10)
    est = lagrange_estimate(cf, "even", 6, 40)
    for i, term in enumerate(est.terms):
        s = 2 * i + 1
        fwd = [cf.digit(k) for k in range(s, s + 40)]
        t = float(fwd[-1])
        for a in reversed(fwd[:-1]):
            t = a + 1.0 / t
        rev = [cf.digit(k) for k in range(s - 1, 0, -1)]
        r = 0.0
        if rev:
            r = float(rev[-1])
            for a in reversed(rev[:-1]):
                r = a + 1.0 / r
            r = 1.0 / r
        assert float(term) == pytest.approx(t + r, rel=1e-10)


def test_lagrange_growing_even_digits():
    # digits 1,2,1,3,1,4,... after a0 = 1: even estimates decrease toward 1,
    # odd running values grow without bound
    digits = [1]
    k = 2
    while len(digits) < 160:
        digits += [1, k]
        k += 1
    cf = ContinuedFraction(1, tuple(digits[1:]), exact=False)
    even = lagrange_estimate(cf, "even", 40, 20)
    vals = [float(t) for t in even.terms]
    assert vals[10] > vals[20] > vals[35] > 1
    assert vals[35] < 1.06
    odd = lagrange_estimate(cf, "odd", 40, 20)
    ovals = [float(t) for t in odd.terms]
    assert max(ovals) > 30 and ovals[-1] > ovals[5]
    assert even.truncated is False
    # running values never drop below 1 (all terms >= 1)
    assert all(t.lo >= 1 for t in even.terms + odd.terms)


def test_lagrange_running_trace_is_prefix_max():
    cf = cf_expand(math.pi, 40)
    est = lagrange_estimate(cf, "even", 8, 10)
    for i in range(1, len(est.running)):
        assert est.running[i].hi >= est.running[i - 1].hi
        assert est.running[i].lo >= est.running[i - 1].lo


def test_lagrange_insufficient_digits_flags_partial():
    cf = ContinuedFraction(1, (2, 3, 4, 5), exact=False)
    est = lagrange_estimate(cf, "even", 10, 5)
    assert est.truncated and est.depth < 11


def test_lagrange_definition_check():
    # t_0 = phi + 0 < 2; from i = 1 on the terms phi + q/q' all exceed 2
    est = lagrange_estimate(cf_expand(GOLDEN, 10), "even", 8, 40, check_L=2)
    assert est.definition_indices == list(range(1, 9))
    est3 = lagrange_estimate(cf_expand(GOLDEN, 10), "even", 8, 40, check_L=3)
    assert est3.definition_indices == []


def test_lagrange_rejects_rational():
    with pytest.raises(ValueError):
        lagrange_estimate(cf_expand(Fraction(22, 7), 10), "even", 3, 5)


# ----------------------------------------------------------------------------
# digit statistics


def test_gauss_reference_values():
    assert gauss_kuzmin_density(1) == pytest.approx(math.log2(4 / 3), abs=1e-15)
    assert gauss_kuzmin_density(2) == pytest.approx(math.log2(9 / 8), abs=1e-15)


def test_density_no_samples():
    d = gauss_digit_density(0, 100, 1, "odd", seed=1)
    assert d.empirical is None and d.stderr is None


def test_density_deterministic_and_within_noise():
    d1 = gauss_digit_density(4000, 120, 1, "odd", seed=11)
    d2 = gauss_digit_density(4000, 120, 1, "odd", seed=11)
    assert d1.empirical == d2.empirical and d1.stderr == d2.stderr
    assert abs(d1.empirical - d1.reference) <= 4 * d1.stderr
    d3 = gauss_digit_density(4000, 120, 2, "even", seed=12)
    assert abs(d3.empirical - d3.reference) <= 4 * d3.stderr


def test_density_validation():
    with pytest.raises(ValueError):
        gauss_digit_density(10, 5, 1, "odd", seed=1)
    with pytest.raises(ValueError):
        gauss_digit_density(10, 100, 0, "odd", seed=1)


def scalar_digit_density(samples, depth, digit, parity, seed, burn_in, bits):
    """The sampler as plain Euclid steps, one big-integer divmod per digit."""
    reference = gauss_kuzmin_density(digit)
    want_odd = parity == "odd"
    rng = random.Random(seed)
    den0 = 1 << bits
    fractions_sum = 0.0
    fractions_sqsum = 0.0
    short = steps = 0
    positions = sum(1 for k in range(burn_in + 1, depth + 1) if (k % 2 == 1) == want_odd)
    for _ in range(samples):
        p = rng.getrandbits(bits) | 1
        q = den0
        hits = cnt = 0
        for k in range(1, depth + 1):
            if not p:
                short += 1
                break
            a, rem = divmod(q, p)
            q, p = p, rem
            steps += 1
            if k > burn_in and (k % 2 == 1) == want_odd:
                cnt += 1
                hits += a == digit
        f = hits / cnt if cnt else 0.0
        fractions_sum += f
        fractions_sqsum += f * f
    mean = fractions_sum / samples
    var = max(fractions_sqsum / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / samples) if samples > 1 else None
    return DigitDensity(digit, parity, mean, reference, stderr, positions, samples, short,
                        steps)


@settings(deadline=None, max_examples=20)
@given(bits=st.sampled_from([8, 40, 61, 62, 63, 64, 200, 768]),
       digit=st.sampled_from([1, 2, 3, 7]), parity=st.sampled_from(["odd", "even"]),
       burn_in=st.integers(0, 6), extra=st.integers(0, 50), seed=st.integers(0, 2 ** 32))
@example(bits=8, digit=1, parity="odd", burn_in=0, extra=0, seed=1)
@example(bits=64, digit=2, parity="even", burn_in=3, extra=40, seed=2)
@example(bits=768, digit=1, parity="odd", burn_in=5, extra=50, seed=3)
def test_density_matches_scalar_euclid(bits, digit, parity, burn_in, extra, seed):
    # one lane more than a batch, so the second batch holds a single sample;
    # depth above the expansion length for bits <= 64 gives short expansions
    depth = max(10, burn_in + 1) + extra
    args = (_LANES + 1, depth, digit, parity, seed)
    got = gauss_digit_density(*args, burn_in=burn_in, bits=bits)
    assert got == scalar_digit_density(*args, burn_in, bits)


def test_density_record_counts_euclid_steps(tmp_path):
    # a 768-bit draw takes about 450 quotients, so at depth 500 many
    # expansions end early and the count is not samples x depth; the
    # volatile trace and timings stay out of stable_view
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j, "density", "--samples", "200", "--depth", "500",
                 "--seed", "4"]) == 0
    rec = read_journal(j)[0]
    oracle = scalar_digit_density(200, 500, 1, "odd", 4, 32, 768)
    assert 0 < oracle.short_expansions < 200
    trace = rec["trace"]
    assert set(trace) == {"euclid_steps", "short_expansions", "batches", "helper_batches",
                          "lehmer_rounds", "divmod_fallbacks"}
    assert (trace["euclid_steps"], trace["short_expansions"]) == \
        (oracle.euclid_steps, oracle.short_expansions)
    assert (trace["batches"], trace["helper_batches"]) == (1, 0)
    # a round takes at least one quotient, a fall-back exactly one
    assert 0 < trace["lehmer_rounds"] + trace["divmod_fallbacks"] <= trace["euclid_steps"]
    assert set(rec["timings"]) == {"expansion_s"}
    assert "trace" not in stable_view(rec) and "timings" not in stable_view(rec)


@pytest.mark.parametrize("argv, fallbacks", [([], False),
                                              (["--samples", "4", "--depth", "600"], True)])
def test_density_record_counts_fallbacks(tmp_path, argv, fallbacks):
    # the default run's 768-bit expansions outlast depth 200, so every round
    # decides a quotient; expansions that end before the depth reach
    # remainders too short for a leading word
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j, "density"] + argv) == 0
    assert (read_journal(j)[0]["trace"]["divmod_fallbacks"] > 0) == fallbacks


def test_density_helper_batches_match_scalar_euclid():
    # one pair of batches, the second in the helper process, then a lone
    # batch of one sample in this process
    args = (2 * _LANES + 1, 40, 2, "even", 5)
    got = gauss_digit_density(*args, burn_in=3)
    assert got == scalar_digit_density(*args, 3, 768)
    assert (got.batches, got.helper_batches) == (3, 1)
    assert multiprocessing.active_children() == []
    assert gauss_digit_density(_LANES, 40, 2, "even", 5, burn_in=3).helper_batches == 0


def test_density_joins_its_helper_when_a_batch_raises(monkeypatch):
    def fail(*args):
        raise RuntimeError("batch failed")

    monkeypatch.setattr("fareyflow.contfrac._euclid_tally", fail)
    with pytest.raises(RuntimeError, match="batch failed"):
        gauss_digit_density(2 * _LANES, 40, 1, "odd", 1)
    assert multiprocessing.active_children() == []


def divmod_tally(qs, ps, depth, digit, burn_in, want_odd):
    hits, cnt, steps, q_out, p_out = [], [], [], [], []
    for q, p in zip(qs, ps):
        h = c = k = 0
        while k < depth and p:
            a, rem = divmod(q, p)
            q, p = p, rem
            k += 1
            if k > burn_in and (k % 2 == 1) == want_odd:
                c += 1
                h += a == digit
        hits.append(h)
        cnt.append(c)
        steps.append(k)
        q_out.append(q)
        p_out.append(p)
    return hits, cnt, steps, q_out, p_out


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


HARD_PAIRS = [
    (2 ** 768, 1), (2 ** 768, 3),                 # first quotient beyond int64
    (2 ** 768, 2 ** 767 + 1),                      # 1, then a quotient near 2**767
    (fibonacci(1001), fibonacci(1000)),           # 1000 quotients of 1
    (fibonacci(91), fibonacci(90)),               # all ones, about one word
    (fibonacci(60), fibonacci(59)),               # all ones, below one word
    (1000, 7), (2 ** 61 + 1, 5), (2 ** 62 - 1, 2 ** 61), (255, 254),
    (12345, 0), (3 ** 400, 2 ** 600 + 1),
]


@pytest.mark.parametrize("depth", [1, 7, 60, 2000])
@pytest.mark.parametrize("digit, want_odd, burn_in", [(1, True, 0), (1, False, 3),
                                                      (2, True, 1), (3, False, 0)])
def test_euclid_tally_hard_pairs(depth, digit, want_odd, burn_in):
    qs = [q for q, _ in HARD_PAIRS]
    ps = [p for _, p in HARD_PAIRS]
    want = divmod_tally(qs, ps, depth, digit, burn_in, want_odd)
    # the oracle has no rounds: compare all but the round and fall-back counts
    assert _euclid_tally(qs, ps, depth, digit, burn_in, want_odd)[:5] == want
    for q, p in HARD_PAIRS:          # each pair alone in its batch too
        assert _euclid_tally([q], [p], depth, digit, burn_in, want_odd)[:5] == \
            divmod_tally([q], [p], depth, digit, burn_in, want_odd)
