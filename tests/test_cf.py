import random
from fractions import Fraction

import pytest

from ratapprox.cf import (
    CFContext,
    cf_expand,
    complete_quotient,
    convergents,
)
from ratapprox.errors import InsufficientDepth, PrecisionExhausted, RationalTarget
from ratapprox.exactnum import Certified, enclose, qi_normalize

from oracles import cf_value, euclid_cf

PHI = qi_normalize(1, 1, 5, 2)
INV_PHI = qi_normalize(-1, 1, 5, 2)
SQRT2 = qi_normalize(0, 1, 2, 1)
SQRT3 = qi_normalize(0, 1, 3, 1)
SQRT13_1_2 = qi_normalize(1, 1, 13, 2)
SQRT2_M1 = qi_normalize(-1, 1, 2, 1)

TARGETS = [PHI, INV_PHI, SQRT2, SQRT3, SQRT13_1_2, SQRT2_M1]


def test_rational_expansion_examples():
    assert cf_expand(Fraction(10, 7), 1).a == [1, 2, 3]
    assert cf_expand(Fraction(10, 7), 1).a == euclid_cf(10, 7)
    assert cf_expand(Fraction(3, 7), 1).a == [0, 2, 3]
    assert cf_expand(Fraction(-7, 3), 1).a == [-3, 1, 2]
    assert cf_expand(Fraction(5), 1).a == [5]


def test_rational_expansion_is_canonical_random():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.randint(-400, 400)
        q = rng.randint(1, 400)
        a = cf_expand(Fraction(p, q), 1).a
        assert cf_value(a) == Fraction(p, q)
        if len(a) > 1:
            assert a[-1] >= 2
        assert all(d >= 1 for d in a[1:])


def test_quadratic_expansions_and_periods():
    cases = {
        PHI: ([1, 1, 1, 1], (0, 1)),
        SQRT2: ([1, 2, 2, 2], (1, 1)),
        INV_PHI: ([0, 1, 1, 1], (1, 1)),
        SQRT3: ([1, 1, 2, 1, 2], (1, 2)),
        SQRT13_1_2: ([2, 3, 3, 3], (1, 1)),
        SQRT2_M1: ([0, 2, 2, 2], (1, 1)),
    }
    for alpha, (prefix, period) in cases.items():
        cf = cf_expand(alpha, len(prefix))
        assert cf.a[: len(prefix)] == prefix
        assert cf.period == period
        assert cf.digit(40) == prefix[period[0] + (40 - period[0]) % period[1]]


def test_sqrt2_digits_match_recurrence_oracle():
    # classical (P,Q) recurrence, written out independently
    P, Q, E = 0, 1, 2
    digits = []
    from math import isqrt

    r = isqrt(E)
    for _ in range(12):
        a = (P + r) // Q
        digits.append(a)
        P = a * Q - P
        Q = (E - P * P) // Q
    assert cf_expand(SQRT2, 12).a[:12] == digits


def test_convergents_phi_fibonacci():
    cf = cf_expand(PHI, 6)
    cv = convergents(cf, 4)
    assert [(c.p, c.q) for c in cv] == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]


def test_convergents_sqrt2():
    cv = convergents(cf_expand(SQRT2, 6), 4)
    assert [(c.p, c.q) for c in cv] == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]


def test_finite_cf_reproduces_value():
    cf = cf_expand(Fraction(10, 7), 1)
    cv = convergents(cf, len(cf.a) - 1)
    assert Fraction(cv[-1].p, cv[-1].q) == Fraction(10, 7)
    with pytest.raises(InsufficientDepth):
        convergents(cf, len(cf.a))


def test_recurrence_identity():
    for alpha in TARGETS:
        ctx = CFContext(alpha)
        for n in range(1, 30):
            assert ctx.p(n + 1) == ctx.a(n + 1) * ctx.p(n) + ctx.p(n - 1)
            assert ctx.q(n + 1) == ctx.a(n + 1) * ctx.q(n) + ctx.q(n - 1)


def test_approximation_bounds():
    # 1/(2 q_n q_{n+1}) <= |alpha - p_n/q_n| <= 1/(q_n q_{n+1})
    for alpha in TARGETS:
        ctx = CFContext(alpha)
        for n in range(0, 25):
            err = abs(alpha - Fraction(ctx.p(n), ctx.q(n)))
            lo = Fraction(1, 2 * ctx.q(n) * ctx.q(n + 1))
            hi = Fraction(1, ctx.q(n) * ctx.q(n + 1))
            assert err >= lo and err <= hi


def test_exact_error_identity_cffact3():
    # alpha - p_n/q_n = (-1)^n / (q_n^2 (zeta_{n+1} + xi_n))
    for alpha in TARGETS:
        ctx = CFContext(alpha)
        for n in range(1, 20):
            lhs = alpha - Fraction(ctx.p(n), ctx.q(n))
            rhs = (-1) ** n / (ctx.q(n) ** 2 * (ctx.zeta(n + 1) + ctx.xi(n)))
            assert lhs == rhs


def test_reversed_word_identity_cffact4():
    for alpha in TARGETS:
        ctx = CFContext(alpha)
        for n in range(1, 18):
            word = [0] + [ctx.a(i) for i in range(n, 0, -1)]
            assert ctx.xi(n) == cf_value(word)


def test_d_recurrence_and_sign():
    # D_{n+1} = a_{n+1} D_n + D_{n-1}, equivalently a_{n+1} D_n = D_{n+1} - D_{n-1}
    for alpha in TARGETS:
        ctx = CFContext(alpha)
        for n in range(0, 20):
            assert ctx.D(n + 1) == ctx.a(n + 1) * ctx.D(n) + ctx.D(n - 1)
            if n >= 1:
                assert ctx.D(n).sign() == (-1) ** n


def test_d_nearest_integer_identity():
    # |D_n| = || q_n alpha || for n >= 1
    for alpha in TARGETS:
        ctx = CFContext(alpha)
        for n in range(1, 18):
            prod = enclose(alpha * ctx.q(n), Fraction(1, 10**40))
            dist = prod.dist_to_nearest_int()
            dn = enclose(abs(ctx.D(n)), Fraction(1, 10**40))
            assert dist.overlaps(dn)


def test_complete_quotient_examples():
    assert complete_quotient(cf_expand(PHI, 4), 1) == PHI
    one_plus_sqrt2 = qi_normalize(1, 1, 2, 1)
    assert complete_quotient(cf_expand(SQRT2, 4), 1) == one_plus_sqrt2
    assert complete_quotient(cf_expand(INV_PHI, 4), 1) == PHI


def test_complete_quotient_rational_tail():
    cf = cf_expand(Fraction(10, 7), 1)
    assert complete_quotient(cf, 1) == Fraction(7, 3)
    assert complete_quotient(cf, 2) == Fraction(3)
    with pytest.raises(RationalTarget):
        complete_quotient(cf, 3)


def test_xi_examples():
    phi_ctx = CFContext(PHI)
    assert phi_ctx.xi(4) == Fraction(3, 5)
    assert phi_ctx.xi(1) == Fraction(1, phi_ctx.a(1))
    assert CFContext(SQRT2).xi(3) == Fraction(5, 12)


def test_d_value_examples():
    ctx = CFContext(INV_PHI)
    d4 = ctx.D(4)
    assert d4 == qi_normalize(-11, 5, 5, 2)  # (5*sqrt(5) - 11)/2
    assert enclose(d4, Fraction(1, 10**8)).contains(Fraction("0.0901699437"))
    d1 = ctx.D(1)
    assert d1.sign() == -1
    assert enclose(d1, Fraction(1, 10**6)).contains(Fraction("-0.3819660112"))
    with pytest.raises(RationalTarget):
        CFContext(Fraction(3, 7)).D(1)


def test_certified_expansion():
    c = Certified.parse("0.6180339887±0.0000000001")
    cf = cf_expand(c, 8)
    assert cf.a == [0, 1, 1, 1, 1, 1, 1, 1]
    assert cf.period is None
    with pytest.raises(PrecisionExhausted):
        cf_expand(c, 40)


def test_certified_straddle_raises():
    c = Certified.parse("0.5±0.25")
    with pytest.raises(PrecisionExhausted):
        cf_expand(c, 3)


def test_certified_complete_quotient_brackets():
    c = Certified.parse("0.61803398874989484820458683436563811772±1e-30")
    cf = cf_expand(c, 20)
    z = complete_quotient(cf, 1)
    phi_iv = enclose(PHI, Fraction(1, 10**12))
    assert z.overlaps(phi_iv)


def test_certified_d_value_interval():
    c = Certified.parse("0.61803398874989484820458683436563811772±1e-30")
    ctx = CFContext(c, depth=12)
    d4 = ctx.D(4)
    exact = enclose(qi_normalize(-11, 5, 5, 2), Fraction(1, 10**20))
    assert d4.overlaps(exact)


def test_context_negative_index_seeds():
    ctx = CFContext(PHI)
    assert ctx.p(-1) == 1 and ctx.q(-1) == 0
    assert ctx.D(-1) == Fraction(-1)
    assert ctx.p(0) == 1 and ctx.q(0) == 1


def test_certified_last_digit_decidable_without_lookahead():
    # enclosure [2.0, 2.3]: the first digit is decidable even though the
    # fractional part touches zero and blocks everything after it
    c = Certified.parse("2.15±0.15")
    assert cf_expand(c, 1).a == [2]
    with pytest.raises(PrecisionExhausted):
        cf_expand(c, 2)
