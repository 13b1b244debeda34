import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratapprox.cf import CFContext
from ratapprox.errors import (
    DegenerateRational,
    InsufficientDepth,
    PrecisionExhausted,
    RationalTarget,
)
from ratapprox.exactnum import Certified, RatInterval, enclose, qi_normalize

from oracles import cf_value, convergent_pairs, euclid_cf, eventual_period, quad_cf_digits

PHI = qi_normalize(1, 1, 5, 2)
INV_PHI = qi_normalize(-1, 1, 5, 2)
SQRT2 = qi_normalize(0, 1, 2, 1)
SQRT3 = qi_normalize(0, 1, 3, 1)
SQRT13_1_2 = qi_normalize(1, 1, 13, 2)
SQRT2_M1 = qi_normalize(-1, 1, 2, 1)

TARGETS = [PHI, INV_PHI, SQRT2, SQRT3, SQRT13_1_2, SQRT2_M1]


def test_rational_expansion_examples():
    # a finite expansion is stored whole, whatever the depth asked for
    assert CFContext(Fraction(10, 7), 1).digits(1) == [1, 2, 3]
    assert CFContext(Fraction(10, 7), 1).digits(1) == euclid_cf(10, 7)
    assert CFContext(Fraction(3, 7), 1).digits(1) == [0, 2, 3]
    assert CFContext(Fraction(-7, 3), 1).digits(1) == [-3, 1, 2]
    assert CFContext(Fraction(5), 1).digits(1) == [5]
    assert CFContext(Fraction(10, 7)).finite and CFContext(Fraction(10, 7)).period is None


def test_rational_expansion_is_canonical_random():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.randint(-400, 400)
        q = rng.randint(1, 400)
        a = CFContext(Fraction(p, q), 1).digits(1)
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
        ctx = CFContext(alpha, len(prefix))
        assert ctx.digits(len(prefix)) == prefix
        assert ctx.period == period and not ctx.finite
        assert ctx.a(40) == prefix[period[0] + (40 - period[0]) % period[1]]


@settings(max_examples=150, deadline=None)
@given(
    P=st.integers(-20, 20),
    e=st.integers(1, 3).flatmap(lambda e: st.sampled_from([e, -e])),
    D=st.integers(2, 30),
    Q=st.integers(1, 12),
)
@example(P=1, e=1, D=5, Q=2)  # purely periodic
@example(P=2, e=1, D=3, Q=5)  # Q0 does not divide E - P0^2: rescaled start
@example(P=3, e=-2, D=7, Q=5)  # e < 0 and a rescaled start
@example(P=1, e=-1, D=5, Q=2)  # e < 0
def test_period_and_complete_quotients_match_oracle(P, e, D, Q):
    try:
        x = qi_normalize(P, e, D, Q)
    except DegenerateRational:
        return
    ctx = CFContext(x, 1)
    K, L = ctx.period
    sign = 1 if x.e > 0 else -1  # x = (sign*P + sqrt(e^2 D)) / (sign*Q)
    digits = quad_cf_digits(sign * x.P, x.e * x.e * x.D, sign * x.Q, max(200, 2 * (K + 2 * L)))
    assert (K, L) == eventual_period(digits)
    # x = (p_{n-1} zeta_n + p_{n-2}) / (q_{n-1} zeta_n + q_{n-2}), also for
    # n past the (P_n, Q_n) states the context stores
    pq = [(0, 1), (1, 0)] + convergent_pairs(digits)
    assert ctx.digits(len(digits)) == digits
    for n in range(len(ctx._states) + 2 * L + 2):
        z = ctx.zeta(n)
        (p1, q1), (p2, q2) = pq[n + 1], pq[n]
        assert (p1 * z + p2) / (q1 * z + q2) == x
        assert n == 0 or z > 1


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
    assert CFContext(SQRT2, 12).digits(12) == digits


def _convergents(ctx, n_max):
    return [(ctx.p(n), ctx.q(n)) for n in range(n_max + 1)]


def test_convergents_phi_fibonacci():
    assert _convergents(CFContext(PHI, 6), 4) == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]


def test_convergents_sqrt2():
    assert _convergents(CFContext(SQRT2, 6), 4) == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]


def test_finite_cf_reproduces_value():
    ctx = CFContext(Fraction(10, 7), 1)
    n = len(ctx.digits(1)) - 1
    assert Fraction(ctx.p(n), ctx.q(n)) == Fraction(10, 7)
    with pytest.raises(InsufficientDepth):
        ctx.p(n + 1)
    with pytest.raises(InsufficientDepth):
        ctx.a(n + 1)


def test_depth_below_one_is_refused():
    for alpha in (Fraction(1, 2), PHI, Certified.parse("0.5±0.1")):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            CFContext(alpha, 0)


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
    assert CFContext(PHI, 4).zeta(1) == PHI
    one_plus_sqrt2 = qi_normalize(1, 1, 2, 1)
    assert CFContext(SQRT2, 4).zeta(1) == one_plus_sqrt2
    assert CFContext(INV_PHI, 4).zeta(1) == PHI


def test_complete_quotient_rational_tail():
    ctx = CFContext(Fraction(10, 7), 1)
    assert ctx.zeta(1) == Fraction(7, 3)
    assert ctx.zeta(2) == Fraction(3)
    with pytest.raises(RationalTarget):
        ctx.zeta(3)


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
    ctx = CFContext(c, 8)
    assert ctx.digits(8) == [0, 1, 1, 1, 1, 1, 1, 1]
    assert ctx.period is None and not ctx.finite
    with pytest.raises(PrecisionExhausted):
        CFContext(c, 40)
    # digits past the depth are certified on demand, up to the same limit
    with pytest.raises(PrecisionExhausted):
        ctx.a(39)


def test_certified_straddle_raises():
    c = Certified.parse("0.5±0.25")
    with pytest.raises(PrecisionExhausted):
        CFContext(c, 3)


def test_certified_complete_quotient_brackets():
    # zeta_n of a certified target is refused, however many digits the
    # context has extracted
    c = Certified.parse("0.61803398874989484820458683436563811772±1e-30")
    for depth in (1, 20):
        with pytest.raises(PrecisionExhausted, match="certified target"):
            CFContext(c, depth).zeta(1)


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


def test_d_minus_one_for_each_target_kind():
    # D_-1 = alpha*q_-1 - p_-1 = -1 in the value type of every other D_n
    rational = CFContext(Fraction(3, 7))
    for n in (-1, 0):
        with pytest.raises(RationalTarget):
            rational.D(n)
    d = CFContext(PHI).D(-1)
    assert (type(d), d) == (Fraction, -1)
    certified = CFContext(Certified.parse("0.6180339887498948482045868343656±1e-30"), depth=8)
    assert certified.D(-1) == RatInterval.point(-1)


def test_certified_last_digit_decidable_without_lookahead():
    # enclosure [2.0, 2.3]: the first digit is decidable even though the
    # fractional part touches zero and blocks everything after it
    c = Certified.parse("2.15±0.15")
    assert CFContext(c, 1).digits(1) == [2]
    with pytest.raises(PrecisionExhausted):
        CFContext(c, 2)


# alpha = (P + sqrt(D))/Q with its period (K, L): purely periodic (K = 0),
# sqrt(D) - floor(sqrt(D)) (K = 1) and longer pre-periods
SEARCH_ALPHAS = {
    (1, 5, 2): (0, 1),
    (1, 7, 3): (0, 4),
    (-1, 5, 2): (1, 1),
    (-2, 7, 1): (1, 4),
    (-4, 19, 1): (1, 6),
    (-7, 61, 1): (1, 11),
    (2, 3, 5): (3, 4),
    (3, 2, 7): (4, 1),
    (5, 11, 9): (3, 8),
}
POINT_QUERIES = [(f, d) for f in "pqD" for d in (-1, 0, 1)]


def _check_points(ctx, alpha, pairs, m, order):
    for f, d in order:
        n = m + d
        p_n, q_n = (1, 0) if n == -1 else pairs[n]
        if f == "p":
            assert ctx.p(n) == p_n
        elif f == "q":
            assert ctx.q(n) == q_n
        elif isinstance(alpha, Certified):  # the certified case encloses 1/phi
            iv = ctx.D(n)
            assert iv.lo <= INV_PHI * q_n - p_n <= iv.hi
        else:
            assert ctx.D(n) == alpha * q_n - p_n


@settings(deadline=None, max_examples=80)
@given(
    key=st.sampled_from(sorted(SEARCH_ALPHAS)),
    periods=st.integers(0, 40),
    phase=st.integers(0, 10),
    offset=st.sampled_from([-1, 0, 1]),
    back=st.integers(-3, 60),
    floor=st.sampled_from(["exact", "below", "none"]),
    order=st.permutations(POINT_QUERIES),
)
@example(key=(2, 3, 5), periods=0, phase=0, offset=0, back=0, floor="exact", order=POINT_QUERIES)
@example(key=(5, 11, 9), periods=7, phase=7, offset=1, back=-3, floor="exact", order=POINT_QUERIES)
def test_first_index_matches_recurrence(key, periods, phase, offset, back, floor, order):
    # the threshold is q_i + offset for i at `phase` inside a period, so the
    # answer falls at the start of, inside, or just past a period; n0 lies
    # below or just above it
    K, L = SEARCH_ALPHAS[key]
    alpha = qi_normalize(key[0], 1, key[1], key[2])
    i = K + periods * L + phase % L
    pairs = convergent_pairs(quad_cf_digits(*key, i + 8))
    T = pairs[i][1] + offset
    n0 = max(0, i - back)
    expected = next(m for m in range(n0, len(pairs)) if pairs[m][1] >= T)
    q_floor = {"exact": T, "below": T // 3, "none": 0}[floor]
    ctx = CFContext(alpha, depth=1)
    seen = []
    m = ctx.first_index(n0, lambda m, q: seen.append(m) or q >= T, q_floor)
    assert m == expected
    assert min(seen) >= n0 and seen[-1] == m
    _check_points(ctx, alpha, pairs, m, order)
    # no convergent walked in order: M_-1, the landing pair, one step past it
    assert ctx._dense == -1
    assert set(ctx._conv) == {-1, m - 1, m, m + 1}


def test_first_index_after_dense_walk_and_between_searches():
    alpha = qi_normalize(-2, 1, 7, 1)
    pairs = convergent_pairs(quad_cf_digits(-2, 7, 1, 400))
    ctx = CFContext(alpha)
    assert [ctx.q(n) for n in range(31)] == [q for _, q in pairs[:31]]
    for n0, i in [(3, 20), (10, 35), (36, 250), (252, 390), (100, 390)]:
        T = pairs[i][1]
        assert ctx.first_index(n0, lambda m, q: q >= T, T) == max(i, n0)
        _check_points(ctx, alpha, pairs, max(i, n0), POINT_QUERIES)
    assert ctx._dense == 30
    assert sorted(n for n in ctx._conv if n > 30) == [34, 35, 36, 249, 250, 251, 389, 390, 391]


@pytest.mark.parametrize("i", [2, 17, 60, 120])
def test_first_index_certified_golden(i):
    # a certified 1/phi decides about 140 digits, every one of them 1
    alpha = Certified.parse("0.61803398874989484820458683436563811772030917980576286213544862±1e-60")
    pairs = convergent_pairs([0] + [1] * (i + 4))
    T = pairs[i][1]
    ctx = CFContext(alpha, depth=1)
    assert ctx.first_index(1, lambda m, q: q >= T, T) == i
    _check_points(ctx, alpha, pairs, i, list(reversed(POINT_QUERIES)))
    assert ctx._dense == -1
    assert set(ctx._conv) == {-1, i - 1, i, i + 1}


@pytest.mark.parametrize("x", TARGETS + [qi_normalize(5, -1, 13, 3), qi_normalize(-5, 1, 28, 6)])
def test_zeta_state_is_the_integer_state_of_zeta(x):
    ctx = CFContext(x)
    K, L = ctx.period
    for n in range(K + 3 * L + 2):
        P, Q, E = ctx.zeta_state(n)
        assert (E - P * P) % Q == 0
        assert ctx.zeta(n) == qi_normalize(P, 1, E, Q)
        # P_{n+1} = a_n*Q_n - P_n
        assert ctx.zeta_state(n + 1)[0] == ctx.a(n) * Q - P
        assert ctx.zeta_state(n + 1)[2] == E
    with pytest.raises(IndexError):
        ctx.zeta_state(-1)
    for other in (Fraction(3, 7), Certified.parse("0.6180339887±1e-10")):
        with pytest.raises(TypeError):
            CFContext(other).zeta_state(1)


DIGIT_TARGETS = {
    "rat": (Fraction(355, 113), None),
    "quad": (SQRT13_1_2, 60),
    "dec": (Certified.parse("1.41421356237309504880168872420969807856967187537694±1e-50"), 40),
}


@pytest.mark.parametrize("jump", [False, True], ids=["in-order", "after-jump"])
@pytest.mark.parametrize("kind", sorted(DIGIT_TARGETS))
def test_digits_is_a_new_list_of_the_digits(kind, jump):
    alpha, far = DIGIT_TARGETS[kind]
    ctx = CFContext(alpha)
    if jump and far is not None:
        # q_far by first_index: a quadratic target skips whole periods
        # without storing the digits it skips
        ctx.first_index(1, lambda m, q: m >= far)
    reference = CFContext(alpha)
    sizes = [3] if far is None else [1, 5, far // 2, far]
    for n in sizes:
        want = [reference.a(k) for k in range(n)]
        got = ctx.digits(n)
        assert got == want
        got[0] += 1
        got.append(7)
        assert ctx.digits(n) == want and ctx.a(0) == want[0]
        assert ctx.digits(n) is not ctx.digits(n)
    if far is not None:
        assert [ctx.a(k) for k in range(far)] == [reference.a(k) for k in range(far)]
