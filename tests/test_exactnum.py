import math
import operator
import random
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ratapprox import exactnum
from ratapprox.errors import DegenerateRational, MixedField, PrecisionExhausted
from ratapprox import approx, conic, ostrowski
from ratapprox.approx import PsiSpec
from ratapprox.conic import Automorph, ConicForm
from ratapprox.exactnum import (
    Certified,
    QuadIrr,
    Record,
    LN10_HI,
    RatInterval,
    enclose,
    exp_dyadic_ends,
    exp_le_inverse_sum,
    int_str,
    outward_str,
    pow10_cmp,
    qi_normalize,
    qi_pair,
    sci_str,
    squarefree_decompose,
    surd_floor,
)
from ratapprox.ostrowski import RealDigits

from oracles import (bisect_enclose, exp_bounds_reference, exp_le_reference, minpoly_triple,
                     poly_sign, quad_floor, sqrt_bounds, surd_arith, surd_coords)

PHI = qi_normalize(1, 1, 5, 2)
INV_PHI = qi_normalize(-1, 1, 5, 2)
SQRT2 = qi_normalize(0, 1, 2, 1)


def test_normalize_already_canonical():
    x = qi_normalize(1, 1, 5, 2)
    assert (x.P, x.e, x.D, x.Q) == (1, 1, 5, 2)


def test_normalize_extracts_square_factor():
    # (2 + 2*sqrt(20))/4 = (1 + 2*sqrt(5))/2
    x = qi_normalize(2, 2, 20, 4)
    assert (x.P, x.e, x.D, x.Q) == (1, 2, 5, 2)


def test_normalize_perfect_square_degenerates():
    with pytest.raises(DegenerateRational) as exc:
        qi_normalize(0, 1, 9, 1)
    assert exc.value.value == 3


def test_normalize_zero_coefficient_degenerates():
    with pytest.raises(DegenerateRational) as exc:
        qi_normalize(3, 0, 5, 6)
    assert exc.value.value == Fraction(1, 2)


def test_normalize_sign_and_gcd():
    x = qi_normalize(-4, 2, 3, -6)
    assert (x.P, x.e, x.D, x.Q) == (2, -1, 3, 3)
    # renormalizing a canonical value is the identity
    assert qi_normalize(x.P, x.e, x.D, x.Q) == x


def test_squarefree_decompose():
    assert squarefree_decompose(20) == (2, 5)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(2 * 3 * 3 * 5**4) == (3 * 25, 2)


def test_phi_times_inverse_is_one():
    assert PHI * INV_PHI == Fraction(1)


def test_phi_satisfies_its_equation():
    assert PHI * PHI - PHI - 1 == Fraction(0)


def test_two_phi_minus_one_squared_is_five():
    x = 2 * PHI - 1
    assert x * x == Fraction(5)


def test_division_and_inverse():
    assert PHI / PHI == Fraction(1)
    assert 1 / PHI == INV_PHI
    assert (SQRT2 * SQRT2) == Fraction(2)
    with pytest.raises(ZeroDivisionError):
        PHI / 0


def test_mixed_field_rejected():
    with pytest.raises(MixedField):
        PHI + SQRT2
    with pytest.raises(MixedField):
        PHI < SQRT2


def _random_quad(rng, D):
    while True:
        P = rng.randint(-30, 30)
        e = rng.randint(-9, 9)
        Q = rng.randint(1, 20)
        if e:
            return qi_normalize(P, e, D, Q)


def test_field_axioms_random():
    rng = random.Random(20260810)
    for D in (2, 5, 13):
        for _ in range(60):
            x, y, z = (_random_quad(rng, D) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert x * y == y * x
            assert x + y == y + x
            assert (x - y) + y == x
            assert (x / y) * y == x


def test_powers():
    assert PHI**2 == PHI + 1
    assert PHI**-1 == INV_PHI
    assert PHI**0 == Fraction(1)
    assert SQRT2**6 == Fraction(8)


def test_exact_ordering_and_floor():
    rng = random.Random(7)
    for D in (2, 3, 5, 13):
        for _ in range(80):
            x = _random_quad(rng, D)
            iv = enclose(x, Fraction(1, 10**25))
            n = x.floor()
            assert n <= iv.lo or iv.lo.numerator // iv.lo.denominator == n
            assert Fraction(n) < iv.hi and iv.lo < Fraction(n + 1)
            assert (x > n) and (x < n + 1)
            # |P + e*sqrt(D)| >= 1/64 here, so the enclosure excludes 0
            assert x.sign() == (1 if iv.lo > 0 else -1 if iv.hi < 0 else 0)
            assert abs(x).sign() == 1


@settings(deadline=None, max_examples=300)
@given(
    P=st.integers(-(10**40), 10**40),
    e=st.integers(-(10**20), 10**20).filter(bool),
    D=st.integers(2, 10**6),
    Q=st.integers(-(10**15), 10**15).filter(bool),
)
# within 2*10**-5 of an integer, below and above, for either sign of e,
# from Fibonacci and Lucas numbers: 6765*sqrt(5) ~ 15127, 10946*sqrt(5) ~ 24476
@example(P=-15106, e=6765, D=5, Q=7)
@example(P=24504, e=-10946, D=5, Q=7)
@example(P=-24441, e=10946, D=5, Q=7)
@example(P=15141, e=-6765, D=5, Q=7)
@example(P=7 * 10**9 + math.isqrt(2 * 10**40), e=-(10**20), D=2, Q=10**9)
# negative Q and radicands that are not squarefree (1300 = 10**2 * 13, 12 = 2**2 * 3)
@example(P=7, e=-3, D=1300, Q=-11)
@example(P=-24441, e=10946 // 2, D=20, Q=-7)
@example(P=5, e=1, D=12, Q=-2)
def test_floor_matches_isqrt_oracle(P, e, D, Q):
    assume(math.isqrt(D) ** 2 != D)
    # quad_floor takes Q > 0: (P + e*sqrt(D))/Q = (-P - e*sqrt(D))/(-Q)
    sign = 1 if Q > 0 else -1
    assert surd_floor(P, e, D, Q) == quad_floor(sign * P, sign * e, D, sign * Q)
    x = qi_normalize(P, e, D, Q)  # e != 0 and D not a square: never rational
    floor = quad_floor(x.P, x.e, x.D, x.Q)
    assert x.floor() == math.floor(x) == floor
    nearest = quad_floor(2 * x.P + x.Q, 2 * x.e, x.D, 2 * x.Q)
    assert x.nearest_int() == round(x) == nearest


def test_nearest_int():
    assert PHI.nearest_int() == 2
    assert INV_PHI.nearest_int() == 1
    assert (PHI * 55).nearest_int() == 89


def test_qi_pair_roundtrip():
    u, v = surd_coords(PHI, 5)
    assert u == Fraction(1, 2) and v == Fraction(1, 2)
    assert qi_pair(u, v, 5) == PHI
    assert qi_pair(Fraction(3, 7), Fraction(0), 5) == Fraction(3, 7)


def test_enclose_quadratic_matches_bisection_oracle():
    for x in (PHI, INV_PHI, SQRT2, qi_normalize(1, 1, 13, 2), qi_normalize(5, -3, 7, 4)):
        w = Fraction(1, 10**4)
        iv = enclose(x, w)
        assert iv.width <= w
        oracle = bisect_enclose(x, w)
        assert iv.overlaps(oracle)
        # endpoints straddle the root of the minimal polynomial
        triple = minpoly_triple(x)
        if poly_sign(triple, iv.lo) and poly_sign(triple, iv.hi):
            assert poly_sign(triple, iv.lo) != poly_sign(triple, iv.hi)


@settings(deadline=None, max_examples=60)
@given(
    P=st.integers(-(10**60), 10**60),
    e_digits=st.integers(0, 2500),
    D=st.sampled_from([2, 3, 5, 7, 13, 991]),
    Q=st.integers(1, 10**40),
    w_num=st.integers(1, 10**6),
    w_digits=st.integers(0, 3000),
    seed=st.integers(0, 2**32),
)
@example(P=0, e_digits=0, D=5, Q=1, w_num=1, w_digits=0, seed=0)
@example(P=0, e_digits=0, D=5, Q=1, w_num=10**6, w_digits=0, seed=0)
def test_enclose_precision_is_the_stepping_loops(P, e_digits, D, Q, w_num, w_digits, seed):
    # enclose finds its precision k from the size of |e|/(Q*width); it must be
    # the k of the loop "k = 1; while 10**k < need: k += 8", so that every
    # enclosure, and every output printed from one, stays the same
    rnd = random.Random(seed)
    e = rnd.randrange(1, 10 ** (e_digits + 1)) * rnd.choice((-1, 1))
    x = qi_normalize(P, e, D, Q)
    w = Fraction(w_num, 10**w_digits)
    k, need = 1, Fraction(abs(x.e), x.Q) / w
    while 10**k < need:
        k += 8
    scaled = sqrt_bounds(x.D, k) * Fraction(x.e)
    assert enclose(x, w) == RatInterval((x.P + scaled.lo) / x.Q, (x.P + scaled.hi) / x.Q)


@pytest.mark.parametrize("j", [1, 2, 8, 9, 10, 17, 100, 1001, 20000])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_enclose_precision_at_powers_of_ten(j, offset):
    # sqrt(2) at width 1/c needs c = ceil(need) exactly: k is the least
    # k = 1 (mod 8) with 10**k >= c, read off the ends' denominator Q*10**k
    c = 10**j + offset
    least = j + (offset > 0)  # the least k >= 1 with 10**k >= c
    k = 1 + 8 * -(-(least - 1) // 8)
    (_, d_lo), (_, d_hi) = exactnum._quad_ends(SQRT2, Fraction(1, c))
    assert d_lo == d_hi == 10**k


@pytest.mark.parametrize("x, Q", [(1, 2**400_000), (1, 3**250_000), (2**400_000 - 1, 1),
                                  (3**250_000, 7), (1, 1), (9, 10), (10, 1)],
                         ids=["2^-400000", "3^-250000", "2^400000-1", "3^250000/7", "1", "9/10",
                              "10"])
def test_leading_digits_finds_the_exponent_of_tiny_and_huge_rationals(x, Q):
    # the guess from bit lengths must stay at or below the exponent on both
    # sides of 1: 10**E <= x/Q < 10**(E + 1)
    N, E, rem, den = exactnum._leading_digits(x, 0, 1, Q, 5)
    assert 10**4 <= N < 10**5
    scaled = (x * 10**-E, Q) if E <= 0 else (x, Q * 10**E)
    assert scaled[1] <= scaled[0] < 10 * scaled[1]


@st.composite
def _outward_cases(draw):
    """(head, sign, b) for outward_str: heads of any sign, 0 among them, some
    with 9,000-digit denominators (the size of a certificate bound's head),
    some within a few parts in 10**t of 10**-b; b None, small, or 10**5."""
    sign = draw(st.sampled_from((-1, 1)))
    b = draw(st.none() | st.integers(0, 300) | st.sampled_from((10**5 - 1, 10**5)))
    shape = draw(st.sampled_from(("any", "zero", "near")))
    if shape == "zero":
        head = Fraction(0)
    elif shape == "near" and b is not None:
        t = draw(st.integers(0, 60))
        head = draw(st.sampled_from((-1, 1))) * Fraction(
            10**t + draw(st.integers(-1000, 1000)), 10 ** (t + b))
    else:
        head = Fraction(draw(st.integers(-(10**80), 10**80)),
                        draw(st.integers(1, 10**80)) * 10 ** draw(st.integers(0, 9000)))
    return head, sign, b


@settings(deadline=None, max_examples=150)
@given(case=_outward_cases())
@example(case=(Fraction(0), 1, 10**5))
@example(case=(Fraction(0), -1, 0))
@example(case=(Fraction(0), 1, None))
@example(case=(Fraction(1), -1, 100))
@example(case=(Fraction(-1), 1, 100))
@example(case=(Fraction(10**50 - 1, 10**50), 1, 100))
@example(case=(Fraction(10**50 - 1, 10**50), 1, None))
@example(case=(Fraction(-1, 10**5), 1, 5))
@example(case=(Fraction(1, 3), -1, None))
@example(case=(Fraction(-1, 7), 1, 10**5))
# N = 10**49 and b = k: the exact sum gives 1 - 10**-49, which the floor
# one digit down, 10*(N - 1) + 9, would overshoot
@example(case=(Fraction(1), -1, 49))
@example(case=(-1 - Fraction(1, 10**60), 1, 49))
# N = 10**50 - 1 and r + 10**-(b-k) > 1: M = N + 2 is rounded up one digit
# to 10**49 + 1 (1 + 10**-49), not 10**51 + 10
@example(case=(1 - Fraction(1, 10**120), 1, 60))
@example(case=(Fraction(1, 10**120) - 1, -1, 60))
def test_outward_str_rounds_outward_within_a_unit(case):
    head, sign, b = case
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # 10**b is never converted to a string
    try:
        text = outward_str(*head.as_integer_ratio(), sign, b)
    finally:
        sys.set_int_max_str_digits(saved)
    assert re.fullmatch(r"-?[0-9](\.[0-9]+)?e-?[0-9]+", text), text
    mantissa, exp = text.split("e")
    digits = mantissa.lstrip("-").replace(".", "")
    assert len(digits) <= 50 and not digits.endswith("0") or digits == "0"
    exact = head if b is None else head + Fraction(sign, 10**b)
    printed = Fraction(text)
    # on the side of sign * infinity, within one unit of the 50th digit
    assert sign * (printed - exact) >= 0
    if printed:
        unit = Fraction(10) ** int(exp)  # 10**exp <= |printed| < 10**(exp + 1)
        assert unit <= abs(printed) < 10 * unit
        assert abs(printed - exact) < unit / 10**49
    else:
        assert exact == 0


def test_outward_str_prints_short_values_exactly():
    assert outward_str(0, 1, 1, 10**5) == "1e-100000"
    assert outward_str(0, 1, -1, 0) == "-1e0"
    assert outward_str(-1, 8, 1, None) == "-1.25e-1"
    assert outward_str(123, 1, -1, None) == "1.23e2"
    assert outward_str(1, 10**5, 1, 5) == "2e-5"
    assert outward_str(1, 3, 1, None) == "3." + "3" * 48 + "4e-1"


# head = (N + r)/10**49 with N = 10**49 + 12345: r within 10**-10 of a
# rounding boundary, and 10**-59 is 10**-10 of the last printed unit
OUTWARD_BOUNDARIES = [
    (1 - Fraction(2, 10**11), 1, "12347e0"),  # r + 10**-10 passes N + 1
    (1 - Fraction(1, 10**10), 1, "12346e0"),  # r + 10**-10 lands on N + 1
    (Fraction(2, 10**11), -1, "12344e0"),  # r - 10**-10 falls below N
    (Fraction(1, 10**10), -1, "12345e0"),  # r - 10**-10 lands on N
]


@pytest.mark.parametrize("r, sign, tail", OUTWARD_BOUNDARIES)
def test_outward_str_at_rounding_boundaries(r, sign, tail):
    N = 10**49 + 12345
    for head, sign in ((N + r) / 10**49, sign), (-(N + r) / 10**49, -sign):
        text = outward_str(*head.as_integer_ratio(), sign, 59)
        assert text == f"{'-' if head < 0 else ''}1.{'0' * 44}{tail}"
        exact = head + Fraction(sign, 10**59)
        assert 0 <= sign * (Fraction(text) - exact) < Fraction(1, 10**49)


def test_outward_str_rounds_a_remainder_of_one_up():
    # |head| = 1000*N + 1 leaves the floor division a remainder of exactly 1
    head = 1000 * (10**49 + 12345) + 1
    assert outward_str(head, 1, 1, None) == f"1.{'0' * 44}12346e52"
    assert outward_str(head, 1, -1, None) == f"1.{'0' * 44}12345e52"
    assert outward_str(-head, 1, -1, None) == f"-1.{'0' * 44}12346e52"


def _exponent(x: Fraction) -> int:
    """E with 10**E <= |x| < 10**(E + 1), for x != 0."""
    x = abs(x)
    E = len(str(x.numerator)) - len(str(x.denominator))
    while Fraction(10) ** E > x:
        E -= 1
    while Fraction(10) ** (E + 1) <= x:
        E += 1
    return E


@st.composite
def _unreduced_cases(draw):
    """(head, sign, b, g) for outward_str on the pair (n*g, d*g): heads of
    any sign and 0, or OUTWARD_BOUNDARIES' heads with b = 59; b None, around
    k + 1 (k = 49 - E, the exact-sum branch reaches b <= k + 1), or far past
    k; g from 1 to a 3,000-bit factor."""
    sign = draw(st.sampled_from((-1, 1)))
    if draw(st.booleans()):
        r, bsign, _ = draw(st.sampled_from(OUTWARD_BOUNDARIES))
        side = draw(st.sampled_from((-1, 1)))
        head, sign, b = side * (10**49 + 12345 + r) / 10**49, side * bsign, 59
    else:
        head = Fraction(draw(st.integers(-(10**80), 10**80)),
                        draw(st.integers(1, 10**80)) * 10 ** draw(st.integers(0, 300)))
        k = 49 - _exponent(head) if head else 0
        b = draw(st.none() | st.integers(max(0, k - 2), max(0, k + 3))
                 | st.integers(k + 10, k + 10**5))
    g = draw(st.integers(1, 10**6) | st.integers(1, 2**3000))
    return head, sign, b, g


@settings(deadline=None, max_examples=200)
@given(case=_unreduced_cases())
@example(case=(Fraction(0), 1, None, 6))
@example(case=(Fraction(0), -1, 7, 6))
@example(case=(Fraction(1, 3), 1, 50, 9))  # k = 50: b = k sums exactly
@example(case=(Fraction(1, 3), -1, 51, 9))  # b = k + 1, the last exact sum
@example(case=(Fraction(-1, 3), 1, 52, 9))  # b = k + 2, by pow10_cmp
def test_outward_str_reads_an_unreduced_pair(case):
    # the printed digits depend on the value alone, not on a common factor
    head, sign, b, g = case
    n, d = head.numerator, head.denominator
    assert outward_str(n * g, d * g, sign, b) == outward_str(n, d, sign, b)


def test_surd_floor_of_a_rational():
    # y = 0 is the rational floor x // Q, also where Q divides x
    for x in range(-12, 13):
        for Q in (-3, -2, -1, 1, 2, 7):
            assert surd_floor(x, 0, 5, Q) == math.floor(Fraction(x, Q))


def _sci_reference(P: int, e: int, D: int, Q: int, sig: int) -> str:
    """sci_str of v = (P + e*sqrt(D))/Q > 0, Q > 0, from quad_floor alone:
    the exponent is the j with 1 <= floor(v/10**j) < 10, found by stepping."""
    def floor_scaled(num: int, add: int, k: int, den: int) -> int:
        # floor((num*P + add + num*e*sqrt(D)) * 10**k / (den*Q))
        up, down = 10 ** max(0, k), 10 ** max(0, -k)
        return quad_floor(num * P * up + add * down, num * e * up, D, den * Q * down)

    j = 0
    while floor_scaled(1, 0, -j, 1) >= 10:
        j += 1
    while floor_scaled(1, 0, -j, 1) < 1:
        j -= 1
    digits = str(floor_scaled(2, Q, sig - 1 - j, 2))  # half up
    if len(digits) > sig:
        digits, j = digits[:sig], j + 1
    return f"{digits[0]}.{digits[1:]}e{j:+03d}"


@settings(deadline=None, max_examples=200)
@given(
    P=st.integers(-(10**30), 10**30),
    e=st.integers(-(10**15), 10**15).filter(bool),
    D=st.sampled_from((2, 3, 5, 13, 94, 1009)),
    Q=st.integers(1, 10**20),
    sig=st.sampled_from((1, 3, 5, 17)),
)
# F_40/phi - F_39 and 12*sqrt(2) - 17, cancelling to about -4e-9 and -3e-2
@example(P=-102334155 - 2 * 63245986, e=102334155, D=5, Q=2, sig=17)
@example(P=-17, e=12, D=2, Q=1, sig=17)
def test_sci_str_of_a_surd_matches_isqrt_digits(P, e, D, Q, sig):
    x = qi_normalize(P, e, D, Q)
    sign = x.sign()
    text = sci_str(x, sig)
    ref = _sci_reference(sign * x.P, sign * x.e, x.D, x.Q, sig)
    assert text == ("-" if sign < 0 else "") + ref


def test_enclose_phi_ten_thousandth():
    iv = enclose(PHI, Fraction(1, 10**4))
    assert iv.lo >= Fraction(16180, 10**4) and iv.hi <= Fraction(16181, 10**4)


def test_enclose_rational_is_exact_point():
    iv = enclose(Fraction(3, 7), Fraction(1, 10**30))
    assert iv.lo == iv.hi == Fraction(3, 7)


def test_enclose_certified_refuses_refinement():
    c = Certified.parse("1.41±0.005")
    assert enclose(c, Fraction(1, 100)).contains(Fraction(141, 100))
    with pytest.raises(PrecisionExhausted):
        enclose(c, Fraction(1, 10**6))


def test_certified_parse_variants():
    c = Certified.parse("0.5+-0.125")
    assert c.enclosure == RatInterval(Fraction(3, 8), Fraction(5, 8))
    with pytest.raises(ValueError):
        Certified.parse("1.41")


def test_interval_arithmetic():
    a = RatInterval(Fraction(1, 3), Fraction(1, 2))
    b = RatInterval(Fraction(-2), Fraction(3))
    assert (a + b) == RatInterval(Fraction(-5, 3), Fraction(7, 2))
    assert (a * b) == RatInterval(Fraction(-1), Fraction(3, 2))
    assert (-a) == RatInterval(Fraction(-1, 2), Fraction(-1, 3))
    assert (a / 2).width == a.width / 2
    assert abs(b) == RatInterval(Fraction(0), Fraction(3))
    with pytest.raises(ZeroDivisionError):
        b.reciprocal()
    assert a.reciprocal() == RatInterval(Fraction(2), Fraction(3))


def test_interval_dist_to_nearest_int():
    assert RatInterval(Fraction(1, 4), Fraction(1, 3)).dist_to_nearest_int() == RatInterval(
        Fraction(1, 4), Fraction(1, 3)
    )
    # straddles an integer
    d = RatInterval(Fraction(-1, 8), Fraction(1, 16)).dist_to_nearest_int()
    assert d.lo == 0 and d.hi == Fraction(1, 8)
    # contains a half-integer peak
    d = RatInterval(Fraction(2, 5), Fraction(3, 5)).dist_to_nearest_int()
    assert d.hi == Fraction(1, 2) and d.lo == Fraction(2, 5)
    # wide interval saturates
    assert RatInterval(Fraction(0), Fraction(5)).dist_to_nearest_int() == RatInterval(
        Fraction(0), Fraction(1, 2)
    )


def _dyadic(m: int, e: int) -> Fraction:
    return Fraction(m) * Fraction(2) ** e


def _exp_ends(x: Fraction, digits: int) -> RatInterval:
    """exp_dyadic_ends of x >= 0 as a RatInterval of Fractions."""
    lo, hi = exp_dyadic_ends(x.numerator, x.denominator, digits)
    return RatInterval(_dyadic(*lo), _dyadic(*hi))


def test_exp_bounds_basic():
    iv = _exp_ends(Fraction(1), 30)
    e_30 = Fraction("2.71828182845904523536028747135266249775724709")
    assert iv.lo <= e_30 <= iv.hi
    assert iv.width / iv.lo < Fraction(1, 10**28)
    iv = _exp_ends(Fraction(3), 25)
    assert Fraction("20.0855369231") < iv.lo < iv.hi < Fraction("20.0855369232")


def test_exp_bounds_large_argument():
    iv = _exp_ends(Fraction(100), 20)
    assert iv.lo > 0 and (iv.width / iv.lo) < Fraction(1, 10**18)
    assert len(str(iv.lo.numerator // iv.lo.denominator)) == 44  # e^100 ~ 2.7e43


def test_exp_le_decisions():
    # exp(num/den) <= 1/head for b None: e <= 3, e > 2.7, and exp(8) lies
    # between 2980 and 2981
    assert exp_le_inverse_sum(1, 1, Fraction(1, 3), None)
    assert not exp_le_inverse_sum(1, 1, Fraction(10, 27), None)
    assert exp_le_inverse_sum(8, 1, Fraction(1, 2981), None)
    assert not exp_le_inverse_sum(8, 1, Fraction(1, 2980), None)
    # 10**-b kept apart: exp(8) <= 1/(1/2981 + 10**-9), not 1/(1/2981 + 10**-7)
    assert exp_le_inverse_sum(16, 2, Fraction(1, 2981), 9)
    assert not exp_le_inverse_sum(16, 2, Fraction(1, 2981), 7)


def test_exp_le_at_zero_meets_its_bound_exactly():
    # exp(0) = 1 is rational: both ends are 1, and a bound of exactly 1 is
    # met, which only the non-strict comparison of an end with it decides
    assert exp_dyadic_ends(0, 7, 40) == ((1, 0), (1, 0))
    assert exp_le_inverse_sum(0, 1, Fraction(0), 0) and exp_le_inverse_sum(0, 3, Fraction(1), None)
    assert not exp_le_inverse_sum(0, 1, Fraction(1, 10**9), 0)
    assert not exp_le_inverse_sum(0, 1, Fraction(1), 30)
    assert exp_le_inverse_sum(0, 1, Fraction(99, 100), None)
    assert not exp_le_inverse_sum(0, 1, Fraction(101, 100), None)
    assert exp_le_reference(0, 1) and not exp_le_reference(0, Fraction(99, 100))


def test_exp_kernel_refuses_a_negative_argument_or_denominator():
    # num/den < 0 would never end the square-and-multiply loop; den = 0 has
    # no value
    for num, den in ((-1, 1), (1, -1), (0, 0), (-3, -2)):
        with pytest.raises(ValueError, match="^exp_dyadic_ends needs num >= 0 and den > 0$"):
            exp_dyadic_ends(num, den, 30)
        with pytest.raises(ValueError):
            exp_le_inverse_sum(num, den, Fraction(1), None)


def _pow10_cmp_screened(u: Fraction, b: int) -> tuple[int, bool]:
    """pow10_cmp(u, b), and whether its bit-length screen decided it (False:
    the exact comparison with 10**b did)."""
    seen = []
    screen = exactnum._pow10_screen

    def recording(bits, b):
        seen.append(screen(bits, b))
        return seen[-1]

    exactnum._pow10_screen = recording
    try:
        sign = pow10_cmp(u.numerator, u.denominator, b)
    finally:
        exactnum._pow10_screen = screen
    return sign, bool(seen) and seen[0] != 0


@settings(max_examples=300, deadline=None)
@given(b=st.none() | st.integers(0, 3000), where=st.sampled_from(["at", "near", "far", "any"]),
       q=st.integers(1, 10**12), t=st.integers(-10**12, 10**12), k=st.integers(4, 60),
       up=st.booleans())
@example(b=0, where="at", q=1, t=0, k=4, up=True)
@example(b=1, where="far", q=1, t=0, k=4, up=False)
@example(b=None, where="any", q=1, t=0, k=4, up=False)
@example(b=None, where="any", q=7, t=-3, k=4, up=False)
@example(b=None, where="at", q=1, t=0, k=4, up=True)
def test_pow10_cmp_matches_fraction_comparison(b, where, q, t, k, up):
    # u is 10**-b exactly, within a factor of 2 of it, at least 2**(k-1)
    # away from it, or any rational; b None compares u with 0, unscreened
    f = Fraction((q + 1) // 2 + t % (2 * q - (q + 1) // 2 + 1), q)  # in [1/2, 2]
    u = {"at": Fraction(1), "near": f, "far": f * Fraction(2) ** (k if up else -k),
         "any": Fraction(t, q)}[where] / 10**(b or 0)
    sign, screened = _pow10_cmp_screened(u, b)
    ten = Fraction(0) if b is None else Fraction(1, 10**b)
    assert sign == (u > ten) - (u < ten)
    if b is None:
        assert not screened
    elif where == "at":
        assert sign == 0 and not screened
    elif where == "far":
        assert screened


def test_pow10_cmp_decides_by_bit_lengths_or_exactly():
    b = 100_000
    ten = Fraction(1, 10**b)
    for u in (ten, ten * Fraction(10**30 + 1, 10**30), ten * Fraction(10**30 - 1, 10**30)):
        assert _pow10_cmp_screened(u, b) == ((u > ten) - (u < ten), False)
    for u in (ten * 9, ten / 9, Fraction(1, 3), Fraction(-1, 7), Fraction(0)):
        assert _pow10_cmp_screened(u, b)[0] == (u > ten) - (u < ten)
    assert _pow10_cmp_screened(ten * 9, b)[1] and _pow10_cmp_screened(Fraction(1, 3), b)[1]


# b = 643: floor(3.321929 b) passes floor(b log2 10); b = 789: ceil(3.321929 b
# / 1.000001) falls below ceil(b log2 10), so a looser constant misjudges there
@pytest.mark.parametrize("b", [0, 1, 2, 643, 789, 10**5])
def test_pow10_cmp_at_the_edges_of_its_screen(b):
    # for each bit-length difference from past one screen bound to past the
    # other, the least and the greatest n/d with that difference (d up to
    # 3.4 b + 80 bits), against the exact comparison with 10**-b
    ten = Fraction(1, 10**b)
    lo, hi = -(10**b).bit_length() - 3, -(10**b).bit_length() + 4
    for bits in range(lo, hi):
        c = 70 - bits  # bit length of d; n has 70 bits
        for n, d in ((1 << 69, (1 << c) - 1), ((1 << 70) - 1, 1 << (c - 1))):
            assert n.bit_length() - d.bit_length() == bits
            u = Fraction(n, d)
            assert pow10_cmp(n, d, b) == (u > ten) - (u < ten), (bits, n, d)


@pytest.mark.parametrize("x", [Fraction(1), Fraction(7, 3), Fraction(40)])
@pytest.mark.parametrize("b", [0, 1, 5, 18, 60, None])
def test_exp_le_inverse_sum_matches_exp_le(x, b):
    # exp(x) <= 1/(head + 10**-b), decided with 10**-b kept apart, against
    # the oracle's log-space decision on the formed sum (1/head for b None);
    # the last heads put head + 10**-b within 10**-40 or so of exp(-x)
    inv = 1 / _exp_ends(x, 40).mid
    ten = Fraction(0) if b is None else Fraction(1, 10**b)
    tiny = Fraction(1, 10**((b or 40) + 3))
    for head in (Fraction(0), Fraction(1, 2), inv, inv - ten):
        for nudge in (Fraction(0), tiny, -tiny):
            h = head + nudge
            if h >= 0 and h + ten > 0:
                assert (exp_le_inverse_sum(x.numerator, x.denominator, h, b)
                        == exp_le_reference(x, 1 / (h + ten)))


def test_ln10_constants_bracket():
    # LN10_HI is above ln 10, by less than 2 * 10**-16
    assert _exp_ends(LN10_HI, 25).lo > 10 > _exp_ends(LN10_HI - Fraction(2, 10**16), 25).hi
    assert not exp_le_reference(LN10_HI, 10)


def _mpmath_exp_enclosure(x: Fraction, dps: int) -> tuple[Fraction, Fraction]:
    """mpmath's interval enclosure of exp(x), endpoints as exact rationals."""
    iv, saved = mpmath.iv, mpmath.iv.dps
    iv.dps = dps
    try:
        v = iv.exp(iv.mpf(x.numerator) / x.denominator)
        with mpmath.mp.workprec(iv.prec):
            ends = [mpmath.mpf(end).man_exp for end in (v.a, v.b)]
    finally:
        iv.dps = saved
    return tuple(Fraction(man) * Fraction(2) ** exp for man, exp in ends)


@pytest.mark.parametrize("x", [Fraction(1, 12), Fraction(23), Fraction(164, 5),
                               Fraction(17711)])
def test_exp_bounds_same_with_the_e_memo_cold_and_warm(x):
    # e is taken once per precision from a memo; the bounds are those of the
    # series summed afresh, whichever precision was asked first
    levels = [20, 35, 60, 120, 240]
    memo = exactnum._e_fixed

    def series(prec, up):
        return exactnum._exp_taylor_fixed(1, 1, prec, up)

    def checked(prec, up):
        value = memo(prec, up)
        assert value == series(prec, up)
        return value

    try:
        exactnum._e_fixed = series
        reference = {digits: _exp_ends(x, digits) for digits in levels}
        exactnum._e_fixed = checked
        memo.cache_clear()
        for digits in levels + levels[::-1]:  # cold on the way up, warm on the way down
            assert _exp_ends(x, digits) == reference[digits]
    finally:
        exactnum._e_fixed = memo
    assert memo.cache_info().hits >= 2 * len(levels)
    for digits, iv in reference.items():
        lo, hi = _mpmath_exp_enclosure(x, digits + 40)
        assert iv.lo <= lo and hi <= iv.hi


@settings(deadline=None)
@given(x=st.fractions(min_value=0, max_value=50_000, max_denominator=1000),
       digits=st.integers(1, 80))
@example(x=Fraction(0), digits=1)
@example(x=Fraction(50_000), digits=80)
@example(x=Fraction(1, 1000), digits=80)
@example(x=Fraction(17711), digits=30)
def test_exp_bounds_contains_exp_with_relative_width(x, digits):
    iv = _exp_ends(x, digits)
    lo, hi = _mpmath_exp_enclosure(x, digits + 40)
    assert iv.lo <= lo and hi <= iv.hi
    assert iv.width < iv.lo / 10**digits


@settings(deadline=None)
@given(x=st.fractions(min_value=1, max_value=50_000, max_denominator=1000), digits=st.integers(1, 80))
@example(x=Fraction(1), digits=80)
@example(x=Fraction(50_000), digits=80)
def test_exp_bounds_endpoints_stay_short(x, digits):
    # exp(x) has about x*log2(e) bits before the point; the endpoints carry
    # about `digits` digits more, not a power of a Taylor-sum denominator
    iv = _exp_ends(x, digits)
    limit = float(x) * math.log2(math.e) + 4 * digits + 64
    for end in (iv.lo, iv.hi):
        assert end.numerator.bit_length() <= limit
        assert end.denominator.bit_length() <= limit


@settings(deadline=None)
@given(x=st.fractions(min_value=0, max_value=5000, max_denominator=1000),
       scale=st.integers(1, 10**12), digits=st.integers(5, 80))
@example(x=Fraction(0), scale=7, digits=5)
@example(x=Fraction(1, 2), scale=1, digits=5)
@example(x=Fraction(17711), scale=3, digits=30)
@example(x=Fraction(4999, 1000), scale=10**12, digits=80)
# n = 8 and 998: the guard's len(str(n + 1)) is one short of len(str(n + 2))
@example(x=Fraction(17, 2), scale=5, digits=30)
@example(x=Fraction(998), scale=1, digits=30)
# guards 31 and 25: 3.322 and 3.323 bits per digit give different precisions
# at 31, and a division by 1000 and by 1001 at 25
@example(x=Fraction(1, 2), scale=1, digits=22)
@example(x=Fraction(1, 2), scale=1, digits=16)
def test_exp_dyadic_ends_match_the_fraction_route(x, scale, digits):
    # the ends (m, e) of exp(num/den) for an unreduced pair are the bounds
    # the Fraction route gives for the reduced x, and mpmath's enclosure
    # lies inside
    ref = exp_bounds_reference(x, digits)
    num, den = x.numerator * scale, x.denominator * scale
    lo, hi = exp_dyadic_ends(num, den, digits)
    assert (_dyadic(*lo), _dyadic(*hi)) == (ref.lo, ref.hi)
    assert lo[0] > 0 and hi[0] > 0
    mp_lo, mp_hi = _mpmath_exp_enclosure(x, digits + 40)
    assert ref.lo <= mp_lo and mp_hi <= ref.hi


@settings(max_examples=60, deadline=None)
@given(x=st.fractions(min_value=0, max_value=200, max_denominator=50),
       scale=st.integers(1, 10**6),
       head=st.fractions(min_value=0, max_value=2, max_denominator=10**6),
       b=st.none() | st.integers(0, 100))
@example(x=Fraction(3), scale=1, head=Fraction(0), b=1)
@example(x=Fraction(1), scale=1, head=Fraction(0), b=None)
def test_exp_le_inverse_sum_matches_the_formed_sum(x, scale, head, b):
    # the integer test of each end against 1/(head + 10**-b), the pair
    # unreduced, decides as the oracle does on the formed sum, and as the
    # Fraction route's ends compared with it do
    assume(x != 0 and (head > 0 or b is not None))
    bound = 1 / (head + (0 if b is None else Fraction(1, 10**b)))
    digits = 30
    while True:
        ref = exp_bounds_reference(x, digits)
        if ref.hi <= bound or ref.lo > bound:
            break
        digits *= 2
    decided = exp_le_inverse_sum(x.numerator * scale, x.denominator * scale, head, b)
    assert decided == exp_le_reference(x, bound) == (ref.hi <= bound)


# 2**15 bits (about 9,900 digits): the draws and examples probe each side
_MID_BITS = 1 << 15


@st.composite
def _big_ints(draw):
    cut = _MID_BITS
    bits = draw(st.one_of(st.integers(cut - 70, cut + 70), st.integers(0, 400_000)))
    n = draw(st.randoms(use_true_random=False)).getrandbits(bits) | (1 << bits >> 1)
    return -n if draw(st.booleans()) else n


@settings(deadline=None, max_examples=30)
@given(n=_big_ints())
@example(n=0)
@example(n=-1)
@example(n=(1 << _MID_BITS) - 1)
@example(n=1 << _MID_BITS)
@example(n=-(1 << _MID_BITS))
@example(n=(1 << 400_000) - 1)
@example(n=-(10**120_000))
def test_int_str_equals_str(n):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # let str(n) print any size, as the CLI does
    try:
        assert int_str(n) == str(n)
    finally:
        sys.set_int_max_str_digits(saved)


# each side of the powers of two from 2**10 to 2**18 bits
_GRID_BITS = sorted({w + d for w in [1 << k for k in range(10, 19)] for d in (-1, 0, 1)})


@settings(deadline=None, max_examples=25)
@given(
    widths=st.lists(st.one_of(st.sampled_from(_GRID_BITS), st.integers(2200, 300_000)),
                    min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
    limit=st.sampled_from([0, 640, 4300]),
)
def test_int_str_across_calls_and_digit_limits(widths, seed, limit):
    # numbers of several sizes in a row, under a digit limit that str(n)
    # may exceed
    rnd = random.Random(seed)
    saved = sys.get_int_max_str_digits()
    try:
        for w in widths:
            n = rnd.getrandbits(w) | (1 << (w - 1))
            n = -n if rnd.random() < 0.5 else n
            sys.set_int_max_str_digits(0)
            expected = str(n)
            sys.set_int_max_str_digits(limit)
            assert int_str(n) == expected
    finally:
        sys.set_int_max_str_digits(saved)


def _digit_string_int(digits: str) -> int:
    # the value of a decimal digit string, built without int(str) or str(int)
    n = 0
    for i in range(0, len(digits), 9):
        chunk = digits[i:i + 9]
        n = n * 10 ** len(chunk) + sum(
            (ord(ch) - 48) * 10**k for k, ch in enumerate(reversed(chunk))
        )
    return n


@pytest.mark.parametrize("ndigits", [5_000, 12_000])
@pytest.mark.parametrize("sign", [1, -1])
def test_int_str_under_default_digit_limit(ndigits, sign):
    # str refuses both sizes under the default limit
    digits = ("7" + "1234567890" * ndigits)[:ndigits]
    n = sign * _digit_string_int(digits)
    expected = digits if sign > 0 else "-" + digits
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        assert int_str(n) == expected
        assert int_str(sign * 10**ndigits) == ("-" if sign < 0 else "") + "1" + "0" * ndigits
    finally:
        sys.set_int_max_str_digits(saved)


# -- the value types: ==, hash and repr from exactnum.ByValue ----------------

_IV = RatInterval(Fraction(1, 2), Fraction(3, 4))
_IV2 = RatInterval(Fraction(1, 3), Fraction(3, 4))

# (class, fields, a different value for each field); each class is built
# as cls(**fields), so a field can be swapped one at a time
VALUE_TYPES = [
    (RatInterval, {"lo": Fraction(1, 2), "hi": Fraction(3, 4)},
     {"lo": Fraction(1, 3), "hi": Fraction(4, 5)}),
    (Certified, {"digits": "0.6", "enclosure": _IV}, {"digits": "0.60", "enclosure": _IV2}),
    (PsiSpec, {"kind": "power", "c": None, "k": 2, "table": None},
     {"kind": "exp_decay", "c": Fraction(1, 2), "k": 3, "table": ((1, Fraction(1, 2)),)}),
    (ConicForm, {"a": 1, "b": -1, "c": -1, "d": 1}, {"a": 3, "b": -3, "c": -3, "d": 5}),
    (Automorph, {"t11": 0, "t12": 1, "t21": 1, "t22": 1},
     {"t11": 2, "t12": -1, "t21": 5, "t22": 7}),
    (RealDigits, {"b": [0, 1], "depth": 2, "remainder": _IV},
     {"b": [0, 2], "depth": 3, "remainder": Fraction(1, 9)}),
]
UNHASHABLE = (RealDigits,)


def test_value_type_reprs_are_pinned():
    assert repr(_IV) == "RatInterval(lo=Fraction(1, 2), hi=Fraction(3, 4))"
    assert repr(Certified.parse("1.41±0.005")) == (
        "Certified(digits='1.41', enclosure=RatInterval(lo=Fraction(281, 200), hi=Fraction(283, 200)))"
    )
    assert repr(PsiSpec.exp_decay(Fraction(1, 2))) == (
        "PsiSpec(kind='exp_decay', c=Fraction(1, 2), k=None, table=None)"
    )
    assert repr(PsiSpec.power(2)) == "PsiSpec(kind='power', c=None, k=2, table=None)"
    assert repr(PsiSpec.rational_table([(10, Fraction(1, 3)), (1, Fraction(1, 2))])) == (
        "PsiSpec(kind='rational_table', c=None, k=None, "
        "table=((1, Fraction(1, 2)), (10, Fraction(1, 3))))"
    )
    assert repr(ConicForm(1, -1, -1, 1)) == "ConicForm(a=1, b=-1, c=-1, d=1)"
    assert repr(Automorph(0, 1, 1, 1)) == "Automorph(t11=0, t12=1, t21=1, t22=1)"


@pytest.mark.parametrize("cls, fields, others", VALUE_TYPES, ids=[t[0].__name__ for t in VALUE_TYPES])
def test_value_types_compare_and_hash_by_fields(cls, fields, others):
    x, y = cls(**fields), cls(**dict(fields))
    assert x == y and not (x != y)
    if cls in UNHASHABLE:
        for v in (x, y):
            with pytest.raises(TypeError):
                hash(v)
    else:
        assert hash(x) == hash(y) == hash(tuple(fields.values()))
    for name, value in others.items():
        z = cls(**{**fields, name: value})
        assert x != z and not (x == z), name
    # another class never compares equal, not even with the same fields
    for other in (tuple(fields.values()), object(), _IV if cls is not RatInterval else x.lo):
        assert x != other and not (x == other)
        assert x.__eq__(other) is NotImplemented


_REPORT = approx.DecayReport(0, [], 5, Fraction(1, 1000), False, "no verification pairs")
_ASET = approx.ApproxSet(PHI, [(2, 1), (3, 2)], 0, [])
# the fields of every Record subclass, in __slots__ order
RECORD_FIELDS = {cls: fields for cls, fields, _ in VALUE_TYPES} | {
    exactnum.Kind: {"name": "rat", "types": (int, Fraction), "parse": Fraction,
                    "decode": Fraction, "encode": str, "exact": True},
    approx.ApproxSet: {"alpha": PHI, "pairs": [(2, 1), (3, 2)], "order": 0, "gamma": []},
    approx.ReportRow: {"r": 1, "s": 2, "residual": Fraction(1, 2), "scaled": Fraction(3, 2)},
    approx.DecayReport: {"order": 0, "rows": [], "window": 5, "rel_tolerance": Fraction(1, 1000),
                         "verdict": False, "note": "no verification pairs"},
    approx.CertLine: {"k": 1, "s": 5, "route": "monotone", "bound": None, "ok": True,
                      "detail": "s_k <= q_{n_k+1} and Psi decreasing"},
    approx.PsiConstruction: {"alpha": INV_PHI, "psi": PsiSpec.power(2), "indices": [4],
                             "n_next": 8, "s": [5], "gamma_partial": Fraction(1, 3),
                             "tail": (Fraction(0), 1), "certificate": []},
    approx.LineFit: {"a": 1, "b": 2, "d": 3, "exceptions": 0},
    approx.GrowthProfile: {"classification": "linear", "ratios": [Fraction(2)],
                           "differences": [1]},
    conic.LaurentExpansion: {"form": ConicForm(1, -1, -1, 1), "alpha": PHI, "gamma": [0, 1],
                             "threshold_s": 2, "next_term_j": 4,
                             "next_term_upper": Fraction(1, 8)},
    conic.PeriodicConstruction: {"aset": _ASET, "gamma2": Fraction(1, 5), "preperiod": 0,
                                 "period": 1, "report": _REPORT},
    ostrowski.IntDigits: {"s": 3, "c": [1, 1], "M": 1},
    ostrowski.DeltaProfile: {"s": 3, "depth": 2, "delta": [0, 1], "m": 1,
                             "int_digits": None, "real_digits": None},
}
# their own constructors default a field: ConicForm's d
DEFAULTED = (ConicForm,)


def _record_types():
    todo, found = [Record], set()
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__slots__:
            found.add(cls)
    return found


def test_every_record_type_is_listed():
    assert _record_types() == set(RECORD_FIELDS)


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_records_take_their_slots_by_position_or_name(cls):
    fields = RECORD_FIELDS[cls]
    names, values = cls.__slots__, list(fields.values())
    assert tuple(fields) == names
    for x in (cls(*values), cls(**fields)):
        assert [getattr(x, name) for name in names] == values
    name = re.escape(cls.__name__)
    with pytest.raises(TypeError, match=name):
        cls(*values, 0)
    with pytest.raises(TypeError, match=f"{name}.*'bogus'"):
        cls(**fields, bogus=0)
    with pytest.raises(TypeError, match=f"{name}.*'{names[0]}'"):
        cls(*values, **{names[0]: values[0]})
    if cls not in DEFAULTED:
        with pytest.raises(TypeError, match=f"{name}.*'{names[-1]}'"):
            cls(*values[:-1])


# -- QuadIrr arithmetic against (u, v) coordinate arithmetic -----------------

_FIELDS = (2, 3, 5, 6, 7, 13)


@st.composite
def _same_field_operands(draw):
    """(x, y, D): QuadIrrs of field D, ints or Fractions, at least one a QuadIrr."""
    D = draw(st.sampled_from(_FIELDS))
    small = st.integers(-40, 40)

    def operand():
        kind = draw(st.sampled_from(("quad", "int", "frac")))
        if kind == "int":
            return draw(small)
        if kind == "frac":
            return Fraction(draw(small), draw(st.integers(1, 30)))
        e = draw(small.filter(bool))
        return qi_normalize(draw(small), e, D, draw(st.integers(-30, 30).filter(bool)))

    x, y = operand(), operand()
    assume(isinstance(x, QuadIrr) or isinstance(y, QuadIrr))
    return x, y, D


_OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y,
        "/": lambda x, y: x / y}


@settings(max_examples=400, deadline=None)
@given(operands=_same_field_operands(), op=st.sampled_from(sorted(_OPS)))
@example(operands=(PHI, 0, 5), op="*")
@example(operands=(Fraction(0), INV_PHI, 5), op="*")
@example(operands=(0, SQRT2, 2), op="/")
@example(operands=(SQRT2, Fraction(0), 2), op="/")
@example(operands=(PHI, PHI, 5), op="-")
@example(operands=(SQRT2, SQRT2, 2), op="*")
@example(operands=(PHI, -PHI + 3, 5), op="+")
def test_quadirr_arithmetic_matches_coordinates(operands, op):
    x, y, D = operands
    if op == "/" and surd_coords(y, D) == (0, 0):
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    want = surd_arith(op, x, y, D)
    got = _OPS[op](x, y)
    assert surd_coords(got, D) == want
    if want[1] == 0:
        # a rational result is a Fraction, never a degenerate QuadIrr
        assert type(got) is Fraction
    else:
        assert type(got) is QuadIrr
        assert (got.D, got.Q > 0, math.gcd(got.P, got.e, got.Q)) == (D, True, 1)


_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _oracle_sign(u: Fraction, v: Fraction, D: int) -> int:
    """Sign of u + v*sqrt(D): u's when u**2 > v**2*D or v = 0, else v's
    (u**2 = v**2*D only for u = v = 0, sqrt(D) being irrational)."""
    w = u if v == 0 or u * u > v * v * D else v
    return (w > 0) - (w < 0)


@settings(max_examples=400, deadline=None)
@given(operands=_same_field_operands())
@example(operands=(PHI, PHI, 5))
@example(operands=(PHI, 2, 5))
@example(operands=(Fraction(3, 2), INV_PHI + 1, 5))
@example(operands=(SQRT2, -SQRT2, 2))
def test_quadirr_order_matches_coordinates(operands):
    x, y, D = operands
    want = _oracle_sign(*surd_arith("-", x, y, D), D)
    for name, op in _ORDER.items():
        assert op(x, y) == op(want, 0), name
        assert op(y, x) == op(0, want), name


@pytest.mark.parametrize("op", sorted({**_OPS, **_ORDER}))
def test_quadirr_arithmetic_across_fields_is_mixed_field(op):
    f = {**_OPS, **_ORDER}[op]
    for x, y in ((PHI, SQRT2), (SQRT2, INV_PHI)):
        with pytest.raises(MixedField):
            f(x, y)


def _quads():
    return st.builds(qi_normalize, st.integers(-(10**12), 10**12),
                     st.integers(-(10**6), 10**6).filter(bool), st.sampled_from(_FIELDS),
                     st.integers(1, 10**9))


def _intervals():
    bound = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9)
    return st.lists(bound, min_size=2, max_size=2).map(lambda b: RatInterval(min(b), max(b)))


@settings(max_examples=300, deadline=None)
@given(
    x=st.one_of(_quads(), _intervals()),
    other=st.one_of(st.floats(), st.decimals(), st.complex_numbers()),
    op=st.sampled_from(sorted(_OPS)),
)
@example(x=PHI, other=0.1, op="-")
@example(x=_IV, other=0.1, op="+")
def test_operators_refuse_inexact_operands(x, other, op):
    # a float, Decimal or complex never enters exact arithmetic, from either
    # side, and the error names the operator that was written
    for a, b in ((x, other), (other, x)):
        with pytest.raises(TypeError, match=f"for {re.escape(op)}:"):
            _OPS[op](a, b)


# every exactnum entry point that takes a rational value, and PsiSpec's
_ENTRY_POINTS = {
    "RatInterval.point": RatInterval.point,
    "RatInterval.contains": lambda v: RatInterval(0, 1).contains(v),
    "sign_of": exactnum.sign_of,
    "exp_le_inverse_sum-num": lambda v: exp_le_inverse_sum(v, 1, Fraction(1), None),
    "exp_le_inverse_sum-den": lambda v: exp_le_inverse_sum(1, v, Fraction(1), None),
    "exp_le_inverse_sum-head": lambda v: exp_le_inverse_sum(1, 1, v, None),
    "PsiSpec.exp_decay": PsiSpec.exp_decay,
    "PsiSpec.power": PsiSpec.power,
    "PsiSpec.rational_table-s": lambda v: PsiSpec.rational_table([(v, Fraction(1, 2))]),
    "PsiSpec.rational_table-value": lambda v: PsiSpec.rational_table([(1, v)]),
    "enclose": lambda v: enclose(v, Fraction(1, 10)),
    "enclose-width": lambda v: enclose(Fraction(1, 3), v),
    "RatInterval-lo": lambda v: RatInterval(v, 1),
    "RatInterval-hi": lambda v: RatInterval(0, v),
}


@settings(max_examples=300, deadline=None)
@given(
    entry=st.sampled_from(sorted(_ENTRY_POINTS)),
    value=st.one_of(st.floats(), st.decimals(), st.complex_numbers()),
)
@example(entry="RatInterval.point", value=0.1)
@example(entry="RatInterval.contains", value=0.1)
@example(entry="sign_of", value=0.1)
@example(entry="exp_le_inverse_sum-num", value=1.0)
@example(entry="exp_le_inverse_sum-den", value=1.0)
@example(entry="exp_le_inverse_sum-head", value=0.5)
@example(entry="PsiSpec.exp_decay", value=0.1)
@example(entry="enclose", value=0.5)
@example(entry="PsiSpec.power", value=2.5)
@example(entry="PsiSpec.rational_table-s", value=1.9)
@example(entry="PsiSpec.rational_table-value", value=0.1)
@example(entry="enclose-width", value=0.1)
@example(entry="RatInterval-lo", value=0.1)
@example(entry="RatInterval-hi", value=0.25)
def test_entry_points_refuse_inexact_values(entry, value):
    # the sibling of test_operators_refuse_inexact_operands for the entry
    # points that take a value rather than an operand
    with pytest.raises(TypeError):
        _ENTRY_POINTS[entry](value)


def _certified():
    center = st.decimals(min_value=-(10**6), max_value=10**6, places=12)
    radius = st.integers(1, 40).map(lambda k: Fraction(1, 10**k))
    return st.builds(lambda c, r: Certified(str(c), RatInterval(Fraction(c) - r, Fraction(c) + r)),
                     center, radius)


# a value strategy for every kind in exactnum.KINDS
_KIND_VALUES = {
    "rat": st.one_of(st.integers(-(10**12), 10**12), st.fractions(max_denominator=10**12)),
    "quad": _quads(),
    "dec": _certified(),
    "interval": _intervals(),
}


def _mp_value(x):
    if isinstance(x, QuadIrr):
        return (x.P + x.e * mpmath.sqrt(x.D)) / x.Q
    if isinstance(x, Certified):
        x = Fraction(x.digits)
    return mpmath.mpf(x.numerator) / x.denominator


def test_every_kind_has_a_value_strategy():
    assert sorted(_KIND_VALUES) == sorted(exactnum.KINDS)


@pytest.mark.parametrize("name", sorted(_KIND_VALUES))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), digits=st.integers(0, 40))
def test_enclose_and_as_interval_contain_the_value(name, data, digits):
    x = data.draw(_KIND_VALUES[name])
    width = Fraction(1, 10**digits)
    if name == "interval":
        # answers as a dec value does: the interval it is, if narrow enough
        assert exactnum.as_interval(x, width) is x
        if x.width > width:
            with pytest.raises(PrecisionExhausted):
                enclose(x, width)
        else:
            assert enclose(x, width) is x
        return
    if name == "dec":
        assert exactnum.as_interval(x, width) is x.enclosure
        if x.enclosure.width > width:
            with pytest.raises(PrecisionExhausted):
                enclose(x, width)
            return
        iv = enclose(x, width)
        assert iv is x.enclosure
    else:
        iv = enclose(x, width)
        assert iv.width <= width
        assert exactnum.as_interval(x, width) == iv
    with mpmath.workdps(90):
        value = _mp_value(x)
        eps = mpmath.mpf(10) ** -75 * max(1, abs(value))
        assert _mp_value(iv.lo) - eps <= value <= _mp_value(iv.hi) + eps


def test_rational_returns_an_exact_fraction_as_is():
    class Sub(Fraction):
        pass

    f = Fraction(-22, 7)
    assert exactnum.rational(f) is f
    for x in (Sub(-22, 7), -22, True):
        got = exactnum.rational(x)
        assert type(got) is Fraction and got == x
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError):
            exactnum.rational(bad)


EXACT_RATIONALS = st.one_of(st.integers(-(10**40), 10**40),
                            st.fractions(max_denominator=10**30).map(Fraction))


@settings(deadline=None, max_examples=400)
@given(lo=EXACT_RATIONALS, hi=EXACT_RATIONALS)
@example(lo=1, hi=Fraction(1, 2))
@example(lo=Fraction(-1, 3), hi=Fraction(-1, 2))
@example(lo=Fraction(5, 3), hi=Fraction(5, 3))
@example(lo=2, hi=1)
def test_rat_interval_refuses_out_of_order_ends(lo, hi):
    if lo > hi:
        with pytest.raises(ValueError, match="out of order"):
            RatInterval(lo, hi)
    else:
        iv = RatInterval(lo, hi)
        assert (iv.lo, iv.hi) == (lo, hi)


@settings(deadline=None, max_examples=300)
@given(
    P=st.integers(-(10**30), 10**30),
    e=st.integers(1, 10**300).flatmap(lambda n: st.sampled_from((n, -n))),
    D=st.sampled_from([2, 3, 5, 7, 13, 991]),
    Q=st.integers(1, 10**40),
    w_num=st.integers(1, 10**50),
    w_den=st.integers(1, 10**400),
)
@example(P=0, e=1, D=2, Q=1, w_num=1, w_den=10**8)
@example(P=0, e=1, D=2, Q=1, w_num=1, w_den=10**8 + 1)
@example(P=0, e=3, D=2, Q=3, w_num=7, w_den=7)
def test_quad_ends_precision_matches_the_fraction_formula(P, e, D, Q, w_num, w_den):
    # c = ceil(need) for need = (|e|/Q)/width in Fractions, and k the least
    # k = 1 (mod 8) with 10**k >= c, read off the ends' denominator Q*10**k
    x = qi_normalize(P, e, D, Q)
    width = Fraction(w_num, w_den)
    need = Fraction(abs(x.e), x.Q) / width
    c = -(-need.numerator // need.denominator)
    k = 1
    while 10**k < c:
        k += 8
    (_, d_lo), (_, d_hi) = exactnum._quad_ends(x, width)
    assert d_lo == d_hi == x.Q * 10**k
