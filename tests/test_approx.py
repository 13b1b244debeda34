import math
import random
import tracemalloc
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratapprox.approx import (
    ApproxSet,
    PsiSpec,
    construct_psi,
    detect_line,
    fit_coefficients,
    growth_profile,
    line_set,
    nearest_numerators,
    verify_order,
)
from ratapprox.cf import CFContext
from ratapprox.errors import BlowUp, InsufficientPairs, PrecisionExhausted, SingularSystem
from ratapprox.exactnum import LN10_HI, Certified, QuadIrr, RatInterval, enclose, qi_normalize

from oracles import (_EXP_REACH, convergent_pairs, exp_bounds_reference, exp_le_reference,
                     gamma_interval, pair_value, psi_certificate_reference, quad_cf_digits,
                     tail_exponent_reference)

PHI = qi_normalize(1, 1, 5, 2)
INV_PHI = qi_normalize(-1, 1, 5, 2)

GOLDEN_PAIRS = [(2, 1), (5, 3), (13, 8), (34, 21), (89, 55), (233, 144), (610, 377),
                (1597, 987), (4181, 2584), (10946, 6765)]


def test_line_set_examples():
    assert line_set(3, 7, 1, 3).pairs == [(1, 2), (4, 9), (7, 16)]
    assert line_set(1, 1, 0, 4).pairs == [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert line_set(1, 2, 1, 3).pairs == [(1, 1), (2, 3), (3, 5)]


def test_line_set_gamma():
    aset = line_set(3, 7, 1, 5)
    assert aset.gamma == [Fraction(1, 7)] and aset.alpha == Fraction(3, 7)
    with pytest.raises(ValueError):
        line_set(2, 4, 1, 3)


def test_fit_on_line_recovers_gamma_exactly():
    aset = line_set(3, 7, 1, 8)
    gamma, report = fit_coefficients(aset.pairs, Fraction(3, 7), 1)
    assert gamma == [Fraction(1, 7)]
    assert report.passed
    assert all(row.scaled == 0 for row in report.rows)


def test_fit_golden_ratio_order_two():
    gamma, report = fit_coefficients(GOLDEN_PAIRS[:5], PHI, 2)
    inv_sqrt5 = qi_normalize(0, 1, 5, 5)  # 1/sqrt(5) ~ 0.4472135
    dev1 = enclose(abs(gamma[0]), Fraction(1, 10**30)) if isinstance(
        gamma[0], QuadIrr
    ) else RatInterval.point(abs(gamma[0]))
    assert dev1.hi < Fraction(1, 10**3)
    dev2 = enclose(abs(gamma[1] - inv_sqrt5), Fraction(1, 10**30))
    assert dev2.hi < Fraction(1, 10**3)


def test_fit_order_zero_is_plain_convergence():
    pairs = [(round(1.618 * s), s) for s in (10, 20, 40, 80, 160)]
    gamma, report = fit_coefficients(pairs, PHI, 0)
    assert gamma == []
    assert len(report.rows) == len(pairs)


def test_fit_preconditions():
    with pytest.raises(InsufficientPairs):
        fit_coefficients([(1, 1), (2, 2), (3, 3)], Fraction(1), 2)
    with pytest.raises(SingularSystem):
        fit_coefficients([(1, 2), (2, 2), (3, 5), (4, 7)], Fraction(1, 2), 1)
    # a denominator below 1 is refused before any fitting
    message = r"^denominators must be strictly increasing and positive$"
    for pairs in ([(0, 0), (1, 1), (2, 2), (3, 3)], [(1, -3), (1, 1), (2, 2), (3, 3)]):
        with pytest.raises(ValueError, match=message):
            fit_coefficients(pairs, PHI, 2)


def test_verify_order_golden_pass_and_fail():
    gamma, _ = fit_coefficients(GOLDEN_PAIRS, PHI, 4)
    aset = ApproxSet(alpha=PHI, pairs=GOLDEN_PAIRS, order=4, gamma=gamma)
    assert verify_order(aset).passed
    # perturb gamma_2 by 1e-3 at order 2: decay stalls
    bad = ApproxSet(
        alpha=PHI,
        pairs=GOLDEN_PAIRS,
        order=2,
        gamma=[gamma[0], gamma[1] + Fraction(1, 1000)],
    )
    assert not verify_order(bad).passed


def test_verify_order_rational_line_any_order():
    aset = line_set(3, 7, 1, 9)
    for order in (1, 2, 3):
        padded = ApproxSet(
            alpha=aset.alpha,
            pairs=aset.pairs,
            order=order,
            gamma=[Fraction(1, 7)] + [Fraction(0)] * (order - 1),
        )
        rep = verify_order(padded)
        assert rep.passed
        assert all(row.scaled == 0 for row in rep.rows)


def test_construct_psi_power_law_golden():
    cons = construct_psi(INV_PHI, PsiSpec.power(2), 2)
    assert cons.indices == [4, 12]
    assert cons.s == [5, 238]
    assert cons.certified
    assert all(line.route == "numeric" for line in cons.certificate)
    assert cons.n_next == 28


def test_construct_psi_k1():
    cons = construct_psi(INV_PHI, PsiSpec.power(1), 1)
    assert cons.s == [5]
    assert cons.certified


def test_construct_psi_gamma_interval():
    cons = construct_psi(INV_PHI, PsiSpec.power(2), 2)
    ctx = CFContext(INV_PHI)
    partial = ctx.D(4) + ctx.D(12)
    iv = gamma_interval(cons)
    assert iv.overlaps(enclose(partial, Fraction(1, 10**30)))
    assert iv.width < Fraction(1, 10**4)


def test_acceptance_6_sums_of_d_n_are_canonical():
    # sums of the 25,000-bit D_n reduce by one gcd taken small operand first;
    # each partial sum, in either order, is the canonical triple
    ctx = CFContext(INV_PHI)
    terms = [ctx.D(n) for n in (4, 20, 36808)]
    assert terms[-1].e.bit_length() > 25_000
    sums = []
    for order in (terms, terms[::-1]):
        total = 0
        for term in order:
            total = term + total
            sums.append(total)
    sums.append(construct_psi(INV_PHI, PsiSpec.exp_decay(1), 3).gamma_partial)
    assert sums[2] == sums[5] == sums[6]
    for x in sums:
        assert isinstance(x, QuadIrr)
        assert math.gcd(x.P, x.e, x.Q) == 1 and x.Q > 0
        assert x == qi_normalize(x.P, x.e, x.D, x.Q)


def _unit_quadratic(rng) -> QuadIrr:
    """frac(sqrt(D)/Q) for a random non-square D and Q in 1..3."""
    D = rng.choice([d for d in range(2, 300) if isqrt(d) ** 2 != d])
    Q = rng.randint(1, 3)
    return qi_normalize(-Q * (isqrt(D) // Q), 1, D, Q)


def _certificate_routes(alpha, psi, count: int, budget: int) -> set:
    """Check one construction, or the partial one of its BlowUp, against the
    exact Fraction route; return its lines' (tail has a b, route, bound has
    no b) triples."""
    try:
        cons = construct_psi(alpha, psi, count, digit_budget=budget)
    except BlowUp as exc:
        cons = exc.partial
    tail, lines = psi_certificate_reference(cons, budget)
    assert pair_value(cons.tail) == tail
    assert [(line.route, line.ok, pair_value(line.bound)) for line in cons.certificate] == lines
    # a bound is the cap (no b) or carries the tail's b
    assert all(line.bound[1] in (None, cons.tail[1])
               for line in cons.certificate if line.bound is not None)
    return {(cons.tail[1] is not None, line.route, line.bound is None or line.bound[1] is None)
            for line in cons.certificate}


@pytest.mark.parametrize("seed", range(6))
def test_construct_psi_certificate_matches_the_exact_fraction_route(seed):
    # the tail 10**-b is kept as b through the certificate; every line and
    # the tail equal those of the exact Fraction sums with 10**-b formed
    rng = random.Random(seed)
    routes = set()
    for budget in (50, 300, 3000, 30_000):
        alpha = _unit_quadratic(rng)
        psi = PsiSpec.exp_decay(Fraction(rng.randint(1, 40), rng.randint(1, 12)))
        for count in (1, 2, 3):
            routes |= _certificate_routes(alpha, psi, count, budget)
    # every seed reaches a bound of the form head + 10**-b
    assert (True, "numeric", False) in routes


@pytest.mark.parametrize("psi", [PsiSpec.exp_decay(Fraction(7, 3)), PsiSpec.power(3)],
                         ids=["exp", "power"])
@pytest.mark.parametrize("b", [1, 12, 45, None])
def test_le_psi_with_tail_exponent_is_the_formed_sum(psi, b):
    # heads on both sides of Psi(t) - 10**-b, where v and v + 10**-b part;
    # the formed sum v + 10**-b (v for b None) is compared by the oracle's
    # exp_le_reference or exactly
    t = 11
    ten = Fraction(0) if b is None else Fraction(1, 10**b)
    value = psi.exact_value(t) or exp_bounds_reference(-psi.c * t, (b or 0) + 20).mid
    for v in (Fraction(0), value - ten - ten / 2, value - ten / 2, value - 2 * ten, value,
              2 * value):
        if v >= 0:
            formed = v + ten
            want = (formed <= psi.exact_value(t) if psi.kind == "power"
                    else formed == 0 or exp_le_reference(psi.c * t, 1 / formed))
            assert psi.le_psi(v, t, b) == want, v


def test_construct_psi_certificate_takes_the_cap_below_head_plus_ten_power():
    # frac(8 sqrt 2) with exp:34/171: 3/q_{n_2+1} <= head + 10**-300 on line 1
    routes = _certificate_routes(qi_normalize(-11, 8, 2, 1), PsiSpec.exp_decay(Fraction(34, 171)),
                                 2, 300)
    assert (True, "numeric", True) in routes


def test_construct_psi_blowup_carries_partial():
    with pytest.raises(BlowUp) as exc:
        construct_psi(INV_PHI, PsiSpec.power(3), 8, digit_budget=12)
    partial = exc.value.partial
    assert partial is not None and partial.indices[0] == 4
    assert 1 <= len(partial.indices) < 8


def test_construct_psi_exponential_small():
    cons = construct_psi(INV_PHI, PsiSpec.exp_decay(Fraction(1, 10)), 2)
    assert cons.indices[0] == 4
    assert cons.certified
    # threshold: 3/q_n <= exp(-q_5/10) = exp(-0.8)
    assert cons.indices[1] > 5


def _sqrt_cf_period(n: int) -> list[int]:
    """The period of sqrt(n) = [a0; period], by the integer surd recurrence."""
    a0 = isqrt(n)
    m, d, a, period = 0, 1, a0, []
    while a != 2 * a0:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        period.append(a)
    return period


def _exceeds_3_exp(q: int, ct: Fraction, dps: int = 40) -> bool:
    """Decide q >= 3*exp(ct), i.e. 3/q <= exp(-ct), by mpmath interval logarithms."""
    iv, saved = mpmath.iv, mpmath.iv.dps
    iv.dps = dps
    try:
        gap = iv.log(iv.mpf(q)) - iv.log(3) - iv.mpf(ct.numerator) / ct.denominator
    finally:
        iv.dps = saved
    assert not (gap.a <= 0 <= gap.b), f"undecided at {dps} digits"
    return gap.a > 0


def test_construct_psi_exponential_sqrt7_far_index():
    # alpha = sqrt(7) - 2, Psi(s) = exp(-s/2): the search for n_next runs to
    # q_49726, whose threshold exp(q_17/2) has about 15,000 digits
    alpha = qi_normalize(-2, 1, 7, 1)
    c = Fraction(1, 2)
    cons = construct_psi(alpha, PsiSpec.exp_decay(c), 2)
    assert cons.indices == [4, 16]
    assert cons.n_next == 49726
    assert cons.certified
    # oracle: the convergent denominators of [0; 1, 1, 1, 4, ...] by their own
    # recurrence, each index the least n > previous + 1 with 3/q_n <= Psi(q_{previous+1})
    period = _sqrt_cf_period(7)
    q = [1, period[0]]
    for n in range(2, 49727):
        q.append(period[(n - 1) % len(period)] * q[-1] + q[-2])
    for prev, n in ((4, 16), (16, 49726)):
        ct = c * q[prev + 1]
        assert _exceeds_3_exp(q[n], ct)
        assert not _exceeds_3_exp(q[n - 1], ct) and n - 1 >= prev + 2


def test_construct_psi_exponential_keeps_no_convergent_walk():
    # acceptance 6 jumps to q_36808 (25,552 bits); a walk that kept every
    # p_n and q_n on the way traced about 123 MB
    tracemalloc.start()
    try:
        cons = construct_psi(INV_PHI, PsiSpec.exp_decay(1), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cons.indices == [4, 20, 36808]
    assert peak < 8_000_000


def _linear_walk(q, psi, count, budget):
    """The construction's indices by walking n one at a time over the
    convergent denominators q[n]: (BlowUp message or None, indices, n_next)."""

    def find_next(prev):
        t = q[prev + 1]
        if psi.threshold_exceeds_digits(t, budget):
            return f"next index after n={prev} needs more than {budget} digits"
        lo, hi = psi.threshold_int_bracket(t)
        m = prev + 2
        while True:
            if (q[m].bit_length() * 30103) // 100000 > budget:
                return f"q_{m} exceeds the digit budget"
            if q[m] >= hi or (q[m] >= lo and psi.le_psi(Fraction(3, q[m]), t)):
                return m
            m += 1

    indices = [4]
    while len(indices) < count:
        found = find_next(indices[-1])
        if isinstance(found, str):
            return found, indices, None
        indices.append(found)
    found = find_next(indices[-1])
    return None, indices, None if isinstance(found, str) else found


DEC_INV_PHI = "0.61803398874989484820458683436563811772030917980576286213544862±1e-60"


@pytest.mark.parametrize(
    "alpha, psi, count, budget",
    [
        ((-1, 5, 2), PsiSpec.power(3), 8, 12),
        ((-1, 5, 2), PsiSpec.exp_decay(1), 3, 40),
        ((-1, 5, 2), PsiSpec.exp_decay(Fraction(1, 3)), 6, 12),  # q_63 past the budget
        ((-2, 7, 1), PsiSpec.power(3), 6, 47),  # q_160 past the budget
        ((-2, 7, 1), PsiSpec.power(2), 5, 100),
        ((-3, 13, 1), PsiSpec.exp_decay(Fraction(1, 5)), 4, 300),
        (DEC_INV_PHI, PsiSpec.power(3), 8, 12),
        (DEC_INV_PHI, PsiSpec.power(2), 3, 100),
        # 3*exp(c*q_5) lies above the least q past the budget (2**289 at
        # budget 86, 2**680 at 204) and below what the threshold test
        # refuses, so the search stops there; q_416 has 289 bits, q_981 681
        ((-1, 5, 2), PsiSpec.exp_decay(25), 2, 86),  # q_417 past the budget
        ((-1, 5, 2), PsiSpec.exp_decay(59), 2, 204),  # q_981 past the budget
    ],
    ids=["power3-12", "exp1-40", "exp1/3-12-q63", "sqrt7-power3-47-q160", "sqrt7-power2",
         "sqrt13-exp1/5-300", "dec-power3-12", "dec-power2", "exp25-86-q417", "exp59-204-q981"],
)
def test_construct_psi_matches_linear_walk(alpha, psi, count, budget):
    if isinstance(alpha, str):
        target = Certified.parse(alpha)
        q = [pq[1] for pq in convergent_pairs([0] + [1] * 600)]
    else:
        target = qi_normalize(alpha[0], 1, alpha[1], alpha[2])
        q = [pq[1] for pq in convergent_pairs(quad_cf_digits(*alpha, 1000))]
    message, indices, n_next = _linear_walk(q, psi, count, budget)
    if len(indices) < count:
        with pytest.raises(BlowUp) as exc:
            construct_psi(target, psi, count, digit_budget=budget)
        assert str(exc.value) == message
        assert exc.value.partial.indices == indices
    else:
        cons = construct_psi(target, psi, count, digit_budget=budget)
        assert (cons.indices, cons.n_next) == (indices, n_next)


def _edge_psi_values(bits: int):
    """Psi = n/d with n = 2**j - 1 whose 3/Psi = 3d/n scores exactly `bits`
    in the bit-length test bits(3d) - bits(n) - 1: d the least with 3d >=
    2**(bits + j), so 3/Psi is just above 2**bits, or d = 2**(bits + j - 1),
    so 3/Psi is about 1.5 * 2**bits and 4d is a power of two."""
    for j in (1, 2, 8, 14, 17, 20, 24):
        for d in (*(-(-(2 ** (bits + j)) // 3) + r for r in range(3)), 2 ** (bits + j - 1)):
            value = Fraction(2**j - 1, d)
            num, den = 3 * value.denominator, value.numerator
            if num.bit_length() - den.bit_length() - 1 == bits:
                yield value


def test_a_denominator_at_the_least_power_of_two_past_the_budget_is_refused():
    # alpha = [0; 1, 1, 2, 1, 2, 3, 1, 1, ...] = (37 phi + 11)/(64 phi + 19)
    # has q_5 = 19 and q_6 = 64 = 2**6, whose 7 bits score floor(7 * 0.30103)
    # = 2 digits, past a budget of 1; the threshold 3*exp(19/5) is about 134
    alpha = (37 * PHI + 11) / (64 * PHI + 19)
    ctx = CFContext(alpha)
    assert ctx.digits(10) == [0, 1, 1, 2, 1, 2, 3, 1, 1, 1]
    assert [ctx.q(n) for n in (5, 6, 7)] == [19, 64, 83]
    with pytest.raises(BlowUp, match="^q_6 exceeds the digit budget$"):
        construct_psi(alpha, PsiSpec.exp_decay(Fraction(1, 5)), 2, digit_budget=1)


@pytest.mark.parametrize("bits, budget", [(13301, 4004), (26602, 8008), (42039, 12655),
                                          (1670, 503)])
def test_threshold_exceeds_digits_is_sound_where_2_to_the_bits_is_below_budget(bits, budget):
    # 2**bits < 10**budget, and bits * 0.30103 (above log10 2) claims more
    # than `budget` digits at the first three sizes, where 0.30102 must not;
    # at the last, 2**(bits + 1) > 10**budget > 1.5 * 2**bits
    below = 0
    for value in _edge_psi_values(bits):
        n, d = 3 * value.denominator, value.numerator
        below += n < 10**budget * d
        if PsiSpec.rational_table([(1, value)]).threshold_exceeds_digits(7, budget):
            assert n > 10**budget * d, value
    assert below >= 3


def test_threshold_past_ten_to_the_budget_below_q_blowup_is_searched():
    # 3/Psi lies above 10**503 but below 2**1674, the least q the budget
    # refuses, so the search finds the least q_n >= 3/Psi within the budget
    value = next(_edge_psi_values(1671))
    assert 10**503 * value.numerator < 3 * value.denominator < 2**1674 * value.numerator
    cons = construct_psi(INV_PHI, PsiSpec.rational_table([(1, value)]), 2, digit_budget=503)
    q = [1, 1]
    while q[-1] * value.numerator < 3 * value.denominator:
        q.append(q[-1] + q[-2])
    assert cons.indices == [4, len(q) - 1] and cons.certified
    assert (q[-1].bit_length() * 30103) // 100000 == 503


def _least_refused_q(budget: int) -> int:
    """The least q the digit budget refuses, by a scan over bit lengths:
    2**(m - 1) for the least m with floor(0.30103 * m) > budget."""
    m = 1
    while m * 30103 // 100000 <= budget:
        m += 1
    return 2 ** (m - 1)


@pytest.mark.parametrize("budget", [1, 2, 12, 503, 4004])
def test_threshold_exceeds_digits_is_the_q_rule_for_exact_families(budget):
    # True exactly when 3/Psi(t) reaches the least q the budget refuses,
    # for 3/Psi one below, at and one above it, with Psi(t) in lowest terms
    # and not
    edge = _least_refused_q(budget)
    for three_over_psi, want in ((edge - 1, False), (edge, True), (edge + 1, True)):
        for scale in (1, 7):
            psi = PsiSpec.rational_table([(1, Fraction(3 * scale, three_over_psi * scale))])
            assert psi.threshold_exceeds_digits(5, budget) is want, (three_over_psi, scale)
    assert PsiSpec.power(2).threshold_exceeds_digits(isqrt(edge // 3) + 1, budget)
    assert not PsiSpec.power(2).threshold_exceeds_digits(isqrt((edge - 1) // 3), budget)


def test_threshold_test_is_strict_at_an_exact_budget_multiple():
    # 3/Psi scores 50,000 bits and 50,000 * 0.30102 = 15051 exactly; it lies
    # below 2**50001, the least q the budget refuses, and the least q_n >=
    # 3/Psi has 50,001 bits, within the budget rule (floor(50001 * 0.30103)
    # = 15051)
    value = next(v for v in _edge_psi_values(50000)
                 if 3 * v.denominator * 1024 < 2**50000 * 1025 * v.numerator)
    cons = construct_psi(INV_PHI, PsiSpec.rational_table([(1, value)]), 2, digit_budget=15051)
    q = [1, 1]
    while q[-1] * value.numerator < 3 * value.denominator:
        q.append(q[-1] + q[-2])
    assert cons.indices == [4, len(q) - 1] and q[-1].bit_length() == 50001


@pytest.mark.parametrize("budget", [12, 4004, 12655])
def test_threshold_exceeds_digits_is_sound_for_exp_decay(budget):
    # True must mean 3*exp(c*t) >= 10**budget; t runs across (budget + 1)*ln 10
    psi = PsiSpec.exp_decay(1)
    edge = math.floor((budget + 1) * math.log(10))
    for t in range(edge - 3, edge + 4):
        claimed = psi.threshold_exceeds_digits(t, budget)
        assert claimed == (t > (budget + 1) * math.log(10))
        if claimed:
            assert not exp_le_reference(t, Fraction(10**budget, 3))
    # c*t = (budget + 1)*LN10_HI, where exp(c*t) is just above 10**(budget + 1)
    assert PsiSpec.exp_decay(LN10_HI).threshold_exceeds_digits(budget + 1, budget)
    assert not exp_le_reference(LN10_HI * (budget + 1), 10 ** (budget + 1))


def test_construct_psi_decides_a_convergent_inside_the_exp_bracket_exactly():
    # c just below ln(q_300/3)/8 puts 3*exp(c*q_5) = 3*exp(8c) a hair below
    # q_300 (63 digits), inside the 30-digit bracket, so that le_psi decides n_2
    q = [pq[1] for pq in convergent_pairs([0] + [1] * 301)]
    with mpmath.workdps(120):
        c = Fraction(int(mpmath.floor(mpmath.log(mpmath.mpf(q[300]) / 3) / 8 * 10**70)), 10**70)
    psi = PsiSpec.exp_decay(c)
    lo, hi = psi.threshold_int_bracket(8)
    assert lo <= q[300] < hi
    assert _exceeds_3_exp(q[300], 8 * c, 120) and not _exceeds_3_exp(q[299], 8 * c)
    assert construct_psi(INV_PHI, psi, 2).indices == [4, 300]


def test_psi_spec_families_refuse_what_is_not_decreasing_and_positive():
    for bad in (lambda: PsiSpec.exp_decay(0), lambda: PsiSpec.power(0),
                lambda: PsiSpec.rational_table([(1, 0)]),
                lambda: PsiSpec.rational_table([(1, Fraction(1, 3)), (2, Fraction(1, 2))])):
        with pytest.raises(ValueError):
            bad()
    # the least members of each family, and a table with a flat step
    assert PsiSpec.exp_decay(Fraction(1, 10**9)).c == Fraction(1, 10**9)
    assert PsiSpec.power(1).k == 1
    flat = PsiSpec.rational_table([(1, Fraction(1, 2)), (4, Fraction(1, 2)), (6, Fraction(1, 9))])
    # a step function: each row holds from its own s up to the next row's
    assert [flat.exact_value(t) for t in (1, 3, 4, 5, 6, 9)] == [Fraction(1, 2)] * 4 + [
        Fraction(1, 9)] * 2
    with pytest.raises(ValueError, match="^table does not cover s = 0$"):
        flat.exact_value(0)


def test_numeric_feasible_is_the_reach_of_the_exp_checker():
    # a numeric certificate line compares with exp(-c*s) up to c*s = _EXP_REACH
    for c in (Fraction(1), Fraction(1, 2)):
        psi = PsiSpec.exp_decay(c)
        t = int(_EXP_REACH / c)
        assert [psi.numeric_feasible(s) for s in (t - 1, t, t + 1)] == [True, True, False]
    for psi in (PsiSpec.power(2), PsiSpec.rational_table([(1, Fraction(1, 2))])):
        assert psi.numeric_feasible(10**30)


@settings(deadline=None)
@given(c=st.fractions(min_value=Fraction(1, 1000), max_value=3, max_denominator=1000),
       t=st.integers(1, 5000))
@example(c=Fraction(1), t=8)
@example(c=Fraction(1, 12), t=1)
@example(c=Fraction(3), t=5000)
def test_threshold_int_bracket_is_3_exp_rounded_outward(c, t):
    # floor and ceiling of 3 times the Fraction route's ends at 30 digits
    ref = exp_bounds_reference(c * t, 30)
    assert PsiSpec.exp_decay(c).threshold_int_bracket(t) == (math.floor(3 * ref.lo),
                                                             math.ceil(3 * ref.hi))


@settings(deadline=None)
@given(t=st.integers(1, 10**6), budget=st.integers(0, 10**5), k=st.integers(1, 10**5),
       den=st.integers(1, 10**9), delta=st.sampled_from([-1, 0, 1]),
       cap=st.integers(-3, 10**6))
@example(t=1, budget=0, k=0, den=1, delta=1, cap=5)
@example(t=7, budget=100_000, k=43, den=10**9, delta=-1, cap=10**6)
@example(t=10**6, budget=1, k=1, den=1, delta=0, cap=1)
def test_psi_spec_exp_tests_at_their_exact_boundaries(t, budget, k, den, delta, cap):
    # c*t placed at each test's boundary and one 1/den to either side,
    # against the Fraction expressions the integer tests replace
    def spec(x):
        return PsiSpec.exp_decay((x + Fraction(delta, den)) / t)

    psi = spec((budget + 1) * LN10_HI)
    assert psi.threshold_exceeds_digits(t, budget) == (psi.c * t >= (budget + 1) * LN10_HI)
    psi = spec(Fraction(2 * 10**6))
    assert psi.numeric_feasible(t) == (psi.c * t <= 2 * 10**6)
    psi = spec(k * LN10_HI)
    assert psi.tail_pair(t, cap) == (0, max(0, min(cap, int(psi.c * t / LN10_HI))))


def test_tail_pair_bounds_psi_within_the_cap():
    # exact families: (2/3)Psi(t), no ten power
    assert PsiSpec.power(2).tail_pair(7, 5) == (Fraction(2, 147), None)
    # exp_decay: 10**-b >= exp(-c*t) with the largest such b up to the cap,
    # and b = 0 below a cap of 0
    psi = PsiSpec.exp_decay(1)
    head, b = psi.tail_pair(100, 10**6)
    assert (head, b) == (0, 43)
    assert not exp_le_reference(100, 10**b) and exp_le_reference(100, 10 ** (b + 1))
    assert [psi.tail_pair(100, cap)[1] for cap in (20, 0, -3)] == [20, 0, 0]


# (x, cap, the oracle's b, the library's b): LN10_HI rounds ln 10 up, so
# just below 10**5 * LN10_HI the library stops one short of the largest b
TAIL_EXPONENTS = [
    (Fraction(100), 10**6, 43, 43),
    (10**5 * LN10_HI - Fraction(1, 10**12), 10**6, 10**5, 10**5 - 1),
    (10**5 * LN10_HI - 1, 10**6, 10**5 - 1, 10**5 - 1),
    (Fraction(100), 20, 20, 20),
    (Fraction(100), 0, 0, 0),
    (Fraction(100), -3, 0, 0),
]


@pytest.mark.parametrize("x, cap, b_ref, b", TAIL_EXPONENTS)
def test_tail_pair_is_the_oracles_exponent_or_one_short(x, cap, b_ref, b):
    # the oracle decides each candidate b by mpmath (exp_le_reference)
    assert tail_exponent_reference(x, cap) == b_ref
    assert PsiSpec.exp_decay(x / 7).tail_pair(7, cap) == (0, b)


def test_construct_psi_rational_table():
    psi = PsiSpec.rational_table([(1, Fraction(1, 2)), (6, Fraction(1, 100))])
    cons = construct_psi(INV_PHI, psi, 2)
    assert cons.certified
    # q_{n_2} >= 300 forces n_2 = 13 (q_13 = 377)
    assert cons.indices == [4, 13]


def test_nearest_numerators_examples():
    aset = nearest_numerators(INV_PHI, [5, 238])
    assert aset.pairs == [(3, 5), (147, 238)]
    assert nearest_numerators(Fraction(3, 7), [7]).pairs == [(3, 7)]
    assert nearest_numerators(PHI, [55]).pairs == [(89, 55)]
    # a rational rounds through its point interval, so a tie is undecidable
    with pytest.raises(PrecisionExhausted, match=r"^cannot round alpha\*1 unambiguously$"):
        nearest_numerators(Fraction(1, 2), [1])


def test_psi_set_verifies_first_order():
    cons = construct_psi(INV_PHI, PsiSpec.power(2), 3)
    iv = gamma_interval(cons)
    gamma1 = RatInterval(-iv.hi, -iv.lo)
    aset = nearest_numerators(INV_PHI, cons.s, gamma1=gamma1)
    assert verify_order(aset, window=3).passed


def test_detect_line_roundtrip():
    fit = detect_line(line_set(3, 7, 1, 10).pairs)
    assert (fit.a, fit.b, fit.d, fit.exceptions) == (3, 7, 1, 0)
    fit = detect_line(line_set(-5, 3, 7, 8).pairs)
    assert (fit.a, fit.b, fit.d) == (-5, 3, 7)


def test_detect_line_corrupted_prefix():
    pairs = line_set(3, 7, 1, 10).pairs
    pairs[0] = (pairs[0][0] + 1, pairs[0][1])
    fit = detect_line(pairs)
    assert (fit.a, fit.b, fit.d, fit.exceptions) == (3, 7, 1, 1)


def test_detect_line_rejects_conic():
    assert detect_line(GOLDEN_PAIRS) is None


def test_growth_profile_classes():
    assert growth_profile([7, 14, 21, 28, 35]).classification == "linear"
    assert growth_profile([1, 3, 8, 21, 55]).classification == "exponential"
    assert growth_profile([1, 4, 9, 16, 25]).classification == "polynomial"
    assert growth_profile([2, 20, 2000, 10**7]).classification == "super_exponential"
    with pytest.raises(ValueError):
        growth_profile([5, 11])


def test_growth_profile_fibonacci_even_ratio():
    prof = growth_profile([1, 3, 8, 21, 55])
    # ratios approach phi^2 ~ 2.618
    assert Fraction(5, 2) < prof.ratios[-1] < Fraction(27, 10)


def test_detect_line_roundtrip_sampled_wide():
    import random
    from math import gcd

    rng = random.Random(31)
    done = 0
    while done < 120:
        a = rng.randint(-50, 50)
        b = rng.randint(1, 50)
        d = rng.randint(-50, 50)
        if gcd(abs(a), b) != 1:
            continue
        fit = detect_line(line_set(a, b, d, 7).pairs)
        assert (fit.a, fit.b, fit.d, fit.exceptions) == (a, b, d, 0)
        done += 1


def test_verify_order_truncation_monotone():
    from ratapprox.conic import ConicForm, conic_orbit, laurent_expansion

    form = ConicForm(1, -1, -1, 1)
    aset = conic_orbit(form, (2, 1), 14)
    lx = laurent_expansion(form, 4)
    verdicts = []
    for order in (4, 3, 2, 1):
        trimmed = ApproxSet(
            alpha=aset.alpha, pairs=aset.pairs, order=order, gamma=lx.gamma[:order]
        )
        verdicts.append(verify_order(trimmed).passed)
    # a PASS at order N implies PASS at every lower order with truncated gamma
    assert verdicts[0] and all(verdicts)


def test_fit_with_certified_alpha_gives_intervals():
    from ratapprox.exactnum import Certified, enclose

    cert = Certified.parse("1.61803398874989484820458683436563811772±1e-30")
    gamma, report = fit_coefficients(GOLDEN_PAIRS, cert, 2)
    exact2 = qi_normalize(0, 1, 5, 5)
    assert all(isinstance(g, RatInterval) for g in gamma)
    assert gamma[0].contains(0) or abs(gamma[0].mid) < Fraction(1, 10**6)
    assert gamma[1].overlaps(
        enclose(exact2, Fraction(1, 10**20)) + RatInterval(-Fraction(1, 1000), Fraction(1, 1000))
    )
    assert report.rows and isinstance(report.rows[0].scaled, RatInterval)
