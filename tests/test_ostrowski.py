import ast
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ratapprox
from ratapprox import exactnum, ostrowski
from ratapprox.cf import CFContext
from ratapprox.errors import (
    GammaOnOrbit,
    InsufficientDepth,
    InvariantViolation,
    OutOfRegime,
    RatApproxError,
    RationalTarget,
)
from ratapprox.exactnum import (
    Certified,
    QuadIrr,
    RatInterval,
    as_interval,
    enclose,
    qi_normalize,
)
from ratapprox.ostrowski import (
    check_admissible,
    delta_profile,
    dist_bound,
    dist_direct,
    dist_formula,
    ostrowski_int,
    ostrowski_real,
    tail_bound,
)

from oracles import (check_dist_document, check_ostrowski_real_document, convergent_pairs,
                     dist_bound_reference, dist_formula_terms, enumerate_ostrowski_values, quad_digits,
                     real_digits_partial, reference_real_digits)
from test_cli import GOLDEN, run_cli

try:
    import resource
except ImportError:  # not on every platform
    resource = None

INV_PHI = qi_normalize(-1, 1, 5, 2)
SQRT2_M1 = qi_normalize(-1, 1, 2, 1)
INV_1_SQRT3 = qi_normalize(-1, 1, 3, 2)  # 1/(1+sqrt(3)) = (sqrt(3)-1)/2

ALPHAS = [INV_PHI, SQRT2_M1, INV_1_SQRT3]


@pytest.fixture(scope="module")
def contexts():
    return {a: CFContext(a, depth=64) for a in ALPHAS}


def test_int_digits_golden_examples(contexts):
    ctx = contexts[INV_PHI]
    assert ostrowski_int(4, ctx).c == [0, 1, 0, 1]  # 4 = q_1 + q_3 = 1 + 3
    assert ostrowski_int(11, ctx).c == [0, 0, 0, 1, 0, 1]  # 11 = 3 + 8


def test_int_digits_basis_elements(contexts):
    for alpha, ctx in contexts.items():
        for n in range(1, 12):
            d = ostrowski_int(ctx.q(n), ctx)
            assert d.c[-1] == 1 and sum(d.c) == 1 and d.M == len(d.c) - 1


def test_int_digits_reconstruct_and_admissible(contexts):
    rng = random.Random(3)
    for alpha, ctx in contexts.items():
        for _ in range(150):
            s = rng.randint(1, 10**6)
            d = ostrowski_int(s, ctx)
            assert sum(c * ctx.q(n) for n, c in enumerate(d.c)) == s
            check_admissible(d.c, ctx)
            assert ctx.q(d.M) <= s < ctx.q(d.M + 1)


def test_int_digits_match_exhaustive_enumeration_small(contexts):
    for alpha, ctx in contexts.items():
        q = [ctx.q(n) for n in range(24)]
        a = [ctx.a(n) for n in range(25)]
        table = enumerate_ostrowski_values(q, a, 300)
        assert sorted(table) == list(range(301))
        for s in range(1, 301):
            greedy = ostrowski_int(s, ctx).c
            expect = list(table[s][: len(greedy)])
            assert greedy == expect, f"s={s} alpha={alpha}"


# alphas with a_1 >= 2, so that q_1 = a_1 > q_0 = 1 and s = 1 has M = 0
WIDE_FIRST_DIGIT = [SQRT2_M1, INV_1_SQRT3, qi_normalize(-3, 1, 10, 1), qi_normalize(-4, 1, 17, 1)]


@pytest.mark.parametrize("alpha", WIDE_FIRST_DIGIT, ids=str)
def test_int_digits_below_q2_with_a_wide_first_digit(alpha):
    a = quad_digits(alpha, 3)
    q = [q for _, q in convergent_pairs(a)]
    assert a[1] >= 2
    table = enumerate_ostrowski_values(q, a, q[2] - 1)
    ctx = CFContext(alpha)
    for s in range(1, q[2]):
        d = ostrowski_int(s, ctx)
        assert d.M == (0 if s < q[1] else 1)
        assert d.c == list(table[s][: d.M + 1]) and not any(table[s][d.M + 1:])


def test_ostrowski_int_cli_below_q1(capsys):
    from ratapprox.cli import main

    assert main(["ostrowski-int", "--alpha", "quad:-1,1,2,1", "--s", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"s": "1", "M": 0, "digits": [1]}


def test_ostrowski_keeps_no_convergent_walk():
    # s shares gamma's first 600 digits, so m >= 600 and the formula runs
    # from the last nonzero delta down to m, far from every stored M_n
    gamma, depth = Fraction(1, 3), 900
    b = ostrowski_real(gamma, CFContext(INV_PHI), depth).b
    pairs = convergent_pairs(quad_digits(INV_PHI, depth))
    s = sum(d * q for d, (_, q) in zip(b[:600], pairs)) + pairs[700][1]
    ctx = CFContext(INV_PHI)
    profile = delta_profile(s, gamma, ctx, depth)
    assert profile.m >= 600
    direct = dist_direct(s, gamma, INV_PHI, Fraction(1, 10**400))
    assert direct.lo <= dist_formula(profile, ctx) <= direct.hi
    assert ctx._dense == -1
    assert len(ctx._conv) <= 8


def test_int_walk_must_end_on_q_minus_1():
    # q_5 = 8 read as 7: the walk down from it ends on -13 with no remainder
    ctx = CFContext(INV_PHI)
    q = ctx.q
    ctx.q = lambda n: q(n) - (n == 5)
    message = "^the walk down from q_5 ends on q_-1 = -13, not 0$"
    with pytest.raises(InvariantViolation, match=message):
        ostrowski_int(11, ctx)


def test_int_digits_rejects_rational_and_out_of_range():
    with pytest.raises(RationalTarget):
        ostrowski_int(5, CFContext(Fraction(3, 7)))
    with pytest.raises(ValueError):
        ostrowski_int(5, CFContext(qi_normalize(1, 1, 5, 2)))  # phi > 1
    ctx = CFContext(INV_PHI)
    with pytest.raises(ValueError):
        ostrowski_int(0, ctx)


def test_real_digits_finite_support(contexts):
    ctx = contexts[INV_PHI]
    gamma = ctx.D(4) + ctx.D(12)
    d = ostrowski_real(gamma, ctx, depth=16, allow_orbit=True)
    assert [n for n, b in enumerate(d.b) if b] == [4, 12]
    assert d.b[4] == 1 and d.b[12] == 1
    assert d.remainder == 0
    assert real_digits_partial(d, ctx) == gamma


def test_real_digits_zero_gamma(contexts):
    ctx = contexts[INV_PHI]
    d = ostrowski_real(Fraction(0), ctx, depth=10, allow_orbit=True)
    assert d.b == [0] * 10
    with pytest.raises(GammaOnOrbit):
        ostrowski_real(Fraction(0), ctx, depth=10)


def test_real_digits_orbit_detection(contexts):
    ctx = contexts[INV_PHI]
    alpha = ctx.alpha
    gamma = alpha - 1  # = 1*alpha + (-1): forbidden orbit
    with pytest.raises(GammaOnOrbit):
        ostrowski_real(gamma, ctx, depth=8)
    gamma = ctx.D(3)  # 3*alpha - 2: also on the orbit
    with pytest.raises(GammaOnOrbit):
        ostrowski_real(gamma, ctx, depth=8)
    d = ostrowski_real(ctx.D(3), ctx, depth=8, allow_orbit=True)
    assert [n for n, b in enumerate(d.b) if b] == [3]


def test_orbit_certificate_reads_u_and_v():
    # alphas whose Q does not divide 2P among them, where v being an
    # integer does not make u one
    for alpha in KERNEL_ALPHAS[:6]:
        ctx = CFContext(alpha)
        for u in range(-2, 3):
            for v in range(-2, 3):
                gamma = alpha * v + u
                assert ostrowski._gamma_orbit_certificate(gamma, alpha) == (v, u)
                with pytest.raises(GammaOnOrbit) as info:
                    ostrowski_real(gamma, ctx, depth=5)
                assert str(info.value) == f"gamma = {u} + {v}*alpha"
                for off in (Fraction(1, 3), Fraction(1, 2 * alpha.Q), alpha / 2):
                    assert ostrowski._gamma_orbit_certificate(gamma + off, alpha) is None


def test_delta_profile_depth_covers_the_integer_digits(contexts):
    ctx = contexts[SQRT2_M1]
    gamma = ctx.D(12) + ctx.D(15)
    with pytest.raises(ValueError):
        delta_profile(5, gamma, ctx, depth=0, allow_orbit=True)
    for s in (1, 2, 5, 11, 1000):
        c, M = ostrowski_int(s, ctx).c, ostrowski_int(s, ctx).M
        for depth in sorted({1, max(1, M), M + 1, M + 3}):
            prof = delta_profile(s, gamma, ctx, depth=depth, allow_orbit=True)
            want = max(depth, M + 1)
            b = reference_real_digits(gamma, ctx, want)[0]
            assert prof.depth == want
            assert prof.delta == [x - y for x, y in zip(c + [0] * (want - M - 1), b)]


def test_real_digits_range_check(contexts):
    ctx = contexts[INV_PHI]
    with pytest.raises(ValueError):
        ostrowski_real(Fraction(1, 2), ctx, depth=6)  # above 1 - alpha
    with pytest.raises(ValueError):
        ostrowski_real(Fraction(-2, 3), ctx, depth=6)  # below -alpha


def _random_admissible_tail(ctx, rng, start, depth, prev_nonzero):
    digits = []
    prev = prev_nonzero
    for n in range(start, depth):
        cap = ctx.a(n + 1) - (1 if prev else 0)
        d = rng.choice([0, 0, cap]) if cap else 0
        d = rng.randint(0, cap) if rng.random() < 0.6 else d
        digits.append(d)
        prev = d > 0
    return digits


def test_real_digits_roundtrip_random(contexts):
    rng = random.Random(20260810)
    for alpha, ctx in contexts.items():
        for _ in range(40):
            head = [0] * 4
            tail = _random_admissible_tail(ctx, rng, 4, 12, False)
            digits = head + tail
            check_admissible(digits, ctx)
            gamma = Fraction(0)
            for n, b in enumerate(digits):
                if b:
                    gamma = b * ctx.D(n) + gamma
            d = ostrowski_real(gamma, ctx, depth=12, allow_orbit=True)
            assert d.b == digits
            assert d.remainder == 0


def test_real_digits_match_exhaustive_minimizer(contexts):
    """Depth-8 exhaustive search over admissible strings: the extracted
    string is the one whose partial sum hits gamma exactly."""
    rng = random.Random(99)
    for alpha, ctx in contexts.items():
        strings = []

        def build(n, prev, cur):
            if n == 8:
                strings.append(tuple(cur))
                return
            cap = ctx.a(n + 1) - (1 if prev else 0)
            for d in range(cap + 1):
                cur.append(d)
                build(n + 1, d > 0, cur)
                cur.pop()

        build(0, True, [])
        values = {}
        for s in strings:
            v = Fraction(0)
            for n, b in enumerate(s):
                if b:
                    v = b * ctx.D(n) + v
            values[s] = v
        for _ in range(12):
            target = rng.choice(list(strings))
            gamma = values[target]
            exact_hits = [s for s, v in values.items() if v == gamma]
            assert exact_hits == [target]
            got = ostrowski_real(gamma, ctx, depth=8, allow_orbit=True)
            assert tuple(got.b) == target


def test_real_digits_tail_bound(contexts):
    ctx = contexts[INV_PHI]
    gamma = ctx.D(4) + ctx.D(7) + ctx.D(20)
    for depth in (6, 10, 15):
        d = ostrowski_real(gamma, ctx, depth=depth, allow_orbit=True)
        partial = real_digits_partial(d, ctx)
        rem = gamma - partial
        assert d.remainder == rem
        # the tail is the exact remainder enclosed at width 1/(q_depth * 2**20)
        tail = tail_bound(d, ctx)
        assert tail == enclose(rem, Fraction(1, ctx.q(depth) * 2**20))
        assert tail.contains(enclose(rem, Fraction(1, 10**50)).mid) or (
            isinstance(rem, Fraction) and tail.contains(rem)
        )
        cap = ctx.d_abs_upper(depth - 1)
        assert max(abs(tail.lo), abs(tail.hi)) <= cap


def test_delta_profile_examples(contexts):
    ctx = contexts[INV_PHI]
    # s = q_4 and gamma = D_4 share their leading digit: no delta in range
    prof = delta_profile(5, ctx.D(4), ctx, depth=10, allow_orbit=True)
    assert prof.m is None
    # gamma = D_12 vs s = q_4: first mismatch at position 4
    prof = delta_profile(5, ctx.D(12), ctx, depth=16, allow_orbit=True)
    assert prof.m == 4 and prof.delta[4] == 1
    with pytest.raises(OutOfRegime):
        dist_formula(delta_profile(5, ctx.D(4), ctx, depth=10, allow_orbit=True), ctx)


def test_dist_formula_single_term(contexts):
    # gamma = 0 (override), s = q_n, n >= 4: ||q_n alpha|| = |D_n|
    for alpha, ctx in contexts.items():
        for n in range(4, 9):
            prof = delta_profile(ctx.q(n), Fraction(0), ctx, depth=14, allow_orbit=True)
            assert prof.m == n
            val = dist_formula(prof, ctx)
            assert val == abs(ctx.D(n))


def test_dist_example_golden(contexts):
    ctx = contexts[INV_PHI]
    prof = delta_profile(5, Fraction(0), ctx, depth=12, allow_orbit=True)
    val = dist_formula(prof, ctx)
    assert val == abs(ctx.alpha * 5 - 3)
    iv = enclose(val, Fraction(1, 10**10))
    assert Fraction("0.0901699437") < iv.lo < iv.hi < Fraction("0.0901699438")
    direct = dist_direct(5, Fraction(0), ctx.alpha)
    assert Fraction("0.0901699437") < direct.lo < direct.hi < Fraction("0.0901699438")


def test_dist_direct_trivial_cases():
    out = dist_direct(0, Fraction(1, 4), INV_PHI)
    assert out.contains(Fraction(1, 4)) and out.width == 0
    out = dist_direct(1, Fraction(0), SQRT2_M1)
    assert Fraction("0.414213562373") < out.lo < out.hi < Fraction("0.414213562374")
    out = dist_direct(3, Fraction(1, 3), Fraction(2, 7))  # rational alpha, exact
    assert out.width == 0 and out.contains(Fraction(10, 21))


def test_dist_formula_vs_direct_random(contexts):
    rng = random.Random(42)
    width = Fraction(1, 10**30)
    for alpha, ctx in contexts.items():
        done = 0
        while done < 30:
            s = rng.randint(1, 10**5)
            ints = ostrowski_int(s, ctx)
            head = list(ints.c[:4]) + [0] * max(0, 4 - len(ints.c))
            prev = head[3] > 0
            tail = _random_admissible_tail(ctx, rng, 4, 24, prev)
            digits = head + tail
            check_admissible(digits, ctx)
            gamma = Fraction(0)
            for n, b in enumerate(digits):
                if b:
                    gamma = b * ctx.D(n) + gamma
            prof = delta_profile(s, gamma, ctx, depth=24, allow_orbit=True)
            if prof.m is None or prof.m < 4:
                continue
            done += 1
            formula_iv = enclose(dist_formula(prof, ctx), width)
            direct_iv = dist_direct(s, gamma, ctx.alpha, width)
            assert formula_iv.overlaps(direct_iv)
            bound = dist_bound(prof, ctx)
            assert direct_iv.lo <= bound
            terms = dist_formula_terms(prof, ctx)
            recombined = Fraction(0)
            for t in reversed(terms):
                recombined = recombined + t
            start = prof.m
            partial = Fraction(0)
            for n in range(start, prof.depth):
                if prof.delta[n]:
                    partial = prof.delta[n] * ctx.D(n) + partial
            assert recombined == partial


def test_dist_bound_matches_reference():
    # exact and certified gammas sharing the first m >= 4 digits of s, over
    # exact alphas and one certified alpha (the last of KERNEL_CTX)
    rng = random.Random(30)
    for ctx in KERNEL_CTX:
        done = 0
        while done < 12:
            s = rng.randint(ctx.q(5), 10**12)
            ints = ostrowski_int(s, ctx)
            m = rng.randint(4, ints.M)
            digits = ints.c[:m] + _random_admissible_tail(ctx, rng, m, 30, ints.c[m - 1] > 0)
            # the certified alpha encloses 1/phi: its gammas lie in that field
            field = KERNEL_CTX[0] if isinstance(ctx.alpha, Certified) else ctx
            gamma = Fraction(0)
            for n, b in enumerate(digits):
                if b:
                    gamma = b * field.D(n) + gamma
            if done % 2:
                gamma = Certified("~", as_interval(gamma, Fraction(1, 10**150)))
            try:
                prof = delta_profile(s, gamma, ctx, depth=30, allow_orbit=True)
            except RatApproxError:
                continue
            if prof.m is None or prof.m < 4:
                continue
            done += 1
            assert dist_bound(prof, ctx) == dist_bound_reference(prof, ctx)


def test_dist_bound_single_delta(contexts):
    for alpha, ctx in contexts.items():
        prof = delta_profile(ctx.q(6), Fraction(0), ctx, depth=12, allow_orbit=True)
        bound = dist_bound(prof, ctx)
        actual = dist_formula(prof, ctx)
        assert enclose(actual, Fraction(1, 10**20)).hi <= bound
        # single-term profile: bound is 3*||q_m alpha||
        approx_3dm = enclose(abs(ctx.D(6)) * 3, Fraction(1, 10**20))
        assert approx_3dm.lo <= bound <= approx_3dm.hi + Fraction(1, 10**18)


def test_certified_gamma_path():
    alpha = INV_PHI
    ctx = CFContext(alpha, depth=32)
    gamma_true = ctx.D(4) + ctx.D(9)
    iv = enclose(gamma_true, Fraction(1, 10**40))
    cert = Certified(digits="...", enclosure=iv)
    d = ostrowski_real(cert, ctx, depth=8)
    assert [n for n, b in enumerate(d.b) if b] == [4]
    # the certified path's remainder is an interval, and is its own tail bound
    assert tail_bound(d, ctx) == d.remainder
    assert d.remainder.overlaps(enclose(ctx.D(9), Fraction(1, 10**20)))


def test_real_digits_boundary_tie_detected(contexts):
    # gamma = -D_5 sits exactly on a digit-cell boundary at position 4: both
    # continuations are admissible, so extraction must refuse even when the
    # orbit pre-check is bypassed
    ctx = contexts[INV_PHI]
    gamma = -ctx.D(5)
    with pytest.raises(GammaOnOrbit):
        ostrowski_real(gamma, ctx, depth=10, allow_orbit=True)


def test_inexact_gamma_tracks_exhaustive_minimizer(contexts):
    """For gamma off the digit lattice, the extracted prefix agrees with the
    exhaustive |gamma - partial| minimizer in all but possibly the final
    digit (the finite cut can locally prefer a neighbouring cell), and its
    own remainder stays within the last basis magnitude."""
    depth = 8
    for alpha, ctx in contexts.items():
        strings = []

        def build(n, prev, cur):
            if n == depth:
                strings.append(tuple(cur))
                return
            cap = ctx.a(n + 1) - (1 if prev else 0)
            for d in range(cap + 1):
                cur.append(d)
                build(n + 1, d > 0, cur)
                cur.pop()

        build(0, True, [])
        values = {}
        for st in strings:
            v = Fraction(0)
            for n, b in enumerate(st):
                if b:
                    v = b * ctx.D(n) + v
            values[st] = v
        for gamma in (
            ctx.alpha / 3,
            ctx.alpha * Fraction(-2, 5),
            Fraction(1, 10),
            ctx.alpha * ctx.alpha / 4,
        ):
            got = tuple(ostrowski_real(gamma, ctx, depth).b)
            best = min(strings, key=lambda st: abs(gamma - values[st]))
            assert got[: depth - 1] == best[: depth - 1]
            rem = gamma - values[got]
            rem_hi = enclose(abs(rem), Fraction(1, 10**40)).hi
            assert rem_hi <= ctx.d_abs_upper(depth - 1)


@pytest.mark.parametrize(
    "digits, message",
    [
        ([-1], "negative digit at 0"),
        ([1], "c_1 = 1 must be < a_1 = 1"),
        ([0, 2], "digit 2 at 1 exceeds a_2 = 1"),
        ([0, 1, 1], "saturated digit at 2 needs 0 before it"),
    ],
)
def test_check_admissible_raises_invariant_violation(contexts, digits, message):
    with pytest.raises(InvariantViolation) as info:
        check_admissible(digits, contexts[INV_PHI])
    assert str(info.value) == message
    assert isinstance(info.value, RatApproxError)


def test_check_admissible_survives_optimized_mode():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ratapprox.__file__)))
    code = (
        "from ratapprox.cf import CFContext\n"
        "from ratapprox.errors import InvariantViolation\n"
        "from ratapprox.exactnum import qi_normalize\n"
        "from ratapprox.ostrowski import check_admissible\n"
        "ctx = CFContext(qi_normalize(-1, 1, 5, 2))\n"
        "print(__debug__)\n"
        "for digits in ([-1], [1], [0, 2], [0, 1, 1], [0, 1, 0, 1]):\n"
        "    try:\n"
        "        check_admissible(digits, ctx)\n"
        "        print('accepted')\n"
        "    except InvariantViolation as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert out == ["False"] + ["InvariantViolation"] * 4 + ["accepted"]


# Equivalence of the integer kernels with the QuadIrr/RatInterval step rule.
# Alphas include Q != 1 and e != 1 (canonical (P + e*sqrt(D))/Q) and one
# certified alpha, 1/phi to 64 digits.
KERNEL_ALPHAS = [
    INV_PHI,
    qi_normalize(3, -1, 7, 2),  # (3 - sqrt(7))/2
    qi_normalize(5, -1, 13, 3),  # (5 - sqrt(13))/3
    qi_normalize(-5, 2, 7, 3),  # (2 sqrt(7) - 5)/3
    qi_normalize(-5, 1, 28, 6),  # (2 sqrt(7) - 5)/6, given through sqrt(28)
    qi_normalize(-4, 1, 17, 1),
    Certified.parse(
        "0.6180339887498948482045868343656381177203091798057628621354486227±1e-64"
    ),
]
KERNEL_CTX = [CFContext(a, depth=64) for a in KERNEL_ALPHAS]


def _kernel_gamma(alpha, kind, num, den, coef, digits):
    """A gamma of the given kind moved by an integer into [-alpha, 1 - alpha);
    certified kinds enclose that value at about 10**-digits, off-centre, and
    "certified-raw" encloses num/den mod 1 without the move."""
    field = alpha if isinstance(alpha, QuadIrr) else INV_PHI
    if kind == "certified-raw":
        g = Fraction(num % den, den)
    elif kind == "orbit":
        g = field * num  # on the orbit s*alpha (mod 1) when alpha is exact
    elif kind.endswith("quadratic"):
        g = field * Fraction(coef, 7) + Fraction(num, den)
    else:
        g = Fraction(num, den)
    if kind != "certified-raw":
        g = g - floor(g + (alpha.enclosure.mid if isinstance(alpha, Certified) else alpha))
    if kind.startswith("certified"):
        iv = enclose(g, Fraction(1, 10**digits))
        return Certified("~", RatInterval(iv.lo - Fraction(1 + num % 97, 97 * 10**digits), iv.hi))
    return g


def _kernel_outcome(gamma, ctx, depth, precision):
    try:
        d = ostrowski_real(gamma, ctx, depth, allow_orbit=True, precision_digits=precision)
    except (RatApproxError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return d.b, d.remainder


def _reference_outcome(gamma, ctx, depth, precision):
    try:
        return reference_real_digits(gamma, ctx, depth, precision)
    except (RatApproxError, ValueError) as exc:
        return type(exc).__name__, str(exc)


KERNEL_KINDS = ["rational", "quadratic", "orbit", "certified", "certified-quadratic", "certified-raw"]


@settings(deadline=None, max_examples=300)
@given(
    i=st.integers(0, len(KERNEL_ALPHAS) - 1),
    kind=st.sampled_from(KERNEL_KINDS),
    num=st.integers(-10**6, 10**6),
    den=st.integers(1, 10**6),
    coef=st.integers(1, 50),
    digits=st.integers(40, 200),
    depth=st.integers(1, 80),
    precision=st.sampled_from([4, 7, 12, 30, 200]),
)
@example(i=2, kind="certified-quadratic", num=3, den=8, coef=5, digits=200, depth=80, precision=200)
@example(i=6, kind="quadratic", num=-3, den=11, coef=9, digits=40, depth=80, precision=200)
def test_real_digit_kernels_match_reference(i, kind, num, den, coef, digits, depth, precision):
    """Equal digits and remainder (of the same type), or
    the same error class and message."""
    ctx = KERNEL_CTX[i]
    gamma = _kernel_gamma(KERNEL_ALPHAS[i], kind, num, den, coef, digits)
    got = _kernel_outcome(gamma, ctx, depth, precision)
    want = _reference_outcome(gamma, ctx, depth, precision)
    assert got == want
    assert type(got[-1]) is type(want[-1])


@pytest.mark.parametrize(
    "case, message",
    [
        ((5, "orbit", -357913, 186099, 6, 200, 20, 30), "GammaOnOrbit: remainder hits a cell boundary at position 6"),
        ((1, "certified-quadratic", -560056, 671398, 33, 68, 30, 7), "PrecisionExhausted: D_28 enclosure straddles zero"),
        ((4, "certified", -232056, 394648, 38, 42, 58, 4), "PrecisionExhausted: digit at position 11 undecidable"),
        ((6, "certified-raw", 9, 10, 1, 40, 5, 200), "PrecisionExhausted: digit at position 0 exceeds cap 0"),
    ],
)
def test_real_digit_kernels_refuse_like_reference(case, message):
    i, kind, num, den, coef, digits, depth, precision = case
    gamma = _kernel_gamma(KERNEL_ALPHAS[i], kind, num, den, coef, digits)
    want = _reference_outcome(gamma, KERNEL_CTX[i], depth, precision)
    assert ": ".join(want).startswith(message)  # the reference refuses as named
    assert _kernel_outcome(gamma, KERNEL_CTX[i], depth, precision) == want


# a_23 of this alpha straddles an integer: its digits run out at step 22,
# where the certified kernel reads a_23 and D_23
SHORT_ALPHA = "dec:0.6180339887±1e-10"


@pytest.mark.parametrize(
    "gamma, message",
    [
        ("dec:0.1±0.01", "digit at position 7 undecidable"),  # gamma refuses first
        ("dec:-0.2±1e-30", "digit at position 21 undecidable"),  # one step before alpha
        ("dec:0.1±1e-30", "enclosure straddles an integer after 23 digits"),  # alpha first
    ],
)
def test_certified_alpha_and_gamma_refuse_in_digit_order(capsys, gamma, message):
    argv = ["ostrowski-real", "--alpha", SHORT_ALPHA, "--gamma", gamma, "--depth", "30"]
    code, out = run_cli(capsys, argv)
    assert code == 1
    assert json.loads(out) == {"error": "PrecisionExhausted", "message": message}


def test_certified_alpha_digits_are_read_no_further_than_needed():
    # SHORT_ALPHA's digits end at a_22 = 1: s = q_22 - 1 (M = 21) and a
    # profile of depth 22 need a_0..a_22 and no more
    quad = CFContext(INV_PHI)
    s = quad.q(22) - 1
    d = ostrowski_int(s, CFContext(Certified.parse(SHORT_ALPHA[4:])))
    assert (d.M, d.c) == (21, ostrowski_int(s, quad).c)
    with pytest.raises(InsufficientDepth):
        ostrowski_int(quad.q(22), CFContext(Certified.parse(SHORT_ALPHA[4:])))
    gamma = Certified.parse("0.1±1e-30")
    prof = delta_profile(s, gamma, CFContext(Certified.parse(SHORT_ALPHA[4:])), depth=22)
    want = reference_real_digits(gamma, CFContext(Certified.parse(SHORT_ALPHA[4:])), 22)[0]
    assert prof.real_digits.b == want
    assert prof.delta == [x - y for x, y in zip(d.c, want)]


@pytest.mark.parametrize("alpha", ["0.6180339887±1e-10", "0.41421356237±1e-11", "0.7320508±1e-7"])
def test_certified_alpha_refusals_match_reference(alpha):
    # the reference reads a_{n+1} and D_{n+1} at step n, never ahead
    for center in ("0.1", "0.35", "-0.2"):
        for k in range(1, 40, 2):
            gamma = Certified.parse(f"{center}±1e-{k}")
            got = _kernel_outcome(gamma, CFContext(Certified.parse(alpha)), 40, 200)
            want = _reference_outcome(gamma, CFContext(Certified.parse(alpha)), 40, 200)
            assert got == want, (center, k)


def _count_enclose(monkeypatch) -> list:
    calls = []
    real = exactnum.enclose

    def counting(x, width):
        calls.append(x)
        return real(x, width)

    monkeypatch.setattr(exactnum, "enclose", counting)
    return calls


def test_d_enclosure_memo_is_reused_and_never_shared(monkeypatch):
    calls = _count_enclose(monkeypatch)
    ctx = CFContext(INV_PHI, depth=64)
    gamma = Certified("~", enclose(ctx.D(5) + ctx.D(9) + ctx.D(30), Fraction(1, 10**150)))
    first = ostrowski_real(gamma, ctx, 40)
    made = len(calls)
    assert made >= 41  # D_0 .. D_40 at 10**-200
    assert ostrowski_real(gamma, ctx, 40) == first
    assert len(calls) == made
    # a fresh context starts empty, even at an id the old one may have had
    del ctx
    gc.collect()
    other = CFContext(INV_PHI, depth=64)
    assert ostrowski_real(gamma, other, 40) == first
    assert len(calls) == 2 * made
    # dist_formula and dist_bound share one memo at their width
    prof = delta_profile(other.q(5) + other.q(9) + other.q(12), gamma, other, 40)
    assert prof.m == 12
    dist_formula(prof, other)
    dist_bound(prof, other)
    made = len(calls)
    dist_formula(prof, other)
    dist_bound(prof, other)
    assert len(calls) == made


@pytest.mark.parametrize("i", [0, 3, 6])
def test_d_enclosure_memo_matches_as_interval(i):
    ctx = CFContext(KERNEL_ALPHAS[i], depth=64)
    for width in (Fraction(1, 10**30), Fraction(1, 10**200)):
        memo = ctx.d_enclosures(width)
        assert ctx.d_enclosures(width) is memo
        for n in (5, 0, 40, 17, 80):  # out of order: the common denominator grows
            memo.ensure(n)
            lo, hi = memo.num[n]
            assert RatInterval(Fraction(lo, memo.den), Fraction(hi, memo.den)) == as_interval(ctx.D(n), width)
        for n, (lo, hi) in memo.num.items():
            assert RatInterval(Fraction(lo, memo.den), Fraction(hi, memo.den)) == as_interval(ctx.D(n), width)


@pytest.mark.parametrize("i", range(6))
def test_real_digit_kernel_range_ends_match_reference(i):
    # T(0) = [-alpha, 1 - alpha): the lower end is inside, the upper one not
    alpha, ctx = KERNEL_ALPHAS[i], KERNEL_CTX[i]
    eps = Fraction(1, 10**40)
    for gamma, inside in ((-alpha, True), (1 - alpha, False), (-alpha - eps, False), (1 - alpha - eps, True)):
        got = _kernel_outcome(gamma, ctx, 12, 200)
        assert got == _reference_outcome(gamma, ctx, 12, 200)
        assert (got[0] != "ValueError") == inside


# The exact kernel over long depths, on gammas whose states repeat early so
# that the period jump fires: finite sums sum b_n D_n (t_n = 0 after the last
# digit) and rationals with small denominators.
def _finite_sum(ctx, rng, length):
    digits, prev = [], True
    for n in range(length):
        cap = ctx.a(n + 1) - (1 if prev else 0)
        digits.append(rng.randint(0, cap) if rng.random() < 0.5 else 0)
        prev = digits[-1] > 0
    gamma = Fraction(0)
    for n, b in enumerate(digits):
        if b:
            gamma = b * ctx.D(n) + gamma
    return gamma, digits


@settings(deadline=None, max_examples=80)
@given(
    i=st.integers(0, 5),
    kind=st.sampled_from(["sum", "rational"]),
    seed=st.integers(0, 2**32 - 1),
    den=st.integers(1, 12),
    length=st.integers(0, 30),
    depth=st.integers(1, 400),
)
@example(i=0, kind="rational", seed=0, den=3, length=0, depth=400)
@example(i=4, kind="sum", seed=7, den=1, length=30, depth=400)
def test_exact_kernel_matches_reference_past_the_period_jump(i, kind, seed, den, length, depth):
    ctx = KERNEL_CTX[i]
    rng = random.Random(seed)
    if kind == "sum":
        gamma, digits = _finite_sum(ctx, rng, length)
    else:
        g = Fraction(rng.randint(-5 * den, 5 * den), den)
        gamma = g - floor(g + KERNEL_ALPHAS[i])
    steps = []  # one _times_zeta call forms t_0, one more each step
    with pytest.MonkeyPatch.context() as mp:
        times_zeta = ostrowski._times_zeta
        mp.setattr(ostrowski, "_times_zeta", lambda *args: steps.append(1) or times_zeta(*args))
        got = _kernel_outcome(gamma, ctx, depth, 200)
    want = _reference_outcome(gamma, ctx, depth, 200)
    assert got == want
    assert type(got[-1]) is type(want[-1])
    if kind == "sum":
        # t_n = 0 with a zero digit before it from n = last + 1 on, and the
        # key repeats one period after it is first recorded (n + 1 >= K)
        K, L = ctx.period
        last = max((n + 1 for n, b in enumerate(digits) if b), default=0)
        assert got[0] == (digits + [0] * depth)[:depth]
        assert len(steps) - 1 <= min(depth, max(last + 1, K - 1) + L)


@pytest.mark.parametrize(
    "i, gamma, depth, message",
    [
        (0, lambda ctx: -ctx.D(5), 10, "GammaOnOrbit: remainder hits a cell boundary at position 4"),
        (3, lambda ctx: -ctx.D(150), 200, "GammaOnOrbit: remainder hits a cell boundary at position 149"),
        (5, lambda ctx: -ctx.D(60), 400, "GammaOnOrbit: remainder hits a cell boundary at position 59"),
        (1, lambda ctx: -ctx.alpha - Fraction(1, 10**40), 300, "ValueError: gamma below -alpha"),
        (4, lambda ctx: 1 - ctx.alpha, 300, "ValueError: gamma not below 1 - alpha"),
        (2, lambda ctx: Fraction(-1, 1) + Fraction(1, 10**40), 300, "ValueError: gamma below -alpha"),
    ],
)
def test_exact_kernel_refuses_like_reference(i, gamma, depth, message):
    ctx = KERNEL_CTX[i]
    got = _kernel_outcome(gamma(ctx), ctx, depth, 200)
    assert ": ".join(got).startswith(message)
    assert got == _reference_outcome(gamma(ctx), ctx, depth, 200)


def test_exact_kernel_checks_each_state_update():
    # a state update that leaves T trips the check on t_{n+1}
    ctx = KERNEL_CTX[0]
    times_zeta, calls = ostrowski._times_zeta, []

    def off_by_1000(*args):  # the fifth call forms t_4
        calls.append(1)
        u, v, w = times_zeta(*args)
        return (u + 1000 * w, v, w) if len(calls) == 5 else (u, v, w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ostrowski, "_times_zeta", off_by_1000)
        with pytest.raises(InvariantViolation, match="^remainder left T at 3$"):
            ostrowski_real(Fraction(1, 3), ctx, 40)


# sha256 of stdout of deep calls, taken with the big-integer extraction loop
# that the bounded-state kernel replaced
DEEP_PINS = {
    ("ostrowski-real", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:1/3", "--depth", "20000"):
        "f2279d11ea15ba799f894326833c497a5a04399c8a47f78374d70c1ee062dbc7",
    ("dist", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:1/3", "--s", str(10**2000)):
        "08cc74033b2f92d30fcce70aea9d0b84a9af588fc39dcf5811e8d7e21f12b57d",
    ("ostrowski-real", "--alpha", "quad:-3,1,13,2", "--gamma", "quad:0,1,13,7", "--depth", "8000"):
        "f75e123b00b94f0bc2cf61b6f03f1681c8002af36e2c484600da45b64ae79f7d",
}


@pytest.mark.parametrize("argv", sorted(DEEP_PINS))
def test_deep_calls_are_pinned(capsys, argv):
    from ratapprox.cli import main

    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DEEP_PINS[argv]


def test_ostrowski_real_tail_bound_is_pinned(capsys):
    from ratapprox.cli import main

    argv = ["ostrowski-real", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:1/3", "--depth", "10"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tail_bound"] == {"lo": "21286231/3000000000", "hi": "42572483/6000000000"}


def _flag(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


SWEEP_ALPHAS = [qi_normalize(*key) for key in ((-1, 1, 5, 2), (-1, 1, 2, 1), (-3, 1, 13, 2),
                                                (-2, 1, 7, 3), (-4, 1, 17, 1), (3, -1, 7, 2))]


def _sweep_argv(i: int) -> list[str]:
    """A seeded ostrowski-real or dist call: a rational gamma or one in
    alpha's field, shifted into [-alpha, 1 - alpha); for dist an s that is
    random, 10**5000, or a truncation of gamma's digits (the series regime)."""
    rng = random.Random(7700 + i)
    alpha = rng.choice(SWEEP_ALPHAS)
    if i % 2:
        g = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
    else:
        g = alpha * Fraction(rng.choice([1, 2, 3, 4, 5, 6]), 7) + Fraction(rng.randint(-50, 50), 11)
    g = g - floor(g + alpha)
    text = f"rat:{g}" if isinstance(g, Fraction) else f"quad:{g.P},{g.e},{g.D},{g.Q}"
    target = ["--alpha", f"quad:{alpha.P},{alpha.e},{alpha.D},{alpha.Q}", "--gamma", text]
    if i % 3 == 0:
        depth = rng.choice([1, 40, 300, 3000])
        return ["ostrowski-real", *target, "--depth", str(depth)]
    kind = i % 9
    if kind == 1:
        s = 10**5000
    elif kind in (2, 5, 7):
        n = rng.randint(6, 20)  # m >= n, inside the default depth 24
        b = ostrowski_real(g, CFContext(alpha), n + 1).b
        q = [q for _, q in convergent_pairs(quad_digits(alpha, n + 1))]
        s = sum(d * qn for d, qn in zip(b, q)) or 1
    else:
        s = rng.randint(1, 10**12)
    return ["dist", *target, "--s", str(s)]


CHECKED_ARGVS = {
    **{name: argv for name, argv in GOLDEN.items() if argv[0] in ("ostrowski-real", "dist")},
    **{f"deep-{j}": list(argv) for j, argv in enumerate(sorted(DEEP_PINS))},
    **{f"sweep-{i}": i for i in range(24)},
}


@pytest.mark.parametrize("case", sorted(CHECKED_ARGVS))
def test_document_passes_the_independent_check(capsys, case):
    from ratapprox.cli import main, parse_target

    argv = CHECKED_ARGVS[case]
    if isinstance(argv, int):
        argv = _sweep_argv(argv)
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    alpha, gamma = parse_target(_flag(argv, "--alpha")), parse_target(_flag(argv, "--gamma"))
    if argv[0] == "ostrowski-real":
        failures = check_ostrowski_real_document(doc, alpha, gamma)
    else:
        failures = check_dist_document(doc, alpha, gamma, int(_flag(argv, "--s")))
    assert failures == []


@pytest.mark.skipif(resource is None, reason="resource is not available")
def test_deep_calls_run_in_linear_memory():
    # every M_n below q_M of s = 10**5000 (M = 23,925) held about 70 MiB
    src = os.path.dirname(os.path.dirname(os.path.abspath(ratapprox.__file__)))
    code = (
        "import os, resource, sys\n"
        "if hasattr(sys, 'set_int_max_str_digits'):\n"
        "    sys.set_int_max_str_digits(0)\n"
        "from ratapprox.cli import main\n"
        "s = str(10**5000)\n"
        "out, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
        "codes = [main(['ostrowski-int', '--alpha', 'quad:-1,1,5,2', '--s', s]),\n"
        "         main(['dist', '--alpha', 'quad:-1,1,5,2', '--gamma', 'rat:1/3', '--s', s])]\n"
        "sys.stdout = out\n"
        "print(*codes, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    # Linux hands a child the peak of the process it was started from, so the
    # measured child is started from a small one, not from the test runner
    spawn = ("import subprocess, sys\n"
             "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)\n")
    out = subprocess.run([sys.executable, "-c", spawn, code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60).stdout
    int_code, dist_code, peak = map(int, out.split())
    assert (int_code, dist_code) == (0, 0)
    peak_bytes = peak if sys.platform == "darwin" else peak * 1024  # ru_maxrss is KiB on Linux
    assert peak_bytes < 40 * 2**20


def test_oracles_have_no_assert_statements():
    # pytest rewrites asserts only in test modules and python -O strips the
    # rest, so the oracles raise AssertionError themselves
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
