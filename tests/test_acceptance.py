"""Acceptance gate: one test per shipped correctness criterion.

Every test prints a single `[acceptance N] PASS ...` line (visible with
`pytest -s`), checks its stated runtime budget, and pins every tolerance
explicitly.  Expected values marked as derived were computed by the
independent oracles in oracles.py (exhaustive enumeration, bisection,
series convolution, brute-force Pell) and frozen here.
"""

import random
import sys
import time
from fractions import Fraction

import pytest

from ratapprox.approx import PsiSpec, construct_psi, detect_line, fit_coefficients, growth_profile, line_set, verify_order
from ratapprox.approx import ApproxSet
from ratapprox.cf import CFContext
from ratapprox.conic import ConicForm, conic_orbit, laurent_expansion, minimal_polynomial, periodic_construction
from ratapprox.errors import BlowUp
from ratapprox.exactnum import QuadIrr, enclose, qi_normalize
from ratapprox.ostrowski import check_admissible, delta_profile, dist_bound, dist_direct, dist_formula, ostrowski_int

from oracles import enumerate_ostrowski_values, exp_le_reference, pair_value, sqrt_series_coeffs

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

PHI = qi_normalize(1, 1, 5, 2)
INV_PHI = qi_normalize(-1, 1, 5, 2)
SQRT2 = qi_normalize(0, 1, 2, 1)
SQRT3 = qi_normalize(0, 1, 3, 1)
HALF_1_SQRT13 = qi_normalize(1, 1, 13, 2)
SQRT2_M1 = qi_normalize(-1, 1, 2, 1)
INV_1_SQRT3 = qi_normalize(-1, 1, 3, 2)

UNIT_ALPHAS = [INV_PHI, SQRT2_M1, INV_1_SQRT3]


class budget:
    """Times a criterion body and enforces its wall-clock budget."""

    def __init__(self, number: int, seconds: float, label: str):
        self.number = number
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.seconds}s"
            )
            print(
                f"[acceptance {self.number}] PASS {self.label} "
                f"({elapsed:.2f}s < {self.seconds:.0f}s)"
            )
        else:
            print(f"[acceptance {self.number}] FAIL {self.label}")
        return False


def test_criterion_1_cf_identities():
    with budget(1, 5.0, "exact error identity and two-sided bounds, n <= 50"):
        for alpha in (PHI, INV_PHI, SQRT2, SQRT3, HALF_1_SQRT13):
            ctx = CFContext(alpha, depth=56)
            for n in range(1, 51):
                err = alpha - Fraction(ctx.p(n), ctx.q(n))
                rhs = (-1) ** n / (ctx.q(n) ** 2 * (ctx.zeta(n + 1) + ctx.xi(n)))
                assert err == rhs  # exact in the quadratic field
                lo = Fraction(1, 2 * ctx.q(n) * ctx.q(n + 1))
                hi = Fraction(1, ctx.q(n) * ctx.q(n + 1))
                err_iv = enclose(abs(err), (hi - lo) / 2**20)
                assert err_iv.lo >= lo and err_iv.hi <= hi


def test_criterion_2_fibonacci_facts():
    with budget(2, 2.0, "convergents are Fibonacci; form and explicit formulas exact"):
        ctx = CFContext(PHI, depth=210)
        fib = [0, 1]
        while len(fib) < 220:
            fib.append(fib[-1] + fib[-2])
        for n in range(0, 201):
            assert ctx.p(n) == fib[n + 2] and ctx.q(n) == fib[n + 1]
        for n in range(1, 201):
            assert fib[n + 1] ** 2 - fib[n + 1] * fib[n] - fib[n] ** 2 == (-1) ** n
        sqrt5 = qi_normalize(0, 1, 5, 1)
        inv_phi_neg = -INV_PHI  # equals -1/phi
        phi_pow = Fraction(1)
        neg_pow = Fraction(1)
        for n in range(1, 201):
            phi_pow = PHI * phi_pow
            neg_pow = inv_phi_neg * neg_pow
            assert (phi_pow - neg_pow) / sqrt5 == Fraction(fib[n])


def test_criterion_3_ostrowski_uniqueness():
    with budget(3, 60.0, "greedy digits equal the unique admissible string, s <= 10^4"):
        s_max = 10**4
        for alpha in UNIT_ALPHAS:
            ctx = CFContext(alpha, depth=64)
            n_top = 0
            while ctx.q(n_top + 1) <= s_max:
                n_top += 1
            q = [ctx.q(n) for n in range(n_top + 2)]
            a = [ctx.a(n) for n in range(n_top + 3)]
            table = enumerate_ostrowski_values(q, a, s_max)
            assert sorted(table) == list(range(s_max + 1))
            for s in range(1, s_max + 1):
                d = ostrowski_int(s, ctx)
                expect = list(table[s][: len(d.c)])
                assert d.c == expect
                assert all(v == 0 for v in table[s][len(d.c):])
                check_admissible(d.c, ctx)


def _random_profile_case(ctx, rng, depth):
    s = rng.randint(1, 10**5)
    ints = ostrowski_int(s, ctx)
    head = list(ints.c[:4]) + [0] * max(0, 4 - len(ints.c))
    digits = list(head)
    prev = digits[3] > 0
    for n in range(4, depth):
        cap = ctx.a(n + 1) - (1 if prev else 0)
        d = rng.randint(0, cap) if rng.random() < 0.7 else 0
        digits.append(d)
        prev = d > 0
    gamma = Fraction(0)
    for n, b in enumerate(digits):
        if b:
            gamma = b * ctx.D(n) + gamma
    return s, gamma


def test_criterion_4_distance_oracle_equivalence():
    with budget(4, 60.0, "series formula vs direct oracle, 500 cases per target"):
        width = Fraction(1, 10**30)
        for alpha in UNIT_ALPHAS:
            ctx = CFContext(alpha, depth=40)
            rng = random.Random(20260810 + alpha.D)
            done = 0
            while done < 500:
                s, gamma = _random_profile_case(ctx, rng, depth=26)
                prof = delta_profile(s, gamma, ctx, 26, allow_orbit=True)
                if prof.m is None or prof.m < 4:
                    continue
                done += 1
                exact = dist_formula(prof, ctx)
                formula_iv = enclose(exact, width)
                direct_iv = dist_direct(s, gamma, ctx.alpha, width)
                assert formula_iv.overlaps(direct_iv)
                bound = dist_bound(prof, ctx)
                assert exact <= bound
                field_bound = (abs(prof.delta[prof.m]) + 2) * abs(ctx.D(prof.m))
                assert exact <= field_bound  # exact field-level inequality


def test_criterion_5_psi_power_law():
    with budget(5, 1.0, "power-law construction hits s = (5, 238), certified"):
        cons = construct_psi(INV_PHI, PsiSpec.power(2), 2)
        assert cons.indices == [4, 12]
        assert cons.s == [5, 238]
        assert cons.certified
        # independent check of each certified inequality with exact rationals
        ctx = CFContext(INV_PHI, depth=40)
        psi_s1 = Fraction(1, 5**2)
        psi_s2 = Fraction(1, 238**2)
        tail = pair_value(cons.tail)
        assert Fraction(1, ctx.q(13)) + tail <= psi_s1  # |D_12| + tail
        assert tail <= psi_s2
        drift1 = INV_PHI * 5 - ctx.D(4)
        drift2 = INV_PHI * 238 - (ctx.D(4) + ctx.D(12))
        assert drift1 == Fraction(3) and drift2 == Fraction(147)


def test_criterion_6_psi_exponential():
    with budget(6, 120.0, "exp construction: K=3 certified in budget, K=4 blows up"):
        cons = construct_psi(INV_PHI, PsiSpec.exp_decay(1), 3)
        assert cons.indices == [4, 20, 36808]
        assert cons.certified
        digit_count = (cons.s[-1].bit_length() * 30103) // 100000
        assert digit_count <= 100_000
        assert growth_profile(cons.s).classification == "super_exponential"
        # independent minimality check of n_2 and n_3 by mpmath interval logarithms
        ctx = CFContext(INV_PHI, depth=64)
        assert not exp_le_reference(8, Fraction(ctx.q(19), 3))  # 3/q_19 > e^-8
        assert exp_le_reference(8, Fraction(ctx.q(20), 3))  # 3/q_20 <= e^-8
        assert not exp_le_reference(ctx.q(21), Fraction(ctx.q(36807), 3))
        assert exp_le_reference(ctx.q(21), Fraction(ctx.q(36808), 3))
        with pytest.raises(BlowUp) as exc:
            construct_psi(INV_PHI, PsiSpec.exp_decay(1), 4)
        assert exc.value.partial is not None
        assert exc.value.partial.indices == [4, 20, 36808]


def test_criterion_7_rational_round_trip():
    with budget(7, 30.0, "line round trip, exact gamma_1 = d/b, zero residuals"):
        from math import gcd

        checked = 0
        for b in range(1, 21):
            for a in range(-20, 21):
                if gcd(abs(a), b) != 1:
                    continue
                for d in range(-20, 21):
                    aset = line_set(a, b, d, 6)
                    fit = detect_line(aset.pairs)
                    assert (fit.a, fit.b, fit.d, fit.exceptions) == (a, b, d, 0)
                    gamma, report = fit_coefficients(aset.pairs, Fraction(a, b), 1)
                    assert gamma == [Fraction(d, b)]
                    assert report.passed
                    assert all(row.scaled == 0 for row in report.rows)
                    checked += 1
        assert checked > 15_000


def test_criterion_8_quadratic_infinite_order():
    with budget(8, 5.0, "orbit of (2,1): binomial coefficients exact, fit agrees"):
        form = ConicForm(1, -1, -1, 1)
        aset = conic_orbit(form, (2, 1), 16)
        assert aset.pairs[:4] == [(2, 1), (5, 3), (13, 8), (34, 21)]
        lx = laurent_expansion(form, 4)
        # frozen from the series-convolution oracle, exact in Q(sqrt(5))
        oracle = sqrt_series_coeffs(Fraction(4, 5), 2)
        assert lx.gamma[0] == Fraction(0)
        assert lx.gamma[1] == qi_normalize(0, oracle[1].numerator, 5,
                                            2 * oracle[1].denominator)
        assert lx.gamma[1] == qi_normalize(0, 1, 5, 5)  # 1/sqrt(5)
        assert lx.gamma[2] == Fraction(0)
        assert lx.gamma[3] == qi_normalize(0, oracle[2].numerator, 5,
                                            2 * oracle[2].denominator)
        assert lx.gamma[3] == qi_normalize(0, -1, 5, 25)  # -1/(5 sqrt(5))
        # the order-4 fit sees the series only to its own depth; with 16
        # pairs the agreement is certified to 10^-9 per coefficient
        fitted, _ = fit_coefficients(aset.pairs, PHI, 4)
        for got, exact in zip(fitted, lx.gamma):
            dev = abs(got - exact)
            dev_hi = (
                enclose(dev, Fraction(1, 10**40)).hi
                if isinstance(dev, QuadIrr)
                else Fraction(dev)
            )
            assert dev_hi <= Fraction(1, 10**9)
        for order in (2, 3, 4):
            trimmed = ApproxSet(
                alpha=PHI, pairs=aset.pairs, order=order, gamma=lx.gamma[:order]
            )
            assert verify_order(trimmed).passed


def test_criterion_9_periodic_construction():
    with budget(9, 10.0, "periodic route: exact gamma_2, integrality, q^2 decay"):
        expected = {
            INV_PHI: qi_normalize(0, -1, 5, 5),  # -1/sqrt(5)
            SQRT2_M1: qi_normalize(0, -1, 2, 4),  # -1/(2 sqrt(2))
        }
        for alpha, gamma2 in expected.items():
            pc = periodic_construction(alpha, 20)
            assert pc.gamma2 == gamma2
            a, b, _ = minimal_polynomial(alpha)
            integral = (2 * a * alpha + b) * pc.gamma2
            assert isinstance(integral, Fraction) and integral.denominator == 1
            scaled = []
            for p, q in pc.aset.pairs:
                resid = abs(alpha - Fraction(p, q) + pc.gamma2 * Fraction(1, q * q))
                scaled.append(resid * (q * q))
            for x, y in zip(scaled, scaled[1:]):
                assert y < x  # strict monotone decrease
            below = [i for i, v in enumerate(scaled) if v < Fraction(1, 10**6)]
            assert below and below[0] < 20
            assert growth_profile(pc.aset.denominators).classification == "exponential"


def test_criterion_10_cli_determinism(capsys):
    from test_cli import GOLDEN, run_cli

    with budget(10, 60.0, "byte-identical CLI output across consecutive runs"):
        for name, argv in GOLDEN.items():
            code1, out1 = run_cli(capsys, argv)
            code2, out2 = run_cli(capsys, argv)
            assert code1 == 0 and code2 == 0
            assert out1 == out2, f"{name} not byte-identical"
