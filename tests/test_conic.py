import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ratapprox
from ratapprox.approx import detect_line, fit_coefficients, growth_profile, line_set
from ratapprox.cf import CFContext
from ratapprox.conic import (
    ConicForm,
    conic_orbit,
    find_seed,
    fundamental_automorph,
    laurent_expansion,
    minimal_polynomial,
    pell4,
    periodic_construction,
    quad_detect,
)
from ratapprox.errors import InsufficientPairs, NotPeriodic
from ratapprox.exactnum import QuadIrr, enclose, qi_normalize, qi_pair

from oracles import (
    brute_pell4,
    convergent_pairs,
    laurent_threshold_by_scan,
    quad_cf_digits,
    sqrt_series_coeffs,
)

PHI = qi_normalize(1, 1, 5, 2)
INV_PHI = qi_normalize(-1, 1, 5, 2)
SQRT2_M1 = qi_normalize(-1, 1, 2, 1)
GOLDEN_FORM = ConicForm(1, -1, -1, 1)


def test_minimal_polynomial_examples():
    assert minimal_polynomial(PHI) == (1, -1, -1)
    assert minimal_polynomial(qi_normalize(0, 1, 2, 1)) == (1, 0, -2)
    assert minimal_polynomial(INV_PHI) == (1, 1, -1)


def test_pell4_examples_and_oracle():
    assert pell4(5) == (3, 1)
    assert pell4(8) == (6, 2)
    for delta in range(2, 200):
        if isqrt(delta) ** 2 == delta:
            continue
        t, u = pell4(delta)
        assert t * t - delta * u * u == 4
        oracle = brute_pell4(delta)
        if oracle is not None:
            assert (t, u) == oracle


@pytest.mark.parametrize(
    "delta, t, u",
    [
        (94, 4286590, 442128),
        (181, 1703027, 126585),
        (991, 759032801813623861276029792160, 24111471580662718894885077534),
    ],
)
def test_pell4_beyond_brute_force(delta, t, u):
    # least u past the oracle's u <= 20000 reach, as the direct search and
    # norm scan of earlier releases printed them
    assert brute_pell4(delta) is None
    assert pell4(delta) == (t, u)


def test_fundamental_automorph_golden():
    m = fundamental_automorph(GOLDEN_FORM)
    assert (m.t11, m.t12, m.t21, m.t22) == (2, 1, 1, 1)


def test_fundamental_automorph_pell():
    m = fundamental_automorph(ConicForm(1, 0, -2, 1))
    assert (m.t11, m.t12, m.t21, m.t22) == (3, 4, 2, 3)


def test_automorph_preserves_random_forms():
    rng = random.Random(5)
    tried = 0
    while tried < 40:
        a = rng.randint(1, 8)
        b = rng.randint(-8, 8)
        c = rng.randint(-8, -1)
        if gcd(gcd(a, abs(b)), abs(c)) != 1:
            continue
        disc = b * b - 4 * a * c
        if disc <= 0 or isqrt(disc) ** 2 == disc:
            continue
        form = ConicForm(a, b, c)
        m = fundamental_automorph(form)
        assert m.preserves(form) and m.det() == 1
        tried += 1


def test_find_seed_examples():
    assert find_seed(GOLDEN_FORM, 50) == (2, 1)
    assert find_seed(ConicForm(1, -1, -1, -1), 50) == (1, 1)
    assert find_seed(ConicForm(1, -1, -1, 3), 100) is None
    # exhaustive cross-check that 3 is not represented below the bound
    assert all(
        r * r - r * s - s * s != 3 for s in range(1, 101) for r in range(1, 200)
    )


def test_conic_orbit_golden():
    aset = conic_orbit(GOLDEN_FORM, (2, 1), 4)
    assert aset.pairs == [(2, 1), (5, 3), (13, 8), (34, 21)]
    assert aset.alpha == PHI


def test_conic_orbit_pell():
    form = ConicForm(1, 0, -2, 1)
    aset = conic_orbit(form, find_seed(form, 10), 3)
    assert aset.pairs == [(3, 2), (17, 12), (99, 70)]


def test_conic_orbit_rejects_bad_seed():
    with pytest.raises(ValueError):
        conic_orbit(GOLDEN_FORM, (3, 1), 3)


def test_orbit_preserves_form_value():
    for d in (-4, -1, 1, 5, 11):
        seed = find_seed(ConicForm(1, -1, -1, d), 200)
        if seed is None:
            continue
        aset = conic_orbit(ConicForm(1, -1, -1, d), seed, 8)
        assert all(GOLDEN_FORM.value(r, s) == d for r, s in aset.pairs)


def test_fibonacci_form_identity():
    f_prev, f = 0, 1
    for n in range(1, 201):
        f, f_prev = f + f_prev, f  # f = F_{n+1}, f_prev = F_n
        assert f * f - f * f_prev - f_prev * f_prev == (-1) ** n


def test_fibonacci_explicit_formula_exact():
    sqrt5 = qi_normalize(0, 1, 5, 1)
    f_prev, f = 0, 1
    for n in range(1, 120):
        f, f_prev = f + f_prev, f
        lhs = (PHI**(n + 1) - (-(PHI.inverse())) ** (n + 1)) / sqrt5
        assert lhs == Fraction(f)


def test_laurent_golden_coefficients():
    lx = laurent_expansion(GOLDEN_FORM, 4)
    inv_sqrt5 = qi_normalize(0, 1, 5, 5)
    assert lx.gamma[0] == Fraction(0)
    assert lx.gamma[1] == inv_sqrt5
    assert lx.gamma[2] == Fraction(0)
    assert lx.gamma[3] == qi_normalize(0, -1, 5, 25)  # -sqrt(5)/25 = -1/(5 sqrt(5))
    assert lx.alpha == PHI


def test_laurent_matches_series_square_oracle():
    for form in (GOLDEN_FORM, ConicForm(1, 0, -2, 1), ConicForm(1, -1, -1, 7),
                 ConicForm(2, 1, -2, 3)):
        lx = laurent_expansion(form, 8)
        kappa = Fraction(4 * form.a * form.d, form.disc)
        oracle = sqrt_series_coeffs(kappa, 5)
        for k in range(1, 5):
            expected = qi_pair(Fraction(0), oracle[k] / (2 * form.a), form.disc)
            assert lx.gamma[2 * k - 1] == expected


def test_laurent_gamma2_level_identity():
    # gamma_2 = d/sqrt(5) for the golden form, and (2a*alpha + b)*gamma_2 = d
    for d in (1, 2, -3, 7):
        lx = laurent_expansion(ConicForm(1, -1, -1, d), 2)
        assert lx.gamma[1] == qi_pair(Fraction(0), Fraction(d, 5), 5)
        prod = (2 * lx.form.a * lx.alpha + lx.form.b) * lx.gamma[1]
        assert prod == Fraction(d)


def test_laurent_zero_level():
    lx = laurent_expansion(ConicForm(1, -1, -1, 0), 6)
    assert all(g == 0 for g in lx.gamma)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(1, 30), b=st.integers(-30, 30), c=st.integers(-30, 30),
       d=st.integers(-10**5, 10**5))
@example(a=1, b=-1, c=-1, d=10)  # 8|ad|/disc = 16 exactly: s = 4
@example(a=1, b=-1, c=-1, d=0)
@example(a=1, b=-1, c=-1, d=-1)
def test_laurent_threshold_matches_scan(a, b, c, d):
    disc = b * b - 4 * a * c
    assume(gcd(gcd(a, abs(b)), abs(c)) == 1 and disc > 0 and isqrt(disc) ** 2 != disc)
    lx = laurent_expansion(ConicForm(a, b, c, d), 1)
    assert lx.threshold_s == laurent_threshold_by_scan(a, d, disc)


def test_laurent_tail_bound_on_orbit():
    lx = laurent_expansion(GOLDEN_FORM, 6)
    aset = conic_orbit(GOLDEN_FORM, (2, 1), 9)
    for r, s in aset.pairs:
        if s < lx.threshold_s:
            continue
        residual = Fraction(r, s) - lx.alpha
        for j, g in enumerate(lx.gamma, start=1):
            residual = residual - g * Fraction(1, s**j)
        res_up = enclose(abs(residual), Fraction(1, 10**40)).hi if isinstance(
            residual, QuadIrr
        ) else abs(residual)
        assert res_up <= lx.tail_bound(s)


def test_fit_on_orbit_matches_laurent():
    aset = conic_orbit(GOLDEN_FORM, (2, 1), 14)
    gamma, report = fit_coefficients(aset.pairs, PHI, 4)
    lx = laurent_expansion(GOLDEN_FORM, 4)
    for fitted, exact in zip(gamma, lx.gamma):
        dev = abs(fitted - exact)
        dev_up = enclose(dev, Fraction(1, 10**40)).hi if isinstance(dev, QuadIrr) else dev
        assert dev_up < Fraction(1, 10**6)


def test_periodic_construction_inv_phi():
    pc = periodic_construction(INV_PHI, 3)
    assert (pc.preperiod, pc.period) == (0, 1)
    assert pc.gamma2 == qi_normalize(0, -1, 5, 5)  # -1/sqrt(5) = -1/(phi + 1/phi)
    assert pc.aset.pairs == [(1, 2), (3, 5), (8, 13)]


def test_periodic_construction_sqrt2_m1():
    pc = periodic_construction(SQRT2_M1, 3)
    assert pc.gamma2 == qi_normalize(0, -1, 2, 4)  # -1/(2 sqrt(2))
    assert pc.aset.pairs == [(2, 5), (12, 29), (70, 169)]


def test_periodic_construction_growth_and_report():
    pc = periodic_construction(INV_PHI, 10)
    assert growth_profile(pc.aset.denominators).classification == "exponential"
    assert pc.report.passed


@pytest.mark.parametrize("P, D, Q", [(-1, 5, 2), (-7, 61, 1), (2, 3, 5), (3, 2, 7), (5, 11, 9)])
def test_periodic_construction_pairs_without_dense_walk(P, D, Q, monkeypatch):
    alpha = qi_normalize(P, 1, D, Q)
    made = []
    monkeypatch.setattr(ratapprox.conic, "CFContext",
                        lambda a: made.append(CFContext(a)) or made[-1])
    pc = periodic_construction(alpha, 12)
    (ctx,) = made
    K, L = pc.preperiod, pc.period
    pairs = convergent_pairs(quad_cf_digits(P, D, Q, K + 24 * L + 1))
    assert pc.aset.pairs == [pairs[K + 2 * k * L] for k in range(1, 13)]
    # no convergent walked in order: M_-1 and the landing pairs only
    assert ctx._dense == -1
    landings = [K + 2 * k * L for k in range(1, 13)]
    assert set(ctx._conv) == {-1} | {n - d for n in landings for d in (0, 1)}


@pytest.mark.parametrize("P, D, Q", [(-1, 5, 2), (-7, 61, 1), (2, 3, 5), (3, 2, 7), (5, 11, 9)])
def test_periodic_gamma2_matches_reversed_period_value(P, D, Q):
    # gamma_2 = (-1)^{K+1} / (zeta_{K+1} + 1/Z), where Z = [overline(reversed
    # period)] solves Z = (p Z + p')/(q Z + q') for the word's last two
    # convergents, and zeta_{K+1} comes from alpha and its convergents
    alpha = qi_normalize(P, 1, D, Q)
    pc = periodic_construction(alpha, 2)
    K, L = pc.preperiod, pc.period
    digits = quad_cf_digits(P, D, Q, K + 1 + L)
    (p0, q0), (p1, q1) = ([(1, 0)] + convergent_pairs(digits[K + 1:][::-1]))[-2:]
    z = qi_normalize(p1 - q0, 1, (q0 - p1) ** 2 + 4 * q1 * p0, 2 * q1)
    (pk0, qk0), (pk1, qk1) = ([(1, 0)] + convergent_pairs(digits[: K + 1]))[-2:]
    zeta = (pk0 - qk0 * alpha) / (qk1 * alpha - pk1)
    assert pc.gamma2 == (-1) ** (K + 1) / (zeta + 1 / z)


def test_periodic_integrality():
    for alpha in (INV_PHI, SQRT2_M1, qi_normalize(-1, 1, 3, 2)):
        pc = periodic_construction(alpha, 4)
        a, b, _ = minimal_polynomial(alpha)
        prod = (2 * a * alpha + b) * pc.gamma2
        assert isinstance(prod, Fraction) and prod.denominator == 1


def test_periodic_construction_rejects():
    with pytest.raises(NotPeriodic):
        periodic_construction(Fraction(3, 7), 3)
    with pytest.raises(ValueError):
        periodic_construction(PHI, 3)


def test_quad_detect_roundtrip_golden():
    aset = conic_orbit(GOLDEN_FORM, (2, 1), 6)
    form = quad_detect(aset.pairs)
    assert (form.a, form.b, form.c, form.d) == (1, -1, -1, 1)


def test_quad_detect_rejects_line():
    assert quad_detect(line_set(3, 7, 1, 8).pairs) is None
    with pytest.raises(InsufficientPairs):
        quad_detect([(1, 1), (2, 3), (5, 8), (13, 21)])


def test_quad_detect_periodic_cross_module():
    pc = periodic_construction(INV_PHI, 8)
    form = quad_detect(pc.aset.pairs)
    assert (form.a, form.b, form.c) == minimal_polynomial(INV_PHI)
    d_val = (2 * form.a * INV_PHI + form.b) * pc.gamma2
    assert d_val == Fraction(form.d)


def test_quad_detect_random_forms_roundtrip():
    rng = random.Random(17)
    hits = 0
    while hits < 25:
        a = rng.randint(1, 10)
        b = rng.randint(-10, 10)
        c = rng.randint(-10, 10)
        d = rng.randint(-20, 20)
        if c >= 0 or gcd(gcd(a, abs(b)), abs(c or 1)) != 1:
            continue
        disc = b * b - 4 * a * c
        if disc <= 0 or isqrt(disc) ** 2 == disc or gcd(gcd(a, abs(b)), abs(c)) != 1:
            continue
        form = ConicForm(a, b, c, d)
        seed = find_seed(form, 80)
        if seed is None:
            continue
        try:
            aset = conic_orbit(form, seed, 6)
        except Exception:
            continue
        got = quad_detect(aset.pairs)
        assert got is not None
        assert (got.a, got.b, got.c, got.d) == (a, b, c, d)
        hits += 1


def test_detect_line_on_conic_counterpart():
    aset = conic_orbit(GOLDEN_FORM, (2, 1), 8)
    assert detect_line(aset.pairs) is None


def test_orbit_leaves_quadrant():
    from ratapprox.errors import OrbitLeavesQuadrant

    # both roots of r^2 + 3rs + s^2 are negative, so the N^2 orbit of (1,1)
    # is finite and iteration must refuse rather than emit negative pairs
    form = ConicForm(1, 3, 1, 5)
    assert form.value(1, 1) == 5
    with pytest.raises(OrbitLeavesQuadrant):
        conic_orbit(form, (1, 1), 4)


def test_library_invariants_survive_optimized_mode():
    # each internal check of conic and exactnum, broken on purpose, still
    # raises InvariantViolation when `python -O` strips assert statements
    src = os.path.dirname(os.path.dirname(os.path.abspath(ratapprox.__file__)))
    code = (
        "import math\n"
        "from ratapprox import conic, exactnum\n"
        "from ratapprox.conic import Automorph, ConicForm\n"
        "from ratapprox.errors import InvariantViolation\n"
        "from ratapprox.exactnum import QuadIrr\n"
        "def probe(fn, *args):\n"
        "    try:\n"
        "        fn(*args)\n"
        "        print('accepted')\n"
        "    except InvariantViolation as exc:\n"
        "        print(type(exc).__name__)\n"
        "print(__debug__)\n"
        # raw QuadIrrs over the square D = 4 are rational: 3 + sqrt(4), sqrt(4) + 1/2
        "probe(QuadIrr(3, 1, 4, 1).inverse)\n"
        "probe(exactnum.qi_shift_half, QuadIrr(0, 1, 4, 1))\n"
        "conic.gcd = lambda a, b: 3\n"
        "probe(conic.minimal_polynomial, exactnum.qi_normalize(-1, 1, 5, 2))\n"
        "conic.gcd = math.gcd\n"
        "form = ConicForm(1, 0, -2, -1)\n"
        "real_pell4, conic.pell4 = conic.pell4, lambda delta: (7, 2)\n"
        "probe(conic.fundamental_automorph, form)\n"
        "conic.pell4 = lambda delta: (8, 2)\n"
        "probe(conic.fundamental_automorph, form)\n"
        "conic.pell4 = real_pell4\n"
        # the period of sqrt(2) in place of sqrt(94)'s gives a unit of the
        # wrong field, which solves no t^2 - 94u^2 = 4
        "real_ctx = conic.CFContext\n"
        "conic.CFContext = lambda alpha, depth=1: real_ctx(exactnum.qi_normalize(0, 1, 2, 1), depth)\n"
        "probe(conic.pell4, 94)\n"
        "conic.CFContext = real_ctx\n"
        "conic.fundamental_automorph = lambda form: Automorph(2, 1, 1, 1)\n"
        "probe(conic.conic_orbit, form, (1, 1), 3)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert out == ["False"] + ["InvariantViolation"] * 7
