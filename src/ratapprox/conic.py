"""Quadratic-irrational machinery: minimal polynomials, Pell-type conic
orbits under the fundamental automorph, the exact Laurent expansion of the
numerator as a function of the denominator, the periodic-expansion route to
second-order coefficients, and conic detection from raw pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .approx import (DEFAULT_PREFIX_EXCEPTIONS, DEFAULT_REL_TOLERANCE, DEFAULT_WINDOW,
                     ApproxSet, verify_order)
from .cf import CFContext
from .errors import InsufficientPairs, InvariantViolation, NotPeriodic, OrbitLeavesQuadrant
from .exactnum import ByValue, QuadIrr, Record, enclose, int_str, kind_of, qi_normalize, qi_pair


class ConicForm(ByValue):
    """Primitive integer form a*r^2 + b*r*s + c*s^2 at level d.

    gcd(a, b, c) = 1, a > 0, and the discriminant b^2 - 4ac is positive and
    not a perfect square, so the form has an irrational quadratic root.
    Immutable by convention, compared and hashed by value.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int = 0):
        if a <= 0:
            raise ValueError("leading coefficient must be positive")
        if gcd(gcd(a, abs(b)), abs(c)) != 1:
            raise ValueError("form must be primitive")
        disc = b * b - 4 * a * c
        if disc <= 0 or isqrt(disc) ** 2 == disc:
            raise ValueError("discriminant must be positive and non-square")
        super().__init__(a, b, c, d)

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, r: int, s: int) -> int:
        return self.a * r * r + self.b * r * s + self.c * s * s

    def root(self) -> QuadIrr:
        """alpha = (-b + sqrt(disc)) / (2a), the orbit's limit slope."""
        return qi_normalize(-self.b, 1, self.disc, 2 * self.a)

    def to_json(self) -> dict:
        return {k: int_str(getattr(self, k)) for k in ("a", "b", "c", "d")}


class Automorph(ByValue):
    """Unimodular integer substitution (r, s) -> (t11 r + t12 s, t21 r + t22 s)
    preserving a binary quadratic form.  Immutable by convention, compared
    and hashed by value."""

    __slots__ = ("t11", "t12", "t21", "t22")

    def det(self) -> int:
        return self.t11 * self.t22 - self.t12 * self.t21

    def apply(self, pair: tuple[int, int]) -> tuple[int, int]:
        r, s = pair
        return self.t11 * r + self.t12 * s, self.t21 * r + self.t22 * s

    def preserves(self, form: ConicForm) -> bool:
        a, b, c = form.a, form.b, form.c
        a2 = a * self.t11**2 + b * self.t11 * self.t21 + c * self.t21**2
        b2 = (
            2 * a * self.t11 * self.t12
            + b * (self.t11 * self.t22 + self.t12 * self.t21)
            + 2 * c * self.t21 * self.t22
        )
        c2 = a * self.t12**2 + b * self.t12 * self.t22 + c * self.t22**2
        return (a2, b2, c2) == (a, b, c) and self.det() == 1


def minimal_polynomial(x: QuadIrr) -> tuple[int, int, int]:
    """Primitive (a, b, c), a > 0, with a*x^2 + b*x + c = 0 exactly."""
    a = x.Q * x.Q
    b = -2 * x.P * x.Q
    c = x.P * x.P - x.e * x.e * x.D
    g = gcd(gcd(a, abs(b)), abs(c))
    triple = (a // g, b // g, c // g)
    check = triple[0] * x * x + triple[1] * x + triple[2]
    if check != 0:
        raise InvariantViolation(f"{triple} is not a minimal polynomial of {x}")
    return triple


def pell4(delta: int) -> tuple[int, int]:
    """Fundamental solution (t, u) of t^2 - delta*u^2 = 4 with minimal u > 0.

    With d = delta, or 4*delta when delta = 2 or 3 (mod 4), the solutions
    are the units (t + u*sqrt(delta))/2 of Z[omega], omega = (d mod 2 +
    sqrt(d))/2.  omega's expansion is periodic from a_1 with period L, so
    zeta_1...zeta_L = 1/|D_{L-1}| = p_{L-1} - q_{L-1}*conj(omega) is the
    least unit above 1, of norm (-1)^L; its square when L is odd.
    """
    if delta <= 0 or isqrt(delta) ** 2 == delta:
        raise ValueError("delta must be positive and non-square")
    # d = f^2 * delta, and s = d mod 2
    f, s = (1, delta % 4) if delta % 4 < 2 else (2, 0)
    ctx = CFContext(qi_normalize(s, f, delta, 2))
    ell = ctx.period[1]
    p, q = ctx.p(ell - 1), ctx.q(ell - 1)
    # p - q*conj(omega) = (2p - s*q + f*q*sqrt(delta))/2
    t, u = 2 * p - s * q, f * q
    if ell % 2:
        t, u = (t * t + delta * u * u) // 2, t * u
    if u <= 0 or t * t - delta * u * u != 4:
        raise InvariantViolation(f"no Pell-4 solution located for delta={delta}")
    return t, u


def fundamental_automorph(form: ConicForm) -> Automorph:
    """Automorph ((t-bu)/2, -cu; au, (t+bu)/2) from the minimal (t, u)."""
    t, u = pell4(form.disc)
    if (t - form.b * u) % 2:
        raise InvariantViolation(f"t - b*u is odd for (t, u) = {(t, u)}")
    m = Automorph(
        (t - form.b * u) // 2,
        -form.c * u,
        form.a * u,
        (t + form.b * u) // 2,
    )
    if not m.preserves(form):
        raise InvariantViolation(f"{m} does not preserve {form}")
    return m


def find_seed(form: ConicForm, bound: int) -> tuple[int, int] | None:
    """Smallest (by s, then r) pair in N^2 with form value d, s <= bound."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    delta = form.disc
    for s in range(1, bound + 1):
        disc = delta * s * s + 4 * form.a * form.d
        if disc < 0:
            continue
        t = isqrt(disc)
        if t * t != disc:
            continue
        rs = sorted(
            (-form.b * s + sign * t) // (2 * form.a)
            for sign in (1, -1)
            if (-form.b * s + sign * t) % (2 * form.a) == 0
        )
        for r in rs:
            if r >= 1 and form.value(r, s) == form.d:
                return r, s
    return None


def conic_orbit(form: ConicForm, seed: tuple[int, int], count: int) -> ApproxSet:
    """`count` pairs from `seed` under the fundamental automorph (squared
    when a single step would leave N^2 or fail to grow the denominator)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    r0, s0 = seed
    if form.value(r0, s0) != form.d:
        raise ValueError(f"seed {seed} does not satisfy the form at level {form.d}")
    m = fundamental_automorph(form)
    pairs = [(r0, s0)]
    while len(pairs) < count:
        cur = pairs[-1]
        nxt = m.apply(cur)
        if not (nxt[0] >= 1 and nxt[1] > cur[1]):
            nxt = m.apply(nxt)
        if not (nxt[0] >= 1 and nxt[1] > cur[1]):
            raise OrbitLeavesQuadrant(f"iteration left N^2 at {nxt}")
        if form.value(*nxt) != form.d:
            raise InvariantViolation(f"orbit point {nxt} left level {form.d}")
        pairs.append(nxt)
    return ApproxSet(alpha=form.root(), pairs=pairs, order=0, gamma=[])


class LaurentExpansion(Record):
    """Exact coefficients of r/s = alpha + sum_j gamma_j s^-j on the conic.

    Only even j contribute: gamma_{2k} = (sqrt(disc)/(2a)) * C(1/2, k) *
    (4ad/disc)^k.  For s >= threshold_s the series terms shrink at least
    geometrically (ratio 1/2), giving tail_bound its validity.
    next_term_upper is a rational upper bound on |gamma_j| at j =
    next_term_j, the first even j past the coefficients returned.
    """

    __slots__ = ("form", "alpha", "gamma", "threshold_s", "next_term_j", "next_term_upper")

    def tail_bound(self, s: int) -> Fraction:
        if s < self.threshold_s:
            raise ValueError(f"tail bound valid only for s >= {self.threshold_s}")
        return 2 * self.next_term_upper * Fraction(1, s) ** self.next_term_j


def laurent_expansion(form: ConicForm, terms: int) -> LaurentExpansion:
    """gamma_1..gamma_terms of the orbit's Laurent series, exact in the field."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    delta = form.disc
    kappa = Fraction(4 * form.a * form.d, delta)
    nxt_j = terms + 1 if (terms + 1) % 2 == 0 else terms + 2
    binom = Fraction(1)  # C(1/2, k), updated multiplicatively
    kpow = Fraction(1)
    coeffs = {}
    for k in range(1, nxt_j // 2 + 1):
        binom *= Fraction(3 - 2 * k, 2 * k)
        kpow *= kappa
        coeffs[2 * k] = binom * kpow
    half_sqrt = Fraction(1, 2 * form.a)
    gamma = []
    for j in range(1, terms + 1):
        if j % 2 == 1:
            gamma.append(Fraction(0))
        else:
            gamma.append(qi_pair(Fraction(0), coeffs[j] * half_sqrt, delta))
    # smallest s >= 1 with |kappa|/s^2 <= 1/2, that is s^2 >= t = ceil(8|ad|/disc)
    t = -(-8 * abs(form.a * form.d) // delta)
    s_min = isqrt(t - 1) + 1 if t > 1 else 1
    nxt = coeffs[nxt_j]
    if nxt == 0:
        nxt_upper = Fraction(0)
    else:
        val = qi_pair(Fraction(0), abs(nxt) * half_sqrt, delta)
        nxt_upper = enclose(val, Fraction(1, 10**20)).hi
    return LaurentExpansion(form, form.root(), gamma, s_min, nxt_j, nxt_upper)


class PeriodicConstruction(Record):
    """Even-period convergent subsequence with its exact second-order term.

    `preperiod` is K in the [0; a_1..a_K, periodic] convention, `period`
    the period length L, and `report` verify_order's report on `aset`.
    """

    __slots__ = ("aset", "gamma2", "preperiod", "period", "report")


def periodic_construction(
    alpha: QuadIrr,
    count: int,
    window: int = DEFAULT_WINDOW,
    rel_tolerance: Fraction = DEFAULT_REL_TOLERANCE,
) -> PeriodicConstruction:
    """Pairs (p_{K+2kL}, q_{K+2kL}) for k = 1..count, with the exact
    gamma_2 = (-1)^{K+1} / (zeta_{K+1} + [0; overline(reversed period)]);
    the report is verify_order's with `window` and `rel_tolerance`.
    """
    if kind_of(alpha).name != "quad":
        raise NotPeriodic("periodic construction needs a quadratic irrational")
    if not (Fraction(0) < alpha < Fraction(1)):
        raise ValueError("alpha must lie in (0, 1)")
    if count < 1:
        raise ValueError("count must be >= 1")
    ctx = CFContext(alpha)
    k_word, ell = ctx.period
    k_pre = k_word - 1  # a_0 = 0 does not count toward the preperiod here
    # zeta_{K+1} is purely periodic, so by Galois' theorem [0; overline(
    # reversed period)] = -conj(zeta_{K+1}), and the sum is 2e*sqrt(D)/Q
    zeta = ctx.zeta(k_word)
    gamma2 = (-1) ** (k_pre + 1) / qi_normalize(0, 2 * zeta.e, zeta.D, zeta.Q)
    # each search lands on its index at once and keeps only (p, q) there
    indices = [ctx.first_index(k_pre + 2 * k * ell, lambda m, q: True)
               for k in range(1, count + 1)]
    pairs = [(ctx.p(n), ctx.q(n)) for n in indices]
    aset = ApproxSet(alpha=alpha, pairs=pairs, order=2, gamma=[Fraction(0), gamma2])
    report = verify_order(aset, window=window, rel_tolerance=rel_tolerance)
    return PeriodicConstruction(aset, gamma2, k_pre, ell, report)


def quad_detect(pairs,
                max_prefix_exceptions: int = DEFAULT_PREFIX_EXCEPTIONS) -> ConicForm | None:
    """Recover a primitive (a, b, c, d), a > 0, with a r^2 + b rs + c s^2 = d
    on a trailing run of the pairs; None when the exact rank-3 solve fails,
    the discriminant degenerates, or too many pairs disagree."""
    pairs = sorted(pairs, key=lambda p: p[1])
    if len(pairs) < 5:
        raise InsufficientPairs("need at least 5 pairs")
    rows = [(r * r, r * s, s * s, -1) for r, s in pairs[-3:]]
    # the signed 3x3 minors span the kernel of the rank-3 rows, and all
    # vanish exactly when the rank is below 3
    vec = [(-1) ** j * _det3([row[:j] + row[j + 1:] for row in rows]) for j in range(4)]
    g = gcd(*vec)
    if g == 0:
        return None
    a, b, c, d = (x // g for x in vec)
    if a < 0 or (a == 0 and c < 0):
        a, b, c, d = -a, -b, -c, -d
    if a <= 0 or gcd(gcd(a, abs(b)), abs(c)) != 1:
        return None
    disc = b * b - 4 * a * c
    if disc <= 0 or isqrt(disc) ** 2 == disc:
        return None
    form = ConicForm(a, b, c, d)
    bad = [i for i, (r, s) in enumerate(pairs) if form.value(r, s) != d]
    if any(i >= max_prefix_exceptions for i in bad):
        return None
    return form


def _det3(m) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
