"""Independent reference implementations used only by the test suite.

Each oracle deliberately takes a different computational route from the
library code it checks (bisection instead of digit extraction, exhaustive
enumeration instead of greedy digits, series convolution instead of the
binomial product formula, brute force instead of continued fractions).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, isqrt

from ratapprox import exactnum
from ratapprox.cf import CFContext
from ratapprox.errors import GammaOnOrbit, OutOfRegime, PrecisionExhausted
from ratapprox.exactnum import (
    KINDS,
    Certified,
    QuadIrr,
    RatInterval,
    as_interval,
    kind_of,
    operand,
)
from ratapprox.ostrowski import DEFAULT_WIDTH


def minpoly_triple(x: QuadIrr) -> tuple[int, int, int]:
    """Primitive (a, b, c) with a*x^2 + b*x + c = 0 and a > 0."""
    from math import gcd

    a = x.Q * x.Q
    b = -2 * x.P * x.Q
    c = x.P * x.P - x.e * x.e * x.D
    g = gcd(gcd(a, abs(b)), abs(c))
    return a // g, b // g, c // g


def quad_floor(P: int, e: int, D: int, Q: int) -> int:
    """floor((P + e*sqrt(D))/Q) for Q > 0 and D not a square: the largest g
    with g*Q - P <= e*sqrt(D), each step decided by comparing squares,
    searched from an isqrt estimate."""

    def at_most(g: int) -> bool:  # g <= (P + e*sqrt(D))/Q
        r = g * Q - P
        if e > 0:
            return r <= 0 or r * r < e * e * D
        return r < 0 and r * r > e * e * D

    root = isqrt(e * e * D)
    g = (P + (root if e > 0 else -root)) // Q
    while not at_most(g):
        g -= 1
    while at_most(g + 1):
        g += 1
    return g


def poly_sign(triple: tuple[int, int, int], t: Fraction) -> int:
    a, b, c = triple
    v = a * t * t + b * t + c
    return (v > 0) - (v < 0)


def bisect_enclose(x: QuadIrr, width: Fraction) -> RatInterval:
    """Bracket x by bisection on its minimal polynomial."""
    triple = minpoly_triple(x)
    lo = Fraction(x.floor())
    hi = lo + 1
    s_lo = poly_sign(triple, lo)
    if s_lo == 0:  # endpoint hit the conjugate root's side; nudge
        lo -= Fraction(1, 7)
        s_lo = poly_sign(triple, lo)
    if s_lo == 0 or poly_sign(triple, hi) == 0:
        raise AssertionError(f"bisection endpoint of {x!r} is a root")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if poly_sign(triple, mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return RatInterval(lo, hi)


def cf_value(digits: list[int]) -> Fraction:
    """Exact value of a finite simple continued fraction."""
    v = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        v = a + 1 / v
    return v


def euclid_cf(p: int, q: int) -> list[int]:
    """Continued fraction of p/q by the Euclidean algorithm."""
    out = []
    while q:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    return out


def enumerate_ostrowski_values(q: list[int], a: list[int], s_max: int):
    """All admissible digit strings with value <= s_max, keyed by value.

    q[n] are convergent denominators, a[n] the partial quotients of the
    underlying expansion (a[0] unused).  Digit c[n] multiplies q[n]; the
    admissibility rules are c[0] < a[1], c[n] <= a[n+1], and c[n] = a[n+1]
    forces c[n-1] = 0.  Raises AssertionError on duplicate values, also under
    python -O, so a clean return is itself the uniqueness statement.
    """
    top = 0
    while top + 1 < len(q) and q[top + 1] <= s_max:
        top += 1
    found: dict[int, tuple[int, ...]] = {}

    def descend(n: int, value: int, digits: list[int], force_zero: bool):
        if n < 0:
            key = value
            if key in found:
                raise AssertionError(f"duplicate representation of {key}")
            found[key] = tuple(reversed(digits))
            return
        cap = 0 if force_zero else (a[1] - 1 if n == 0 else a[n + 1])
        for c in range(cap + 1):
            v = value + c * q[n]
            if v > s_max:
                break
            digits.append(c)
            descend(n - 1, v, digits, c == (a[n + 1] if n >= 1 else a[1]))
            digits.pop()

    descend(top, 0, [], False)
    return found


def brute_pell4(delta: int, u_max: int = 20000) -> tuple[int, int] | None:
    """Minimal-u solution of t^2 - delta*u^2 = 4 by exhaustive search.

    Returns None when the fundamental solution lies beyond u_max.
    """
    for u in range(1, u_max + 1):
        t2 = 4 + delta * u * u
        t = isqrt(t2)
        if t * t == t2:
            return t, u
    return None


def sqrt_series_coeffs(kappa: Fraction, terms: int) -> list[Fraction]:
    """Power-series coefficients of sqrt(1 + kappa*u) by term matching.

    Solves sum_{i+k=j} c_i c_k = [j==0] + kappa*[j==1] for c_j, which is a
    different route from the closed binomial product formula.
    """
    c = [Fraction(1)]
    for j in range(1, terms + 1):
        rhs = kappa if j == 1 else Fraction(0)
        conv = sum(c[i] * c[j - i] for i in range(1, j))
        c.append((rhs - conv) / 2)
    return c


def laurent_threshold_by_scan(a: int, d: int, disc: int) -> int:
    """Least s >= 1 with disc*s^2 >= 8|a*d|, by counting s up from 1."""
    s = 1
    while disc * s * s < 8 * abs(a * d):
        s += 1
    return s


def surd_coords(x, D: int) -> tuple[Fraction, Fraction]:
    """(u, v) with x = u + v*sqrt(D), read off a QuadIrr's fields or a rational."""
    if isinstance(x, QuadIrr):
        return Fraction(x.P, x.Q), Fraction(x.e, x.Q)
    return Fraction(x), Fraction(0)


def surd_arith(op: str, x, y, D: int) -> tuple[Fraction, Fraction]:
    """(u, v) of x op y, op one of + - * /, by coordinate arithmetic in the
    basis (1, sqrt(D)) with no normalization; D squarefree > 1."""
    (a, b), (c, d) = surd_coords(x, D), surd_coords(y, D)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c + b * d * D, a * d + b * c
    # (a + b*r)/(c + d*r) = (a + b*r)(c - d*r)/(c^2 - d^2*D), r = sqrt(D)
    norm = c * c - d * d * D
    return (a * c - b * d * D) / norm, (b * c - a * d) / norm


def quad_cf_digits(P: int, D: int, Q: int, count: int) -> list[int]:
    """The first `count` partial quotients of (P + sqrt(D))/Q, for Q != 0 and
    D not a square, read off the Euclidean expansions of two rationals that
    bracket it rather than from the complete-quotient recurrence."""
    k = 2 * count + 8
    while True:
        m = 10**k
        r = isqrt(D * m * m)  # r < sqrt(D)*m < r + 1
        lo = euclid_cf(P * m + r, Q * m)
        hi = euclid_cf(P * m + r + 1, Q * m)
        common = 0
        while common < min(len(lo), len(hi)) and lo[common] == hi[common]:
            common += 1
        # every real between the brackets shares their common prefix
        if common > count:
            return lo[:count]
        k *= 2


def eventual_period(digits: list[int]) -> tuple[int, int]:
    """Least (K, L), least L first, with digits[i] == digits[i + L] for all
    K <= i < len(digits) - L and K <= len(digits) // 2, by brute force.

    For the digits of a number whose expansion has minimal period (K0, L0)
    this is (K0, L0) once len(digits) >= 2*(K0 + 2*L0): a smaller L would
    share a stretch of at least L0 + L digits with L0, so by Fine and Wilf
    gcd(L, L0) < L0 would be a period too."""
    n = len(digits)
    for ell in range(1, n // 4 + 1):
        k = n - ell
        while k > 0 and digits[k - 1] == digits[k - 1 + ell]:
            k -= 1
        if k <= n // 2:
            return k, ell
    raise ValueError("no period shows in the window")


def convergent_pairs(digits: list[int]) -> list[tuple[int, int]]:
    """(p_n, q_n) for n = 0..len(digits)-1 by the three-term recurrence."""
    out = []
    p_prev, q_prev, p, q = 0, 1, 1, 0  # (p_-2, q_-2), (p_-1, q_-1)
    for a in digits:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out


def reference_real_digits(gamma, ctx, depth: int, precision_digits: int = 200):
    """(b, remainder) of gamma over the basis D_n by the step rule
    b = max(0, ceil((rem + D_{n+1}) / D_n)), computed on QuadIrr and
    Fraction values for a quadratic alpha and exact gamma, and on RatInterval
    enclosures of width 10**-precision_digits otherwise; the remainder is
    exact on the first route and an interval on the second.

    Raises GammaOnOrbit on a cell-boundary tie and PrecisionExhausted when
    the enclosures cannot decide a digit, with the library's messages; no
    orbit pre-check.  Ratapprox's integer kernels must agree with it.
    """
    exact = isinstance(ctx.alpha, QuadIrr) and not isinstance(gamma, Certified)
    width = Fraction(1, 10**precision_digits)
    if exact:
        if not (-ctx.D(0) <= gamma):
            raise ValueError("gamma below -alpha")
        if not (gamma < 1 - ctx.D(0)):
            raise ValueError("gamma not below 1 - alpha")
        rem = gamma
    else:
        rem = as_interval(gamma, width)
    digits = []
    prev_nonzero = True
    for n in range(depth):
        if exact:
            ratio = (rem + ctx.D(n + 1)) / ctx.D(n)
            b = max(0, -floor(-ratio))
            cap = ctx.a(n + 1) - (1 if prev_nonzero else 0)
            tie = isinstance(ratio, Fraction) and ratio.denominator == 1 and ratio >= 0
            if tie and b + 1 <= cap:
                raise GammaOnOrbit(
                    f"remainder hits a cell boundary at position {n}: two expansions exist"
                )
            if b > cap:
                raise AssertionError(f"digit {b} at {n} exceeds cap {cap}")
            if b:
                rem = rem - b * ctx.D(n)
            # rem stays between -D_{n+1} and -D_n, less D_{n+1} after a digit
            ends = [-ctx.D(n + 1), -ctx.D(n) - (ctx.D(n + 1) if b else 0)]
            if not min(ends) <= rem <= max(ends):
                raise AssertionError(f"remainder left T at {n}")
        else:
            dn, dn1 = as_interval(ctx.D(n), width), as_interval(ctx.D(n + 1), width)
            if dn.lo <= 0 <= dn.hi:
                raise PrecisionExhausted(f"D_{n} enclosure straddles zero")
            ratio = (rem + dn1) / dn
            b = ceil(ratio.lo)
            if b != ceil(ratio.hi):
                raise PrecisionExhausted(f"digit at position {n} undecidable")
            b = max(0, b)
            cap = ctx.a(n + 1) - (1 if prev_nonzero else 0)
            if b > cap:
                raise PrecisionExhausted(f"digit at position {n} exceeds cap {cap}")
            if b:
                rem = rem - dn * b
        digits.append(b)
        prev_nonzero = b > 0
    return digits, rem


def real_digits_partial(d, ctx):
    """Exact value of the truncated sum over the first `depth` digits."""
    total = Fraction(0)
    for n, b in enumerate(d.b):
        if b:
            total = b * ctx.D(n) + total
    return total


def dist_formula_terms(profile, ctx) -> list:
    """Per-term values of the paper's alternating form
    (-1)^n delta_{n+1} / (q_n (zeta_{n+1} + xi_n)) for n in [m, depth).

    Each term equals delta_{n+1} * D_n exactly; summing them and correcting
    by the stored remainder reproduces ostrowski.dist_formula.  Exact
    targets only, in the regime m >= 4.
    """
    m = profile.m
    if m is None or m < 4:
        raise OutOfRegime(f"m = {m} is outside the series regime")
    terms = []
    for n in range(m, profile.depth):
        d = profile.delta[n]
        if not d:
            terms.append(Fraction(0))
            continue
        denom = (ctx.zeta(n + 1) + ctx.xi(n)) * ctx.q(n)
        terms.append(((-1) ** n * d) / denom)
    return terms


def dist_bound_reference(profile, ctx) -> Fraction:
    """(|delta_{m+1}| + 2) * ||q_m alpha|| bounded by the upper end of
    |D_m|'s RatInterval enclosure at ostrowski.DEFAULT_WIDTH, in the regime
    m >= 4; ratapprox reads the same bound off integer numerators."""
    m = profile.m
    if m is None or m < 4:
        raise OutOfRegime(f"m = {m} is outside the series regime")
    return (abs(profile.delta[m]) + 2) * abs(as_interval(ctx.D(m), DEFAULT_WIDTH)).hi


def _exp_fixed_fraction(n: int, f: Fraction, prec: int, up: bool) -> Fraction:
    """Bound on exp(n + f) for 0 <= f < 1, as the Fraction the library
    formed before its fixed-point values stayed (m, e) pairs."""
    base, base_e = exactnum._e_fixed(prec, up), -prec
    m, e = 1, 0
    while n:
        if n & 1:
            m, e = exactnum._round_fixed(m * base, e + base_e, prec, up)
        n >>= 1
        if n:
            base, base_e = exactnum._round_fixed(base * base, 2 * base_e, prec, up)
    if f:
        m, e = exactnum._round_fixed(
            m * exactnum._exp_taylor_fixed(f.numerator, f.denominator, prec, up),
            e - prec, prec, up)
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def exp_bounds_reference(x: Fraction, digits: int) -> RatInterval:
    """The enclosure of exp(x) at `digits` by the library's former Fraction
    route: the reduced fractional part f = x - n enters the Taylor sum, each
    bound is a Fraction, and a negative x takes reciprocals of the interval
    of -x.  A regression reference, not an independent oracle: it runs the
    kernel's own _e_fixed, _round_fixed and _exp_taylor_fixed, so it pins
    exactnum.exp_dyadic_ends' ends bit for bit but cannot judge them;
    exp_le_reference and mpmath's enclosures do that."""
    x = Fraction(x)
    if x < 0:
        pos = exp_bounds_reference(-x, digits)
        return RatInterval(1 / pos.hi, 1 / pos.lo)
    n = x.numerator // x.denominator
    f = x - n
    guard = digits + len(str(n + 1)) + 8
    prec = (guard * 3322) // 1000 + 1 + 2 * n.bit_length()
    return RatInterval(_exp_fixed_fraction(n, f, prec, False),
                       _exp_fixed_fraction(n, f, prec, True))


def exp_le_reference(x, bound) -> bool:
    """exp(x) <= bound for rationals x and bound, decided as x <= ln(bound)
    by mpmath interval logarithms, doubling the precision until the interval
    of ln(bound) - x excludes 0.  exp(0) = 1 is the only rational value of
    exp at a rational, so only x = 0 can meet its bound, and it is compared
    exactly."""
    from mpmath import iv

    x, bound = Fraction(x), Fraction(bound)
    if bound <= 0:
        return False
    if x == 0:
        return bound >= 1
    saved, prec = iv.prec, 64 + 4 * x.numerator.bit_length()
    try:
        while prec < 1 << 24:
            iv.prec = prec
            gap = (iv.log(iv.mpf(bound.numerator) / bound.denominator)
                   - iv.mpf(x.numerator) / x.denominator)
            if gap.a > 0:
                return True
            if gap.b < 0:
                return False
            prec *= 2
    finally:
        iv.prec = saved
    raise ArithmeticError("exp comparison undecided")


def sqrt_bounds(n: int, scale_digits: int) -> RatInterval:
    """Enclosure of sqrt(n) of width 10**-scale_digits, from one isqrt: a
    point when n * 10**(2*scale_digits) is a square."""
    m = 10**scale_digits
    r = isqrt(n * m * m)
    if r * r == n * m * m:
        return RatInterval.point(Fraction(r, m))
    return RatInterval(Fraction(r, m), Fraction(r + 1, m))


def pair_value(pair):
    """The Fraction head + 10**-b of a bound pair (head, b), head for b None;
    None for None."""
    if pair is None:
        return None
    head, b = pair
    return head if b is None else head + Fraction(1, 10**b)


def gamma_interval(cons) -> RatInterval:
    """The Psi construction's enclosure of gamma: gamma_partial enclosed to
    10**-40 (as PsiConstruction.gamma_interval_ends encloses it), widened by
    the formed tail on both sides."""
    base, tail = as_interval(cons.gamma_partial, Fraction(1, 10**40)), pair_value(cons.tail)
    return RatInterval(base.lo - tail, base.hi + tail)


def psi_certificate_reference(cons, digit_budget: int):
    """The tail and each certificate line's (route, ok, bound) of the Psi
    construction `cons`, as exact Fractions recomputed with the tail 10**-b
    formed: the route approx._package took before it kept b apart.  Psi
    comparisons are the plain ones on the formed sum: exp_le_reference for
    the exp family, a Fraction comparison for the others."""
    ctx, psi, indices = CFContext(cons.alpha), cons.psi, cons.indices
    s_list = [sum(ctx.q(n) for n in indices[:k]) for k in range(1, len(indices) + 1)]
    t_last = ctx.q(indices[-1] + 1)
    if cons.n_next is not None:
        tail = 2 * ctx.d_abs_upper(cons.n_next)
    elif psi.exact_value(t_last) is not None:
        tail = Fraction(2, 3) * psi.exact_value(t_last)
    else:
        tail = Fraction(1, 10**psi.tail_pair(t_last, digit_budget)[1])
    lines = []
    for k, s_k in enumerate(s_list, start=1):
        next_idx = indices[k] if k < len(indices) else cons.n_next
        if next_idx is None or not psi.numeric_feasible(s_k):
            lines.append(("monotone", s_k <= ctx.q(indices[k - 1] + 1), None))
            continue
        cap = Fraction(3, ctx.q(next_idx + 1))
        head = sum((ctx.d_abs_upper(n) for n in indices[k:]), Fraction(0))
        bound = min(cap, head + tail)
        exact = psi.exact_value(s_k)
        ok = bound <= exact if exact is not None else exp_le_reference(psi.c * s_k, 1 / bound)
        lines.append(("numeric", ok, bound))
    return tail, lines


# the largest argument c*s at which the checker below decides exp(-c*s),
# the library's own reach for a numeric certificate line
_EXP_REACH = 2 * 10**6


def _psi_le(psi: dict, v: Fraction, s: int) -> bool | None:
    """v <= Psi(s) for the printed psi of a build-psi document; None when
    Psi(s) is out of reach (an exp argument past _EXP_REACH, or a table
    without a row at or below s)."""
    if v <= 0:
        return True
    if psi["family"] == "power":
        return v * s ** psi["k"] <= 1
    if psi["family"] == "rational_table":
        values = [Fraction(value) for row, value in psi["rows"] if int(row) <= s]
        return v <= values[-1] if values else None
    x = Fraction(psi["c"]) * s
    return exp_le_reference(x, 1 / v) if x <= _EXP_REACH else None


def _relative_enclosure(x) -> RatInterval:
    """An enclosure of the exact value x > 0 whose width is at most a
    millionth of its lower end, however small x is."""
    digits = 20
    while True:
        iv = as_interval(x, Fraction(1, 10**digits))
        if iv.lo > 0 and iv.width * 10**6 <= iv.lo:
            return iv
        digits *= 2


def check_psi_document(doc: dict) -> tuple[bool, list[str]]:
    """Check a build-psi document from what it prints alone: alpha, psi, s,
    gamma's partial sum, tail_bound, interval and the certificate, read back
    without the construction.  gamma = partial + tau with |tau| <=
    tail_bound = t, so for each line the distance d_k = ||s_k alpha -
    partial|| puts ||s_k alpha - gamma|| in [d_k - t, d_k + t].

    Returns whether the printed interval holds [partial - t, partial + t],
    and each line's status:
    - "checked": d_k + t <= Psi(s_k), so the line holds whatever the tail;
    - "failed": the printed bound is below d_k - t, or the line says ok and
      d_k - t exceeds Psi(s_k);
    - "construction": d_k = 0 (the last line, where s_K alpha - partial is
      an integer), Psi(s_k) is out of reach, or d_k +- t straddle it; the
      line rests on the construction's own argument.
    d_k is enclosed to a width relative to its size, since it can be as
    small as 10**-7693.
    """
    def decode(value: dict):
        return KINDS[value["kind"]].decode(value["value"])

    alpha, partial = operand(decode(doc["alpha"])), operand(decode(doc["gamma"]["partial"]))
    t = Fraction(doc["gamma"]["tail_bound"])
    ends = doc["gamma"]["interval"]
    low, high = (partial.lo, partial.hi) if isinstance(partial, RatInterval) else (partial, partial)
    contains = Fraction(ends["lo"]) <= low - t and high + t <= Fraction(ends["hi"])
    statuses = []
    for line in doc["certificate"]:
        s = int(line["s"])
        x = alpha * s - partial
        if not kind_of(x).exact:
            dist = x.dist_to_nearest_int()
        elif x == round(x):
            statuses.append("construction")
            continue
        else:
            dist = _relative_enclosure(abs(x - round(x)))
        lower, upper = dist.lo - t, dist.hi + t
        if line["bound"] is not None and Fraction(line["bound"]) < lower:
            statuses.append("failed")
        elif _psi_le(doc["psi"], upper, s):
            statuses.append("checked")
        elif line["ok"] and _psi_le(doc["psi"], lower, s) is False:
            statuses.append("failed")
        else:
            statuses.append("construction")
    return contains, statuses


def quad_digits(alpha: QuadIrr, count: int) -> list[int]:
    """a_0..a_{count-1} of a quadratic alpha: 200 bracketed digits
    (quad_cf_digits) continued by their eventual period, which Lagrange's
    theorem makes the period of the whole expansion."""
    P, e, D, Q = alpha.P, alpha.e, alpha.D, alpha.Q
    if e < 0:
        P, e, Q = -P, -e, -Q
    head = quad_cf_digits(P, e * e * D, Q, 200)
    K, L = eventual_period(head)
    return [head[n] if n < len(head) else head[K + (n - K) % L] for n in range(count)]


def admissible(digits: list[int], a: list[int]) -> bool:
    """The Ostrowski digit rules over the partial quotients a: 0 <= c[0] <
    a[1], 0 <= c[n] <= a[n+1], and c[n] = a[n+1] forces c[n-1] = 0."""
    for n, c in enumerate(digits):
        if c < 0 or c > a[n + 1] or (n == 0 and c == a[1]):
            return False
        if n and c == a[n + 1] and digits[n - 1]:
            return False
    return True


def _surd_sign(u: Fraction, v: Fraction, D: int) -> int:
    """Sign of u + v*sqrt(D), D not a square, by comparing squares."""
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if su == sv or not sv:
        return su
    if not su:
        return sv
    return su if u * u > v * v * D else sv


def _surd_enclosure(u: Fraction, v: Fraction, D: int, k: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= u + v*sqrt(D) <= hi, hi - lo = 1/(den(v)*10**k), from
    one isqrt."""
    vn, vd = v.numerator, v.denominator
    r = isqrt(vn * vn * D * 10 ** (2 * k))  # r <= |vn|*sqrt(D)*10**k < r + 1
    lo, hi = (r, r + 1) if vn >= 0 else (-r - 1, -r)
    return u + Fraction(lo, vd * 10**k), u + Fraction(hi, vd * 10**k)


def _decode_interval(doc: dict) -> tuple[Fraction, Fraction]:
    return Fraction(doc["lo"]), Fraction(doc["hi"])


def check_ostrowski_real_document(doc: dict, alpha: QuadIrr, gamma) -> list[str]:
    """The failures of an ostrowski-real document (empty when it checks out),
    from what it prints and the inputs alone: alpha in (0, 1) quadratic,
    gamma rational, in alpha's field, or inexact (its enclosure).

    - The digits are admissible over alpha's partial quotients, taken from
      quad_digits, not from the library.
    - gamma - sum b_n D_n lies in the printed tail_bound, decided exactly in
      the basis (1, sqrt(D)): sum b_n D_n = U*alpha - V with U = sum b_n q_n
      and V = sum b_n p_n over convergent_pairs.  For an inexact gamma both
      ends of its enclosure must lie in partial + tail_bound."""
    b, D = doc["digits"], alpha.D
    failures = []
    if len(b) != doc["depth"]:
        failures.append(f"{len(b)} digits at depth {doc['depth']}")
    a = quad_digits(alpha, len(b) + 1)
    if not admissible(b, a):
        failures.append("digits not admissible")
    pairs = convergent_pairs(a[:len(b)])
    U = sum(d * q for d, (p, q) in zip(b, pairs))
    V = sum(d * p for d, (p, q) in zip(b, pairs))
    au, av = surd_coords(alpha, D)
    lo, hi = _decode_interval(doc["tail_bound"])
    if kind_of(gamma).exact:
        ends = [gamma]
    else:
        iv = operand(gamma)
        ends = [iv.lo, iv.hi]
    for g in ends:
        gu, gv = surd_coords(g, D)
        # r = gamma - partial = (gu - U*au + V) + (gv - U*av)*sqrt(D)
        ru, rv = gu - U * au + V, gv - U * av
        if _surd_sign(ru - lo, rv, D) < 0 or _surd_sign(ru - hi, rv, D) > 0:
            failures.append("gamma - sum b_n D_n is outside tail_bound")
    return failures


def check_dist_document(doc: dict, alpha: QuadIrr, gamma, s: int) -> list[str]:
    """The failures of a dist document (empty when it checks out) for a
    quadratic alpha and an exact gamma (rational or in alpha's field).

    The distance ||s*alpha - gamma|| is enclosed from isqrt at 10**-k,
    with no library arithmetic, and k doubles until the enclosure decides
    each claim: the direct and formula intervals contain it, and the bound,
    when printed, is at least it."""
    D = alpha.D
    (au, av), (gu, gv) = surd_coords(alpha, D), surd_coords(gamma, D)
    u, v = s * au - gu, s * av - gv  # s*alpha - gamma = u + v*sqrt(D)
    claims = [("direct", _decode_interval(doc["direct"]))]
    if doc["formula"] is not None:
        claims.append(("formula", _decode_interval(doc["formula"])))
    if doc["bound"] is not None:
        claims.append(("bound", (Fraction(0), Fraction(doc["bound"]))))
    failures = []
    k = 40 + s.bit_length() * 3 // 10  # past the digits of s
    while claims:
        xl, xh = _surd_enclosure(u, v, D, k) if v else (u, u)
        f = floor(xl)
        if floor(xh) == f and not xl <= f + Fraction(1, 2) <= xh or xl == xh:
            # the distance to the nearest integer is monotone on [xl, xh]
            ends = [min(x - f, f + 1 - x) for x in (xl, xh)]
            dl, dh = min(ends), max(ends)
            undecided = []
            for name, (lo, hi) in claims:
                if lo <= dl and dh <= hi:
                    continue
                if dh < lo or hi < dl or xl == xh:
                    failures.append(f"{name} misses the distance")
                else:
                    undecided.append((name, (lo, hi)))
            claims = undecided
        if k > 10**5:
            failures += [f"{name} undecided at 10**-{k}" for name, _ in claims]
            break
        k *= 2
    return failures
