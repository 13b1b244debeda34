"""Ostrowski numeration: expansions of integers over the q_n basis and of
real numbers over the signed basis D_n = q_n*alpha - p_n, plus the exact
machinery for distances ||s*alpha - gamma|| to the nearest integer.

Digit admissibility (shared by both expansions): 0 <= c_1 < a_1,
0 <= c_{n+1} <= a_{n+1}, and c_{n+1} = a_{n+1} forces c_n = 0.

Real-digit extraction works on the remainder rem_n = gamma - sum_{k<n} b_k D_k.
Writing T(N) for the value range of admissible tails starting at position N
(with the previous digit's constraint folded in), the feasible digit at
each step is pinned by

    b_n = ceil((rem_n + D_{n+1}) / D_n),

clamped at 0; a remainder landing exactly on a cell boundary means gamma has
two admissible expansions, which happens precisely on the forbidden orbit
gamma = s*alpha (mod 1), and raises GammaOnOrbit.

Exact targets (quadratic alpha, gamma in its field) run on the scaled
remainder t_n = rem_n / D_n.  With zeta_k = (P_k + sqrt(E))/Q_k the integer
complete-quotient states (CFContext.zeta_state), D_{n+1}/D_n = -1/zeta_{n+2}
= -(sqrt(E) - P_{n+2})/Q_{n+1}, so

    b_n = max(0, ceil(t_n - 1/zeta_{n+2})),    t_{n+1} = -(t_n - b_n) * zeta_{n+2},

from t_0 = gamma/alpha = gamma*zeta_1 (a_0 = 0).  t_n is kept as
(u + v*sqrt(E))/w in lowest terms with w > 0, the digit is one surd_floor
and each range check is a sign of such a number.  The states take
finitely many values:

  * Both embeddings of t_n are bounded.  rem_n lies in T(n), between -D_n
    and -D_{n-1} (less D_n after a nonzero digit), so t_n lies between -1
    and zeta_{n+1} and |t_n| < max a_k + 2.  For the conjugates x -> x',
    |D_n'| >= q_n*|alpha - alpha'| - 1, while |rem_n'| <= |gamma'| +
    sum_{k<n} b_k*|D_k'| grows at most like q_n, because admissible digits
    have sum_{k<n} b_k*q_k < q_n; so |t_n'| is bounded too, by about
    |gamma'|/q_n plus a constant.
  * t_n lies in a fixed lattice.  rem_n is in the Z-module
    M = Z + Z*alpha + Z*gamma, and 1/D_n = D_n'/N(D_n), where
    D_n' is in (1/A)*Z[alpha] and A*N(D_n) = A*p_n^2 + B*p_n*q_n + C*q_n^2 is
    a nonzero integer of absolute value at most A*(|alpha - alpha'| + 1)
    (A*x^2 + B*x + C the minimal polynomial of alpha).  So t_n lies in
    (1/c)*M*Z[alpha] for one integer c, a lattice of R^2 under x -> (x, x').

A lattice meets a bounded box in finitely many points, so t_n takes
finitely many values: the inhomogeneous analogue of Lagrange's theorem.  A
step maps t_n, a_{n+1}, zeta_{n+1}, zeta_{n+2} and whether b_{n-1} != 0 to
b_n and t_{n+1}, and from n + 1 >= K, the start of alpha's digit period
(K, L), the three quotients depend only on the phase (n + 1 - K) mod L.
The first time the key (t_n, phase, b_{n-1} != 0) repeats, at n after m,
the digits and states from n on copy those from m on: the rest of the
digits are filled by the period n - m and t_depth is read off the history.
The jump is correct because each step is deterministic; finiteness only
says that it fires.  The exact remainder t_depth * D_depth is formed once,
at the end.

Certified targets run on integers too: the remainder and the memoized D_n
enclosures (CFContext.d_enclosures) are integer numerators over a common
denominator, and the digit is the ceiling of four endpoint quotients.  The
RatInterval remainder is built once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .cf import CFContext
from .errors import (
    GammaOnOrbit,
    InsufficientDepth,
    InvariantViolation,
    OutOfRegime,
    PrecisionExhausted,
    RationalTarget,
)
from .exactnum import (
    ByValue,
    QuadIrr,
    RatInterval,
    Record,
    as_interval,
    enclose,
    kind_of,
    sign_of,
    surd_floor,
    surd_sign,
)

DEFAULT_WIDTH = Fraction(1, 10**30)
DEFAULT_PRECISION_DIGITS = 200


class IntDigits(Record):
    """Digits c with s = sum c[n] * q_n; c[n] is c_{n+1} in the classical
    one-based subscripting, and M is the largest n with q_n <= s."""

    __slots__ = ("s", "c", "M")


class RealDigits(ByValue):
    """Digits b with gamma = sum b[n] * D_n; b[n] is b_{n+1} in the classical
    one-based subscripting.

    remainder is the truncation remainder gamma - sum_{n<depth} b[n]D_n: a
    Fraction or QuadIrr on the exact path, a RatInterval enclosing it on the
    certified one.  Compared by value, unhashable.
    """

    __slots__ = ("b", "depth", "remainder")
    __hash__ = None


class DeltaProfile(Record):
    """delta[n] = c[n] - b[n] and m, the first index with delta[m] != 0,
    from the IntDigits of s and the RealDigits of gamma.

    m is None when the two digit strings agree through the whole profile
    depth ("m beyond depth").
    """

    __slots__ = ("s", "depth", "delta", "m", "int_digits", "real_digits")


def check_admissible(digits: list[int], ctx: CFContext) -> None:
    """Check the shared digit constraints; raises InvariantViolation on breach."""
    a = ctx.digits(len(digits) + 1)
    for n, d in enumerate(digits):
        if d < 0:
            raise InvariantViolation(f"negative digit at {n}")
        cap = a[n + 1]
        if n == 0:
            if d >= cap:
                raise InvariantViolation(f"c_1 = {d} must be < a_1 = {cap}")
        elif d > cap:
            raise InvariantViolation(f"digit {d} at {n} exceeds a_{n + 1} = {cap}")
        elif d == cap and digits[n - 1] != 0:
            raise InvariantViolation(f"saturated digit at {n} needs 0 before it")


def _require_unit_interval_irrational(ctx: CFContext) -> None:
    if ctx.finite:
        raise RationalTarget("Ostrowski expansions need an irrational alpha")
    if ctx.a(0) != 0:
        raise ValueError("alpha must lie in (0, 1)")


def ostrowski_int(s: int, ctx: CFContext) -> IntDigits:
    """Greedy top-down expansion s = sum c_{n+1} q_n (unique by admissibility),
    walking down from q_{M+1} > s by q_{n-1} = q_{n+1} - a_{n+1}*q_n to q_-1 = 0."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    _require_unit_interval_irrational(ctx)
    try:
        M = ctx.first_index(1, lambda m, q: q > s, s + 1) - 1
    except PrecisionExhausted as exc:
        raise InsufficientDepth(f"cannot certify q_{{M+1}} > {s}") from exc
    hi, q = ctx.q(M + 1), ctx.q(M)
    a = ctx.digits(M + 2)
    digits = [0] * (M + 1)
    rem = s
    for n in range(M, -1, -1):
        digits[n], rem = divmod(rem, q)
        hi, q = q, hi - a[n + 1] * q
    if q:
        raise InvariantViolation(f"the walk down from q_{M} ends on q_-1 = {q}, not 0")
    if rem:
        raise InvariantViolation(f"greedy expansion of {s} leaves {rem}")
    check_admissible(digits, ctx)
    return IntDigits(s, digits, M)


def _gamma_orbit_certificate(gamma, alpha: QuadIrr):
    """Exact test: gamma = u + v*alpha with u, v in Z (the forbidden orbit)."""
    gP, gE, gQ = alpha._operand(gamma)
    v, r = divmod(gE * alpha.Q, gQ * alpha.e)
    if r:
        return None
    u, r = divmod(gP * alpha.Q - v * alpha.P * gQ, gQ * alpha.Q)
    if r:
        return None
    return v, u


def ostrowski_real(
    gamma,
    ctx: CFContext,
    depth: int,
    allow_orbit: bool = False,
    precision_digits: int = DEFAULT_PRECISION_DIGITS,
) -> RealDigits:
    """Digits of gamma in [-alpha, 1-alpha) over the basis D_n.

    gamma may be a Fraction, a QuadIrr in alpha's field, or a value of an
    inexact kind (Certified, RatInterval), which takes the certified path.
    allow_orbit skips the gamma = s*alpha (mod 1) pre-check (used for
    targets like gamma = 0 whose digits are still well defined).  For exact
    targets the orbit check is algebraic and complete.  The certified path
    does no orbit check: an enclosure can exclude the orbit but never prove
    gamma lies on it, so allow_orbit has no effect there.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _require_unit_interval_irrational(ctx)
    if kind_of(ctx.alpha).exact and kind_of(gamma).exact:
        if not allow_orbit:
            hit = _gamma_orbit_certificate(gamma, ctx.alpha)
            if hit is not None:
                raise GammaOnOrbit(f"gamma = {hit[1]} + {hit[0]}*alpha")
        return _extract_exact(gamma, ctx, depth)
    return _extract_certified(gamma, ctx, depth, precision_digits)


def _times_zeta(x: int, y: int, w: int, P: int, Q: int, E: int) -> tuple[int, int, int]:
    """(u, v, w') in lowest terms, w' > 0, with (u + v*sqrt(E))/w' equal to
    (x + y*sqrt(E))/w times (P + sqrt(E))/Q."""
    u, v, w = x * P + y * E, x + y * P, w * Q
    g = gcd(u, v, w)
    if w < 0:
        g = -g
    return u // g, v // g, w // g


def _sign_minus_zeta(x: int, y: int, w: int, P: int, Q: int, E: int) -> int:
    """Sign of (x + y*sqrt(E))/w - (P + sqrt(E))/Q for w > 0."""
    sign = surd_sign(x * Q - w * P, y * Q - w, E)
    return sign if Q > 0 else -sign


def _extract_exact(gamma, ctx: CFContext, depth: int) -> RealDigits:
    alpha = ctx.alpha
    gP, gE, gQ = alpha._operand(gamma)
    # zeta_k = (P_k + sqrt(E))/Q_k with sqrt(E) = f*sqrt(D); the state is
    # t_n = rem_n / D_n = (u + v*sqrt(E))/w
    P1, Q1, E = ctx.zeta_state(1)
    f = isqrt(E // alpha.D)
    u, v, w = _times_zeta(gP * f, gE, gQ * f, P1, Q1, E)  # gamma * zeta_1
    # gamma in T(0) = [-alpha, 1 - alpha): t_0 in [-1, zeta_1 - 1)
    if surd_sign(u + w, v, E) < 0:
        raise ValueError("gamma below -alpha")
    if _sign_minus_zeta(u + w, v, w, P1, Q1, E) >= 0:
        raise ValueError("gamma not below 1 - alpha")
    # (P_k, Q_k) for k < K + L, alpha's digit period (K, L), read by index:
    # zeta_{K+L} = zeta_K, and K >= 1 as a_0 = 0 < a_k for k >= 1
    K, L = ctx.period
    ring = [ctx.zeta_state(k)[:2] for k in range(min(K + L, depth + 2))]
    j = 1  # ring index of zeta_{n+1}; a function of the phase once n + 1 >= K
    digits: list[int] = []
    history: list[tuple] = []  # (t_n, j, prev_nonzero) for each n stepped from
    seen: dict[tuple, int] = {}  # the same keys, from n + 1 >= K on -> n
    prev_nonzero = True  # position 0 carries the strict cap c_1 < a_1
    for n in range(depth):
        key = (u, v, w, j, prev_nonzero)
        if n + 1 >= K:
            m = seen.setdefault(key, n)
            if m < n:
                # steps m..n-1 repeat from here on
                digits += [digits[m + (i - m) % (n - m)] for i in range(n, depth)]
                u, v, w = history[m + (depth - m) % (n - m)][:3]
                break
        history.append(key)
        j = K if j + 1 == K + L else j + 1
        P2, Q2 = ring[j]
        # t_n - 1/zeta_{n+2} = t_n - (sqrt(E) - P2)/Q1 = (r + s*sqrt(E))/N
        r, s, N = u * Q1 + w * P2, v * Q1 - w, w * Q1
        if N < 0:
            r, s, N = -r, -s, -N
        if s:
            b = surd_floor(r, s, E, N) + 1
            on_boundary = False
        else:
            b = -(-r // N)
            on_boundary = r % N == 0
        if b < 0:
            b = 0
        # a_{n+1} = (P_{n+1} + P_{n+2})/Q_{n+1}, from P_{k+1} = a_k*Q_k - P_k
        cap = (P1 + P2) // Q1 - (1 if prev_nonzero else 0)
        if on_boundary and r >= 0 and b + 1 <= cap:
            raise GammaOnOrbit(
                f"remainder hits a cell boundary at position {n}: two expansions exist"
            )
        if b > cap:
            raise InvariantViolation(f"extraction overflow at {n}: digit {b} > cap {cap}")
        u, v, w = _times_zeta(b * w - u, -v, w, P2, Q2, E)  # -(t_n - b) * zeta_{n+2}
        # rem in T(n+1): t_{n+1} between -1 and zeta_{n+2}, less 1 after a digit
        if surd_sign(u + w, v, E) * _sign_minus_zeta(u + (w if b else 0), v, w, P2, Q2, E) > 0:
            raise InvariantViolation(f"remainder left T at {n}")
        digits.append(b)
        prev_nonzero = b > 0
        P1, Q1 = P2, Q2
    check_admissible(digits, ctx)
    return RealDigits(digits, depth, QuadIrr.make(u, v * f, alpha.D, w) * ctx.D(depth))


def _extract_certified(gamma, ctx: CFContext, depth: int, precision_digits: int) -> RealDigits:
    width = Fraction(1, 10**precision_digits)
    rem = as_interval(gamma, width)
    memo = ctx.d_enclosures(width)
    # rem = [lo, hi]/L and D_n's enclosure memo.num[n]/memo.den = ends[n]/L;
    # ends and a_0..a_top are read as the loop reaches their end, doubling for an
    # exact alpha and one step for a certified one, whose refusals keep their order
    L = lcm(rem.lo.denominator, rem.hi.denominator)
    lo = rem.lo.numerator * (L // rem.lo.denominator)
    hi = rem.hi.numerator * (L // rem.hi.denominator)
    den, ends = None, []
    digits: list[int] = []
    prev_nonzero = True
    for n in range(depth):
        if n + 1 >= len(ends):
            top = min(depth, 2 * n + 1 if kind_of(ctx.alpha).exact else n + 1)
            a = ctx.digits(top + 1)
            for i in range(len(ends), top + 1):
                memo.ensure(i)
            if memo.den != den:  # the memo rescaled: so do rem and ends
                den = memo.den
                f = lcm(L, den) // L
                L, lo, hi = L * f, lo * f, hi * f
                k = L // den
                ends = []
            ends += [(x * k, y * k) for x, y in (memo.num[i] for i in range(len(ends), top + 1))]
        (d_lo, d_hi), (e_lo, e_hi) = ends[n], ends[n + 1]
        if d_lo <= 0 <= d_hi:
            raise PrecisionExhausted(f"D_{n} enclosure straddles zero")
        # (rem + D_{n+1}) / D_n spans the four endpoint quotients
        ceils = [-(-x // d) for x in (lo + e_lo, hi + e_hi) for d in (d_lo, d_hi)]
        b = min(ceils)
        if b != max(ceils):
            raise PrecisionExhausted(f"digit at position {n} undecidable")
        b = max(0, b)
        cap = a[n + 1] - (1 if prev_nonzero else 0)
        if b > cap:
            raise PrecisionExhausted(f"digit at position {n} exceeds cap {cap}")
        if b:
            lo, hi = lo - b * d_hi, hi - b * d_lo
        digits.append(b)
        prev_nonzero = b > 0
    check_admissible(digits, ctx)
    return RealDigits(digits, depth, RatInterval(Fraction(lo, L), Fraction(hi, L)))


def tail_bound(d: RealDigits, ctx: CFContext) -> RatInterval:
    """An interval holding d's remainder: the certified path's own, or the
    exact remainder enclosed to a 2**-20 share of |D_{depth-1}|'s bound."""
    return as_interval(d.remainder, ctx.d_abs_upper(d.depth - 1) / 2**20)


def delta_profile(
    s: int,
    gamma,
    ctx: CFContext,
    depth: int,
    allow_orbit: bool = False,
    precision_digits: int = DEFAULT_PRECISION_DIGITS,
) -> DeltaProfile:
    """delta_{n+1} = c_{n+1} - b_{n+1} together with its leading index m;
    precision_digits is passed on to ostrowski_real."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ints = ostrowski_int(s, ctx)
    depth = max(depth, ints.M + 1)
    reals = ostrowski_real(
        gamma, ctx, depth, allow_orbit=allow_orbit, precision_digits=precision_digits
    )
    c = ints.c + [0] * (depth - len(ints.c))
    delta = [c[n] - reals.b[n] for n in range(depth)]
    a = ctx.digits(depth + 1)
    for n, d in enumerate(delta):
        if abs(d) > a[n + 1]:
            raise InvariantViolation(f"|delta| = {abs(d)} at {n} exceeds a_{n + 1}")
    m = next((n for n, d in enumerate(delta) if d), None)
    return DeltaProfile(s, depth, delta, m, ints, reals)


def _require_regime(profile: DeltaProfile) -> int:
    if profile.m is None:
        raise OutOfRegime("delta vanishes through the whole profile depth")
    if profile.m < 4:
        raise OutOfRegime(f"m = {profile.m} < 4; use dist_direct")
    return profile.m


def dist_formula(profile: DeltaProfile, ctx: CFContext):
    """||s*alpha - gamma|| = |sum_{n>=m} delta_{n+1} D_n|, exact on the exact
    path (QuadIrr/Fraction), a certified RatInterval otherwise."""
    m = _require_regime(profile)
    delta, rem = profile.delta, profile.real_digits.remainder
    if kind_of(rem).exact:
        # Horner down D_{n+1} = a_{n+1}*D_n + D_{n-1} from the last nonzero
        # delta: sum_{k>=n} delta_{k+1} D_k = A*D_{n+1} + B*D_n, so at n = m
        # the sum is U*alpha - V, U = A*q_{m+1} + B*q_m, V = A*p_{m+1} + B*p_m
        n = max(k for k, d in enumerate(delta) if d)
        a = ctx.digits(n + 2)
        A, B = 0, delta[n]
        while n > m:
            A, B = A * a[n + 1] + B, A + delta[n - 1]
            n -= 1
        U, V = A * ctx.q(m + 1) + B * ctx.q(m), A * ctx.p(m + 1) + B * ctx.p(m)
        series = ctx.alpha * U - V - rem
        if sign_of(series) != sign_of(delta[m]) * sign_of(ctx.D(m)):
            raise InvariantViolation("series sign disagrees with its leading term")
        return abs(series)
    terms = [(n, d) for n, d in enumerate(delta) if d and n >= m]
    memo = ctx.d_enclosures(DEFAULT_WIDTH)
    for n, _ in terms:
        memo.ensure(n)
    lo = hi = 0
    for n, d in terms:
        d_lo, d_hi = memo.num[n]
        lo, hi = (lo + d * d_lo, hi + d * d_hi) if d > 0 else (lo + d * d_hi, hi + d * d_lo)
    total = RatInterval(Fraction(lo, memo.den), Fraction(hi, memo.den))
    return abs(total - rem)


def dist_direct(s: int, gamma, alpha, width: Fraction = DEFAULT_WIDTH) -> RatInterval:
    """Reference oracle: certified interval for ||s*alpha - gamma||."""
    if kind_of(alpha).exact and kind_of(gamma).exact:
        t = alpha * s - gamma
        return enclose(abs(t - round(t)), width)
    # s*alpha and gamma each get half of the width budget
    a_iv = as_interval(alpha, width / (2 * abs(s)) if s else width)
    g_iv = as_interval(gamma, width / 2)
    out = (a_iv * s - g_iv).dist_to_nearest_int()
    if out.width > width:
        raise PrecisionExhausted(
            f"distance interval width {out.width} exceeds requested {width}"
        )
    return out


def dist_bound(profile: DeltaProfile, ctx: CFContext) -> Fraction:
    """Upper bound (|delta_{m+1}| + 2) * ||q_m alpha||, as an exact rational."""
    m = _require_regime(profile)
    memo = ctx.d_enclosures(DEFAULT_WIDTH)
    memo.ensure(m)
    # |D_m| <= max(|lo|, |hi|)/den for its enclosure [lo, hi]/den
    return Fraction(max(map(abs, memo.num[m])) * (abs(profile.delta[m]) + 2), memo.den)
