"""Ostrowski numeration: expansions of integers over the q_n basis and of
real numbers over the signed basis D_n = q_n*alpha - p_n, plus the exact
machinery for distances ||s*alpha - gamma|| to the nearest integer.

Digit admissibility (shared by both expansions): 0 <= c_1 < a_1,
0 <= c_{n+1} <= a_{n+1}, and c_{n+1} = a_{n+1} forces c_n = 0.

Real-digit extraction works on the exact remainder.  Writing T(N) for the
value range of admissible tails starting at position N (with the previous
digit's constraint folded in), the feasible digit at each step is pinned by

    b = ceil((rem + D_{N+1}) / D_N),

clamped at 0; a remainder landing exactly on a cell boundary means gamma has
two admissible expansions, which happens precisely on the forbidden orbit
gamma = s*alpha (mod 1), and raises GammaOnOrbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf import CFContext
from .errors import (
    GammaOnOrbit,
    InsufficientDepth,
    OutOfRegime,
    PrecisionExhausted,
    RationalTarget,
)
from .exactnum import (
    Certified,
    QuadIrr,
    RatInterval,
    as_interval,
    as_pair,
    ceil_of,
    ceil_of_frac,
    enclose,
    sign_of,
)

DEFAULT_WIDTH = Fraction(1, 10**30)


@dataclass
class IntDigits:
    """Digits c with s = sum c[n] * q_n; c[n] is c_{n+1} in the classical
    one-based subscripting."""

    s: int
    c: list[int]
    M: int

    def support(self) -> list[int]:
        return [n for n, d in enumerate(self.c) if d]


@dataclass
class RealDigits:
    """Digits b with gamma = sum b[n] * D_n; b[n] is b_{n+1} in the classical
    one-based subscripting.

    tail_bound encloses the truncation remainder gamma - sum_{n<depth} b[n]D_n.
    """

    b: list[int]
    depth: int
    tail_bound: RatInterval
    exact_remainder: object | None = None  # Fraction | QuadIrr on the exact path

    def support(self) -> list[int]:
        return [n for n, d in enumerate(self.b) if d]


@dataclass
class DeltaProfile:
    """delta[n] = c[n] - b[n] and m, the first index with delta[m] != 0.

    m is None when the two digit strings agree through the whole profile
    depth ("m beyond depth").
    """

    s: int
    depth: int
    delta: list[int]
    m: int | None
    int_digits: IntDigits
    real_digits: RealDigits


def check_admissible(digits: list[int], ctx: CFContext) -> None:
    """Assert the shared digit constraints; raises AssertionError on breach."""
    for n, d in enumerate(digits):
        assert d >= 0, f"negative digit at {n}"
        cap = ctx.a(n + 1)
        if n == 0:
            assert d < cap, f"c_1 = {d} must be < a_1 = {cap}"
        else:
            assert d <= cap, f"digit {d} at {n} exceeds a_{n + 1} = {cap}"
            if d == cap:
                assert digits[n - 1] == 0, f"saturated digit at {n} needs 0 before it"


def _require_unit_interval_irrational(ctx: CFContext) -> None:
    if isinstance(ctx.alpha, (int, Fraction)):
        raise RationalTarget("Ostrowski expansions need an irrational alpha")
    if ctx.a(0) != 0:
        raise ValueError("alpha must lie in (0, 1)")


def ostrowski_int(s: int, ctx: CFContext) -> IntDigits:
    """Greedy top-down expansion s = sum c_{n+1} q_n (unique by admissibility)."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    _require_unit_interval_irrational(ctx)
    try:
        M = 0
        while ctx.q(M + 1) <= s:
            M += 1
    except PrecisionExhausted as exc:
        raise InsufficientDepth(f"cannot certify q_{{M+1}} > {s}") from exc
    digits = [0] * (M + 1)
    rem = s
    for n in range(M, -1, -1):
        digits[n], rem = divmod(rem, ctx.q(n))
    assert rem == 0
    check_admissible(digits, ctx)
    out = IntDigits(s=s, c=digits, M=M)
    assert int_digits_value(out, ctx) == s
    return out


def int_digits_value(d: IntDigits, ctx: CFContext) -> int:
    return sum(c * ctx.q(n) for n, c in enumerate(d.c))


def _gamma_orbit_certificate(gamma, alpha: QuadIrr):
    """Exact test: gamma = u + v*alpha with u, v in Z (the forbidden orbit)."""
    g_rat, g_coef = as_pair(gamma, alpha.D)
    a_rat, a_coef = alpha.as_pair()
    v = g_coef / a_coef
    if v.denominator != 1:
        return None
    u = g_rat - v * a_rat
    if u.denominator != 1:
        return None
    return int(v), int(u)


def _t_endpoints(ctx: CFContext, n: int, restricted: bool):
    """Endpoints of the admissible-tail value range T(n, state)."""
    hi_side = -ctx.D(n - 1)
    if restricted:
        hi_side = hi_side - ctx.D(n)
    lo_side = -ctx.D(n)
    return lo_side, hi_side


def _exact_in_t(rem, ctx, n, restricted) -> bool:
    a_end, b_end = _t_endpoints(ctx, n, restricted)
    lo, hi = (a_end, b_end) if a_end <= b_end else (b_end, a_end)
    return lo <= rem <= hi


def ostrowski_real(
    gamma,
    ctx: CFContext,
    depth: int,
    allow_orbit: bool = False,
    precision_digits: int = 200,
) -> RealDigits:
    """Digits of gamma in [-alpha, 1-alpha) over the basis D_n.

    gamma may be a Fraction, a QuadIrr in alpha's field, or Certified.
    allow_orbit skips the gamma = s*alpha (mod 1) pre-check (used for
    targets like gamma = 0 whose digits are still well defined).  For exact
    targets the orbit check is algebraic and complete.  The certified path
    does no orbit check: an enclosure can exclude the orbit but never prove
    gamma lies on it, so allow_orbit has no effect there.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _require_unit_interval_irrational(ctx)
    exact = isinstance(ctx.alpha, QuadIrr) and not isinstance(gamma, Certified)
    if exact:
        if not allow_orbit:
            hit = _gamma_orbit_certificate(gamma, ctx.alpha)
            if hit is not None:
                raise GammaOnOrbit(f"gamma = {hit[1]} + {hit[0]}*alpha")
        lo_end, hi_end = _t_endpoints(ctx, 0, True)
        if not (lo_end <= gamma):
            raise ValueError("gamma below -alpha")
        if not (gamma < hi_end):
            raise ValueError("gamma not below 1 - alpha")
        return _extract_exact(gamma, ctx, depth)
    return _extract_certified(gamma, ctx, depth, precision_digits)


def _extract_exact(gamma, ctx: CFContext, depth: int) -> RealDigits:
    digits: list[int] = []
    rem = gamma
    prev_nonzero = True  # position 0 carries the strict cap c_1 < a_1
    for n in range(depth):
        dn = ctx.D(n)
        dn1 = ctx.D(n + 1)
        ratio = (rem + dn1) / dn
        on_boundary = isinstance(ratio, Fraction) and ratio.denominator == 1
        b = max(0, ceil_of(ratio))
        cap = ctx.a(n + 1) - (1 if prev_nonzero else 0)
        if on_boundary and ratio >= 0 and b + 1 <= cap:
            raise GammaOnOrbit(
                f"remainder hits a cell boundary at position {n}: two expansions exist"
            )
        assert b <= cap, f"extraction overflow at {n}: digit {b} > cap {cap}"
        rem = rem - b * dn if b else rem
        assert _exact_in_t(rem, ctx, n + 1, b > 0), f"remainder left T at {n}"
        digits.append(b)
        prev_nonzero = b > 0
    check_admissible(digits, ctx)
    tail = enclose(rem, ctx.d_abs_upper(depth - 1) / 2**20)
    return RealDigits(b=digits, depth=depth, tail_bound=tail, exact_remainder=rem)


def _certified_step(rem, ctx, n, prev_nonzero, width):
    dn, dn1 = as_interval(ctx.D(n), width), as_interval(ctx.D(n + 1), width)
    if dn.lo <= 0 <= dn.hi:
        raise PrecisionExhausted(f"D_{n} enclosure straddles zero")
    ratio = (rem + dn1) / dn
    b_lo = ceil_of_frac(ratio.lo)
    b_hi = ceil_of_frac(ratio.hi)
    if b_lo != b_hi:
        raise PrecisionExhausted(f"digit at position {n} undecidable")
    b = max(0, b_lo)
    cap = ctx.a(n + 1) - (1 if prev_nonzero else 0)
    if b > cap:
        raise PrecisionExhausted(f"digit at position {n} exceeds cap {cap}")
    if b:
        rem = rem - dn * b
    return b, rem


def _extract_certified(gamma, ctx: CFContext, depth: int, precision_digits: int) -> RealDigits:
    width = Fraction(1, 10**precision_digits)
    rem = as_interval(gamma, width)
    digits: list[int] = []
    prev_nonzero = True
    for n in range(depth):
        b, rem = _certified_step(rem, ctx, n, prev_nonzero, width)
        digits.append(b)
        prev_nonzero = b > 0
    check_admissible(digits, ctx)
    return RealDigits(b=digits, depth=depth, tail_bound=rem, exact_remainder=None)


def real_digits_partial(d: RealDigits, ctx: CFContext):
    """Exact value of the truncated sum over the first `depth` digits."""
    total = Fraction(0)
    for n, b in enumerate(d.b):
        if b:
            total = b * ctx.D(n) + total
    return total


def delta_profile(
    s: int,
    gamma,
    ctx: CFContext,
    depth: int,
    allow_orbit: bool = False,
    real_digits: RealDigits | None = None,
) -> DeltaProfile:
    """delta_{n+1} = c_{n+1} - b_{n+1} together with its leading index m."""
    ints = ostrowski_int(s, ctx)
    depth = max(depth, ints.M + 1)
    reals = real_digits
    if reals is None or reals.depth < depth:
        reals = ostrowski_real(gamma, ctx, depth, allow_orbit=allow_orbit)
    c = ints.c + [0] * (depth - len(ints.c))
    delta = [c[n] - reals.b[n] for n in range(depth)]
    assert all(abs(d) <= ctx.a(n + 1) for n, d in enumerate(delta))
    m = next((n for n, d in enumerate(delta) if d), None)
    return DeltaProfile(
        s=s, depth=depth, delta=delta, m=m, int_digits=ints, real_digits=reals
    )


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
    if profile.real_digits.exact_remainder is not None:
        series = Fraction(0)
        for n in range(m, profile.depth):
            d = profile.delta[n]
            if d:
                series = d * ctx.D(n) + series
        series = series - profile.real_digits.exact_remainder
        lead = sign_of(profile.delta[m]) * sign_of(ctx.D(m))
        assert sign_of(series) == lead, "series sign disagrees with its leading term"
        return abs(series)
    total = RatInterval.point(Fraction(0))
    for n in range(m, profile.depth):
        d = profile.delta[n]
        if d:
            total = total + as_interval(ctx.D(n), DEFAULT_WIDTH) * d
    total = total - profile.real_digits.tail_bound
    return total.abs()


def dist_formula_terms(profile: DeltaProfile, ctx: CFContext) -> list:
    """Per-term values of the alternating form
    (-1)^n delta_{n+1} / (q_n (zeta_{n+1} + xi_n)) for n in [m, depth).

    Each term equals delta_{n+1} * D_n exactly; summing them and correcting
    by the stored remainder reproduces dist_formula.  Exact targets only.
    """
    m = _require_regime(profile)
    terms = []
    for n in range(m, profile.depth):
        d = profile.delta[n]
        if not d:
            terms.append(Fraction(0))
            continue
        denom = (ctx.zeta(n + 1) + ctx.xi(n)) * ctx.q(n)
        terms.append(((-1) ** n * d) / denom)
    return terms


def dist_direct(s: int, gamma, alpha, width: Fraction = DEFAULT_WIDTH) -> RatInterval:
    """Reference oracle: certified interval for ||s*alpha - gamma||."""
    if isinstance(alpha, QuadIrr) and not isinstance(gamma, Certified):
        t = alpha * s - gamma
        if isinstance(t, Fraction):
            f = t - (t.numerator // t.denominator)
            return RatInterval.point(min(f, 1 - f))
        k = t.nearest_int()
        val = abs(t - k)
        return enclose(val, width)
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
    dm = ctx.D(m)
    upper = as_interval(dm, DEFAULT_WIDTH).abs().hi
    return (abs(profile.delta[m]) + 2) * upper
