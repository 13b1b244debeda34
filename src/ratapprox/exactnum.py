"""Exact arithmetic kernel: rationals, rational-endpoint intervals, and
quadratic irrationals in canonical form (P + e*sqrt(D))/Q.

All values are immutable and all operations are pure functions, so anything
built here can be shared freely.  No floating point is used anywhere; every
comparison is decided exactly or raises PrecisionExhausted.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd, isqrt
from operator import index

from .errors import DegenerateRational, InvariantViolation, MixedField, PrecisionExhausted

SQUAREFREE_TRIAL_BOUND = 10**6

# A certified upper bound on ln(10), checked in the test suite.
LN10_HI = Fraction(23025850929940458, 10**16)


@lru_cache(maxsize=None)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = f*f * core with core squarefree; returns (f, core).

    Trial division up to SQUAREFREE_TRIAL_BOUND, then a perfect-square check
    on the cofactor.  A cofactor that is neither 1 nor a perfect square has
    no square divisor below that bound squared, so it stays in core.
    """
    if n <= 0:
        raise ValueError("squarefree_decompose expects n > 0")
    f, core, m = 1, 1, n
    p = 2
    while p <= SQUAREFREE_TRIAL_BOUND and p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            f *= p ** (k // 2)
            if k % 2:
                core *= p
        p = 3 if p == 2 else p + 2
    if m > 1:
        r = isqrt(m)
        if r * r == m:
            f *= r
        else:
            core *= m
    return f, core


def int_str(n: int) -> str:
    """str(n), also past the interpreter's integer-to-string digit limit."""
    try:
        return str(n)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        # Decimal's constructor ignores that limit and converts an int
        # exactly, whatever the context's precision
        return str(decimal.Decimal(n))


def frac_str(x: Fraction) -> str:
    """str(x) for a Fraction, through int_str."""
    num = int_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{int_str(x.denominator)}"


OUTWARD_DIGITS = 50  # significant digits of outward_str


def _leading_digits(x: int, y: int, D: int, Q: int, digits: int) -> tuple[int, int, int, int]:
    """(N, E, rem, den) with v * 10**(digits-1-E) = N + (rem + f)/den for v =
    (x + y*sqrt(D))/Q > 0, Q > 0: E is v's exponent, 10**(digits-1) <= N <
    10**digits, 0 <= rem < den and 0 <= f < 1 (f = 0 for a rational, y = 0)."""
    # m * 30102 // 10**5 is at or below m*log10(2) for m >= 0, m * 30103 // 10**5 for m < 0
    if not y:  # log2 v lies strictly between t - 1 and t + 1, t the bit-length difference
        t = x.bit_length() - Q.bit_length()
        E = (t - 1) * (30102 if t >= 1 else 30103) // 100000 - 1
    elif surd_sign(x - Q, y, D) >= 0:  # from floor(v), as x and y may cancel
        E = (surd_floor(x, y, D, Q).bit_length() - 1) * 30102 // 100000 - 1
    else:  # from floor(1/v), 1/v = Q*(x - y*sqrt(D))/(x^2 - y^2*D)
        inv = surd_floor(Q * x, -Q * y, D, x * x - y * y * D)
        E = -(inv.bit_length() * 30103 // 100000) - 1
    # E is at or below the exponent: one divmod, then surplus digits move into rem
    k = digits - 1 - E
    m, den = 10**max(0, k), Q * 10**max(0, -k)
    N, rem = divmod(x * m + surd_floor(0, y * m, D, 1), den)
    top = 10**digits
    while N >= top:
        N, digit = divmod(N, 10)
        rem, den, E = digit * den + rem, den * 10, E + 1
    return N, E, rem, den


def outward_str(n: int, d: int, sign: int, b: int | None) -> str:
    """The decimal "d.ddd...e<exp>" of n/d + sign * 10**-b (n/d for b None),
    d > 0 and sign = +-1, rounded toward sign * infinity to OUTWARD_DIGITS
    significant digits, without trailing zeros, so shorter values print
    exactly ("1e-100000").  The pair (n, d) need not be reduced: the digits
    depend on the value alone, and no gcd is taken.  One floor division gives
    the digits of |n|/d, and pow10_cmp decides how 10**-b moves the last one:
    10**b is formed only when it is not past the size of the pair's own
    digits."""
    if not n:
        return "0e0" if b is None else f"{'-' if sign < 0 else ''}1e{-b}"
    N, E, rem, den = _leading_digits(abs(n), 0, 1, d, OUTWARD_DIGITS)
    k = OUTWARD_DIGITS - 1 - E
    if b is not None and b <= k + 1:  # 10**-b reaches the printed digits: sum exactly
        m = 10**b
        return outward_str(n * m + sign * d, d * m, sign, None)
    top = 10**OUTWARD_DIGITS
    # |n|/d * 10**k = N + rem/den with top/10 <= N < top, and 10**-b moves
    # |n|/d away from 0 exactly when the rounding does
    up = (n > 0) == (sign > 0)
    if b is None:
        M = N + (up and rem > 0)
    elif up:  # the ceiling of N + r + eps, 0 <= r < 1, eps = 10**-(b-k) <= 1/100
        M = N + 1 + (pow10_cmp(den - rem, den, b - k) < 0)
    else:  # the floor of N + r - eps
        M = N - (pow10_cmp(rem, den, b - k) < 0)
    if M >= top:  # rounded up past a power of ten: the ceiling one digit up
        M, E = -(-M // 10), E + 1
    elif M < top // 10:  # N = top/10 less eps: the floor one digit down
        M, E = 10 * M + 9, E - 1
    digits = str(M).rstrip("0")
    frac = f".{digits[1:]}" if len(digits) > 1 else ""
    return f"{'-' if n < 0 else ''}{digits[0]}{frac}e{E}"


def sci_str(x, sig: int = 17) -> str:
    """The decimal "d.ddd...e+XX" of an exact rational or QuadIrr x to sig
    significant digits, rounded half up from its first sig + 1; "0" for 0."""
    if isinstance(x, QuadIrr):
        P, e, D, Q = x.P, x.e, x.D, x.Q
    else:
        P, e, D, Q = x.numerator, 0, 1, x.denominator
    if not (P or e):
        return "0"
    sign = surd_sign(P, e, D)
    N, E, _, _ = _leading_digits(sign * P, sign * e, D, Q, sig + 1)
    N = (N + 5) // 10
    if N == 10**sig:  # rounded up past a power of ten: 9.99 -> 10.0
        N, E = N // 10, E + 1
    digits = str(N)
    return f"{'-' if sign < 0 else ''}{digits[0]}.{digits[1:]}e{E:+03d}"


def _norm_sign(x: int) -> int:
    return 1 if x > 0 else (-1 if x < 0 else 0)


def surd_sign(x: int, y: int, D: int) -> int:
    """Exact sign of x + y*sqrt(D) for D > 0 not a square, by comparing squares."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx == sy or not sy:
        return sx
    if not sx:
        return sy
    return sx if x * x > y * y * D else sy


def surd_floor(x: int, y: int, D: int, Q: int) -> int:
    """Exact floor((x + y*sqrt(D))/Q) for Q != 0 and D > 0 not a square."""
    if Q < 0:
        x, y, Q = -x, -y, -Q
    t = isqrt(y * y * D)
    if y < 0:
        t = -t - 1  # y*sqrt(D) is irrational, so its floor is -t - 1
    # floor((x + z)/Q) = floor((x + floor(z))/Q) for integers x and Q > 0
    return (x + t) // Q


def parse_rational(text: str) -> Fraction:
    """The rational literal `text` ("p/q", "p" or a decimal) as a Fraction;
    a zero denominator raises ValueError naming the literal."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None


# the exact rational types; a float, Decimal or complex is none of them
_RATIONAL = (int, Fraction)


def rational(x) -> Fraction:
    """x as a Fraction when it is an int or a Fraction; TypeError for a
    float, Decimal, complex or anything else inexact."""
    if type(x) is Fraction:  # as is: Fraction(x) would copy it through the ABC check
        return x
    if isinstance(x, _RATIONAL):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Record:
    """Base of the result types: the constructor takes the fields the
    subclass names in __slots__, in order, each by position or by name.
    A missing field, an extra positional argument or an unknown name raises
    TypeError.  Records compare by identity unless they are ByValue."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{self.__class__.__name__} takes {len(names)} fields "
                            f"({', '.join(names)}), got {len(args)} positional arguments")
        for name, value in zip(names, args):
            setattr(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{self.__class__.__name__} missing field {name!r}")
            setattr(self, name, kwargs.pop(name))
        if kwargs:
            name = next(iter(kwargs))
            what = "given twice" if name in names else "unknown"
            raise TypeError(f"{self.__class__.__name__} field {name!r} {what}")


class ByValue(Record):
    """Base of the value types: ==, hash and repr read the fields the
    subclass names in __slots__, in order.  A subclass that must stay
    unhashable sets __hash__ = None."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())


class QuadIrr:
    """Canonical element (P + e*sqrt(D))/Q of a real quadratic field.

    Invariants: D squarefree > 1, e != 0, Q > 0, gcd(P, e, Q) == 1.
    Construct via qi_normalize(); the raw constructor trusts its arguments.
    """

    __slots__ = ("P", "e", "D", "Q")

    def __init__(self, P: int, e: int, D: int, Q: int):
        self.P = P
        self.e = e
        self.D = D
        self.Q = Q

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(P: int, e: int, D: int, Q: int) -> "QuadIrr | Fraction":
        """Normalize, returning a Fraction when the value degenerates."""
        try:
            return qi_normalize(P, e, D, Q)
        except DegenerateRational as exc:
            return exc.value

    def __repr__(self) -> str:
        return f"QuadIrr({self.P}, {self.e}, {self.D}, {self.Q})"

    def __str__(self) -> str:
        return f"({self.P}{self.e:+}*sqrt({self.D}))/{self.Q}"

    def __hash__(self):
        return hash((self.P, self.e, self.D, self.Q))

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadIrr):
            return (self.P, self.e, self.D, self.Q) == (other.P, other.e, other.D, other.Q)
        # a canonical QuadIrr is irrational, never equal to a rational
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    # -- field arithmetic -------------------------------------------------

    def _check_field(self, other: "QuadIrr") -> None:
        if self.D != other.D:
            raise MixedField(f"sqrt({self.D}) vs sqrt({other.D})")

    def _operand(self, other) -> tuple[int, int, int] | None:
        """(P, e, Q) of a same-field QuadIrr or of a rational (e = 0), else None."""
        if isinstance(other, QuadIrr):
            self._check_field(other)
            return other.P, other.e, other.Q
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    def _same_field(self, P: int, e: int, Q: int) -> "QuadIrr | Fraction":
        """(P + e*sqrt(D))/Q for Q > 0, as a sum or product of canonical
        operands needs it: one gcd, no squarefree split (a Fraction for e = 0)."""
        if not e:
            return Fraction(P, Q)
        # Q first: gcd(Q, P) is cheap when Q is small, and gcd(P, e, Q) of two
        # 25,000-bit P and e took 200 times as long
        g = gcd(Q, P, e)
        return QuadIrr(P // g, e // g, self.D, Q // g)

    def __add__(self, other):
        op = self._operand(other)
        if op is None:
            return NotImplemented
        P, e, Q = op
        return self._same_field(self.P * Q + P * self.Q, self.e * Q + e * self.Q, self.Q * Q)

    __radd__ = __add__

    def __neg__(self):
        return QuadIrr(-self.P, -self.e, self.D, self.Q)

    def __sub__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        op = self._operand(other)
        if op is None:
            return NotImplemented
        P, e, Q = op
        return self._same_field(self.P * P + self.e * e * self.D, self.P * e + self.e * P,
                                self.Q * Q)

    __rmul__ = __mul__

    def inverse(self) -> "QuadIrr":
        # 1/x = Q(P - e sqrt(D)) / (P^2 - e^2 D); the norm is never 0 because
        # D is squarefree > 1 and e != 0.
        norm = self.P * self.P - self.e * self.e * self.D
        res = QuadIrr.make(self.Q * self.P, -self.Q * self.e, self.D, norm)
        if not isinstance(res, QuadIrr):
            raise InvariantViolation(f"inverse of non-canonical {self!r} is rational")
        return res

    def __truediv__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return self * (other.inverse() if isinstance(other, QuadIrr) else 1 / Fraction(other))

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result: QuadIrr | Fraction = Fraction(1)
        base: QuadIrr | Fraction = self
        while n > 0:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the value (never 0: the value is irrational)."""
        return surd_sign(self.P, self.e, self.D)  # Q > 0 by canonical form

    def _cmp(self, other) -> int:
        diff = self - other
        if isinstance(diff, Fraction):  # only when other is an equal-field QuadIrr
            return _norm_sign(diff)
        return diff.sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- integer parts ----------------------------------------------------

    def floor(self) -> int:
        return surd_floor(self.P, self.e, self.D, self.Q)

    def nearest_int(self) -> int:
        # x + 1/2 is irrational, so there is never a tie
        return qi_shift_half(self).floor()

    # math.floor(x) and round(x) answer as they do for a Fraction
    __floor__ = floor
    __round__ = nearest_int

    # -- representation helpers -------------------------------------------

    @staticmethod
    def parse(text: str) -> "QuadIrr":
        """Parse 'P,e,D,Q' as qi_normalize(P, e, D, Q)."""
        parts = [int(x) for x in text.split(",")]
        if len(parts) != 4:
            raise ValueError("quad target needs P,e,D,Q")
        return qi_normalize(*parts)

    def to_json(self) -> dict:
        return {k: int_str(getattr(self, k)) for k in ("P", "e", "D", "Q")}

    @staticmethod
    def from_json(v: dict) -> "QuadIrr":
        return qi_normalize(int(v["P"]), int(v["e"]), int(v["D"]), int(v["Q"]))


def qi_shift_half(x: QuadIrr) -> QuadIrr:
    # normalized in full, unlike x + 1/2, so that a square D shows as rational
    res = QuadIrr.make(2 * x.P + x.Q, 2 * x.e, x.D, 2 * x.Q)
    if not isinstance(res, QuadIrr):
        raise InvariantViolation(f"non-canonical {x!r} plus 1/2 is rational")
    return res


def qi_normalize(P: int, e: int, D: int, Q: int) -> QuadIrr:
    """Canonicalize (P + e*sqrt(D))/Q.

    Extracts square factors of D into e, reduces gcd(P, e, Q), and makes
    Q positive.  Raises DegenerateRational when the value is rational
    (e == 0 or D reduces to a perfect square).
    """
    if D <= 0:
        raise ValueError("D must be positive")
    if Q == 0:
        raise ValueError("Q must be nonzero")
    if e == 0:
        raise DegenerateRational(Fraction(P, Q))
    f, core = squarefree_decompose(D)
    e *= f
    D = core
    if D == 1:
        raise DegenerateRational(Fraction(P + e, Q))
    g = gcd(Q, P, e)  # Q first, as in QuadIrr._same_field
    P, e, Q = P // g, e // g, Q // g
    if Q < 0:
        P, e, Q = -P, -e, -Q
    return QuadIrr(P, e, D, Q)


def qi_pair(rat: Fraction, coef: Fraction, D: int) -> QuadIrr | Fraction:
    """Build the field element rat + coef*sqrt(D) from exact rationals."""
    if coef == 0:
        return rat
    q = rat.denominator * coef.denominator // gcd(rat.denominator, coef.denominator)
    return QuadIrr.make(
        rat.numerator * (q // rat.denominator),
        coef.numerator * (q // coef.denominator),
        D,
        q,
    )


# ---------------------------------------------------------------------------
# generic helpers over Fraction | QuadIrr


def sign_of(x) -> int:
    if isinstance(x, QuadIrr):
        return x.sign()
    return _norm_sign(rational(x))


# ---------------------------------------------------------------------------
# intervals


class RatInterval(ByValue):
    """Closed interval with exact rational endpoints, lo <= hi.  Immutable
    by convention, compared and hashed by value."""

    __slots__ = ("lo", "hi")

    # kept apart from Record.__init__: every interval operation builds one
    def __init__(self, lo: Fraction, hi: Fraction):
        if not (isinstance(lo, _RATIONAL) and isinstance(hi, _RATIONAL)):
            raise TypeError(f"interval endpoints must be exact rationals: {lo!r}, {hi!r}")
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(x) -> "RatInterval":
        f = rational(x)
        return RatInterval(f, f)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        return self.lo <= rational(x) <= self.hi

    def overlaps(self, other: "RatInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    @staticmethod
    def from_json(v: dict) -> "RatInterval":
        return RatInterval(parse_rational(v["lo"]), parse_rational(v["hi"]))

    @staticmethod
    def _bounds(other) -> tuple[Fraction, Fraction] | None:
        """(lo, hi) of an interval or of a rational's point interval, else None."""
        if isinstance(other, RatInterval):
            return other.lo, other.hi
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return f, f
        return None

    def __add__(self, other):
        b = self._bounds(other)
        if b is None:
            return NotImplemented
        return RatInterval(self.lo + b[0], self.hi + b[1])

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        b = self._bounds(other)
        if b is None:
            return NotImplemented
        return RatInterval(self.lo - b[1], self.hi - b[0])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        b = self._bounds(other)
        if b is None:
            return NotImplemented
        lo, hi = b
        if lo == hi:  # a point: its sign orders the two products
            ends = (self.lo * lo, self.hi * lo)
            return RatInterval(*ends) if lo >= 0 else RatInterval(ends[1], ends[0])
        prods = [self.lo * lo, self.lo * hi, self.hi * lo, self.hi * hi]
        return RatInterval(min(prods), max(prods))

    __rmul__ = __mul__

    def reciprocal(self) -> "RatInterval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return RatInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        b = self._bounds(other)
        if b is None:
            return NotImplemented
        return self * RatInterval(*b).reciprocal()

    def __abs__(self) -> "RatInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RatInterval(Fraction(0), max(-self.lo, self.hi))

    def dist_to_nearest_int(self) -> "RatInterval":
        """Image of the interval under distance-to-nearest-integer."""
        if self.width >= 1:
            return RatInterval(Fraction(0), Fraction(1, 2))
        lo_d, hi_d = _frac_dist(self.lo), _frac_dist(self.hi)
        has_int = floor(self.hi) >= ceil(self.lo)
        mn = Fraction(0) if has_int else min(lo_d, hi_d)
        # a half-integer inside pushes the max to 1/2
        mx = Fraction(1, 2) if _contains_half(self) else max(lo_d, hi_d)
        return RatInterval(mn, mx)

    def to_json(self) -> dict:
        return {"lo": frac_str(self.lo), "hi": frac_str(self.hi)}


def _frac_dist(x: Fraction) -> Fraction:
    f = x - floor(x)
    return min(f, 1 - f)


def _contains_half(iv: RatInterval) -> bool:
    # k + 1/2 lies in [lo, hi] for an integer k in [lo - 1/2, hi - 1/2]
    return ceil(iv.lo - Fraction(1, 2)) <= floor(iv.hi - Fraction(1, 2))


# ---------------------------------------------------------------------------
# real targets


class Certified(ByValue):
    """Real number known only through a decimal string and an enclosure.
    Immutable by convention, compared and hashed by value."""

    __slots__ = ("digits", "enclosure")

    def __init__(self, digits: str, enclosure: RatInterval):
        if enclosure.width <= 0:
            raise ValueError("certified enclosure must have positive width")
        super().__init__(digits, enclosure)

    @staticmethod
    def parse(text: str) -> "Certified":
        """Parse 'digits±err' (also accepts 'digits+-err')."""
        body = text.replace("+-", "±")
        if "±" not in body:
            raise ValueError("certified literal must look like '1.41±0.005'")
        digits, err = body.split("±", 1)
        center = parse_rational(digits)
        radius = parse_rational(err)
        if radius <= 0:
            raise ValueError("certified radius must be positive")
        return Certified(digits, RatInterval(center - radius, center + radius))

    def to_json(self) -> dict:
        return {"digits": self.digits, "enclosure": self.enclosure.to_json()}

    @staticmethod
    def from_json(v: dict) -> "Certified":
        return Certified(v["digits"], RatInterval.from_json(v["enclosure"]))


RealTarget = Fraction | QuadIrr | Certified


class Kind(Record):
    """One kind of real value.  `name` is both the CLI prefix ("quad:1,1,5,2")
    and the JSON "kind"; `types` are the Python types of its values; `parse`
    reads the CLI text after the prefix (None: the kind has no CLI form);
    `decode` and `encode` map the JSON "value" member; `exact` says whether
    arithmetic on a value is exact or runs on a certified interval."""

    __slots__ = ("name", "types", "parse", "decode", "encode", "exact")


KINDS = {
    k.name: k
    for k in (
        Kind("rat", (int, Fraction), parse_rational, parse_rational, frac_str, True),
        Kind("quad", (QuadIrr,), QuadIrr.parse, QuadIrr.from_json, QuadIrr.to_json, True),
        Kind("dec", (Certified,), Certified.parse, Certified.from_json, Certified.to_json, False),
        Kind("interval", (RatInterval,), None, RatInterval.from_json, RatInterval.to_json, False),
    )
}
_KIND_OF_TYPE = {t: k for k in KINDS.values() for t in k.types}


def kind_of(x) -> Kind:
    """The KINDS entry of x, by type(x); TypeError for anything else."""
    kind = _KIND_OF_TYPE.get(type(x))
    if kind is None:
        raise TypeError(f"no kind in KINDS holds {x!r}")
    return kind


def operand(x):
    """The value arithmetic runs on: a Certified target's enclosure, else x."""
    return x.enclosure if isinstance(x, Certified) else x


def _positive_width(width) -> Fraction:
    width = rational(width)
    if width <= 0:
        raise ValueError("width must be positive")
    return width


def _quad_ends(x: QuadIrr, width: Fraction) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ends (lo, hi) of enclose(x, width) for a QuadIrr x, as integer
    pairs (n, d) with d > 0, not reduced."""
    # (P + e sqrt(D))/Q with exact outward rounding of sqrt(D)
    # k is the least k = 1 (mod 8) with 10**k >= c = ceil(|e|/(Q*width)),
    # from a guess at or below it by the bit length
    c = -(-abs(x.e) * width.denominator // (x.Q * width.numerator))
    k = 1 + 8 * max(0, ((c.bit_length() - 1) * 30102 // 100000 - 1) // 8)
    while 10**k < c:
        k += 8
    # r/m < sqrt(D) < (r + 1)/m for m = 10**k (D is not a square), so the ends
    # (P*m + e*r)/(Q*m) and (P*m + e*(r + 1))/(Q*m) are |e|/(Q*m) <= width apart
    m = 10**k
    r = isqrt(x.D * m * m)
    lo, hi = ((x.P * m + x.e * (r + i), x.Q * m) for i in ((0, 1) if x.e > 0 else (1, 0)))
    return lo, hi


def enclose(x: RealTarget, width: Fraction) -> RatInterval:
    """Interval of width <= `width` provably containing x.

    Quadratic values are bracketed by certified digit extraction of sqrt(D);
    inexact kinds return the interval they carry, or refuse
    (PrecisionExhausted) when it is wider than requested.
    """
    width = _positive_width(width)
    kind = kind_of(x)
    if not kind.exact:
        iv = operand(x)
        if iv.width <= width:
            return iv
        raise PrecisionExhausted(f"stored enclosure width {iv.width} exceeds requested {width}")
    if kind.name == "rat":
        return RatInterval.point(x)
    return RatInterval(*(Fraction(n, d) for n, d in _quad_ends(x, width)))


def as_interval(x, width: Fraction) -> RatInterval:
    """x as a RatInterval: an exact value enclosed at `width`, an inexact one
    as the interval it carries."""
    return enclose(x, width) if kind_of(x).exact else operand(x)


def interval_ends(x, width: Fraction) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ends (lo, hi) of as_interval(x, width) as integer pairs (n, d) with
    d > 0.  A quadratic x's pairs are not reduced: a caller that only prints
    the ends (outward_str) skips the gcds of two Fractions."""
    if kind_of(x).name == "quad":
        return _quad_ends(x, _positive_width(width))
    iv = as_interval(x, width)
    return iv.lo.as_integer_ratio(), iv.hi.as_integer_ratio()


# ---------------------------------------------------------------------------
# certified exponentials (needed for Psi = exp(-c s) comparisons)


# exp(x) for x >= 0 is e**n * exp(f) with n = floor(x) and 0 <= f < 1.  Both
# factors and every intermediate result are held in fixed point, m * 2**e with
# m > 0 an integer of at most `prec` bits, once rounded down (lo) and once up
# (hi).  Outward rounding: every quantity is positive and every step (Taylor
# term, partial sum, product, truncation to `prec` bits) is monotone in its
# positive inputs, so a chain of floors stays below the true value and a
# chain of ceilings above it; the Taylor tail is added on the upper side only.


def _exp_taylor_fixed(p: int, q: int, prec: int, up: bool) -> int:
    """Bound on 2**prec * exp(p/q) for 0 <= p <= q: below, or above if `up`."""
    total, term, i = 0, 1 << prec, 0
    while term > 1:
        # term bounds 2**prec * (p/q)**i / i! on the side of `up`
        total += term
        i += 1
        term = -(-term * p // (q * i)) if up else term * p // (q * i)
    # the omitted tail sum_{j>=i} f**j/j! is at most twice its first term
    return total + 2 * term if up else total


def _round_fixed(m: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    """m * 2**e truncated to `prec` bits of mantissa: floor, or ceiling if `up`."""
    shift = m.bit_length() - prec
    if shift <= 0:
        return m, e
    return (-(-m >> shift) if up else m >> shift), e + shift


@lru_cache(maxsize=32)
def _e_fixed(prec: int, up: bool) -> int:
    """_exp_taylor_fixed(1, 1, prec, up): the constant e, once per precision."""
    return _exp_taylor_fixed(1, 1, prec, up)


def _exp_fixed(n: int, p: int, q: int, prec: int, up: bool) -> tuple[int, int]:
    """Bound (m, e), worth m * 2**e, on exp(n + p/q) for 0 <= p < q, by
    square-and-multiply on fixed-point values.  The pair p/q need not be
    reduced: each Taylor term is the floor or ceiling of the same rational."""
    base, base_e = _e_fixed(prec, up), -prec
    m, e = 1, 0
    while n:
        if n & 1:
            m, e = _round_fixed(m * base, e + base_e, prec, up)
        n >>= 1
        if n:
            base, base_e = _round_fixed(base * base, 2 * base_e, prec, up)
    if p:
        m, e = _round_fixed(m * _exp_taylor_fixed(p, q, prec, up), e - prec, prec, up)
    return m, e


def exp_dyadic_ends(num: int, den: int, digits: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Bounds lo <= exp(num/den) <= hi for num >= 0 and den > 0, with hi - lo
    below lo * 10**-digits, as pairs (m, e) worth m * 2**e.  The pair
    num/den need not be reduced."""
    num, den = index(num), index(den)
    if num < 0 or den <= 0:
        raise ValueError("exp_dyadic_ends needs num >= 0 and den > 0")
    n, p = divmod(num, den)
    # decimal guard digits for the target plus the amplification by n, in
    # bits, plus 2*log2(n) bits for the roundings of the squarings
    guard = digits + len(str(n + 1)) + 8
    prec = (guard * 3322) // 1000 + 1 + 2 * n.bit_length()
    return _exp_fixed(n, p, den, prec, False), _exp_fixed(n, p, den, prec, True)


def exp_le_inverse_sum(num: int, den: int, head: Fraction, b: int | None) -> bool:
    """Decide exp(num/den) <= 1/(head + 10**-b) exactly, for num >= 0, den > 0,
    head >= 0 and b >= 0 (exp(num/den) <= 1/head for b None), without forming
    10**-b: y <= 1/(head + 10**-b) is 10**-b <= 1/y - head, and for y = n/d
    that is (d*hd - n*hn)/(n*hd), compared unreduced.  The digits double until
    an end decides: exp(num/den) is irrational for num > 0, and for num = 0
    both ends are 1, which the first round decides."""
    head = rational(head)
    hn, hd = head.numerator, head.denominator
    digits = 30
    while True:
        (lo_n, lo_d), (hi_n, hi_d) = ((m << e, 1) if e >= 0 else (m, 1 << -e)
                                      for m, e in exp_dyadic_ends(num, den, digits))
        if pow10_cmp(hi_d * hd - hi_n * hn, hi_n * hd, b) >= 0:
            return True
        if pow10_cmp(lo_d * hd - lo_n * hn, lo_n * hd, b) < 0:
            return False
        digits *= 2


def _pow10_screen(bits: int, b: int) -> int:
    """sign(n/d - 10**-b) for n, d > 0 with bits = the bit length of n minus
    that of d, when the bit lengths settle it; else 0.

    log2(n/d) lies strictly between bits - 1 and bits + 1 whether or not the
    pair is reduced, and 3.321928 < log2(10) < 3.321929, so log2(n/d * 10**b)
    lies strictly between bits - 1 + floor(3.321928 b) and
    bits + 1 + ceil(3.321929 b).
    """
    if bits - 1 + 3321928 * b // 1000000 >= 0:
        return 1
    if bits + 1 - (-3321929 * b // 1000000) <= 0:
        return -1
    return 0


def pow10_cmp(n: int, d: int, b: int | None) -> int:
    """sign(n/d - 10**-b) for d > 0 and b >= 0, exactly, and sign(n) for b
    None.  The pair (n, d) need not be reduced; a Fraction u is passed as
    (u.numerator, u.denominator).  Bit lengths decide it unless n/d lies
    within a factor of 4 * 2**(b/10**6) of 10**-b; only then is 10**b
    formed, to compare n times it with d."""
    if b is None:
        return _norm_sign(n)
    if n <= 0:
        return -1
    return _pow10_screen(n.bit_length() - d.bit_length(), b) or _norm_sign(n * 10**b - d)

