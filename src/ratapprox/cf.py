"""Continued fractions: one CFContext per target holds its expansion,
convergents, complete quotients, and the derived quantities
xi_n = q_{n-1}/q_n and D_n = q_n*alpha - p_n.

Rational targets expand by the Euclidean algorithm (canonical: the last
partial quotient is >= 2 whenever the expansion has length > 1).  Quadratic
targets use the integer (P, Q) complete-quotient recurrence with period
detection by exact state repetition.  Certified targets extract digits from
the stored enclosure and refuse (PrecisionExhausted) rather than guess when
an interval straddles an integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, lcm

from .errors import (
    InsufficientDepth,
    PrecisionExhausted,
    RationalTarget,
)
from .exactnum import (
    Certified,
    QuadIrr,
    RealTarget,
    as_interval,
    kind_of,
    operand,
    qi_normalize,
    surd_floor,
)


def _expand_rational(x) -> dict:
    p, q = x.numerator, x.denominator
    out = []
    while q:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    return {"_digits": out, "finite": True}


def _expand_quadratic(x: QuadIrr) -> dict:
    # bring (P + e sqrt(D))/Q to the form (P0 + sqrt(E))/Q0 with Q0 | E - P0^2
    P0, Q0 = x.P, x.Q
    if x.e < 0:
        P0, Q0 = -P0, -Q0
    E = x.e * x.e * x.D
    if (E - P0 * P0) % Q0:
        P0 *= abs(Q0)
        E *= Q0 * Q0
        Q0 *= abs(Q0)

    digits: list[int] = []
    seen: dict[tuple[int, int], int] = {}  # (P_n, Q_n) -> n
    P, Q = P0, Q0
    while (P, Q) not in seen:
        seen[(P, Q)] = len(digits)
        a = surd_floor(P, 1, E, Q)
        digits.append(a)
        P = a * Q - P
        Q = (E - P * P) // Q
    # zeta_n fixes both (P_n, Q_n) and the digits from a_n on, so the first
    # repeated state starts the minimal digit period
    k = seen[(P, Q)]
    return {"_digits": digits, "period": (k, len(digits) - k), "_states": list(seen), "_surd": E}


def _expand_certified(x: Certified) -> dict:
    # encloses zeta_n for the last digit a_n, or alpha while there is none
    return {"_digits": [], "_enclosure": x.enclosure}


# the starting state of a CFContext for each KINDS entry that is a real target
_EXPAND = {"rat": _expand_rational, "quad": _expand_quadratic, "dec": _expand_certified}


# M_n = (p_n, p_{n-1}, q_n, q_{n-1}), the matrix [[p_n, p_{n-1}], [q_n, q_{n-1}]]
# as a row-major 4-tuple; M_-1 is the identity
_M_START = (1, 0, 0, 1)


def _step(M: tuple, a: int) -> tuple:
    """M_{n+1} from M_n and a = a_{n+1}: the three-term recurrence."""
    return (a * M[0] + M[1], M[0], a * M[2] + M[3], M[2])


def _mul(x: tuple, y: tuple) -> tuple:
    # 2x2 integer matrices as row-major 4-tuples
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


class DEnclosures:
    """Memo of the enclosures as_interval(ctx.D(n), width) of one context at
    one width.

    Entries are computed on first use, in the order asked, and kept as
    integer numerators over one common denominator: D_n lies in
    [num[n][0], num[n][1]] / den.  An entry that needs a larger `den`
    rescales the numerators already stored.
    """

    __slots__ = ("_ctx", "_width", "num", "den")

    def __init__(self, ctx: "CFContext", width: Fraction):
        self._ctx = ctx
        self._width = width
        self.num: dict[int, tuple[int, int]] = {}
        self.den = 1

    def ensure(self, n: int) -> None:
        if n in self.num:
            return
        iv = as_interval(self._ctx.D(n), self._width)
        lo, hi = iv.lo, iv.hi
        den = lcm(self.den, lo.denominator, hi.denominator)
        if den != self.den:
            f = den // self.den
            self.num = {k: (a * f, b * f) for k, (a, b) in self.num.items()}
            self.den = den
        self.num[n] = (lo.numerator * (den // lo.denominator),
                       hi.numerator * (den // hi.denominator))


class CFContext:
    """One target's continued fraction: digits a_n, complete quotients
    zeta_n, convergents p_n/q_n and D_n = q_n*alpha - p_n.

    `period` is the minimal (K, L) of the digit word a_0, a_1, ...: digits
    repeat with period L from index K onward; it is set exactly for
    quadratic targets.  `finite` marks a rational target, stored whole.

    Convergents are kept as M_n = (p_n, p_{n-1}, q_n, q_{n-1}) in one map
    n -> M_n.  Only a walk in order stores every M_n, up to the dense
    frontier: a lookup just past a stored M_n steps from it, and any other
    lookup jumps by `first_index`, which stores only M_{m-1} and M_m where
    it lands, so one far convergent costs memory linear in its digits.
    Everything is cached; the context itself is read-only from the
    caller's perspective.
    """

    def __init__(self, alpha: RealTarget, depth: int = 1):
        """Digits are read on demand; `depth` only expands a_0..a_{depth-1}
        up front, so a certified target refuses those at construction."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        expand = _EXPAND.get(kind_of(alpha).name)
        if expand is None:
            raise TypeError(f"not a real target: {alpha!r}")
        self.alpha = alpha
        self.period: tuple[int, int] | None = None
        self.finite = False
        self.__dict__.update(expand(alpha))
        if not self.finite:
            self.a(depth - 1)
        self._conv: dict[int, tuple] = {-1: _M_START}
        self._dense = -1  # every M_n with n <= _dense is in _conv
        self._d_cache: dict[int, object] = {}
        self._d_enclosures: dict[Fraction, DEnclosures] = {}

    def a(self, n: int) -> int:
        """The digit a_n; InsufficientDepth past a finite expansion."""
        if n < 0:
            raise IndexError("digit index must be >= 0")
        digits = self._digits
        if n < len(digits):
            return digits[n]
        if self.period is not None:
            k, ell = self.period
            a = digits[k + (n - k) % ell]
            if n == len(digits):  # a walk in order stores its digits, as it does M_n
                digits.append(a)
            return a
        if self.finite:
            raise InsufficientDepth(f"finite expansion has {len(digits)} digits")
        while n >= len(digits):
            self._extract_digit()
        return digits[n]

    def digits(self, depth: int) -> list[int]:
        """a_0..a_{depth-1} (the whole expansion when finite) as a new list,
        read in order, so stored as a walk in order stores them."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if self.finite:
            return list(self._digits)
        while len(self._digits) < depth:
            self.a(len(self._digits))
        return self._digits[:depth]

    def _extract_digit(self) -> None:
        iv = self._enclosure
        digits = self._digits
        if digits:
            frac = iv - digits[-1]
            if frac.lo <= 0:
                raise PrecisionExhausted(f"fractional part undecidable after {len(digits)} digits")
            iv = frac.reciprocal()
        d = floor(iv.lo)
        if d != floor(iv.hi):
            raise PrecisionExhausted(f"enclosure straddles an integer after {len(digits)} digits")
        digits.append(d)
        self._enclosure = iv

    def _grow(self, n: int) -> tuple:
        """Store and return M_n: one step from M_{n-1} when that is stored,
        else a jump by first_index, which stores only M_{n-1} and M_n."""
        M = self._conv.get(n - 1)
        if M is None:
            return self._conv[self.first_index(n, lambda m, q: True)]
        M = self._conv[n] = _step(M, self.a(n))
        if n - 1 == self._dense:
            self._dense = n
        return M

    def first_index(self, n0: int, pred, q_floor: int = 0) -> int:
        """Least m >= n0 with pred(m, q_m), for pred monotone in m (False,
        then True from some m on) and False whenever q_m < q_floor.

        Quadratic targets skip whole periods with powers of the period
        matrix while the index stays below n0 or q stays below q_floor;
        other targets roll the recurrence; below the dense frontier M_n is
        read, not stepped.  pred only sees indices past the skipped ones, and
        only M_{m-1} and M_m are stored.
        """
        if n0 < 0:
            raise IndexError("search index must be >= 0")
        conv, dense, period = self._conv, self._dense, self.period
        n = n0 - 1 if n0 - 1 in conv else dense
        M = conv[n]
        while True:
            if n >= dense and period is not None and n >= period[0] - 1:
                # one skip leaves less than a period below n0 or q_floor, and
                # none can skip once a period reaches n0 and q_n reaches q_floor
                if n + period[1] < n0 or M[2] < q_floor:
                    n, M = self._skip_periods(n, M, n0, q_floor)
                    period = None
            prev, M = M, conv[n + 1] if n < dense else _step(M, self.a(n + 1))
            n += 1
            if n >= n0 and pred(n, M[2]):
                break
        conv[n - 1], conv[n] = prev, M
        return n

    def _skip_periods(self, n: int, M: tuple, n0: int, q_floor: int) -> tuple[int, tuple]:
        """Advance (n, M_n), n >= K - 1, by the most whole periods j such that
        n + j*L < n0 or q_{n+j*L} < q_floor; both hold for a prefix of j, so
        square the period matrix W past it, then descend by halving."""
        ell = self.period[1]
        W = _M_START
        for i in range(n + 1, n + ell + 1):
            W = _step(W, self.a(i))

        def skippable(steps: int, X: tuple) -> bool:
            # the q entry of M*X is q_{n + steps}
            return n + steps < n0 or M[2] * X[0] + M[3] * X[2] < q_floor

        powers = [W]  # W^(2^i)
        while skippable(ell << (len(powers) - 1), powers[-1]):
            powers.append(_mul(powers[-1], powers[-1]))
        for i in range(len(powers) - 2, -1, -1):
            if skippable(ell << i, powers[i]):
                n, M = n + (ell << i), _mul(M, powers[i])
        return n, M

    def p(self, n: int) -> int:
        return (self._conv.get(n) or self._grow(n))[0]

    def q(self, n: int) -> int:
        return (self._conv.get(n) or self._grow(n))[2]

    def D(self, n: int):
        """Exact (or certified-interval) D_n, including D_-1 = -1 and D_0;
        RationalTarget for a rational alpha."""
        if self.finite:
            raise RationalTarget("D_n requires an irrational target")
        if n not in self._d_cache:
            self._d_cache[n] = operand(self.alpha) * self.q(n) - self.p(n)
        return self._d_cache[n]

    def d_enclosures(self, width: Fraction) -> DEnclosures:
        """The memo of this context's D_n enclosures at `width`."""
        memo = self._d_enclosures.get(width)
        if memo is None:
            memo = self._d_enclosures[width] = DEnclosures(self, width)
        return memo

    def d_abs_upper(self, n: int) -> Fraction:
        """Rational upper bound |D_n| <= 1/q_{n+1}."""
        return Fraction(1, self.q(n + 1))

    def zeta(self, n: int):
        """zeta_n = [a_n; a_{n+1}, ...]: exact QuadIrr for quadratic targets,
        an exact Fraction for in-range tails of finite expansions
        (RationalTarget beyond them); certified targets raise PrecisionExhausted."""
        if n < 0:
            raise IndexError("complete quotient index must be >= 0")
        digits = self._digits
        if self.period is not None:
            P, Q, E = self.zeta_state(n)
            return qi_normalize(P, 1, E, Q)
        if self.finite:
            if n >= len(digits):
                raise RationalTarget(f"finite expansion has no zeta_{n}")
            v = Fraction(digits[-1])
            for a in reversed(digits[n:-1]):
                v = a + 1 / v
            return v
        raise PrecisionExhausted("complete quotients of a certified target are not computed")

    def zeta_state(self, n: int) -> tuple[int, int, int]:
        """(P_n, Q_n, E) with zeta_n = (P_n + sqrt(E))/Q_n, the integer state
        of a quadratic target's complete-quotient recurrence; Q_n divides
        E - P_n^2, and E is the same for every n.  TypeError for a target
        that is not quadratic."""
        if self.period is None:
            raise TypeError("integer complete-quotient states exist for quadratic targets only")
        if n < 0:
            raise IndexError("complete quotient index must be >= 0")
        if n >= len(self._states):
            k, ell = self.period
            n = k + (n - k) % ell
        P, Q = self._states[n]
        return P, Q, self._surd

    def xi(self, n: int) -> Fraction:
        if n < 1:
            raise IndexError("xi is defined for n >= 1")
        return Fraction(self.q(n - 1), self.q(n))
