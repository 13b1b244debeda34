"""Independent arithmetic that the benchmark checks ratapprox against.

Nothing here imports ratapprox.  Continued fractions of quadratic surds come
from the integer (P, Q) recurrence, convergents from the three-term
recurrence, exact values in Q(sqrt(D)) from pairs of Fractions, and real
comparisons from mpmath, with precision raised until the sign is decided.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import gcd, isqrt

# ---------------------------------------------------------------------------
# continued fractions and convergents of (P + e*sqrt(D))/Q


def quad_cf(P: int, e: int, D: int, Q: int, count: int) -> list[int]:
    """The first `count` partial quotients of (P + e*sqrt(D))/Q, e != 0."""
    if e < 0:
        P, e, Q = -P, -e, -Q
    E = e * e * D
    if (E - P * P) % Q:
        P, E, Q = P * abs(Q), E * Q * Q, Q * abs(Q)
    r = isqrt(E)
    out = []
    for _ in range(count):
        a = (P + r) // Q if Q > 0 else -((P + r) // -Q) - 1
        out.append(a)
        P = a * Q - P
        Q = (E - P * P) // Q
    return out


def convergents(a: list[int]) -> tuple[list[int], list[int]]:
    """p_n, q_n for n = 0..len(a)-1."""
    p = [a[0], a[1] * a[0] + 1]
    q = [1, a[1]]
    for n in range(2, len(a)):
        p.append(a[n] * p[-1] + p[-2])
        q.append(a[n] * q[-1] + q[-2])
    return p[: len(a)], q[: len(a)]


def ostrowski_int_digits(s: int, q: list[int]) -> list[int]:
    """Greedy digits c with s = sum c[n] q[n]."""
    M = 0
    while q[M + 1] <= s:
        M += 1
    c = [0] * (M + 1)
    for n in range(M, -1, -1):
        c[n], s = divmod(s, q[n])
    return c


def admissible(digits: list[int], a: list[int]) -> bool:
    """0 <= c_1 < a_1, c_{n+1} <= a_{n+1}, and c_{n+1} = a_{n+1} forces c_n = 0."""
    for n, d in enumerate(digits):
        cap = a[n + 1]
        if d < 0 or (n == 0 and d >= cap) or d > cap:
            return False
        if n > 0 and d == cap and digits[n - 1] != 0:
            return False
    return True


def decimal_floor_quad(P: int, e: int, D: int, Q: int, digits: int) -> int:
    """floor(10**digits * (P + e*sqrt(D))/Q) for non-square D."""
    if Q < 0:
        P, e, Q = -P, -e, -Q
    scale = 10**digits
    root = isqrt(e * e * D * scale * scale)  # floor(|e| sqrt(D) scale)
    if e < 0:
        root = -root - 1
    return (P * scale + root) // Q


def decimal_floor(u: int, v: int, P: int, e: int, D: int, Q: int, digits: int) -> int:
    """floor(10**digits * (u*alpha - v)) for alpha = (P + e*sqrt(D))/Q."""
    return decimal_floor_quad(u * P - v * Q, u * e, D, Q, digits)


def dec_text(P: int, e: int, D: int, Q: int, digits: int) -> str:
    """'d.ddd±1e-digits', an enclosure of the irrational (P + e*sqrt(D))/Q."""
    N = decimal_floor_quad(P, e, D, Q, digits)
    # the value lies in [N, N + 1) / 10**digits, so also within 10**-digits of
    # the truncation of |N| / 10**digits towards zero
    sign = "-" if N < 0 else ""
    whole, frac = divmod(abs(N), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}±1e-{digits}"


# ---------------------------------------------------------------------------
# exact arithmetic in Q(sqrt(D))


class QD:
    """x + y*sqrt(D) with Fraction coordinates and D > 1 squarefree."""

    __slots__ = ("x", "y", "D")

    def __init__(self, x, y, D: int):
        self.x, self.y, self.D = Fraction(x), Fraction(y), D

    @staticmethod
    def from_quad(doc: dict) -> "QD":
        P, e, D, Q = (int(doc[k]) for k in ("P", "e", "D", "Q"))
        return QD(Fraction(P, Q), Fraction(e, Q), D)

    def __add__(self, o):
        o = self._lift(o)
        return QD(self.x + o.x, self.y + o.y, self.D)

    def __sub__(self, o):
        o = self._lift(o)
        return QD(self.x - o.x, self.y - o.y, self.D)

    def __mul__(self, o):
        o = self._lift(o)
        return QD(self.x * o.x + self.y * o.y * self.D, self.x * o.y + self.y * o.x, self.D)

    def inverse(self) -> "QD":
        norm = self.x * self.x - self.y * self.y * self.D
        return QD(self.x / norm, -self.y / norm, self.D)

    def __eq__(self, o):
        o = self._lift(o)
        return (self.x, self.y) == (o.x, o.y)

    def _lift(self, o):
        return o if isinstance(o, QD) else QD(o, 0, self.D)


def squarefree_part(n: int) -> tuple[int, int]:
    """(f, core) with n = f*f*core, by trial division (small n only)."""
    f, core, p = 1, 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            f *= p
        if n % p == 0:
            n //= p
            core *= p
        p += 1
    return f, core * n


def laurent_series(a: int, b: int, c: int, d: int, terms: int) -> list[QD]:
    """gamma_1..gamma_terms of r/s on a r^2 + b r s + c s^2 = d, by convolution.

    x(u) = sum_k x_k u^k with u = s^-2 solves a x^2 + b x + c = d u; matching
    the coefficient of u^k gives (2 a x_0 + b) x_k = d [k = 1] - a sum x_i x_{k-i}.
    """
    disc = b * b - 4 * a * c
    f, core = squarefree_part(disc)
    x = [QD(Fraction(-b, 2 * a), Fraction(f, 2 * a), core)]
    lead_inv = (x[0] * (2 * a) + b).inverse()
    for k in range(1, terms // 2 + 1):
        acc = QD(d if k == 1 else 0, 0, core)
        for i in range(1, k):
            acc = acc - x[i] * x[k - i] * a
        x.append(acc * lead_inv)
    return [x[j // 2] if j % 2 == 0 else QD(0, 0, core) for j in range(1, terms + 1)]


def minimal_polynomial(alpha: QD) -> tuple[int, int, int]:
    """Primitive (a, b, c), a > 0, with a alpha^2 + b alpha + c = 0."""
    # alpha = x + y sqrt(D): alpha^2 - 2x alpha + x^2 - y^2 D = 0
    coeffs = [Fraction(1), -2 * alpha.x, alpha.x * alpha.x - alpha.y * alpha.y * alpha.D]
    den = 1
    for v in coeffs:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in coeffs]
    g = gcd(gcd(abs(ints[0]), abs(ints[1])), abs(ints[2]))
    return tuple(v // g for v in ints)


# ---------------------------------------------------------------------------
# mpmath comparisons


def log_sign(q: int, c: Fraction, t: int) -> int:
    """Sign of ln(q/3) - c*t, deciding by interval arithmetic at rising precision."""
    from mpmath import iv

    prec = 64 + 4 * max(q.bit_length().bit_length(), (c * t).numerator.bit_length())
    while prec < 1 << 20:
        iv.prec = prec
        d = iv.log(iv.mpf(q) / 3) - iv.mpf(c.numerator) * t / c.denominator
        if d.a > 0:
            return 1
        if d.b < 0:
            return -1
        prec *= 2
    raise ArithmeticError("log comparison undecided")


def exceeds_digits(c: Fraction, t: int, budget: int) -> bool:
    """Whether 3*exp(c*t) > 10**budget, decided in log space."""
    from mpmath import iv

    prec = 128
    while prec < 1 << 20:
        iv.prec = prec
        d = iv.log(3) + iv.mpf(c.numerator) * t / c.denominator - budget * iv.log(10)
        if d.a > 0:
            return True
        if d.b < 0:
            return False
        prec *= 2
    raise ArithmeticError("digit comparison undecided")


# ---------------------------------------------------------------------------
# JSON schemas shipped with the program


class Schemas:
    """jsonschema validators for the program's shipped schema files."""

    def __init__(self, schema_dir: str):
        self.dir = schema_dir
        self._cache = {}

    def validate(self, name: str, doc) -> None:
        if name not in self._cache:
            from jsonschema.validators import validator_for

            with open(os.path.join(self.dir, f"{name}.schema.json"), encoding="utf-8") as fh:
                schema = json.load(fh)
            self._cache[name] = validator_for(schema)(schema)
        self._cache[name].validate(doc)
