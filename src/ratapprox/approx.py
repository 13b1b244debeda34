"""Order-N rational approximation sets.

An approximation set is a finite prefix of pairs (r, s) whose ratios r/s
approach alpha with a Laurent-type correction sum_{j<=N} gamma_j s^-j.
This module fits the coefficients exactly, verifies the decay claim on a
trailing window, runs the Psi-driven existence construction (indices n_1=4,
n_{k+1} minimal above n_k+1 with 3/q_{n_{k+1}} <= Psi(q_{n_k+1})), handles
the rational-line case exactly, and classifies denominator growth.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd
from operator import index

from .cf import CFContext
from .errors import (
    BlowUp,
    InsufficientPairs,
    PrecisionExhausted,
    RationalTarget,
    SingularSystem,
)
from .exactnum import (
    LN10_HI,
    ByValue,
    RealTarget,
    Record,
    as_interval,
    exp_dyadic_ends,
    exp_le_inverse_sum,
    frac_str,
    int_str,
    interval_ends,
    kind_of,
    operand,
    pow10_cmp,
    rational,
)

DEFAULT_WINDOW = 5
DEFAULT_REL_TOLERANCE = Fraction(1, 1000)
DEFAULT_DIGIT_BUDGET = 100_000
DEFAULT_PREFIX_EXCEPTIONS = 2
_TIGHT = Fraction(1, 10**40)


# ---------------------------------------------------------------------------
# data types


class ApproxSet(Record):
    """Pairs sorted by strictly increasing positive denominator, plus the
    claimed order N and expansion coefficients gamma_1..gamma_N."""

    __slots__ = ("alpha", "pairs", "order", "gamma")

    def __init__(self, alpha: RealTarget, pairs: list[tuple[int, int]], order: int, gamma: list):
        if not pairs:
            raise ValueError("pairs must be nonempty")
        if order < 0 or len(gamma) != order:
            raise ValueError("gamma must list exactly `order` coefficients")
        last = 0
        for _, s in pairs:
            if s <= last:
                raise ValueError("denominators must be strictly increasing and positive")
            last = s
        super().__init__(alpha, pairs, order, gamma)

    @property
    def denominators(self) -> list[int]:
        return [s for _, s in self.pairs]


class PsiSpec(ByValue):
    """Decreasing Psi restricted to families with exact comparability.

    exp_decay(c): Psi(s) = exp(-c*s); power(k): Psi(s) = s**-k;
    rational_table: explicit (s, Psi(s)) pairs read as a step function,
    a tuple of (int, Fraction) sorted by s.  The fields of the other
    families are None.  Immutable by convention, compared and hashed by
    value.  It is the only code that knows the family: the construction
    asks it for each comparison with Psi (le_psi), the threshold bracket,
    the digit-budget test and the tail bound.
    """

    __slots__ = ("kind", "c", "k", "table")

    @staticmethod
    def exp_decay(c) -> "PsiSpec":
        c = rational(c)
        if c <= 0:
            raise ValueError("exp_decay rate must be positive")
        return PsiSpec("exp_decay", c, None, None)

    @staticmethod
    def power(k: int) -> "PsiSpec":
        k = index(k)
        if k < 1:
            raise ValueError("power exponent must be >= 1")
        return PsiSpec("power", None, k, None)

    @staticmethod
    def rational_table(rows) -> "PsiSpec":
        """Rows (s, Psi(s)) of ints s and exact rational values."""
        rows = tuple(sorted(((index(s), rational(v)) for s, v in rows)))
        if not rows:
            raise ValueError("table must be nonempty")
        prev = None
        for s, v in rows:
            if v <= 0:
                raise ValueError("table values must be positive")
            if prev is not None and v > prev:
                raise ValueError("table must be non-increasing")
            prev = v
        return PsiSpec("rational_table", None, None, rows)

    def _table_value(self, t: int) -> Fraction:
        best = None
        for s, v in self.table:
            if s <= t:
                best = v
            else:
                break
        if best is None:
            raise ValueError(f"table does not cover s = {t}")
        return best

    def exact_value(self, t: int) -> Fraction | None:
        """Psi(t) when it is an exact rational (power/table families)."""
        if self.kind == "power":
            return Fraction(1, t**self.k)
        if self.kind == "rational_table":
            return self._table_value(t)
        return None

    def le_psi(self, v: Fraction, t: int, b: int | None = None) -> bool:
        """Decide v + 10**-b <= Psi(t) exactly without forming 10**-b, or
        v <= Psi(t) for b None."""
        exact = self.exact_value(t)
        if exact is not None:
            u = exact - v
            return pow10_cmp(u.numerator, u.denominator, b) >= 0
        return exp_le_inverse_sum(self.c.numerator * t, self.c.denominator, v, b)

    def numeric_feasible(self, t: int) -> bool:
        """Whether le_psi at argument t is computationally reasonable."""
        return self.kind != "exp_decay" or self.c.numerator * t <= 2 * 10**6 * self.c.denominator

    def threshold_int_bracket(self, t: int) -> tuple[int, int]:
        """Integers lo <= 3/Psi(t) <= hi; q >= hi accepts, q < lo rejects,
        anything between is decided exactly by le_psi(3/q, t)."""
        exact = self.exact_value(t)
        if exact is not None:
            v = 3 / exact
            return floor(v), ceil(v)
        # the ends m * 2**e of exp(c*t) at 30 digits, times 3, by shifts
        (lo, lo_e), (hi, hi_e) = exp_dyadic_ends(self.c.numerator * t, self.c.denominator, 30)
        return ((3 * lo << lo_e if lo_e >= 0 else 3 * lo >> -lo_e),
                (3 * hi << hi_e if hi_e >= 0 else -(-3 * hi >> -hi_e)))

    def _decades(self, t: int) -> int:
        """floor(c*t/LN10_HI): LN10_HI > ln 10, so 10**-b >= exp(-c*t) for b up to it."""
        return (self.c.numerator * t * LN10_HI.denominator
                // (self.c.denominator * LN10_HI.numerator))

    def threshold_exceeds_digits(self, t: int, budget: int) -> bool:
        """Sound check: True guarantees 3/Psi(t) >= _q_blowup(budget), so
        that no convergent denominator the budget admits meets the
        threshold."""
        exact = self.exact_value(t)
        if exact is None:
            # exp(c*t) >= 10**(budget + 1), which is above _q_blowup(budget)
            return self._decades(t) > budget
        return 3 * exact.denominator >= _q_blowup(budget) * exact.numerator

    def tail_pair(self, t: int, cap: int) -> tuple[Fraction, int | None]:
        """The bound pair (head, b) on gamma's tail when no next index fits
        the digit budget: (2/3)Psi(t) exactly, or 10**-b >= Psi(t) =
        exp(-c*t) with b <= cap (b = 0 for a cap below 0)."""
        exact = self.exact_value(t)
        if exact is not None:
            return Fraction(2, 3) * exact, None
        return Fraction(0), max(0, min(cap, self._decades(t)))

    def to_json(self) -> dict:
        if self.kind == "exp_decay":
            return {"family": "exp_decay", "c": frac_str(self.c)}
        if self.kind == "power":
            return {"family": "power", "k": self.k}
        return {
            "family": "rational_table",
            "rows": [[int_str(s), frac_str(v)] for s, v in self.table],
        }


class ReportRow(Record):
    """One pair (r, s), its residual rho = r/s - alpha - sum_j gamma_j s^-j
    and the scaled residual |rho|*(|r|+|s|)^N: a Fraction or QuadIrr, or a
    RatInterval when alpha or a gamma_j is inexact."""

    __slots__ = ("r", "s", "residual", "scaled")


class DecayReport(Record):
    """Per-pair scaled residuals |rho|*(|r|+|s|)^N and the window verdict.

    PASS means the trailing `window` scaled values are non-increasing and
    the final one falls below the tolerance, which is `rel_tolerance` times
    the first scaled residual of the report; an all-zero trailing window
    passes outright.  Exact values are compared exactly, intervals by their
    upper ends.  `note` says which rule decided the verdict.
    """

    __slots__ = ("order", "rows", "window", "rel_tolerance", "verdict", "note")

    @property
    def passed(self) -> bool:
        return self.verdict


def _upper(v):
    """A scaled residual as the verdict compares it: an exact value itself,
    an interval by its upper end."""
    return v if kind_of(v).exact else v.hi


def _window_verdict(values: list, window: int, rel_tol: Fraction) -> tuple[bool, str]:
    if not values:
        return False, "no verification pairs"
    w = values[-min(window, len(values)):]
    uppers = [_upper(v) for v in w]
    if all(u == 0 for u in uppers):
        return True, "scaled residuals identically zero on the window"
    for a, b in zip(uppers, uppers[1:]):
        if b > a:
            return False, "scaled residuals stop decreasing inside the window"
    if uppers[-1] == 0:
        return True, "scaled residuals reach exact zero"
    # the threshold is relative to the first scaled residual of the report
    tol = rel_tol * _upper(values[0])
    if uppers[-1] < tol:
        return True, f"final scaled residual below {rel_tol} of the first"
    return False, "final scaled residual above tolerance"


def _report(pairs, alpha, gamma, order: int, window: int, rel_tol: Fraction) -> DecayReport:
    """The residual rows of `pairs` against alpha and gamma, and their verdict."""
    # one inexact value makes every residual an interval
    if not all(kind_of(v).exact for v in (alpha, *gamma)):
        alpha = as_interval(alpha, _TIGHT)
        gamma = [as_interval(g, _TIGHT) for g in gamma]
    rows = []
    for r, s in pairs:
        rho = Fraction(r, s) - alpha
        for j, g in enumerate(gamma, start=1):
            rho = rho - g * Fraction(1, s**j)
        scaled = abs(rho) * (abs(r) + abs(s)) ** order
        rows.append(ReportRow(r, s, rho, scaled))
    verdict, note = _window_verdict([row.scaled for row in rows], window, rel_tol)
    return DecayReport(order, rows, window, rel_tol, verdict, note)


# ---------------------------------------------------------------------------
# fitting and verification


def _solve_vandermonde(fit_pairs, alpha, order: int):
    """Exact solve of sum_j gamma_j s^{1-j} = r - s*alpha on `order` pairs.

    The matrix is rational, so elimination keeps all irrationality in the
    right-hand side; coefficients come out exact for exact alpha and as
    intervals for certified alpha.
    """
    a_val = operand(alpha)
    mat = [
        [Fraction(s) ** (1 - j) for j in range(1, order + 1)] for _, s in fit_pairs
    ]
    rhs = [r - a_val * s for r, s in fit_pairs]
    n = order
    # row i is [1, x_i, ..., x_i**(n-1)] with distinct x_i = 1/s_i, so every
    # pivot and every multiplier f is a ratio of nonzero Vandermonde minors
    for col in range(n):
        for i in range(col + 1, n):
            f = mat[i][col] / mat[col][col]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
            rhs[i] = rhs[i] - rhs[col] * f
    gamma = [None] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, n):
            acc = acc - gamma[j] * mat[i][j]
        gamma[i] = acc * (1 / mat[i][i])
    return gamma


def fit_coefficients(
    pairs,
    alpha: RealTarget,
    order: int,
    window: int = DEFAULT_WINDOW,
    rel_tolerance: Fraction = DEFAULT_REL_TOLERANCE,
):
    """Fit gamma_1..gamma_N on the N largest denominators; report residual
    decay on the remaining pairs."""
    if order < 0:
        raise ValueError("order must be >= 0")
    pairs = sorted(pairs, key=lambda p: p[1])
    if pairs and pairs[0][1] <= 0:
        raise ValueError("denominators must be strictly increasing and positive")
    if len({s for _, s in pairs}) != len(pairs):
        raise SingularSystem("duplicate denominators")
    if len(pairs) < order + 2:
        raise InsufficientPairs(f"need at least {order + 2} pairs for order {order}")
    split = len(pairs) - order
    gamma = _solve_vandermonde(pairs[split:], alpha, order)
    return gamma, _report(pairs[:split], alpha, gamma, order, window, rel_tolerance)


def verify_order(
    aset: ApproxSet,
    window: int = DEFAULT_WINDOW,
    rel_tolerance: Fraction = DEFAULT_REL_TOLERANCE,
) -> DecayReport:
    """Evaluate the o((|r|+|s|)^-N) claim on every pair of the set."""
    return _report(aset.pairs, aset.alpha, aset.gamma, aset.order, window, rel_tolerance)


# ---------------------------------------------------------------------------
# the Psi-driven existence construction


# A bound of the construction is a pair (head, b) worth head + 10**-b, or
# head alone when b is None, so that a tail of 10**-b is never formed.


class CertLine(Record):
    """The certificate of pair k with denominator s_k.  `route` is "numeric"
    (the bound pair `bound` on ||s_k alpha - gamma|| was compared with
    Psi(s_k)) or "monotone" (bound None: Psi is decreasing and s_k <=
    q_{n_k+1}); `ok` is the verdict and `detail` the checks it rests on."""

    __slots__ = ("k", "s", "route", "bound", "ok", "detail")


class PsiConstruction(Record):
    """The construction's indices n_1..n_K, which are also gamma's digit
    support over D_n; n_next, the next index or None past the digit
    budget; the denominators s_1..s_K; gamma_partial = sum_k D_{n_k}, an
    exact field element (a RatInterval for a certified alpha); the bound
    pair `tail` on the rest of gamma; and one CertLine per pair."""

    __slots__ = ("alpha", "psi", "indices", "n_next", "s", "gamma_partial", "tail",
                 "certificate")

    @property
    def certified(self) -> bool:
        return all(line.ok for line in self.certificate)

    def gamma_interval_ends(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """gamma's enclosure as two ((n, d), sign) ends, each worth
        n/d + sign * 10**-b for the tail's b (n/d alone when b is None): a
        tight enclosure of gamma_partial widened by the tail's head.  The
        pairs are not reduced; they are only ever printed."""
        (lo_n, lo_d), (hi_n, hi_d) = interval_ends(self.gamma_partial, _TIGHT)
        t_n, t_d = self.tail[0].as_integer_ratio()
        return (((lo_n * t_d - t_n * lo_d, lo_d * t_d), -1),
                ((hi_n * t_d + t_n * hi_d, hi_d * t_d), 1))


def _q_blowup(budget: int) -> int:
    """The least q past the digit budget, a power of two: the least q whose
    bit length m has floor(0.30103 * m) > budget."""
    return 1 << max(0, -(-(budget + 1) * 100000 // 30103) - 1)


def construct_psi(
    alpha: RealTarget,
    psi: PsiSpec,
    count: int,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> PsiConstruction:
    """Indices n_1 = 4, n_{k+1} = least n > n_k + 1 with 3/q_n <= Psi(q_{n_k+1});
    gamma = sum_k D_{n_k}; s_k = sum_{m<=k} q_{n_m}; certified per-pair bounds.

    The digit budget is applied to bit lengths: the search admits q_m while
    floor(0.30103 * bit length of q_m) <= digit_budget, so a q_m of
    digit_budget + 1 decimal digits can pass, and none of more.  Raises
    BlowUp (carrying the partial construction) when the next index needs a
    larger q_m, or when psi.threshold_exceeds_digits(q_{n_k+1}) holds.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    ctx = CFContext(alpha)
    if ctx.finite:
        raise RationalTarget("the construction needs an irrational alpha")
    if ctx.a(0) != 0:
        raise ValueError("alpha must lie in (0, 1)")

    q_blowup = _q_blowup(digit_budget)

    def find_next(prev_n: int) -> int:
        t = ctx.q(prev_n + 1)
        if psi.threshold_exceeds_digits(t, digit_budget):
            raise BlowUp(
                f"next index after n={prev_n} needs more than {digit_budget} digits"
            )
        lo_i, hi_i = psi.threshold_int_bracket(t)

        def stop(m: int, qm: int) -> bool:
            return (
                qm >= q_blowup
                or qm >= hi_i
                or (qm >= lo_i and psi.le_psi(Fraction(3, qm), t))
            )

        m = ctx.first_index(prev_n + 2, stop, min(lo_i, q_blowup))
        if ctx.q(m) >= q_blowup:
            raise BlowUp(f"q_{m} exceeds the digit budget")
        return m

    indices = [4]
    try:
        for _ in range(1, count):
            indices.append(find_next(indices[-1]))
    except BlowUp as exc:
        raise BlowUp(
            str(exc), partial=_package(alpha, psi, ctx, indices, None, digit_budget)
        ) from None
    try:
        n_next = find_next(indices[-1])
    except BlowUp:
        n_next = None
    return _package(alpha, psi, ctx, indices, n_next, digit_budget)


def _package(
    alpha,
    psi: PsiSpec,
    ctx: CFContext,
    indices: list[int],
    n_next: int | None,
    digit_budget: int,
) -> PsiConstruction:
    exact = kind_of(alpha).exact
    # s_k = sum_{m<=k} q_{n_m} and partials[k-1] = sum_{m<=k} D_{n_m}
    s_list = []
    partials = []
    total = partial = 0
    for n in indices:
        total += ctx.q(n)
        s_list.append(total)
        partial = ctx.D(n) + partial
        partials.append(partial)
    gamma_partial = partials[-1]

    # the bound pair on the rest of gamma past n_K
    if n_next is not None:
        tail = (2 * ctx.d_abs_upper(n_next), None)
    else:
        tail = psi.tail_pair(ctx.q(indices[-1] + 1), digit_budget)

    # heads[k-1] bounds |sum_{k<m<=K} D_{n_m}|, so heads[k-1] plus the tail
    # bounds the remainder of gamma past n_k
    heads = [Fraction(0)]
    for n in reversed(indices[1:]):
        heads.append(heads[-1] + ctx.d_abs_upper(n))
    heads.reverse()

    certificate = []
    K = len(indices)
    for k in range(1, K + 1):
        s_k = s_list[k - 1]
        # structural check: s_k * alpha - partial_k is an exact integer
        detail = ""
        if exact:
            drift = alpha * s_k - partials[k - 1]
            integral = drift == floor(drift)
            detail = "s_k*alpha - partial_k integral; " if integral else "DRIFT NOT INTEGRAL; "
        next_idx = indices[k] if k < K else n_next
        if next_idx is not None and psi.numeric_feasible(s_k):
            # the bound is min(cap, rest), rest the remainder's bound pair
            cap = Fraction(3, ctx.q(next_idx + 1))
            rest = (heads[k - 1] + tail[0], tail[1])
            gap = cap - rest[0]
            bound = (cap, None) if pow10_cmp(gap.numerator, gap.denominator, rest[1]) <= 0 else rest
            ok = psi.le_psi(bound[0], s_k, bound[1])
            certificate.append(CertLine(k, s_k, "numeric", bound, ok,
                                        detail + "bound <= Psi(s_k)"))
            continue
        # monotone route: ||s_k alpha - gamma|| <= 3/q_{n_{k+1}} <= Psi(q_{n_k+1})
        # by the defining inequality of n_{k+1}; verified fact: s_k <= q_{n_k+1}
        t_k = ctx.q(indices[k - 1] + 1)
        ok = s_k <= t_k
        certificate.append(CertLine(k, s_k, "monotone", None, ok,
                                    detail + "s_k <= q_{n_k+1} and Psi decreasing"))

    return PsiConstruction(alpha, psi, list(indices), n_next, s_list, gamma_partial, tail,
                           certificate)


def nearest_numerators(alpha: RealTarget, s_list, gamma1=None) -> ApproxSet:
    """Pairs (round(alpha*s), s); PrecisionExhausted on rounding ties."""
    pairs = []
    for s in s_list:
        s = int(s)
        t = operand(alpha) * s
        if kind_of(t).exact:
            r = round(t)
            tie = 2 * abs(t - r) == 1
        else:
            r = round(t.mid)
            tie = not (2 * r - 1 < 2 * t.lo and 2 * t.hi < 2 * r + 1)
        if tie:
            raise PrecisionExhausted(f"cannot round alpha*{s} unambiguously")
        pairs.append((r, s))
    gamma = [gamma1] if gamma1 is not None else []
    return ApproxSet(alpha=alpha, pairs=pairs, order=len(gamma), gamma=gamma)


# ---------------------------------------------------------------------------
# the rational-line case


class LineFit(Record):
    """Integers a, b > 0, d with b*r = a*s + d, and the number of pairs
    (`exceptions`, all in the allowed prefix) off the line."""

    __slots__ = ("a", "b", "d", "exceptions")


def line_set(a: int, b: int, d: int, count: int) -> ApproxSet:
    """The `count` smallest positive denominators with b | a*s + d, paired
    with r = (a*s + d)/b; an exact infinite-order set with gamma_1 = d/b."""
    if b < 1:
        raise ValueError("b must be >= 1")
    if gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    if count < 1:
        raise ValueError("count must be >= 1")
    inv = pow(a % b, -1, b) if b > 1 else 0
    s0 = (-d * inv) % b if b > 1 else 1
    if s0 == 0:
        s0 = b
    pairs = []
    for i in range(count):
        s = s0 + i * b
        pairs.append(((a * s + d) // b, s))
    return ApproxSet(
        alpha=Fraction(a, b), pairs=pairs, order=1, gamma=[Fraction(d, b)]
    )


def detect_line(pairs, max_prefix_exceptions: int = DEFAULT_PREFIX_EXCEPTIONS) -> LineFit | None:
    """Find integers (a, b, d), b > 0, gcd(a, b) = 1, with b*r = a*s + d on
    a trailing run of the pairs; violations are tolerated only among the
    first `max_prefix_exceptions` pairs."""
    pairs = sorted(pairs, key=lambda p: p[1])
    if len(pairs) < 3:
        raise InsufficientPairs("need at least 3 pairs")
    (r1, s1), (r2, s2) = pairs[-2], pairs[-1]
    ds, dr = s2 - s1, r2 - r1
    g = gcd(abs(dr), ds)
    if g == 0 or ds == 0:
        return None
    a, b = dr // g, ds // g
    d = b * r2 - a * s2
    bad = [i for i, (r, s) in enumerate(pairs) if b * r != a * s + d]
    if any(i >= max_prefix_exceptions for i in bad):
        return None
    return LineFit(a=a, b=b, d=d, exceptions=len(bad))


# ---------------------------------------------------------------------------
# growth profiling


class GrowthProfile(Record):
    """`classification` is "linear", "polynomial", "exponential" or
    "super_exponential"; `ratios` and `differences` are those of successive
    denominators."""

    __slots__ = ("classification", "ratios", "differences")


def growth_profile(s_list) -> GrowthProfile:
    """Classify denominator growth by exact successive-ratio comparisons.

    Ratios that at least double across the window (ending above 4) mean
    super-exponential growth; ratios bounded above 5/4 mean exponential;
    otherwise constant differences mean linear and growing differences
    polynomial.
    """
    s = [int(v) for v in s_list]
    if len(s) < 3:
        raise ValueError("need at least 3 denominators")
    if any(x <= 0 for x in s) or any(y <= x for x, y in zip(s, s[1:])):
        raise ValueError("denominators must be positive and strictly increasing")
    ratios = [Fraction(y, x) for x, y in zip(s, s[1:])]
    diffs = [y - x for x, y in zip(s, s[1:])]
    if ratios[-1] >= 2 * ratios[0] and ratios[-1] > 4:
        cls = "super_exponential"
    elif min(ratios) >= Fraction(5, 4) and ratios[-1] * ratios[-1] >= ratios[0]:
        cls = "exponential"
    elif all(d == diffs[0] for d in diffs):
        cls = "linear"
    elif all(y >= x for x, y in zip(diffs, diffs[1:])):
        cls = "polynomial"
    else:
        cls = "linear"
    return GrowthProfile(classification=cls, ratios=ratios, differences=diffs)
