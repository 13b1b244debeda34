"""dist-batch: batched distance queries ||s*alpha - gamma|| through the library.

One CFContext per alpha is built (and its D_n computed) in set-up and shared
by every op on that alpha, as a batch caller would.  An op computes what
`ratapprox dist` computes: dist_direct, delta_profile, and, when m >= 4,
dist_formula and dist_bound.

Op list (per seed, fixed composition): a quarter of the gammas are `dec`
enclosures at 200 digits (the certified path, about ten times slower), a
quarter are rationals, half are exact sums sum b_n D_n of seeded admissible
digits.  Two thirds of the digit-built gammas get an s that shares their
first m >= 4 digits, so the series formula runs; the rest get a random s.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import isqrt

import oracle
from workload import Workload

NAME = "dist-batch"
OPS = 800
DEPTH = (26, 80)
S_RANGE = (10**3, 10**12)
# dist_direct encloses alpha at the requested width, not width/s, so on the
# certified path it can only meet the width while s stays below about
# 10**(k - width) for the next enclosure step k; s <= 10**6 at 26 digits keeps
# every certified op inside that (see CHANGES.md)
CERT_S_RANGE = (10**3, 10**6)
WIDTH, CERT_WIDTH = 30, 26
CERT_DIGITS = 200
# (P, D, Q): alpha = (P + sqrt(D))/Q in (0, 1), with 1/10 <= 1/Q
ALPHAS = [(-1, 5, 2), (-1, 2, 1), (-1, 3, 1), (-3, 13, 2), (-2, 7, 3), (-4, 17, 1),
          (-5, 29, 2), (-3, 10, 1), (-2, 6, 1), (-6, 43, 1)]
CTX_DEPTH = DEPTH[1] + 4


class Basis:
    """Partial quotients and convergents of one alpha (benchmark arithmetic)."""

    def __init__(self, P: int, D: int, Q: int):
        self.alpha = (P, D, Q)
        self.a = oracle.quad_cf(P, 1, D, Q, CTX_DEPTH + 2)
        self.p, self.q = oracle.convergents(self.a)

    def floor_times(self, v: int) -> int:
        """floor(alpha * v) for v > 0."""
        P, D, Q = self.alpha
        return (v * P + isqrt(v * v * D)) // Q


def _digits(rng, a, length, first=None):
    """Random admissible digits of the given length, optionally with a prefix."""
    b = list(first or [])
    while len(b) < length:
        n = len(b)
        cap = a[n + 1] - (1 if n == 0 else 0)
        d = rng.randint(0, cap)
        if n > 0 and d == a[n + 1] and b[-1] != 0:
            d = rng.randint(0, a[n + 1] - 1)
        b.append(d)
    return b


def _series_s(rng, basis, b, s_range):
    """An s whose integer digits equal b below some m >= 4 and differ at m."""
    lo, hi = s_range
    tops = [M for M in range(5, len(basis.q) - 1) if basis.q[M] >= lo and basis.q[M + 1] <= hi]
    M = rng.choice([t for t in tops if t <= len(b)] or tops)
    a = basis.a
    while True:
        m = rng.randint(4, min(len(b), M) - 1)
        c = b[:m]
        choices = [d for d in range(0, a[m + 1] + 1) if d != b[m] and (d < a[m + 1] or c[-1] == 0)]
        if choices:
            break
    c.append(rng.choice(choices))
    c = _digits(rng, a, M + 1, c)
    if c[M] == 0:
        c[M] = 1 if (1 < a[M + 1] or c[M - 1] == 0) else 0
    return sum(d * q for d, q in zip(c, basis.q))


def generate(seed: int, quick: bool = False) -> list[dict]:
    rng = random.Random(seed)
    bases = {a: Basis(*a) for a in ALPHAS}
    count = 16 if quick else OPS
    ops = []
    offset = rng.randrange(len(ALPHAS))
    for i in range(count):
        # every kind meets every alpha equally often and sweeps the depth
        # range evenly, so the seed moves the inputs but not the mix
        j = i // 4
        alpha = ALPHAS[(j + offset) % len(ALPHAS)]
        basis = bases[alpha]
        depth = DEPTH[0] + int((j + rng.random()) * (DEPTH[1] + 1 - DEPTH[0]) * 4 / count)
        kind = ("certified", "rational", "digits", "digits")[i % 4]
        op = {"i": i, "alpha": alpha, "kind": kind, "depth": depth,
              "width": CERT_WIDTH if kind == "certified" else WIDTH}
        s_range = CERT_S_RANGE if kind == "certified" else S_RANGE
        if kind == "rational":
            v = rng.randint(2, 10**6)
            fl = basis.floor_times(v)
            while True:
                u = rng.randint(-fl, v - fl - 1)
                if u % v:
                    break
            op["gamma"] = (u, v)
            op["s"] = rng.randint(*s_range)
        else:
            b = _digits(rng, basis.a, rng.randint(10, depth))
            op["b"] = b
            if kind == "certified":
                u = sum(d * q for d, q in zip(b, basis.q))
                v = sum(d * p for d, p in zip(b, basis.p))
                op["text"] = oracle.dec_text(u * alpha[0] - v * alpha[2], u, alpha[1], alpha[2], CERT_DIGITS)
            series = rng.random() < 2 / 3
            op["s"] = _series_s(rng, basis, b, s_range) if series else rng.randint(*s_range)
        ops.append(op)
    return ops


class DistBatch(Workload):
    NAME = NAME

    def generate(self, seed, quick=False):
        return generate(seed, quick)

    def describe(self, op):
        return f"op {op['i']} ({op['kind']}, alpha {op['alpha']}, s {op['s']}, depth {op['depth']})"

    def setup(self, pkg, ops):
        ctxs = {}
        for P, D, Q in ALPHAS:
            ctx = pkg.CFContext(pkg.qi_normalize(P, 1, D, Q), depth=CTX_DEPTH)
            for n in range(-1, CTX_DEPTH):
                ctx.D(n)
            ctxs[(P, D, Q)] = ctx
        gammas = []
        for op in ops:
            ctx = ctxs[op["alpha"]]
            if op["kind"] == "rational":
                gammas.append(Fraction(*op["gamma"]))
            elif op["kind"] == "certified":
                gammas.append(pkg.exactnum.Certified.parse(op["text"]))
            else:
                total = Fraction(0)
                for n, d in enumerate(op["b"]):
                    if d:
                        total = d * ctx.D(n) + total
                gammas.append(total)
        return {"pkg": pkg, "ctx": ctxs, "gamma": gammas}

    def run(self, state, op):
        pkg = state["pkg"]
        o, x = pkg.ostrowski, pkg.exactnum
        ctx = state["ctx"][op["alpha"]]
        gamma = state["gamma"][op["i"]]
        width = Fraction(1, 10 ** op["width"])
        direct = o.dist_direct(op["s"], gamma, ctx.alpha, width)
        prof = o.delta_profile(op["s"], gamma, ctx, op["depth"], allow_orbit=op["kind"] == "digits")
        formula = bound = None
        if prof.m is not None and prof.m >= 4:
            val = o.dist_formula(prof, ctx)
            formula = val if isinstance(val, x.RatInterval) else x.enclose(val, width)
            bound = o.dist_bound(prof, ctx)
        return direct, prof, formula, bound

    def text(self, out):
        direct, prof, formula, bound = out
        return json.dumps({
            "direct": [str(direct.lo), str(direct.hi)],
            "m": prof.m,
            "c": prof.int_digits.c,
            "b": prof.real_digits.b,
            "formula": None if formula is None else [str(formula.lo), str(formula.hi)],
            "bound": None if bound is None else str(bound),
        })

    def check(self, op, rec, schemas, cache):
        import mpmath

        with open(rec, encoding="utf-8") as fh:
            doc = json.load(fh)
        if op["alpha"] not in cache:
            cache[op["alpha"]] = Basis(*op["alpha"])
        basis = cache[op["alpha"]]
        s, c, b = op["s"], doc["c"], doc["b"]
        assert oracle.admissible(c, basis.a), "integer digits not admissible"
        assert sum(d * q for d, q in zip(c, basis.q)) == s, "integer digits do not sum to s"
        assert c == oracle.ostrowski_int_digits(s, basis.q), "integer digits differ from the greedy ones"
        assert oracle.admissible(b, basis.a), "real digits not admissible"
        if op["kind"] != "rational":
            gen = op["b"] + [0] * (len(b) - len(op["b"]))
            assert b == gen, "real digits differ from the generating digits"
        padded = c + [0] * (len(b) - len(c))
        m = next((n for n, (x, y) in enumerate(zip(padded, b)) if x != y), None)
        assert doc["m"] == m, f"m = {doc['m']}, expected {m}"
        assert (doc["formula"] is not None) == (m is not None and m >= 4), "series regime"
        # ||s alpha - gamma|| to 80 digits, past the cancellation in (s - u) alpha + v
        P, D, Q = op["alpha"]
        mpmath.mp.dps = 90 + len(str(s)) + len(str(basis.q[len(op.get("b", ()))]))
        alpha = (P + mpmath.sqrt(D)) / Q
        if op["kind"] == "rational":
            u, v = op["gamma"]
            t = s * alpha - mpmath.mpf(u) / v
        else:
            u = sum(d * q for d, q in zip(op["b"], basis.q))
            v = sum(d * p for d, p in zip(op["b"], basis.p))
            t = (s - u) * alpha + v
        dist = abs(t - mpmath.nint(t))
        eps = mpmath.mpf(10) ** -70
        for name in ("direct", "formula"):
            if doc[name] is not None:
                lo, hi = (Fraction(x) for x in doc[name])
                assert _mp(lo) - eps <= dist <= _mp(hi) + eps, f"distance outside the {name} interval"
        if doc["bound"] is not None:
            assert dist <= _mp(Fraction(doc["bound"])) + eps, "distance above dist_bound"


def _mp(x: Fraction):
    import mpmath

    return mpmath.mpf(x.numerator) / x.denominator
