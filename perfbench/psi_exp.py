"""psi-exp: `build-psi --psi exp:c` through ratapprox.cli.main, in-process.

The op list mixes strata so that p50 and p90 fall inside populated parts of
the per-op time distribution (see README.md).  Each candidate input is
classified before the run by the benchmark's own model of the construction
(integer convergents and float logarithms), which predicts the arguments of
every exp_bounds call, the index searches and the output size.  The seed
picks the inputs inside each stratum; the strata and their sizes are fixed.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import random
from array import array
from fractions import Fraction

import oracle
from workload import Workload

NAME = "psi-exp"
DEFAULT_BUDGET = 100_000
LN10_HI = 23025850929940458 / 10**16
LN3 = math.log(3)

# alpha = (P + sqrt(D))/Q in (0, 1): fields and partial quotients vary
ALPHAS = [(-1, 5, 2)] + [
    (-math.isqrt(D), D, 1) for D in range(2, 72) if oracle.squarefree_part(D)[0] == 1
]
RATES = [Fraction(n, d) for n, d in ((1, 12), (1, 10), (1, 8), (1, 7), (1, 6), (1, 5), (1, 4), (1, 3),
                                     (2, 5), (1, 2), (3, 5), (2, 3), (3, 4), (1, 1), (4, 3), (3, 2), (2, 1), (3, 1))]

ACCEPTANCE_6 = ((-1, 5, 2), Fraction(1), 3, DEFAULT_BUDGET)
ACCEPTANCE_6_INDICES = [4, 20, 36808]

# (name, ops, predicate on the predicted features); the features are maxarg
# (largest exp_bounds argument), digits (largest number in the output), steps
# (convergents the index searches walk) and found (whether n_next exists)
STRATA = [
    ("light", 25, lambda f: 10 <= f["maxarg"] < 150 and f["found"] and f["steps"] <= 1000),
    ("tail", 64, lambda f: f["maxarg"] < 400 and not f["found"]),
    ("exp", 8, lambda f: 1000 <= f["maxarg"] <= 4000 and f["found"] and f["steps"] <= 12000),
    ("wide", 2, lambda f: f["maxarg"] < 400 and not f["found"]),
]


class Model:
    """Convergents p_n/q_n of alpha = (P + sqrt(D))/Q in (0, 1), grown on demand."""

    def __init__(self, P: int, D: int, Q: int):
        self.alpha = (P, D, Q)
        self.a = oracle.quad_cf(P, 1, D, Q, 64)
        self.p, self.q = [0, 1], [1, self.a[1]]

    def grow(self, n: int) -> None:
        while len(self.q) <= n:
            m = len(self.q)
            if m >= len(self.a):
                P, D, Q = self.alpha
                self.a = oracle.quad_cf(P, 1, D, Q, 2 * m)
            self.p.append(self.a[m] * self.p[-1] + self.p[-2])
            self.q.append(self.a[m] * self.q[-1] + self.q[-2])


class LogModel:
    """ln q_n of alpha from the float recurrence q_n/q_{n-1} = a_n + q_{n-2}/q_{n-1}.

    Enough to classify inputs, and small where q_n has 10^5 digits."""

    def __init__(self, P: int, D: int, Q: int):
        self.alpha = (P, D, Q)
        self.a = oracle.quad_cf(P, 1, D, Q, 64)
        self.lnq = array("d", [0.0, math.log(self.a[1])])
        self._ratio = 1 / self.a[1]  # q_{n-1}/q_n at the last n

    def grow(self, n: int) -> None:
        while len(self.lnq) <= n:
            m = len(self.lnq)
            if m >= len(self.a):
                P, D, Q = self.alpha
                self.a = oracle.quad_cf(P, 1, D, Q, 2 * m)
            step = self.a[m] + self._ratio
            self.lnq.append(self.lnq[-1] + math.log(step))
            self._ratio = 1 / step

    def value(self, n: int) -> float:
        """q_n as a float, inf when it overflows."""
        self.grow(n)
        return math.exp(self.lnq[n]) if self.lnq[n] < 700 else math.inf


def predict(model: LogModel, c: Fraction, K: int, budget: int, max_steps: int = 12_000):
    """Mirror of the construction's control flow on floats; None when the op
    would raise BlowUp, would be ambiguous in floating point, or too long."""
    cf = float(c)
    args = []
    indices = [4]
    steps = 6

    def find_next(prev):
        nonlocal steps
        x = cf * model.value(prev + 1)
        if x >= (budget + 1) * LN10_HI * 0.999:
            return None if x >= (budget + 1) * LN10_HI * 1.001 else "?"
        args.append(x)
        need = LN3 + x
        while model.lnq[-1] < need and len(model.lnq) <= max_steps:
            model.grow(len(model.lnq) + 256)
        m = bisect.bisect_left(model.lnq, need, lo=prev + 2)
        if m >= len(model.lnq) or m > max_steps or model.lnq[m - 1] / math.log(10) > budget - 2:
            return "?"
        if abs(model.lnq[m] - need) < 1e-6 * need or abs(model.lnq[m - 1] - need) < 1e-6 * need:
            return "?"
        steps = max(steps, m)
        return m

    for _ in range(1, K):
        n = find_next(indices[-1])
        if n is None or n == "?":
            return None
        indices.append(n)
    n_next = find_next(indices[-1])
    if n_next == "?":
        return None
    s, total = [], 0
    for n in indices:
        total += model.value(n)
        s.append(total)
    for k in range(1, K + 1):
        has_next = k < K or n_next is not None
        if has_next and cf * s[k - 1] <= 2 * 10**6:
            args.append(cf * s[k - 1])
    if n_next is None:
        t_last = model.value(indices[-1] + 1)
        digits = budget if t_last == math.inf else min(budget, int(cf * t_last / LN10_HI))
    else:
        model.grow(n_next + 1)
        digits = int(model.lnq[n_next + 1] / math.log(10)) + 1
    return {"maxarg": max(args), "digits": digits, "steps": steps, "found": n_next is not None}


def _argv(alpha, c: Fraction, K: int, budget: int) -> list[str]:
    P, D, Q = alpha
    argv = [] if budget == DEFAULT_BUDGET else ["--digit-budget", str(budget)]
    return argv + ["build-psi", "--alpha", f"quad:{P},1,{D},{Q}", "--psi", f"exp:{c}", "--count", str(K)]


def _tail_budget(rng, i: int, count: int) -> int:
    """Digit budget of tail slot i: spread over 5000 to 30000, with a third of
    the slots on one budget, where p50 falls.

    The time of a tail op follows its budget, give or take a tenth that
    depends on alpha and c.  With the 25 light ops below them, slots 14 to 34
    of 64 hold ranks 40 to 60 of the list, so p50 is the middle of 21 ops on
    the same budget rather than one op's time."""
    lo, hi = count * 14 // 64, count * 35 // 64
    if i < lo:
        base = 5000 + 9000 * i // lo
    elif i < hi:
        base = 14800
    else:
        base = 15500 + 14500 * (i - hi) // (count - hi)
    return base + rng.randrange(100)


def generate(seed: int, quick: bool = False) -> list[dict]:
    rng = random.Random(seed)
    models = {a: LogModel(*a) for a in ALPHAS}
    combos = []
    for alpha in ALPHAS:
        for c in RATES:
            for K in (2, 3):
                f = predict(models[alpha], c, K, DEFAULT_BUDGET)
                if f is not None:
                    combos.append((alpha, c, K, f))
    ops = [{"argv": _argv(*ACCEPTANCE_6), "alpha": ACCEPTANCE_6[0], "c": ACCEPTANCE_6[1],
            "K": 3, "budget": DEFAULT_BUDGET, "stratum": "acceptance-6"}]
    for name, count, pred in STRATA:
        pool = sorted((x for x in combos if pred(x[3])), key=lambda x: x[3]["maxarg"])
        if quick:
            count = min(count, 2)
        for i in range(count):
            # slot i draws from the i-th segment of the pool ordered by the
            # largest exp argument (light, exp) or from one K (tail, wide), so
            # every seed gets the same spread of costs
            if name == "tail":
                segment = [x for x in pool if x[2] == 2]
            elif name == "wide":
                segment = [x for x in pool if x[2] == 2 + i % 2]
            else:
                segment = pool[i * len(pool) // count: (i + 1) * len(pool) // count]
            while True:
                alpha, c, K, f = segment[rng.randrange(len(segment))]
                budget = DEFAULT_BUDGET
                if name == "tail":
                    budget = _tail_budget(rng, i, count)
                elif name in ("light", "exp"):
                    budget = rng.choice((DEFAULT_BUDGET, 50_000, 20_000))
                g = predict(models[alpha], c, K, budget)
                if g is not None and pred(g) and (name != "tail" or g["digits"] == budget):
                    break
            ops.append({"argv": _argv(alpha, c, K, budget), "alpha": alpha, "c": c, "K": K,
                        "budget": budget, "stratum": name})
    if quick:
        ops = [op for op in ops if op["stratum"] not in ("acceptance-6", "wide")]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# program side and oracle


class PsiExp(Workload):
    NAME = NAME

    def generate(self, seed, quick=False):
        return generate(seed, quick)

    def setup(self, pkg, ops):
        return pkg.cli

    def run(self, cli, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op["argv"])
        return rc, buf.getvalue()

    def failed(self, op, out):
        return out[0] != 0

    def text(self, out):
        return out[1]

    def trace_op(self, tracer, op, out):
        tracer.count("cli.stdout_bytes", len(out[1].encode()))

    def check(self, op, rec, schemas, cache):
        with open(rec, encoding="utf-8") as fh:
            doc = json.load(fh)
        schemas.validate("build_psi", doc)
        P, D, Q = op["alpha"]
        c, K, budget = op["c"], op["K"], op["budget"]
        if op["alpha"] not in cache:
            cache[op["alpha"]] = Model(P, D, Q)
        model = cache[op["alpha"]]
        indices, n_next = doc["indices"], doc["n_next"]
        assert doc["psi"] == {"family": "exp_decay", "c": str(c)}, "psi echo"
        assert len(indices) == K and indices[0] == 4, f"indices {indices}"
        if op["stratum"] == "acceptance-6":
            assert indices == ACCEPTANCE_6_INDICES, f"acceptance 6 indices {indices}"
        # each index is the least n > previous + 1 with 3/q_n <= exp(-c q_{previous+1})
        chain = indices + ([n_next] if n_next is not None else [])
        for prev, n in zip(chain, chain[1:]):
            model.grow(n + 1)
            t = model.q[prev + 1]
            assert oracle.log_sign(model.q[n], c, t) >= 0, f"3/q_{n} > Psi(q_{prev + 1})"
            if n - 1 >= prev + 2:
                assert oracle.log_sign(model.q[n - 1], c, t) < 0, f"n = {n} is not minimal"
        if n_next is None:
            t_last = model.q[indices[-1] + 1]
            assert oracle.exceeds_digits(c, t_last, budget), "n_next missing below the digit budget"
        total = 0
        for k, n in enumerate(indices):
            total += model.q[n]
            assert int(doc["s"][k]) == total, f"s_{k + 1} != sum of q_n"
        assert doc["digit_support"] == indices, "digit support"
        assert doc["certified"] is True and all(line["ok"] for line in doc["certificate"]), "certificate"
        # gamma = sum_k D_{n_k} = s_K alpha - sum_k p_{n_k} lies in the reported interval
        p_sum = sum(model.p[n] for n in indices)
        iv = doc["gamma"]["interval"]
        lo, hi = Fraction(iv["lo"]), Fraction(iv["hi"])
        g = oracle.decimal_floor(total, p_sum, P, 1, D, Q, 60)
        assert lo <= Fraction(g + 1, 10**60) and Fraction(g, 10**60) <= hi, "gamma outside its interval"


def derive_indices(alpha, c: Fraction, count: int) -> list[int]:
    """n_1 = 4 and n_{k+1} = the least n > n_k + 1 with 3/q_n <= exp(-c q_{n_k+1}),
    from the benchmark's convergents and interval logarithms alone."""
    model = Model(*alpha)
    indices = [4]
    while len(indices) < count:
        prev = indices[-1]
        model.grow(prev + 1)
        t = model.q[prev + 1]

        def reaches(n):
            model.grow(n)
            return oracle.log_sign(model.q[n], c, t) >= 0

        lo, hi = prev + 1, prev + 2  # reaches(lo) is false or lo is below the search
        while not reaches(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
        indices.append(hi)
    return indices


if __name__ == "__main__":
    # re-derives the stored acceptance-6 indices: python3 perfbench/psi_exp.py
    alpha, c, K, _ = ACCEPTANCE_6
    print(derive_indices(alpha, c, K))
