"""Oracles for the cli-mix outputs, one per subcommand.

Each takes the op, the parsed JSON document (None for --csv) and the CSV rows
(None for JSON) and raises AssertionError on a wrong answer.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, isqrt

import mpmath

import oracle
from dist_batch import Basis
from psi_exp import Model

EPS_DIGITS = 60


def _mpq(x) -> mpmath.mpf:
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _value(doc) -> mpmath.mpf:
    """A target or coefficient JSON ({kind, value}) as an mpmath number."""
    kind, v = doc["kind"], doc["value"]
    if kind == "rat":
        return _mpq(v)
    if kind == "quad":
        return (int(v["P"]) + int(v["e"]) * mpmath.sqrt(int(v["D"]))) / int(v["Q"])
    return (_mpq(v["lo"]) + _mpq(v["hi"])) / 2


def _quad(P, e, D, Q) -> mpmath.mpf:
    return (P + e * mpmath.sqrt(D)) / Q


def _inside(x, iv: dict, what: str) -> None:
    eps = mpmath.mpf(10) ** -EPS_DIGITS
    assert _mpq(iv["lo"]) - eps <= x <= _mpq(iv["hi"]) + eps, f"value outside the {what} interval"


def _close(x, y, rel, absolute, what) -> None:
    assert abs(x - y) <= rel * max(abs(x), abs(y)) + absolute, f"{what}: {x} vs {y}"


def check_cf(op, doc, rows):
    mpmath.mp.dps = 300
    x = _quad(*op["alpha"])
    digits = []
    for _ in range(len(doc["a"])):
        a = int(mpmath.floor(x))
        digits.append(a)
        x = 1 / (x - a)
    assert doc["a"] == digits, "partial quotients differ from mpmath's"


def check_convergents(op, doc, rows):
    n = len(doc["convergents"])
    p, q = oracle.convergents(oracle.quad_cf(*op["alpha"], max(n, 2)))
    assert doc["convergents"] == [[str(p[i]), str(q[i])] for i in range(n)], "convergents differ from the recurrence"


def check_ostrowski_int(op, doc, rows):
    basis = Basis(*op["alpha"])
    s, c = int(doc["s"]), doc["digits"]
    assert oracle.admissible(c, basis.a), "digits not admissible"
    assert sum(d * q for d, q in zip(c, basis.q)) == s and doc["M"] == len(c) - 1, "digits do not sum to s"
    assert c == oracle.ostrowski_int_digits(s, basis.q), "digits differ from the greedy ones"


def _gamma_mp(op, basis):
    P, D, Q = op["alpha"]
    kind, u, v = op["gamma"]
    return mpmath.mpf(u) / v if kind == "rat" else u * _quad(P, 1, D, Q) - v


def check_ostrowski_real(op, doc, rows):
    mpmath.mp.dps = 120
    basis = Basis(*op["alpha"])
    b = doc["digits"]
    assert len(b) == op["depth"] and oracle.admissible(b, basis.a), "digits not admissible"
    if "b" in op:
        assert b == op["b"] + [0] * (len(b) - len(op["b"])), "digits differ from the generating digits"
    P, D, Q = op["alpha"]
    partial = sum(d * basis.q[n] for n, d in enumerate(b)) * _quad(P, 1, D, Q) - sum(
        d * basis.p[n] for n, d in enumerate(b))
    _inside(_gamma_mp(op, basis) - partial, doc["tail_bound"], "tail_bound")


def check_dist(op, doc, rows):
    mpmath.mp.dps = 120
    basis = Basis(*op["alpha"])
    P, D, Q = op["alpha"]
    s = op["s"]
    t = s * _quad(P, 1, D, Q) - _gamma_mp(op, basis)
    dist = abs(t - mpmath.nint(t))
    _inside(dist, doc["direct"], "direct")
    if doc["formula"] is not None:
        _inside(dist, doc["formula"], "formula")
        assert dist <= _mpq(doc["bound"]) + mpmath.mpf(10) ** -EPS_DIGITS, "distance above the bound"
    if "b" in op:
        c = oracle.ostrowski_int_digits(s, basis.q)
        depth = max(op["depth"], len(c))
        c = c + [0] * (depth - len(c))
        b = op["b"] + [0] * (depth - len(op["b"]))
        m = next((n for n in range(depth) if c[n] != b[n]), None)
        assert doc["m"] == m, f"m = {doc['m']}, expected {m}"
    assert (doc["regime"] == "series") == (doc["m"] is not None and doc["m"] >= 4), "regime"


def _residual(r, s, alpha, gammas):
    rho = mpmath.mpf(r) / s - alpha
    for j, g in enumerate(gammas, start=1):
        rho -= g / mpmath.mpf(s) ** j
    return rho


def _check_rows(rows, alpha, gammas):
    for row in rows:
        r, s = int(row["r"]), int(row["s"])
        want = _residual(r, s, alpha, gammas)
        # the report prints the midpoint of a 1e-40-wide enclosure to 17 digits
        _close(mpmath.mpf(row["residual"]), want, 1e-15, mpmath.mpf(10) ** -40, f"residual at s = {s}")


def _on_form(form, r, s) -> bool:
    a, b, c, d = form
    return a * r * r + b * r * s + c * s * s == d


def check_approx_fit(op, doc, rows):
    mpmath.mp.dps = 80
    if rows is not None:
        assert all(_on_form(op["form"], int(row["r"]), int(row["s"])) for row in rows), "row off the conic"
        return
    aset = doc["set"]
    alpha, gammas = _value(aset["alpha"]), [_value(g) for g in aset["gamma"]]
    _check_rows(doc["report"]["rows"], alpha, gammas)
    a, b, c, d = op["form"]
    laurent = oracle.laurent_series(a, b, c, d, len(gammas))
    for j, (g, want) in enumerate(zip(gammas, laurent), start=1):
        exact = _mpq(want.x) + _mpq(want.y) * mpmath.sqrt(want.D)
        assert abs(g - exact) <= mpmath.mpf(10) ** -4 * max(1, abs(exact)), f"fitted gamma_{j} far from Laurent"


def check_approx_verify(op, doc, rows):
    mpmath.mp.dps = 80
    if rows is None:
        assert doc["report"]["verdict"] == "PASS", "an exact Laurent set must pass"
        rows, aset = doc["report"]["rows"], doc["set"]
    else:
        with open(op["set"], encoding="utf-8") as fh:
            aset = json.load(fh)
    _check_rows(rows, _value(aset["alpha"]), [_value(g) for g in aset["gamma"]])


def check_build_psi(op, doc, rows):
    P, D, Q = op["alpha"]
    model = Model(P, D, Q)
    k = op["k"]
    indices, n_next = doc["indices"], doc["n_next"]
    assert len(indices) == op["count"] and indices[0] == 4, f"indices {indices}"
    chain = indices + ([n_next] if n_next is not None else [])
    for prev, n in zip(chain, chain[1:]):
        model.grow(n + 1)
        need = 3 * model.q[prev + 1] ** k  # 3/q_n <= t^-k  <=>  q_n >= 3 t^k
        assert model.q[n] >= need, f"3/q_{n} > Psi"
        assert n - 1 < prev + 2 or model.q[n - 1] < need, f"n = {n} is not minimal"
    if n_next is None:
        assert 3 * model.q[indices[-1] + 1] ** k > 10**100_000, "n_next missing below the digit budget"
    total = 0
    for j, n in enumerate(indices):
        total += model.q[n]
        assert int(doc["s"][j]) == total, "s_k != sum of q_n"
    assert doc["certified"] is True, "certificate"
    if "set" in doc:
        for r, s in doc["set"]["pairs"]:
            s = int(s)
            # nearest integer to alpha*s: floor((2sP + Q + 2s sqrt(D)) / (2Q))
            assert int(r) == (2 * s * P + Q + isqrt(4 * s * s * D)) // (2 * Q), "numerator is not round(alpha s)"


def check_line(op, doc, rows):
    a, b, d = op["line"]
    pairs = [(int(r), int(s)) for r, s in doc["pairs"]]
    want = [s for s in range(1, 20 * b * len(pairs) + 2) if (a * s + d) % b == 0][: len(pairs)]
    assert [s for _, s in pairs] == want, "denominators are not the smallest solutions"
    assert all(b * r == a * s + d for r, s in pairs), "pair off the line"
    assert doc["gamma"] == [{"kind": "rat", "value": str(Fraction(d, b))}], "gamma_1 != d/b"


def check_detect_line(op, doc, rows):
    a, b, d = op["line"]
    assert doc["line"] == {"a": str(a), "b": str(b), "d": str(d), "exceptions": 0}, "line not recovered"


def check_conic_orbit(op, doc, rows):
    pairs = [(int(r), int(s)) for r, s in doc["pairs"]]
    assert all(_on_form(op["form"], r, s) for r, s in pairs), "pair off the conic"
    assert all(s1 < s2 for (_, s1), (_, s2) in zip(pairs, pairs[1:])), "denominators not increasing"


def check_laurent(op, doc, rows):
    a, b, c, d = op["form"]
    want = oracle.laurent_series(a, b, c, d, len(doc["gamma"]))
    for j, (g, w) in enumerate(zip(doc["gamma"], want), start=1):
        if g["kind"] == "rat":
            assert w.y == 0 and w.x == Fraction(g["value"]), f"gamma_{j}"
        else:
            got = oracle.QD.from_quad(g["value"])
            assert got.D == w.D and got == w, f"gamma_{j} differs from the convolution"


def check_build_periodic(op, doc, rows):
    P, D, Q = op["alpha"]
    basis = Model(P, D, Q)
    if rows is not None:
        pairs = [(int(row["r"]), int(row["s"])) for row in rows]
    else:
        pairs = [(int(r), int(s)) for r, s in doc["pairs"]]
        alpha = oracle.QD(Fraction(P, Q), Fraction(1, Q), D)
        a, b, _ = oracle.minimal_polynomial(alpha)
        g2 = doc["gamma2"]
        gamma2 = oracle.QD.from_quad(g2["value"]) if g2["kind"] == "quad" else oracle.QD(Fraction(g2["value"]), 0, D)
        prod = (alpha * (2 * a) + b) * gamma2
        assert prod.y == 0 and prod.x.denominator == 1, "(2a alpha + b) gamma_2 is not an integer"
        K, L = doc["K"], doc["L"]
        want_n = [K + 2 * k * L for k in range(1, len(pairs) + 1)]
        basis.grow(want_n[-1])
        assert pairs == [(basis.p[n], basis.q[n]) for n in want_n], "pairs are not the period convergents"
        return
    basis.grow(400)
    convs = set(zip(basis.p, basis.q))
    assert all(pair in convs for pair in pairs), "a row is not a convergent"


def check_detect_quad(op, doc, rows):
    form = doc["form"]
    assert form is not None, "no form found"
    a, b, c, d = (int(form[k]) for k in "abcd")
    assert gcd(gcd(a, b), c) == 1 and a > 0, "form not primitive"
    with open(op["argv"][-1], encoding="utf-8") as fh:
        pairs = [(int(r), int(s)) for r, s in json.load(fh)["pairs"]]
    assert all(_on_form((a, b, c, d), r, s) for r, s in pairs[2:]), "pair off the detected conic"


def check_growth(op, doc, rows):
    s = op["s"]
    assert doc["ratios"] == [_ratstr(Fraction(y, x)) for x, y in zip(s, s[1:])], "ratios"
    assert doc["differences"] == [str(y - x) for x, y in zip(s, s[1:])], "differences"
    if op["kind"] == "exponential":
        assert doc["classification"] == "exponential", "a geometric sequence is exponential"


def _ratstr(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def check_error(op, doc, rows):
    assert "error" in doc, "not an error document"


CHECKS = {
    "cf": check_cf,
    "convergents": check_convergents,
    "ostrowski-int": check_ostrowski_int,
    "ostrowski-real": check_ostrowski_real,
    "dist": check_dist,
    "approx-fit": check_approx_fit,
    "approx-verify": check_approx_verify,
    "build-psi": check_build_psi,
    "line": check_line,
    "detect-line": check_detect_line,
    "conic-orbit": check_conic_orbit,
    "laurent": check_laurent,
    "build-periodic": check_build_periodic,
    "detect-quad": check_detect_quad,
    "growth": check_growth,
    "approx-verify-missing-N": check_error,
    "detect-line-missing-pairs": check_error,
}
