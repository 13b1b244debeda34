"""Command-line front end.

Every subcommand prints exactly one JSON document (or CSV with --csv for
residual tables) and exits 0 on success, 1 on a domain error (the typed
error name appears in the JSON), 2 on usage errors.  All unbounded integers
are serialized as decimal strings; structural counts and digit values stay
plain JSON numbers.  Output is byte-identical across runs for identical
inputs: no timestamps, no environment echoes, insertion-ordered keys.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .approx import (
    DEFAULT_DIGIT_BUDGET, DEFAULT_PREFIX_EXCEPTIONS, DEFAULT_REL_TOLERANCE, DEFAULT_WINDOW,
    ApproxSet,
    DecayReport,
    PsiSpec,
    construct_psi,
    detect_line,
    fit_coefficients,
    growth_profile,
    line_set,
    nearest_numerators,
    verify_order,
)
from .cf import CFContext
from .conic import (
    ConicForm,
    conic_orbit,
    find_seed,
    laurent_expansion,
    periodic_construction,
    quad_detect,
)
from .errors import RatApproxError
from .exactnum import (KINDS, as_interval, frac_str, int_str, kind_of, operand,
                       outward_str, parse_rational, sci_str)
from .ostrowski import (DEFAULT_PRECISION_DIGITS, delta_profile, dist_bound, dist_direct,
                        dist_formula, ostrowski_int, ostrowski_real, tail_bound)

CONFIG_ENV_VAR = "RATAPPROX_CONFIG"

_escape = json.encoder.encode_basestring_ascii

# schema file (under ratapprox/schemas/) describing each subcommand's JSON
SCHEMA_BY_COMMAND = {
    "cf": "cf",
    "convergents": "convergents",
    "ostrowski-int": "ostrowski_int",
    "ostrowski-real": "ostrowski_real",
    "dist": "dist",
    "approx-fit": "approx_report",
    "approx-verify": "approx_report",
    "build-psi": "build_psi",
    "line": "approx_set",
    "detect-line": "detect_line",
    "conic-orbit": "conic_orbit",
    "laurent": "laurent",
    "build-periodic": "build_periodic",
    "detect-quad": "detect_quad",
    "growth": "growth",
}


def schema_path(name: str) -> str:
    """Filesystem path of a shipped schema ('cf', 'error', a command name...)."""
    base = SCHEMA_BY_COMMAND.get(name, name)
    return os.path.join(os.path.dirname(__file__), "schemas", f"{base}.schema.json")


# (name, default) of each knob, in the order of the flags and the file.  Each
# is the top-level flag --name (dashes for underscores) and the config file
# key name, typed like its default, and each default is the library constant
# of the parameter it feeds; find_seed has none for seed_bound.
CONFIG_FIELDS = (
    ("precision_digits", DEFAULT_PRECISION_DIGITS),
    ("decay_window", DEFAULT_WINDOW),
    ("decay_tolerance", DEFAULT_REL_TOLERANCE),
    ("digit_budget", DEFAULT_DIGIT_BUDGET),
    ("seed_bound", 10_000),
    ("prefix_exceptions", DEFAULT_PREFIX_EXCEPTIONS),
)


def json_text(doc) -> str:
    """json.dumps(doc, indent=2), byte for byte, for a document of dicts with
    str keys, lists, tuples, str, int, bool and None; TypeError for any
    other type.  Strings go through json's C escaper; the indent-2 layout,
    which json.dumps renders in pure Python, is written here."""
    parts = []
    put = parts.append

    def walk(x, indent: str) -> None:
        # indent is the newline and the indentation of the line x ends on
        if isinstance(x, str):
            put(_escape(x))
        elif x is None:
            put("null")
        elif x is True:
            put("true")
        elif x is False:
            put("false")
        elif isinstance(x, dict):
            if not x:
                put("{}")
                return
            inner = indent + "  "
            sep = "{" + inner
            for k, v in x.items():
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                put(sep + _escape(k) + ": ")
                walk(v, inner)
                sep = "," + inner
            put(indent + "}")
        elif isinstance(x, (list, tuple)):
            if not x:
                put("[]")
                return
            inner = indent + "  "
            sep = "[" + inner
            for v in x:
                put(sep)
                walk(v, inner)
                sep = "," + inner
            put(indent + "]")
        else:
            # an int, as json.dumps prints one; int.__repr__ refuses the rest
            try:
                put(int.__repr__(x))
            except TypeError:
                raise TypeError(
                    f"Object of type {type(x).__name__} is not JSON serializable") from None

    walk(doc, "\n")
    return "".join(parts)


def _field_parser(default):
    """The parser of a knob's text, in the file or as a flag, by the type of
    its default."""
    return {int: int, Fraction: parse_rational}[type(default)]


def _refuse_non_positive(values: dict) -> None:
    for name, _ in CONFIG_FIELDS:
        if name in values and values[name] <= 0:
            raise ValueError(f"config {name} must be positive")


def read_config(text: str) -> dict:
    """The knob values set by a config file's `key = value` lines ('#' starts
    a comment); the last line of a key wins."""
    kinds = {name: _field_parser(default) for name, default in CONFIG_FIELDS}
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in kinds:
            raise ValueError(f"unknown config key: {key}")
        values[key] = kinds[key](value.strip())
    _refuse_non_positive(values)
    return values


# ---------------------------------------------------------------------------
# parsing and serialization


def parse_target(text: str):
    name, _, body = text.partition(":")
    parse = KINDS[name].parse if name in KINDS else None
    if parse is not None and body:
        return parse(body)
    raise ValueError(f"cannot parse target {text!r}; use rat:p/q, quad:P,e,D,Q or dec:digits±err")


def parse_ints(flag: str, text: str, names: str) -> tuple[int, ...]:
    """The integers `names` (such as "a,b,c") given to `flag` as "1,-1,-1"."""
    want = names.split(",")
    parts = text.split(",")
    if len(parts) == len(want):
        try:
            return tuple(int(x) for x in parts)
        except ValueError:
            pass
    count = {2: "two", 3: "three"}[len(want)]
    raise ValueError(f"{flag} expects {count} integers {names}; got {text!r}")


def parse_psi(text: str) -> PsiSpec:
    kind, _, body = text.partition(":")
    if kind == "exp" and body:
        return PsiSpec.exp_decay(parse_rational(body))
    if kind == "power" and body:
        return PsiSpec.power(int(body))
    if kind == "table" and body:
        return read_input(body, _table_from_json)
    raise ValueError(f"cannot parse psi {text!r}; use exp:c, power:k or table:FILE")


def target_json(x) -> dict:
    """The {"kind", "value"} document of x; value_from_json inverts it."""
    kind = kind_of(x)
    return {"kind": kind.name, "value": kind.encode(x)}


def approx_set_json(aset: ApproxSet) -> dict:
    return {
        "alpha": target_json(aset.alpha),
        "N": aset.order,
        "gamma": [target_json(g) for g in aset.gamma],
        "pairs": [[int_str(r), int_str(s)] for r, s in aset.pairs],
    }


def report_json(rep: DecayReport) -> dict:
    return {
        "order": rep.order,
        "window": rep.window,
        "rel_tolerance": frac_str(rep.rel_tolerance),
        "verdict": "PASS" if rep.verdict else "FAIL",
        "note": rep.note,
        "rows": [
            {
                "r": int_str(row.r),
                "s": int_str(row.s),
                "residual": _approx_str(row.residual),
                "scaled_residual": _approx_str(row.scaled),
            }
            for row in rep.rows
        ],
    }


def _approx_str(v) -> str:
    # an exact value prints its own digits, an interval its midpoint
    return sci_str(v if kind_of(v).exact else operand(v).mid)


def report_csv(rep: DecayReport) -> str:
    lines = ["s,r,residual,scaled_residual"]
    for row in rep.rows:
        lines.append(
            f"{row.s},{row.r},{_approx_str(row.residual)},{_approx_str(row.scaled)}"
        )
    return "\n".join(lines) + "\n"


# the kinds that an alpha and a gamma of an input file may have
ALPHA_KINDS = ("rat", "quad", "dec")
GAMMA_KINDS = ("rat", "quad", "interval")


def value_from_json(doc: dict, kinds: tuple[str, ...]):
    """Decode a {"kind", "value"} document whose kind is one of `kinds`."""
    kind = doc["kind"]
    if kind not in kinds:
        raise ValueError(f"value kind {kind!r} is not one of {', '.join(kinds)}")
    return KINDS[kind].decode(doc["value"])


def _refuse_inexact(text: str):
    raise ValueError(f"inexact JSON number {text}; write integers, or rationals as strings")


def _refuse_booleans(doc) -> None:
    # int(True) is 1, so a boolean would pass for a count or an order
    todo = [doc]
    while todo:
        x = todo.pop()
        if x is True or x is False:
            raise ValueError(f"JSON boolean {json_text(x)}; no input value is true or false")
        if isinstance(x, dict):
            todo.extend(x.values())
        elif isinstance(x, list):
            todo.extend(x)


def read_input(path: str, decode):
    """decode(the JSON document in `path`); a file that is not JSON, holds a
    JSON number that is not an integer or a boolean anywhere, or lacks the
    expected keys, shape or values, raises ValueError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_refuse_inexact, parse_constant=_refuse_inexact)
        _refuse_booleans(doc)
        return decode(doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed input file {path}: {type(exc).__name__} {exc}") from exc


def _pairs_from_json(raw) -> list[tuple[int, int]]:
    return [(int(r), int(s)) for r, s in raw]


def _table_from_json(rows) -> PsiSpec:
    # s and Psi(s) are JSON integers or decimal strings such as "1/10"
    return PsiSpec.rational_table(
        [(int(s) if isinstance(s, str) else s, parse_rational(v) if isinstance(v, str) else v)
         for s, v in rows]
    )


def load_pairs(path: str) -> list[tuple[int, int]]:
    return read_input(
        path, lambda doc: _pairs_from_json(doc["pairs"] if isinstance(doc, dict) else doc)
    )


def _approx_set_from_json(doc: dict) -> ApproxSet:
    return ApproxSet(
        alpha=value_from_json(doc["alpha"], ALPHA_KINDS),
        pairs=_pairs_from_json(doc["pairs"]),
        order=int(doc["N"]),
        gamma=[value_from_json(g, GAMMA_KINDS) for g in doc.get("gamma", [])],
    )


def load_approx_set(path: str) -> ApproxSet:
    return read_input(path, _approx_set_from_json)


# ---------------------------------------------------------------------------
# subcommand handlers


def _check_depth(depth: int) -> None:
    # refused before a context is built, since building one can fail on its own
    if depth < 1:
        raise ValueError("depth must be >= 1")


def _cmd_cf(args) -> dict:
    alpha = parse_target(args.alpha)
    _check_depth(args.depth)
    ctx = CFContext(alpha)
    k, ell = ctx.period or (None, None)
    return {"a": ctx.digits(args.depth), "K": k, "L": ell}


def _cmd_convergents(args) -> dict:
    if args.n < 0:
        raise ValueError("--n must be >= 0")
    ctx = CFContext(parse_target(args.alpha))
    return {"convergents": [[int_str(ctx.p(n)), int_str(ctx.q(n))] for n in range(args.n + 1)]}


def _cmd_ostrowski_int(args) -> dict:
    ctx = CFContext(parse_target(args.alpha))
    d = ostrowski_int(args.s, ctx)
    return {"s": int_str(d.s), "M": d.M, "digits": list(d.c)}


def _cmd_ostrowski_real(args) -> dict:
    alpha = parse_target(args.alpha)
    _check_depth(args.depth)
    ctx = CFContext(alpha)
    d = ostrowski_real(
        parse_target(args.gamma),
        ctx,
        args.depth,
        allow_orbit=args.allow_orbit,
        precision_digits=args.precision_digits,
    )
    return {
        "depth": d.depth,
        "digits": list(d.b),
        "tail_bound": tail_bound(d, ctx).to_json(),
    }


def _cmd_dist(args) -> dict:
    alpha = parse_target(args.alpha)
    gamma = parse_target(args.gamma)
    # the flags are refused before dist_direct, which can fail on its own
    _check_depth(args.depth)
    if args.width_digits < 0:
        raise ValueError("--width-digits must be >= 0")
    ctx = CFContext(alpha)
    width = Fraction(1, 10**args.width_digits)
    direct = dist_direct(args.s, gamma, alpha, width)
    prof = delta_profile(args.s, gamma, ctx, args.depth, allow_orbit=args.allow_orbit,
                         precision_digits=args.precision_digits)
    doc = {
        "s": int_str(args.s),
        "m": prof.m,
        "regime": "series" if prof.m is not None and prof.m >= 4 else "direct-only",
        "direct": direct.to_json(),
        "formula": None,
        "bound": None,
    }
    if doc["regime"] == "series":
        val = dist_formula(prof, ctx)
        doc["formula"] = as_interval(val, width).to_json()
        doc["bound"] = frac_str(dist_bound(prof, ctx))
    return doc


def _cmd_approx_fit(args):
    pairs = load_pairs(args.pairs)
    alpha = parse_target(args.alpha)
    gamma, report = fit_coefficients(
        pairs,
        alpha,
        args.order,
        window=args.decay_window,
        rel_tolerance=args.decay_tolerance,
    )
    aset = ApproxSet(alpha=alpha, pairs=sorted(pairs, key=lambda p: p[1]),
                     order=args.order, gamma=gamma)
    if args.csv:
        return report_csv(report)
    return {"set": approx_set_json(aset), "report": report_json(report)}


def _cmd_approx_verify(args):
    aset = load_approx_set(args.set)
    report = verify_order(
        aset, window=args.decay_window, rel_tolerance=args.decay_tolerance
    )
    if args.csv:
        return report_csv(report)
    return {"set": approx_set_json(aset), "report": report_json(report)}


def _cmd_build_psi(args) -> dict:
    alpha = parse_target(args.alpha)
    cons = construct_psi(
        alpha, parse_psi(args.psi), args.count, digit_budget=args.digit_budget
    )
    # every bound is a pair (head, b) worth head + 10**-b (a monotone line's
    # is None); bounds and interval ends print as decimals rounded outward,
    # and the tail, whose head is 0 when b is set, prints exactly
    head, b = cons.tail
    ends = cons.gamma_interval_ends()
    lo, hi = (outward_str(n, d, sign, b) for (n, d), sign in ends)
    s_text = [int_str(v) for v in cons.s]  # line k's s is s_k: one conversion each
    doc = {
        "psi": cons.psi.to_json(),
        "alpha": target_json(alpha),
        "indices": cons.indices,
        "n_next": cons.n_next,
        "s": s_text,
        "gamma": {
            "partial": target_json(cons.gamma_partial),
            "tail_bound": (frac_str(head) if b is None
                           else outward_str(*head.as_integer_ratio(), 1, b)),
            "interval": {"lo": lo, "hi": hi},
        },
        "digit_support": cons.indices,
        "certified": cons.certified,
        "certificate": [
            {
                "k": line.k,
                "s": s_text[line.k - 1],
                "route": line.route,
                "bound": line.bound and outward_str(*line.bound[0].as_integer_ratio(), 1,
                                                    line.bound[1]),
                "ok": line.ok,
                "detail": line.detail,
            }
            for line in cons.certificate
        ],
    }
    if args.pairs_out or args.with_pairs:
        # gamma_1 = -gamma: its ends are gamma's, negated and swapped
        lo1, hi1 = (outward_str(-n, d, -sign, b) for (n, d), sign in reversed(ends))
        # only the numerators r are new; alpha and each s_k are printed above
        r_list = [r for r, _ in nearest_numerators(alpha, cons.s).pairs]
        doc["set"] = {"alpha": doc["alpha"], "N": 1,
                      "gamma": [{"kind": "interval", "value": {"lo": lo1, "hi": hi1}}],
                      "pairs": [[int_str(r), s] for r, s in zip(r_list, s_text)]}
        if args.pairs_out:
            with open(args.pairs_out, "w", encoding="utf-8") as fh:
                fh.write(json_text(doc["set"]) + "\n")
    return doc


def _cmd_line(args) -> dict:
    return approx_set_json(line_set(args.a, args.b, args.d, args.count))


def _cmd_detect_line(args) -> dict:
    fit = detect_line(load_pairs(args.pairs), max_prefix_exceptions=args.prefix_exceptions)
    if fit is None:
        return {"line": None}
    return {
        "line": {
            "a": int_str(fit.a),
            "b": int_str(fit.b),
            "d": int_str(fit.d),
            "exceptions": fit.exceptions,
        }
    }


def _cmd_conic_orbit(args) -> dict:
    form = ConicForm(*parse_ints("--form", args.form, "a,b,c"), args.d)
    if args.seed:
        seed = parse_ints("--seed", args.seed, "r,s")
    else:
        seed = find_seed(form, args.seed_bound)
        if seed is None:
            raise RatApproxError(
                f"no seed with s <= {args.seed_bound} represents {args.d}"
            )
    aset = conic_orbit(form, seed, args.count)
    doc = approx_set_json(aset)
    doc["form"] = form.to_json()
    return doc


def _cmd_laurent(args) -> dict:
    form = ConicForm(*parse_ints("--form", args.form, "a,b,c"), args.d)
    lx = laurent_expansion(form, args.terms)
    return {
        "form": lx.form.to_json(),
        "alpha": target_json(lx.alpha),
        "gamma": [target_json(g) for g in lx.gamma],
        "threshold_s": int_str(lx.threshold_s),
        "next_term_j": lx.next_term_j,
        "next_term_upper": frac_str(lx.next_term_upper),
    }


def _cmd_build_periodic(args):
    alpha = parse_target(args.alpha)
    pc = periodic_construction(
        alpha, args.count, window=args.decay_window, rel_tolerance=args.decay_tolerance
    )
    if args.csv:
        return report_csv(pc.report)
    doc = approx_set_json(pc.aset)
    doc["gamma2"] = target_json(pc.gamma2)
    doc["K"] = pc.preperiod
    doc["L"] = pc.period
    doc["report"] = report_json(pc.report)
    return doc


def _cmd_detect_quad(args) -> dict:
    form = quad_detect(load_pairs(args.pairs), max_prefix_exceptions=args.prefix_exceptions)
    return {"form": None if form is None else form.to_json()}


def _cmd_growth(args) -> dict:
    if args.s:
        s_list = [int(x) for x in args.s.split(",")]
    elif args.pairs:
        s_list = [s for _, s in load_pairs(args.pairs)]
    else:
        raise ValueError("growth needs --s or --pairs")
    prof = growth_profile(s_list)
    return {
        "classification": prof.classification,
        "ratios": [frac_str(r) for r in prof.ratios],
        "differences": [int_str(d) for d in prof.differences],
    }


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ratapprox",
        description="order-N rational approximation toolkit",
        allow_abbrev=False,
    )
    top.add_argument("--config", help="path to key=value config file")
    for name, default in CONFIG_FIELDS:
        top.add_argument("--" + name.replace("_", "-"), type=_field_parser(default),
                         default=None)
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = cmd("cf", _cmd_cf, help="continued-fraction expansion")
    p.add_argument("--alpha", required=True)
    p.add_argument("--depth", type=int, default=32)

    p = cmd("convergents", _cmd_convergents, help="principal convergents")
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", type=int, default=10)

    p = cmd("ostrowski-int", _cmd_ostrowski_int, help="integer Ostrowski digits")
    p.add_argument("--alpha", required=True)
    p.add_argument("--s", type=int, required=True)

    p = cmd("ostrowski-real", _cmd_ostrowski_real, help="real Ostrowski digits")
    p.add_argument("--alpha", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--depth", type=int, default=24)
    p.add_argument("--allow-orbit", action="store_true")

    p = cmd("dist", _cmd_dist, help="distance ||s*alpha - gamma||")
    p.add_argument("--alpha", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--depth", type=int, default=24)
    p.add_argument("--width-digits", type=int, default=30)
    p.add_argument("--allow-orbit", action="store_true")

    p = cmd("approx-fit", _cmd_approx_fit, help="fit expansion coefficients")
    p.add_argument("--alpha", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--csv", action="store_true")

    p = cmd("approx-verify", _cmd_approx_verify, help="verify an ApproxSet file")
    p.add_argument("--set", required=True)
    p.add_argument("--csv", action="store_true")

    p = cmd("build-psi", _cmd_build_psi, help="Psi-driven existence construction")
    p.add_argument("--alpha", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--with-pairs", action="store_true")
    p.add_argument("--pairs-out")

    p = cmd("line", _cmd_line, help="rational line set b*r = a*s + d")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", type=int, required=True)

    p = cmd("detect-line", _cmd_detect_line, help="detect a rational line")
    p.add_argument("--pairs", required=True)

    p = cmd("conic-orbit", _cmd_conic_orbit, help="Pell-type conic orbit")
    p.add_argument("--form", required=True, help="a,b,c")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", help="r,s")

    p = cmd("laurent", _cmd_laurent, help="exact Laurent coefficients of a conic")
    p.add_argument("--form", required=True, help="a,b,c")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--terms", type=int, default=4)

    p = cmd("build-periodic", _cmd_build_periodic, help="periodic-expansion construction")
    p.add_argument("--alpha", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--csv", action="store_true")

    p = cmd("detect-quad", _cmd_detect_quad, help="detect a conic form")
    p.add_argument("--pairs", required=True)

    p = cmd("growth", _cmd_growth, help="denominator growth classification")
    p.add_argument("--s", help="comma-separated denominators")
    p.add_argument("--pairs", help="pairs file")

    return top


def load_config(args) -> None:
    """Set each knob on args: its flag if given, else its value in the
    --config or RATAPPROX_CONFIG file, else its default."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    values = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            values = read_config(fh.read())
    for name, default in CONFIG_FIELDS:
        if getattr(args, name) is None:
            setattr(args, name, values.get(name, default))
    _refuse_non_positive(vars(args))


def _reject_unknown_top_options(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Usage error naming an unknown option ahead of the subcommand; argparse
    itself would take the option's value for the subcommand and blame it."""
    known = parser._option_string_actions
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        name, eq, _ = argv[i].partition("=")
        action = known.get(name)
        if action is None:
            parser.error(f"unrecognized arguments: {name}")
        i += 1 if eq or action.nargs == 0 else 2


# the parser main builds on its first call and reuses; argparse keeps no
# state between parse_args calls
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    # denominators legitimately reach thousands of digits; decimal-string
    # output is part of the contract
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else list(argv)
    if _parser is None:
        _parser = build_parser()
    _reject_unknown_top_options(_parser, argv)
    args = _parser.parse_args(argv)
    try:
        load_config(args)
        doc = args.handler(args)
    except (RatApproxError, ValueError, ZeroDivisionError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stdout.write(json_text(payload) + "\n")
        return 1
    if isinstance(doc, str):
        sys.stdout.write(doc)
    else:
        sys.stdout.write(json_text(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
